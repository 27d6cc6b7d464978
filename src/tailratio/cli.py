"""Command-line front end.

Subcommands: gen, fit, eval, gof, tails, sim-pvalues, sim-toy, thresholds,
check-tables, report.  Every artifact embeds the seed, a digest of the
producing configuration, and the tool version; reruns with the same seed
produce byte-identical outputs regardless of worker count.  Failures exit
nonzero with a machine-readable JSON error on stderr.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, fields, replace
from typing import Any

import click
from click.core import ParameterSource

from ._version import __version__
from .dist import _ORIGINS
from .errors import TailratioError
from .evidence import evidence_numbers, tail_ratio, tipping_score
from .experiments import (
    DEFAULT_MATED_MODEL,
    DEFAULT_STUDY_FIT_CONFIG,
    DEFAULT_THRESHOLDS,
    REFERENCE_NONMATED_MODEL,
    SynthConfig,
    TailAudit,
    default_toy_scenarios,
    generate_synthetic,
    pvalue_study,
    table_fixture_check,
    tail_audit,
    threshold_study,
    toy_study,
)
from .fit import FitConfig, fit_mixture, split_dataset
from .gof import _P_METHODS, GofOutcome, _closed_forms, _sorted_sample, bootstrap_pvalue
from .io import (
    build_meta,
    config_digest,
    format_value,
    load_model,
    load_scores,
    load_threshold_table,
    packaged_data_path,
    save_model,
    save_scores,
    write_csv,
)
from .seeds import SEED_ENV_VAR, SPLIT

_SEED_OPTION = click.option(
    "--seed",
    type=click.IntRange(0, 2**32 - 1),
    default=0,
    envvar=SEED_ENV_VAR,
    show_default=True,
    help=f"Master seed (falls back to ${SEED_ENV_VAR}, then 0; an explicit flag always wins).",
)


def _echo(text: str, nl: bool = True, err: bool = False) -> None:
    """`click.echo` to the current stdout or stderr, looked up on every call.

    click's default stream lookup caches a wrapper per stream in a
    `WeakKeyDictionary` whose value is the stream itself, so each stdout a
    caller redirects to (an in-process `main` call under `redirect_stdout`,
    say) would never be freed.
    """
    click.echo(text, nl=nl, file=click.get_text_stream("stderr" if err else "stdout"))


def _emit_json(obj: dict[str, Any], out: str | None) -> None:
    text = json.dumps(_jsonable(obj), indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        _echo(text, nl=False)


def _jsonable(value: Any) -> Any:
    """Encode nonfinite floats as None; saturation stays visible via flags."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise click.BadParameter(f"bad {what}: {exc}")


def _from_command_line(name: str) -> bool:
    """Whether the current subcommand's parameter `name` was given on the command line."""
    return click.get_current_context().get_parameter_source(name) is ParameterSource.COMMANDLINE


class _Group(click.Group):
    """The one error boundary: a library or file error in any subcommand
    becomes a JSON error object on stderr and exit code 2."""

    def invoke(self, ctx: click.Context) -> Any:
        try:
            return super().invoke(ctx)
        except (TailratioError, OSError) as exc:
            obj = exc.to_json_obj() if isinstance(exc, TailratioError) else {"code": "io_error", "message": str(exc)}
            _echo(json.dumps({"error": obj}), err=True)
            sys.exit(2)


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="tailratio")
def main() -> None:
    """Tail-probability evidence ratios, mixture fitting, and validation studies."""


@main.command()
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="Output scores CSV.")
@click.option("--n-mated", type=int, default=SynthConfig.n_mated, show_default=True)
@click.option("--n-nonmated", type=int, default=SynthConfig.n_nonmated, show_default=True)
@click.option("--feature-count", type=int, default=SynthConfig.feature_count, show_default=True)
@click.option("--contamination-weight", type=float, default=SynthConfig.contamination_weight, show_default=True)
@click.option("--contamination-location", type=float, default=SynthConfig.contamination_location, show_default=True)
@click.option("--contamination-scale", type=float, default=SynthConfig.contamination_scale, show_default=True)
@click.option("--mated-model", "mated_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Mated truth model JSON (default: built-in single logistic at 15, scale 8).")
@click.option("--nonmated-core", "core_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Non-mated core model JSON (default: shipped reference mixture).")
@_SEED_OPTION
def gen(out, n_mated, n_nonmated, feature_count, contamination_weight,
        contamination_location, contamination_scale, mated_path, core_path, seed):
    """Generate a labeled synthetic score dataset."""
    kwargs: dict[str, Any] = dict(
        contamination_weight=contamination_weight,
        contamination_location=contamination_location,
        contamination_scale=contamination_scale,
        n_mated=n_mated,
        n_nonmated=n_nonmated,
        feature_count=feature_count,
    )
    config = dict(kwargs, subcommand="gen", mated_model=mated_path or "builtin",
                  nonmated_core=core_path or "builtin")
    if mated_path is not None:
        kwargs["mated_model"] = load_model(mated_path).model
    if core_path is not None:
        kwargs["nonmated_core"] = load_model(core_path).model
    dataset = generate_synthetic(SynthConfig(**kwargs, seed=seed))
    save_scores(dataset, out, meta=build_meta(seed, config))
    _echo(f"wrote {len(dataset)} records to {out}")


@main.command("fit")
@click.option("--scores", "scores_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--origin", type=click.Choice(_ORIGINS), default="nonmated", show_default=True)
@click.option("--feature-count", type=int, default=None, help="Filter scores to one feature count.")
@click.option("--k", type=int, default=FitConfig.k, show_default=True)
@click.option("--restarts", type=int, default=FitConfig.restarts, show_default=True)
@click.option("--train-fraction", type=float, default=None,
              help="Fit on a random train split of this fraction instead of all scores.")
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="Output model JSON.")
@_SEED_OPTION
def fit_cmd(scores_path, origin, feature_count, k, restarts, train_fraction, out, seed):
    """Fit a logistic mixture to scores by maximum likelihood."""
    dataset = load_scores(scores_path)
    scores = dataset.scores(origin=origin, feature_count=feature_count)
    config = dict(
        subcommand="fit",
        scores=str(scores_path),
        origin=origin,
        feature_count=feature_count,
        k=k,
        restarts=restarts,
        train_fraction=train_fraction,
    )
    if train_fraction is not None:
        scores = split_dataset(scores, train_fraction, (seed, SPLIT)).train
    result = fit_mixture(scores, FitConfig(k=k, restarts=restarts, seed=seed))
    model = replace(result.model, origin=origin, feature_count=feature_count)
    provenance = f"fitted by tailratio {__version__}; seed={seed}; config_digest={config_digest(config)}"
    save_model(model, out, provenance=provenance)
    _emit_json(
        {
            "log_likelihood": result.log_likelihood,
            "restart": result.restart,
            "converged": result.converged,
            "nit": result.nit,
            "nfev": result.nfev,
            "n_points": int(len(scores)),
            "out": str(out),
            "meta": build_meta(seed, config),
        },
        None,
    )


@main.command("eval")
@click.option("--mated", "mated_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--nonmated", "nonmated_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--score", type=float, required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write JSON here instead of stdout.")
def eval_cmd(mated_path, nonmated_path, score, out):
    """Evaluate the evidence numbers for one observed score."""
    mated = load_model(mated_path).model
    nonmated = load_model(nonmated_path).model
    rep = evidence_numbers(mated, nonmated, score)
    tp = tipping_score(mated, nonmated)
    config = dict(subcommand="eval", mated=str(mated_path), nonmated=str(nonmated_path), score=score)
    # a shallow copy: the report's fields are floats and bools
    report = {f.name: getattr(rep, f.name) for f in fields(rep)}
    _emit_json(
        {**report, "tipping_score": tp.observed_score, "slr_at_tipping_score": tp.slr, "meta": build_meta(0, config)},
        out,
    )


@main.command("gof")
@click.option("--scores", "scores_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--origin", type=click.Choice(_ORIGINS), default="nonmated", show_default=True)
@click.option("--feature-count", type=int, default=None)
@click.option("--p-method", type=click.Choice(_P_METHODS), default="asymptotic", show_default=True,
              help="closed forms, or a bootstrap that refits the model to every draw.")
@click.option("--bootstrap-b", type=int, default=199, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_SEED_OPTION
def gof_cmd(scores_path, model_path, origin, feature_count, p_method, bootstrap_b, out, seed):
    """Test scores against a model with the KS and AD statistics."""
    if p_method != "bootstrap" and _from_command_line("bootstrap_b"):
        raise click.BadParameter("--bootstrap-b goes with --p-method bootstrap")
    dataset = load_scores(scores_path)
    sample = dataset.scores(origin=origin, feature_count=feature_count)
    model = load_model(model_path).model
    if p_method == "bootstrap":
        # keyed (seed, 0): its draws sit one level below a study's null draws
        # (seed, r, RESAMPLE), so the two never share a stream under one seed
        outcomes = bootstrap_pvalue(sample, model, bootstrap_b, (seed, 0))
    else:
        ks, ad, ks_p, ad_p = _closed_forms(model, _sorted_sample(sample))
        outcomes = [GofOutcome(kind, float(stat), float(p), p_method)
                    for kind, stat, p in (("KS", ks, ks_p), ("AD", ad, ad_p))]
    config = dict(subcommand="gof", scores=str(scores_path), model=str(model_path), origin=origin,
                  feature_count=feature_count, p_method=p_method, bootstrap_b=bootstrap_b)
    _emit_json(
        {"outcomes": [asdict(o) for o in outcomes], "n": int(len(sample)), "meta": build_meta(seed, config)},
        out,
    )


@main.command("tails")
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Model JSON for the expected column (default: shipped reference mixture).")
@click.option("--cutpoints", default="0,25,50", show_default=True)
@click.option("--scores", "scores_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Observed scores CSV for the observed columns.")
@click.option("--origin", type=click.Choice(_ORIGINS), default="nonmated", show_default=True)
@click.option("--counts", default=None, help="Pre-binned exceedance counts, e.g. '35,14,3'.")
@click.option("--total", type=int, default=None, help="Total observations behind --counts.")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def tails_cmd(model_path, cutpoints, scores_path, origin, counts, total, out):
    """Audit a model's right tail against observed data, per 100,000."""
    model = load_model(model_path).model if model_path else REFERENCE_NONMATED_MODEL
    cuts = _parse_float_list(cutpoints, "cutpoints")
    if scores_path is not None and (counts is not None or total is not None):
        raise click.BadParameter("--scores takes no --counts or --total")
    if (counts is None) != (total is None):
        raise click.BadParameter("--counts and --total go together")
    if scores_path is None and _from_command_line("origin"):
        raise click.BadParameter("--origin goes with --scores")
    if scores_path is not None:
        observed = load_scores(scores_path).scores(origin=origin)
        audit = tail_audit(model, observed, cuts)
    elif counts is not None:
        audit = TailAudit.from_counts(cuts, _parse_float_list(counts, "counts"), total, model=model)
    else:
        audit = TailAudit.from_model(model, cuts)
    config = dict(subcommand="tails", model=model_path or "builtin", cutpoints=cutpoints,
                  scores=scores_path, origin=origin, counts=counts, total=total)
    n = len(audit.cutpoints)
    columns = (audit.cutpoints, audit.expected_per_100k, audit.observed_count, (audit.observed_total,) * n,
               audit.observed_per_100k)
    rows = zip(*((None,) * n if column is None else column for column in columns))
    write_csv(out, ["cutpoint", "expected_per_100k", "observed_count", "observed_total", "observed_per_100k"],
              rows, meta=build_meta(0, config))
    _echo(f"wrote {n} cutpoints to {out}")


@main.command("sim-pvalues")
@click.option("--scores", "scores_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--origin", type=click.Choice(_ORIGINS), default="nonmated", show_default=True)
@click.option("--feature-count", type=int, default=None)
@click.option("--reps", type=int, default=200, show_default=True)
@click.option("--fraction", type=float, default=0.75, show_default=True)
@click.option("--resample-n", type=int, default=1500, show_default=True)
@click.option("--k", type=int, default=DEFAULT_STUDY_FIT_CONFIG.k, show_default=True)
@click.option("--restarts", type=int, default=DEFAULT_STUDY_FIT_CONFIG.restarts, show_default=True)
@click.option("--p-method", type=click.Choice(_P_METHODS), default="asymptotic", show_default=True,
              help="p-value method for the held-out panels; the null panels always use the closed forms.")
@click.option("--bootstrap-b", type=int, default=199, show_default=True)
@click.option("--workers", type=int, default=1, show_default=True,
              help="threads for the bootstrap's per-replicate refits; the fits and the closed forms run as "
                   "stacked batches.")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@_SEED_OPTION
def sim_pvalues(scores_path, origin, feature_count, reps, fraction, resample_n, k, restarts,
                p_method, bootstrap_b, workers, out, seed):
    """Run the split/fit/test/resample p-value study; one CSV row per replicate."""
    dataset = load_scores(scores_path)
    data = dataset.scores(origin=origin, feature_count=feature_count)
    result = pvalue_study(
        data,
        reps=reps,
        fraction=fraction,
        resample_n=resample_n,
        fit_config=FitConfig(k=k, restarts=restarts),
        p_method=p_method,
        bootstrap_b=bootstrap_b,
        seed=seed,
        workers=workers,
    )
    config = dict(subcommand="sim-pvalues", scores=str(scores_path), origin=origin,
                  feature_count=feature_count, reps=reps, fraction=fraction, resample_n=resample_n,
                  k=k, restarts=restarts, p_method=p_method, bootstrap_b=bootstrap_b)
    panels = (result.ks_observed, result.ad_observed, result.ks_null, result.ad_null)
    kept = zip(*(p.tolist() for p in panels))
    missing = set(result.missing)
    rows = [[rep, *([None] * 4 if rep in missing else next(kept))] for rep in range(result.reps)]
    meta = build_meta(seed, config, extra={"missing": len(result.missing)})
    write_csv(out, ["rep", "ks_observed", "ad_observed", "ks_null", "ad_null"], rows, meta=meta)
    _echo(f"wrote {result.reps} replicates to {out} ({len(result.missing)} missing)")


@main.command("sim-toy")
@click.option("--reps", type=int, default=1000, show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@_SEED_OPTION
def sim_toy(reps, out, seed):
    """Run the toy convergence study; one CSV row per draw."""
    study = toy_study(default_toy_scenarios(), reps, seed=seed)
    config = dict(subcommand="sim-toy", reps=reps)
    header = ["scenario", "hypothesis", "rep", "true_lr", "frstat_like", "saturated"]
    rows = zip(*(getattr(study, name).tolist() for name in header))
    write_csv(out, header, rows, meta=build_meta(seed, config))
    _echo(f"wrote {len(study)} rows to {out}")


@main.command("thresholds")
@click.option("--scores", "scores_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--mated-model", "mated_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--nonmated-model", "nonmated_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--thresholds", "thresholds_text", default=",".join(f"{t:g}" for t in DEFAULT_THRESHOLDS),
              show_default=True)
@click.option("--out-prefix", required=True, help="Write <prefix>_exclusion.csv and <prefix>_error.csv.")
def thresholds_cmd(scores_path, mated_path, nonmated_path, thresholds_text, out_prefix):
    """Audit decision-rule thresholds on a score file."""
    thresholds = _parse_float_list(thresholds_text, "thresholds")
    mated = load_model(mated_path).model if mated_path else DEFAULT_MATED_MODEL
    nonmated = load_model(nonmated_path).model if nonmated_path else REFERENCE_NONMATED_MODEL
    dataset = load_scores(scores_path)
    is_nonmated = dataset.origin == "nonmated"
    _, _, ratio, _ = tail_ratio(mated, nonmated, dataset.score[is_nonmated])
    excl_table, err_table = threshold_study(ratio, dataset.feature_count[is_nonmated], thresholds)
    config = dict(subcommand="thresholds", scores=str(scores_path), mated_model=mated_path or "builtin",
                  nonmated_model=nonmated_path or "builtin", thresholds=thresholds_text)
    meta = build_meta(0, config)
    for table, suffix in ((excl_table, "exclusion"), (err_table, "error")):
        rows = [
            [fc, pairs, *rates]
            for fc, pairs, rates in zip(table.feature_counts, table.pair_counts, table.rates.tolist())
        ]
        write_csv(f"{out_prefix}_{suffix}.csv",
                  ["feature_count", "pairs", *[format_value(t) for t in table.thresholds]],
                  rows, meta=meta)
    _echo(f"wrote {out_prefix}_exclusion.csv and {out_prefix}_error.csv")


@main.command("check-tables")
@click.option("--exclusion", "exclusion_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Correct-exclusion fixture CSV (default: shipped).")
@click.option("--error", "error_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Erroneous-identification fixture CSV in percent (default: shipped).")
def check_tables(exclusion_path, error_path):
    """Check that a published table pair sums to 1 cell by cell."""
    excl = load_threshold_table(exclusion_path or packaged_data_path("table5a_exclusion.csv"), "correct_exclusion")
    err = load_threshold_table(error_path or packaged_data_path("table5a_error.csv"),
                               "erroneous_identification", percent=True)
    violations = table_fixture_check(excl, err)
    _emit_json(
        {"cells": len(excl.feature_counts) * len(excl.thresholds), "violations": [asdict(v) for v in violations]},
        None,
    )
    if violations:
        sys.exit(1)


@main.command("report")
@click.option("--mated", "mated_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--nonmated", "nonmated_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--score", type=float, required=True)
def report_cmd(mated_path, nonmated_path, score):
    """Print the reporting sentence for one observed score."""
    mated = load_model(mated_path).model
    nonmated = load_model(nonmated_path).model
    rep = evidence_numbers(mated, nonmated, score)
    _echo(render_report(rep))


def _one_significant_figure(x: float) -> float:
    if x <= 0.0 or not math.isfinite(x):
        return x
    exponent = math.floor(math.log10(x))
    base = 10.0**exponent
    return round(x / base) * base


def render_report(rep) -> str:
    """Fill the reporting template for an evidence report.

    The ratio is rounded to one significant figure; the direction word is
    elided when the rounded factor is 1; the absolute risk of erroneous
    identification is always appended, because the ratio alone hides its
    magnitude.  A saturated ratio, or one too small to invert, gets a
    sentence that reports no factor.
    """
    if rep.saturated and rep.beta == 0.0:
        return (
            "The risk of erroneous identification at this score is below the smallest "
            "representable probability; the tail ratio is saturated and no finite factor "
            "can be reported. The risk of erroneous identification is 0 at double precision."
        )
    if rep.saturated:
        return (
            "The risk of erroneous identification at this score is so small that the tail ratio "
            "overflows; no finite factor can be reported. "
            f"The risk of erroneous identification is {rep.beta:.2g}."
        )
    if rep.ratio < 1.0 / sys.float_info.max:
        # alpha underflowed to 0, or is so far below beta that 1 / ratio overflows
        return (
            "The risk of erroneous exclusion at this score is below the smallest probability whose "
            "reciprocal is representable; the tail ratio underflows and no finite factor can be reported. "
            f"The risk of erroneous identification is {rep.beta:.2g}."
        )
    if rep.ratio >= 1.0:
        factor = _one_significant_figure(rep.ratio)
        direction = "greater"
    else:
        factor = _one_significant_figure(1.0 / rep.ratio)
        direction = "smaller"
    if factor == 1.0:
        body = (
            "the risk of erroneous exclusion is 1 times the risk of erroneous identification"
        )
    else:
        body = (
            f"the risk of erroneous exclusion is {factor:g} times {direction} than "
            "the risk of erroneous identification"
        )
    return (
        f"Based on the observed similarity score, {body}. "
        f"The risk of erroneous identification is {rep.beta:.2g}."
    )


if __name__ == "__main__":
    main()
