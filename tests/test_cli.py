"""Command-line interface: subcommands, seeding, determinism, error paths."""
from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout

import pytest
from click.testing import CliRunner

from tailratio import (
    DEFAULT_MATED_MODEL,
    EvidenceReport,
    MixtureModel,
    REFERENCE_NONMATED_MODEL,
    ad_statistic,
    asymptotic_ad_pvalue,
    asymptotic_ks_pvalue,
    ks_statistic,
    load_scores,
    packaged_data_path,
    save_model,
    tail_audit,
    tipping_score,
)
from tailratio import __file__ as tailratio_file
from tailratio.cli import main, render_report

from strategies import fit_failing_on

REF_JSON = "nonmated.json"
MATED_JSON = "mated.json"


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workdir(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_model(REFERENCE_NONMATED_MODEL, REF_JSON, provenance="test")
    save_model(DEFAULT_MATED_MODEL, MATED_JSON, provenance="test")
    return tmp_path


def invoke(runner, args, **kwargs):
    result = runner.invoke(main, args, catch_exceptions=False, **kwargs)
    return result


class TestGen:
    def test_writes_pinned_header_and_meta(self, runner, workdir):
        result = invoke(runner, ["gen", "--out", "s.csv", "--n-mated", "40", "--n-nonmated", "40"])
        assert result.exit_code == 0
        lines = (workdir / "s.csv").read_text().splitlines()
        meta = [ln for ln in lines if ln.startswith("# ")]
        assert any(ln.startswith("# seed=") for ln in meta)
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "score,origin,feature_count,pair_id,source_id"

    def test_byte_identical_reruns(self, runner, workdir):
        invoke(runner, ["gen", "--out", "a.csv", "--n-mated", "40", "--n-nonmated", "40", "--seed", "3"])
        invoke(runner, ["gen", "--out", "b.csv", "--n-mated", "40", "--n-nonmated", "40", "--seed", "3"])
        assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()

    @pytest.mark.parametrize("seed,code", [("-1", 2), ("4294967296", 2), ("4294967295", 0)])
    def test_seed_range_checked_at_parse_time(self, runner, workdir, seed, code):
        result = runner.invoke(main, ["gen", "--out", "s.csv", "--n-mated", "40", "--n-nonmated", "40",
                                      "--seed", seed])
        assert result.exit_code == code, result.output
        assert (workdir / "s.csv").exists() == (code == 0)
        if code:
            assert "Invalid value for '--seed'" in result.output

    def test_env_seed_respected_and_flag_wins(self, runner, workdir):
        invoke(runner, ["gen", "--out", "env.csv", "--n-mated", "40", "--n-nonmated", "40"],
               env={"TAILRATIO_SEED": "3"})
        invoke(runner, ["gen", "--out", "flag.csv", "--n-mated", "40", "--n-nonmated", "40", "--seed", "3"])
        assert (workdir / "env.csv").read_bytes() == (workdir / "flag.csv").read_bytes()
        invoke(runner, ["gen", "--out", "win.csv", "--n-mated", "40", "--n-nonmated", "40", "--seed", "4"],
               env={"TAILRATIO_SEED": "3"})
        assert (workdir / "win.csv").read_bytes() != (workdir / "flag.csv").read_bytes()

    def test_packaged_core_writes_the_default_rows(self, runner, workdir):
        args = ["gen", "--n-mated", "40", "--n-nonmated", "40", "--seed", "3"]
        invoke(runner, [*args, "--out", "builtin.csv"])
        core = str(packaged_data_path("nonmated_15.json"))
        result = invoke(runner, [*args, "--nonmated-core", core, "--out", "packaged.csv"])
        assert result.exit_code == 0

        def data_rows(name):
            return [ln for ln in (workdir / name).read_text().splitlines() if not ln.startswith("#")]

        assert data_rows("packaged.csv") == data_rows("builtin.csv")


class TestEvalAndReport:
    def test_eval_emits_all_four_numbers(self, runner, workdir):
        result = invoke(runner, ["eval", "--mated", MATED_JSON, "--nonmated", REF_JSON, "--score", "0"])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        for key in ("alpha", "beta", "ratio", "slr", "saturated", "slr_saturated"):
            assert key in obj
        assert obj["ratio"] == pytest.approx(obj["alpha"] / obj["beta"])

    def test_eval_saturation_uses_null_plus_flag(self, runner, workdir):
        result = invoke(runner, ["eval", "--mated", MATED_JSON, "--nonmated", REF_JSON,
                                 "--score", "50000"])
        obj = json.loads(result.output)
        assert obj["saturated"] is True
        assert obj["ratio"] is None  # inf is never serialized as a plain number

    def test_eval_flags_an_overflowed_ratio(self, runner, workdir):
        # beta is subnormal, not 0, and alpha / beta overflows to +inf
        obj = json.loads(invoke(runner, ["eval", "--mated", MATED_JSON, "--nonmated", REF_JSON,
                                         "--score", "7700"]).output)
        assert obj["beta"] == 1.335566869034685e-309
        assert obj["ratio"] is None and obj["saturated"] is True

    def test_eval_out_writes_the_stdout_bytes(self, runner, workdir):
        args = ["eval", "--mated", MATED_JSON, "--nonmated", REF_JSON, "--score", "-30"]
        stdout = invoke(runner, args).output
        result = invoke(runner, [*args, "--out", "e.json"])
        assert result.exit_code == 0 and result.output == ""
        assert (workdir / "e.json").read_text() == stdout

    @pytest.mark.parametrize("mated, nonmated, code", [
        (([1.0], [20.69747484641257], [4.8435080737305035e-12]), ([1.0], [0.1267580180631507], [0.05661123172663348]),
         0),
        (([1.0], [187725772.17945847], [1.230957397048295e-07]), ([1.0], [609899621298.4407], [81692882545.19823]),
         2),
    ], ids=["zero-interpolation-divisor", "no-convergence"])
    def test_eval_on_a_hard_tipping_search(self, runner, workdir, mated, nonmated, code):
        save_model(MixtureModel(*mated), "m.json")
        save_model(MixtureModel(*nonmated), "n.json")
        result = runner.invoke(main, ["eval", "--mated", "m.json", "--nonmated", "n.json", "--score", "0"])
        assert result.exit_code == code, result.output
        if code:
            assert result.stdout == ""
            assert json.loads(result.stderr)["error"]["code"] == "no_tipping_point"
        else:
            assert json.loads(result.stdout)["tipping_score"] == 20.697474844652394

    def test_report_sentence_shape(self, runner, workdir):
        result = invoke(runner, ["report", "--mated", MATED_JSON, "--nonmated", REF_JSON, "--score", "0"])
        assert result.output.strip() == (
            "Based on the observed similarity score, the risk of erroneous exclusion is "
            "200 times greater than the risk of erroneous identification. "
            "The risk of erroneous identification is 0.00074."
        )

    @pytest.mark.parametrize("score, sentence", [
        ("50000", "The risk of erroneous identification at this score is below the smallest representable "
                  "probability; the tail ratio is saturated and no finite factor can be reported. "
                  "The risk of erroneous identification is 0 at double precision."),
        ("7700", "The risk of erroneous identification at this score is so small that the tail ratio "
                 "overflows; no finite factor can be reported. The risk of erroneous identification is 1.3e-309."),
    ], ids=["beta zero", "beta subnormal"])
    def test_report_saturated_ratio_gives_no_factor(self, runner, workdir, score, sentence):
        result = invoke(runner, ["report", "--mated", MATED_JSON, "--nonmated", REF_JSON, "--score", score])
        assert result.output.strip() == sentence

    def test_report_smaller_direction(self, runner, workdir):
        # swapped models at a far-left score push the ratio well below 1
        result = invoke(runner, ["report", "--mated", REF_JSON, "--nonmated", MATED_JSON,
                                 "--score", "-100"])
        assert "times smaller than" in result.output
        assert "The risk of erroneous identification is" in result.output

    def test_report_factor_one_elides_direction(self, runner, workdir):
        result = invoke(runner, ["report", "--mated", REF_JSON, "--nonmated", REF_JSON,
                                 "--score", "-81.66733416550832"])
        assert "1 times the risk of erroneous identification" in result.output
        assert "greater" not in result.output
        assert "smaller" not in result.output

    def test_report_always_appends_beta(self, runner, workdir):
        for args in (["--score", "0"], ["--score", "-30"]):
            result = invoke(runner, ["report", "--mated", MATED_JSON, "--nonmated", REF_JSON, *args])
            assert "The risk of erroneous identification is" in result.output

    def test_report_underflowed_exclusion_risk_gives_no_factor(self, runner, workdir):
        # far left of both models alpha underflows to 0, so the ratio is 0 and has no finite inverse
        result = invoke(runner, ["report", "--mated", MATED_JSON, "--nonmated", REF_JSON, "--score", "-7000"])
        assert result.exit_code == 0
        assert result.output.strip() == (
            "The risk of erroneous exclusion at this score is below the smallest probability whose "
            "reciprocal is representable; the tail ratio underflows and no finite factor can be reported. "
            "The risk of erroneous identification is 1."
        )

    def test_report_ratio_with_overflowing_inverse_gives_no_factor(self):
        # a subnormal ratio is not 0, but 1 / ratio is +inf and would print as "inf times smaller"
        text = render_report(EvidenceReport(0.0, 1e-310, 1.0, 1e-310, 0.0))
        assert "no finite factor" in text and "inf" not in text
        assert text.endswith("The risk of erroneous identification is 1.")


class TestTails:
    def test_counts_mode_reproduces_published_rates(self, runner, workdir):
        result = invoke(runner, ["tails", "--model", REF_JSON, "--counts", "35,14,3",
                                 "--total", "2694", "--out", "t.csv"])
        assert result.exit_code == 0
        rows = [ln for ln in (workdir / "t.csv").read_text().splitlines() if not ln.startswith("#")]
        assert rows[0] == "cutpoint,expected_per_100k,observed_count,observed_total,observed_per_100k"
        first = rows[1].split(",")
        assert float(first[1]) == pytest.approx(73.71214611347743)
        assert float(first[4]) == pytest.approx(1299.1833704528583)

    def test_model_only_mode(self, runner, workdir):
        result = invoke(runner, ["tails", "--model", REF_JSON, "--out", "m.csv"])
        assert result.exit_code == 0
        rows = [ln for ln in (workdir / "m.csv").read_text().splitlines() if not ln.startswith("#")]
        assert rows[1].split(",")[2] == ""  # no observed column without data

    def test_scores_mode_equals_tail_audit(self, runner, workdir):
        invoke(runner, ["gen", "--out", "s.csv", "--n-mated", "40", "--n-nonmated", "400", "--seed", "0"])
        result = invoke(runner, ["tails", "--model", REF_JSON, "--scores", "s.csv", "--cutpoints", "-70,-60,0",
                                 "--out", "t.csv"])
        assert result.exit_code == 0
        rows = [ln.split(",") for ln in (workdir / "t.csv").read_text().splitlines() if not ln.startswith("#")]
        audit = tail_audit(REFERENCE_NONMATED_MODEL, load_scores("s.csv").scores(origin="nonmated"), [-70, -60, 0])
        assert [[float(c) for c in row] for row in rows[1:]] == [
            [c, e, n, audit.observed_total, o]
            for c, e, n, o in zip(audit.cutpoints, audit.expected_per_100k, audit.observed_count,
                                  audit.observed_per_100k)
        ]
        assert audit.observed_count[0] > audit.observed_count[1] > 0

    def test_counts_require_total(self, runner, workdir):
        result = runner.invoke(main, ["tails", "--model", REF_JSON, "--counts", "1,2,3",
                                      "--out", "x.csv"])
        assert result.exit_code != 0

    @pytest.mark.parametrize("extra, message", [
        (["--total", "2694"], "--counts and --total go together"),
        (["--scores", "s.csv", "--counts", "35,14,3", "--total", "2694"], "--scores takes no --counts or --total"),
        (["--scores", "s.csv", "--counts", "35,14,3"], "--scores takes no --counts or --total"),
        (["--scores", "s.csv", "--total", "2694"], "--scores takes no --counts or --total"),
        (["--origin", "mated", "--counts", "35,14,3", "--total", "2694"], "--origin goes with --scores"),
        (["--origin", "mated"], "--origin goes with --scores"),
    ], ids=["total", "scores-counts-total", "scores-counts", "scores-total", "origin-counts", "origin-model"])
    def test_inputs_it_would_ignore_rejected(self, runner, workdir, extra, message):
        invoke(runner, ["gen", "--out", "s.csv", "--n-mated", "40", "--n-nonmated", "100", "--seed", "0"])
        result = runner.invoke(main, ["tails", "--model", REF_JSON, *extra, "--out", "x.csv"])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not (workdir / "x.csv").exists()

    def test_bad_cutpoints_rejected(self, runner, workdir):
        result = runner.invoke(main, ["tails", "--cutpoints", "0,x", "--out", "t.csv"])
        assert result.exit_code == 2, result.output
        assert "bad cutpoints" in result.output
        assert not (workdir / "t.csv").exists()

    @pytest.mark.parametrize("counts", ["35.7,14,3", "nan,1,1", "inf,1,1"])
    def test_counts_must_be_whole_numbers(self, runner, workdir, counts):
        result = runner.invoke(main, ["tails", "--model", REF_JSON, "--counts", counts,
                                      "--total", "2694", "--out", "x.csv"])
        assert result.exit_code == 2, result.output
        err = json.loads(result.stderr)["error"]
        assert err["code"] == "domain_error" and err["message"].startswith("counts must be whole numbers")
        assert not (workdir / "x.csv").exists()


class TestSimToy:
    def test_byte_identical_reruns(self, runner, workdir):
        invoke(runner, ["sim-toy", "--reps", "100", "--out", "a.csv", "--seed", "2"])
        invoke(runner, ["sim-toy", "--reps", "100", "--out", "b.csv", "--seed", "2"])
        assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()

    def test_long_format_columns(self, runner, workdir):
        invoke(runner, ["sim-toy", "--reps", "100", "--out", "t.csv"])
        rows = [ln for ln in (workdir / "t.csv").read_text().splitlines() if not ln.startswith("#")]
        assert rows[0] == "scenario,hypothesis,rep,true_lr,frstat_like,saturated"
        assert len(rows) == 1 + 3 * 2 * 100  # header + scenarios x hypotheses x reps


class TestSimPvalues:
    def test_row_per_replicate_and_determinism(self, runner, workdir):
        invoke(runner, ["gen", "--out", "s.csv", "--n-mated", "100", "--n-nonmated", "400", "--seed", "0"])
        args = ["sim-pvalues", "--scores", "s.csv", "--reps", "10", "--resample-n", "200",
                "--seed", "1", "--out"]
        invoke(runner, [*args, "a.csv"])
        invoke(runner, [*args, "b.csv"])
        assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()
        rows = [ln for ln in (workdir / "a.csv").read_text().splitlines() if not ln.startswith("#")]
        assert rows[0] == "rep,ks_observed,ad_observed,ks_null,ad_null"
        assert len(rows) == 11

    def test_worker_count_does_not_change_bytes(self, runner, workdir):
        invoke(runner, ["gen", "--out", "s.csv", "--n-mated", "100", "--n-nonmated", "400", "--seed", "0"])
        base = ["sim-pvalues", "--scores", "s.csv", "--reps", "10", "--resample-n", "200", "--seed", "1"]
        invoke(runner, [*base, "--workers", "1", "--out", "w1.csv"])
        invoke(runner, [*base, "--workers", "2", "--out", "w2.csv"])
        assert (workdir / "w1.csv").read_bytes() == (workdir / "w2.csv").read_bytes()

    def test_failed_fits_leave_empty_rows(self, runner, workdir, monkeypatch):
        invoke(runner, ["gen", "--out", "s.csv", "--n-mated", "100", "--n-nonmated", "400", "--seed", "0"])
        args = ["sim-pvalues", "--scores", "s.csv", "--reps", "10", "--resample-n", "200", "--seed", "1"]
        invoke(runner, [*args, "--out", "full.csv"])
        monkeypatch.setattr("tailratio.experiments.fit_mixture", fit_failing_on(2, 5))
        result = invoke(runner, [*args, "--out", "holes.csv"])
        assert "(2 missing)" in result.output
        lines = (workdir / "holes.csv").read_text().splitlines()
        assert "# missing=2" in lines
        full = [ln for ln in (workdir / "full.csv").read_text().splitlines() if not ln.startswith("#")]
        rows = [ln for ln in lines if not ln.startswith("#")]
        assert rows[3] == "2,,,," and rows[6] == "5,,,,"
        assert [row for r, row in enumerate(rows) if r not in (3, 6)] == [
            row for r, row in enumerate(full) if r not in (3, 6)
        ]


class TestFitAndGof:
    def test_fit_writes_loadable_model(self, runner, workdir):
        invoke(runner, ["gen", "--out", "s.csv", "--n-mated", "100", "--n-nonmated", "600", "--seed", "0"])
        result = invoke(runner, ["fit", "--scores", "s.csv", "--origin", "nonmated",
                                 "--restarts", "1", "--out", "f.json"])
        assert result.exit_code == 0
        obj = json.loads((workdir / "f.json").read_text())
        assert obj["version"] == 1
        assert len(obj["components"]) == 2
        payload = json.loads(result.output)
        assert payload["n_points"] == 600
        assert payload["converged"] is True
        assert payload["nfev"] >= payload["nit"] >= 1

    @pytest.mark.parametrize("args", [
        ["gof", "--scores", "s.csv", "--model", REF_JSON, "--kind", "KS", "--out", "o.json"],
        ["gof", "--scores", "s.csv", "--model", REF_JSON, "--p-method", "none", "--out", "o.json"],
        ["sim-toy", "--pop-mean", "1", "--out", "o.csv"],
        ["sim-toy", "--between-sd", "2", "--out", "o.csv"],
        ["fit", "--scores", "s.csv", "--max-iter", "10", "--out", "o.json"],
        ["fit", "--scores", "s.csv", "--tol", "1e-6", "--out", "o.json"],
        ["thresholds", "--check"],
    ], ids=["gof --kind", "gof --p-method none", "sim-toy --pop-mean", "sim-toy --between-sd",
            "fit --max-iter", "fit --tol", "thresholds --check"])
    def test_removed_settings_are_usage_errors(self, runner, workdir, args):
        invoke(runner, ["gen", "--out", "s.csv", "--n-mated", "40", "--n-nonmated", "40", "--seed", "0"])
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "Usage:" in result.output
        assert not any(workdir.glob("o.*"))

    def test_gof_reports_both_statistics(self, runner, workdir):
        invoke(runner, ["gen", "--out", "s.csv", "--n-mated", "100", "--n-nonmated", "400", "--seed", "0"])
        result = invoke(runner, ["gof", "--scores", "s.csv", "--model", REF_JSON, "--seed", "0"])
        obj = json.loads(result.output)
        kinds = [o["statistic_kind"] for o in obj["outcomes"]]
        assert kinds == ["KS", "AD"]
        for o in obj["outcomes"]:
            assert 0.0 <= o["p_value"] <= 1.0

    def test_gof_asymptotic_reports_closed_form_for_both(self, runner, workdir):
        invoke(runner, ["gen", "--out", "s.csv", "--n-mated", "100", "--n-nonmated", "400", "--seed", "0"])
        result = invoke(runner, ["gof", "--scores", "s.csv", "--model", REF_JSON, "--p-method", "asymptotic"])
        assert result.exit_code == 0
        ks, ad = json.loads(result.output)["outcomes"]
        sample = load_scores("s.csv").scores(origin="nonmated")
        assert ks["p_value"] == asymptotic_ks_pvalue(ks_statistic(sample, REFERENCE_NONMATED_MODEL), 400)
        assert ad["statistic"] == ad_statistic(sample, REFERENCE_NONMATED_MODEL)
        assert ad["p_value"] == asymptotic_ad_pvalue(ad["statistic"], 400)
        assert (ad["statistic_kind"], ad["p_method"]) == ("AD", "asymptotic")

    @pytest.mark.parametrize("p_method", ["asymptotic", "bootstrap"])
    def test_gof_out_writes_the_stdout_bytes(self, runner, workdir, p_method):
        invoke(runner, ["gen", "--out", "s.csv", "--n-mated", "100", "--n-nonmated", "400", "--seed", "0"])
        b = ["--bootstrap-b", "100"] if p_method == "bootstrap" else []
        args = ["gof", "--scores", "s.csv", "--model", REF_JSON, "--p-method", p_method, *b, "--seed", "2"]
        stdout = invoke(runner, args).output
        result = invoke(runner, [*args, "--out", "g.json"])
        assert result.exit_code == 0 and result.output == ""
        assert (workdir / "g.json").read_text() == stdout

    @pytest.mark.parametrize("p_method", [[], ["--p-method", "asymptotic"]], ids=["default", "asymptotic"])
    def test_gof_bootstrap_b_without_bootstrap_rejected(self, runner, workdir, p_method):
        invoke(runner, ["gen", "--out", "s.csv", "--n-mated", "40", "--n-nonmated", "40", "--seed", "0"])
        result = runner.invoke(main, ["gof", "--scores", "s.csv", "--model", REF_JSON, *p_method,
                                      "--bootstrap-b", "5", "--out", "g.json"])
        assert result.exit_code == 2, result.output
        assert "--bootstrap-b goes with --p-method bootstrap" in result.output
        assert not (workdir / "g.json").exists()

    def test_feature_count_filters_fit_and_gof(self, runner, workdir):
        invoke(runner, ["gen", "--out", "a.csv", "--n-mated", "10", "--n-nonmated", "300", "--feature-count", "10",
                        "--seed", "0"])
        invoke(runner, ["gen", "--out", "b.csv", "--n-mated", "10", "--n-nonmated", "200", "--feature-count", "15",
                        "--seed", "1"])
        a, b = ([ln for ln in (workdir / name).read_text().splitlines() if not ln.startswith("#")]
                for name in ("a.csv", "b.csv"))
        (workdir / "s.csv").write_text("\n".join(a + b[1:]) + "\n")  # one header, feature counts 10 and 15
        result = invoke(runner, ["fit", "--scores", "s.csv", "--feature-count", "10", "--restarts", "1",
                                 "--out", "f.json"])
        assert json.loads(result.output)["n_points"] == 300
        assert json.loads((workdir / "f.json").read_text())["feature_count"] == 10
        result = invoke(runner, ["gof", "--scores", "s.csv", "--model", "f.json", "--feature-count", "15"])
        assert json.loads(result.output)["n"] == 200


class TestThresholds:
    def test_check_mode_passes_on_shipped_fixtures(self, runner, workdir):
        result = invoke(runner, ["check-tables"])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["cells"] == 66
        assert obj["violations"] == []

    def test_check_mode_flags_corrupted_fixture(self, runner, workdir, tmp_path):
        from tailratio import load_threshold_table
        from tailratio.io import packaged_data_path

        src = packaged_data_path("table5a_error.csv").read_text()
        bad = workdir / "bad_error.csv"
        bad.write_text(src.replace("6.0,6.0,6.0,1.0", "6.0,6.0,9.0,1.0"))
        result = runner.invoke(main, ["check-tables", "--error", str(bad)])
        assert result.exit_code == 1
        obj = json.loads(result.output)
        assert len(obj["violations"]) == 1
        assert obj["violations"][0]["feature_count"] == 15

    def test_check_mode_rejects_a_nan_threshold_column(self, runner, workdir):
        (workdir / "t.csv").write_text("feature_count,pairs,nan,inf\n5,10,0.5,0.5\n")
        result = runner.invoke(main, ["check-tables", "--exclusion", "t.csv", "--error", "t.csv"])
        assert result.exit_code == 2
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"] == {"code": "domain_error", "message": "thresholds must not be NaN"}

    def test_repeated_threshold_reported_as_json(self, runner, workdir):
        (workdir / "fc.csv").write_text(_three_feature_count_scores())
        result = runner.invoke(main, ["thresholds", "--scores", "fc.csv", "--thresholds", "10,1,10",
                                      "--out-prefix", "audit"])
        assert result.exit_code == 2
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"] == {"code": "domain_error", "message": "repeated threshold 10.0"}
        assert not (workdir / "audit_exclusion.csv").exists()

    @pytest.mark.parametrize("extra", [
        ["--scores", "s.csv"], ["--mated-model", MATED_JSON], ["--nonmated-model", REF_JSON],
        ["--out-prefix", "audit"], ["--thresholds", "1,10"],
    ], ids=["scores", "mated-model", "nonmated-model", "out-prefix", "thresholds"])
    def test_check_mode_rejects_compute_options(self, runner, workdir, extra):
        (workdir / "s.csv").write_text(_three_feature_count_scores())
        result = runner.invoke(main, ["check-tables", *extra])
        assert result.exit_code == 2, result.output
        assert f"No such option '{extra[0]}'" in result.output
        assert not (workdir / "audit_exclusion.csv").exists()

    @pytest.mark.parametrize("flags", [["--exclusion"], ["--error"], ["--exclusion", "--error"]],
                             ids=["exclusion", "error", "both"])
    def test_compute_mode_rejects_check_options(self, runner, workdir, flags):
        (workdir / "s.csv").write_text(_three_feature_count_scores())
        fixture = str(packaged_data_path("table5a_exclusion.csv"))
        extra = [arg for flag in flags for arg in (flag, fixture)]
        result = runner.invoke(main, ["thresholds", "--scores", "s.csv", "--out-prefix", "audit", *extra])
        assert result.exit_code == 2, result.output
        assert f"No such option '{flags[0]}'" in result.output
        assert not (workdir / "audit_exclusion.csv").exists()

    @pytest.mark.parametrize("args, missing", [
        (["--out-prefix", "audit"], "--scores"), (["--scores", "s.csv"], "--out-prefix"),
    ], ids=["scores", "out-prefix"])
    def test_compute_mode_needs_scores_and_out_prefix(self, runner, workdir, args, missing):
        (workdir / "s.csv").write_text(_three_feature_count_scores())
        result = runner.invoke(main, ["thresholds", *args])
        assert result.exit_code == 2, result.output
        assert f"Missing option '{missing}'" in result.output
        assert not (workdir / "audit_exclusion.csv").exists()

    def test_compute_mode_writes_pair(self, runner, workdir):
        invoke(runner, ["gen", "--out", "s.csv", "--n-mated", "100", "--n-nonmated", "300", "--seed", "0"])
        result = invoke(runner, ["thresholds", "--scores", "s.csv", "--out-prefix", "audit"])
        assert result.exit_code == 0
        excl = [ln for ln in (workdir / "audit_exclusion.csv").read_text().splitlines()
                if not ln.startswith("#")]
        err = [ln for ln in (workdir / "audit_error.csv").read_text().splitlines()
               if not ln.startswith("#")]
        assert excl[0].startswith("feature_count,pairs,")
        assert int(excl[1].split(",")[1]) == 300  # the 100 mated rows are not audited
        excl_rates = [float(v) for v in excl[1].split(",")[2:]]
        err_rates = [float(v) for v in err[1].split(",")[2:]]
        for a, b in zip(excl_rates, err_rates):
            assert a + b == pytest.approx(1.0)


@pytest.mark.parametrize("score, code", [("0", None), ("nan", 2)])
def test_in_process_call_keeps_no_redirected_stream_alive(workdir, score, code):
    # the JSON on stdout, or the JSON error line on stderr (a NaN score is a domain error)
    buf = io.StringIO()
    exit_code = None
    with redirect_stdout(buf), redirect_stderr(buf):
        try:
            main(["eval", "--mated", MATED_JSON, "--nonmated", REF_JSON, "--score", score], standalone_mode=False)
        except SystemExit as exc:
            exit_code = exc.code
    assert exit_code == code and buf.getvalue()
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None


# Both tails in the bulk and far out: alpha 0 at -50,000, alpha / beta
# overflowing at 7,700 (beta subnormal), beta and the non-mated density 0 at
# 50,000.  Each model pair's tipping score is added to the grid.
_SCORE_GRID = (-50_000.0, -1_000.0, -200.0, -120.0, -83.75, -61.25, -40.0, -0.0, 0.0, 12.5, 15.0, 35.5,
               100.0, 700.0, 7_700.0, 50_000.0)
# sha256 of every `eval` and `report` stdout over the grid, pinned like OUTPUT_DIGESTS below
SCORE_GRID_DIGEST = "882ea2f6e4467cbb70fc53bc4177b1560404eb3416b9cd20b3872577d7cb3ff0"


def test_eval_and_report_stdout_over_a_score_grid(workdir):
    # in-process from inside tmp_path, so the path strings, which meta.config_digest hashes, are fixed
    models = {MATED_JSON: DEFAULT_MATED_MODEL, REF_JSON: REFERENCE_NONMATED_MODEL}
    digest = hashlib.sha256()
    for mated, nonmated in ((MATED_JSON, REF_JSON), (REF_JSON, MATED_JSON)):
        for score in (*_SCORE_GRID, tipping_score(models[mated], models[nonmated]).observed_score):
            for command in ("eval", "report"):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    main([command, "--mated", mated, "--nonmated", nonmated, "--score", repr(score)],
                         standalone_mode=False)
                digest.update(buf.getvalue().encode())
    assert digest.hexdigest() == SCORE_GRID_DIGEST


_NO_OPTIMIZE_SCRIPT = """
import sys
from contextlib import redirect_stdout
from io import StringIO

import tailratio, tailratio.cli

runs = [
    ["gen", "--out", "s.csv", "--n-mated", "40", "--n-nonmated", "200", "--seed", "0"],
    ["eval", "--mated", "mated.json", "--nonmated", "nonmated.json", "--score", "-40"],
    ["report", "--mated", "mated.json", "--nonmated", "nonmated.json", "--score", "-40"],
    ["fit", "--scores", "s.csv", "--origin", "nonmated", "--restarts", "1", "--out", "f.json"],
]
for args in runs:
    with redirect_stdout(StringIO()):
        tailratio.cli.main(args, standalone_mode=False)
print(sorted(m for m in sys.modules if m.startswith("scipy.optimize")))
"""


def test_commands_never_import_scipy_optimize(workdir):
    # a fresh process: the import, eval, report and fit load no part of
    # scipy.optimize, about 0.2 s and 20 MB of every command's start
    src = os.path.dirname(os.path.dirname(tailratio_file))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run([sys.executable, "-c", _NO_OPTIMIZE_SCRIPT], cwd=workdir, env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


class TestErrorSurface:
    def test_missing_scores_file_gives_json_error(self, runner, workdir):
        result = runner.invoke(main, ["fit", "--scores", "ghost.csv", "--out", "f.json"])
        assert result.exit_code != 0

    def test_bootstrap_floor_reported_as_json(self, runner, workdir):
        invoke(runner, ["gen", "--out", "s.csv", "--n-mated", "100", "--n-nonmated", "400", "--seed", "0"])
        result = runner.invoke(main, ["gof", "--scores", "s.csv", "--model", REF_JSON,
                                      "--p-method", "bootstrap", "--bootstrap-b", "50"])
        assert result.exit_code == 2
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"]["code"] == "domain_error"
        assert "100" in err["error"]["message"]

    def test_malformed_model_component_reported_as_json(self, runner, workdir):
        (workdir / "bad.json").write_text(json.dumps({"version": 1, "components": [{"weight": 1.0, "location": 0.0}]}))
        result = runner.invoke(main, ["eval", "--mated", MATED_JSON, "--nonmated", "bad.json", "--score", "0"])
        assert result.exit_code == 2
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"]["code"] == "data_format_error"

    def test_non_number_model_fields_reported_as_json(self, runner, workdir):
        component = {"weight": True, "location": "-60", "scale": "1e1"}
        (workdir / "bad.json").write_text(json.dumps({"version": 1, "components": [component]}))
        result = runner.invoke(main, ["eval", "--mated", MATED_JSON, "--nonmated", "bad.json", "--score", "0"])
        assert result.exit_code == 2
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"]["code"] == "data_format_error"

    @pytest.mark.parametrize("command", sorted(main.commands))
    def test_library_error_reported_as_json(self, runner, workdir, command):
        # errors raised below the command line, in every subcommand, reach the one boundary at the group
        assert set(_LIBRARY_ERROR_CASES) == set(main.commands)
        args, code = _LIBRARY_ERROR_CASES[command]
        (workdir / "bad.json").write_bytes(b'{"version": 1, "provenance": "\xff"}\n')
        (workdir / "bad.csv").write_bytes(b"score,origin,feature_count,pair_id\n-60.0,nonmated,15,p\xff\n")
        result = runner.invoke(main, [command, *args])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert json.loads(result.stderr)["error"]["code"] == code


# One input per subcommand that makes the library raise; bad.json and bad.csv are not UTF-8.
_LIBRARY_ERROR_CASES = {
    "gen": (["--out", "s.csv", "--mated-model", "bad.json"], "data_format_error"),
    "fit": (["--scores", "bad.csv", "--out", "f.json"], "data_format_error"),
    "eval": (["--mated", MATED_JSON, "--nonmated", "bad.json", "--score", "0"], "data_format_error"),
    "gof": (["--scores", "bad.csv", "--model", REF_JSON], "data_format_error"),
    "tails": (["--model", "bad.json", "--out", "t.csv"], "data_format_error"),
    "sim-pvalues": (["--scores", "bad.csv", "--out", "p.csv"], "data_format_error"),
    "sim-toy": (["--reps", "10", "--out", "toy.csv"], "domain_error"),
    "thresholds": (["--scores", "bad.csv", "--out-prefix", "audit"], "data_format_error"),
    "check-tables": (["--exclusion", "bad.csv"], "data_format_error"),
    "report": (["--mated", "bad.json", "--nonmated", REF_JSON, "--score", "0"], "data_format_error"),
}


def _three_feature_count_scores() -> str:
    """A score CSV with non-mated rows at feature counts 5, 10 and 15.

    The rows span the reference mixture's bulk and tail, repeat scores so
    ratios tie, and include two scores whose ratio saturates to +inf.
    """
    lines = ["score,origin,feature_count,pair_id"]
    for j, fc in enumerate((5, 10, 15)):
        for i in range(120):
            score = -120.0 + 1.5 * i + 0.25 * j
            lines.append(f"{score!r},nonmated,{fc},n{fc}-{i}")
        lines.append(f"-60.0,nonmated,{fc},tie{fc}")
    lines += ["50000.0,nonmated,15,inf-0", "50000.0,nonmated,10,inf-1", "20.0,mated,15,m-0"]
    return "\n".join(lines) + "\n"


# sha256 of every CLI output, pinned to check that refactors leave the bytes
# alone.  Measured with numpy 2.4.6 and scipy 1.17.1: another numpy can change
# the seeded streams and another scipy the special functions, and so the
# digests.
OUTPUT_DIGESTS = {
    "gen": "2d8eb4ccc5c50c70cc6e6935f798d6ff33bd443af775602d4c5f952b8388ee29",
    "sim-toy": "51f0e884a80cd68d039d7e89c638dff7d24b1328a1febdf62cdd025cba44a35c",
    "sim-pvalues asymptotic": "678fc5ed8189bdaff9a606a7b7ff70914e21f987ea49d2bc09a15955ec484940",
    "sim-pvalues bootstrap": "2242088b21a88f417b59d5f72b5de1eeaa1b2f475af8b44896ffb1247ae1b9f0",
    "thresholds --check": "665edc81cf202c8462c6e39c91495571bee02e32561ac5985de693b1ed52d573",
    "thresholds exclusion": "e14be58a61da1dac66ab2a0bb7d158ca8b983b83cac15b9a2e526199cdb7bf9d",
    "thresholds error": "4e48b323b21ea51c8256636c170cdcdde542b798ffe2b81c3bdba952f77eae35",
    "fit stdout": "1b51353855ba8c3ea3cf93599cbe75475f7ed01a1871ba89fca6fdee4c40a336",
    "fit model": "c290da0aa19fa0d96526c8d32b8aa826dd9255c52755842fa4272a945217a096",
    "fit k=3": "ef7f30fd7cac932ad6824f52737b35d5962e562309e0dcd677902668b967ce39",
    "fit coarse to fine": "0fb04bd0736c96d5b83ba49db3c1740fb6cbfd23cbabc3337a11d90ca41b4840",
    "eval": "0bb9fe85340e34146f0fc5f08d9841a29dd2eb6cf9685a3c240148f3b29d3f25",
    "eval saturated": "7039c1bf821b2d9a11301dc864681454eea0fb98f38cb7848812d52d85d9488a",
    "gof bootstrap": "ebf14db403769d8d2a6d9c30cca62ecda9dbd3f3a4b6c62db0b1df22b0da6c73",
    "gof asymptotic": "06cc5e5e614266735d18d3c10c9fb6d010c9f8be70e189eeafa0bef5e1dae86e",
    "report": "580accc6f447c071f4e4ebe3d82b6ebe09633c179be4b3a77409a3ba43207690",
    "report smaller": "cfdf0447a779a9b31933d2767dbf001c069521466b33556d0a58ea59a215b6f1",
}


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    """Bytes of each pinned output, from one run of every subcommand."""
    runner = CliRunner()
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("digests"))
    try:
        save_model(REFERENCE_NONMATED_MODEL, REF_JSON, provenance="test")
        save_model(DEFAULT_MATED_MODEL, MATED_JSON, provenance="test")
        with open("fc.csv", "w") as fh:
            fh.write(_three_feature_count_scores())

        def run(args, code=0):
            result = runner.invoke(main, args, catch_exceptions=False)
            assert result.exit_code == code, result.output
            return result.output.encode()

        def read(path):
            with open(path, "rb") as fh:
                return fh.read()

        run(["gen", "--out", "s.csv", "--n-mated", "100", "--n-nonmated", "400", "--seed", "3"])
        run(["sim-toy", "--reps", "100", "--seed", "2", "--out", "toy.csv"])
        pv = ["sim-pvalues", "--scores", "s.csv", "--reps", "10", "--resample-n", "200",
              "--bootstrap-b", "100", "--seed", "1"]
        run([*pv, "--p-method", "asymptotic", "--out", "pv_asym.csv"])
        run([*pv, "--p-method", "bootstrap", "--out", "pv_boot.csv"])
        run(["thresholds", "--scores", "fc.csv", "--out-prefix", "audit"])
        fit_out = run(["fit", "--scores", "s.csv", "--restarts", "2", "--seed", "5", "--out", "f.json"])
        fit_k3 = run(["fit", "--scores", "s.csv", "--k", "3", "--restarts", "2", "--seed", "5", "--out", "f3.json"])
        # 8,000 non-mated rows: the first size that fits coarse to fine
        run(["gen", "--out", "large.csv", "--n-mated", "10", "--n-nonmated", "8000", "--seed", "6"])
        fit_large = run(["fit", "--scores", "large.csv", "--restarts", "3", "--seed", "7", "--out", "fl.json"])
        pair = ["--mated", MATED_JSON, "--nonmated", REF_JSON]
        return {
            "gen": read("s.csv"),
            "sim-toy": read("toy.csv"),
            "sim-pvalues asymptotic": read("pv_asym.csv"),
            "sim-pvalues bootstrap": read("pv_boot.csv"),
            "thresholds --check": run(["check-tables"]),
            "thresholds exclusion": read("audit_exclusion.csv"),
            "thresholds error": read("audit_error.csv"),
            "fit stdout": fit_out,
            "fit model": read("f.json"),
            "fit k=3": fit_k3 + read("f3.json"),
            "fit coarse to fine": fit_large + read("fl.json"),
            "eval": run(["eval", *pair, "--score", "-30"]),
            "eval saturated": run(["eval", *pair, "--score", "50000"]),
            "gof bootstrap": run(["gof", "--scores", "s.csv", "--model", "f.json", "--p-method", "bootstrap",
                                  "--bootstrap-b", "100", "--seed", "4"]),
            "gof default": run(["gof", "--scores", "s.csv", "--model", REF_JSON]),
            "gof asymptotic": run(["gof", "--scores", "s.csv", "--model", REF_JSON, "--p-method", "asymptotic"]),
            "report": run(["report", *pair, "--score", "0"]),
            "report smaller": run(["report", "--mated", REF_JSON, "--nonmated", MATED_JSON,
                                   "--score", "-100"]),
        }
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name", sorted(OUTPUT_DIGESTS))
def test_output_digest(cli_outputs, name):
    assert hashlib.sha256(cli_outputs[name]).hexdigest() == OUTPUT_DIGESTS[name]


def test_gof_defaults_to_the_closed_forms(cli_outputs):
    assert cli_outputs["gof default"] == cli_outputs["gof asymptotic"]


def test_sim_pvalues_bootstrap_keeps_the_closed_form_null_columns(cli_outputs):
    # the bootstrap refits only for the held-out panels; the meta lines name the method
    def null_columns(name):
        rows = [ln for ln in cli_outputs[name].decode().splitlines() if not ln.startswith("#")]
        return [row.split(",")[3:] for row in rows]

    boot, asym = null_columns("sim-pvalues bootstrap"), null_columns("sim-pvalues asymptotic")
    assert boot[0] == asym[0] == ["ks_null", "ad_null"]
    assert boot == asym
    assert cli_outputs["sim-pvalues bootstrap"] != cli_outputs["sim-pvalues asymptotic"]
