"""Correctness checks on the program's outputs, computed with the benchmark's own numpy.

Each check returns None when the output is right and a one-line reason when
it is not; an operation whose check fails counts as failed.
"""
from __future__ import annotations

import json

import numpy as np
from scipy.special import expit

TIPPING_TOL = 1e-9
# Relative agreement asked of numbers the program and this file compute by
# the same formula in a different summation order.
SAME_FORMULA_RTOL = 1e-9


def mixture_cdf(model: dict, x) -> np.ndarray:
    z = (np.asarray(x, dtype=float)[..., None] - np.asarray(model["locations"])) / np.asarray(model["scales"])
    return expit(z) @ np.asarray(model["weights"])


def mixture_sf(model: dict, x) -> np.ndarray:
    z = (np.asarray(x, dtype=float)[..., None] - np.asarray(model["locations"])) / np.asarray(model["scales"])
    return expit(-z) @ np.asarray(model["weights"])


def log_likelihood(model: dict, x: np.ndarray) -> float:
    """Sum of log mixture densities, each log-sum-exp'd over components."""
    z = np.abs((x[:, None] - np.asarray(model["locations"])) / np.asarray(model["scales"]))
    logpdf = -z - 2.0 * np.log1p(np.exp(-z)) - np.log(model["scales"]) + np.log(model["weights"])
    return float(np.sum(np.logaddexp.reduce(logpdf, axis=1)))


def model_from_json(text: str) -> dict:
    comps = json.loads(text)["components"]
    return {
        "weights": tuple(float(c["weight"]) for c in comps),
        "locations": tuple(float(c["location"]) for c in comps),
        "scales": tuple(float(c["scale"]) for c in comps),
    }


def _csv_rows(data: bytes) -> tuple[dict, list[str], list[list[str]]]:
    meta, rows = {}, []
    lines = [ln for ln in data.decode().splitlines() if ln]
    while lines and lines[0].startswith("#"):
        key, _, value = lines.pop(0).lstrip("# ").partition("=")
        meta[key] = value
    if not lines:
        return meta, [], []
    return meta, lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def check_pvalues(data: bytes, reference: bytes | None, reps: int) -> str | None:
    """Every replicate present with p-values in [0, 1]; bytes equal to the reference."""
    meta, header, rows = _csv_rows(data)
    if header != ["rep", "ks_observed", "ad_observed", "ks_null", "ad_null"]:
        return f"unexpected header {header}"
    if meta.get("missing") != "0":
        return f"missing replicates reported: {meta.get('missing')}"
    if [r[0] for r in rows] != [str(i) for i in range(reps)]:
        return f"replicates present are not 0..{reps - 1}"
    try:
        values = np.array([[float(c) for c in r[1:]] for r in rows])
    except ValueError:
        return "a p-value cell is empty or not a number"
    if values.shape != (reps, 4) or not np.all((values >= 0.0) & (values <= 1.0)):
        return "a p-value lies outside [0, 1]"
    if reference is not None and data != reference:
        return "output bytes differ from the first run of the same seeded study"
    return None


def check_fit(stdout: str, model_json: str, data: np.ndarray, truth: dict) -> str | None:
    """The fitted model is at least as likely as the generating one on the same data."""
    report = json.loads(stdout)
    if report["n_points"] != data.size:
        return f"fit used {report['n_points']} of {data.size} scores"
    ll_fit = log_likelihood(model_from_json(model_json), data)
    ll_true = log_likelihood(truth, data)
    if not ll_fit >= ll_true:
        return f"fitted log-likelihood {ll_fit!r} below the generating model's {ll_true!r}"
    if abs(report["log_likelihood"] - ll_fit) > SAME_FORMULA_RTOL * abs(ll_fit):
        return f"reported log-likelihood {report['log_likelihood']!r} but the model gives {ll_fit!r}"
    return None


def expected_tables(scores, feature_counts, mated: dict, nonmated: dict, thresholds) -> dict:
    """Exclusion and error tables recomputed from the scores: {fc: (pairs, excl, err)}."""
    alpha = mixture_cdf(mated, scores)
    beta = mixture_sf(nonmated, scores)
    with np.errstate(divide="ignore"):
        ratio = np.where(beta > 0.0, alpha / np.where(beta > 0.0, beta, 1.0), np.inf)
    out = {}
    for fc in np.unique(feature_counts):
        r = ratio[feature_counts == fc]
        out[int(fc)] = (
            r.size,
            [float(np.mean(r < t)) for t in thresholds],
            [float(np.mean(r >= t)) for t in thresholds],
        )
    return out


def check_tables(exclusion: bytes, error: bytes, expected: dict, thresholds) -> str | None:
    """Cells complementary, and equal to the benchmark's own recomputation."""
    tables = []
    for data in (exclusion, error):
        _, header, rows = _csv_rows(data)
        if header[:2] != ["feature_count", "pairs"] or [float(t) for t in header[2:]] != list(thresholds):
            return f"unexpected header {header}"
        tables.append({int(r[0]): (int(r[1]), [float(c) for c in r[2:]]) for r in rows})
    excl, err = tables
    if sorted(excl) != sorted(expected) or sorted(err) != sorted(expected):
        return "table rows do not match the feature counts present"
    for fc, (pairs, want_excl, want_err) in expected.items():
        for table, want in ((excl, want_excl), (err, want_err)):
            if table[fc] != (pairs, want):
                return f"row for feature count {fc} differs from the recomputation"
        for e, i in zip(excl[fc][1], err[fc][1]):
            if abs(e + i - 1.0) > 1e-12:
                return f"exclusion {e!r} + error {i!r} != 1 at feature count {fc}"
    return None


def check_eval(stdout: str, score: float, mated: dict, nonmated: dict) -> str | None:
    """Tail risks right at the score; the reported tipping score equalizes them."""
    rep = json.loads(stdout)
    alpha, beta, ratio = rep.get("alpha"), rep.get("beta"), rep.get("ratio")
    if alpha is None or beta is None or ratio is None:
        return "alpha, beta or ratio missing"
    if rep["observed_score"] != score:
        return f"observed_score {rep['observed_score']!r} is not the requested {score!r}"
    if ratio != alpha / beta:
        return f"ratio {ratio!r} is not alpha / beta"
    for got, want in ((alpha, mixture_cdf(mated, score)), (beta, mixture_sf(nonmated, score))):
        if abs(got - want) > SAME_FORMULA_RTOL * want:
            return f"tail risk {got!r} where the models give {float(want)!r}"
    tp = rep.get("tipping_score")
    if tp is None:
        return "tipping_score missing"
    gap = abs(float(mixture_cdf(mated, tp)) - float(mixture_sf(nonmated, tp)))
    if not gap < TIPPING_TOL:
        return f"|alpha - beta| = {gap:.3e} at the reported tipping score {tp!r}"
    return None
