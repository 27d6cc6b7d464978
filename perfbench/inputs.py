"""Seeded benchmark inputs, written in the package's documented file formats.

The generating parameters are copied here as constants and sampled with
numpy's default_rng, so nothing in the package under test (its sampler, its
writers or its `gen` subcommand) can change what the benchmark feeds it.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Reference two-component non-mated mixture for 15-feature comparisons.
NONMATED = dict(weights=(0.8, 0.2), locations=(-83.75, -61.25), scales=(5.625, 10.9375))
# Default mated truth: one logistic to the right of the non-mated bulk.
MATED = dict(weights=(1.0,), locations=(15.0,), scales=(8.0,))
# Contamination of the non-mated population: weight, location, scale.
CONTAMINATION = (0.013, 45.0, 25.0)

SCORE_HEADER = "score,origin,feature_count,pair_id,source_id"


def contaminated(model: dict) -> dict:
    """The non-mated sampling model: the core scaled down plus the contamination."""
    w, loc, scale = CONTAMINATION
    return dict(
        weights=tuple(x * (1.0 - w) for x in model["weights"]) + (w,),
        locations=tuple(model["locations"]) + (loc,),
        scales=tuple(model["scales"]) + (scale,),
    )


def sample(model: dict, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws: a component by weight, then that logistic's inverse cdf."""
    w = np.asarray(model["weights"], dtype=float)
    idx = rng.choice(w.size, size=n, p=w / w.sum())
    u = rng.uniform(size=n)
    return np.asarray(model["locations"])[idx] + np.asarray(model["scales"])[idx] * np.log(u / (1.0 - u))


def write_scores(path: Path, scores: np.ndarray, origin: str, feature_counts=None) -> None:
    """Score CSV with the full header; floats by repr so the values round-trip."""
    if feature_counts is None:
        feature_counts = np.full(scores.size, 15)
    lines = [SCORE_HEADER]
    lines += [
        f"{float(s)!r},{origin},{int(fc)},{origin}-{i},"
        for i, (s, fc) in enumerate(zip(scores, feature_counts))
    ]
    path.write_text("\n".join(lines) + "\n")


def write_model(path: Path, model: dict, origin: str) -> None:
    """Model JSON in the package's format version 1."""
    obj = {
        "version": 1,
        "origin": origin,
        "feature_count": 15,
        "components": [
            {"weight": w, "location": loc, "scale": s}
            for w, loc, s in zip(model["weights"], model["locations"], model["scales"])
        ],
        "provenance": "benchmark input",
    }
    path.write_text(json.dumps(obj, indent=2) + "\n")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; `FULL` is measured, `SMALLEST` self-tested."""

    study_scores: int
    study_reps: int
    study_resample: int
    study_b: int
    fit_scores: int
    fit_datasets: int
    batch_rows: int
    evals_per_round: int
    eval_rounds: int


FULL = Sizes(
    study_scores=2000, study_reps=10, study_resample=1500, study_b=199,
    fit_scores=20_000, fit_datasets=10,
    batch_rows=100_000, evals_per_round=400, eval_rounds=8,
)
# The smallest sizes the package accepts for each subcommand.
SMALLEST = Sizes(
    study_scores=400, study_reps=10, study_resample=200, study_b=100,
    fit_scores=2000, fit_datasets=1,
    batch_rows=2000, evals_per_round=10, eval_rounds=1,
)


def make_inputs(workload: str, seed: int, sizes: Sizes, out: Path) -> dict:
    """Write one workload's inputs under `out`; return paths, arrays and digests."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0])
    files: dict[str, Path] = {}
    arrays: dict[str, np.ndarray] = {}
    if workload == "pvalue-study":
        files["scores"] = out / "study_scores.csv"
        write_scores(files["scores"], sample(contaminated(NONMATED), sizes.study_scores, rng), "nonmated")
    elif workload == "fit-large":
        for i in range(sizes.fit_datasets):
            files[f"fit{i}"] = out / f"fit_scores_{i}.csv"
            arrays[f"fit{i}"] = sample(NONMATED, sizes.fit_scores, np.random.default_rng([seed, 1, i]))
            write_scores(files[f"fit{i}"], arrays[f"fit{i}"], "nonmated")
    elif workload == "scoring":
        files["mated"] = out / "mated.json"
        files["nonmated"] = out / "nonmated.json"
        write_model(files["mated"], MATED, "mated")
        write_model(files["nonmated"], NONMATED, "nonmated")
        batch = sample(contaminated(NONMATED), sizes.batch_rows, rng)
        feature_counts = rng.integers(5, 16, size=sizes.batch_rows)
        files["batch"] = out / "batch_scores.csv"
        write_scores(files["batch"], batch, "nonmated", feature_counts)
        arrays["batch"], arrays["batch_fc"] = batch, feature_counts
        n_eval = sizes.evals_per_round * sizes.eval_rounds
        # Requests alternate between the two populations.
        requests = np.empty(n_eval)
        requests[0::2] = sample(MATED, (n_eval + 1) // 2, rng)
        requests[1::2] = sample(contaminated(NONMATED), n_eval // 2, rng)
        arrays["requests"] = requests
    else:
        raise ValueError(f"unknown workload {workload!r}")
    digests = {name: sha256(path) for name, path in files.items()}
    if "requests" in arrays:
        digests["requests"] = hashlib.sha256(arrays["requests"].tobytes()).hexdigest()
    return {"files": files, "arrays": arrays, "sha256": digests}
