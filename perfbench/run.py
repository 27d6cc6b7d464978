#!/usr/bin/env python3
"""tailratio benchmark: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload {pvalue-study,fit-large,scoring} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from `src/`.  The last
line of stdout is one JSON object: `correct`, `attempted`, `failed` and
`metrics`.  With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` rounds alternate untraced and traced on the same inputs, and the
metrics are the per-layer ones (per traced round) plus the tracing overhead.
See perfbench/README.md for what every metric means on every workload.
"""
from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

PER_LAYER_SPANS = (
    "fit.fit_mixture", "gof.bootstrap_pvalue", "gof.ad_statistic", "gof.ks_statistic",
    "gof.asymptotic_ks_pvalue", "dist.mixture_sample", "dist.mixture_cdf",
    "evidence.evidence_numbers", "evidence.tipping_score", "experiments.threshold_study",
    "experiments.pvalue_study", "io.load_scores", "io.load_model", "io.write_csv",
    "cli.thresholds", "cli.eval", "cli.fit", "cli.sim_pvalues",
)


def import_package() -> None:
    src = ROOT / "src"
    if not (src / "tailratio" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source at {src / 'tailratio'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import tailratio

    if src.resolve() not in Path(tailratio.__file__).resolve().parents:
        raise SystemExit(f"benchmark: imported tailratio from {tailratio.__file__}, not from {src}")


def _end_to_end(workload, ops, import_s: float, setup_runs: list[float]) -> dict:
    through = [op for op in ops if op.kind == workload.throughput_kind]
    latency_ms = [1e3 * op.seconds for op in ops if op.kind == workload.latency_kind]
    return {
        "items_per_s": (statistics.median(op.items / op.seconds for op in through), "1/s"),
        "op_ms_p50": (float(np.percentile(latency_ms, 50)), "ms"),
        "op_ms_p90": (float(np.percentile(latency_ms, 90)), "ms"),
        "setup_s": (import_s + statistics.median(setup_runs), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_layer(stats: dict, rounds: int, overhead: list[float], plain_ops) -> dict:
    layers, fit = stats["layers"], stats["fit"]
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    out = {}
    for name in PER_LAYER_SPANS:
        s = layers.get(name, empty)
        out[f"{name}.calls"] = (s["calls"] / rounds, "count")
        out[f"{name}.self_s"] = (s["self_s"] / rounds, "s")
    fits = layers.get("fit.fit_mixture", empty)["calls"]
    out["fit.nfev_per_fit"] = (_ratio(fit["nfev"], fits), "count")
    out["fit.nit_per_fit"] = (_ratio(fit["nit"], fits), "count")
    out["fit.s_per_nfev"] = (_ratio(fit["minimize_s"], fit["nfev"]), "s")
    out["fit.converged_frac"] = (_ratio(fit["converged"], fit["minimize_calls"]), "frac")
    load = layers.get("io.load_scores", empty)
    out["io.load_scores.rows_per_s"] = (_ratio(load.get("rows", 0), load["total_s"]), "1/s")
    tip = layers.get("evidence.tipping_score", empty)
    out["evidence.cdf_calls_per_tipping"] = (_ratio(tip.get("cdf_calls", 0), tip["calls"]), "count")
    out["trace.overhead_frac"] = (statistics.median(overhead), "frac")
    w1, w2 = ([op.seconds for op in plain_ops if op.kind == kind] for kind in ("study_w1", "study_w2"))
    speedup = statistics.mean(w1) / statistics.mean(w2) if w1 and w2 else 0.0
    out["experiments.pvalue_study.speedup_2w"] = (speedup, "ratio")
    return out


def _reference_rows(means: dict) -> list[str]:
    """Mean inclusive time per call of the layers the ROADMAP baseline times."""
    wanted = {"fit.fit_mixture": ("s", 1.0), "evidence.evidence_numbers": ("us", 1e6),
              "evidence.tipping_score": ("ms", 1e3), "io.load_scores": ("s", 1.0),
              "gof.bootstrap_pvalue": ("ms", 1e3)}
    lines = []
    for name, (calls, mean_s) in means.items():
        unit, scale = wanted.get(name.split(" ")[0], (None, None))
        if unit is not None:
            lines.append(f"per call, main thread: {name} {scale * mean_s:.4g} {unit} ({calls} calls)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("pvalue-study", "fit-large", "scoring"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from inputs import FULL
    from spans import Tracer, main_thread_means
    from workloads import WORKLOADS

    import_s = perf_counter() - PROCESS_START
    bench_dir = ROOT / ".bench_work"
    work = bench_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    workload = WORKLOADS[args.workload](args.workload, args.seed, FULL, work)
    try:
        setup_runs = []
        for k in range(SETUP_REPEATS):
            t0 = perf_counter()
            workload.setup(work / f"inputs{k}")
            setup_runs.append(perf_counter() - t0)

        tracer = Tracer() if args.trace else None
        plain_ops, traced_ops, durations, overhead = [], [], [], []
        traced_rounds = 0
        start = perf_counter()
        i = 0
        while True:
            t0 = perf_counter()
            plain_ops += workload.round(i)
            t1 = perf_counter()
            if tracer is not None:
                tracer.round = i
                tracer.install()
                try:
                    traced_ops += workload.round(i)
                finally:
                    tracer.uninstall()
                overhead.append((perf_counter() - t1) / (t1 - t0) - 1.0)
                traced_rounds += 1
            durations.append(perf_counter() - t0)
            i += 1
            elapsed = perf_counter() - start
            # Untraced: stop before a round that would end more than half a
            # round late.  Traced: stop before a pair that would end late.
            late = statistics.median(durations) if tracer is not None else statistics.median(durations) / 2
            if (i >= 2 or tracer is not None) and elapsed + late > args.seconds:
                break
        measured_s = perf_counter() - start

        ops = plain_ops + traced_ops
        failed = [op for op in ops if op.error is not None]
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
              f"{i} {'pairs of rounds' if tracer else 'rounds'}, {len(ops)} ops in {measured_s:.1f} s")
        print(f"machine: {platform.machine()} {platform.processor() or ''} cpus={os.cpu_count()} "
              f"python {platform.python_version()} numpy {np.__version__} scipy {scipy.__version__}")
        for name, digest in workload.inputs["sha256"].items():
            print(f"input {name} sha256 {digest}")
        for op in failed[:5]:
            print(f"FAILED {op.kind}: {op.error}")
        print(f"error_rate {len(failed) / len(ops):.6g} ({len(failed)} of {len(ops)} ops)")

        if tracer is None:
            metrics = _end_to_end(workload, plain_ops, import_s, setup_runs)
        else:
            stats = tracer.layer_stats()
            metrics = _per_layer(stats, traced_rounds, overhead, plain_ops)
            for line in _reference_rows(main_thread_means(tracer)):
                print(line)
            trace_path = bench_dir / f"trace-{args.workload}.jsonl"
            tracer.write(trace_path)
            print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        print(json.dumps({
            "correct": not failed,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }))
        return 1 if failed else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
