"""The three workloads: what one round runs, how each op is checked, what it yields.

Every op is an in-process `tailratio.cli.main([...], standalone_mode=False)`
call, the way a user drives the package, made by one client in a closed loop.
A round is a fixed sequence of ops; a run repeats rounds until its time is up.
"""
from __future__ import annotations

import io
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tailratio.cli import main as tailratio_main

import checks
from inputs import MATED, NONMATED, Sizes, make_inputs

THRESHOLDS = (1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0)


@dataclass
class Op:
    kind: str
    seconds: float
    items: int
    error: str | None


def run_cli(args: list[str]) -> tuple[str, float, str | None]:
    """One subcommand call: (captured stdout, wall seconds, failure or None)."""
    buf = io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with redirect_stdout(buf):
            tailratio_main(args, standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (None, 0):
            error = f"exit code {exc.code}"
    except Exception as exc:  # any failure of the program under test is a failed op
        error = f"{type(exc).__name__}: {exc}"
    return buf.getvalue(), perf_counter() - t0, error


def guarded(check, *args) -> str | None:
    """Run a check; output that cannot even be parsed fails it."""
    try:
        return check(*args)
    except Exception as exc:  # a malformed output is a failed check, not a crash
        return f"unreadable output: {type(exc).__name__}: {exc}"


class Workload:
    """Inputs plus the op sequence of one round.

    Ops of kind `throughput_kind` give items_per_s; ops of kind
    `latency_kind` give op_ms_p50 and op_ms_p90.
    """

    throughput_kind = latency_kind = ""

    def __init__(self, name: str, seed: int, sizes: Sizes, work: Path) -> None:
        self.name, self.seed, self.sizes, self.work = name, seed, sizes, work
        self.inputs: dict = {}

    def setup(self, out: Path) -> None:
        self.inputs = make_inputs(self.name, self.seed, self.sizes, out)

    def round(self, i: int) -> list[Op]:
        raise NotImplementedError


class PValueStudy(Workload):
    """`sim-pvalues` at its defaults at --workers 1; the first round then
    repeats it at --workers 2, whose output bytes must not change.

    Only the single-threaded call is timed for the end-to-end metrics: the
    two-thread call's time swings with how much of the second core other
    tenants of the machine leave free, so it runs once, for the byte check
    and for the per-layer speed-up of the traced run.
    """

    throughput_kind = latency_kind = "study_w1"
    reference: bytes | None = None  # output of the first clean call

    def round(self, i: int) -> list[Op]:
        ops = []
        s = self.sizes
        for workers in (1, 2) if i == 0 else (1,):
            out = self.work / f"pvalues_w{workers}.csv"
            _, seconds, error = run_cli([
                "sim-pvalues", "--scores", str(self.inputs["files"]["scores"]),
                "--reps", str(s.study_reps), "--resample-n", str(s.study_resample),
                "--bootstrap-b", str(s.study_b), "--workers", str(workers),
                "--seed", str(self.seed), "--out", str(out),
            ])
            if error is None:
                data = out.read_bytes()
                error = guarded(checks.check_pvalues, data, self.reference, s.study_reps)
                if error is None and self.reference is None:
                    self.reference = data
            ops.append(Op(f"study_w{workers}", seconds, s.study_reps, error))
        return ops


class FitLarge(Workload):
    """`fit --restarts 1` on a fresh reference-mixture sample each round."""

    throughput_kind = latency_kind = "fit"

    def round(self, i: int) -> list[Op]:
        d = i % self.sizes.fit_datasets
        out = self.work / "fitted.json"
        stdout, seconds, error = run_cli([
            "fit", "--scores", str(self.inputs["files"][f"fit{d}"]), "--restarts", "1",
            "--seed", str(self.seed), "--out", str(out),
        ])
        if error is None:
            error = guarded(checks.check_fit, stdout, out.read_text(),
                            self.inputs["arrays"][f"fit{d}"], NONMATED)
        return [Op("fit", seconds, self.sizes.fit_scores, error)]


class Scoring(Workload):
    """(a) `thresholds` over a large score file, then (b) single `eval` requests."""

    throughput_kind, latency_kind = "batch", "eval"

    def setup(self, out: Path) -> None:
        super().setup(out)
        a = self.inputs["arrays"]
        self.expected = checks.expected_tables(a["batch"], a["batch_fc"], MATED, NONMATED, THRESHOLDS)

    def round(self, i: int) -> list[Op]:
        files = self.inputs["files"]
        models = ["--mated", str(files["mated"]), "--nonmated", str(files["nonmated"])]
        prefix = self.work / "audit"
        _, seconds, error = run_cli([
            "thresholds", "--scores", str(files["batch"]),
            "--mated-model", str(files["mated"]), "--nonmated-model", str(files["nonmated"]),
            "--thresholds", ",".join(repr(t) for t in THRESHOLDS), "--out-prefix", str(prefix),
        ])
        if error is None:
            error = guarded(checks.check_tables, Path(f"{prefix}_exclusion.csv").read_bytes(),
                            Path(f"{prefix}_error.csv").read_bytes(), self.expected, THRESHOLDS)
        ops = [Op("batch", seconds, self.sizes.batch_rows, error)]
        requests = self.inputs["arrays"]["requests"]
        n = self.sizes.evals_per_round
        for j in range(i * n, (i + 1) * n):
            score = float(requests[j % requests.size])
            stdout, seconds, error = run_cli(["eval", *models, "--score", repr(score)])
            if error is None:
                error = guarded(checks.check_eval, stdout, score, MATED, NONMATED)
            ops.append(Op("eval", seconds, 1, error))
        return ops


WORKLOADS = {"pvalue-study": PValueStudy, "fit-large": FitLarge, "scoring": Scoring}
