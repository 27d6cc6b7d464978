#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at its smallest size, then every
correctness check fed a corrupted output, which it must reject.

    python3 perfbench/selftest.py

Exits 0 when the clean outputs pass and every corruption is caught.
"""
from __future__ import annotations

import json
import shutil
import sys

from run import ROOT, import_package

import_package()

import checks  # noqa: E402
from inputs import MATED, NONMATED, SMALLEST  # noqa: E402
from workloads import THRESHOLDS, WORKLOADS, guarded, run_cli  # noqa: E402

SEED = 7


def _flip_last_digit(data: bytes) -> bytes:
    """Change the last p-value's final digit by one bit."""
    pos = len(data.rstrip(b"\n")) - 1
    return data[:pos] + bytes([data[pos] ^ 0x01]) + data[pos + 1:]


def _shift_rows(data: bytes) -> bytes:
    """Move every rate row of a table down by one, keeping the row labels."""
    lines = data.decode().splitlines()
    body = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")][1:]
    cells = [lines[i].split(",") for i in body]
    rates = [c[2:] for c in cells]
    rates = rates[-1:] + rates[:-1]
    for i, c, r in zip(body, cells, rates):
        lines[i] = ",".join(c[:2] + r)
    return ("\n".join(lines) + "\n").encode()


def _worse_model() -> dict:
    return dict(NONMATED, locations=tuple(loc + 1.0 for loc in NONMATED["locations"]))


def main() -> int:
    results: list[tuple[str, bool]] = []
    base = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    try:
        for name, cls in WORKLOADS.items():
            w = cls(name, SEED, SMALLEST, base / name)
            w.setup(base / name / "inputs")
            ops = w.round(0)
            errors = [op.error for op in ops if op.error is not None]
            results.append((f"{name}: {len(ops)} ops at the smallest size pass their checks {errors[:1]}",
                            not errors))

            if name == "pvalue-study":
                data = (w.work / "pvalues_w2.csv").read_bytes()
                bad = guarded(checks.check_pvalues, _flip_last_digit(data), w.reference, SMALLEST.study_reps)
                results.append((f"pvalue-study: flipped byte rejected ({bad})", bad is not None))
            elif name == "fit-large":
                data = w.inputs["arrays"]["fit0"]
                worse = _worse_model()
                model_json = json.dumps({"components": [
                    {"weight": a, "location": b, "scale": c}
                    for a, b, c in zip(worse["weights"], worse["locations"], worse["scales"])]})
                stdout = json.dumps({"n_points": data.size,
                                     "log_likelihood": checks.log_likelihood(worse, data)})
                bad = guarded(checks.check_fit, stdout, model_json, data, NONMATED)
                results.append((f"fit-large: model worse than the truth rejected ({bad})", bad is not None))
            else:
                excl = (w.work / "audit_exclusion.csv").read_bytes()
                err = (w.work / "audit_error.csv").read_bytes()
                bad = guarded(checks.check_tables, _shift_rows(excl), err, w.expected, THRESHOLDS)
                results.append((f"scoring: shifted table row rejected ({bad})", bad is not None))
                score = float(w.inputs["arrays"]["requests"][0])
                models = ["--mated", str(w.inputs["files"]["mated"]),
                          "--nonmated", str(w.inputs["files"]["nonmated"])]
                stdout, _, error = run_cli(["eval", *models, "--score", repr(score)])
                rep = json.loads(stdout)
                rep["tipping_score"] += 0.01
                bad = guarded(checks.check_eval, json.dumps(rep), score, MATED, NONMATED)
                results.append((f"scoring: wrong tipping score rejected ({bad})", error is None and bad is not None))
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for line, ok in results:
        print(("PASS " if ok else "FAIL ") + line)
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
