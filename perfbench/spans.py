"""Outside-in layer trace: wrap the package's public functions where they are bound.

A wrapper replaces a name in the module that imports it (for example
`tailratio.experiments.fit_mixture`), so only calls that cross a layer
boundary are recorded.  Each call becomes a span (id, name, start, end,
parent, thread, round) kept in memory and written out when the run ends.
A span's self time is its duration minus the part of it that its child
spans cover.  Worker threads start with no open span of their own; their
first spans take as parent the innermost span open on the main thread.
"""
from __future__ import annotations

import importlib
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module that binds the name, attribute, span name).  The `cli.*` entries
# are click commands, whose callbacks are wrapped.
TARGETS = (
    ("tailratio.cli", "sim-pvalues", "cli.sim_pvalues"),
    ("tailratio.cli", "fit", "cli.fit"),
    ("tailratio.cli", "eval", "cli.eval"),
    ("tailratio.cli", "thresholds", "cli.thresholds"),
    ("tailratio.cli", "load_scores", "io.load_scores"),
    ("tailratio.cli", "load_model", "io.load_model"),
    ("tailratio.cli", "save_model", "io.save_model"),
    ("tailratio.cli", "write_csv", "io.write_csv"),
    ("tailratio.cli", "pvalue_study", "experiments.pvalue_study"),
    ("tailratio.cli", "threshold_study", "experiments.threshold_study"),
    ("tailratio.cli", "fit_mixture", "fit.fit_mixture"),
    ("tailratio.experiments", "fit_mixture", "fit.fit_mixture"),
    ("tailratio.experiments", "split_dataset", "fit.split_dataset"),
    ("tailratio.fit", "minimize", "fit.minimize"),
    ("tailratio.cli", "evidence_numbers", "evidence.evidence_numbers"),
    ("tailratio.cli", "tipping_score", "evidence.tipping_score"),
    ("tailratio.experiments", "bootstrap_pvalue", "gof.bootstrap_pvalue"),
    ("tailratio.experiments", "ks_statistic", "gof.ks_statistic"),
    ("tailratio.experiments", "asymptotic_ks_pvalue", "gof.asymptotic_ks_pvalue"),
    ("tailratio.gof", "ks_statistic", "gof.ks_statistic"),
    ("tailratio.gof", "ad_statistic", "gof.ad_statistic"),
    ("tailratio.experiments", "mixture_sample", "dist.mixture_sample"),
    ("tailratio.gof", "mixture_sample", "dist.mixture_sample"),
    ("tailratio.gof", "mixture_cdf", "dist.mixture_cdf"),
    ("tailratio.evidence", "mixture_cdf", "dist.mixture_cdf"),
    ("tailratio.evidence", "mixture_sf", "dist.mixture_sf"),
)


def _attrs(name: str, args: tuple, result) -> dict | None:
    """Counts read off a call where the work happens."""
    if name == "fit.minimize":
        return {"nfev": int(result.nfev), "nit": int(result.nit), "success": bool(result.success)}
    if name == "io.load_scores":
        return {"rows": len(result)}
    if name == "gof.bootstrap_pvalue":
        return {"n": len(args[0])}
    return None


class Tracer:
    """Span recorder; `install` wraps every target, `uninstall` restores them."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.attrs: dict[int, dict] = {}
        self.round = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        spans, attrs, ids = self.spans, self.attrs, self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, threading.get_ident(), self.round))
            extra = _attrs(name, args, result)
            if extra is not None:
                attrs[sid] = extra
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            owner = module.main.commands[attr] if name.startswith("cli.") else module
            field = "callback" if name.startswith("cli.") else attr
            original = getattr(owner, field)
            self._saved.append((owner, field, original))
            setattr(owner, field, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, field, original = self._saved.pop()
            setattr(owner, field, original)

    def write(self, path: Path) -> None:
        """One JSON array per span: id, name, start, end, parent, thread, round, counts."""
        with open(path, "w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps([*span, self.attrs.get(span[0], {})]) + "\n")

    def layer_stats(self) -> dict:
        """Per span name: calls, inclusive and self seconds; plus the call-site counts."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        by_id = {}
        for sid, name, t0, t1, parent, _, _ in self.spans:
            children[parent].append((t0, t1))
            by_id[sid] = name
        stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, name, t0, t1, _, _, _ in self.spans:
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += t1 - t0
            s["self_s"] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        # tail evaluations made directly by a tipping-score search
        stats["evidence.tipping_score"]["cdf_calls"] = sum(
            1 for _, name, _, _, parent, _, _ in self.spans
            if name in ("dist.mixture_cdf", "dist.mixture_sf") and by_id.get(parent) == "evidence.tipping_score"
        )
        fit = {"nfev": 0, "nit": 0, "minimize_calls": 0, "converged": 0, "minimize_s": 0.0}
        for sid, name, t0, t1, _, _, _ in self.spans:
            if name == "fit.minimize":
                a = self.attrs[sid]
                fit["nfev"] += a["nfev"]
                fit["nit"] += a["nit"]
                fit["minimize_calls"] += 1
                fit["converged"] += a["success"]
                fit["minimize_s"] += t1 - t0
        rows = sum(self.attrs[sid]["rows"] for sid, name, *_ in self.spans if name == "io.load_scores")
        stats["io.load_scores"]["rows"] = rows
        return {"layers": dict(stats), "fit": fit}


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def main_thread_means(tracer: Tracer) -> dict[str, tuple[int, float]]:
    """Calls and mean inclusive seconds per span name, on the main thread only.

    Spans of `--workers 2` threads are left out, because they share the
    interpreter with a second replicate.  Bootstrap calls are split by
    sample size.
    """
    main = threading.main_thread().ident
    acc: dict[str, list[float]] = defaultdict(list)
    for sid, name, t0, t1, _, thread, _ in tracer.spans:
        if thread != main:
            continue
        if name == "gof.bootstrap_pvalue":
            name = f"{name} n={tracer.attrs[sid]['n']}"
        acc[name].append(t1 - t0)
    return {name: (len(v), sum(v) / len(v)) for name, v in sorted(acc.items())}
