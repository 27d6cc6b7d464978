"""Seeded experiment harnesses: synthetic data, tail audits, p-value and
toy convergence studies, and threshold decision-rule tables.

Every harness is deterministic under a fixed master seed and invariant to
worker count: each replicate owns RNG substreams keyed by (seed, replicate
index, ..., purpose) and results are aggregated by replicate index.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.polynomial.hermite_e import hermeval
from scipy.special import erf, erfc, factorial, ndtr

from .dist import _FEATURE_COUNTS, _ORIGINS, MixtureModel, _stack, mixture_sample, mixture_sf
from .errors import DomainError, FitFailureError
from .evidence import _saturating_ratio
from .fit import FitConfig, fit_mixture, split_dataset
from .gof import _MIN_B, _P_METHODS, _closed_forms, bootstrap_pvalue
from .gof import asymptotic_ks_pvalue, ks_statistic  # noqa: F401  kept bound: perfbench's layer trace wraps them
from .seeds import GEN_MATED, GEN_NONMATED, RESAMPLE, SPLIT, TOY_CELL, Key, key_path, substream

__all__ = [
    "REFERENCE_NONMATED_MODEL",
    "DEFAULT_MATED_MODEL",
    "DEFAULT_STUDY_FIT_CONFIG",
    "DEFAULT_THRESHOLDS",
    "ScoreDataset",
    "SynthConfig",
    "TailAudit",
    "PValueStudyResult",
    "ToyScenario",
    "ToyStudy",
    "ThresholdTable",
    "Violation",
    "generate_synthetic",
    "tail_audit",
    "pvalue_study",
    "toy_study",
    "specific_source_lr",
    "default_toy_scenarios",
    "threshold_study",
    "table_fixture_check",
]

#: Published reference mixture for 15-feature non-mated comparisons.
REFERENCE_NONMATED_MODEL = MixtureModel(
    weights=(0.8, 0.2),
    locations=(-83.75, -61.25),
    scales=(5.625, 10.9375),
    origin="nonmated",
    feature_count=15,
)

#: Default synthetic truth for mated scores: one logistic well to the right
#: of the non-mated bulk.
DEFAULT_MATED_MODEL = MixtureModel(
    weights=(1.0,),
    locations=(15.0,),
    scales=(8.0,),
    origin="mated",
    feature_count=15,
)

#: Study-scale fitting default.  On the 400 criterion-7/8 training splits
#: (1,500 scores each) four jittered restarts on top of restart 0 never
#: improved the log-likelihood by more than 1e-8 * |f|, so restart 0 won every
#: time with an identical model; the studies trade the restarts for runtime.
DEFAULT_STUDY_FIT_CONFIG = FitConfig(k=2, restarts=1)

#: Decision-rule thresholds audited by the shipped tables.
DEFAULT_THRESHOLDS = (1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0)

_COMPLEMENT_TOL = 1e-3


@dataclass(frozen=True, eq=False)
class ScoreDataset:
    """Labeled scores as parallel columns, one entry per compared pair.

    `source_id` is None where a row names no source; an empty `source_id`
    is stored as None, so it saves and loads as itself.  Every row is checked
    on construction: a finite score, a known origin, an integer feature
    count in [5, 15] and a nonempty pair id.  The first bad row raises a
    DomainError whose payload carries its index as `row`.
    """

    score: np.ndarray
    origin: np.ndarray
    feature_count: np.ndarray
    pair_id: np.ndarray
    source_id: np.ndarray

    def __post_init__(self) -> None:
        score = np.asarray(self.score, dtype=float)
        origin = np.asarray(self.origin, dtype=str)
        feature_count = np.asarray(self.feature_count)
        pair_id = np.asarray(self.pair_id, dtype=object)
        source_id = np.array(self.source_id, dtype=object)
        source_id[source_id == ""] = None
        if score.ndim != 1 or {c.shape for c in (origin, feature_count, pair_id, source_id)} != {score.shape}:
            raise DomainError("score columns must be one-dimensional and of equal length")
        problems = (
            (~np.isfinite(score), "score must be finite", score),
            (~np.isin(origin, _ORIGINS), "origin must be 'mated' or 'nonmated'", origin),
            (~np.isin(feature_count, _FEATURE_COUNTS, kind="sort"), "feature_count must be an integer in [5, 15]",
             feature_count),
            (~pair_id.astype(bool), "pair_id must be nonempty", pair_id),
        )
        first_bad = [(int(np.argmax(bad)), k) for k, (bad, _, _) in enumerate(problems) if np.any(bad)]
        if first_bad:
            row, k = min(first_bad)
            _, what, column = problems[k]
            raise DomainError(f"row {row}: {what}, got {column[row:row + 1].tolist()[0]!r}", row=row)
        object.__setattr__(self, "score", score)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "feature_count", feature_count.astype(int))
        object.__setattr__(self, "pair_id", pair_id)
        object.__setattr__(self, "source_id", source_id)

    def __len__(self) -> int:
        return self.score.size

    def scores(self, origin: str | None = None, feature_count: int | None = None) -> np.ndarray:
        """Scores filtered by origin and/or feature count, in row order."""
        keep = np.ones(len(self), dtype=bool)
        if origin is not None:
            keep &= self.origin == origin
        if feature_count is not None:
            keep &= self.feature_count == feature_count
        return self.score[keep]


@dataclass(frozen=True)
class SynthConfig:
    """Synthetic dataset configuration.

    Non-mated scores are drawn from (1 - w) * core + w * contamination where
    the contamination is a wide logistic sitting to the right of the core
    bulk.  The default weight and placement land the observed frequency of
    positive non-mated scores near 1.3%, the pooled rate the shipped tail
    fixture records, and produce the flat trailing right tail that a
    two-component refit cannot absorb without ruining its fit to the bulk.
    """

    mated_model: MixtureModel = DEFAULT_MATED_MODEL
    nonmated_core: MixtureModel = REFERENCE_NONMATED_MODEL
    contamination_weight: float = 0.013
    contamination_location: float = 45.0
    contamination_scale: float = 25.0
    n_mated: int = 1996
    n_nonmated: int = 2000
    feature_count: int = 15
    seed: Key = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.contamination_weight < 0.5:
            raise DomainError(
                f"contamination_weight must be in [0, 0.5), got {self.contamination_weight}"
            )
        if self.contamination_scale <= 0.0:
            raise DomainError(f"contamination_scale must be positive, got {self.contamination_scale}")
        if self.n_mated < 0 or self.n_nonmated < 0:
            raise DomainError("record counts must be nonnegative")
        if self.feature_count not in _FEATURE_COUNTS:
            raise DomainError(f"feature_count must be an integer in [5, 15], got {self.feature_count!r}")

    def nonmated_model(self) -> MixtureModel:
        """The full non-mated sampling model: core scaled down plus contamination."""
        w = self.contamination_weight
        core = self.nonmated_core
        if w == 0.0:
            return core
        return MixtureModel(
            weights=np.concatenate([core.weights * (1.0 - w), [w]]),
            locations=np.concatenate([core.locations, [self.contamination_location]]),
            scales=np.concatenate([core.scales, [self.contamination_scale]]),
            origin=core.origin,
            feature_count=core.feature_count,
        )


# Scores per mated source under the round-robin id assignment.
_SCORES_PER_SOURCE = 10


def generate_synthetic(cfg: SynthConfig) -> ScoreDataset:
    """Generate a labeled synthetic dataset from the configured truth models.

    Mated and non-mated draws use independent substreams (*seed, GEN_MATED)
    and (*seed, GEN_NONMATED).  Mated rows are assigned round-robin ids:
    each score is one compared pair, and every block of 10 consecutive
    scores shares a source.
    """
    n_m, n_n, seed = cfg.n_mated, cfg.n_nonmated, key_path(cfg.seed)
    mated = mixture_sample(cfg.mated_model, n_m, (*seed, GEN_MATED)) if n_m > 0 else np.empty(0)
    nonmated = mixture_sample(cfg.nonmated_model(), n_n, (*seed, GEN_NONMATED)) if n_n > 0 else np.empty(0)
    return ScoreDataset(
        score=np.concatenate([mated, nonmated]),
        origin=np.repeat(_ORIGINS, [n_m, n_n]),
        feature_count=np.full(n_m + n_n, cfg.feature_count),
        pair_id=[f"mated-{i}" for i in range(n_m)] + [f"nonmated-{i}" for i in range(n_n)],
        source_id=[f"source-{i // _SCORES_PER_SOURCE}" for i in range(n_m)] + [None] * n_n,
    )


@dataclass(frozen=True, eq=False)
class TailAudit:
    """Model-expected vs observed right-tail rates at a set of cutpoints, per 100,000."""

    cutpoints: tuple[float, ...]
    expected_per_100k: tuple[float, ...] | None
    observed_count: tuple[int, ...] | None
    observed_total: int | None
    observed_per_100k: tuple[float, ...] | None

    @classmethod
    def from_model(cls, model: MixtureModel, cutpoints: Sequence[float]) -> "TailAudit":
        """Expected rates only, from the model's right tail."""
        cuts = tuple(float(c) for c in cutpoints)
        if len(cuts) == 0:
            raise DomainError("need at least one cutpoint")
        expected = tuple(1e5 * mixture_sf(model, c) for c in cuts)
        return cls(cuts, expected, None, None, None)

    @classmethod
    def from_counts(
        cls,
        cutpoints: Sequence[float],
        counts: Sequence[int],
        total: int,
        model: MixtureModel | None = None,
    ) -> "TailAudit":
        """Observed rates from pre-binned exceedance counts, plus expected if a model is given."""
        cuts = tuple(float(c) for c in cutpoints)
        if not all(float(c).is_integer() for c in counts):
            raise DomainError(f"counts must be whole numbers, got {list(counts)}")
        cnts = tuple(int(c) for c in counts)
        if len(cuts) == 0 or len(cuts) != len(cnts):
            raise DomainError("cutpoints and counts must align and be nonempty")
        if not float(total).is_integer() or total < 1:
            raise DomainError(f"total must be a finite whole number of at least 1, got {total!r}")
        total = int(total)
        if any(c < 0 or c > total for c in cnts):
            raise DomainError("counts must be within [0, total]")
        expected = tuple(1e5 * mixture_sf(model, c) for c in cuts) if model is not None else None
        observed = tuple(1e5 * c / total for c in cnts)
        return cls(cuts, expected, cnts, total, observed)


def tail_audit(model: MixtureModel, observed, cutpoints: Sequence[float]) -> TailAudit:
    """Audit a model's right tail against observed scores at the given cutpoints."""
    arr = np.asarray(observed, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("observed scores must be one-dimensional and nonempty")
    if not np.all(np.isfinite(arr)):
        raise DomainError("observed scores must be finite")
    cuts = [float(c) for c in cutpoints]
    counts = [int(np.sum(arr > c)) for c in cuts]
    return TailAudit.from_counts(cuts, counts, int(arr.size), model=model)


_PANELS = ("ks_observed", "ad_observed", "ks_null", "ad_null")


@dataclass(frozen=True, eq=False)
class PValueStudyResult:
    """Four p-value panels from the split/fit/test/resample protocol, as float arrays.

    Entry i of every panel comes from the i-th replicate whose fit
    succeeded.  Replicates whose fit failed are excluded from the panels
    but recorded in `missing` so the failure count stays visible.
    """

    ks_observed: np.ndarray
    ad_observed: np.ndarray
    ks_null: np.ndarray
    ad_null: np.ndarray
    reps: int
    missing: tuple[int, ...]

    def __post_init__(self) -> None:
        panels = [np.asarray(getattr(self, name), dtype=float) for name in _PANELS]
        if {p.shape for p in panels} != {(self.reps - len(self.missing),)}:
            raise DomainError("panels must be one-dimensional, of length reps minus missing count")
        stacked = np.stack(panels)
        bad = ~((stacked >= 0.0) & (stacked <= 1.0))
        if np.any(bad):
            raise DomainError(f"p-values must be in [0, 1], got {stacked[bad][0]}")
        for name, panel in zip(_PANELS, panels):
            object.__setattr__(self, name, panel)


def pvalue_study(
    data,
    reps: int,
    fraction: float = 0.75,
    resample_n: int = 1500,
    fit_config: FitConfig = DEFAULT_STUDY_FIT_CONFIG,
    p_method: str = "asymptotic",
    bootstrap_b: int = 199,
    seed: Key = 0,
    workers: int = 1,
) -> PValueStudyResult:
    """Run the split/fit/test/resample p-value study.

    Per replicate: randomly split the scores (train fraction 0.75 by
    default), fit the mixture to the train part, compute KS and AD p-values
    on the held-out part, then draw `resample_n` scores from the fitted
    model and compute both p-values again on that null sample.  The four
    panels are returned in replicate order.

    `p_method` selects the held-out panels' p-values: "asymptotic" (the
    closed-form null laws, the default) or "bootstrap" (`bootstrap_pvalue`
    of size `bootstrap_b`, which refits the model to every draw).  The null
    panels always use the closed forms: the null draw comes from the fully
    specified model it is scored against, which is the law they describe.
    A fit that fails, in the replicate or in one of its bootstrap refits,
    makes the replicate missing.

    All replicates' train splits are fitted as one stack (`fit_mixture` on
    a 2-D array), row r keyed (*seed, r), so the fits take one batched
    Newton run per chunk of replicates.  Each replicate's null draw is then
    scored in one stacked pass against the stack of fitted models, and so,
    under the closed forms, are the held-out parts.  Threads run only under
    "bootstrap": `workers` threads each run one replicate's refits at a time.
    Replicate r keys its split (*seed, r, SPLIT), its fit restarts under
    (*seed, r), its null draw (*seed, r, RESAMPLE), and its bootstrap under
    (*seed, r, 0), so results are identical for any `workers` count.
    """
    arr = np.asarray(data, dtype=float)
    if arr.size < 100:
        raise DomainError(f"need at least 100 scores, got {arr.size}")
    if reps < 10:
        raise DomainError(f"need at least 10 replicates, got {reps}")
    if workers < 1:
        raise DomainError(f"workers must be at least 1, got {workers}")
    if p_method not in _P_METHODS:
        raise DomainError(f"p_method must be one of {_P_METHODS}, got {p_method!r}")
    if resample_n < 1:
        raise DomainError(f"resample_n must be at least 1, got {resample_n}")
    if p_method == "bootstrap" and bootstrap_b < _MIN_B:
        raise DomainError(f"bootstrap size must be at least {_MIN_B}, got {bootstrap_b}")
    seed = key_path(seed)
    splits = [split_dataset(arr, fraction, (*seed, rep, SPLIT)) for rep in range(reps)]
    fits = fit_mixture(np.array([split.train for split in splits]), replace(fit_config, seed=seed))
    kept = [r for r, fit in enumerate(fits) if not isinstance(fit, FitFailureError)]
    if p_method == "bootstrap":
        def bootstrap(r: int) -> list[float] | None:
            try:
                return [o.p_value for o in bootstrap_pvalue(splits[r].test, fits[r].model, bootstrap_b, (*seed, r, 0))]
            except FitFailureError:
                return None

        with ThreadPoolExecutor(max_workers=workers) as pool:
            booted = dict(zip(kept, pool.map(bootstrap, kept)))
        kept = [r for r in kept if booted[r] is not None]
    missing = tuple(sorted(set(range(reps)) - set(kept)))
    if not kept:
        return PValueStudyResult(*np.empty((4, 0)), reps=reps, missing=missing)
    models = _stack([fits[r].model for r in kept])
    nulls = np.sort([mixture_sample(fits[r].model, resample_n, (*seed, r, RESAMPLE)) for r in kept], axis=1)
    if p_method == "bootstrap":
        observed = np.array([booted[r] for r in kept]).T
    else:
        observed = _closed_forms(models, np.sort([splits[r].test for r in kept], axis=1))[2:]
    return PValueStudyResult(*observed, *_closed_forms(models, nulls)[2:], reps=reps, missing=missing)


@dataclass(frozen=True)
class ToyScenario:
    """Gaussian toy-model scenario for the convergence study.

    A population of sources has means N(pop_mean, between_sd); repeated
    observations of one source scatter N(source_mean, within_sd).  within_sd
    is positive, so the specific-source LR is a ratio of two densities;
    between_sd may be 0.
    """

    pop_mean: float
    between_sd: float
    within_sd: float
    source_mean: float

    def __post_init__(self) -> None:
        if not np.all(np.isfinite((self.pop_mean, self.between_sd, self.within_sd, self.source_mean))):
            raise DomainError("scenario parameters must be finite")
        if self.between_sd < 0.0:
            raise DomainError("between_sd must be nonnegative")
        if self.within_sd <= 0.0:
            raise DomainError("within_sd must be positive")

    @property
    def total_sd(self) -> float:
        """Marginal sd of an observation from a random source."""
        return math.hypot(self.between_sd, self.within_sd)


@dataclass(frozen=True, eq=False)
class ToyStudy:
    """Paired draws of the toy convergence study as parallel columns, one entry per draw."""

    scenario: np.ndarray
    hypothesis: np.ndarray
    rep: np.ndarray
    true_lr: np.ndarray
    frstat_like: np.ndarray
    saturated: np.ndarray

    def __len__(self) -> int:
        return self.rep.size


def default_toy_scenarios() -> tuple[ToyScenario, ...]:
    """The three standard scenario rows, at population mean 0 and between-source sd 1.

    (a) common source with some variance, (b) rare source 2.5 between-sds
    from the population mean, (c) common source with virtually no variance.
    The toy study is location-scale invariant, so other units change only last digits.
    """
    return (
        ToyScenario(pop_mean=0.0, between_sd=1.0, within_sd=0.5, source_mean=0.0),
        ToyScenario(pop_mean=0.0, between_sd=1.0, within_sd=0.5, source_mean=2.5),
        ToyScenario(pop_mean=0.0, between_sd=1.0, within_sd=0.01, source_mean=0.0),
    )


def _normal_pdf(x: np.ndarray, mean: float, sd: float) -> np.ndarray:
    z = (x - mean) / sd
    return np.exp(-0.5 * z * z) / (sd * np.sqrt(2.0 * np.pi))


def specific_source_lr(sc: ToyScenario, x):
    """Closed-form specific-source LR at an observation or an array of them:
    density under the named source over density under a random population
    source.

    Returns +inf where the denominator underflows (saturation marker).
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("observations must be finite")
    num = _normal_pdf(arr, sc.source_mean, sc.within_sd)
    ratio, _ = _saturating_ratio(num, _normal_pdf(arr, sc.pop_mean, sc.total_sd))
    return float(ratio) if np.isscalar(x) else ratio


# An interval of half-width h about a centre c (both in total sds) is narrow
# where h max(1, |c|) <= _NARROW.  There its mass comes from the series in h,
# within 3.4e-15 of a 50-digit reference for c from -3 to 8.9.  A difference
# of cdfs at c - h and c + h carries their rounding, about eps |c| / h
# relative: 1.1e-8 at s = -1e-8 on scenario (b).
_NARROW = 0.1


def _narrow_interval_mass(centre: float, half: np.ndarray) -> np.ndarray:
    """P(|Z - centre| <= half) for a standard normal Z, by the Taylor series in half.

    2 phi(c) sum_m h^(2m+1) He_2m(c) / (2m+1)!, through He_8, so the width
    enters as itself and never as a difference of the interval's ends.
    """
    powers = np.arange(1, 10).reshape(-1, *(1,) * np.ndim(half))
    coef = np.where(powers % 2 == 1, half**powers / factorial(powers), 0.0)
    return 2.0 * math.exp(-0.5 * centre**2) / math.sqrt(2.0 * math.pi) * hermeval(centre, coef, tensor=False)


def _toy_tails(sc: ToyScenario, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form tail risks for the similarity score s = -|x - source_mean|.

    The mated tail folds the within-source normal: P(S <= s) = 2 Phi(s / within).
    The non-mated tail is the probability a random-source observation lands
    within |s| of the source mean.  In total sds that interval has centre
    c = (source_mean - pop_mean) / total and half-width h = |s| / total; its
    mass is the series of `_narrow_interval_mass` where it is narrow, and
    otherwise an erf difference where it straddles the population mean and
    an erfc difference where it lies on one side.
    """
    total = sc.total_sd
    alpha = 2.0 * ndtr(s / sc.within_sd)
    centre = (sc.source_mean - sc.pop_mean) / total
    half = -np.asarray(s, dtype=float) / total
    upper = (centre + half) / math.sqrt(2.0)
    lower = (centre - half) / math.sqrt(2.0)
    near, far = np.sort(np.abs([lower, upper]), axis=0)
    straddles = (lower < 0.0) & (upper > 0.0)
    wide = 0.5 * np.where(straddles, erf(upper) - erf(lower), erfc(near) - erfc(far))
    narrow = half * max(1.0, abs(centre)) <= _NARROW
    beta = np.where(narrow, _narrow_interval_mass(centre, np.where(narrow, half, 0.0)), wide)
    return np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)


def toy_study(
    scenarios: Sequence[ToyScenario],
    reps: int,
    seed: Key = 0,
) -> ToyStudy:
    """Paired true-LR and tail-ratio values over scenarios and hypotheses.

    For each scenario row and each hypothesis (H0: draw from the named
    source; H1: draw from a random population source) this draws `reps`
    observations, scores each as s = -|x - source_mean|, and pairs the
    closed-form tail ratio with the closed-form specific-source LR.
    Saturated ratios (either value nonfinite) are carried as markers, not
    dropped.  Cell (i, h) uses substream (*seed, i, h, TOY_CELL), so the
    columns are deterministic and independent of evaluation order; they list
    the cells in scenario, then hypothesis order.
    """
    if len(scenarios) == 0:
        raise DomainError("need at least one scenario")
    if reps < 100:
        raise DomainError(f"need at least 100 replicates, got {reps}")
    seed = key_path(seed)
    cells: list[tuple[np.ndarray, ...]] = []
    for si, sc in enumerate(scenarios):
        label = chr(ord("a") + si) if si < 26 else str(si)
        for hi, hyp in enumerate(("H0", "H1")):
            rng = substream(*seed, si, hi, TOY_CELL)
            if hyp == "H0":
                x = rng.normal(sc.source_mean, sc.within_sd, size=reps)
            else:
                x = rng.normal(sc.pop_mean, sc.total_sd, size=reps)
            s = -np.abs(x - sc.source_mean)
            alpha, beta = _toy_tails(sc, s)
            ratio, _ = _saturating_ratio(alpha, beta)
            true_lr = specific_source_lr(sc, x)
            saturated = ~(np.isfinite(ratio) & np.isfinite(true_lr))
            cells.append((np.full(reps, label), np.full(reps, hyp), np.arange(reps), true_lr, ratio, saturated))
    return ToyStudy(*(np.concatenate(column) for column in zip(*cells)))


@dataclass(frozen=True, eq=False)
class ThresholdTable:
    """Rates per feature count (rows) and decision threshold (columns).

    `rates` is a 2-D float array: `rates[i, j]` is the rate at
    `feature_counts[i]` and `thresholds[j]`.
    """

    kind: str
    feature_counts: tuple[int, ...]
    thresholds: tuple[float, ...]
    rates: np.ndarray
    pair_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("correct_exclusion", "erroneous_identification"):
            raise DomainError(f"unknown table kind {self.kind!r}")
        rates = np.asarray(self.rates, dtype=float)
        rows = len(self.feature_counts)
        if rates.shape != (rows, len(self.thresholds)) or len(self.pair_counts) != rows:
            raise DomainError("need a rate row and a pair count per feature count, a rate column per threshold")
        if any(math.isnan(t) for t in self.thresholds):
            # nan != nan, so a NaN column could be neither looked up nor aligned
            raise DomainError("thresholds must not be NaN")
        for what, values in (("feature count", self.feature_counts), ("threshold", self.thresholds)):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise DomainError(f"repeated {what} {repeated[0]}")
        bad = ~((rates >= 0.0) & (rates <= 1.0))
        if np.any(bad):
            raise DomainError(f"rates must be in [0, 1], got {rates[bad][0]}")
        object.__setattr__(self, "rates", rates)

    def get(self, feature_count: int, threshold: float) -> float:
        """Rate at one (feature_count, threshold) cell."""
        try:
            i = self.feature_counts.index(feature_count)
            j = self.thresholds.index(threshold)
        except ValueError as exc:
            raise DomainError(f"no cell ({feature_count}, {threshold}) in table") from exc
        return float(self.rates[i, j])


def threshold_study(
    ratios,
    feature_counts,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
) -> tuple[ThresholdTable, ThresholdTable]:
    """Decision-rule audit over the evidence ratios of non-mated pairs.

    `ratios` and `feature_counts` are parallel arrays, one entry per pair.
    For every feature count present and every threshold T: the correct
    exclusion rate is the fraction of ratios strictly below T and the
    erroneous identification rate the fraction at or above T.  A ratio
    exactly at the threshold counts as an erroneous identification, the
    conservative reading for the person the evidence is used against.
    """
    ratio = np.asarray(ratios, dtype=float)
    fc = np.asarray(feature_counts)
    if ratio.ndim != 1 or fc.shape != ratio.shape:
        raise DomainError("ratios and feature_counts must be one-dimensional and of equal length")
    if ratio.size == 0:
        raise DomainError("need at least one non-mated ratio")
    if np.any(np.isnan(ratio) | (ratio < 0.0)):
        raise DomainError("ratios must be nonnegative or +inf")
    if not np.all(np.isin(fc, _FEATURE_COUNTS, kind="sort")):
        raise DomainError("feature counts must be integers in [5, 15]")
    cols = tuple(sorted(float(t) for t in thresholds))
    if len(cols) == 0:
        raise DomainError("need at least one threshold")
    fcs, counts = np.unique(fc, return_counts=True)
    # ratios strictly below each threshold, one row per feature count
    below = np.array([np.sort(ratio[fc == f]).searchsorted(cols) for f in fcs])
    n = counts[:, None]
    rows, pairs = tuple(int(f) for f in fcs), tuple(counts.tolist())
    return (
        ThresholdTable("correct_exclusion", rows, cols, below / n, pairs),
        ThresholdTable("erroneous_identification", rows, cols, (n - below) / n, pairs),
    )


@dataclass(frozen=True)
class Violation:
    """One table cell whose exclusion and identification rates fail to sum to 1."""

    feature_count: int
    threshold: float
    exclusion_rate: float
    identification_rate: float
    deviation: float


def table_fixture_check(
    exclusion: ThresholdTable,
    identification: ThresholdTable,
) -> tuple[Violation, ...]:
    """Flag every cell where exclusion + identification differs from 1.

    The tolerance 0.001 absorbs printed rounding of 0.0005 per side.
    Tables must be aligned (same rows, columns, and pair counts); empty
    tables are a domain error.
    """
    if len(exclusion.feature_counts) == 0 or len(exclusion.thresholds) == 0:
        raise DomainError("tables must be nonempty")
    if (
        exclusion.feature_counts != identification.feature_counts
        or exclusion.thresholds != identification.thresholds
        or exclusion.pair_counts != identification.pair_counts
    ):
        raise DomainError("tables are not aligned")
    deviation = np.abs(exclusion.rates + identification.rates - 1.0)
    cells = (exclusion.rates, identification.rates, deviation)
    return tuple(
        Violation(exclusion.feature_counts[i], exclusion.thresholds[j], *(float(c[i, j]) for c in cells))
        for i, j in np.argwhere(deviation > _COMPLEMENT_TOL)
    )
