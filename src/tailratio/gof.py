"""Goodness-of-fit statistics against a mixture model, with p-values.

Two statistics are provided: the maximum-distance statistic (sensitive to
the body of the distribution, where the empirical and model cdfs are both
moving) and the quadratic tail-weighted statistic, whose 1 / (F (1 - F))
weight makes misfit in either tail count heavily.  P-values come from a
closed-form null law for either statistic, or from a parametric bootstrap
that refits the model to every draw and so accounts for its estimation.

Both statistics come from one pass over the model's cdf and right tail,
and that pass takes a stack of sorted samples against a stack of models
as readily as one of each (`_statistics`).  The bootstrap scores all its
refits in one such pass, and a p-value study its replicates' null and
held-out samples in one each.  Threads run only in a bootstrap study, one
replicate's refits per task.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov

from .dist import MixtureModel, _stack, mixture_cdf, mixture_sample, mixture_sf
from .errors import DomainError, FitFailureError
from .fit import FitConfig, fit_mixture
from .seeds import RESAMPLE, Key, key_path

__all__ = [
    "GofOutcome",
    "ks_statistic",
    "ad_statistic",
    "ad_weight",
    "asymptotic_ks_pvalue",
    "asymptotic_ad_pvalue",
    "bootstrap_pvalue",
]

# Clamp for model cdf values inside the tail-weighted statistic's logs; keeps
# the statistic finite when sample mass sits beyond the model's support for
# double precision, which is exactly where this package operates.
_CDF_CLAMP = 1e-12
# The p-value methods, each available for both statistics.
_P_METHODS = ("asymptotic", "bootstrap")
# Fewest bootstrap draws a p-value may rest on.
_MIN_B = 100


def _sorted_sample(sample) -> np.ndarray:
    """A sorted float copy of a nonempty, finite sample: the empirical cdf's raw material."""
    arr = np.sort(np.asarray(sample, dtype=float))
    if arr.size == 0:
        raise DomainError("empirical distribution needs at least one point")
    if not np.all(np.isfinite(arr)):
        raise DomainError("sample must be finite")
    return arr


@dataclass(frozen=True)
class GofOutcome:
    """One test outcome: statistic kind, value, and how the p-value was produced."""

    statistic_kind: str
    statistic: float
    p_value: float
    p_method: str

    def __post_init__(self) -> None:
        if self.statistic_kind not in ("KS", "AD"):
            raise DomainError(f"statistic_kind must be 'KS' or 'AD', got {self.statistic_kind!r}")
        if self.p_value is None or not 0.0 <= self.p_value <= 1.0:
            raise DomainError(f"p_value must be in [0, 1], got {self.p_value}")
        if self.statistic < 0.0:
            raise DomainError(f"statistic must be nonnegative, got {self.statistic}")


def _statistics(model, xs: np.ndarray) -> tuple:
    """KS and AD statistics of sorted points against the model, reduced over the last axis.

    `model` is one MixtureModel against a sorted sample, or a `_stack` of m
    models against m sorted rows, row r scored against model r.  AD reads
    the model's right tail S, not 1 - F, so it keeps its digits where F is near 1.
    """
    n = xs.shape[-1]
    i = np.arange(1, n + 1)
    F = mixture_cdf(model, xs)
    ks = np.max(np.maximum(i / n - F, F - (i - 1) / n), axis=-1)
    F = np.clip(F, _CDF_CLAMP, 1.0 - _CDF_CLAMP)
    S = np.clip(mixture_sf(model, xs), _CDF_CLAMP, 1.0 - _CDF_CLAMP)
    # np.log runs a scalar loop on a reversed 1-D view, as a lone sample's S[::-1], and SIMD on a
    # reversed stack; the two can differ in the last bit, so every row takes the scalar loop
    log_s = np.log(S.ravel()[::-1])[::-1].reshape(S.shape)[..., ::-1]
    return ks, -n - np.mean((2 * i - 1) * (np.log(F) + log_s), axis=-1)


def _closed_forms(model, xs: np.ndarray) -> tuple:
    """KS and AD statistics of sorted points against the model, then their closed-form p-values.

    Takes what `_statistics` takes and returns (ks, ad, ks_p, ad_p).  The AD
    p-value is `asymptotic_ad_pvalue` entry by entry: a numpy port of its
    `math.exp` and `math.expm1` would not give the same bits.
    """
    n = xs.shape[-1]
    ks, ad = _statistics(model, xs)
    ad_p = np.reshape([asymptotic_ad_pvalue(float(a), n) for a in np.ravel(ad)], np.shape(ad))
    return ks, ad, _ks_pvalue(ks, n), ad_p


def ks_statistic(sample, model: MixtureModel) -> float:
    """Maximum distance between the empirical cdf and the model cdf.

    Over order statistics the supremum is max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n).
    """
    return float(_statistics(model, _sorted_sample(sample))[0])


def ad_statistic(sample, model: MixtureModel) -> float:
    """Tail-weighted quadratic distance between empirical and model cdfs.

    Order-statistic estimator -n - mean((2i - 1) (ln F(x_(i)) + ln S(x_(n+1-i)))),
    with S = 1 - F the model's right tail, and F and S clamped away from 0
    and 1 so extreme-tail samples stay finite.
    """
    return float(_statistics(model, _sorted_sample(sample))[1])


def ad_weight(F) -> float:
    """The tail weight 1 / (F (1 - F)) applied by the quadratic statistic."""
    arr = np.asarray(F, dtype=float)
    out = 1.0 / (arr * (1.0 - arr))
    return float(out) if np.isscalar(F) else out


def asymptotic_ks_pvalue(d_n: float, n: int) -> float:
    """Asymptotic p-value for the maximum-distance statistic.

    The Kolmogorov survival function Q(lam) = 2 sum_k (-1)^(k-1) exp(-2 k^2 lam^2),
    from `scipy.special.kolmogorov`, at lam = (sqrt(n) + 0.12 + 0.11 / sqrt(n)) * d_n.
    """
    if n < 1:
        raise DomainError(f"sample size must be at least 1, got {n}")
    if not 0.0 <= d_n <= 1.0:
        raise DomainError(f"statistic must be in [0, 1], got {d_n}")
    return float(_ks_pvalue(d_n, n))


def _ks_pvalue(d_n, n: int):
    """`asymptotic_ks_pvalue` without its checks, for a statistic or an array of them."""
    sqrt_n = np.sqrt(n)
    return kolmogorov((sqrt_n + 0.12 + 0.11 / sqrt_n) * d_n)


def asymptotic_ad_pvalue(a: float, n: int) -> float:
    """Closed-form p-value for the tail-weighted statistic of n points.

    Marsaglia & Marsaglia (2004), "Evaluating the Anderson-Darling
    distribution", J. Stat. Softw. 9(2): the short form of the limiting cdf
    ADinf(a) plus the finite-n correction errfix(n, ADinf(a)), which they
    give as accurate to about the fifth digit.  For a >= 2, ADinf is
    exp(-exp(y)) and the upper tail is -expm1(-exp(y)); errfix's branch for
    cdf values above 0.8 is the published quintic re-expanded about 1 and
    evaluated in that tail, so no probability near 1 is subtracted from 1.
    That correction does not vanish at the far end, so the p-value levels
    off at 6e-4 / n.  The published pieces do not meet exactly: where they
    join (a = 2, and cdf 0.8 and 0.01265 + 0.1757 / n) the p-value can step
    up by at most 8e-5 / n + 1e-8; elsewhere it is nonincreasing in `a`.
    """
    if n < 1:
        raise DomainError(f"sample size must be at least 1, got {n}")
    if not 0.0 <= a < math.inf:
        raise DomainError(f"statistic must be finite and nonnegative, got {a}")
    if a < 2.0:
        cdf = 0.0 if a == 0.0 else math.exp(-1.2337141 / a) / math.sqrt(a) * (
            2.00012 + (0.247105 - (0.0649821 - (0.0347962 - (0.011672 - 0.00168691 * a) * a) * a) * a) * a
        )
        tail = 1.0 - cdf
    else:
        e = math.exp(1.0776 - (2.30695 - (0.43424 - (0.082433 - (0.008056 - 0.0003146 * a) * a) * a) * a) * a)
        cdf, tail = math.exp(-e), -math.expm1(-e)
    c = 0.01265 + 0.1757 / n
    if cdf > 0.8:
        fix = -0.0006 - (0.4717 - (6.531 - (43.05 - (162.562 - 255.7844 * tail) * tail) * tail) * tail) * tail
    elif cdf < c:
        t = cdf / c
        fix = math.sqrt(t) * (1.0 - t) * (49.0 * t - 102.0) * (0.0037 / n**2 + 0.00078 / n + 0.00006)
    else:
        t = (cdf - c) / (0.8 - c)
        t = -0.00022633 + (6.54034 - (14.6538 - (14.458 - (8.259 - 1.91864 * t) * t) * t) * t) * t
        fix = t * (0.04213 + 0.01365 / n)
    return min(max(tail - fix / n, 0.0), 1.0)


def bootstrap_pvalue(sample, model: MixtureModel, B: int, seed: Key) -> tuple[GofOutcome, GofOutcome]:
    """Parametric-bootstrap p-values for KS and AD, refitting the model to every draw.

    Draw b takes n scores from the model on its own substream keyed
    (*seed, b, RESAMPLE), refits the model's component count to them with
    restarts keyed under (*seed, b), and scores them against that refit, so
    the null accounts for the fitted parameters (Stute, Gonzalez Manteiga &
    Presedo Quindimil 1993) and one refit serves both statistics.  The
    add-one estimator (1 + #{stat_b >= stat_obs}) / (B + 1) never reports 0,
    and the result is reproducible bit for bit from the key path `seed` (an
    int is the one-element path).  Returns the (KS, AD) pair of outcomes,
    each with `p_method` `refit-bootstrap(B=..., seed=[...])`.  The B
    refits run as one stacked `fit_mixture` call on the (B, n) draws, row b
    keyed (*seed, b); a refit that fails raises its FitFailureError.

    The refit is of n points, the size of `sample`, so the null is that of
    a model fitted to the very points it is scored on.  A study's held-out
    statistic is not that: its model was fitted to the train part, which a
    bootstrap would have to copy to match it, and this one does not.  On
    uncontaminated synthetic non-mated scores (data seed 0), whose family
    the fit matches, `pvalue_study(reps=100, seed=1, p_method="bootstrap",
    bootstrap_b=100)` rejects the held-out part at level 0.05 in 0.76 of
    replicates with KS and 0.96 with AD (binomial standard errors 0.043 and
    0.020), where a calibrated test reads 0.05; with the closed forms,
    `pvalue_study(reps=400, seed=1)` reads 0.0675 and 0.0875.
    """
    path = key_path(seed)
    values = _sorted_sample(sample)
    n = values.size
    if B < _MIN_B:
        raise DomainError(f"bootstrap size must be at least {_MIN_B}, got {B}")
    observed = _statistics(model, values)
    draws = np.sort([mixture_sample(model, n, (*path, b, RESAMPLE)) for b in range(B)], axis=1)
    fits = fit_mixture(draws, FitConfig(k=model.k, restarts=1, seed=path))
    for fit in fits:
        if isinstance(fit, FitFailureError):
            raise fit
    null = _statistics(_stack([fit.model for fit in fits]), draws)
    label = f"refit-bootstrap(B={B}, seed={list(path)})"
    return tuple(GofOutcome(kind, float(stat), (1 + int(np.sum(null_stats >= stat))) / (B + 1), label)
                 for kind, stat, null_stats in zip(("KS", "AD"), observed, null))
