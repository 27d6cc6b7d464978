"""Goodness-of-fit statistics against a mixture model, with p-values.

Two statistics are provided: the maximum-distance statistic (sensitive to
the body of the distribution, where the empirical and model cdfs are both
moving) and the quadratic tail-weighted statistic, whose 1 / (F (1 - F))
weight makes misfit in either tail count heavily.  P-values come from a
closed-form null law for either statistic or from a parametric bootstrap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov

from .dist import MixtureModel, mixture_cdf, mixture_sample
from .errors import DomainError
from .fit import FitConfig, fit_mixture
from .seeds import BOOTSTRAP, RESAMPLE, Key, key_path, substream

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
_MIN_BOOTSTRAP_B = 100
# The no-refit bootstrap fills and sorts its null uniforms in blocks of about
# this many values (at least one row): enough rows share one fill, sort and
# statistic call to amortize their overhead, while a block stays near 128 kB
# however large B is.  The fill is C-order, so the doubles do not depend on
# the block size.
_BLOCK_VALUES = 2**14


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
    p_value: float | None
    p_method: str

    def __post_init__(self) -> None:
        if self.statistic_kind not in ("KS", "AD"):
            raise DomainError(f"statistic_kind must be 'KS' or 'AD', got {self.statistic_kind!r}")
        if (self.p_value is None) != (self.p_method == "none"):
            raise DomainError("p_value must be present exactly when p_method is not 'none'")
        if self.statistic < 0.0:
            raise DomainError(f"statistic must be nonnegative, got {self.statistic}")


def _cdf_statistics(kind: str, F: np.ndarray) -> np.ndarray:
    """KS or AD statistic of each row of sorted cdf values, reduced over the last axis."""
    if kind not in ("KS", "AD"):
        raise DomainError(f"kind must be 'KS' or 'AD', got {kind!r}")
    n = F.shape[-1]
    i = np.arange(1, n + 1)
    if kind == "KS":
        return np.max(np.maximum(i / n - F, F - (i - 1) / n), axis=-1)
    F = np.clip(F, _CDF_CLAMP, 1.0 - _CDF_CLAMP)
    return -n - np.mean((2 * i - 1) * (np.log(F) + np.log(1.0 - F[..., ::-1])), axis=-1)


def _statistics(kind: str, model: MixtureModel, rows: np.ndarray) -> np.ndarray:
    """KS or AD statistic of each row of sorted points against the model."""
    return _cdf_statistics(kind, mixture_cdf(model, rows))


def ks_statistic(sample, model: MixtureModel) -> float:
    """Maximum distance between the empirical cdf and the model cdf.

    Over order statistics the supremum is max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n).
    """
    return float(_statistics("KS", model, _sorted_sample(sample)))


def ad_statistic(sample, model: MixtureModel) -> float:
    """Tail-weighted quadratic distance between empirical and model cdfs.

    Order-statistic estimator -n - mean((2i - 1) (ln F(x_(i)) + ln(1 - F(x_(n+1-i))))),
    with F clamped away from 0 and 1 so extreme-tail samples stay finite.
    """
    return float(_statistics("AD", model, _sorted_sample(sample)))


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
    sqrt_n = np.sqrt(n)
    lam = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d_n
    return float(kolmogorov(lam))


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


def bootstrap_pvalue(
    sample,
    model: MixtureModel,
    kind: str,
    B: int,
    seed: Key,
    refit_within_bootstrap: bool = False,
) -> GofOutcome:
    """Parametric-bootstrap p-value for either statistic.

    The add-one estimator (1 + #{stat_b >= stat_obs}) / (B + 1) never
    reports 0, and the result is reproducible bit for bit from the key path
    `seed` (an int is the one-element path), which every stream here extends.

    Without a refit, the p-value is the Monte Carlo null of the statistic for
    a fully specified continuous model.  The model's cdf at its own draws is
    uniform, so that null is the same for every model and is drawn from
    uniforms: B rows of n doubles, in order from one substream keyed
    (*seed, BOOTSTRAP), each row sorted and scored as cdf values; the
    closed forms `asymptotic_ks_pvalue` and `asymptotic_ad_pvalue` give the
    same law without drawing it.  Both ignore the error of estimating the
    model.  Fitting on a 75% split and testing on the held-out 25% does not
    restore validity: on uncontaminated synthetic non-mated scores (data
    seed 0), whose family the fit matches, `pvalue_study(reps=400, seed=1)`
    with its default closed-form p-values rejects the held-out part at level
    0.05 in 0.0675 of replicates with KS and 0.0875 with AD (0.090 with AD
    from this null at B=199), above the nominal size (each rate has a
    standard error of about 0.011).

    With `refit_within_bootstrap` replicate b draws n scores from the model
    on its own substream keyed (*seed, b, RESAMPLE), refits the model's
    component count to that draw, in drawn order, with restarts keyed under
    (*seed, b), and scores the draw against its refit: the strict variant
    that accounts for fitted parameters.  Its `p_method` reads
    `refit-bootstrap(...)` where the no-refit null reads `bootstrap(...)`.
    """
    path = key_path(seed)
    values = _sorted_sample(sample)
    n = values.size
    if B < _MIN_BOOTSTRAP_B:
        raise DomainError(f"bootstrap size must be at least {_MIN_BOOTSTRAP_B}, got {B}")
    stat_obs = float(_statistics(kind, model, values))
    stats = np.empty(B)
    if refit_within_bootstrap:
        for b in range(B):
            draw = mixture_sample(model, n, (*path, b, RESAMPLE))
            fitted = fit_mixture(draw, FitConfig(k=model.k, restarts=1, seed=(*path, b))).model
            stats[b] = _statistics(kind, fitted, np.sort(draw))
    else:
        rng = substream(*path, BOOTSTRAP)
        rows_per_block = max(1, _BLOCK_VALUES // n)
        for start in range(0, B, rows_per_block):
            u = rng.random((min(rows_per_block, B - start), n))
            u.sort(axis=-1)
            stats[start:start + len(u)] = _cdf_statistics(kind, u)
    p = (1 + int(np.count_nonzero(stats >= stat_obs))) / (B + 1)
    return GofOutcome(
        statistic_kind=kind,
        statistic=stat_obs,
        p_value=p,
        p_method=f"{'refit-' if refit_within_bootstrap else ''}bootstrap(B={B}, seed={list(path)})",
    )
