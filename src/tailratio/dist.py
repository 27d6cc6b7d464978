"""Logistic-mixture score distributions.

The logistic forms are computed through `expit` so that tail probabilities
stay accurate far beyond |z| = 30; the smallest rates this package audits
are near 1e-6 and naive `1 - cdf` subtraction would destroy them.  A single
logistic is the one-component mixture `MixtureModel((1.0,), (location,),
(scale,))`.  A lone score is summed on Python floats rather than as a 0-d
array, which skips numpy's per-call array overhead; IEEE arithmetic and
`expit` give it the same bits it has inside an array.  A model's handful of
parameters are checked as Python floats for the same reason, and the model
keeps them as float columns for that sum.

Roots, of the quantile equation here and of the tipping gap in `evidence`,
come from `_brentq`, the package's own step-for-step port of scipy's
`brentq` (Brent 1973, *Algorithms for Minimization without Derivatives*,
ch. 4) with scipy's tolerances.  It takes the same iterates and returns the
same bits after the same number of calls, so no process loads scipy's
optimization package, about 250 modules, 0.2 s and 20 MB, for this one
routine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logsumexp

from .errors import DomainError, ModelError
from .seeds import Key, key_path, substream

__all__ = [
    "MixtureModel",
    "mixture_pdf",
    "mixture_cdf",
    "mixture_sf",
    "mixture_quantile",
    "mixture_sample",
    "log_likelihood",
]

# Search bracket half-width for the mixture quantile, in units of the
# largest component scale.  expit(+-50) is ~2e-22, far outside any use here.
_QUANTILE_BRACKET_SCALES = 50.0

# scipy's `brentq` defaults: xtol, rtol (4 machine epsilons) and iterations.
_BRENT_XTOL = 2e-12
_BRENT_RTOL = 4 * math.ulp(1.0)
_BRENT_MAXITER = 100

# The valid feature counts.  `v in _FEATURE_COUNTS` holds for an integral
# value of any numeric type and fails for 7.5, NaN and strings;
# `np.isin(column, _FEATURE_COUNTS, kind="sort")` applies the same rule to a
# column (the default table method is about 5x slower on 1e5 int64 rows).
_FEATURE_COUNTS = range(5, 16)


@dataclass(frozen=True, eq=False)
class MixtureModel:
    """Logistic mixture stored as three parallel read-only arrays, one entry per component.

    Parameters
    ----------
    weights, locations, scales : array-like of float
        One-dimensional, nonempty and of equal length, every value finite;
        weights in (0, 1] summing to 1 within 1e-9, scales positive.  The
        components are stored sorted ascending by location (a stable sort,
        so weights and scales move with their locations) in read-only arrays
        that share no memory with the arguments.
    origin : str, optional
        Which score population the model describes, "mated" or "nonmated".
    feature_count : int, optional
        Number of corresponding features the model is conditioned on (5 to
        15), of any integral type; stored as a Python int.
    """

    weights: np.ndarray
    locations: np.ndarray
    scales: np.ndarray
    origin: str | None = None
    feature_count: int | None = None

    def __post_init__(self) -> None:
        weights, locations, scales = (np.asarray(v, dtype=float) for v in (self.weights, self.locations, self.scales))
        if weights.ndim != 1 or weights.size == 0 or not weights.shape == locations.shape == scales.shape:
            raise ModelError("weights, locations and scales must be nonempty, one-dimensional and of equal length")
        # checks on Python floats; the sum stays numpy's, for its bits and its message
        ws, locs, ss = weights.tolist(), locations.tolist(), scales.tolist()
        if not all(map(math.isfinite, ws + locs + ss)):
            raise ModelError("component parameters must be finite")
        if not all(0.0 < w <= 1.0 for w in ws):
            raise ModelError(f"component weights must be in (0, 1], got {ws}")
        total = weights.sum()
        if abs(total - 1.0) > 1e-9:
            raise ModelError(f"component weights must sum to 1, got {total!r}")
        if not all(s > 0.0 for s in ss):
            raise ModelError(f"component scales must be positive, got {ss}")
        if self.origin is not None and self.origin not in ("mated", "nonmated"):
            raise ModelError(f"origin must be 'mated' or 'nonmated', got {self.origin!r}")
        if self.feature_count is not None:
            if self.feature_count not in _FEATURE_COUNTS:
                raise ModelError(f"feature_count must be an integer in [5, 15], got {self.feature_count!r}")
            # the range's equal member: `int` rejects a complex 7 + 0j, which the range admits
            object.__setattr__(self, "feature_count", _FEATURE_COUNTS[_FEATURE_COUNTS.index(self.feature_count)])
        order = sorted(range(len(locs)), key=locs.__getitem__)
        columns = tuple(tuple([column[i] for i in order]) for column in (ws, locs, ss))
        for name, column in zip(("weights", "locations", "scales"), columns):
            array = np.array(column)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        # the same columns as floats, for a lone score in `_component_sum`
        object.__setattr__(self, "_columns", columns)

    @property
    def k(self) -> int:
        """Number of components."""
        return self.weights.size


def _stack(models) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights, locations and scales of models with equal component counts, as (k, m, 1) arrays.

    Row r holds model r.  `mixture_pdf`, `mixture_cdf` and `mixture_sf`
    take the triple in place of a model and evaluate row r of a (k, n)
    array of points under model r.
    """
    return tuple(np.array([getattr(m, name) for m in models])[..., None] for name in ("weights", "locations", "scales"))


def _component_sum(model, x, term):
    """Weighted sum of term(z, scale) over the components, one component at a time.

    `model` is a MixtureModel or a `_stack` of them.  Adding components in
    turn, rather than through a matrix product, gives a point the same bits
    whether it is evaluated alone or inside any batch or stack.  A lone
    score under one model is summed on Python floats, which gives the bits
    of a 0-d array at a fraction of its cost.
    """
    if np.isscalar(x) and isinstance(model, MixtureModel):
        arr, out = float(x), 0.0
        finite = math.isfinite(arr)
        columns = model._columns
    else:
        arr = np.asarray(x, dtype=float)
        out = np.zeros(arr.shape)
        finite = np.all(np.isfinite(arr))
        columns = (model.weights, model.locations, model.scales) if isinstance(model, MixtureModel) else (
            a.swapaxes(0, 1) for a in model)
    if not finite:
        raise DomainError("evaluation points must be finite")
    for w, loc, scale in zip(*columns):
        out = out + w * term((arr - loc) / scale, scale)
    return float(out) if np.isscalar(x) else out


def mixture_pdf(model: MixtureModel, x):
    """Mixture density, the weighted sum of component logistic densities."""
    return _component_sum(model, x, lambda z, scale: expit(z) * expit(-z) / scale)


def mixture_cdf(model: MixtureModel, x):
    """Mixture cdf, the weighted sum of component logistic cdfs."""
    return _component_sum(model, x, lambda z, scale: expit(z))


def mixture_sf(model: MixtureModel, x):
    """Mixture right tail P(X > x), summed in the stable tail branch per component."""
    return _component_sum(model, x, lambda z, scale: expit(-z))


def quantile_bracket(model: MixtureModel) -> tuple[float, float]:
    """Search bracket guaranteed to contain every quantile used in practice."""
    span = _QUANTILE_BRACKET_SCALES * float(model.scales.max())
    return float(model.locations.min()) - span, float(model.locations.max()) + span


def _brentq(f, a: float, b: float) -> float:
    """A root of f on [a, b] by Brent's method, ported step for step from scipy's `Zeros/brentq.c`.

    It runs on Python floats at scipy's defaults and keeps C's expression
    order, so it returns scipy's `brentq` bits after the same f calls.  As
    scipy does, it raises ValueError for a NaN value of f or ends of the
    same sign, and RuntimeError when 100 iterations do not converge.
    """
    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic step
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


def mixture_quantile(model: MixtureModel, p: float) -> float:
    """Inverse mixture cdf by Brent's method (`_brentq`) on the quantile bracket.

    A p whose root is not inside the bracket is a DomainError: one the cdf
    at the bottom already reaches, and one the cdf at the top stays under,
    which a model whose weights sum to a hair under 1 leaves for p near 1.
    """
    if not np.isfinite(p) or not 0.0 < p < 1.0:
        raise DomainError(f"quantile probability must be in (0, 1), got {p}")
    lo, hi = quantile_bracket(model)
    if mixture_cdf(model, lo) >= p:
        raise DomainError(f"quantile probability {p} lies below the search bracket")
    if mixture_cdf(model, hi) < p:
        raise DomainError(f"quantile probability {p} lies above the search bracket")
    return _brentq(lambda s: mixture_cdf(model, s) - p, lo, hi)


def _scores_from_uniforms(model: MixtureModel, u: np.ndarray) -> np.ndarray:
    """Map 2n uniforms on the last axis to n scores along it.

    The first n pick a component by weight, the next n invert that
    component's cdf.  `Generator.choice(k, size=n, p=weights)` followed by
    `Generator.uniform(size=n)` consumes the same doubles and maps them the
    same way, so a draw keeps its bits.
    """
    n = u.shape[-1] // 2
    cdf = np.cumsum(model.weights)
    cdf /= cdf[-1]
    idx = cdf.searchsorted(u[..., :n], side="right")
    v = u[..., n:]
    return model.locations[idx] + model.scales[idx] * np.log(v / (1.0 - v))


def mixture_sample(model: MixtureModel, n: int, seed: Key) -> np.ndarray:
    """Draw n scores from the stream keyed `seed`: pick a component by weight, then invert its cdf."""
    if n < 1:
        raise DomainError(f"sample size must be at least 1, got {n}")
    return _scores_from_uniforms(model, substream(*key_path(seed)).random(2 * n))


def log_likelihood(model: MixtureModel, data) -> float:
    """Sum of log mixture densities over the data, via per-point log-sum-exp."""
    arr = np.asarray(data, dtype=float)
    if arr.size == 0:
        raise DomainError("log-likelihood needs at least one data point")
    if not np.all(np.isfinite(arr)):
        raise DomainError("data must be finite")
    z = (arr[..., None] - model.locations) / model.scales
    az = np.abs(z)
    # log f = -|z| - 2 log(1 + e^(-|z|)) - log s, exact in both tails
    logpdf = -az - 2.0 * np.log1p(np.exp(-az)) - np.log(model.scales)
    return float(np.sum(logsumexp(logpdf + np.log(model.weights), axis=1)))

