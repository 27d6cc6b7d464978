"""Logistic-mixture score distributions.

The logistic forms are computed through `expit` so that tail probabilities
stay accurate far beyond |z| = 30; the smallest rates this package audits
are near 1e-6 and naive `1 - cdf` subtraction would destroy them.  A single
logistic is the one-component mixture `MixtureModel((1.0,), (location,),
(scale,))`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
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

# The valid feature counts.  `v in _FEATURE_COUNTS` holds for an integral
# value of any numeric type and fails for 7.5, NaN and strings;
# `np.isin(column, _FEATURE_COUNTS, kind="sort")` applies the same rule to a
# column (the default table method is about 5x slower on 1e5 int64 rows).
_FEATURE_COUNTS = range(5, 16)


def _check_finite_x(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("evaluation points must be finite")
    return arr


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
        Number of corresponding features the model is conditioned on (5 to 15).
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
        if not np.all(np.isfinite((weights, locations, scales))):
            raise ModelError("component parameters must be finite")
        if not np.all((weights > 0.0) & (weights <= 1.0)):
            raise ModelError(f"component weights must be in (0, 1], got {weights.tolist()}")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ModelError(f"component weights must sum to 1, got {weights.sum()!r}")
        if not np.all(scales > 0.0):
            raise ModelError(f"component scales must be positive, got {scales.tolist()}")
        if self.origin is not None and self.origin not in ("mated", "nonmated"):
            raise ModelError(f"origin must be 'mated' or 'nonmated', got {self.origin!r}")
        if self.feature_count is not None and self.feature_count not in _FEATURE_COUNTS:
            raise ModelError(f"feature_count must be an integer in [5, 15], got {self.feature_count!r}")
        order = np.argsort(locations, kind="stable")
        for name, column in (("weights", weights), ("locations", locations), ("scales", scales)):
            column = column[order]
            column.flags.writeable = False
            object.__setattr__(self, name, column)

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
    whether it is evaluated alone or inside any batch or stack.
    """
    arr = _check_finite_x(x)
    out = np.zeros(arr.shape)
    columns = (model.weights, model.locations, model.scales) if isinstance(model, MixtureModel) else (
        a.swapaxes(0, 1) for a in model)
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


def mixture_quantile(model: MixtureModel, p: float) -> float:
    """Inverse mixture cdf by Brent's method on the quantile bracket."""
    if not np.isfinite(p) or not 0.0 < p < 1.0:
        raise DomainError(f"quantile probability must be in (0, 1), got {p}")
    lo, hi = quantile_bracket(model)
    if mixture_cdf(model, lo) >= p:
        raise DomainError(f"quantile probability {p} lies below the search bracket")
    return brentq(lambda s: mixture_cdf(model, s) - p, lo, hi)


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

