"""Logistic and Gaussian primitives and logistic-mixture distributions.

The logistic forms are computed through `expit` so that tail probabilities
stay accurate far beyond |z| = 30; the smallest rates this package audits
are near 1e-6 and naive `1 - cdf` subtraction would destroy them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import expit, logsumexp, ndtr

from .errors import DomainError, ModelError
from .seeds import SeedLike, as_generator

__all__ = [
    "LogisticComponent",
    "MixtureModel",
    "GaussianParams",
    "logistic_pdf",
    "logistic_cdf",
    "logistic_sf",
    "mixture_pdf",
    "mixture_cdf",
    "mixture_sf",
    "mixture_quantile",
    "mixture_sample",
    "log_likelihood",
    "gaussian_pdf",
    "gaussian_cdf",
]

# Search bracket half-width for the mixture quantile, in units of the
# largest component scale.  expit(+-50) is ~2e-22, far outside any use here.
_QUANTILE_BRACKET_SCALES = 50.0


def _check_finite_x(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("evaluation points must be finite")
    return arr


@dataclass(frozen=True)
class LogisticComponent:
    """One weighted logistic component: weight in (0, 1], location, scale > 0."""

    weight: float
    location: float
    scale: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.weight) and np.isfinite(self.location) and np.isfinite(self.scale)):
            raise ModelError("component parameters must be finite")
        if not 0.0 < self.weight <= 1.0:
            raise ModelError(f"component weight must be in (0, 1], got {self.weight}")
        if self.scale <= 0.0:
            raise ModelError(f"component scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class MixtureModel:
    """Logistic mixture in canonical order (ascending location), weights summing to 1.

    Parameters
    ----------
    components : tuple of LogisticComponent
        At least one component, sorted ascending by location.
    origin : str, optional
        Which score population the model describes, "mated" or "nonmated".
    feature_count : int, optional
        Number of corresponding features the model is conditioned on (5 to 15).
    """

    components: tuple[LogisticComponent, ...]
    origin: str | None = None
    feature_count: int | None = None

    def __post_init__(self) -> None:
        if len(self.components) == 0:
            raise ModelError("mixture needs at least one component")
        object.__setattr__(self, "components", tuple(self.components))
        weights = np.array([c.weight for c in self.components], dtype=float)
        locations = np.array([c.location for c in self.components], dtype=float)
        scales = np.array([c.scale for c in self.components], dtype=float)
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ModelError(f"component weights must sum to 1, got {weights.sum()!r}")
        if np.any(np.diff(locations) < 0):
            raise ModelError("components must be sorted ascending by location")
        if self.origin is not None and self.origin not in ("mated", "nonmated"):
            raise ModelError(f"origin must be 'mated' or 'nonmated', got {self.origin!r}")
        if self.feature_count is not None and not 5 <= int(self.feature_count) <= 15:
            raise ModelError(f"feature_count must be in [5, 15], got {self.feature_count}")
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_locations", locations)
        object.__setattr__(self, "_scales", scales)

    @classmethod
    def from_parts(
        cls,
        weights: Sequence[float],
        locations: Sequence[float],
        scales: Sequence[float],
        origin: str | None = None,
        feature_count: int | None = None,
    ) -> "MixtureModel":
        """Build a model from parallel parameter sequences, sorting into canonical order."""
        if not len(weights) == len(locations) == len(scales):
            raise ModelError("weights, locations, and scales must have equal length")
        order = np.argsort(np.asarray(locations, dtype=float), kind="stable")
        comps = tuple(
            LogisticComponent(float(weights[i]), float(locations[i]), float(scales[i]))
            for i in order
        )
        return cls(comps, origin=origin, feature_count=feature_count)

    @property
    def weights(self) -> np.ndarray:
        """Component weights as an array (read-only view of the model)."""
        return self._weights  # type: ignore[attr-defined]

    @property
    def locations(self) -> np.ndarray:
        """Component locations as an array."""
        return self._locations  # type: ignore[attr-defined]

    @property
    def scales(self) -> np.ndarray:
        """Component scales as an array."""
        return self._scales  # type: ignore[attr-defined]

    @property
    def k(self) -> int:
        """Number of components."""
        return len(self.components)


@dataclass(frozen=True)
class GaussianParams:
    """Normal distribution parameters: mean and sd > 0."""

    mean: float
    sd: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.mean) and np.isfinite(self.sd)):
            raise DomainError("Gaussian parameters must be finite")
        if self.sd <= 0.0:
            raise DomainError(f"sd must be positive, got {self.sd}")


def _check_scale(scale: float) -> None:
    if not np.isfinite(scale) or scale <= 0.0:
        raise DomainError(f"scale must be positive and finite, got {scale}")


def logistic_pdf(x, location: float, scale: float):
    """Logistic density e^(-|z|) / (s (1 + e^(-|z|))^2) with z = (x - location) / scale."""
    _check_scale(scale)
    arr = _check_finite_x(x)
    z = (arr - location) / scale
    out = expit(z) * expit(-z) / scale
    return float(out) if np.isscalar(x) else out


def logistic_cdf(x, location: float, scale: float):
    """Logistic cdf 1 / (1 + e^(-z)), computed as expit(z)."""
    _check_scale(scale)
    arr = _check_finite_x(x)
    out = expit((arr - location) / scale)
    return float(out) if np.isscalar(x) else out


def logistic_sf(x, location: float, scale: float):
    """Logistic right tail P(X > x), computed as expit(-z) to keep tiny tails exact."""
    _check_scale(scale)
    arr = _check_finite_x(x)
    out = expit(-(arr - location) / scale)
    return float(out) if np.isscalar(x) else out


def _z_matrix(model: MixtureModel, arr: np.ndarray) -> np.ndarray:
    return (arr[..., None] - model.locations) / model.scales


def _component_sum(model: MixtureModel, x, term):
    """Weighted sum of term(z, scale) over the components, one component at a time.

    Adding components in turn, rather than through a matrix product, gives a
    point the same bits whether it is evaluated alone or inside any batch.
    """
    arr = _check_finite_x(x)
    out = np.zeros(arr.shape)
    for w, loc, scale in zip(model.weights, model.locations, model.scales):
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


def mixture_sample(model: MixtureModel, n: int, seed: SeedLike) -> np.ndarray:
    """Draw n scores: pick a component by weight, then invert that component's cdf."""
    if n < 1:
        raise DomainError(f"sample size must be at least 1, got {n}")
    return _scores_from_uniforms(model, as_generator(seed).random(2 * n))


def log_likelihood(model: MixtureModel, data) -> float:
    """Sum of log mixture densities over the data, via per-point log-sum-exp."""
    arr = np.asarray(data, dtype=float)
    if arr.size == 0:
        raise DomainError("log-likelihood needs at least one data point")
    if not np.all(np.isfinite(arr)):
        raise DomainError("data must be finite")
    z = _z_matrix(model, arr)
    az = np.abs(z)
    # log f = -|z| - 2 log(1 + e^(-|z|)) - log s, exact in both tails
    logpdf = -az - 2.0 * np.log1p(np.exp(-az)) - np.log(model.scales)
    return float(np.sum(logsumexp(logpdf + np.log(model.weights), axis=1)))


def gaussian_pdf(x, g: GaussianParams):
    """Normal density with mean g.mean and sd g.sd."""
    arr = _check_finite_x(x)
    z = (arr - g.mean) / g.sd
    out = np.exp(-0.5 * z * z) / (g.sd * np.sqrt(2.0 * np.pi))
    return float(out) if np.isscalar(x) else out


def gaussian_cdf(x, g: GaussianParams):
    """Normal cdf via `scipy.special.ndtr`, accurate deep into the lower tail."""
    arr = _check_finite_x(x)
    out = ndtr((arr - g.mean) / g.sd)
    return float(out) if np.isscalar(x) else out
