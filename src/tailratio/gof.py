"""Goodness-of-fit statistics against a mixture model, with p-values.

Two statistics are provided: the maximum-distance statistic (sensitive to
the body of the distribution, where the empirical and model cdfs are both
moving) and the quadratic tail-weighted statistic, whose 1 / (F (1 - F))
weight makes misfit in either tail count heavily.  P-values come from the
classical asymptotic series for the first and from a parametric bootstrap
for either.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

import numpy as np
from scipy.special import kolmogorov

from .dist import MixtureModel, _scores_from_uniforms, mixture_cdf
from .dist import mixture_sample  # noqa: F401  (perfbench's layer trace wraps the name here)
from .errors import DomainError
from .fit import FitConfig, fit_mixture
from .seeds import derive_seed, substream

__all__ = [
    "EmpiricalDistribution",
    "GofOutcome",
    "ks_statistic",
    "ad_statistic",
    "ad_weight",
    "asymptotic_ks_pvalue",
    "bootstrap_pvalue",
]

# Clamp for model cdf values inside the tail-weighted statistic's logs; keeps
# the statistic finite when sample mass sits beyond the model's support for
# double precision, which is exactly where this package operates.
_CDF_CLAMP = 1e-12
_MIN_BOOTSTRAP_B = 100
# The bootstrap draws and scores its replicates in blocks of about this many
# values (at least one row): enough rows share one cdf call to amortize its
# overhead, while a block's arrays stay near a megabyte however large B is.
_BLOCK_VALUES = 2**14


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """A sorted sample and its size, the empirical cdf's raw material."""

    values: np.ndarray
    n: int

    @classmethod
    def from_sample(cls, sample) -> "EmpiricalDistribution":
        arr = np.sort(np.asarray(sample, dtype=float))
        if arr.size == 0:
            raise DomainError("empirical distribution needs at least one point")
        if not np.all(np.isfinite(arr)):
            raise DomainError("sample must be finite")
        return cls(values=arr, n=int(arr.size))


SampleLike = Union[EmpiricalDistribution, "np.ndarray", list, tuple]


def _as_empirical(sample: SampleLike) -> EmpiricalDistribution:
    if isinstance(sample, EmpiricalDistribution):
        return sample
    return EmpiricalDistribution.from_sample(sample)


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


def _statistics(kind: str, model: MixtureModel, rows: np.ndarray) -> np.ndarray:
    """KS or AD statistic of each row of sorted points, reduced over the last axis."""
    if kind not in ("KS", "AD"):
        raise DomainError(f"kind must be 'KS' or 'AD', got {kind!r}")
    n = rows.shape[-1]
    F = mixture_cdf(model, rows)
    i = np.arange(1, n + 1)
    if kind == "KS":
        return np.max(np.maximum(i / n - F, F - (i - 1) / n), axis=-1)
    F = np.clip(F, _CDF_CLAMP, 1.0 - _CDF_CLAMP)
    return -n - np.mean((2 * i - 1) * (np.log(F) + np.log(1.0 - F[..., ::-1])), axis=-1)


def ks_statistic(sample: SampleLike, model: MixtureModel) -> float:
    """Maximum distance between the empirical cdf and the model cdf.

    Over order statistics the supremum is max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n).
    """
    return float(_statistics("KS", model, _as_empirical(sample).values))


def ad_statistic(sample: SampleLike, model: MixtureModel) -> float:
    """Tail-weighted quadratic distance between empirical and model cdfs.

    Order-statistic estimator -n - mean((2i - 1) (ln F(x_(i)) + ln(1 - F(x_(n+1-i))))),
    with F clamped away from 0 and 1 so extreme-tail samples stay finite.
    """
    return float(_statistics("AD", model, _as_empirical(sample).values))


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


def bootstrap_pvalue(
    sample: SampleLike,
    model: MixtureModel,
    kind: str,
    B: int,
    seed: int,
    refit_within_bootstrap: bool = False,
    fit_config: FitConfig | None = None,
) -> GofOutcome:
    """Parametric-bootstrap p-value for either statistic.

    Each of the B replicates draws a same-size sample from the model on an
    independent substream keyed by (seed, replicate index), so the result is
    reproducible bit-for-bit and independent of evaluation order.  The
    add-one estimator (1 + #{stat_b >= stat_obs}) / (B + 1) never reports 0.

    Replicates are drawn and scored in blocks of rows, each row still on its
    own substream, with one cdf evaluation per block.  A block holds about
    2**14 values, or one row when n is larger, so memory is bounded by the
    block, not by B * n.

    With `refit_within_bootstrap` each replicate refits the model to its own
    draw, in drawn order, before computing the statistic, the strict variant
    that accounts for fitted parameters; the default path does not, because
    the intended protocol fits on a 75% split and tests on the held-out 25%,
    which restores approximate validity on its own.
    """
    emp = _as_empirical(sample)
    if B < _MIN_BOOTSTRAP_B:
        raise DomainError(f"bootstrap size must be at least {_MIN_BOOTSTRAP_B}, got {B}")
    stat_obs = float(_statistics(kind, model, emp.values))
    rows_per_block = max(1, _BLOCK_VALUES // emp.n)
    count = 0
    for start in range(0, B, rows_per_block):
        block = range(start, min(start + rows_per_block, B))
        u = np.empty((len(block), 2 * emp.n))
        for row, b in zip(u, block):
            substream(seed, b).random(out=row)
        draws = _scores_from_uniforms(model, u)
        if refit_within_bootstrap:
            cfg = fit_config if fit_config is not None else FitConfig(k=model.k, restarts=1)
            stats = np.array([
                _statistics(kind, fit_mixture(draw, replace(cfg, seed=derive_seed(seed, b))).model, np.sort(draw))
                for draw, b in zip(draws, block)
            ])
        else:
            stats = _statistics(kind, model, np.sort(draws, axis=-1))
        count += int(np.count_nonzero(stats >= stat_obs))
    p = (1 + count) / (B + 1)
    return GofOutcome(
        statistic_kind=kind,
        statistic=stat_obs,
        p_value=p,
        p_method=f"bootstrap(B={B}, seed={seed})",
    )
