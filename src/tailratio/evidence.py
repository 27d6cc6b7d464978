"""Core evidence numbers for a compared score.

For an observed similarity score s this module computes the risk of
erroneous exclusion (left tail of the mated score distribution at s), the
risk of erroneous identification (right tail of the non-mated distribution
at s), their ratio, and the score-based likelihood ratio (the ratio of the
two densities at s).  It also finds the tipping score where the two tail
risks are equal, and provides the discrete blood-group weight of evidence.
A lone score is evaluated on Python floats, its ratios saturated as floats
too, and gets the bits it has inside an array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dist import MixtureModel, _brentq, mixture_cdf, mixture_pdf, mixture_sf, quantile_bracket
from .errors import DomainError, NoTippingPointError

__all__ = [
    "EvidenceReport",
    "BloodTypeTable",
    "DiscreteWoe",
    "evidence_numbers",
    "tail_ratio",
    "tipping_score",
    "discrete_woe",
]

_TIPPING_TOL = 1e-9


@dataclass(frozen=True)
class EvidenceReport:
    """The evidence numbers at one observed score, or at an array of scores.

    `alpha` is the risk of erroneous exclusion, `beta` the risk of erroneous
    identification, `ratio` their quotient alpha / beta, and `slr` the
    score-based likelihood ratio (mated density over non-mated density).
    When `beta` is zero, or so small that alpha / beta overflows, the ratio
    is +inf and `saturated` is set, and likewise `slr_saturated` for the
    densities; the ratio is never silently reported as a plain huge
    number.  For an array of scores every field is an array of the same
    shape.
    """

    observed_score: float
    alpha: float
    beta: float
    ratio: float
    slr: float
    saturated: bool = False
    slr_saturated: bool = False


@dataclass(frozen=True)
class BloodTypeTable:
    """Population frequencies per discrete type; in (0, 1], summing to 1.

    The upper bound is closed so a degenerate single-type population
    (frequency exactly 1) is representable.
    """

    frequencies: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if len(self.frequencies) == 0:
            raise DomainError("type table must not be empty")
        total = 0.0
        for label, freq in self.frequencies:
            if not 0.0 < freq <= 1.0:
                raise DomainError(f"frequency for {label!r} must be in (0, 1], got {freq}")
            total += freq
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"frequencies must sum to 1, got {total!r}")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, float]) -> "BloodTypeTable":
        """Build a table from a label-to-frequency mapping, preserving order."""
        return cls(tuple((str(k), float(v)) for k, v in mapping.items()))


@dataclass(frozen=True, eq=False)
class DiscreteWoe:
    """Discrete weight of evidence: overall correspondence ratio and per-type LRs."""

    correspondence_ratio: float
    per_type_lr: dict[str, float]


def _saturating_ratio(num, den):
    """num / den elementwise, +inf wherever den is 0, with a flag set wherever the quotient is +inf.

    Two Python floats, a lone score's, are divided as floats, which gives
    the bits of the array path: IEEE division overflows to +inf in both.
    numpy scalars, a float subclass, take the array path, which silences
    their overflow warning.
    """
    if type(num) is float and type(den) is float:
        ratio = math.inf if den == 0.0 else num / den
        return ratio, ratio == math.inf
    den = np.asarray(den, dtype=float)
    zero = den == 0.0
    with np.errstate(over="ignore"):
        ratio = np.where(zero, np.inf, num / np.where(zero, 1.0, den))
    return ratio, ratio == np.inf


def tail_ratio(mated: MixtureModel, nonmated: MixtureModel, s) -> tuple:
    """Alpha, beta, alpha / beta and its saturation flag at a score or an array of scores.

    A score gives Python floats and a bool; an array gives arrays.  These
    are the `EvidenceReport` fields without the densities, to the same bits.
    """
    alpha = mixture_cdf(mated, s)
    beta = mixture_sf(nonmated, s)
    return (alpha, beta, *_saturating_ratio(alpha, beta))


def evidence_numbers(mated: MixtureModel, nonmated: MixtureModel, s) -> EvidenceReport:
    """Both tail risks, their ratio and the SLR at a score or an array of scores.

    A score gives a report of Python floats and bools; an array gives a
    report of arrays.  Each score gets the same bits either way.
    """
    arr = float(s) if np.isscalar(s) else np.asarray(s, dtype=float)
    alpha, beta, ratio, saturated = tail_ratio(mated, nonmated, arr)
    slr, slr_saturated = _saturating_ratio(mixture_pdf(mated, arr), mixture_pdf(nonmated, arr))
    return EvidenceReport(arr, alpha, beta, ratio, slr, saturated, slr_saturated)


def tipping_score(mated: MixtureModel, nonmated: MixtureModel) -> EvidenceReport:
    """The evidence report at the score where the exclusion and identification risks are equal.

    The difference alpha(s) - beta(s) runs from -1 to +1.  At either end of
    the union of the two quantile brackets every component lies at least 50
    of its own scales away, so the gap is about -1 at the low end and +1 at
    the high end, and a sign change is always inside.  Brent's method finds
    it through `dist._brentq`, the package's own port of scipy's `brentq`
    with scipy's iterates and bits.  NoTippingPointError is raised when that
    search does not converge in 100 iterations, as on a pair whose scales
    differ by many orders of magnitude, or when |alpha - beta| does not end
    below 1e-9.  The crossing is the report's `observed_score`; the report
    also carries the score-based likelihood ratio there, which in general is
    not 1: a tail-probability ratio of exactly 1 does not mean the densities
    agree.
    """
    lo_m, hi_m = quantile_bracket(mated)
    lo_n, hi_n = quantile_bracket(nonmated)
    try:
        s_star = _brentq(lambda s: mixture_cdf(mated, s) - mixture_sf(nonmated, s), min(lo_m, lo_n), max(hi_m, hi_n))
    except RuntimeError:
        raise NoTippingPointError("root search for the tipping score did not converge") from None
    at = evidence_numbers(mated, nonmated, s_star)
    if abs(at.alpha - at.beta) > _TIPPING_TOL:
        raise NoTippingPointError(
            f"root search did not close the gap: |alpha - beta| = {abs(at.alpha - at.beta):.3e}"
        )
    return at


def discrete_woe(table: BloodTypeTable) -> DiscreteWoe:
    """Discrete weight of evidence for a type table.

    The correspondence ratio 1 / sum(p_i^2) is the average weight of
    evidence when the specific observed type is ignored; the per-type
    likelihood ratio for type t is 1 / p_t.
    """
    sum_sq = sum(freq * freq for _, freq in table.frequencies)
    per_type = {label: 1.0 / freq for label, freq in table.frequencies}
    return DiscreteWoe(correspondence_ratio=1.0 / sum_sq, per_type_lr=per_type)

