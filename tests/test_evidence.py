"""Evidence layer: tail risks, their ratio, tipping point, discrete tables."""
from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from tailratio import (
    BloodTypeTable,
    DomainError,
    MixtureModel,
    NoTippingPointError,
    REFERENCE_NONMATED_MODEL,
    ToyScenario,
    discrete_woe,
    evidence_numbers,
    mixture_cdf,
    mixture_pdf,
    mixture_sf,
    specific_source_lr,
    tail_ratio,
    tipping_score,
)
from tailratio.dist import quantile_bracket

from strategies import MIXTURES

REF = REFERENCE_NONMATED_MODEL
MATED_20_8 = MixtureModel([1.0], [20.0], [8.0], origin="mated")

ABO = BloodTypeTable.from_mapping({"O": 0.44, "A": 0.42, "B": 0.10, "AB": 0.04})


class TestTails:
    def test_alpha_is_left_tail_of_mated(self):
        assert evidence_numbers(MATED_20_8, REF, 0.0).alpha == pytest.approx(0.07585818002124355, rel=1e-12)

    def test_beta_is_right_tail_of_nonmated(self):
        assert evidence_numbers(MATED_20_8, REF, 0.0).beta == pytest.approx(0.0007371214611347743, rel=1e-12)

    def test_evidence_numbers_at_zero(self):
        rep = evidence_numbers(MATED_20_8, REF, 0.0)
        assert rep.ratio == pytest.approx(102.91137081324747, rel=1e-12)
        assert rep.ratio == rep.alpha / rep.beta
        assert not rep.saturated
        assert rep.slr == pytest.approx(130.4607158687933, rel=1e-9)

    def test_ratio_and_slr_disagree_in_general(self):
        rep = evidence_numbers(MATED_20_8, REF, 0.0)
        assert abs(math.log(rep.ratio) - math.log(rep.slr)) > 0.1

    def test_tail_ratio_is_the_reports_tail_fields(self):
        scores = np.array([-120.0, 0.0, 35.5, 50_000.0])
        rep = evidence_numbers(MATED_20_8, REF, scores)
        fields = (rep.alpha, rep.beta, rep.ratio, rep.saturated)
        assert all(np.array_equal(a, b) for a, b in zip(tail_ratio(MATED_20_8, REF, scores), fields))
        for score in (0.0, 50_000.0, 35, np.float32(35.5)):
            rep = evidence_numbers(MATED_20_8, REF, score)
            lone = tail_ratio(MATED_20_8, REF, score)
            assert [type(v) for v in lone] == [float, float, float, bool]
            assert _bits(lone[:3]) == _bits((rep.alpha, rep.beta, rep.ratio)) and lone[3] == rep.saturated

    def test_saturation_reports_inf_with_flag(self):
        rep = evidence_numbers(MATED_20_8, REF, 50_000.0)
        assert rep.beta == 0.0
        assert rep.ratio == math.inf
        assert rep.saturated

    def test_score_lr_saturates_to_inf(self):
        rep = evidence_numbers(MATED_20_8, REF, 50_000.0)
        assert rep.slr == math.inf and rep.slr_saturated

    @pytest.mark.parametrize("score", [7700.0, np.array([7700.0])], ids=["score", "array"])
    def test_overflowed_quotients_are_flagged(self, score):
        # beta and the non-mated density are subnormal, not 0, yet both quotients overflow to +inf
        assert 0.0 < mixture_sf(REF, 7700.0) < sys.float_info.min and 0.0 < mixture_pdf(REF, 7700.0)
        rep = evidence_numbers(MixtureModel([1.0], [7700.0], [1.0], origin="mated"), REF, score)
        assert rep.ratio == rep.slr == math.inf
        assert rep.saturated and rep.slr_saturated


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


_REPORT_FIELDS = ("observed_score", "alpha", "beta", "ratio", "slr", "saturated", "slr_saturated")


@given(
    model=MIXTURES,
    scores=st.lists(st.one_of(st.floats(-5e4, 5e4), st.floats(-200.0, 200.0)), min_size=1, max_size=40),
    cut=st.integers(0, 40),
    kind=st.sampled_from((float, int, np.float64, np.float32)),
)
@settings(max_examples=100, deadline=None)
def test_batch_matches_scalar_calls_bit_for_bit(model, scores, cut, kind):
    # scores far enough out that tails and densities underflow; a lone score
    # of any scalar kind is summed on Python floats, an array in numpy
    scores = [kind(x) for x in scores]
    arr = np.asarray(scores, dtype=float)
    cut = min(cut, arr.size)
    for fn in (mixture_pdf, mixture_cdf, mixture_sf):
        batch = fn(model, arr)
        assert _bits(batch) == _bits([fn(model, x) for x in scores])
        assert _bits(batch) == _bits(np.concatenate([fn(model, arr[:cut]), fn(model, arr[cut:])]))
    batch = evidence_numbers(MATED_20_8, model, arr)
    singles = [evidence_numbers(MATED_20_8, model, x) for x in scores]
    parts = (evidence_numbers(MATED_20_8, model, arr[:cut]), evidence_numbers(MATED_20_8, model, arr[cut:]))
    for field in _REPORT_FIELDS:
        whole = getattr(batch, field)
        assert _bits(whole) == _bits([getattr(rep, field) for rep in singles]), field
        assert _bits(whole) == _bits(np.concatenate([getattr(rep, field) for rep in parts])), field


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, np.float32("inf"), np.float64("nan")])
def test_nonfinite_score_raises_the_same_error_alone_and_in_an_array(x):
    for fn in (mixture_pdf, mixture_cdf, mixture_sf):
        for arg in (x, np.array([0.0, x])):
            with pytest.raises(DomainError, match="evaluation points must be finite"):
                fn(REF, arg)
    for arg in (x, np.array([0.0, x])):
        with pytest.raises(DomainError, match="evaluation points must be finite"):
            evidence_numbers(MATED_20_8, REF, arg)


@given(MIXTURES, MIXTURES)
@settings(max_examples=100, deadline=None)
def test_tipping_score_is_brent_on_the_gap_through_arrays(mated, nonmated):
    # the float path gives Brent's method the iterates it gets from one-element arrays
    lo = min(quantile_bracket(mated)[0], quantile_bracket(nonmated)[0])
    hi = max(quantile_bracket(mated)[1], quantile_bracket(nonmated)[1])

    def gap(s: float) -> float:
        x = np.array([s])
        return float(mixture_cdf(mated, x)[0] - mixture_sf(nonmated, x)[0])

    assert _bits(tipping_score(mated, nonmated).observed_score) == _bits(brentq(gap, lo, hi))


@given(MIXTURES, MIXTURES, st.floats(-5e4, 5e4), st.floats(0.0, 1e3))
@settings(max_examples=200, deadline=None)
def test_alpha_nondecreasing_beta_nonincreasing(mated, nonmated, s, step):
    rep = evidence_numbers(mated, nonmated, np.array([s, s + step]))
    assert rep.alpha[0] <= rep.alpha[1]
    assert rep.beta[0] >= rep.beta[1]


@given(MIXTURES, MIXTURES, st.floats(1e-3, 1e3))
@settings(max_examples=200, deadline=None)
def test_tipping_gap_sign_on_each_side(mated, nonmated, offset):
    # the gap may be flat, both tails on plateaus of the mixtures, so the
    # signs are not strict
    tp = tipping_score(mated, nonmated)
    rep = evidence_numbers(mated, nonmated, np.array([tp.observed_score - offset, tp.observed_score + offset]))
    gap = rep.alpha - rep.beta
    assert gap[0] <= 0.0 <= gap[1]


class TestTippingPoint:
    def test_crossing_found_with_tight_gap(self):
        tp = tipping_score(MATED_20_8, REF)
        assert tp.observed_score == pytest.approx(-21.847819474212805, abs=1e-6)
        assert abs(tp.alpha - tp.beta) < 1e-9

    def test_crossing_matches_exhaustive_bisection(self):
        # the value 200 bisection steps on the same bracket settled on
        tp = tipping_score(MATED_20_8, REF)
        assert tp.observed_score == pytest.approx(-21.847819474212805, abs=1e-9)

    def test_slr_at_crossing_is_not_one(self):
        # equal tail risks do not imply equal densities
        tp = tipping_score(MATED_20_8, REF)
        assert tp.slr == pytest.approx(1.39350598503488, abs=1e-6)
        assert tp.slr != pytest.approx(1.0, abs=0.1)

    def test_identical_models_cross_at_median_with_slr_one(self):
        tp = tipping_score(REF, REF)
        assert tp.alpha == pytest.approx(0.5, abs=1e-9)
        assert tp.slr == pytest.approx(1.0, rel=1e-9)

    def test_zero_interpolation_divisor_gives_scipys_root(self):
        # an interpolation divisor is 0 on the way; scipy's brentq bisects there and lands on this root
        mated = MixtureModel([1.0], [20.69747484641257], [4.8435080737305035e-12])
        nonmated = MixtureModel([1.0], [0.1267580180631507], [0.05661123172663348])
        tp = tipping_score(mated, nonmated)
        assert tp.observed_score == 20.697474844652394
        assert tp.alpha - tp.beta == -6.324806093803509e-160

    def test_root_search_that_does_not_converge_raises(self):
        # scipy's brentq fails on this pair too, after 100 iterations
        mated = MixtureModel([1.0], [187725772.17945847], [1.230957397048295e-07])
        nonmated = MixtureModel([1.0], [609899621298.4407], [81692882545.19823])
        with pytest.raises(NoTippingPointError, match="did not converge") as info:
            tipping_score(mated, nonmated)
        assert info.value.code == "no_tipping_point"


class TestDiscreteWoe:
    def test_correspondence_ratio(self):
        woe = discrete_woe(ABO)
        assert woe.correspondence_ratio == pytest.approx(2.620545073375262, rel=1e-12)

    def test_per_type_ratios(self):
        woe = discrete_woe(ABO)
        assert woe.per_type_lr["O"] == pytest.approx(25.0 / 11.0, rel=1e-12)
        assert woe.per_type_lr["A"] == pytest.approx(100.0 / 42.0, rel=1e-12)
        assert woe.per_type_lr["B"] == pytest.approx(10.0, rel=1e-12)
        assert woe.per_type_lr["AB"] == pytest.approx(25.0, rel=1e-12)

    def test_table_frequencies_must_sum_to_one(self):
        with pytest.raises(DomainError):
            BloodTypeTable.from_mapping({"X": 0.5, "Y": 0.4})

    def test_single_type_population_allowed(self):
        woe = discrete_woe(BloodTypeTable.from_mapping({"only": 1.0}))
        assert woe.correspondence_ratio == pytest.approx(1.0)


class TestToyScenario:
    def test_total_sd_is_hypotenuse(self):
        sc = ToyScenario(pop_mean=0.0, between_sd=3.0, within_sd=4.0, source_mean=0.0)
        assert sc.total_sd == pytest.approx(5.0)

    def test_rejects_doubly_degenerate(self):
        with pytest.raises(DomainError):
            ToyScenario(pop_mean=0.0, between_sd=0.0, within_sd=0.0, source_mean=0.0)

    def test_specific_source_lr_peaks_at_source(self):
        sc = ToyScenario(pop_mean=0.0, between_sd=1.0, within_sd=0.5, source_mean=0.0)
        at_source = specific_source_lr(sc, 0.0)
        assert at_source > specific_source_lr(sc, 1.0) > specific_source_lr(sc, 2.0)
        # closed form at the source mean: ratio of the two peak densities
        assert at_source == pytest.approx(sc.total_sd / sc.within_sd, rel=1e-12)

    def test_specific_source_lr_needs_positive_within(self):
        sc = ToyScenario(pop_mean=0.0, between_sd=1.0, within_sd=0.0, source_mean=0.0)
        with pytest.raises(DomainError):
            specific_source_lr(sc, 0.0)
