"""Distribution layer: logistic mixtures, quantiles, sampling."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from tailratio import (
    DomainError,
    MixtureModel,
    ModelError,
    REFERENCE_NONMATED_MODEL,
    log_likelihood,
    mixture_cdf,
    mixture_pdf,
    mixture_quantile,
    mixture_sample,
    mixture_sf,
    substream,
)
from tailratio.dist import _brentq, _stack, quantile_bracket

from strategies import MIXTURES

REF = REFERENCE_NONMATED_MODEL


def logistic(location: float, scale: float) -> MixtureModel:
    """A single logistic as a one-component mixture."""
    return MixtureModel((1.0,), (location,), (scale,))


class TestLogistic:
    def test_cdf_at_location_is_half(self):
        assert mixture_cdf(logistic(-83.75, 5.625), -83.75) == pytest.approx(0.5, rel=1e-15)

    def test_cdf_plus_sf_is_one(self):
        single = logistic(-61.25, 10.9375)
        for x in (-200.0, -83.75, -10.0, 0.0, 55.5):
            total = mixture_cdf(single, x) + mixture_sf(single, x)
            assert total == pytest.approx(1.0, rel=1e-12)

    def test_pdf_peak_value(self):
        # peak density of a logistic is 1 / (4 s)
        assert mixture_pdf(logistic(-83.75, 5.625), -83.75) == pytest.approx(1.0 / (4 * 5.625), rel=1e-12)

    def test_pdf_integrates_to_one(self):
        xs = np.linspace(-200.0, 50.0, 200_001)
        total = np.trapezoid(mixture_pdf(logistic(-83.75, 5.625), xs), xs)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_deep_tail_stays_finite_and_positive(self):
        standard = logistic(0.0, 1.0)
        assert 0.0 < mixture_sf(standard, 5000.0) < 1e-300 or mixture_sf(standard, 5000.0) == 0.0
        assert np.isfinite(mixture_pdf(standard, -5000.0))

    @given(st.floats(-100, 100), st.floats(-50, 50), st.floats(0.01, 50))
    @settings(max_examples=50, deadline=None)
    def test_cdf_monotone_property(self, x, loc, scale):
        single = logistic(loc, scale)
        assert mixture_cdf(single, x) <= mixture_cdf(single, x + 1.0)


class TestModelValidation:
    @pytest.mark.parametrize(
        "weights, locations, scales, message",
        [
            pytest.param([0.0, 1.0], [0.0, 1.0], [1.0, 1.0], r"in \(0, 1\]", id="weight 0"),
            pytest.param([1.5], [0.0], [1.0], r"in \(0, 1\]", id="weight 1.5"),
            pytest.param([1.0], [0.0], [0.0], "positive", id="scale 0"),
            pytest.param([0.5, 0.5], [0.0, float("nan")], [1.0, 1.0], "finite", id="NaN location"),
            pytest.param([0.5, 0.5], [0.0], [1.0, 1.0], "equal length", id="unequal lengths"),
            pytest.param([], [], [], "nonempty", id="no components"),
            pytest.param([[1.0]], [[0.0]], [[1.0]], "one-dimensional", id="2-D"),
        ],
    )
    def test_rejects_bad_parameters(self, weights, locations, scales, message):
        with pytest.raises(ModelError, match=message):
            MixtureModel(weights, locations, scales)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ModelError):
            MixtureModel([0.5, 0.4], [-80.0, -60.0], [5.0, 10.0])

    def test_sorts_by_location_stably(self):
        model = MixtureModel([0.1, 0.2, 0.3, 0.4], [5.0, -1.0, 5.0, -1.0], [1.0, 2.0, 3.0, 4.0])
        assert model.locations.tolist() == [-1.0, -1.0, 5.0, 5.0]
        assert model.weights.tolist() == [0.2, 0.4, 0.1, 0.3]
        assert model.scales.tolist() == [2.0, 4.0, 1.0, 3.0]

    def test_parameters_are_read_only_copies(self):
        weights = np.array([0.8, 0.2])
        model = MixtureModel(weights, [-80.0, -60.0], [5.0, 10.0])
        with pytest.raises(ValueError):
            model.weights[0] = 0.5
        weights[0] = 0.5
        assert model.weights.tolist() == [0.8, 0.2]

    def test_origin_label_checked(self):
        with pytest.raises(ModelError):
            MixtureModel([1.0], [0.0], [1.0], origin="sideways")

    def test_feature_count_range_checked(self):
        with pytest.raises(ModelError):
            MixtureModel([1.0], [0.0], [1.0], feature_count=4)

    @pytest.mark.parametrize("feature_count", [7.5, float("nan"), "15"])
    def test_feature_count_must_be_an_integer(self, feature_count):
        with pytest.raises(ModelError):
            MixtureModel([1.0], [0.0], [1.0], feature_count=feature_count)
        for integral in (7, 7.0, np.int8(7), np.float32(7.0)):
            assert MixtureModel([1.0], [0.0], [1.0], feature_count=integral).feature_count == 7


def _vectorized_model_checks(weights, locations, scales, origin, feature_count):
    """`MixtureModel`'s checks as whole-array numpy operations: the sorted columns, or its ModelError."""
    weights, locations, scales = (np.asarray(v, dtype=float) for v in (weights, locations, scales))
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
    if origin is not None and origin not in ("mated", "nonmated"):
        raise ModelError(f"origin must be 'mated' or 'nonmated', got {origin!r}")
    if feature_count is not None and feature_count not in range(5, 16):
        raise ModelError(f"feature_count must be an integer in [5, 15], got {feature_count!r}")
    order = np.argsort(locations, kind="stable")
    return tuple(column[order] for column in (weights, locations, scales))


_EDGE_VALUES = st.sampled_from((math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1.0, 1.5, 5e-324))
# Nudges of the first weight: half none, half to a sum of 1 +- 1e-9, +- one ulp of 1e-9.
_SUM_NUDGES = st.sampled_from(
    (0.0,) * 6 + tuple(sign * math.nextafter(1e-9, to) for sign in (1.0, -1.0) for to in (0.0, 1e-9, 1.0)))


@st.composite
def _model_arguments(draw):
    """Columns of k = 1 to 12 (numpy sums pairwise past 8) as lists, tuples or arrays, now and then
    of another length or with an edge value; weights that sum to about 1; tied and signed-zero
    locations."""
    k = draw(st.integers(1, 12))

    def column(items):
        items = (items + items)[:draw(st.sampled_from((k,) * 38 + (0, k + 1)))]
        if items and draw(st.integers(0, 7)) == 0:
            items[draw(st.integers(0, len(items) - 1))] = draw(_EDGE_VALUES)
        return draw(st.sampled_from((list, tuple, np.array)))(items)

    def values(elements):
        return draw(st.lists(elements, min_size=k, max_size=k))

    raw = np.array(values(st.floats(0.01, 1.0)))
    weights = (raw / raw.sum()).tolist()
    weights[0] += draw(_SUM_NUDGES)
    locations = values(st.one_of(st.floats(-200.0, 200.0), st.sampled_from((-0.0, 0.0, -60.0))))
    origin = draw(st.sampled_from((None, "mated", "nonmated", "sideways")))
    feature_count = draw(st.sampled_from(
        (None, 4, 5, 15, 16, 7.5, math.nan, np.int64(9), 15.0, np.float32(7.0), 7 + 0j, "15", True)))
    return column(weights), column(locations), column(values(st.floats(0.01, 50.0))), origin, feature_count


@given(_model_arguments())
@settings(max_examples=400, deadline=None)
def test_model_checks_match_the_vectorized_reference_property(args):
    # the same exception and message, or the same sorted read-only columns in fresh memory
    try:
        expected = _vectorized_model_checks(*args)
    except ModelError as exc:
        with pytest.raises(ModelError) as info:
            MixtureModel(*args)
        assert str(info.value) == str(exc)
        return
    model = MixtureModel(*args)
    for stored, want, given_column in zip((model.weights, model.locations, model.scales), expected, args):
        assert stored.dtype == want.dtype and stored.shape == want.shape
        assert stored.tobytes() == want.tobytes()
        assert not stored.flags.writeable and not np.shares_memory(stored, given_column)
    # the float columns a lone score is summed over hold the same bits
    assert np.array(model._columns).tobytes() == np.array(expected).tobytes()
    assert model.origin == args[3]
    assert model.feature_count == args[4] and type(model.feature_count) in (int, type(None))


class TestMixture:
    def test_reference_tail_rates_per_100k(self):
        # right-tail exceedance rates of the shipped reference model
        assert 1e5 * mixture_sf(REF, 0.0) == pytest.approx(73.71214611347743, rel=1e-12)
        assert 1e5 * mixture_sf(REF, 25.0) == pytest.approx(7.519051308520374, rel=1e-12)
        assert 1e5 * mixture_sf(REF, 50.0) == pytest.approx(0.7649274126716934, rel=1e-12)

    def test_reference_density_at_first_mode(self):
        assert mixture_pdf(REF, -83.75) == pytest.approx(0.03739305661592337, rel=1e-12)

    def test_cdf_sf_complement(self):
        for x in (-120.0, -83.75, -61.25, 0.0, 50.0):
            assert mixture_cdf(REF, x) + mixture_sf(REF, x) == pytest.approx(1.0, rel=1e-12)

    def test_vector_evaluation_matches_scalars(self):
        xs = np.array([-90.0, -70.0, -50.0])
        vec = mixture_cdf(REF, xs)
        assert vec.tolist() == [mixture_cdf(REF, float(x)) for x in xs]

    def test_quantile_inverts_cdf(self):
        for p in (0.001, 0.25, 0.5, 0.9, 0.999):
            assert mixture_cdf(REF, mixture_quantile(REF, p)) == pytest.approx(p, abs=1e-9)

    def test_quantile_rejects_bad_p(self):
        with pytest.raises(DomainError):
            mixture_quantile(REF, 0.0)
        with pytest.raises(DomainError):
            mixture_quantile(REF, 1.0)

    def test_quantile_below_search_bracket_rejected(self):
        # the cdf at the lower end of the search bracket is about 4e-23 here
        with pytest.raises(DomainError, match="below the search bracket"):
            mixture_quantile(REF, 1e-30)

    def test_quantile_above_search_bracket_rejected(self):
        # the weights sum to 1 - 5e-10, inside the 1e-9 tolerance, so the cdf
        # never reaches p; without the check Brent's method sees same-sign ends
        model = MixtureModel((0.5, 0.4999999995), (0.0, 10.0), (1.0, 2.0))
        with pytest.raises(DomainError, match="above the search bracket"):
            mixture_quantile(model, 0.9999999999)

    def test_sampling_is_deterministic(self):
        a = mixture_sample(REF, 100, seed=7)
        b = mixture_sample(REF, 100, seed=7)
        assert np.array_equal(a, b)
        c = mixture_sample(REF, 100, seed=8)
        assert not np.array_equal(a, c)

    def test_sampling_matches_model_cdf(self):
        draws = mixture_sample(REF, 200_000, seed=3)
        for x in (-90.0, -83.75, -61.25, -40.0):
            assert float(np.mean(draws <= x)) == pytest.approx(mixture_cdf(REF, x), abs=0.005)

    def test_sample_size_validated(self):
        with pytest.raises(DomainError):
            mixture_sample(REF, 0, seed=0)

    @pytest.mark.parametrize("model", [
        MixtureModel([1.0], [2.0], [3.0]),
        REF,
        MixtureModel([0.5, 0.3, 0.2], [-5.0, 0.0, 4.0], [1.0, 2.0, 0.5]),
    ], ids=["k1", "k2", "k3"])
    def test_sampling_bits_match_numpy_choice_then_uniform(self, model):
        # an int seed is the one-element key path
        for seed, key in ((0, (0,)), (1, (1,)), (12345, (12345,)), ([7, 3], (7, 3))):
            for n in (1, 9, 1000):
                rng = substream(*key)
                idx = rng.choice(model.k, size=n, p=model.weights)
                u = rng.uniform(size=n)
                want = model.locations[idx] + model.scales[idx] * np.log(u / (1.0 - u))
                got = mixture_sample(model, n, seed)
                assert np.array_equal(got, want), (seed, n)

    def test_log_likelihood_matches_pdf_sum(self):
        data = mixture_sample(REF, 500, seed=1)
        direct = float(np.sum(np.log(mixture_pdf(REF, data))))
        assert log_likelihood(REF, data) == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("data, match", [([], "at least one data point"), ([0.0, math.nan], "finite")],
                             ids=["empty", "nan"])
    def test_log_likelihood_rejects_empty_and_nonfinite_data(self, data, match):
        with pytest.raises(DomainError, match=match):
            log_likelihood(REF, data)


@given(MIXTURES, st.floats(-1e4, 1e4))
@settings(max_examples=200, deadline=None)
def test_cdf_plus_sf_is_one_property(model, x):
    assert abs(mixture_cdf(model, x) + mixture_sf(model, x) - 1.0) <= 1e-15


@given(MIXTURES, st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_quantile_of_cdf_returns_the_point_property(model, t):
    lo, hi = quantile_bracket(model)
    x = lo + t * (hi - lo)
    p = mixture_cdf(model, x)
    assume(mixture_cdf(model, lo) < p < 1.0)
    # x comes back up to Brent's xtol and the width over which the cdf
    # cannot tell points apart: a few ulps of probability over the density
    assert abs(mixture_quantile(model, p) - x) <= 1e-11 + 1e-14 / mixture_pdf(model, x)



def _brent_run(solver, f, a, b):
    """The root's bits, or the exception type, and every point f was called at."""
    calls = []

    def counted(x):
        calls.append(x.hex())
        return f(x)

    try:
        outcome = solver(counted, a, b).hex()
    except (ValueError, RuntimeError) as exc:
        outcome = type(exc)
    return outcome, calls


def _assert_brent_port_matches_scipy(mated, nonmated, t):
    """The tipping gap and a quantile equation: the same points, and the same root bits or exception type."""
    lo_m, hi_m = quantile_bracket(mated)
    lo_n, hi_n = quantile_bracket(nonmated)
    p = mixture_cdf(mated, lo_m + t * (hi_m - lo_m))
    problems = [
        (lambda s: mixture_cdf(mated, s) - mixture_sf(nonmated, s), min(lo_m, lo_n), max(hi_m, hi_n)),
        (lambda s: mixture_cdf(mated, s) - p, lo_m, hi_m),
    ]
    for f, a, b in problems:
        assert _brent_run(_brentq, f, a, b) == _brent_run(brentq, f, a, b)


@given(MIXTURES, MIXTURES, st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_brentq_port_takes_scipys_iterates_property(mated, nonmated, t):
    _assert_brent_port_matches_scipy(mated, nonmated, t)


@st.composite
def _extreme_mixtures(draw):
    """1-3 components with scales from 1e-12 to 1e12 and locations up to 1e12 either side of 0."""
    k = draw(st.integers(1, 3))
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    locations = draw(st.lists(st.one_of(st.floats(-1e12, 1e12), st.floats(-100.0, 100.0)), min_size=k, max_size=k))
    scales = draw(st.lists(st.floats(-12.0, 12.0).map(lambda e: 10.0**e), min_size=k, max_size=k))
    return MixtureModel(raw / raw.sum(), locations, scales)


@given(_extreme_mixtures(), _extreme_mixtures(), st.floats(0.0, 1.0))
@example(MixtureModel([1.0], [20.69747484641257], [4.8435080737305035e-12]),
         MixtureModel([1.0], [0.1267580180631507], [0.05661123172663348]), 0.5)
@settings(max_examples=200, deadline=None)
def test_brentq_port_takes_scipys_iterates_on_extreme_mixtures_property(mated, nonmated, t):
    # where interpolation divisors reach 0 and searches run out of iterations.  In the
    # example a divisor is 0 on the way to the tipping score, and C's inf or NaN quotient bisects
    _assert_brent_port_matches_scipy(mated, nonmated, t)


@pytest.mark.parametrize("f, a, b, error", [
    (lambda x: x * x + 1.0, -1.0, 1.0, ValueError),
    (lambda x: x - 0.25 if x <= 0.5 else math.nan, 0.0, 1.0, ValueError),
    (lambda x: (x - 0.1) ** 3, -10.0, 10.0, RuntimeError),
], ids=["same-sign", "nan", "no-convergence"])
def test_brentq_port_fails_as_scipy_does(f, a, b, error):
    outcome, calls = _brent_run(_brentq, f, a, b)
    assert outcome is error
    assert (outcome, calls) == _brent_run(brentq, f, a, b)


def test_quantile_search_that_does_not_converge_is_a_domain_error():
    model = MixtureModel([4.797828800917614e-12, 0.9999999999952022], [60322.076966482, 96280.07517042226],
                         [11193797316.053196, 5.521518999983973e-09])
    with pytest.raises(DomainError, match="did not converge"):
        mixture_quantile(model, 1e-9)


def test_stack_is_component_major():
    # (k, m, 1): entry [j, r] is component j of model r, so a (m, n) row r sees model r's components
    models = [MixtureModel([0.25, 0.75], [float(r), 10.0 + r], [1.0 + r, 2.0 + r]) for r in range(3)]
    stack = _stack(models)
    assert [a.shape for a in stack] == [(2, 3, 1)] * 3
    for name, column in zip(("weights", "locations", "scales"), stack):
        for r, model in enumerate(models):
            assert column[:, r, 0].tolist() == getattr(model, name).tolist()
    xs = np.array([[-5.0, 0.5, 12.0]] * 3)
    assert np.array_equal(mixture_cdf(stack, xs), [mixture_cdf(model, xs[r]) for r, model in enumerate(models)])
