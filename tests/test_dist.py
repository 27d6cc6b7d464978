"""Distribution layer: logistic forms, mixtures, quantiles, sampling."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailratio import (
    DomainError,
    GaussianParams,
    LogisticComponent,
    MixtureModel,
    ModelError,
    REFERENCE_NONMATED_MODEL,
    gaussian_cdf,
    gaussian_pdf,
    log_likelihood,
    logistic_cdf,
    logistic_pdf,
    logistic_sf,
    mixture_cdf,
    mixture_pdf,
    mixture_quantile,
    mixture_sample,
    mixture_sf,
)

REF = REFERENCE_NONMATED_MODEL


class TestLogistic:
    def test_cdf_at_location_is_half(self):
        assert logistic_cdf(-83.75, -83.75, 5.625) == pytest.approx(0.5, rel=1e-15)

    def test_cdf_plus_sf_is_one(self):
        for x in (-200.0, -83.75, -10.0, 0.0, 55.5):
            total = logistic_cdf(x, -61.25, 10.9375) + logistic_sf(x, -61.25, 10.9375)
            assert total == pytest.approx(1.0, rel=1e-12)

    def test_pdf_peak_value(self):
        # peak density of a logistic is 1 / (4 s)
        assert logistic_pdf(-83.75, -83.75, 5.625) == pytest.approx(1.0 / (4 * 5.625), rel=1e-12)

    def test_pdf_integrates_to_one(self):
        xs = np.linspace(-200.0, 50.0, 200_001)
        total = np.trapezoid(logistic_pdf(xs, -83.75, 5.625), xs)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_deep_tail_stays_finite_and_positive(self):
        assert 0.0 < logistic_sf(5000.0, 0.0, 1.0) < 1e-300 or logistic_sf(5000.0, 0.0, 1.0) == 0.0
        assert np.isfinite(logistic_pdf(-5000.0, 0.0, 1.0))

    @given(st.floats(-100, 100), st.floats(-50, 50), st.floats(0.01, 50))
    @settings(max_examples=50, deadline=None)
    def test_cdf_monotone_property(self, x, loc, scale):
        assert logistic_cdf(x, loc, scale) <= logistic_cdf(x + 1.0, loc, scale)


class TestModelValidation:
    def test_component_rejects_bad_weight(self):
        with pytest.raises((DomainError, ModelError)):
            LogisticComponent(0.0, 0.0, 1.0)
        with pytest.raises((DomainError, ModelError)):
            LogisticComponent(1.5, 0.0, 1.0)

    def test_component_rejects_bad_scale(self):
        with pytest.raises((DomainError, ModelError)):
            LogisticComponent(1.0, 0.0, 0.0)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ModelError):
            MixtureModel.from_parts([0.5, 0.4], [-80.0, -60.0], [5.0, 10.0])

    def test_from_parts_sorts_by_location(self):
        model = MixtureModel.from_parts([0.2, 0.8], [-61.25, -83.75], [10.9375, 5.625])
        assert model.locations.tolist() == [-83.75, -61.25]
        assert model.weights.tolist() == [0.8, 0.2]

    def test_origin_label_checked(self):
        with pytest.raises(ModelError):
            MixtureModel.from_parts([1.0], [0.0], [1.0], origin="sideways")

    def test_feature_count_range_checked(self):
        with pytest.raises(ModelError):
            MixtureModel.from_parts([1.0], [0.0], [1.0], feature_count=4)


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
        with pytest.raises(DomainError):
            mixture_quantile(REF, 1e-30)

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
        MixtureModel.from_parts([1.0], [2.0], [3.0]),
        REF,
        MixtureModel.from_parts([0.5, 0.3, 0.2], [-5.0, 0.0, 4.0], [1.0, 2.0, 0.5]),
    ], ids=["k1", "k2", "k3"])
    def test_sampling_bits_match_numpy_choice_then_uniform(self, model):
        for seed in (0, 1, 12345, [7, 3]):
            for n in (1, 9, 1000):
                rng = np.random.default_rng(seed)
                idx = rng.choice(model.k, size=n, p=model.weights)
                u = rng.uniform(size=n)
                want = model.locations[idx] + model.scales[idx] * np.log(u / (1.0 - u))
                got = mixture_sample(model, n, seed)
                assert np.array_equal(got, want), (seed, n)

    def test_log_likelihood_matches_pdf_sum(self):
        data = mixture_sample(REF, 500, seed=1)
        direct = float(np.sum(np.log(mixture_pdf(REF, data))))
        assert log_likelihood(REF, data) == pytest.approx(direct, rel=1e-10)


class TestGaussian:
    def test_pdf_peak(self):
        g = GaussianParams(2.0, 3.0)
        assert gaussian_pdf(2.0, g) == pytest.approx(1.0 / (3.0 * math.sqrt(2 * math.pi)), rel=1e-12)

    def test_cdf_midpoint_and_tails(self):
        g = GaussianParams(0.0, 1.0)
        assert gaussian_cdf(0.0, g) == pytest.approx(0.5, rel=1e-12)
        assert gaussian_cdf(1.959963984540054, g) == pytest.approx(0.975, abs=1e-9)
        # 0.5 * (1 + erf(z / sqrt 2)) is exactly 0 below z = -8.3
        assert gaussian_cdf(-9.0, g) == pytest.approx(1.1285884059538408e-19, rel=1e-12)
        assert gaussian_cdf(-30.0, g) > 0.0

    def test_sd_must_be_positive(self):
        with pytest.raises(DomainError):
            GaussianParams(0.0, 0.0)
