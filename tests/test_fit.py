"""Fitting layer: splits, initializers, and the mixture MLE."""
from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from tailratio import (
    DomainError,
    FitConfig,
    FitFailureError,
    REFERENCE_NONMATED_MODEL,
    SynthConfig,
    fit_mixture,
    generate_synthetic,
    init_params,
    log_likelihood,
    mixture_sample,
    split_dataset,
)
from tailratio.dist import _scores_from_uniforms
from tailratio.experiments import DEFAULT_STUDY_FIT_CONFIG
from tailratio.fit import _SCALE_FLOOR_FRAC, _TOL, _neg_loglik
from tailratio.seeds import SPLIT

from strategies import same_model

REF = REFERENCE_NONMATED_MODEL


class TestSplit:
    def test_sizes_round_fraction(self):
        scores = np.arange(101, dtype=float)
        split = split_dataset(scores, 0.75, seed=0)
        assert split.train.size == 76  # round(0.75 * 101)
        assert split.test.size == 25

    def test_partition_preserves_multiset(self):
        scores = np.arange(40, dtype=float)
        split = split_dataset(scores, 0.6, seed=5)
        rejoined = np.sort(np.concatenate([split.train, split.test]))
        assert np.array_equal(rejoined, scores)

    def test_deterministic_under_seed(self):
        scores = np.arange(50, dtype=float)
        a = split_dataset(scores, 0.5, seed=9)
        b = split_dataset(scores, 0.5, seed=9)
        assert np.array_equal(a.train, b.train)
        c = split_dataset(scores, 0.5, seed=10)
        assert not np.array_equal(a.train, c.train)

    def test_rejects_small_or_degenerate(self):
        with pytest.raises(DomainError):
            split_dataset([1.0, 2.0, 3.0], 0.5, seed=0)
        with pytest.raises(DomainError):
            split_dataset(np.arange(10.0), 0.0, seed=0)
        with pytest.raises(DomainError):
            split_dataset(np.arange(10.0), 1.0, seed=0)
        with pytest.raises(DomainError):
            split_dataset(np.arange(10.0), 0.01, seed=0)  # rounds to 0 train


class TestInit:
    def test_requires_enough_points(self):
        with pytest.raises(DomainError):
            init_params(np.arange(19.0), 2)

    def test_rejects_constant_sample(self):
        with pytest.raises(DomainError):
            init_params(np.full(50, 3.0), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_sample_before_optimizing(self, bad, monkeypatch):
        data = mixture_sample(REF, 100, seed=0)
        data[17] = bad

        def no_optimizer(*args, **kwargs):
            raise AssertionError("the optimizer ran on a nonfinite sample")

        monkeypatch.setattr("tailratio.fit.minimize", no_optimizer)
        with pytest.raises(DomainError, match="finite"):
            init_params(data, 2)
        with pytest.raises(DomainError, match="finite"):
            fit_mixture(data, FitConfig(k=2, restarts=1))

    def test_components_cover_quantiles(self):
        data = mixture_sample(REF, 4000, seed=2)
        init = init_params(data, 2)
        assert init.k == 2
        assert init.weights.tolist() == [0.5, 0.5]
        q1, q3 = np.quantile(data, [0.25, 0.75])
        assert q1 - 5.0 <= init.locations[0] <= init.locations[1] <= q3 + 5.0


class TestFit:
    def test_config_validation(self):
        assert [f.name for f in fields(FitConfig)] == ["k", "restarts", "seed"]
        with pytest.raises(DomainError):
            FitConfig(k=0)
        with pytest.raises(DomainError):
            FitConfig(restarts=0)

    def test_recovers_reference_parameters_loosely(self):
        data = mixture_sample(REF, 4000, seed=0)
        result = fit_mixture(data, FitConfig(k=2, restarts=1, seed=0))
        assert np.max(np.abs(result.model.locations - REF.locations)) < 3.0
        assert np.max(np.abs(result.model.weights - REF.weights)) < 0.08

    def test_improves_on_initializer(self):
        data = mixture_sample(REF, 2000, seed=4)
        init = init_params(data, 2)
        result = fit_mixture(data, FitConfig(k=2, restarts=1, seed=0))
        assert result.log_likelihood >= log_likelihood(init, data)

    def test_reported_loglik_matches_model(self):
        data = mixture_sample(REF, 1500, seed=6)
        result = fit_mixture(data, FitConfig(k=2, restarts=1, seed=0))
        assert result.log_likelihood == pytest.approx(log_likelihood(result.model, data), rel=1e-9)
        assert result.converged
        assert result.nfev >= result.nit >= 3  # three starts, at least one iteration each

    def test_no_converged_start_raises_with_best_so_far(self, monkeypatch):
        def one_iteration(*args, **kwargs):
            # every start stops on the iteration cap, so none converges
            return minimize(*args, **{**kwargs, "options": {**kwargs["options"], "maxiter": 1}})

        monkeypatch.setattr("tailratio.fit.minimize", one_iteration)
        data = mixture_sample(REF, 1500, seed=6)
        with pytest.raises(FitFailureError) as info:
            fit_mixture(data, FitConfig(k=2, restarts=2, seed=0))
        best = info.value.best_model
        assert best.k == 2
        assert info.value.best_log_likelihood == pytest.approx(log_likelihood(best, data), rel=1e-9)

    def test_restart_wins_only_by_more_than_tolerance(self):
        data = mixture_sample(REF, 2000, seed=0)
        cfg = FitConfig(k=2, restarts=1, seed=0)
        single = fit_mixture(data, cfg)
        multi = fit_mixture(data, replace(cfg, restarts=5))
        gain = multi.log_likelihood - single.log_likelihood
        if multi.restart == 0:
            assert same_model(multi.model, single.model)
        else:
            assert gain > _TOL * abs(single.log_likelihood)

    def test_deterministic_under_seed(self):
        data = mixture_sample(REF, 1500, seed=8)
        a = fit_mixture(data, FitConfig(k=2, restarts=2, seed=3))
        b = fit_mixture(data, FitConfig(k=2, restarts=2, seed=3))
        assert same_model(a.model, b.model)
        assert a.restart == b.restart

    def test_zero_iqr_standardizes_by_range(self):
        rng = np.random.default_rng(1)
        data = np.concatenate([np.full(60, 3.0), rng.logistic(3.0, 2.0, size=40)])
        assert np.subtract(*np.quantile(data, [0.75, 0.25])) == 0.0
        result = fit_mixture(data, FitConfig(k=2, restarts=1, seed=0))
        assert result.converged
        assert result.log_likelihood == pytest.approx(log_likelihood(result.model, data), rel=1e-9)

    def test_single_component_fit(self):
        rng = np.random.default_rng(0)
        data = rng.logistic(10.0, 2.0, size=1200)
        result = fit_mixture(data, FitConfig(k=1, restarts=1, seed=0))
        assert result.model.locations[0] == pytest.approx(10.0, abs=0.3)
        assert result.model.scales[0] == pytest.approx(2.0, abs=0.3)


# Gradient property: the closed form matches central differences of the
# objective itself, including a log scale below the floor, where the
# objective is flat and the gradient must be exactly 0.
_GRAD_XS = np.sort(mixture_sample(REF, 400, seed=5))
_GRAD_FLOOR = _SCALE_FLOOR_FRAC * float(_GRAD_XS[-1] - _GRAD_XS[0])


@given(
    k=st.sampled_from((1, 2, 3)),
    unit=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
    at_floor=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_gradient_matches_central_differences(k, unit, at_floor):
    u = np.asarray(unit)
    theta = np.concatenate([
        -4.0 + 8.0 * u[: k - 1],  # weight logits
        -110.0 + 80.0 * u[2 : 2 + k],  # locations across the sample
        0.5 + 2.5 * u[5 : 5 + k],  # log scales
    ])
    if at_floor:
        theta[2 * k - 1] = np.log(_GRAD_FLOOR) - 1.0
    f, grad = _neg_loglik(theta, _GRAD_XS, k, _GRAD_FLOOR)
    # a small fixed step: a location next to a floored scale has curvature ~1/floor^2
    h = 1e-6
    central = np.array([
        (_neg_loglik(theta + h * e, _GRAD_XS, k, _GRAD_FLOOR)[0]
         - _neg_loglik(theta - h * e, _GRAD_XS, k, _GRAD_FLOOR)[0]) / (2.0 * h)
        for e in np.eye(theta.size)
    ])
    np.testing.assert_allclose(grad, central, rtol=1e-5, atol=1e-8 * abs(f))
    if at_floor:
        assert grad[2 * k - 1] == 0.0


# Log-likelihoods that the derivative-free simplex search (two Nelder-Mead
# passes per start) reached on two 1,500-point contamination-free training
# splits where a single gradient start from the quantile initializer lands in
# a worse mode (by 0.17 and 1.14).  The 2,000 scores map the uniforms of a
# generator seeded [0, 1], and split `rep` takes the first 1,500 of a
# permutation from one seeded [0, rep, 0].  On none of the
# 200 criterion-7 splits does a single start fall short of the simplex search
# by more than 0.001.
_SIMPLEX_LOGLIK = {146: -6145.506411212522, 195: -6116.540044966592}


@pytest.mark.parametrize("rep", sorted(_SIMPLEX_LOGLIK))
def test_multistart_reaches_simplex_optimum(rep):
    model = SynthConfig(contamination_weight=0.0).nonmated_model()
    data = _scores_from_uniforms(model, np.random.default_rng([0, 1]).random(4000))
    train = data[np.random.default_rng([0, rep, 0]).permutation(2000)[:1500]]
    result = fit_mixture(train, DEFAULT_STUDY_FIT_CONFIG)
    assert result.log_likelihood >= _SIMPLEX_LOGLIK[rep] - 1e-6


# Affine equivariance: the fit runs on (x - median) / IQR, so it sees the same
# standardized sample for x and a + b*x, up to the rounding of the map.  The
# optimizer's last steps sit at the objective's noise floor, so that rounding
# can still move where a start stops, within its stopping precision.  Over
# 6,000 random cases from this strategy the largest parameter gap was 3.7e-7
# of the IQR, and 98.6% of cases agreed within 1e-9.  Fitted in raw score
# units, 38 of 300 cases had a gap above 1e-6, and 2 of them ended in another
# mode.
_AFFINE_TOL = 1e-6


@given(case=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_fit_is_affine_equivariant(case):
    # a drawn case seeds the sample and the map, so that no example is the
    # identity map Hypothesis would otherwise try first
    rng = np.random.default_rng(case)
    n = int(rng.integers(200, 601))
    a = rng.uniform(-1e3, 1e3)
    b = 10.0 ** rng.uniform(-3.0, 3.0)
    x = _scores_from_uniforms(REF, rng.random(2 * n))
    y = a + b * x
    fx = fit_mixture(x, DEFAULT_STUDY_FIT_CONFIG)
    fy = fit_mixture(y, DEFAULT_STUDY_FIT_CONFIG)
    tol = _AFFINE_TOL * float(np.subtract(*np.quantile(y, [0.75, 0.25])))
    np.testing.assert_allclose(fy.model.weights, fx.model.weights, rtol=0.0, atol=_AFFINE_TOL)
    np.testing.assert_allclose(fy.model.locations, a + b * fx.model.locations, rtol=0.0, atol=tol)
    np.testing.assert_allclose(fy.model.scales, b * fx.model.scales, rtol=0.0, atol=tol)
    expected = fx.log_likelihood - n * np.log(b)
    assert fy.log_likelihood == pytest.approx(expected, rel=1e-9, abs=1e-9 * abs(fx.log_likelihood))


# Log-likelihoods of the first 20 criterion-8 training splits as fitted in raw
# score units, where these fits took 2,169 objective evaluations in all.
_RAW_UNIT_LOGLIK = (
    -6307.421129865008, -6257.632425674057, -6251.15413378359, -6246.613744512541,
    -6227.401602037373, -6270.269410231583, -6279.75668633371, -6218.576997062625,
    -6249.829843645482, -6261.883194598152, -6249.649402792234, -6212.966767047596,
    -6269.416533756231, -6253.161348837832, -6252.738085455905, -6290.873303765953,
    -6269.117647196504, -6252.016034705885, -6283.3432002672125, -6270.320890561919,
)


def test_standardized_fit_evaluation_budget():
    data = generate_synthetic(SynthConfig(seed=0)).scores(origin="nonmated")
    nfev = 0
    for rep, raw_loglik in enumerate(_RAW_UNIT_LOGLIK):
        split = split_dataset(data, 0.75, (0, rep, SPLIT))
        result = fit_mixture(split.train, replace(DEFAULT_STUDY_FIT_CONFIG, seed=(0, rep)))
        assert result.log_likelihood >= raw_loglik - 1e-6
        nfev += result.nfev
    assert nfev <= 1700
