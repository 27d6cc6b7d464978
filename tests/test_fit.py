"""Fitting layer: splits, initializers, and the mixture MLE."""
from __future__ import annotations

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tailratio.fit import _LOGIT_CLIP, _SCALE_FLOOR_FRAC, _TOL, _neg_loglik, _Workspace, minimize
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

    def test_requires_a_component(self):
        with pytest.raises(DomainError, match="component count must be at least 1"):
            init_params(np.arange(50.0), 0)

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
        # every start stops on the iteration cap, so none converges
        monkeypatch.setattr("tailratio.fit._MAX_ITER", 1)
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


# Derivative properties: the closed-form gradient matches central differences
# of the objective, and the closed-form Hessian central differences of the
# gradient.  Where a clip or the scale floor binds, the objective is flat in
# that coordinate: its gradient entry, Hessian row and Hessian column are 0.
_GRAD_XS = np.sort(mixture_sample(REF, 400, seed=5))
_GRAD_FLOOR = _SCALE_FLOOR_FRAC * float(_GRAD_XS[-1] - _GRAD_XS[0])


def _derivatives(theta: np.ndarray, k: int):
    work = _Workspace(1, k, _GRAD_XS.size)
    f, grad, hess = _neg_loglik(theta[None], _GRAD_XS[None], k, np.array([_GRAD_FLOOR]), work)
    return f[0], grad[0], hess[0]


def _theta(k: int, unit: list[float]) -> np.ndarray:
    u = np.asarray(unit)
    return np.concatenate([
        -4.0 + 8.0 * u[: k - 1],  # weight logits
        -110.0 + 80.0 * u[2 : 2 + k],  # locations across the sample
        0.5 + 2.5 * u[5 : 5 + k],  # log scales
    ])


_UNIT = st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8)


@given(k=st.sampled_from((1, 2, 3)), unit=_UNIT, at_floor=st.booleans())
@settings(max_examples=60, deadline=None)
def test_gradient_matches_central_differences(k, unit, at_floor):
    theta = _theta(k, unit)
    if at_floor:
        theta[2 * k - 1] = np.log(_GRAD_FLOOR) - 1.0
    f, grad, _ = _derivatives(theta, k)
    # a small fixed step: a location next to a floored scale has curvature ~1/floor^2
    h = 1e-6
    central = np.array([
        (_derivatives(theta + h * e, k)[0] - _derivatives(theta - h * e, k)[0]) / (2.0 * h)
        for e in np.eye(theta.size)
    ])
    np.testing.assert_allclose(grad, central, rtol=1e-5, atol=1e-8 * abs(f))
    if at_floor:
        assert grad[2 * k - 1] == 0.0


@given(k=st.sampled_from((1, 2, 3)), unit=_UNIT, flat=st.sampled_from(("none", "logit", "scale")))
@settings(max_examples=60, deadline=None)
def test_hessian_matches_central_differences_of_the_gradient(k, unit, flat):
    theta = _theta(k, unit)
    j = None
    if flat == "logit" and k > 1:
        j = 0
        theta[j] = _LOGIT_CLIP + 1.0
    elif flat == "scale":
        j = 2 * k - 1
        theta[j] = np.log(_GRAD_FLOOR) - 1.0
    _, grad, hess = _derivatives(theta, k)
    h = 1e-6
    central = np.array([
        (_derivatives(theta + h * e, k)[1] - _derivatives(theta - h * e, k)[1]) / (2.0 * h)
        for e in np.eye(theta.size)
    ])
    # the difference quotient carries rounding of about eps |grad| / h; far
    # from the data a floored component is log-linear and its curvature 0
    atol = 1e-7 * np.abs(hess).max() + 1e-9 * np.abs(grad).max()
    np.testing.assert_allclose(hess, central, rtol=1e-5, atol=atol)
    assert np.array_equal(hess, hess.T)
    if j is not None:
        assert not hess[j].any() and not hess[:, j].any()


def test_warm_objective_call_allocates_less_than_one_row():
    # The objective's k-by-n and n-sized intermediates live in the workspace,
    # so a warm call allocates only parameter-sized arrays.
    n, k = 20_000, 2
    xs = np.sort(mixture_sample(REF, n, seed=7))
    floor = np.full(2, _SCALE_FLOOR_FRAC * float(xs[-1] - xs[0]))
    xs = np.repeat(xs[None], 2, axis=0)
    thetas = np.array([[0.5, -85.0, -60.0, np.log(6.0), np.log(11.0)], [1.0, -80.0, -50.0, 1.0, 2.0]])
    work = _Workspace(2, k, n)
    expected = _neg_loglik(thetas, xs, k, floor, work)
    tracemalloc.start()
    try:
        result = _neg_loglik(thetas, xs, k, floor, work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n
    assert all(np.array_equal(a, b) for a, b in zip(result, expected))


# 9,000 points is past numpy's 8,192-element buffer, where a batched
# reduction may split a row at a place that depends on the batch.
@pytest.mark.parametrize("n", [400, 9000])
def test_start_is_the_same_bits_alone_and_in_a_batch(n):
    sample = np.sort(mixture_sample(REF, n, seed=5))
    xs = np.repeat(sample[None], 4, axis=0)
    floor = np.full(4, _SCALE_FLOOR_FRAC * float(sample[-1] - sample[0]))
    rng = np.random.default_rng(4)
    thetas = np.column_stack([
        rng.normal(0.0, 1.0, 4), rng.uniform(-100.0, -60.0, (4, 2)), rng.uniform(1.0, 3.0, (4, 2))
    ])
    batch = minimize(thetas, xs, 2, floor)
    assert batch.success and batch.nfev > batch.nit > 4
    for i in range(4):
        alone = minimize(thetas[i : i + 1], xs[i : i + 1], 2, floor[i : i + 1])
        assert np.array_equal(alone.x[0], batch.x[i]) and alone.fun[0] == batch.fun[i]
    # one sample shared by every start without a copy gives the bits of the repeated copies
    shared = minimize(thetas, np.broadcast_to(sample, xs.shape), 2, floor)
    for name in ("x", "fun", "converged", "start_nit", "start_nfev"):
        assert np.array_equal(getattr(shared, name), getattr(batch, name)), name


@pytest.mark.parametrize("n", [8193, 20_000])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_objective_row_is_the_same_bits_alone_and_in_a_batch(k, n):
    # at k = 1 a batched sum over points once split rows where the batch's
    # buffer did, so the Hessian of a row depended on its batch
    rng = np.random.default_rng([k, n])
    xs = np.sort(np.stack([mixture_sample(REF, n, seed=(i, n)) for i in range(3)]), axis=1)
    floor = _SCALE_FLOOR_FRAC * (xs[:, -1] - xs[:, 0])
    thetas = np.column_stack([
        rng.normal(0.0, 1.0, (3, k - 1)), rng.uniform(-100.0, -40.0, (3, k)), rng.uniform(1.0, 3.0, (3, k))
    ])
    batch = _neg_loglik(thetas, xs, k, floor, _Workspace(3, k, n))
    for i in range(3):
        alone = _neg_loglik(thetas[i : i + 1], xs[i : i + 1], k, floor[i : i + 1], _Workspace(1, k, n))
        for name, a, b in zip(("f", "grad", "hess"), alone, batch):
            assert np.array_equal(a[0], b[i]), (name, i)


def test_restart_zero_gives_the_same_bits_under_more_restarts(monkeypatch):
    runs = []

    def recording(*args, **kwargs):
        runs.append(minimize(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr("tailratio.fit.minimize", recording)
    data = mixture_sample(REF, 1500, seed=6)
    fit_mixture(data, FitConfig(k=2, restarts=1, seed=0))
    fit_mixture(data, FitConfig(k=2, restarts=3, seed=0))
    one, three = runs
    assert one.x.shape[0] == 3 and three.x.shape[0] == 5
    assert np.array_equal(one.x, three.x[:3]) and np.array_equal(one.fun, three.fun[:3])


class _RecordingMinimize:
    """`minimize` recording each call's starts and samples; its starts on the sample `bad` never converge."""

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.thetas: list[np.ndarray] = []
        self.samples: list[np.ndarray] = []
        self.bad = None

    def __call__(self, thetas, xs, *args, **kwargs):
        self.starts.append(len(thetas))
        self.thetas.append(np.array(thetas))
        self.samples.append(np.array(xs))
        res = minimize(thetas, xs, *args, **kwargs)
        if self.bad is None or np.shape(xs)[-1] != self.bad.size:
            return res
        return replace(res, converged=res.converged & ~(xs == self.bad).all(axis=1))


@pytest.mark.parametrize(
    ("k", "coarse"),
    [(k, coarse) for coarse in (False, True) for k in (1, 2, 3)],
    ids=["1", "2", "3", "1-coarse", "2-coarse", "3-coarse"],
)
@pytest.mark.parametrize("restarts", [1, 3])
def test_stacked_rows_fit_to_the_same_bits_as_alone(k, coarse, restarts, monkeypatch):
    n, rows, seed = 200, 5, (4, 1)
    stack = np.array([mixture_sample(REF, n, seed=(40, i)) for i in range(rows)])
    starts = (3 if k > 1 else 1) + restarts - 1
    # chunks of two, two and one samples
    monkeypatch.setattr("tailratio.fit._CHUNK_VALUES", 2 * starts * n + 1)
    if coarse:
        monkeypatch.setattr("tailratio.fit._COARSE_POINTS", n // 4)
    run = _RecordingMinimize()
    monkeypatch.setattr("tailratio.fit.minimize", run)
    cfg = FitConfig(k=k, restarts=restarts, seed=seed)
    # row 3's starts never converge on all n points, so its fit fails alone and in the stack
    fit_mixture(stack[3], cfg)
    run.bad = run.samples[-1][0]
    run.starts.clear()
    stacked = fit_mixture(stack, cfg)
    if coarse:
        # each chunk's coarse call, then its full call on the starts left to polish
        assert run.starts[::2] == [2 * starts, 2 * starts, starts]
        assert all(0 < full <= first for first, full in zip(run.starts[::2], run.starts[1::2]))
    else:
        assert run.starts == [2 * starts, 2 * starts, starts]
    assert len(stacked) == rows
    for i, row in enumerate(stacked):
        alone_cfg = replace(cfg, seed=(*seed, i))
        if i == 3:
            assert isinstance(row, FitFailureError)
            with pytest.raises(FitFailureError) as info:
                fit_mixture(stack[i], alone_cfg)
            assert same_model(row.best_model, info.value.best_model)
            assert row.best_log_likelihood == info.value.best_log_likelihood
            continue
        alone = fit_mixture(stack[i], alone_cfg)
        assert same_model(row.model, alone.model), i
        record = ("log_likelihood", "restart", "converged", "nit", "nfev")
        assert [getattr(row, name) for name in record] == [getattr(alone, name) for name in record], i
        assert row.converged and row.nfev > row.nit >= starts


@pytest.mark.parametrize("n", [199, 200])
def test_coarse_phase_starts_at_four_times_its_points(n, monkeypatch):
    monkeypatch.setattr("tailratio.fit._COARSE_POINTS", 50)
    run = _RecordingMinimize()
    monkeypatch.setattr("tailratio.fit.minimize", run)
    stack = np.array([mixture_sample(REF, n, seed=(41, i)) for i in range(2)])
    fit_mixture(stack, FitConfig(k=2, restarts=1, seed=0))
    if n < 200:
        assert run.starts == [6] and run.samples[0].shape == (6, n)
    else:
        # the coarse sample is the middle point of each stratum of four
        assert run.starts[0] == 6 and len(run.starts) == 2
        coarse, full = run.samples
        assert coarse.shape == (6, 50) and full.shape[-1] == n
        assert np.array_equal(coarse[0], full[0, 2::4]) and np.array_equal(coarse[3], full[-1, 2::4])


def test_merged_starts_give_the_bits_of_polishing_every_start(monkeypatch):
    monkeypatch.setattr("tailratio.fit._COARSE_POINTS", 100)
    run = _RecordingMinimize()
    monkeypatch.setattr("tailratio.fit.minimize", run)
    data = mixture_sample(REF, 400, seed=(3, 0))
    cfg = FitConfig(k=2, restarts=3, seed=0)
    merged = fit_mixture(data, cfg)
    assert run.starts == [5, 2]
    monkeypatch.setattr("tailratio.fit._MERGE_TOL", 0.0)
    polished = fit_mixture(data, cfg)
    assert run.starts[2:] == [5, 5]
    assert same_model(merged.model, polished.model)
    assert (merged.log_likelihood, merged.restart, merged.converged) == (
        polished.log_likelihood, polished.restart, polished.converged
    )
    # a merged start counts its coarse evaluations only
    assert merged.nfev < polished.nfev


def test_nonfinite_coarse_end_polishes_from_the_start(monkeypatch):
    monkeypatch.setattr("tailratio.fit._COARSE_POINTS", 100)
    run = _RecordingMinimize()

    def lost_first_start(thetas, xs, *args, **kwargs):
        res = run(thetas, xs, *args, **kwargs)
        if np.shape(xs)[-1] == 100:
            res.fun[0] = np.nan
        return res

    monkeypatch.setattr("tailratio.fit.minimize", lost_first_start)
    data = mixture_sample(REF, 400, seed=(3, 0))
    result = fit_mixture(data, FitConfig(k=2, restarts=1, seed=0))
    coarse, full = run.thetas
    # start 0 runs again from its initial point and merges with nothing, so
    # start 1 stays too
    assert len(full) >= 2 and np.array_equal(full[0], coarse[0])
    assert result.converged


def test_stack_rows_are_checked_by_row():
    good = mixture_sample(REF, 100, seed=1)
    with pytest.raises(DomainError, match="row 1: sample is a single repeated value"):
        fit_mixture(np.array([good, np.full(100, 3.0)]), FitConfig(k=2, restarts=1))
    with pytest.raises(DomainError, match="row 0: fit sample must be finite"):
        fit_mixture(np.array([np.where(good > -70.0, np.inf, good), good]), FitConfig(k=2, restarts=1))
    for bad in (np.empty((0, 100)), np.ones((2, 2, 100))):
        with pytest.raises(DomainError, match="stack"):
            fit_mixture(bad, FitConfig(k=2, restarts=1))
    with pytest.raises(DomainError):
        init_params(np.array([good, good]), 2)


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
# standardized sample for x and a + b*x, up to the rounding of the map.  Newton
# steps converge far past the gradient test, so that rounding barely moves
# where a start stops: over 2,000 random cases from this strategy the largest
# parameter gap was 7.1e-12 of the IQR.
_AFFINE_TOL = 1e-9


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
