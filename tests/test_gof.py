"""Goodness-of-fit layer: KS and AD statistics and their p-values."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp, kstwo

from tailratio import (
    DomainError,
    FitConfig,
    GofOutcome,
    MixtureModel,
    REFERENCE_NONMATED_MODEL,
    ad_statistic,
    ad_weight,
    asymptotic_ad_pvalue,
    asymptotic_ks_pvalue,
    bootstrap_pvalue,
    fit_mixture,
    ks_statistic,
    mixture_cdf,
    mixture_pdf,
    mixture_sample,
    mixture_sf,
    substream,
)
from tailratio.dist import _scores_from_uniforms
from tailratio.gof import _cdf_statistics, _statistics
from tailratio.seeds import BOOTSTRAP, RESAMPLE

REF = REFERENCE_NONMATED_MODEL
SINGLE = MixtureModel([1.0], [0.0], [1.0])
TRIPLE = MixtureModel([0.5, 0.3, 0.2], [-5.0, 0.0, 4.0], [1.0, 2.0, 0.5])


def _loop_formula(kind, F, S=None):
    """The one-sample KS or AD formula, written out on sorted 1-D cdf values
    and, for AD, their survival values (1 - F where none are given)."""
    n = F.size
    i = np.arange(1, n + 1)
    if kind == "KS":
        return float(np.max(np.maximum(i / n - F, F - (i - 1) / n)))
    F = np.clip(F, 1e-12, 1.0 - 1e-12)
    S = 1.0 - F if S is None else np.clip(S, 1e-12, 1.0 - 1e-12)
    return float(-n - np.mean((2 * i - 1) * (np.log(F) + np.log(S[::-1]))))


def _loop_statistic(kind, sample, model):
    """The formula on the model cdf and right tail at a sorted copy of the sample."""
    xs = np.sort(np.asarray(sample, dtype=float))
    return _loop_formula(kind, mixture_cdf(model, xs), mixture_sf(model, xs))


def _loop_bootstrap(sample, model, kind, B, seed, refit=False):
    """(statistic, p-value) from one null row per replicate, as a plain loop.

    Without a refit, row b is the next n uniforms of the one substream keyed
    (seed, BOOTSTRAP), sorted; with one, replicate b maps 2n uniforms of
    substream (seed, b, RESAMPLE) to scores, refits a model of the same
    component count with restarts keyed under (seed, b), and is scored
    against its own refit.
    """
    observed = _loop_statistic(kind, sample, model)
    n = len(sample)
    rng = substream(seed, BOOTSTRAP)
    count = 0
    for b in range(B):
        if not refit:
            stat = _loop_formula(kind, np.sort(rng.random(n)))
        else:
            draw = _scores_from_uniforms(model, substream(seed, b, RESAMPLE).random(2 * n))
            model_b = fit_mixture(draw, FitConfig(k=model.k, restarts=1, seed=(seed, b))).model
            stat = _loop_statistic(kind, draw, model_b)
        count += stat >= observed
    return observed, (1 + count) / (B + 1)


class TestEmpirical:
    """Every statistic scores the empirical cdf of its sample: sorted, counted, finite."""

    def test_sorts_and_counts(self):
        sample = mixture_sample(TRIPLE, 50, seed=71)
        shuffled = np.random.default_rng(73).permutation(sample)
        for kind in ("KS", "AD"):
            sorted_stat = _loop_statistic(kind, sample, TRIPLE)
            assert _statistics(kind, TRIPLE, np.sort(sample)) == sorted_stat
            for arg in (sample, shuffled, shuffled.tolist(), tuple(shuffled[::-1])):
                stat = ks_statistic(arg, TRIPLE) if kind == "KS" else ad_statistic(arg, TRIPLE)
                assert stat == sorted_stat, kind
                out = bootstrap_pvalue(arg, TRIPLE, kind, 100, seed=3)
                assert (out.statistic, out.p_value) == _loop_bootstrap(sample, TRIPLE, kind, 100, 3), kind

    def test_rejects_empty_and_nonfinite(self):
        for bad in ([], [1.0, np.nan], [np.inf, 0.0], [0.0, -np.inf]):
            with pytest.raises(DomainError):
                ks_statistic(bad, REF)
            with pytest.raises(DomainError):
                ad_statistic(bad, REF)
            for kind in ("KS", "AD"):
                with pytest.raises(DomainError):
                    bootstrap_pvalue(bad, REF, kind, 100, seed=0)


class TestKS:
    def test_hand_computed_single_point(self):
        # one point at the model median: Fn jumps 0 -> 1 at F = 0.5
        assert ks_statistic([0.0], SINGLE) == pytest.approx(0.5, rel=1e-12)

    def test_small_for_model_sample_large_for_shifted(self):
        draws = mixture_sample(REF, 3000, seed=11)
        d_true = ks_statistic(draws, REF)
        shifted = MixtureModel([0.8, 0.2], [-78.75, -56.25], [5.625, 10.9375])
        assert d_true < 0.03
        assert ks_statistic(draws, shifted) > 3 * d_true

    def test_asymptotic_pvalue_frozen_value(self):
        assert asymptotic_ks_pvalue(0.04301, 1000) == pytest.approx(0.04804889520933632, rel=1e-10)

    def test_asymptotic_pvalue_edges(self):
        assert asymptotic_ks_pvalue(0.0, 100) == 1.0
        assert asymptotic_ks_pvalue(1.0, 100) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(DomainError):
            asymptotic_ks_pvalue(1.5, 100)
        with pytest.raises(DomainError):
            asymptotic_ks_pvalue(0.1, 0)

    @pytest.mark.parametrize("n", [500, 1500])
    def test_asymptotic_pvalue_near_exact_finite_n_law(self, n):
        # the corrected asymptotic p at the exact finite-n critical value;
        # the worst case, n=500 at p=0.5, reads 0.50435
        for p in (0.5, 0.1, 0.05, 0.01):
            assert asymptotic_ks_pvalue(float(kstwo.isf(p, n)), n) == pytest.approx(p, rel=0.01), p

    def test_asymptotic_pvalue_monotone_in_statistic(self):
        ps = [asymptotic_ks_pvalue(d, 500) for d in (0.02, 0.04, 0.06, 0.08)]
        assert ps == sorted(ps, reverse=True)


class TestAD:
    def test_weight_identities(self):
        assert ad_weight(0.5) == pytest.approx(4.0, rel=1e-12)
        assert ad_weight(0.99) == pytest.approx(101.0101010101, abs=1e-6)

    def test_statistic_matches_quadrature(self):
        # n * integral of (Fn - F)^2 / (F (1 - F)) dF, computed on a dense grid
        draws = np.sort(mixture_sample(REF, 50, seed=13))
        xs = np.linspace(-140.0, 20.0, 400_001)
        F = np.clip(mixture_cdf(REF, xs), 1e-12, 1 - 1e-12)
        f = mixture_pdf(REF, xs)
        Fn = np.searchsorted(draws, xs, side="right") / draws.size
        integrand = (Fn - F) ** 2 * ad_weight(F) * f
        quad = draws.size * np.trapezoid(integrand, xs)
        assert ad_statistic(draws, REF) == pytest.approx(quad, rel=0.01)

    def test_right_tail_keeps_its_digits(self):
        # For one standard logistic, ln F(x) = -log1p(e^-x) and
        # ln S(x) = -x - log1p(e^-x) hold to the last digit.  At x = 20,
        # 1 - F keeps only about 8 digits of S = 2.1e-9, which moved the
        # statistic by 2e-9 relative; the model's own right tail keeps them.
        xs = np.array([-1.0, 0.0, 20.0])
        n, i = xs.size, np.arange(1, xs.size + 1)
        log_F = -np.log1p(np.exp(-xs))
        log_S = -xs + log_F
        exact = -n - np.mean((2 * i - 1) * (log_F + log_S[::-1]))
        assert ad_statistic(xs, SINGLE) == pytest.approx(exact, rel=1e-14)

    def test_more_sensitive_than_ks_to_tail_contamination(self):
        # mild right-tail contamination (20 of 1500 points) that KS shrugs
        # off is decisively flagged by the tail-weighted statistic
        rng = substream(41, 20)
        base = _scores_from_uniforms(REF, rng.random(2 * 1480))
        contaminated = np.concatenate([base, rng.logistic(45.0, 25.0, size=20)])
        ks_p = bootstrap_pvalue(contaminated, REF, "KS", 199, seed=0).p_value
        ad_p = bootstrap_pvalue(contaminated, REF, "AD", 199, seed=0).p_value
        assert ks_p == pytest.approx(0.2)
        assert ad_p == pytest.approx(0.015)
        assert ad_p < ks_p / 10


def _published_ad_cdf(n, z):
    """Marsaglia & Marsaglia's AD(n, z) as published: ADinf(z) + errfix(n, ADinf(z))."""
    if z < 2.0:
        x = math.exp(-1.2337141 / z) / math.sqrt(z) * (
            2.00012 + (.247105 - (.0649821 - (.0347962 - (.011672 - .00168691 * z) * z) * z) * z) * z)
    else:
        x = math.exp(-math.exp(1.0776 - (2.30695 - (.43424 - (.082433 - (.008056 - .0003146 * z) * z) * z) * z) * z))
    if x > 0.8:
        return x + (-130.2137 + (745.2337 - (1705.091 - (1950.646 - (1116.360 - 255.7844 * x) * x) * x) * x) * x) / n
    c = .01265 + .1757 / n
    if x < c:
        t = x / c
        t = math.sqrt(t) * (1. - t) * (49 * t - 102)
        return x + t * (.0037 / (n * n) + .00078 / n + .00006) / n
    t = (x - c) / (.8 - c)
    t = -.00022633 + (6.54034 - (14.6538 - (14.458 - (8.259 - 1.91864 * t) * t) * t) * t) * t
    return x + t * (.04213 + .01365 / n) / n


# Where the published pieces join, the p-value can step up by at most this much.
def _ad_step(n):
    return 8e-5 / n + 1e-8


class TestADClosedForm:
    @pytest.mark.parametrize("n", [1, 2, 10, 500, 1500])
    def test_matches_published_form(self, n):
        # the cdf > 0.8 branch is evaluated about 1 in the code; the published
        # quintic's coefficients sum to about 5,900 in absolute value, so the
        # two orders of rounding may differ by about 1e-12
        for z in np.linspace(0.01, 8.0, 800):
            published = min(max(1.0 - _published_ad_cdf(n, z), 0.0), 1.0)
            assert asymptotic_ad_pvalue(float(z), n) == pytest.approx(published, rel=0, abs=1e-11), z

    @pytest.mark.parametrize("n", [500, 1500])
    def test_matches_uniform_monte_carlo_null(self, n):
        # 40,000 null statistics of n sorted uniforms; at their (1 - p)
        # quantile the closed form reads 0.4989 / 0.0993 / 0.0499 / 0.0100 at
        # n = 500 and 0.4961 / 0.0998 / 0.0506 / 0.0108 at n = 1,500
        rows = 40_000
        rng = substream(2004, n)
        block = 2**20 // n
        stats = np.concatenate([
            _cdf_statistics("AD", np.sort(rng.random((min(block, rows - start), n)), axis=-1))
            for start in range(0, rows, block)
        ])
        for p in (0.5, 0.1, 0.05, 0.01):
            closed = asymptotic_ad_pvalue(float(np.quantile(stats, 1.0 - p)), n)
            assert abs(closed - p) < 3.0 * math.sqrt(p * (1.0 - p) / rows), (p, closed)

    @given(st.integers(1, 10**6), st.floats(0.0, 60.0), st.floats(0.0, 60.0))
    @settings(max_examples=300, deadline=None)
    def test_bounded_and_nonincreasing(self, n, a, b):
        lo, hi = sorted((a, b))
        p_lo, p_hi = asymptotic_ad_pvalue(lo, n), asymptotic_ad_pvalue(hi, n)
        assert 0.0 <= p_hi <= p_lo + _ad_step(n)
        assert p_lo <= 1.0

    @given(st.integers(1, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_continuous_across_the_upper_tail_branch(self, n):
        below = asymptotic_ad_pvalue(math.nextafter(2.0, 0.0), n)
        assert abs(asymptotic_ad_pvalue(2.0, n) - below) < 1e-8

    def test_step_bound_holds_on_a_fine_grid(self):
        for n in (1, 2, 500):
            ps = np.array([asymptotic_ad_pvalue(z, n) for z in np.linspace(0.0, 20.0, 40_001)])
            assert np.max(np.diff(ps)) <= _ad_step(n), n

    @pytest.mark.parametrize("n", [1, 500, 1500])
    def test_clamped_statistic_reaches_the_floor(self, n):
        # every point at the cdf clamp: a statistic of about 27 n, far out in the tail
        clamped = float(_cdf_statistics("AD", np.ones(n)))
        p = asymptotic_ad_pvalue(clamped, n)
        assert math.isfinite(p) and p >= 0.0
        assert p == pytest.approx(6e-4 / n, rel=1e-9)
        assert asymptotic_ad_pvalue(0.0, n) == 1.0

    def test_domain(self):
        for a in (-1e-9, math.nan, math.inf):
            with pytest.raises(DomainError):
                asymptotic_ad_pvalue(a, 100)
        with pytest.raises(DomainError):
            asymptotic_ad_pvalue(1.0, 0)


class TestGofOutcome:
    def test_p_value_presence_tied_to_method(self):
        # every method produces a p-value
        with pytest.raises(DomainError):
            GofOutcome("KS", 0.1, None, "asymptotic")

    def test_kind_checked(self):
        with pytest.raises(DomainError):
            GofOutcome("CvM", 0.1, 0.5, "asymptotic")


class TestBootstrap:
    def test_minimum_size_enforced(self):
        draws = mixture_sample(REF, 200, seed=19)
        with pytest.raises(DomainError):
            bootstrap_pvalue(draws, REF, "KS", 99, seed=0)

    def test_deterministic_and_add_one_bounded(self):
        draws = mixture_sample(REF, 300, seed=23)
        a = bootstrap_pvalue(draws, REF, "AD", 199, seed=5)
        b = bootstrap_pvalue(draws, REF, "AD", 199, seed=5)
        assert a.p_value == b.p_value
        assert a.p_value >= 1.0 / 200.0
        assert a.p_method == "bootstrap(B=199, seed=[5])"

    def test_detects_wrong_model(self):
        draws = mixture_sample(REF, 1000, seed=29)
        wrong = MixtureModel([0.8, 0.2], [-80.0, -55.0], [5.625, 10.9375])
        assert bootstrap_pvalue(draws, wrong, "AD", 199, seed=0).p_value < 0.02
        assert bootstrap_pvalue(draws, REF, "AD", 199, seed=0).p_value > 0.05

    def test_refit_variant_runs_and_differs(self):
        rng = np.random.default_rng(31)
        draws = rng.logistic(0.0, 1.0, size=200)
        fitted = MixtureModel([1.0], [float(np.median(draws))], [1.0])
        plain = bootstrap_pvalue(draws, fitted, "AD", 100, seed=0)
        refit = bootstrap_pvalue(draws, fitted, "AD", 100, seed=0, refit_within_bootstrap=True)
        assert 0.0 <= refit.p_value <= 1.0
        assert refit.p_value != plain.p_value
        # the outcome names the null it was drawn from
        assert plain.p_method == "bootstrap(B=100, seed=[0])"
        assert refit.p_method == "refit-bootstrap(B=100, seed=[0])"

    # n=1500 packs 10 rows per block, so B=101 leaves a one-row block; past
    # 2**14 values every block holds a single row
    @pytest.mark.parametrize("model", [SINGLE, REF, TRIPLE], ids=["k1", "k2", "k3"])
    @pytest.mark.parametrize("n,B", [
        (1, 100), (7, 199), (500, 199), (1500, 100), (1500, 101), (1500, 199), (20_000, 100),
    ])
    def test_batched_matches_loop_reference(self, model, n, B):
        sample = mixture_sample(model, n, seed=[53, n])
        for kind in ("KS", "AD"):
            out = bootstrap_pvalue(sample, model, kind, B, seed=n + B)
            assert (out.statistic, out.p_value) == _loop_bootstrap(sample, model, kind, B, n + B), kind

    # the no-refit null is drawn from uniforms; it must have the law of the
    # statistic on draws from the model, scored against that model
    @pytest.mark.parametrize("model", [SINGLE, REF, TRIPLE], ids=["k1", "k2", "k3"])
    @pytest.mark.parametrize("n", [7, 500])
    def test_uniform_null_has_the_model_draw_law(self, model, n):
        reps = 2000
        draws = np.sort(mixture_sample(model, reps * n, seed=[61, n]).reshape(reps, n), axis=-1)
        uniforms = np.sort(substream(67, n).random((reps, n)), axis=-1)
        for kind in ("KS", "AD"):
            p = ks_2samp(_statistics(kind, model, draws), _cdf_statistics(kind, uniforms)).pvalue
            assert p > 0.001, (kind, p)

    def test_refit_matches_loop_reference(self):
        # against the fitted model the p-values sit in the body of the null
        # (KS 0.406, AD 0.277), so they depend on how the refit draws are keyed
        draws = np.random.default_rng(31).logistic(0.0, 1.3, size=200)
        fitted = fit_mixture(draws, FitConfig(k=1, restarts=1)).model
        for kind in ("KS", "AD"):
            out = bootstrap_pvalue(draws, fitted, kind, 100, seed=4, refit_within_bootstrap=True)
            assert (out.statistic, out.p_value) == _loop_bootstrap(draws, fitted, kind, 100, 4, refit=True), kind

    def test_null_rejection_rate_near_level(self):
        # drawn-from-model samples should be rejected at about the nominal level
        trials, level, B = 300, 0.05, 199
        rejections = 0
        for t in range(trials):
            draws = mixture_sample(SINGLE, 150, seed=[97, t])
            p = bootstrap_pvalue(draws, SINGLE, "AD", B, seed=t).p_value
            rejections += p < level
        rate = rejections / trials
        assert 0.02 <= rate <= 0.09
