"""Goodness-of-fit layer: KS and AD statistics and their p-values."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstwo

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
from tailratio.dist import _scores_from_uniforms, _stack
from tailratio.gof import _closed_forms, _statistics
from tailratio.seeds import RESAMPLE

from strategies import random_mixture

REF = REFERENCE_NONMATED_MODEL
SINGLE = MixtureModel([1.0], [0.0], [1.0])
TRIPLE = MixtureModel([0.5, 0.3, 0.2], [-5.0, 0.0, 4.0], [1.0, 2.0, 0.5])


def _loop_formula(kind, F, S=None):
    """The one-sample KS or AD formula, written out on sorted cdf values in
    the last axis and, for AD, their survival values (1 - F where none are
    given); a float for one sample, an array for rows of them."""
    n = F.shape[-1]
    i = np.arange(1, n + 1)
    if kind == "KS":
        stat = np.max(np.maximum(i / n - F, F - (i - 1) / n), axis=-1)
    else:
        F = np.clip(F, 1e-12, 1.0 - 1e-12)
        S = 1.0 - F if S is None else np.clip(S, 1e-12, 1.0 - 1e-12)
        stat = -n - np.mean((2 * i - 1) * (np.log(F) + np.log(S[..., ::-1])), axis=-1)
    return float(stat) if stat.ndim == 0 else stat


def _loop_statistic(kind, sample, model):
    """The formula on the model cdf and right tail at a sorted copy of the sample."""
    xs = np.sort(np.asarray(sample, dtype=float))
    return _loop_formula(kind, mixture_cdf(model, xs), mixture_sf(model, xs))


def _loop_bootstrap(sample, model, B, seed):
    """(statistic, p-value) of KS and of AD, from one refit per draw, as a plain loop.

    Draw b maps 2n uniforms of substream (seed, b, RESAMPLE) to scores,
    refits a model of the same component count with restarts keyed under
    (seed, b), and is scored against its own refit.
    """
    kinds = ("KS", "AD")
    observed = [_loop_statistic(kind, sample, model) for kind in kinds]
    n = len(sample)
    counts = [0, 0]
    for b in range(B):
        draw = _scores_from_uniforms(model, substream(seed, b, RESAMPLE).random(2 * n))
        model_b = fit_mixture(draw, FitConfig(k=model.k, restarts=1, seed=(seed, b))).model
        for j, kind in enumerate(kinds):
            counts[j] += _loop_statistic(kind, draw, model_b) >= observed[j]
    return [(stat, (1 + count) / (B + 1)) for stat, count in zip(observed, counts)]


def _pairs(outcomes):
    return [(o.statistic, o.p_value) for o in outcomes]


class TestEmpirical:
    """Every statistic scores the empirical cdf of its sample: sorted, counted, finite."""

    def test_sorts_and_counts(self):
        sample = mixture_sample(TRIPLE, 50, seed=71)
        shuffled = np.random.default_rng(73).permutation(sample)
        for kind, stat in zip(("KS", "AD"), _statistics(TRIPLE, np.sort(sample))):
            sorted_stat = _loop_statistic(kind, sample, TRIPLE)
            assert stat == sorted_stat
            for arg in (sample, shuffled, shuffled.tolist(), tuple(shuffled[::-1])):
                stat = ks_statistic(arg, TRIPLE) if kind == "KS" else ad_statistic(arg, TRIPLE)
                assert stat == sorted_stat, kind
        # a three-component refit per draw; the bootstrap reads a reversed shuffle
        outcomes = bootstrap_pvalue(tuple(shuffled[::-1]), TRIPLE, 100, seed=3)
        assert _pairs(outcomes) == _loop_bootstrap(sample, TRIPLE, 100, 3)

    def test_rejects_empty_and_nonfinite(self):
        for bad in ([], [1.0, np.nan], [np.inf, 0.0], [0.0, -np.inf]):
            with pytest.raises(DomainError):
                ks_statistic(bad, REF)
            with pytest.raises(DomainError):
                ad_statistic(bad, REF)
            with pytest.raises(DomainError):
                bootstrap_pvalue(bad, REF, 100, seed=0)


# 1 to 3 pairs of (nine numbers for `random_mixture`, a row of n points), n in [1, 40]
_STACKS = st.integers(1, 40).flatmap(lambda n: st.lists(
    st.tuples(st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9),
              st.lists(st.floats(-250.0, 120.0), min_size=n, max_size=n)),
    min_size=1, max_size=3,
))


def _bits(values):
    return [np.asarray(v, dtype=float).tobytes() for v in values]


class TestStacked:
    """A stack of samples against a stack of models: row r gets the bits of its one-sample call."""

    @given(st.integers(1, 3), _STACKS)
    @example(2, [([0.0] * 9, [0.0, 0.0]),
                 ([0, 1, 0, 0, 0.8184513229028234, 0, 0, 0.2798513574868556, 0], [1.0, 0.721054504426745])])
    @settings(max_examples=60, deadline=None)
    def test_rows_match_one_sample_calls(self, m, pairs):
        # k models of m components each, and k sorted rows of n points.  In the
        # example, a log over the reversed stack once gave row 1 an AD one bit
        # off its one-sample value.
        models = [random_mixture(m, params) for params, _ in pairs]
        xs = np.sort([row for _, row in pairs], axis=1)
        stack = _stack(models)
        stacked = _closed_forms(stack, xs)
        assert _bits(_statistics(stack, xs)) == _bits(stacked[:2])
        for r, model in enumerate(models):
            single = _closed_forms(model, xs[r])
            assert _bits(single[:2]) == _bits(_statistics(model, xs[r]))
            assert _bits(single[:2]) == _bits((ks_statistic(xs[r], model), ad_statistic(xs[r], model)))
            assert _bits(v[r] for v in stacked) == _bits(single), r

    def test_bootstrap_counts_match_a_per_draw_loop(self):
        # the refits scored one draw at a time; a two-component model of 150
        # points puts both counts inside (0, B): 50 for KS, 60 for AD
        B, seed = 100, 6
        sample = mixture_sample(REF, 150, seed=37)
        model = fit_mixture(sample, FitConfig(k=2, restarts=1)).model
        draws = np.sort([mixture_sample(model, 150, (seed, b, RESAMPLE)) for b in range(B)], axis=1)
        refits = fit_mixture(draws, FitConfig(k=2, restarts=1, seed=seed))
        counts = []
        for kind in ("KS", "AD"):
            observed = _loop_statistic(kind, sample, model)
            counts.append(sum(_loop_statistic(kind, draw, fit.model) >= observed for draw, fit in zip(draws, refits)))
        outcomes = bootstrap_pvalue(sample, model, B, seed)
        assert [o.p_value for o in outcomes] == [(1 + c) / (B + 1) for c in counts]
        assert all(0 < c < B for c in counts), counts


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
        ks_p = asymptotic_ks_pvalue(ks_statistic(contaminated, REF), contaminated.size)
        ad_p = asymptotic_ad_pvalue(ad_statistic(contaminated, REF), contaminated.size)
        assert ks_p == pytest.approx(0.19873, rel=1e-4)
        assert ad_p == pytest.approx(0.0075331, rel=1e-4)
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
            _loop_formula("AD", np.sort(rng.random((min(block, rows - start), n)), axis=-1))
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
        clamped = _loop_formula("AD", np.ones(n))
        p = asymptotic_ad_pvalue(clamped, n)
        assert math.isfinite(p) and p >= 0.0
        assert p == pytest.approx(6e-4 / n, rel=1e-9)
        assert asymptotic_ad_pvalue(0.0, n) == 1.0

    def test_null_rejection_rate_near_level(self):
        # drawn-from-model samples should be rejected at about the nominal
        # level; this reads 17 of 300 (0.057)
        trials, level, n = 300, 0.05, 150
        rejections = 0
        for t in range(trials):
            draws = mixture_sample(SINGLE, n, seed=[97, t])
            rejections += asymptotic_ad_pvalue(ad_statistic(draws, SINGLE), n) < level
        rate = rejections / trials
        assert 0.02 <= rate <= 0.09

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
            bootstrap_pvalue(draws, REF, 99, seed=0)

    def test_deterministic_and_add_one_bounded(self):
        draws = mixture_sample(REF, 300, seed=23)
        a = bootstrap_pvalue(draws, REF, 100, seed=5)
        b = bootstrap_pvalue(draws, REF, 100, seed=5)
        assert a == b
        for outcome, kind in zip(a, ("KS", "AD")):
            assert outcome.statistic_kind == kind
            assert outcome.p_value >= 1.0 / 101.0
            assert outcome.p_method == "refit-bootstrap(B=100, seed=[5])"

    def test_detects_wrong_model(self):
        # one component fitted to two-component draws is rejected at the
        # floor; two components fit (KS 0.76, AD 0.54)
        draws = mixture_sample(REF, 1000, seed=29)
        one, two = (fit_mixture(draws, FitConfig(k=k, restarts=1)).model for k in (1, 2))
        assert bootstrap_pvalue(draws, one, 100, seed=0)[1].p_value < 0.02
        assert bootstrap_pvalue(draws, two, 100, seed=0)[1].p_value > 0.05

    def test_refit_variant_runs_and_differs(self):
        # the closed form ignores that the location was estimated; the refit does not
        rng = np.random.default_rng(31)
        draws = rng.logistic(0.0, 1.0, size=200)
        fitted = MixtureModel([1.0], [float(np.median(draws))], [1.0])
        ks, ad = bootstrap_pvalue(draws, fitted, 100, seed=0)
        assert 0.0 <= ad.p_value <= 1.0
        assert ad.p_value != asymptotic_ad_pvalue(ad_statistic(draws, fitted), draws.size)
        assert ks.p_value != asymptotic_ks_pvalue(ks_statistic(draws, fitted), draws.size)
        # the outcome names the null it was drawn from
        assert ad.p_method == ks.p_method == "refit-bootstrap(B=100, seed=[0])"

    def test_refit_matches_loop_reference(self):
        # against the fitted model the p-values sit in the body of the null
        # (KS 0.406, AD 0.277), so they depend on how the refit draws are keyed
        draws = np.random.default_rng(31).logistic(0.0, 1.3, size=200)
        fitted = fit_mixture(draws, FitConfig(k=1, restarts=1)).model
        outcomes = bootstrap_pvalue(draws, fitted, 100, seed=4)
        assert _pairs(outcomes) == _loop_bootstrap(draws, fitted, 100, 4)
        assert [round(o.p_value, 3) for o in outcomes] == [0.406, 0.277]
