"""Goodness-of-fit layer: KS and AD statistics and their p-values."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from tailratio import (
    DomainError,
    EmpiricalDistribution,
    FitConfig,
    GofOutcome,
    MixtureModel,
    REFERENCE_NONMATED_MODEL,
    ad_statistic,
    ad_weight,
    asymptotic_ks_pvalue,
    bootstrap_pvalue,
    derive_seed,
    fit_mixture,
    ks_statistic,
    mixture_cdf,
    mixture_pdf,
    mixture_sample,
    substream,
)

REF = REFERENCE_NONMATED_MODEL
SINGLE = MixtureModel.from_parts([1.0], [0.0], [1.0])
TRIPLE = MixtureModel.from_parts([0.5, 0.3, 0.2], [-5.0, 0.0, 4.0], [1.0, 2.0, 0.5])


def _loop_statistic(kind, sample, model):
    """The one-sample KS or AD formula, written out on a sorted 1-D copy."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    F = mixture_cdf(model, x)
    i = np.arange(1, n + 1)
    if kind == "KS":
        return float(np.max(np.maximum(i / n - F, F - (i - 1) / n)))
    F = np.clip(F, 1e-12, 1.0 - 1e-12)
    return float(-n - np.mean((2 * i - 1) * (np.log(F) + np.log(1.0 - F[::-1]))))


def _loop_bootstrap(sample, model, kind, B, seed, fit_config=None):
    """(statistic, p-value) from one draw per replicate, as a plain loop."""
    observed = _loop_statistic(kind, sample, model)
    count = 0
    for b in range(B):
        draw = mixture_sample(model, len(sample), substream(seed, b))
        model_b = model
        if fit_config is not None:
            model_b = fit_mixture(draw, replace(fit_config, seed=derive_seed(seed, b))).model
        count += _loop_statistic(kind, draw, model_b) >= observed
    return observed, (1 + count) / (B + 1)


class TestEmpirical:
    def test_sorts_and_counts(self):
        emp = EmpiricalDistribution.from_sample([3.0, 1.0, 2.0])
        assert emp.values.tolist() == [1.0, 2.0, 3.0]
        assert emp.n == 3

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(DomainError):
            EmpiricalDistribution.from_sample([])
        with pytest.raises(DomainError):
            EmpiricalDistribution.from_sample([1.0, np.nan])


class TestKS:
    def test_hand_computed_single_point(self):
        # one point at the model median: Fn jumps 0 -> 1 at F = 0.5
        assert ks_statistic([0.0], SINGLE) == pytest.approx(0.5, rel=1e-12)

    def test_small_for_model_sample_large_for_shifted(self):
        draws = mixture_sample(REF, 3000, seed=11)
        d_true = ks_statistic(draws, REF)
        shifted = MixtureModel.from_parts([0.8, 0.2], [-78.75, -56.25], [5.625, 10.9375])
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

    def test_more_sensitive_than_ks_to_tail_contamination(self):
        # mild right-tail contamination (20 of 1500 points) that KS shrugs
        # off is decisively flagged by the tail-weighted statistic
        rng = substream(41, 20)
        base = mixture_sample(REF, 1480, rng)
        contaminated = np.concatenate([base, rng.logistic(45.0, 25.0, size=20)])
        ks_p = bootstrap_pvalue(contaminated, REF, "KS", 199, seed=0).p_value
        ad_p = bootstrap_pvalue(contaminated, REF, "AD", 199, seed=0).p_value
        assert ks_p == pytest.approx(0.195)
        assert ad_p == pytest.approx(0.01)
        assert ad_p < ks_p / 10


class TestGofOutcome:
    def test_p_value_presence_tied_to_method(self):
        with pytest.raises(DomainError):
            GofOutcome("KS", 0.1, None, "asymptotic")
        with pytest.raises(DomainError):
            GofOutcome("KS", 0.1, 0.5, "none")

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
        assert a.p_method == "bootstrap(B=199, seed=5)"

    def test_detects_wrong_model(self):
        draws = mixture_sample(REF, 1000, seed=29)
        wrong = MixtureModel.from_parts([0.8, 0.2], [-80.0, -55.0], [5.625, 10.9375])
        assert bootstrap_pvalue(draws, wrong, "AD", 199, seed=0).p_value < 0.02
        assert bootstrap_pvalue(draws, REF, "AD", 199, seed=0).p_value > 0.05

    def test_refit_variant_runs_and_differs(self):
        rng = np.random.default_rng(31)
        draws = rng.logistic(0.0, 1.0, size=200)
        fitted = MixtureModel.from_parts([1.0], [float(np.median(draws))], [1.0])
        plain = bootstrap_pvalue(draws, fitted, "AD", 100, seed=0)
        refit = bootstrap_pvalue(
            draws, fitted, "AD", 100, seed=0,
            refit_within_bootstrap=True, fit_config=FitConfig(k=1, restarts=1),
        )
        assert 0.0 <= refit.p_value <= 1.0
        assert refit.p_value != plain.p_value

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

    def test_refit_matches_loop_reference(self):
        draws = np.random.default_rng(31).logistic(0.0, 1.3, size=200)
        fitted = MixtureModel.from_parts([1.0], [float(np.median(draws))], [1.0])
        cfg = FitConfig(k=1, restarts=1)
        for kind in ("KS", "AD"):
            out = bootstrap_pvalue(draws, fitted, kind, 100, seed=4, refit_within_bootstrap=True, fit_config=cfg)
            assert (out.statistic, out.p_value) == _loop_bootstrap(draws, fitted, kind, 100, 4, cfg), kind

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
