"""Experiment layer: synthesis, tail audits, studies, threshold tables."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from tailratio import (
    DEFAULT_MATED_MODEL,
    DomainError,
    FitConfig,
    MixtureModel,
    PValueStudyResult,
    REFERENCE_NONMATED_MODEL,
    ScoreDataset,
    SynthConfig,
    TailAudit,
    ThresholdTable,
    ToyScenario,
    ad_statistic,
    asymptotic_ad_pvalue,
    asymptotic_ks_pvalue,
    bootstrap_pvalue,
    default_toy_scenarios,
    fit_mixture,
    generate_synthetic,
    ks_statistic,
    mixture_sample,
    pvalue_study,
    specific_source_lr,
    split_dataset,
    table_fixture_check,
    tail_audit,
    threshold_study,
    toy_study,
)
from tailratio.experiments import _PANELS, _toy_tails
from tailratio.seeds import RESAMPLE, SPLIT

from strategies import fit_failing_on

REF = REFERENCE_NONMATED_MODEL


def same_rows(a: ScoreDataset, b: ScoreDataset) -> bool:
    columns = ("score", "origin", "feature_count", "pair_id", "source_id")
    return all(np.array_equal(getattr(a, c), getattr(b, c)) for c in columns)


class TestSynth:
    def test_default_sizes_and_labels(self):
        ds = generate_synthetic(SynthConfig(seed=0))
        assert len(ds) == 1996 + 2000
        assert ds.scores(origin="mated").size == 1996
        assert ds.scores(origin="nonmated").size == 2000

    def test_mated_sources_are_round_robin(self):
        ds = generate_synthetic(SynthConfig(seed=0))
        mated = ds.origin == "mated"
        pair_id, source_id = ds.pair_id[mated], ds.source_id[mated]
        assert pair_id[0] == "mated-0"
        assert source_id[0] == "source-0"
        assert source_id[9] == "source-0"
        assert source_id[10] == "source-1"
        assert all(s is None for s in ds.source_id[ds.origin == "nonmated"])

    def test_deterministic_under_seed(self):
        a = generate_synthetic(SynthConfig(seed=4))
        b = generate_synthetic(SynthConfig(seed=4))
        assert same_rows(a, b)
        c = generate_synthetic(SynthConfig(seed=5))
        assert not same_rows(a, c)

    def test_contamination_widens_right_tail(self):
        clean = generate_synthetic(SynthConfig(contamination_weight=0.0, seed=1))
        dirty = generate_synthetic(SynthConfig(contamination_weight=0.05, seed=1))
        assert np.sum(dirty.scores(origin="nonmated") > 0.0) > np.sum(
            clean.scores(origin="nonmated") > 0.0
        )

    def test_nonmated_model_merges_contamination(self):
        cfg = SynthConfig(seed=0)
        model = cfg.nonmated_model()
        assert model.k == 3
        assert model.weights.sum() == pytest.approx(1.0, rel=1e-12)
        # core weights scaled down by the contamination weight
        assert model.weights[0] == pytest.approx(0.8 * 0.987, rel=1e-12)
        assert model.locations[-1] == pytest.approx(45.0)
        clean = SynthConfig(contamination_weight=0.0, seed=0).nonmated_model()
        assert clean.k == 2

    def test_weight_range_checked(self):
        with pytest.raises(DomainError):
            SynthConfig(contamination_weight=0.5)

    def test_record_validation(self):
        with pytest.raises(DomainError):
            ScoreDataset(score=[0.0], origin=["other"], feature_count=[15], pair_id=["x"], source_id=[None])
        with pytest.raises(DomainError):
            ScoreDataset(score=[0.0], origin=["mated"], feature_count=[4], pair_id=["x"], source_id=[None])

    # a string makes the whole column non-numeric, so row 0 is the first bad one
    @pytest.mark.parametrize("bad, row", [(7.5, 1), (float("nan"), 1), ("7", 0)])
    def test_feature_count_must_be_an_integer(self, bad, row):
        with pytest.raises(DomainError) as info:
            ScoreDataset(score=[0.0, 1.0], origin=["mated"] * 2, feature_count=[7, bad], pair_id=["x", "y"],
                         source_id=[None, None])
        assert info.value.payload["row"] == row
        with pytest.raises(DomainError):
            SynthConfig(feature_count=bad)
        for integral in ([7.0], np.array([7], dtype=np.int8), np.array([7.0], dtype=np.float32)):
            ds = ScoreDataset(score=[0.0], origin=["mated"], feature_count=integral, pair_id=["x"], source_id=[None])
            assert ds.feature_count.tolist() == [7]


class TestTailAudit:
    def test_expected_rates_from_reference(self):
        audit = TailAudit.from_model(REF, [0.0, 25.0, 50.0])
        assert audit.expected_per_100k == pytest.approx(
            (73.71214611347743, 7.519051308520374, 0.7649274126716934), rel=1e-12
        )
        assert audit.observed_count is None

    def test_observed_rates_from_counts(self):
        audit = TailAudit.from_counts([0.0, 25.0, 50.0], [35, 14, 3], 2694, model=REF)
        assert audit.observed_per_100k == pytest.approx(
            (1299.1833704528583, 519.6733481811433, 111.35857461024499), rel=1e-12
        )

    def test_counting_is_strictly_above(self):
        audit = tail_audit(REF, [0.0, 1.0, 2.0], [0.0])
        assert audit.observed_count == (2,)

    def test_counts_validated(self):
        with pytest.raises(DomainError):
            TailAudit.from_counts([0.0], [5], 4)
        with pytest.raises(DomainError):
            TailAudit.from_counts([0.0, 25.0], [1], 100)
        with pytest.raises(DomainError):
            tail_audit(REF, [], [0.0])

    @pytest.mark.parametrize("count", [35.7, math.nan, math.inf])
    def test_counts_must_be_finite_whole_numbers(self, count):
        with pytest.raises(DomainError, match="whole numbers"):
            TailAudit.from_counts([0.0, 25.0], [count, 14], 2694)
        assert TailAudit.from_counts([0.0], [35.0], 2694).observed_count == (35,)

    @pytest.mark.parametrize("total", [10.5, math.nan, math.inf, 0, -4.0])
    def test_total_must_be_a_finite_whole_number(self, total):
        # 10.5 once stored observed_total 10 beside a rate of 1 / 10.5; NaN once raised a bare ValueError
        with pytest.raises(DomainError, match="total must be a finite whole number"):
            TailAudit.from_counts([0.0], [1], total)

    def test_whole_float_total_is_stored_as_the_int_it_divides_by(self):
        audit = TailAudit.from_counts([0.0], [1], 10.0)
        assert (audit.observed_total, audit.observed_per_100k) == (10, (10_000.0,))
        assert type(audit.observed_total) is int


# One-component fits of a one-component logistic sample: the 1,000 refits of a
# 10-replicate bootstrap study stay cheap, and the family is right, so some
# held-out p-values sit in the body of the refit null, where they depend on
# how its draws are keyed (replicate 1 reads KS 0.267, AD 0.119).
_K1 = FitConfig(k=1, restarts=1)


def _logistic_scores():
    return mixture_sample(MixtureModel([1.0], [0.0], [1.0]), 400, seed=5)


@pytest.fixture(scope="module")
def bootstrap_study():
    return pvalue_study(_logistic_scores(), reps=10, fit_config=_K1, p_method="bootstrap", bootstrap_b=100,
                        seed=0)


class TestPValueStudy:
    def test_worker_invariance_and_determinism(self):
        data = generate_synthetic(SynthConfig(seed=0)).scores(origin="nonmated")
        a = pvalue_study(data, reps=10, seed=0, workers=1)
        b = pvalue_study(data, reps=10, seed=0, workers=3)
        for panel in ("ks_observed", "ad_observed", "ks_null", "ad_null"):
            assert getattr(a, panel).dtype == float and getattr(a, panel).shape == (10,)
            assert np.array_equal(getattr(a, panel), getattr(b, panel)), panel
        assert a.missing == b.missing == ()

    def test_input_validation(self):
        data = np.arange(99, dtype=float)
        with pytest.raises(DomainError):
            pvalue_study(data, reps=10)
        data = generate_synthetic(SynthConfig(seed=0)).scores(origin="nonmated")
        with pytest.raises(DomainError):
            pvalue_study(data, reps=9)
        with pytest.raises(DomainError):
            pvalue_study(data, reps=10, workers=0)
        for method in ("exact", "none", ("asymptotic", "asymptotic")):
            with pytest.raises(DomainError):
                pvalue_study(data, reps=10, p_method=method)

    def test_bad_sizes_rejected_before_any_fit(self, monkeypatch):
        def no_fit(*args):
            raise AssertionError("fit_mixture was called")

        monkeypatch.setattr("tailratio.experiments.fit_mixture", no_fit)
        data = _logistic_scores()
        with pytest.raises(DomainError, match="resample_n"):
            pvalue_study(data, reps=10, resample_n=0)
        with pytest.raises(DomainError, match="bootstrap size"):
            pvalue_study(data, reps=10, p_method="bootstrap", bootstrap_b=99)
        # the closed forms never read the bootstrap size, so it is not checked and the study goes on to fit
        with pytest.raises(AssertionError, match="fit_mixture was called"):
            pvalue_study(data, reps=10, bootstrap_b=99)

    # None is the default, which is the closed form
    @pytest.mark.parametrize("method", [None, "asymptotic", "bootstrap"])
    def test_panels_use_the_chosen_methods(self, method, bootstrap_study):
        # replicates 0 and 1 rebuilt by hand: the split, the fit, the null
        # draw, the held-out panels' bootstrap keyed (seed, r, 0), and the
        # null panels' closed forms, which every method uses
        data = _logistic_scores()
        if method == "bootstrap":
            study = bootstrap_study
        else:
            chosen = {} if method is None else {"p_method": method}
            study = pvalue_study(data, reps=10, fit_config=_K1, seed=0, bootstrap_b=100, **chosen)
        for rep in (0, 1):
            split = split_dataset(data, 0.75, (0, rep, SPLIT))
            model = fit_mixture(split.train, replace(_K1, seed=(0, rep))).model
            null_draw = mixture_sample(model, 1500, (0, rep, RESAMPLE))

            def closed_forms(sample):
                return (asymptotic_ks_pvalue(ks_statistic(sample, model), sample.size),
                        asymptotic_ad_pvalue(ad_statistic(sample, model), sample.size))

            if method == "bootstrap":
                observed = tuple(o.p_value for o in bootstrap_pvalue(split.test, model, 100, (0, rep, 0)))
            else:
                observed = closed_forms(split.test)
            expected = (*observed, *closed_forms(null_draw))
            assert tuple(getattr(study, panel)[rep] for panel in _PANELS) == expected, rep

    def test_failed_fits_are_missing_and_leave_the_rest(self, monkeypatch):
        data = generate_synthetic(SynthConfig(seed=0)).scores(origin="nonmated")
        full = pvalue_study(data, reps=10, seed=0)
        monkeypatch.setattr("tailratio.experiments.fit_mixture", fit_failing_on(2, 5))
        study = pvalue_study(data, reps=10, seed=0)
        assert study.missing == (2, 5)
        kept = [r for r in range(10) if r not in (2, 5)]
        for panel in _PANELS:
            assert np.array_equal(getattr(study, panel), getattr(full, panel)[kept]), panel
        monkeypatch.setattr("tailratio.experiments.fit_mixture", fit_failing_on(*range(10)))
        none = pvalue_study(data, reps=10, seed=0)
        assert none.missing == tuple(range(10))
        assert [getattr(none, panel).shape for panel in _PANELS] == [(0,)] * 4

    def test_failed_bootstrap_refit_makes_its_replicate_missing(self, monkeypatch, bootstrap_study):
        monkeypatch.setattr("tailratio.gof.fit_mixture", fit_failing_on(2, 5, at=-3))
        study = pvalue_study(_logistic_scores(), reps=10, fit_config=_K1, p_method="bootstrap", bootstrap_b=100,
                             seed=0)
        assert study.missing == (2, 5)
        kept = [r for r in range(10) if r not in (2, 5)]
        for panel in _PANELS:
            assert np.array_equal(getattr(study, panel), getattr(bootstrap_study, panel)[kept]), panel

    def test_result_panels_checked(self):
        ok = PValueStudyResult((0.5, 1.0), [0.0, 0.25], np.ones(2), np.zeros(2), reps=3, missing=(1,))
        assert ok.ks_observed.tolist() == [0.5, 1.0]
        with pytest.raises(DomainError):
            PValueStudyResult((0.5,), (0.5,), (0.5,), (0.5,), reps=3, missing=(1,))
        with pytest.raises(DomainError):
            PValueStudyResult(np.full((2, 1), 0.5), np.full(2, 0.5), np.full(2, 0.5), np.full(2, 0.5),
                              reps=2, missing=())
        for bad in (-0.1, 1.5, np.nan):
            with pytest.raises(DomainError):
                PValueStudyResult((0.5,), (0.5,), (bad,), (0.5,), reps=1, missing=())


_TOY_COLUMNS = ("scenario", "hypothesis", "rep", "true_lr", "frstat_like", "saturated")


class TestToyStudy:
    def test_layout_and_determinism(self):
        scenarios = default_toy_scenarios()
        study = toy_study(scenarios, 100, seed=0)
        assert len(study) == len(scenarios) * 2 * 100
        assert all(getattr(study, c).shape == (len(study),) for c in _TOY_COLUMNS)
        assert set(study.scenario.tolist()) == {"a", "b", "c"}
        # cells in scenario, then hypothesis order, reps in order within a cell
        assert study.scenario.tolist() == [s for s in "abc" for _ in range(200)]
        assert study.hypothesis.tolist() == [h for _ in "abc" for h in ("H0", "H1") for _ in range(100)]
        assert study.rep.tolist() == list(range(100)) * 6
        assert study.saturated.dtype == bool
        assert np.array_equal(study.saturated, ~(np.isfinite(study.true_lr) & np.isfinite(study.frstat_like)))
        again = toy_study(scenarios, 100, seed=0)
        for c in _TOY_COLUMNS:
            assert np.array_equal(getattr(study, c), getattr(again, c)), c

    def test_h1_alpha_does_not_underflow(self):
        # With the erf-based normal cdf, alpha underflows to 0 on 984 H1
        # draws (a: 0, b: 53, c: 931); ndtr keeps 281 of them positive
        # (a: 0, b: 53, c: 228), so only 703 ratios in (c) remain 0.
        study = toy_study(default_toy_scenarios(), 1000, seed=0)
        ratio = study.frstat_like
        h1 = {s: (study.hypothesis == "H1") & (study.scenario == s) for s in "abc"}
        zero = {s: int(np.sum(h1[s] & (ratio == 0.0))) for s in "abc"}
        positive = {s: int(np.sum(h1[s] & (0.0 < ratio) & (ratio < np.inf))) for s in "abc"}
        assert zero == {"a": 0, "b": 0, "c": 703}
        assert positive == {"a": 1000, "b": 1000, "c": 297}

    def test_direction_of_bias_scenario_a(self):
        # under H0 the tail ratio overstates, under H1 it understates
        sc_a = default_toy_scenarios()[0]
        study = toy_study([sc_a], 1000, seed=0)
        for hyp, expected in (("H0", 1.1499977012670493), ("H1", 0.2807734417822395)):
            keep = (study.hypothesis == hyp) & ~study.saturated & (study.true_lr > 0)
            med = float(np.median(study.frstat_like[keep] / study.true_lr[keep]))
            assert med == pytest.approx(expected, rel=1e-9)
        assert 1.0 < 1.1499977012670493       # H0 side overstates
        assert 0.2807734417822395 < 1.0       # H1 side understates

    # Shifting and scaling every scenario row draws the same standard normals,
    # so only rounding moves the columns.  The shift itself rounds x minus the
    # source mean by about |pop_mean| * 2e-16 / within_sd relative: at
    # (-100, 0.25) that reaches 1.05e-9 in scenario (c).  Values below the
    # smallest normal double (true LRs of H1 draws in (c)) keep fewer digits,
    # so they are compared in absolute terms.
    @pytest.mark.parametrize("pop_mean,between_sd", [(5.0, 3.0), (1000.0, 1000.0), (0.0, 0.001)])
    def test_location_scale_invariant(self, pop_mean, between_sd):
        base = toy_study(default_toy_scenarios(), 1000, seed=0)
        moved = [
            ToyScenario(pop_mean=pop_mean + between_sd * sc.pop_mean, between_sd=between_sd * sc.between_sd,
                        within_sd=between_sd * sc.within_sd, source_mean=pop_mean + between_sd * sc.source_mean)
            for sc in default_toy_scenarios()
        ]
        study = toy_study(moved, 1000, seed=0)
        assert np.array_equal(study.saturated, base.saturated)
        kept = ~base.saturated
        for column in ("true_lr", "frstat_like"):
            np.testing.assert_allclose(getattr(study, column)[kept], getattr(base, column)[kept],
                                       rtol=1e-9, atol=np.finfo(float).tiny, err_msg=column)

        def h1_median(s):
            keep = (s.scenario == "a") & (s.hypothesis == "H1") & ~s.saturated & (s.true_lr > 0.0)
            return float(np.median(s.frstat_like[keep] / s.true_lr[keep]))

        assert h1_median(study) == pytest.approx(h1_median(base), rel=1e-12)

    def test_tight_source_scenario_collapses_h1(self):
        # with within_sd at 1% of between_sd, a random-source draw almost
        # never lands near the source: both numbers underflow toward 0
        sc_c = default_toy_scenarios()[2]
        study = toy_study([sc_c], 100, seed=0)
        h1 = study.hypothesis == "H1"
        assert np.sum(study.true_lr[h1] == 0.0) > 50
        assert np.sum(study.frstat_like[h1] == 0.0) > 50
        assert np.all(study.true_lr[~h1] > 1.0)

    def test_rep_floor(self):
        with pytest.raises(DomainError):
            toy_study(default_toy_scenarios(), 99, seed=0)


class TestToyGaussian:
    def test_specific_source_lr_peak_ratio(self):
        sc = ToyScenario(pop_mean=-2.0, between_sd=4.0, within_sd=3.0, source_mean=2.0)
        # at the source mean: N(2, 3) peak density over the N(-2, 5) density
        peak = 1.0 / (3.0 * math.sqrt(2 * math.pi))
        random_source = math.exp(-0.5 * (4.0 / 5.0) ** 2) / (5.0 * math.sqrt(2 * math.pi))
        assert specific_source_lr(sc, 2.0) == pytest.approx(peak / random_source, rel=1e-12)
        assert isinstance(specific_source_lr(sc, 2.0), float)

    def test_deep_tail_alpha(self):
        sc = default_toy_scenarios()[0]
        w = sc.within_sd

        def alpha(s: float) -> float:
            return float(_toy_tails(sc, np.array(s))[0])

        assert alpha(0.0) == pytest.approx(1.0, rel=1e-12)
        assert alpha(-1.959963984540054 * w) == pytest.approx(0.05, abs=2e-9)
        # 0.5 * (1 + erf(z / sqrt 2)) is exactly 0 below z = -8.3
        assert alpha(-9.0 * w) == pytest.approx(2 * 1.1285884059538408e-19, rel=1e-12)
        assert alpha(-30.0 * w) > 0.0

    def test_one_sided_beta_keeps_its_digits(self):
        # A source 9 total sds above the population mean: the non-mated tails
        # here are 3.0e-20, 9.7e-18, 4.14e-16 and 4.1709e-13, and the
        # difference of two normal cdfs near 1, ndtr(upper) - ndtr(lower),
        # reads 0, 0, 4.4e-16 and 4.1711e-13.  Mirrored into the left tail,
        # where each cdf keeps its digits, the same probability is
        # ndtr(-lower) - ndtr(-upper).
        sc = ToyScenario(pop_mean=0.0, between_sd=1.0, within_sd=0.5, source_mean=10.0)
        s = -np.array([0.01, 0.5, 1.0, 2.0])
        upper = (sc.source_mean - s - sc.pop_mean) / sc.total_sd
        lower = (sc.source_mean + s - sc.pop_mean) / sc.total_sd
        np.testing.assert_allclose(_toy_tails(sc, s)[1], ndtr(-lower) - ndtr(-upper), rtol=1e-12)

    @pytest.mark.parametrize("s", [-1e-8, -1e-5, -1e-3])
    def test_narrow_beta_keeps_its_digits(self, s):
        # The interval's width enters as itself, not as the difference of its
        # ends, so a tiny |s| keeps beta's digits.  The reference is the series
        # 2 h phi(c) (1 + (c^2 - 1) h^2 / 6), whose next term is h^4 smaller;
        # the ends' difference was off by 1.1e-8 at s = -1e-8.
        sc = default_toy_scenarios()[1]
        c = (sc.source_mean - sc.pop_mean) / sc.total_sd
        h = -s / sc.total_sd
        series = 2.0 * h * np.exp(-0.5 * c * c) / np.sqrt(2.0 * np.pi) * (1.0 + (c * c - 1.0) * h * h / 6.0)
        assert _toy_tails(sc, np.array([s]))[1][0] == pytest.approx(series, rel=1e-13, abs=0.0)

    def test_sds_checked(self):
        with pytest.raises(DomainError):
            ToyScenario(pop_mean=0.0, between_sd=1.0, within_sd=-0.5, source_mean=0.0)
        with pytest.raises(DomainError):
            ToyScenario(pop_mean=float("nan"), between_sd=1.0, within_sd=0.5, source_mean=0.0)
        point_mass = ToyScenario(pop_mean=0.0, between_sd=1.0, within_sd=0.0, source_mean=0.0)
        with pytest.raises(DomainError):
            specific_source_lr(point_mass, 0.0)

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf")])
    def test_specific_source_lr_rejects_nonfinite_x(self, x):
        sc = default_toy_scenarios()[0]
        with pytest.raises(DomainError):
            specific_source_lr(sc, x)
        with pytest.raises(DomainError):
            specific_source_lr(sc, np.array([0.0, x]))


class TestThresholds:
    def test_hand_built_rates(self):
        ratios = [0.5, 10.0, 200.0]   # the tie at 10 counts toward identification
        excl, err = threshold_study(ratios, [14, 14, 14], thresholds=[1.0, 10.0, 100.0])
        assert excl.get(14, 1.0) == pytest.approx(1 / 3)
        assert excl.get(14, 10.0) == pytest.approx(1 / 3)
        assert excl.get(14, 100.0) == pytest.approx(2 / 3)
        assert err.get(14, 10.0) == pytest.approx(2 / 3)
        assert excl.pair_counts == (3,)

    def test_rows_sorted_by_feature_count(self):
        excl, _ = threshold_study([5.0, 5.0, 5.0], [15, 5, 10], thresholds=[1.0])
        assert excl.feature_counts == (5, 10, 15)

    def test_infinite_ratio_always_identified(self):
        _, err = threshold_study([float("inf")], [14], thresholds=[100_000.0])
        assert err.get(14, 100_000.0) == 1.0

    def test_rates_are_a_float_table(self):
        excl, err = threshold_study([0.5, 10.0, 200.0, 3.0], [14, 14, 14, 5], thresholds=[100.0, 1.0, 10.0])
        assert excl.thresholds == (1.0, 10.0, 100.0)
        assert excl.rates.shape == err.rates.shape == (2, 3)
        assert excl.rates.tolist() == [[0.0, 1.0, 1.0], [1 / 3, 1 / 3, 2 / 3]]
        assert type(excl.get(5, 10.0)) is float
        with pytest.raises(DomainError):
            excl.get(5, 1000.0)

    def test_needs_nonmated_records(self):
        with pytest.raises(DomainError):
            threshold_study([], [], thresholds=[1.0])

    @pytest.mark.parametrize(
        "ratios, feature_counts",
        [([float("nan")], [14]), ([-1.0], [14]), ([1.0, 2.0], [14]), ([1.0], [4])],
        ids=["nan", "negative", "lengths", "feature-count"],
    )
    def test_bad_input_rejected(self, ratios, feature_counts):
        with pytest.raises(DomainError):
            threshold_study(ratios, feature_counts, thresholds=[1.0])

    @pytest.mark.parametrize("bad", [7.5, float("nan")])
    def test_feature_count_must_be_an_integer(self, bad):
        with pytest.raises(DomainError):
            threshold_study([2.0, 3.0], [7, bad], thresholds=[1.0])
        excl, _ = threshold_study([2.0, 3.0], np.array([7.0, 7.0]), thresholds=[1.0])
        assert excl.feature_counts == (7,)

    def test_nan_threshold_rejected(self):
        with pytest.raises(DomainError):
            threshold_study([1.0], [14], thresholds=[1.0, float("nan")])


@given(
    rows=st.lists(
        st.tuples(
            st.one_of(st.sampled_from([0.0, 1.0, 10.0, 100.0, float("inf")]), st.floats(0.0, 1e6)),
            st.integers(5, 15),
        ),
        min_size=1,
        max_size=60,
    ),
    thresholds=st.lists(st.one_of(st.sampled_from([1.0, 10.0, 100.0, float("inf")]), st.floats(0.0, 1e6)),
                        min_size=1, max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_threshold_rates_match_per_cell_means_bit_for_bit(rows, thresholds):
    # ties at the thresholds and +inf ratios included
    ratio = np.array([r for r, _ in rows])
    fc = np.array([f for _, f in rows])
    excl, err = threshold_study(ratio, fc, thresholds)
    cols = sorted(thresholds)
    for i, f in enumerate(sorted(set(fc.tolist()))):
        row = ratio[fc == f]
        assert excl.rates[i].tolist() == [float(np.mean(row < t)) for t in cols]
        assert err.rates[i].tolist() == [float(np.mean(row >= t)) for t in cols]
        assert excl.pair_counts[i] == row.size


class TestFixtureCheck:
    @staticmethod
    def _pair(rate: float):
        excl = ThresholdTable("correct_exclusion", (14,), (10.0,), ((rate,),), (100,))
        err = ThresholdTable("erroneous_identification", (14,), (10.0,), ((1.0 - rate,),), (100,))
        return excl, err

    def test_complementary_pair_passes(self):
        excl, err = self._pair(0.94)
        assert table_fixture_check(excl, err) == ()

    def test_violation_reported_with_deviation(self):
        excl = ThresholdTable("correct_exclusion", (14,), (10.0,), ((0.94,),), (100,))
        err = ThresholdTable("erroneous_identification", (14,), (10.0,), ((0.05,),), (100,))
        violations = table_fixture_check(excl, err)
        assert len(violations) == 1
        assert violations[0].feature_count == 14
        assert violations[0].deviation == pytest.approx(0.01)

    def test_table_shape_and_range_checked(self):
        with pytest.raises(DomainError):
            ThresholdTable("correct_exclusion", (14, 15), (10.0,), ((0.9, 0.8),), (100, 100))
        with pytest.raises(DomainError):
            ThresholdTable("correct_exclusion", (14,), (10.0,), ((0.9,),), (100, 100))
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(DomainError):
                ThresholdTable("correct_exclusion", (14,), (10.0,), ((bad,),), (100,))

    def test_violations_in_row_major_order(self):
        excl = ThresholdTable("correct_exclusion", (5, 14), (1.0, 10.0), ((0.5, 0.9), (0.2, 0.94)), (9, 9))
        err = ThresholdTable("erroneous_identification", (5, 14), (1.0, 10.0), ((0.4, 0.1), (0.9, 0.05)), (9, 9))
        violations = table_fixture_check(excl, err)
        assert [(v.feature_count, v.threshold) for v in violations] == [(5, 1.0), (14, 1.0), (14, 10.0)]
        assert all(type(x) in (int, float) for v in violations for x in vars(v).values())

    def test_misaligned_tables_rejected(self):
        excl = ThresholdTable("correct_exclusion", (14,), (10.0,), ((0.94,),), (100,))
        err = ThresholdTable("erroneous_identification", (15,), (10.0,), ((0.06,),), (100,))
        with pytest.raises(DomainError):
            table_fixture_check(excl, err)

    def test_default_mated_model_shape(self):
        assert DEFAULT_MATED_MODEL.k == 1
        assert DEFAULT_MATED_MODEL.locations[0] == pytest.approx(15.0)
