"""Experiment layer: synthesis, tail audits, studies, threshold tables."""
from __future__ import annotations

import numpy as np
import pytest

from tailratio import (
    DEFAULT_MATED_MODEL,
    DomainError,
    REFERENCE_NONMATED_MODEL,
    ScoreDataset,
    SynthConfig,
    TailAudit,
    ThresholdTable,
    default_toy_scenarios,
    generate_synthetic,
    pvalue_study,
    table_fixture_check,
    tail_audit,
    threshold_study,
    toy_study,
)

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


class TestPValueStudy:
    def test_worker_invariance_and_determinism(self):
        data = generate_synthetic(SynthConfig(seed=0)).scores(origin="nonmated")
        a = pvalue_study(data, reps=10, seed=0, workers=1)
        b = pvalue_study(data, reps=10, seed=0, workers=3)
        assert a.ks_observed == b.ks_observed
        assert a.ad_observed == b.ad_observed
        assert a.ks_null == b.ks_null
        assert a.ad_null == b.ad_null
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


class TestToyStudy:
    def test_layout_and_determinism(self):
        scenarios = default_toy_scenarios()
        records = toy_study(scenarios, 100, seed=0)
        assert len(records) == len(scenarios) * 2 * 100
        labels = {r.scenario for r in records}
        assert labels == {"a", "b", "c"}
        again = toy_study(scenarios, 100, seed=0)
        assert records == again

    def test_h1_alpha_does_not_underflow(self):
        # With the erf-based normal cdf, alpha underflowed to 0 on 985 H1
        # draws (a: 1, b: 61, c: 923); ndtr keeps 275 of them positive
        # (a: 1, b: 61, c: 213), so only 710 ratios in (c) remain 0.
        records = toy_study(default_toy_scenarios(), 1000, seed=0)
        h1 = [r for r in records if r.hypothesis == "H1"]
        zero = {s: sum(r.frstat_like == 0.0 for r in h1 if r.scenario == s) for s in "abc"}
        positive = {s: sum(0.0 < r.frstat_like < np.inf for r in h1 if r.scenario == s) for s in "abc"}
        assert zero == {"a": 0, "b": 0, "c": 710}
        assert positive == {"a": 1000, "b": 1000, "c": 290}

    def test_direction_of_bias_scenario_a(self):
        # under H0 the tail ratio overstates, under H1 it understates
        sc_a = default_toy_scenarios()[0]
        records = toy_study([sc_a], 1000, seed=0)
        for hyp, expected in (("H0", 1.1637148811970921), ("H1", 0.2610793681080236)):
            vals = [
                r.frstat_like / r.true_lr
                for r in records
                if r.hypothesis == hyp and not r.saturated and r.true_lr > 0
            ]
            med = float(np.median(vals))
            assert med == pytest.approx(expected, rel=1e-9)
        assert 1.0 < 1.1637148811970921       # H0 side overstates
        assert 0.2610793681080236 < 1.0       # H1 side understates

    def test_tight_source_scenario_collapses_h1(self):
        # with within_sd at 1% of between_sd, a random-source draw almost
        # never lands near the source: both numbers underflow toward 0
        sc_c = default_toy_scenarios()[2]
        records = toy_study([sc_c], 100, seed=0)
        h1 = [r for r in records if r.hypothesis == "H1"]
        assert sum(r.true_lr == 0.0 for r in h1) > 50
        assert sum(r.frstat_like == 0.0 for r in h1) > 50
        h0 = [r for r in records if r.hypothesis == "H0"]
        assert all(r.true_lr > 1.0 for r in h0)

    def test_rep_floor(self):
        with pytest.raises(DomainError):
            toy_study(default_toy_scenarios(), 99, seed=0)


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

    def test_misaligned_tables_rejected(self):
        excl = ThresholdTable("correct_exclusion", (14,), (10.0,), ((0.94,),), (100,))
        err = ThresholdTable("erroneous_identification", (15,), (10.0,), ((0.06,),), (100,))
        with pytest.raises(DomainError):
            table_fixture_check(excl, err)

    def test_default_mated_model_shape(self):
        assert DEFAULT_MATED_MODEL.k == 1
        assert DEFAULT_MATED_MODEL.locations[0] == pytest.approx(15.0)
