"""Formats layer: score CSVs, model JSONs, fixture tables, packaged data."""
from __future__ import annotations

import json

import numpy as np
import pytest

from tailratio import (
    DataFormatError,
    MixtureModel,
    ModelError,
    REFERENCE_NONMATED_MODEL,
    ScoreDataset,
    SynthConfig,
    generate_synthetic,
    load_model,
    load_scores,
    load_threshold_table,
    packaged_data_path,
    save_model,
    save_scores,
)
from tailratio.io import (
    build_meta,
    config_digest,
    format_value,
    load_table1_fixture,
    load_table4_summary,
)

REF = REFERENCE_NONMATED_MODEL


class TestValues:
    def test_format_value_round_trippable(self):
        assert format_value(0.1) == "0.1"
        assert float(format_value(1299.1833704528583)) == 1299.1833704528583
        assert format_value(None) == ""
        assert format_value(True) == "true"
        assert format_value(3) == "3"

    def test_config_digest_stable_and_order_free(self):
        a = config_digest({"x": 1, "y": "z"})
        b = config_digest({"y": "z", "x": 1})
        assert a == b
        assert len(a) == 12
        assert a != config_digest({"x": 2, "y": "z"})

    def test_build_meta_keys(self):
        meta = build_meta(7, {"a": 1}, extra={"rows": 3})
        assert meta["seed"] == 7
        assert meta["tool_version"]
        assert meta["rows"] == 3


class TestScoresRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        ds = generate_synthetic(SynthConfig(n_mated=30, n_nonmated=30, seed=0))
        path = tmp_path / "scores.csv"
        save_scores(ds, path, meta={"seed": 0})
        back = load_scores(path)
        for column in ("score", "origin", "feature_count", "pair_id", "source_id"):
            assert np.array_equal(getattr(back, column), getattr(ds, column))

    def test_header_is_pinned(self, tmp_path):
        ds = ScoreDataset(score=[1.5], origin=["mated"], feature_count=[15], pair_id=["p0"], source_id=["s0"])
        path = tmp_path / "s.csv"
        save_scores(ds, path)
        lines = path.read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "score,origin,feature_count,pair_id,source_id"

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score,origin,feature_count\n1.0,mated,15\n")
        with pytest.raises(DataFormatError):
            load_scores(path)

    def test_bad_row_reports_line_number(self, tmp_path):
        # one case per row rule; each bad row is followed by a good one and by
        # an unparsable one, so only the first bad line may be reported.  The
        # last two open a quote that their own line never closes.
        bad_rows = ("oops,mated,15,p1", "nan,mated,15,p1", "1.0,other,15,p1",
                    "1.0,mated,4,p1", "1.0,mated,15,", '"1.0,mated,15,p1', '1.0,mated,15,"p1')
        for bad in bad_rows:
            path = tmp_path / "bad.csv"
            path.write_text(
                "score,origin,feature_count,pair_id\n"
                "1.0,mated,15,p0\n"
                f"{bad}\n"
                "2.0,nonmated,15,p2\n"
                "oops,mated,15,p3\n"
            )
            with pytest.raises(DataFormatError) as exc_info:
                load_scores(path)
            assert exc_info.value.line == 3, bad

    def test_meta_lines_must_precede_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "score,origin,feature_count,pair_id\n"
            "# seed=0\n"
            "1.0,mated,15,p0\n"
        )
        with pytest.raises(DataFormatError):
            load_scores(path)

    def test_missing_file_raises_package_error(self, tmp_path):
        with pytest.raises((DataFormatError, OSError)):
            load_scores(tmp_path / "absent.csv")


class TestModelRoundTrip:
    def test_round_trip_preserves_parameters(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(REF, path, provenance="test")
        mf = load_model(path)
        assert mf.model == REF
        assert mf.provenance == "test"
        assert mf.version == 1

    def test_json_key_order_fixed(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(REF, path, provenance="p")
        obj = json.loads(path.read_text())
        assert list(obj.keys()) == ["version", "origin", "feature_count", "components", "provenance"]

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(REF, path)
        obj = json.loads(path.read_text())
        obj["version"] = 2
        path.write_text(json.dumps(obj))
        with pytest.raises(DataFormatError):
            load_model(path)

    def test_bad_weights_rejected_on_load(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(REF, path)
        obj = json.loads(path.read_text())
        obj["components"][0]["weight"] = 0.7
        path.write_text(json.dumps(obj))
        with pytest.raises(ModelError):
            load_model(path)


class TestFixtureTables:
    def test_threshold_tables_load_with_expected_shape(self):
        excl = load_threshold_table(packaged_data_path("table5a_exclusion.csv"), "correct_exclusion")
        assert excl.feature_counts == tuple(range(5, 16))
        assert excl.thresholds == (1.0, 10.0, 100.0, 1000.0, 10_000.0, 100_000.0)
        assert excl.get(15, 10_000.0) == pytest.approx(0.940)

    def test_percent_flag_rescales(self):
        err = load_threshold_table(
            packaged_data_path("table5a_error.csv"), "erroneous_identification", percent=True
        )
        assert err.get(15, 10_000.0) == pytest.approx(0.060)
        assert err.get(5, 1.0) == pytest.approx(0.434)

    def test_tail_fixture_rows(self):
        fx = load_table1_fixture(packaged_data_path("table1.csv"))
        assert fx.cutpoints == (0.0, 25.0, 50.0)
        assert fx.printed_expected_per_100k == (73.0, 7.0, 0.7)
        assert fx.observed_counts == (35, 14, 3)
        assert fx.observed_total == 2694
        assert fx.printed_observed_per_100k == (1300.0, 519.0, 111.0)

    def test_summary_fixture(self):
        row = load_table4_summary(packaged_data_path("table4_summary.csv"))
        assert row["feature_count"] == 14
        assert row["cross_comparisons"] == 500
        assert row["rate_below_100"] == pytest.approx(0.994)


class TestPackagedData:
    def test_packaged_reference_model_parameters(self):
        mf = load_model(packaged_data_path("nonmated_15.json"))
        assert mf.model == REF
        assert mf.model.origin == "nonmated"
        assert mf.model.feature_count == 15

    def test_reference_weights_and_locations(self):
        assert REF.weights.tolist() == [0.8, 0.2]
        assert REF.locations.tolist() == [-83.75, -61.25]
        assert REF.scales.tolist() == [5.625, 10.9375]
