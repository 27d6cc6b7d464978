"""Formats layer: score CSVs, model JSONs, fixture tables, packaged data."""
from __future__ import annotations

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailratio import (
    DataFormatError,
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

from strategies import MIXTURES, same_model

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

    def test_wrong_cell_count_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# seed=0\nscore,origin,feature_count,pair_id\n1.0,mated,15,p0\n2.0,mated,15\n")
        with pytest.raises(DataFormatError, match="expected 4 cells, got 3") as exc_info:
            load_scores(path)
        assert exc_info.value.line == 4

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("\n# seed=0\n\nscore,origin,feature_count,pair_id\n\n1.0,mated,15,p0\n\n\n2.0,nonmated,15,p1\n")
        ds = load_scores(path)
        assert ds.score.tolist() == [1.0, 2.0]
        assert ds.pair_id.tolist() == ["p0", "p1"]

    def test_metadata_only_file_has_no_header(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("# seed=0\n# config_digest=abc\n\n")
        with pytest.raises(DataFormatError, match="no header"):
            load_scores(path)

    def test_meta_lines_must_precede_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "score,origin,feature_count,pair_id\n"
            "# seed=0\n"
            "1.0,mated,15,p0\n"
        )
        with pytest.raises(DataFormatError):
            load_scores(path)

    @pytest.mark.parametrize("loader", [load_scores, load_model], ids=["scores", "model"])
    def test_non_utf8_file_is_format_error(self, tmp_path, loader):
        path = tmp_path / "bad"
        path.write_bytes(b"score,origin,feature_count,pair_id\n\xff\n")
        with pytest.raises(DataFormatError, match="not UTF-8"):
            loader(path)

    def test_missing_file_raises_package_error(self, tmp_path):
        with pytest.raises((DataFormatError, OSError)):
            load_scores(tmp_path / "absent.csv")


class TestModelRoundTrip:
    def test_round_trip_preserves_parameters(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(REF, path, provenance="test")
        mf = load_model(path)
        assert same_model(mf.model, REF)
        assert mf.provenance == "test"

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

    @pytest.mark.parametrize(
        "text,message",
        [
            pytest.param('{"version": 1, "components": [', "invalid JSON", id="invalid JSON"),
            pytest.param('[{"weight": 1.0, "location": 0.0, "scale": 1.0}]', "not a model file", id="not an object"),
            pytest.param('{"version": 1, "components": []}', "no components", id="no components"),
        ],
    )
    def test_malformed_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=message):
            load_model(path)

    def test_bad_weights_rejected_on_load(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(REF, path)
        obj = json.loads(path.read_text())
        obj["components"][0]["weight"] = 0.7
        path.write_text(json.dumps(obj))
        with pytest.raises(ModelError):
            load_model(path)

    @pytest.mark.parametrize(
        "component",
        [
            pytest.param({"weight": 1.0, "location": 0.0}, id="missing scale"),
            pytest.param({"weight": 1.0, "location": "abc", "scale": 1.0}, id="non-numeric location"),
            pytest.param([1.0], id="not an object"),
            pytest.param({"weight": True, "location": 0.0, "scale": 1.0}, id="boolean weight"),
            pytest.param({"weight": 1.0, "location": "-60", "scale": 1.0}, id="numeric-string location"),
            pytest.param({"weight": 1.0, "location": 0.0, "scale": "1e1"}, id="numeric-string scale"),
            pytest.param({"weight": 1, "location": 0, "scale": 10**400}, id="integer beyond double range"),
        ],
    )
    def test_malformed_component_rejected(self, tmp_path, component):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": 1, "components": [component]}))
        with pytest.raises(DataFormatError, match="numeric weight, location and scale"):
            load_model(path)


@given(
    MIXTURES,
    st.sampled_from((None, "mated", "nonmated")),
    st.one_of(st.none(), st.integers(5, 15)),
    st.text(max_size=20),
)
@settings(max_examples=100, deadline=None)
def test_model_save_load_round_trip_property(model, origin, feature_count, provenance):
    model = replace(model, origin=origin, feature_count=feature_count)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        save_model(model, path, provenance=provenance)
        mf = load_model(path)
    assert same_model(mf.model, model)
    assert mf.provenance == provenance


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
        # the published table as a tail audit of its printed rates
        fx = load_table1_fixture(packaged_data_path("table1.csv"))
        assert fx.cutpoints == (0.0, 25.0, 50.0)
        assert fx.expected_per_100k == (73.0, 7.0, 0.7)
        assert fx.observed_count == (35, 14, 3)
        assert fx.observed_total == 2694
        assert fx.observed_per_100k == (1300.0, 519.0, 111.0)

    def test_summary_fixture(self):
        row = load_table4_summary(packaged_data_path("table4_summary.csv"))
        assert row["feature_count"] == 14
        assert row["cross_comparisons"] == 500
        assert row["rate_below_100"] == pytest.approx(0.994)


class TestPackagedData:
    def test_packaged_reference_model_parameters(self):
        mf = load_model(packaged_data_path("nonmated_15.json"))
        assert same_model(mf.model, REF)
        assert mf.model.origin == "nonmated"
        assert mf.model.feature_count == 15

    def test_reference_weights_and_locations(self):
        assert REF.weights.tolist() == [0.8, 0.2]
        assert REF.locations.tolist() == [-83.75, -61.25]
        assert REF.scales.tolist() == [5.625, 10.9375]
