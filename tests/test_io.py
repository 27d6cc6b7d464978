"""Formats layer: score CSVs, model JSONs, fixture tables, packaged data."""
from __future__ import annotations

import gc
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailratio.io
from tailratio import (
    DataFormatError,
    DomainError,
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

    def test_bad_header_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# seed=0\n\nscore,origin,feature_count\n1.0,mated,15\n")
        with pytest.raises(DataFormatError, match="unexpected header") as exc_info:
            load_scores(path)
        assert exc_info.value.line == 3

    def test_bad_record_message_names_no_row_index(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score,origin,feature_count,pair_id\n1.0,mated,15,p0\n2.0,mated,16,p1\n")
        with pytest.raises(DataFormatError) as exc_info:
            load_scores(path)
        assert str(exc_info.value) == "bad record: feature_count must be an integer in [5, 15], got 16"
        assert exc_info.value.line == 3

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
        with pytest.raises(DataFormatError, match="metadata lines must precede the header") as exc_info:
            load_scores(path)
        assert exc_info.value.line == 2

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(
            b"# seed=0\r\n\r\nscore,origin,feature_count,pair_id\r\n1.5,mated,15,p0\r\n\r\n-2.0,nonmated,5,p1\r\n"
        )
        ds = load_scores(path)
        assert ds.score.tolist() == [1.5, -2.0]
        assert ds.feature_count.tolist() == [15, 5]
        assert ds.pair_id.tolist() == ["p0", "p1"]

    @pytest.mark.parametrize("end", ["\n", ""], ids=["newline", "no newline"])
    def test_quote_left_open_on_the_last_line(self, tmp_path, end):
        path = tmp_path / "bad.csv"
        path.write_text(f'score,origin,feature_count,pair_id\n1.0,mated,15,p0\n2.0,mated,15,"p1{end}')
        with pytest.raises(DataFormatError, match="unbalanced quote") as exc_info:
            load_scores(path)
        assert exc_info.value.line == 3

    def test_whitespace_only_line_is_a_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score,origin,feature_count,pair_id\n1.0,mated,15,p0\n \n2.0,mated,15,p1\n")
        with pytest.raises(DataFormatError, match="expected 4 cells, got 1") as exc_info:
            load_scores(path)
        assert exc_info.value.line == 3

    @pytest.mark.parametrize(
        "row",
        [
            pytest.param("1_0,mated,15,p1", id="underscore in score"),
            pytest.param("\u0661\u0660,mated,15,p1", id="Arabic-Indic score"),
            pytest.param("1.0,mated,1_5,p1", id="underscore in feature count"),
        ],
    )
    def test_numbers_are_plain_decimals(self, tmp_path, row):
        # float() and int() accept these; the score format does not
        path = tmp_path / "bad.csv"
        path.write_text(f"score,origin,feature_count,pair_id\n1.0,mated,15,p0\n{row}\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="is not a decimal") as exc_info:
            load_scores(path)
        assert exc_info.value.line == 3

    def test_hard_decimal_strings_parse_as_float_does(self, tmp_path):
        path = tmp_path / "s.csv"
        body = "".join(f"{text},nonmated,15,p{i}\n" for i, text in enumerate(_HARD_DECIMALS))
        path.write_text("score,origin,feature_count,pair_id\n" + body)
        got = load_scores(path).score
        want = np.array([float(text) for text in _HARD_DECIMALS])
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("loader", [load_scores, load_model], ids=["scores", "model"])
    def test_non_utf8_file_is_format_error(self, tmp_path, loader):
        path = tmp_path / "bad"
        path.write_bytes(b"score,origin,feature_count,pair_id\n\xff\n")
        with pytest.raises(DataFormatError, match="not UTF-8"):
            loader(path)

    def test_missing_file_raises_package_error(self, tmp_path):
        with pytest.raises((DataFormatError, OSError)):
            load_scores(tmp_path / "absent.csv")


# Decimal strings whose nearest double is easy to get wrong: halfway cases
# between neighbouring doubles (1 + 2**-53, 2**53 + 1), the subnormal range and
# its edges, underflow to zero, the largest finite double, long mantissas, and
# the shortest repr of awkward values.
_HARD_DECIMALS = (
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203126",
    "1.0000000000000002220446049250313080847263336181640625",
    "9007199254740993", "9007199254740995", "-9007199254740993.0000000000000000000001",
    "2.2250738585072011e-308", "2.2250738585072012e-308", "2.225073858507201e-308",
    "4.9406564584124654e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
    "1e-320", "-5e-324", "1e-400", "-1e-400", "-0.0", "0e999",
    "1.7976931348623157e308", "1.7976931348623158e308", "-1.797693134862315807e308",
    "1234567890123456789012345", "0.1234567890123456789012345", "1234567890123456.789012345e-5",
    "0.3000000000000000444089209850062616169452667236328125", "0.1", "1e23", "8.589973e9",
    "5e-1", ".5", "5.", "+7.25", "1E5", repr(0.1 + 0.2), repr(-83.75 / 3.0), repr(2.0**-1074 * 3),
)


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

    def test_numpy_integer_feature_count_round_trips(self, tmp_path):
        # the type a dataset's feature_count column holds
        feature_count = generate_synthetic(SynthConfig(n_mated=10, n_nonmated=10)).feature_count[0]
        assert isinstance(feature_count, np.integer)
        path = tmp_path / "m.json"
        save_model(replace(REF, feature_count=feature_count), path)
        loaded = load_model(path).model
        assert type(loaded.feature_count) is int and loaded.feature_count == feature_count

    def test_integral_float_feature_count_is_stored_as_an_int(self, tmp_path):
        model = replace(REF, feature_count=15.0)
        assert type(model.feature_count) is int
        path = tmp_path / "m.json"
        save_model(model, path)
        assert '"feature_count": 15,' in path.read_text()

    def test_model_that_cannot_be_written_leaves_no_file(self, tmp_path):
        path = tmp_path / "m.json"
        with pytest.raises(TypeError):
            save_model(REF, path, provenance={"not", "json"})
        assert not path.exists()

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


# Cell text that a CSV writer must quote or that a reader could mangle:
# commas, quotes, leading and trailing spaces, non-ASCII, and line breaks,
# which `save_scores` refuses since a record must end on its own line.
_CELL_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(',"\' \t#;é\u4e2d\U0001f600\u00a0\u2028\x0b\r\n'),
        st.characters(exclude_categories=("Cs",)),
    ),
    min_size=1,
    max_size=12,
)


@given(
    rows=st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from(("mated", "nonmated")),
            st.integers(5, 15),
            _CELL_TEXT,
            st.one_of(st.none(), st.just(""), _CELL_TEXT),
        ),
        max_size=20,
    ),
    meta=st.dictionaries(st.sampled_from(("seed", "config_digest", "note")), st.integers(0, 10**6), max_size=3),
    blank_after=st.lists(st.integers(0, 25), max_size=4),
    crlf=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_scores_save_load_round_trip_property(rows, meta, blank_after, crlf):
    # a dataset with a line break in an id is refused at its first such row,
    # and the rows without one round-trip; an empty source id is None in the
    # dataset, so it comes back as None
    def dataset(rows):
        return ScoreDataset(*(list(column) for column in zip(*rows)) if rows else ([],) * 5)

    breaks = [row for row, (*_, pair_id, source_id) in enumerate(rows)
              if {"\r", "\n"} & set(pair_id + (source_id or ""))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.csv"
        if breaks:
            with pytest.raises(DomainError, match="holds a line break") as info:
                save_scores(dataset(rows), path, meta=meta)
            assert info.value.payload["row"] == breaks[0]
            assert not path.exists()
        ds = dataset([row for i, row in enumerate(rows) if i not in breaks])
        save_scores(ds, path, meta=meta)
        lines = path.read_text(encoding="utf-8").split("\n")
        for at in sorted(blank_after, reverse=True):
            lines.insert(min(at, len(lines) - 1), "")
        path.write_bytes(("\r\n" if crlf else "\n").join(lines).encode("utf-8"))
        back = load_scores(path)
    assert back.score.view(np.uint64).tolist() == ds.score.view(np.uint64).tolist()
    for column in ("origin", "feature_count", "pair_id", "source_id"):
        assert getattr(back, column).tolist() == getattr(ds, column).tolist(), column


_HEADER = "score,origin,feature_count,pair_id\n"


def _sixteen(i: int) -> str:
    """A valid score row of exactly 16 characters with its newline."""
    return f"1.0,mated,15,p{i % 10}\n"


def _failure(load, path) -> DataFormatError:
    """The DataFormatError that loading `path` raises."""
    try:
        load(path)
    except DataFormatError as exc:
        return exc
    raise AssertionError(f"{path} loaded")


def _load_sixteens(tmp_path, edits: dict[int, str]) -> tuple[str, int]:
    """Message and line of the error in a file of 16-character rows on lines 2-20, `edits` by line number."""
    path = tmp_path / "bad.csv"
    path.write_text(_HEADER + "".join(edits.get(n, _sixteen(n)) for n in range(2, 21)))
    exc = _failure(load_scores, path)
    return str(exc), exc.line


class TestBlocks:
    """A score file read 64 characters at a time: five 16-character rows a block.

    A block ends on the line that takes it past 64 characters.  The header
    is line 1, so blocks hold lines 2-6, 7-11, 12-16 and 17-20.
    """

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(tailratio.io, "_BLOCK_CHARS", 64)

    def test_round_trip_property(self):
        test_scores_save_load_round_trip_property()

    @pytest.mark.parametrize("bad_line", [7, 11, 12, 16])
    def test_bad_line_at_a_block_edge(self, tmp_path, bad_line):
        got = _load_sixteens(tmp_path, {bad_line: "oop,mated,15,p0\n"})
        assert got == ("bad record: score 'oop' is not a decimal float", bad_line)

    def test_bad_value_in_block_one_before_syntax_error_in_block_three(self, tmp_path):
        got = _load_sixteens(tmp_path, {3: "1.0,mated,16,p1\n", 13: "1.0,mated,15\n"})
        assert got == ("bad record: feature_count must be an integer in [5, 15], got 16", 3)

    def test_quote_opened_on_a_blocks_last_line(self, tmp_path):
        got = _load_sixteens(tmp_path, {11: '1.0,mated,15,"p\n'})
        assert got == ("unbalanced quote: record runs past the end of its line", 11)

    def test_crlf_and_blank_runs_across_edges(self, tmp_path):
        # seventeen-character CRLF rows, with runs of blank lines that end
        # some blocks and begin others; the last line is the bad one
        body = []
        for i in range(12):
            body.append(_sixteen(i).replace("\n", "\r\n"))
            body.extend(["\r\n"] * (i % 4) * 3)
        path = tmp_path / "s.csv"
        path.write_bytes((_HEADER.replace("\n", "\r\n") + "".join(body)).encode())
        assert load_scores(path).pair_id.tolist() == [f"p{i % 10}" for i in range(12)]
        path.write_bytes(path.read_bytes() + b"1.0,mated,15,p,x\r\n")
        exc = _failure(load_scores, path)
        assert (str(exc), exc.line) == ("expected 4 cells, got 5", 2 + len(body))


class TestOneRead:
    @pytest.mark.parametrize("row", ["2.0,nonmated,15,p1", "oops,mated,15,p1", "1.0,mated,16,p1"],
                             ids=["valid", "syntax error", "bad value"])
    def test_each_load_opens_the_file_once(self, tmp_path, monkeypatch, row):
        opened = []

        def counted(path):
            opened.append(path)
            return open_text(path)

        open_text = tailratio.io._open_text
        monkeypatch.setattr(tailratio.io, "_open_text", counted)
        path = tmp_path / "s.csv"
        path.write_text(f"{_HEADER}1.0,mated,15,p0\n{row}\n")
        try:
            load_scores(path)
        except DataFormatError as exc:
            assert exc.line == 3
        assert opened == [path]

    def test_bad_last_line_of_a_large_file(self, tmp_path):
        # 100,000 rows span several full-size blocks
        path = tmp_path / "big.csv"
        path.write_text(_HEADER + "".join(_sixteen(i) for i in range(100_000)) + "1.0,mated,15,p0,x\n")
        exc = _failure(load_scores, path)
        assert (str(exc), exc.line) == ("expected 4 cells, got 5", 100_002)

    @pytest.mark.parametrize("load, text", [
        (load_scores, f"{_HEADER}1.0,mated,15,p0\noops,mated,15,p1\n"),
        (load_scores, f"{_HEADER}1.0,mated,15,p0\n1.0,mated,16,p1\n"),
        (load_scores, f'{_HEADER}1.0,mated,15,p0\n1.0,mated,15,"p1\n'),
        (load_scores, "score,origin\n1.0,mated\n"),
        (lambda p: load_threshold_table(p, "x"), "feature_count,pairs,1\n5,10,0.5\n5,10,x\n"),
    ], ids=["syntax error", "bad value", "open quote", "bad header", "threshold table"])
    def test_failed_load_leaves_no_reference_cycle(self, tmp_path, load, text):
        # a cycle through the error's traceback would hold the parsed rows
        # until the cyclic collector next runs
        path = tmp_path / "bad.csv"
        path.write_text(text)
        gc.collect()
        gc.disable()
        try:
            _failure(load, path)
            assert gc.collect() == 0
        finally:
            gc.enable()


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

    @pytest.mark.parametrize("load, text, match", [
        (lambda p: load_threshold_table(p, "x"), "feature_count,rate,1\n5,0.5\n", "unexpected header"),
        (lambda p: load_threshold_table(p, "x"), "feature_count,pairs,one\n5,10,0.5\n", "non-numeric threshold"),
        # the header's error comes before a bad row's
        (lambda p: load_threshold_table(p, "x"), "feature_count,pairs,one\n5,10,x\n", "non-numeric threshold"),
        (load_table1_fixture, "cutpoint,count\n0,1\n", "unexpected header"),
    ], ids=["threshold-header", "threshold-value", "threshold-value-then-bad-row", "fixed-header"])
    def test_header_errors_name_the_header_line(self, tmp_path, load, text, match):
        path = tmp_path / "t.csv"
        path.write_text("# seed=0\n\n" + text)
        with pytest.raises(DataFormatError, match=match) as exc_info:
            load(path)
        assert exc_info.value.line == 3

    def test_repeated_feature_count_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("feature_count,pairs,1,10\n5,10,0.1,0.2\n6,10,0.3,0.4\n5,10,0.5,0.6\n")
        with pytest.raises(DomainError, match="repeated feature count 5"):
            load_threshold_table(path, "correct_exclusion")

    def test_nan_threshold_column_rejected(self, tmp_path):
        # a NaN column could be neither looked up nor aligned with another table
        path = tmp_path / "t.csv"
        path.write_text("feature_count,pairs,nan,inf\n5,10,0.5,0.5\n")
        with pytest.raises(DomainError, match="thresholds must not be NaN"):
            load_threshold_table(path, "correct_exclusion")

    def test_summary_fixture(self):
        row = load_table4_summary(packaged_data_path("table4_summary.csv"))
        assert row["feature_count"] == 14
        assert row["cross_comparisons"] == 500
        assert type(row["feature_count"]) is int and type(row["cross_comparisons"]) is int
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
