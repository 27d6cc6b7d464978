"""File formats: score CSVs, model JSON files, fixture tables, run metadata.

All numeric serialization goes through `repr`, so parse(print(x)) == x for
every finite double and files round-trip losslessly.  Run artifacts embed
the seed, a digest of the producing configuration, and the tool version as
leading `# key=value` comment lines (CSV) or a `meta` object (JSON); no
timestamps, so identical runs produce identical bytes.
"""
from __future__ import annotations

import csv
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from itertools import compress
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._version import __version__
from .dist import MixtureModel
from .errors import DataFormatError, DomainError
from .experiments import ScoreDataset, TailAudit, ThresholdTable

__all__ = [
    "ModelFile",
    "format_value",
    "config_digest",
    "build_meta",
    "write_csv",
    "load_scores",
    "save_scores",
    "save_model",
    "load_model",
    "load_threshold_table",
    "load_table1_fixture",
    "load_table4_summary",
    "packaged_data_path",
]

MODEL_FORMAT_VERSION = 1

_SCORE_HEADER = ["score", "origin", "feature_count", "pair_id"]
_SCORE_HEADER_FULL = _SCORE_HEADER + ["source_id"]
# Strings are read as objects: a fixed-width dtype would cut long cells short.
_SCORE_FORMATS = {"score": "f8", "origin": object, "feature_count": "i8", "pair_id": object, "source_id": object}


def format_value(value: Any) -> str:
    """Serialize one cell: floats via repr, bools lowercase, None empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_digest(config: Mapping[str, Any]) -> str:
    """Short stable digest of a configuration mapping."""
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def build_meta(seed: int, config: Mapping[str, Any], extra: Mapping[str, Any] | None = None) -> dict[str, Any]:
    """Standard artifact metadata: seed, config digest, tool version, extras.

    The digest hashes `config` as given, and the commands put their path
    options (`--mated`, `--nonmated`, `--scores`, ...) in it as the literal
    strings.  Two spellings of one file, `in/m.json` and `./in/m.json`,
    give two digests, so a byte check on a command's output must fix them.
    """
    meta: dict[str, Any] = {
        "seed": seed,
        "config_digest": config_digest(config),
        "tool_version": __version__,
    }
    if extra:
        meta.update(extra)
    return meta


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence[Any]],
    meta: Mapping[str, Any] | None = None,
) -> None:
    """Write a CSV with optional leading `# key=value` metadata lines."""
    with open(path, "w", newline="") as fh:
        if meta:
            for key, value in meta.items():
                fh.write(f"# {key}={format_value(value)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


# What iterating a file opened with newline="" yields for an empty line.
_BLANK_LINES = frozenset({"\n", "\r\n", "\r"})
_CSV = dict(delimiter=",", quotechar='"', comments=None)
# Characters read at a time.  A block ends on a whole line, so a record is
# never split between blocks and a file is never held whole.
_BLOCK_CHARS = 1 << 18


@contextmanager
def _open_text(path: str | Path) -> Iterator[IO[str]]:
    """Open a data file as UTF-8 text; a byte sequence that does not decode is a format error."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path} is not UTF-8 text: {exc}") from exc


def _cells(line: str) -> list[str]:
    """The cells of one CSV line."""
    return np.loadtxt([line], dtype=object, ndmin=2, **_CSV)[0].tolist()


def _parse(lines: list[str], dtype: np.dtype) -> np.ndarray:
    """Parse nonblank CSV lines into a structured array of `dtype`, one row per line.

    numpy's tokenizer lets a quoted cell run on into the next line; here a
    record must end on its own line.  A line of zeros and empty cells is
    parsed after the others: a quote left open swallows it, so a record that
    spans lines shows as fewer rows than lines.  Raises ValueError if a line
    does not parse or a record spans lines.
    """
    end = ",".join("" if dtype[j] == object else "0" for j in range(len(dtype))) + "\n"
    rows = np.loadtxt(lines + [end], dtype=dtype, ndmin=1, **_CSV)
    if rows.size != len(lines) + 1:
        raise ValueError("a quoted cell runs past the end of its line")
    return rows[:-1]


def _first_bad_line(lines: list[str], dtype: np.dtype) -> int:
    """Index of the first line that does not parse, given that the whole list does not.

    Bisection over prefixes.  A prefix that parses ends on a record
    boundary, so the lines after it parse or fail on their own.
    """
    good, bad = 0, len(lines)  # lines[:good] parse, lines[:bad] do not
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _parse(lines[good:mid], dtype)
            good = mid
        except ValueError:
            bad = mid
    return good


def _line_error(line: str, lineno: int, header: list[str], dtype: np.dtype) -> DataFormatError:
    """Why one line does not parse on its own, by the first rule it breaks."""
    if line.startswith("#"):
        return DataFormatError("metadata lines must precede the header", line=lineno)
    if np.loadtxt([line, "x"], dtype=object, usecols=0, **_CSV).size == 1:
        return DataFormatError("unbalanced quote: record runs past the end of its line", line=lineno)
    cells = _cells(line)
    if len(cells) != len(header):
        return DataFormatError(f"expected {len(header)} cells, got {len(cells)}", line=lineno)
    for j in range(len(header)):
        try:
            np.loadtxt([line], dtype=dtype[j], usecols=j, **_CSV)
        except ValueError:
            number = "decimal integer" if dtype[j].kind == "i" else "decimal float"
            return DataFormatError(f"bad record: {header[j]} {cells[j]!r} is not a {number}", line=lineno)
    raise AssertionError(f"line {lineno} parses on its own")


@dataclass(frozen=True, eq=False)
class _Table:
    """The rows of a CSV file before its first line that does not parse."""

    header: list[str]
    rows: np.ndarray  # structured, one field per header cell
    lines: np.ndarray  # the line number of each row


def _read_csv(
    path: str | Path, columns: Callable[[list[str]], np.dtype], build: Callable[[_Table], Any] = lambda table: table
) -> Any:
    """Read a CSV once, in blocks of whole lines: `columns(header)` checks the header and gives the row dtype.

    A DataFormatError that `columns` raises is reported at the header's line.

    Blank lines are skipped, and so are leading `# key=value` metadata lines,
    which must precede the header.  Every table read here has a numeric first
    column, so a `#` line after the header fails to parse and is reported as
    such.  Reading stops at the first line that does not parse.  The rows
    before it go to `build`, and what `build` returns is returned; then that
    line's error is raised, so `build` can report an earlier bad value first.
    """
    with _open_text(path) as fh:
        for header_line, line in enumerate(fh, start=1):
            if line not in _BLANK_LINES and not line.startswith("#"):
                header = _cells(line)
                break
        else:
            raise DataFormatError(f"no header found in {path}")
        try:
            dtype = columns(header)
        except DataFormatError as exc:
            raise DataFormatError(str(exc), line=header_line) from None
        rows, lines, bad, lineno = [np.empty(0, dtype)], [np.empty(0, int)], None, header_line
        while bad is None and (block := fh.readlines(_BLOCK_CHARS)):
            numbers = np.arange(lineno + 1, lineno + 1 + len(block))
            lineno += len(block)
            if not _BLANK_LINES.isdisjoint(block):
                keep = [line not in _BLANK_LINES for line in block]
                block, numbers = list(compress(block, keep)), numbers[keep]
            try:
                rows.append(_parse(block, dtype))
            except ValueError:
                good = _first_bad_line(block, dtype)
                bad = block[good], int(numbers[good])
                rows.append(_parse(block[:good], dtype))
            lines.append(numbers[: rows[-1].size])
    rows, lines = np.concatenate(rows), np.concatenate(lines)  # frees the blocks before `build` copies columns
    result = build(_Table(header, rows, lines))
    if bad is not None:
        # made where it is raised: an error held in a local would keep this frame alive through its traceback
        raise _line_error(*bad, header, dtype)
    return result


def _score_columns(header: list[str]) -> np.dtype:
    if header not in (_SCORE_HEADER, _SCORE_HEADER_FULL):
        raise DataFormatError(f"unexpected header {header!r}; want {','.join(_SCORE_HEADER)}[,source_id]")
    return np.dtype([(name, _SCORE_FORMATS[name]) for name in header])


def load_scores(path: str | Path) -> ScoreDataset:
    """Load a labeled score CSV into columns, validating every row.

    Header must be `score,origin,feature_count,pair_id` with an optional
    trailing `source_id` column.  The file is read once, in blocks, and the
    first malformed row fails with its line number, whether it does not
    parse or holds a value out of range.  Scores are decimal floats as
    `repr` writes them and feature counts decimal integers; an empty
    source_id loads as None, as `ScoreDataset` stores it.
    """
    return _read_csv(path, _score_columns, _score_dataset)


def _score_dataset(table: _Table) -> ScoreDataset:
    """The dataset of a score table's rows; a row out of range fails at its line."""
    rows = table.rows
    source_id = rows["source_id"] if "source_id" in rows.dtype.names else np.full(rows.size, None, dtype=object)
    columns = (np.ascontiguousarray(rows[name]) for name in _SCORE_HEADER)
    try:
        return ScoreDataset(*columns, source_id)
    except DomainError as exc:
        row = exc.payload["row"]
        problem = str(exc).removeprefix(f"row {row}: ")
        raise DataFormatError(f"bad record: {problem}", line=int(table.lines[row])) from exc


def save_scores(dataset: ScoreDataset, path: str | Path, meta: Mapping[str, Any] | None = None) -> None:
    """Write a score dataset as CSV (always with the source_id column).

    A record must end on its own line, so an id that holds a line break is
    a DomainError naming its row, raised before the file is opened.
    """
    columns = [c.tolist() for c in (dataset.score, dataset.origin, dataset.feature_count, dataset.pair_id,
                                    dataset.source_id)]
    for row, ids in enumerate(zip(*columns[3:])):
        for name, cell in zip(("pair_id", "source_id"), map(format_value, ids)):
            if "\n" in cell or "\r" in cell:
                raise DomainError(f"row {row}: {name} holds a line break, got {cell!r}", row=row)
    write_csv(path, _SCORE_HEADER_FULL, zip(*columns), meta=meta)


@dataclass(frozen=True, eq=False)
class ModelFile:
    """A mixture model together with its file-level metadata."""

    model: MixtureModel
    provenance: str


def _model_to_obj(model: MixtureModel, provenance: str) -> dict[str, Any]:
    return {
        "version": MODEL_FORMAT_VERSION,
        "origin": model.origin,
        "feature_count": model.feature_count,
        "components": [
            {"weight": w, "location": loc, "scale": s}
            for w, loc, s in zip(model.weights.tolist(), model.locations.tolist(), model.scales.tolist())
        ],
        "provenance": provenance,
    }


def save_model(model: MixtureModel, path: str | Path, provenance: str = "") -> None:
    """Write a model JSON file; save -> load -> save is byte-identical.

    The text is made before the file is opened, so a model that cannot be
    written leaves no partial file.
    """
    text = json.dumps(_model_to_obj(model, provenance), indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_model(path: str | Path) -> ModelFile:
    """Load and validate a model JSON file; component fields must be JSON numbers."""
    with _open_text(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict) or "components" not in obj:
        raise DataFormatError(f"not a model file: {path}")
    version = obj.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise DataFormatError(f"unsupported model format version {version!r}")
    comps = obj["components"]
    if not isinstance(comps, list) or len(comps) == 0:
        raise DataFormatError("model file has no components")
    try:
        params = [[_json_number(c[key]) for c in comps] for key in ("weight", "location", "scale")]
    except (KeyError, TypeError, OverflowError) as exc:
        raise DataFormatError(f"each component needs a numeric weight, location and scale: {exc!r}") from exc
    model = MixtureModel(*params, origin=obj.get("origin"), feature_count=obj.get("feature_count"))
    return ModelFile(model=model, provenance=str(obj.get("provenance", "")))


def _json_number(value: Any) -> float:
    """A JSON number as a float; booleans and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def load_threshold_table(path: str | Path, kind: str, percent: bool = False) -> ThresholdTable:
    """Load a rate table CSV: `feature_count,pairs,<threshold>...` per row.

    With `percent` the file stores percentages (the printed convention for
    identification-rate tables) and cells are divided by 100 on load.
    """
    thresholds: tuple[float, ...] = ()

    def columns(header: list[str]) -> np.dtype:
        nonlocal thresholds
        if len(header) < 3 or header[:2] != ["feature_count", "pairs"]:
            raise DataFormatError(f"unexpected header {header!r} in {path}")
        try:
            thresholds = tuple(float(h) for h in header[2:])
        except ValueError as exc:
            raise DataFormatError(f"non-numeric threshold column in {path}: {exc}") from None
        rates = [(f"rate{j}", "f8") for j in range(2, len(header))]
        return np.dtype([("feature_count", "i8"), ("pairs", "i8"), *rates])

    rows = _read_csv(path, columns).rows
    scale = 0.01 if percent else 1.0
    return ThresholdTable(
        kind=kind,
        feature_counts=tuple(rows["feature_count"].tolist()),
        thresholds=thresholds,
        rates=np.column_stack([rows[name] * scale for name in rows.dtype.names[2:]]),
        pair_counts=tuple(rows["pairs"].tolist()),
    )


def _fixed_columns(header: list[str], formats: Mapping[str, Any], path: str | Path) -> np.dtype:
    """The dtype of a table whose header is exactly `formats`' keys, in order."""
    if header != list(formats):
        raise DataFormatError(f"unexpected header {header!r} in {path}")
    return np.dtype(list(formats.items()))


_TABLE1_FORMATS = {
    "cutpoint": "f8", "printed_expected_per_100k": "f8", "observed_count": "i8", "observed_total": "i8",
    "printed_observed_per_100k": "f8",
}
_TABLE4_FORMATS = {"feature_count": "i8", "cross_comparisons": "i8", "rate_below_100": "f8"}


def load_table1_fixture(path: str | Path) -> TailAudit:
    """Load the published tail table as a TailAudit of its printed rates, counts and total."""
    table = _read_csv(path, lambda header: _fixed_columns(header, _TABLE1_FORMATS, path))
    cuts, expected, counts, totals, printed = (table.rows[name].tolist() for name in _TABLE1_FORMATS)
    if len(set(totals)) != 1:
        raise DataFormatError(f"inconsistent observed totals {totals} in {path}")
    return TailAudit(tuple(cuts), tuple(expected), tuple(counts), totals[0], tuple(printed))


def load_table4_summary(path: str | Path) -> dict[str, int | float]:
    """Load the single-row cross-comparison summary fixture; its counts are integers."""
    table = _read_csv(path, lambda header: _fixed_columns(header, _TABLE4_FORMATS, path))
    if table.rows.size != 1:
        raise DataFormatError(f"expected exactly one data row in {path}")
    return dict(zip(table.header, table.rows[0].tolist()))


def packaged_data_path(name: str) -> Path:
    """Path of a data file shipped inside the installed package."""
    return Path(str(resources.files("tailratio").joinpath("data", name)))
