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
from collections import deque
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Mapping, Sequence

from ._version import __version__
from .dist import MixtureModel
from .errors import DataFormatError, DomainError
from .experiments import ScoreDataset, ThresholdTable

__all__ = [
    "ModelFile",
    "Table1Fixture",
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
    """Standard artifact metadata: seed, config digest, tool version, extras."""
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


def _csv_rows(fh: IO[str], path: str | Path) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """The header of an open CSV and a lazy iterator of (line number, cells) rows.

    Blank lines are skipped, and so are the leading `# key=value` metadata
    lines, which must precede the header.  One reader parses all other
    lines, and every record must end on its own line: a record that asks
    for a second line (an unbalanced quote) fails with the line it starts on.
    """
    pending: deque[int] = deque()  # line numbers handed to the reader, not yet in a row

    def lines() -> Iterator[str]:
        seen_header = False
        for lineno, line in enumerate(fh, start=1):
            if pending:
                raise DataFormatError("unbalanced quote: record runs past the end of its line", line=pending[0])
            stripped = line.rstrip("\n")
            if stripped.startswith("#"):
                if seen_header:
                    raise DataFormatError("metadata lines must precede the header", line=lineno)
                continue
            if stripped == "":
                continue
            seen_header = True
            pending.append(lineno)
            yield stripped

    rows = ((pending.popleft(), cells) for cells in csv.reader(lines()))
    first = next(rows, None)
    if first is None:
        raise DataFormatError(f"no header found in {path}")
    return first[1], rows


def _read_csv_body(path: str | Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Read a whole CSV, returning (header, [(line_number, row)])."""
    with open(path, newline="") as fh:
        header, rows = _csv_rows(fh, path)
        return header, list(rows)


def load_scores(path: str | Path) -> ScoreDataset:
    """Load a labeled score CSV into columns, validating every row.

    Header must be `score,origin,feature_count,pair_id` with an optional
    trailing `source_id` column; the first malformed row fails with its line
    number.
    """
    score: list[float] = []
    origin: list[str] = []
    feature_count: list[int] = []
    pair_id: list[str] = []
    source_id: list[str | None] = []
    line_of_row: list[int] = []
    failure = None
    with open(path, newline="") as fh:
        header, rows = _csv_rows(fh, path)
        if header not in (_SCORE_HEADER, _SCORE_HEADER_FULL):
            raise DataFormatError(
                f"unexpected header {header!r}; want {','.join(_SCORE_HEADER)}[,source_id]", line=1
            )
        has_source = header == _SCORE_HEADER_FULL
        try:
            for lineno, cells in rows:
                if len(cells) != len(header):
                    failure = DataFormatError(f"expected {len(header)} cells, got {len(cells)}", line=lineno)
                    break
                try:
                    value, count = float(cells[0]), int(cells[2])
                except ValueError as exc:
                    failure = DataFormatError(f"bad record: {exc}", line=lineno)
                    break
                score.append(value)
                origin.append(cells[1])
                feature_count.append(count)
                pair_id.append(cells[3])
                source_id.append((cells[4] or None) if has_source else None)
                line_of_row.append(lineno)
        except DataFormatError as exc:
            failure = exc
    # The rows before an unparsable one are validated first, so the error
    # always names the first bad line.
    try:
        dataset = ScoreDataset(score, origin, feature_count, pair_id, source_id)
    except DomainError as exc:
        raise DataFormatError(f"bad record: {exc}", line=line_of_row[exc.payload["row"]]) from exc
    if failure is not None:
        raise failure
    return dataset


def save_scores(dataset: ScoreDataset, path: str | Path, meta: Mapping[str, Any] | None = None) -> None:
    """Write a score dataset as CSV (always with the source_id column)."""
    columns = (dataset.score, dataset.origin, dataset.feature_count, dataset.pair_id, dataset.source_id)
    write_csv(path, _SCORE_HEADER_FULL, zip(*(c.tolist() for c in columns)), meta=meta)


@dataclass(frozen=True, eq=False)
class ModelFile:
    """A mixture model together with its file-level metadata."""

    model: MixtureModel
    provenance: str
    version: int


def _model_to_obj(model: MixtureModel, provenance: str) -> dict[str, Any]:
    return {
        "version": MODEL_FORMAT_VERSION,
        "origin": model.origin,
        "feature_count": model.feature_count,
        "components": [
            {"weight": c.weight, "location": c.location, "scale": c.scale} for c in model.components
        ],
        "provenance": provenance,
    }


def save_model(model: MixtureModel, path: str | Path, provenance: str = "") -> None:
    """Write a model JSON file; save -> load -> save is byte-identical."""
    with open(path, "w") as fh:
        json.dump(_model_to_obj(model, provenance), fh, indent=2)
        fh.write("\n")


def load_model(path: str | Path) -> ModelFile:
    """Load and validate a model JSON file."""
    with open(path) as fh:
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
    model = MixtureModel.from_parts(
        weights=[float(c["weight"]) for c in comps],
        locations=[float(c["location"]) for c in comps],
        scales=[float(c["scale"]) for c in comps],
        origin=obj.get("origin"),
        feature_count=obj.get("feature_count"),
    )
    return ModelFile(model=model, provenance=str(obj.get("provenance", "")), version=int(version))


def load_threshold_table(path: str | Path, kind: str, percent: bool = False) -> ThresholdTable:
    """Load a rate table CSV: `feature_count,pairs,<threshold>...` per row.

    With `percent` the file stores percentages (the printed convention for
    identification-rate tables) and cells are divided by 100 on load.
    """
    header, rows = _read_csv_body(path)
    if len(header) < 3 or header[0] != "feature_count" or header[1] != "pairs":
        raise DataFormatError(f"unexpected header {header!r} in {path}", line=1)
    try:
        thresholds = tuple(float(h) for h in header[2:])
    except ValueError as exc:
        raise DataFormatError(f"non-numeric threshold column in {path}: {exc}", line=1) from exc
    fcs: list[int] = []
    counts: list[int] = []
    rates: list[tuple[float, ...]] = []
    scale = 0.01 if percent else 1.0
    for lineno, cells in rows:
        if len(cells) != len(header):
            raise DataFormatError(f"expected {len(header)} cells, got {len(cells)}", line=lineno)
        try:
            fcs.append(int(cells[0]))
            counts.append(int(cells[1]))
            rates.append(tuple(float(c) * scale for c in cells[2:]))
        except ValueError as exc:
            raise DataFormatError(f"bad rate row: {exc}", line=lineno) from exc
    return ThresholdTable(
        kind=kind,
        feature_counts=tuple(fcs),
        thresholds=thresholds,
        rates=tuple(rates),
        pair_counts=tuple(counts),
    )


@dataclass(frozen=True, eq=False)
class Table1Fixture:
    """Published tail-rate comparison: printed expected rates and observed counts."""

    cutpoints: tuple[float, ...]
    printed_expected_per_100k: tuple[float, ...]
    observed_counts: tuple[int, ...]
    observed_total: int
    printed_observed_per_100k: tuple[float, ...]


def load_table1_fixture(path: str | Path) -> Table1Fixture:
    """Load the tail-rate fixture CSV."""
    header, rows = _read_csv_body(path)
    want = ["cutpoint", "printed_expected_per_100k", "observed_count", "observed_total", "printed_observed_per_100k"]
    if header != want:
        raise DataFormatError(f"unexpected header {header!r} in {path}", line=1)
    cuts, expected, counts, totals, printed = [], [], [], [], []
    for lineno, cells in rows:
        try:
            cuts.append(float(cells[0]))
            expected.append(float(cells[1]))
            counts.append(int(cells[2]))
            totals.append(int(cells[3]))
            printed.append(float(cells[4]))
        except (ValueError, IndexError) as exc:
            raise DataFormatError(f"bad fixture row: {exc}", line=lineno) from exc
    if len(set(totals)) != 1:
        raise DataFormatError(f"inconsistent observed totals {totals} in {path}")
    return Table1Fixture(
        cutpoints=tuple(cuts),
        printed_expected_per_100k=tuple(expected),
        observed_counts=tuple(counts),
        observed_total=totals[0],
        printed_observed_per_100k=tuple(printed),
    )


def load_table4_summary(path: str | Path) -> dict[str, float]:
    """Load the single-row cross-comparison summary fixture."""
    header, rows = _read_csv_body(path)
    if len(rows) != 1:
        raise DataFormatError(f"expected exactly one data row in {path}")
    _, cells = rows[0]
    if len(cells) != len(header):
        raise DataFormatError(f"row does not match header in {path}")
    return {key: float(value) for key, value in zip(header, cells)}


def packaged_data_path(name: str) -> Path:
    """Path of a data file shipped inside the installed package."""
    return Path(str(resources.files("tailratio").joinpath("data", name)))
