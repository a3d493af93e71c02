"""File formats, model persistence, and model application.

CSV carries text corpora, tabular scores and meta-scores, JSONL carries
pairwise preference records, and JSON carries metric specs, models, and
reports.  Every numeric value in an output file is serialized with 17
significant digits, which round-trips float64 exactly and makes repeated
runs byte-identical.  Every output file is written whole or not at all,
and `staged` moves several outputs into place together or not at all.

Score files are read and written by columns.  The CSV readers read the
rows after the header of a regular file with numpy's C reader,
`np.loadtxt`, in one streamed pass: the number columns as float64, every
other column as strings.  A file that pass does not take whole (a
malformed row or value, an undecodable byte, a field over the csv
module's size limit, or a character that numpy strips from a number and
`float` does not) is read again by the block reader, and a pipe, which
can be read only once, is read by it alone.  The block reader takes rows
a block at a time (`_BLOCK_ROWS`), parses each number column of a block
in one `float` pass and checks the block's values finite at once.  The JSONL reader checks
each record's structure as it reads it, and the JSON types and finiteness
of all its metric values once per file.  Only a block or file that fails
its check is rescanned, value by value in reading order, and the rescan
raises the first error met: the error, line and column that a row-by-row
read names.  A CSV number is a text that `float` reads and that holds only
ASCII and no "_" (`_plain`).  The writers check finiteness once and format
each row from one template string.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import stat
from contextlib import contextmanager
from functools import partial
from operator import itemgetter
from types import SimpleNamespace
from typing import Any, Callable, Iterator, NoReturn, Sequence, TextIO

import numpy as np

from .core import (
    CalibratedModel,
    ExampleId,
    MetacalError,
    MetricSpec,
    ModelKind,
    PreferencePair,
    PreferenceTarget,
    ScoreMatrix,
    TargetKind,
    Weighting,
    expanded_feature_names,
    pointwise_z,
    unit_rows,
    unstack_pairs,
    validate_alignment,
)
from .gbt import Tree, TreeEnsemble, feature_importance
from .gp import expand_matrix
from .harness import EvalReport
from .preprocess import normalize_values
from .textmetrics import SegmentPair

MODEL_SCHEMA_VERSION = 1
ID_COLUMNS = ExampleId._fields
HUMAN_COLUMN = "human"


class ParseError(MetacalError):
    def __init__(self, line: int, reason: str) -> None:
        super().__init__(f"line {line}: {reason}")
        self.line = line


class HeaderMismatch(MetacalError):
    """The file header does not cover the declared metric names."""


class NonFiniteValue(MetacalError):
    def __init__(self, line: int, column: str) -> None:
        super().__init__(f"line {line}: non-finite value in column {column!r}")
        self.line = line


class SchemaVersionUnsupported(MetacalError):
    pass


class MalformedModel(MetacalError):
    pass


class ColumnMismatch(MetacalError):
    """Matrix columns do not cover the model's metric specs."""


# ---------------------------------------------------------------------------
# Canonical JSON with fixed float formatting
# ---------------------------------------------------------------------------


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise MetacalError(f"cannot serialize non-finite value {value!r}")
    return format(float(value), ".17g")


def _emit(obj: Any, parts: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            parts.append(f'{pad}  {json.dumps(str(key))}: ')
            _emit(value, parts, indent + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, value in enumerate(obj):
            parts.append(pad + "  ")
            _emit(value, parts, indent + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "]")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(float(obj)))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif obj is None:
        parts.append("null")
    else:
        raise MetacalError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj: Any) -> str:
    parts: list[str] = []
    _emit(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


@contextmanager
def staged(paths: Sequence[str]) -> Iterator[list[str]]:
    """A temp path beside each of `paths`, each moved into place only once
    the block succeeds; on any failure every temp file is removed, so no
    command leaves a partial artifact behind, and one with several outputs
    writes all of them or none.  A symlink is resolved first, so it is
    written through, and an `OSError` on a temp path names its given path."""
    targets = [os.path.realpath(path) if os.path.islink(path) else path for path in paths]
    tmps = [f"{target}.{os.getpid()}.tmp" for target in targets]
    try:
        yield tmps
        for path, target in zip(paths, targets):  # a move onto a directory fails: fail before the first move
            if os.path.isdir(target):
                raise IsADirectoryError(f"{path} is a directory")
        for tmp, target in zip(tmps, targets):
            os.replace(tmp, target)
    except OSError as exc:
        if exc.filename not in tmps:
            raise
        raise type(exc)(exc.errno, exc.strerror, paths[tmps.index(exc.filename)]) from None
    finally:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.remove(tmp)


@contextmanager
def _replacing(path: str) -> Iterator[TextIO]:
    """Write `path` through a temp file (see `staged`)."""
    with staged([path]) as (tmp,), open(tmp, "w", encoding="utf-8", newline="") as fh:
        yield fh


def _parse_json(text: str, error: Callable[[str], MetacalError]) -> Any:
    """`json.loads`, raising `error(reason)` for any text it cannot decode."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # An integer too long to convert, or nesting deeper than the stack.
        raise error(f"unreadable JSON: {exc}") from None


def write_json(obj: Any, path: str) -> None:
    with _replacing(path) as fh:
        fh.write(dumps_canonical(obj))


# JSON field types are checked, never coerced.  A type error is a
# `TypeError`, which each file's loader reports as its own error.  Every
# integer up to _EXACT_INT is a float64, as I-JSON (RFC 7493) requires of
# interoperable JSON numbers.
_EXACT_INT = 2**53 - 1


def _json_int(value: Any, name: str) -> int:
    """`value` if it is a JSON integer; true, false and 2.0 are not."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _json_number(value: Any, name: str) -> float:
    """`value` as a float if it is a JSON number that a float64 holds
    exactly; true, "0.5" and 2**53 + 1 are not."""
    if type(value) is float or (type(value) is int and abs(value) <= _EXACT_INT):
        return float(value)
    raise TypeError(f"{name} must be a number, got {value!r}")


def _json_str(value: Any, name: str) -> str:
    if type(value) is not str:
        raise TypeError(f"{name} must be a string, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Metric spec files
# ---------------------------------------------------------------------------


def specs_to_obj(specs: Sequence[MetricSpec]) -> list[dict]:
    return [
        {
            "name": s.name,
            "min": float(s.min),
            "max": float(s.max),
            "higher_is_better": s.higher_is_better,
        }
        for s in specs
    ]


def specs_from_obj(obj: Any) -> tuple[MetricSpec, ...]:
    if not isinstance(obj, list) or not obj:
        raise MetacalError("metric spec file must be a non-empty JSON array")
    specs = []
    for entry in obj:
        try:
            higher_is_better = entry["higher_is_better"]
            if not isinstance(higher_is_better, bool):
                raise MetacalError(f"{entry!r}: higher_is_better must be true or false")
            specs.append(
                MetricSpec(
                    name=_json_str(entry["name"], "name"),
                    min=_json_number(entry["min"], "min"),
                    max=_json_number(entry["max"], "max"),
                    higher_is_better=higher_is_better,
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MetacalError(f"bad metric spec entry {entry!r}: {exc}") from exc
    return tuple(specs)


def load_specs(path: str) -> tuple[MetricSpec, ...]:
    with open(path, encoding="utf-8") as fh:
        return specs_from_obj(_parse_json(fh.read(), MetacalError))


def save_specs(specs: Sequence[MetricSpec], path: str) -> None:
    write_json(specs_to_obj(specs), path)


# ---------------------------------------------------------------------------
# Score ingestion
# ---------------------------------------------------------------------------


def _plain(text: str) -> bool:
    """Whether `float` may read a CSV number field: only ASCII, no "_"."""
    return text.isascii() and "_" not in text


def _parse_value(text: str | float, line: int, column: str) -> float:
    try:
        if isinstance(text, str) and not _plain(text):
            raise ValueError("not a plain ASCII number")
        value = float(text)
    except ValueError as exc:
        raise ParseError(line, f"cannot parse {text!r} in column {column!r}") from exc
    if not math.isfinite(value):
        raise NonFiniteValue(line, column)
    return value


# Rows per block of the CSV readers and writers: each block is checked in
# one pass, and only one block's strings are held at a time.
_BLOCK_ROWS = 2048

# `ExampleId(*fields)` for a 3-tuple of fields, without the named tuple's
# Python-level `__new__`.
_new_id = partial(tuple.__new__, ExampleId)


def _tuple_getter(keys: Sequence) -> Callable[[Any], tuple]:
    """`itemgetter(*keys)`, returning a tuple for one key or none too."""
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda obj: tuple(obj[key] for key in keys)


def _record_blocks(reader: Iterator[list[str]]) -> Iterator[list[list[str]]]:
    """The reader's records, `_BLOCK_ROWS` at a time.  When reading fails
    mid-block, the records read before the failure come out first, so
    their own errors are reported ahead of it, as a row-by-row read would."""
    while True:
        block: list[list[str]] = []
        try:
            block.extend(itertools.islice(reader, _BLOCK_ROWS))
        except (csv.Error, UnicodeDecodeError) as exc:
            yield block
            if isinstance(exc, csv.Error):  # e.g. a field over the csv module's size limit
                raise ParseError(reader.line_num, str(exc)) from exc
            raise
        if not block:
            return
        yield block


def _parse_block(
    records: list[list[str]], width: int, pick: Callable, first_number: int
) -> tuple[list[tuple[str, ...]], np.ndarray] | None:
    """A block of non-blank records as its used columns, picked by `pick`,
    and its number columns (those from `first_number` on) parsed into one
    float64 array of shape (columns, rows).  None if a record does not
    have `width` fields, or a number is not one `_parse_value` takes."""
    if set(map(len, records)) != {width}:
        return None
    columns = list(zip(*map(pick, records)))
    if not all(map(_plain, map("".join, columns[first_number:]))):
        return None
    try:
        values = np.array([list(map(float, c)) for c in columns[first_number:]], dtype=np.float64)
    except ValueError:
        return None
    values = values.reshape(len(columns) - first_number, len(records))  # no number columns: (0, rows)
    return (columns, values) if np.isfinite(values).all() else None


def _raise_first_error(
    block: list[list[str]],
    first_line: int,
    width: int,
    pick: Callable,
    first_number: int,
    numeric: Sequence[str],
) -> NoReturn:
    """Rescan a block that failed `_parse_block`, whose first record is on
    `first_line`, row by row and each row column by column, and raise the
    first error met: the error, line and column that a row-by-row read
    names.  The picked columns from `first_number` on are `numeric`."""
    for line, record in enumerate(block, start=first_line):
        if not record:
            continue
        if len(record) != width:
            raise ParseError(line, f"{len(record)} fields, header has {width}")
        for text, column in zip(pick(record)[first_number:], numeric):
            _parse_value(text, line, column)
    raise AssertionError("a block failed its check, but none of its rows did")


def _refuse_reserved(metric_names: Sequence[str]) -> None:
    """A CSV metric column may not take the name of an id column or of the
    human column: its reader would read it as that column."""
    reserved = [name for name in metric_names if name in (*ID_COLUMNS, HUMAN_COLUMN)]
    if reserved:
        raise HeaderMismatch(f"a metric may not be named {', '.join(ID_COLUMNS)} or {HUMAN_COLUMN}: "
                             f"{', '.join(reserved)}")


def _read_table(
    path: str, text_columns: Sequence[str], number_columns: Sequence[str]
) -> tuple[list[ExampleId], list[list[str]], np.ndarray, PreferenceTarget | None]:
    """Read a CSV table: the id columns, `text_columns`, `number_columns`,
    and an optional human column.  Other columns are ignored and may
    repeat; a column read here may not.  Blank rows are skipped; a UTF-8
    byte-order mark is dropped.

    The csv module reads and checks the header.  numpy's C reader then
    reads the rest of a regular file in one streamed pass
    (`_loadtxt_rows`), when a byte scan finds nothing it would read
    differently from the csv module and `_parse_value` (`_loadtxt_safe`).
    Any file it does not take whole, for a bad row, an undecodable byte, a
    non-finite value or a field over the csv module's size limit, is read
    again from the top by the block reader (`_block_rows`), which returns
    the table or raises the error, line and column that a row-by-row read
    names.  A pipe or other stream, which can be read only once, goes to
    the block reader straight after the header.

    Returns the example ids, one list of strings per text column, a float64
    array with one column per number column, and a pointwise target when
    the human column is present.  A number column named like an id or the
    human column is refused before the file is opened.
    """
    _refuse_reserved(number_columns)
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ParseError(reader.line_num, str(exc)) from exc
        if header is None:
            raise ParseError(1, "empty file")
        used = [*ID_COLUMNS, *text_columns, *number_columns]
        missing = [c for c in used if c not in header]
        if missing:
            raise HeaderMismatch(f"missing columns: {', '.join(missing)}")
        numeric = list(number_columns)
        if HUMAN_COLUMN in header:
            used.append(HUMAN_COLUMN)
            numeric.append(HUMAN_COLUMN)
        repeated = [c for c in used if header.count(c) > 1]
        if repeated:
            raise HeaderMismatch(f"repeated columns: {', '.join(repeated)}")
        positions = [header.index(c) for c in used]
        first_number = len(used) - len(numeric)
        rows = None
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) and _loadtxt_safe(path):
            rows = _loadtxt_rows(fh, len(header), positions, first_number)
            if rows is None:
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
        if rows is None:
            rows = _block_rows(reader, len(header), positions, first_number, numeric)
    columns, table = rows
    ids = list(map(_new_id, zip(columns[0], columns[1], columns[2])))
    target = None
    if len(numeric) > len(number_columns):
        target = PreferenceTarget.from_pointwise(table[-1])
    return ids, columns[len(ID_COLUMNS):], table[:len(number_columns)].T, target


def _block_rows(
    reader: Iterator[list[str]], width: int, positions: Sequence[int], first_number: int,
    numeric: Sequence[str],
) -> tuple[list[list[str]], np.ndarray]:
    """The rows after the header, read from `reader` `_BLOCK_ROWS` at a
    time: the used columns before `first_number` (`positions` in the
    header) as lists of strings, and the number columns, named
    `numeric`, as one float64 array of shape (columns, rows).

    Each block is checked as a whole (`_parse_block`): every row has the
    header's `width` fields, and each number column, parsed with `float`
    in one pass, is finite by one `np.isfinite` check.  A block that fails
    is rescanned row by row only to raise its first error
    (`_raise_first_error`)."""
    pick = itemgetter(*positions)  # >= 3 columns: a tuple
    columns: list[list[str]] = [[] for _ in range(first_number)]
    numbers: list[np.ndarray] = []
    line = 2
    for block in _record_blocks(reader):
        records = [r for r in block if r]
        if records:
            parsed = _parse_block(records, width, pick, first_number)
            if parsed is None:
                _raise_first_error(block, line, width, pick, first_number, numeric)
            for column, values in zip(columns, parsed[0]):
                column.extend(values)
            numbers.append(parsed[1])
        line += len(block)
    table = np.concatenate(numbers, axis=1) if numbers else np.empty((len(numeric), 0))
    return columns, table


# The characters that numpy's number parser strips around a number and
# `float` does not: ASCII 0x1c-0x1f and the non-ASCII whitespace, UTF-8
# encoded.
_STRIPPED_ASCII = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_STRIPPED_NON_ASCII = tuple(
    chr(c).encode() for c in (0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000)
)
# Bytes per chunk of `_loadtxt_safe`'s scan.  1 MiB chunks raised scale
# peak RSS by ~1 MB (bench/PAIRS_389caff.json) and scanned no faster.
_SCAN_BYTES = 1 << 16
# Lines that numpy's reader and the csv module both skip.
_BLANK_LINES = ("\n", "\r\n", "\r")


def _loadtxt_safe(path: str) -> bool:
    """Whether `_loadtxt_rows` may read the file at `path`: no `_STRIPPED`
    character, which `np.loadtxt` would strip from a number, and no run of
    more than `csv.field_size_limit()` bytes without a comma, which a
    number field longer than the limit needs and numpy would accept.  The
    file is scanned in chunks of at most `_SCAN_BYTES` and at most the
    limit, so only one chunk is held and a run within one chunk is never
    too long."""
    limit = csv.field_size_limit()
    size = max(1, min(_SCAN_BYTES, limit))
    run = 0  # bytes since the last comma
    tail = b""  # the previous chunk's last bytes if not ASCII: a character may span chunks
    with open(path, "rb") as fh:
        while chunk := fh.read(size):
            if any(c in chunk for c in _STRIPPED_ASCII):
                return False
            tail = b"" if chunk.isascii() else tail + chunk
            if any(c in tail for c in _STRIPPED_NON_ASCII):
                return False
            tail = tail[-2:]
            first = chunk.find(b",")
            if first < 0:
                run += len(chunk)
                continue
            if run + first > limit:
                return False
            run = len(chunk) - 1 - chunk.rfind(b",")
    return run <= limit


def _loadtxt_rows(
    fh: TextIO, width: int, positions: Sequence[int], first_number: int
) -> tuple[list[list[str]], np.ndarray] | None:
    """`_block_rows`'s result, read from `fh` after the header by one
    `np.loadtxt` call: a number column as float64, every other one of the
    header's `width` columns as Python strings, so that a row with too few
    or too many fields fails the read.  None where the read fails, a value
    is not finite or a string field is longer than the csv module's size
    limit (the block reader then reads the file), or where no row follows
    the header."""
    numbers = positions[first_number:]
    dtype = np.dtype([(f"f{i}", np.float64 if i in numbers else object) for i in range(width)])
    try:
        first = next((line for line in fh if line not in _BLANK_LINES), None)
        if first is None:  # numpy would warn of an empty read
            return None
        rows = np.loadtxt(itertools.chain((first,), fh), dtype=dtype, comments=None, delimiter=",",
                          quotechar='"', ndmin=1)
    except ValueError:  # a UnicodeDecodeError too
        return None
    table = np.array([rows[f"f{i}"] for i in numbers]).reshape(len(numbers), len(rows))
    if not np.isfinite(table).all():
        return None
    texts = {i: rows[f"f{i}"].tolist() for i in range(width) if i not in numbers}
    limit = csv.field_size_limit()
    if any(max(map(len, column), default=0) > limit for column in texts.values()):
        return None
    return [texts[i] for i in positions[:first_number]], table


def load_scores_csv(
    path: str, specs: Sequence[MetricSpec]
) -> tuple[ScoreMatrix, PreferenceTarget | None]:
    """Read a score table: id columns, one column per metric, optional human.

    Extra columns are ignored so a wide score file can serve narrower metric
    subsets.  Returns a pointwise target when the human column is present.
    """
    names = tuple(s.name for s in specs)
    ids, _, values, target = _read_table(path, (), names)
    return ScoreMatrix(names, tuple(ids), values), target


def load_corpus_csv(
    path: str,
) -> tuple[list[ExampleId], list[SegmentPair], PreferenceTarget | None]:
    """Read a text corpus: id columns, hypothesis, reference, optional human.
    Returns the ids, the segment pairs and a pointwise target when the human
    column is present."""
    ids, (hypotheses, references), _, target = _read_table(path, ("hypothesis", "reference"), ())
    return ids, list(map(SegmentPair, hypotheses, references)), target


def _write_rows(
    fh: TextIO, header: Sequence[str], example_ids: Sequence[ExampleId], values: np.ndarray
) -> None:
    """Write a CSV table: the header, then per row its id fields and its
    `values` row.  The csv module writes the header and the id fields,
    quoting them as needed; each value is written with 17 significant
    digits, `format_float`'s text, after one finiteness check of all values
    (a non-finite value raises `format_float`'s error).  Rows are formatted
    a block at a time."""
    finite = np.isfinite(values)
    if not finite.all():
        format_float(values[~finite][0])
    # The header and the id fields of a block's rows, one line each, ended
    # in "\r\n" so that the csv module quotes a bare "\r" as well as "\n".
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    fh.write(lines.pop()[:-2] + "\n")
    row_format = "%s" + ",%.17g" * values.shape[1] + "\n"
    for start in range(0, len(example_ids), _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        writer.writerows(example_ids[start:stop])
        fh.writelines(
            row_format % (ids[:-2], *row) for ids, row in zip(lines, values[start:stop].tolist())
        )
        lines.clear()


def save_scores_csv(
    matrix: ScoreMatrix, path: str, target: PreferenceTarget | None = None
) -> None:
    _refuse_reserved(matrix.metric_names)
    header = [*ID_COLUMNS, *matrix.metric_names]
    values = matrix.values
    if target is not None:
        values = np.column_stack([values, pointwise_z(matrix, target)])
        header.append(HUMAN_COLUMN)
    with _replacing(path) as fh:
        _write_rows(fh, header, matrix.example_ids, values)


def save_meta_scores(
    example_ids: Sequence[ExampleId], scores: np.ndarray, path: str
) -> None:
    """Write one meta-score per example as CSV: id columns, meta_score."""
    values = np.asarray(scores, dtype=np.float64)
    if values.shape != (len(example_ids),):
        raise MetacalError(f"meta-scores of shape {values.shape} for {len(example_ids)} examples")
    with _replacing(path) as fh:
        _write_rows(fh, [*ID_COLUMNS, "meta_score"], example_ids, values[:, None])


def _raise_first_value_error(raw: list, lines: list[int], names: Sequence[str]) -> None:
    """Check the metric values read so far, one side's values per entry of
    `lines`, in the order a record-by-record read checks them, and raise
    the first error met."""
    k = len(names)
    for i, line in enumerate(lines):
        try:
            for value, name in zip(raw[i * k:(i + 1) * k], names):
                _parse_value(_json_number(value, name), line, name)
        except TypeError as exc:
            raise ParseError(line, str(exc)) from None


def load_scores_jsonl(
    path: str, specs: Sequence[MetricSpec]
) -> tuple[ScoreMatrix, PreferenceTarget]:
    """Read pairwise preference records:

        {"group": ..., "category": ..., "chosen": {metric: value},
         "rejected": {metric: value}}

    Metric values must be finite JSON numbers, and `group` and `category`
    JSON strings; nothing is coerced.  Returns the stacked member matrix
    (chosen at row 2i, rejected at 2i+1) and the pairwise target.

    Each record's structure is checked as it is read; its metric values
    are checked once per file (their JSON types, then their finiteness),
    and only a failed check rescans them in reading order to name the
    first bad value's line.
    """
    names = tuple(s.name for s in specs)
    pick = _tuple_getter(names)
    pairs: list[PreferencePair] = []
    raw: list = []  # every side's values, in reading order
    lines: list[int] = []  # the line of each side
    try:
        with open(path, encoding="utf-8") as fh:
            for line, text in enumerate(fh, start=1):
                text = text.strip()
                if not text:
                    continue
                record = _parse_json(text, lambda reason: ParseError(line, reason))
                if not isinstance(record, dict) or "chosen" not in record or "rejected" not in record:
                    raise ParseError(line, "record needs 'chosen' and 'rejected' objects")
                try:
                    group = _json_str(record["group"], "group") if "group" in record else str(line - 1)
                    category = _json_str(record.get("category", "-"), "category")
                except TypeError as exc:
                    raise ParseError(line, str(exc)) from None
                for side in ("chosen", "rejected"):
                    scores = record[side]
                    if not isinstance(scores, dict):
                        raise ParseError(line, f"{side!r} must be an object of metric scores")
                    try:
                        raw.extend(pick(scores))
                    except KeyError:
                        missing = [m for m in names if m not in scores]
                        raise HeaderMismatch(
                            f"line {line}: {side} record missing metrics: {', '.join(missing)}"
                        ) from None
                    lines.append(line)
                pairs.append(PreferencePair(group_id=group, category=category))
        if not pairs:
            raise ParseError(1, "no pairwise records")
        types = set(map(type, raw))
        if not types <= {float, int} or (
            int in types and any(abs(v) > _EXACT_INT for v in raw if type(v) is int)
        ):
            raise ValueError("a metric value is not a JSON number a float64 holds exactly")
        values = np.array(raw, dtype=np.float64).reshape(len(lines), len(names))
        if not np.isfinite(values).all():
            raise ValueError("a metric value is not finite")
    except Exception:
        # The error a record-by-record read meets first: a bad value read
        # before this error, else this error.
        _raise_first_value_error(raw, lines, names)
        raise
    ids = [
        _new_id(("-", pair.group_id, f"{i}:{side}"))
        for i, pair in enumerate(pairs)
        for side in ("chosen", "rejected")
    ]
    matrix = ScoreMatrix(names, tuple(ids), values)
    return matrix, PreferenceTarget.from_pairs(pairs)


def save_scores_jsonl(target: PreferenceTarget, path: str, matrix: ScoreMatrix) -> None:
    """Write one pairwise record per pair; member scores come from the
    stacked matrix rows.  A line is the record

        {"group": ..., "category": ..., "chosen": {metric: value, ...},
         "rejected": {metric: value, ...}}

    on one line, with ", " and ": " separators and every value written
    with 17 significant digits (the matrix's values are finite by
    construction).  Lines are formatted from one template."""
    if target.kind is not TargetKind.PAIRWISE:
        raise MetacalError("JSONL score files carry pairwise targets only")
    validate_alignment(matrix, target)
    side = ", ".join(json.dumps(name).replace("%", "%%") + ": %.17g" for name in matrix.metric_names)
    line = f'{{"group": %s, "category": %s, "chosen": {{{side}}}, "rejected": {{{side}}}}}\n'
    chosen, rejected = unstack_pairs(matrix.values.tolist())
    with _replacing(path) as fh:
        fh.writelines(
            line % (json.dumps(pair.group_id), json.dumps(pair.category), *c, *r)
            for pair, c, r in zip(target.pairwise, chosen, rejected)
        )


def load_scores(
    path: str, fmt: str, specs: Sequence[MetricSpec]
) -> tuple[ScoreMatrix, PreferenceTarget | None]:
    if fmt == "csv":
        return load_scores_csv(path, specs)
    if fmt == "jsonl":
        return load_scores_jsonl(path, specs)
    raise MetacalError(f"unknown score format {fmt!r}")


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------


def _tree_to_obj(tree: Tree, i: int = 0) -> dict:
    if tree.right[i] == 0:
        return {"value": float(tree.value[i])}
    return {
        "feature": int(tree.feature[i]),
        "threshold": float(tree.threshold[i]),
        "gain": float(tree.gain[i]),
        "left": _tree_to_obj(tree, i + 1),
        "right": _tree_to_obj(tree, int(tree.right[i])),
    }


def _node_fields(obj: Any) -> tuple:
    """One nested JSON tree node as `Tree.grow` visits it."""
    keys = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
    if keys == ["value"]:
        return (_json_number(obj["value"], "value"),)
    if keys != ["feature", "gain", "left", "right", "threshold"]:
        raise MalformedModel(f"tree node must be a leaf or a split object, got {keys}")
    return (
        _json_int(obj["feature"], "feature"),
        _json_number(obj["threshold"], "threshold"),
        _json_number(obj["gain"], "gain"),
        obj["left"],
        obj["right"],
    )


def model_to_obj(model: CalibratedModel) -> dict:
    obj: dict[str, Any] = {
        "version": MODEL_SCHEMA_VERSION,
        "kind": model.kind.value,
        "metrics": specs_to_obj(model.metric_specs),
    }
    if model.kind is ModelKind.LINEAR:
        obj["weighting"] = model.weighting.value
        obj["weights"] = [float(w) for w in model.weights]
    else:
        obj["trees"] = [_tree_to_obj(t) for t in model.trees.trees]
        obj["base_score"] = float(model.trees.base_score)
        obj["learning_rate"] = float(model.trees.learning_rate)
    obj["objective_used"] = model.objective_used
    obj["seed"] = model.seed
    return obj


_LINEAR_KEYS = {"version", "kind", "metrics", "weighting", "weights", "objective_used", "seed"}
_GBT_KEYS = {"version", "kind", "metrics", "trees", "base_score", "learning_rate", "objective_used", "seed"}


def model_from_obj(obj: Any) -> CalibratedModel:
    if not isinstance(obj, dict):
        raise MalformedModel("model file must hold a JSON object")
    version = obj.get("version")
    if type(version) is not int or version != MODEL_SCHEMA_VERSION:
        raise SchemaVersionUnsupported(f"unsupported model schema version {version!r}")
    kind = obj.get("kind")
    if kind not in ("linear", "gbt"):
        raise MalformedModel(f"unknown model kind {kind!r}")
    allowed = _LINEAR_KEYS if kind == "linear" else _GBT_KEYS
    unknown = set(obj) - allowed
    if unknown:
        raise MalformedModel(f"unknown model keys: {sorted(unknown)}")
    missing = allowed - set(obj)
    if missing:
        raise MalformedModel(f"missing model keys: {sorted(missing)}")
    try:
        common = dict(
            metric_specs=specs_from_obj(obj["metrics"]),
            objective_used=_json_str(obj["objective_used"], "objective_used"),
            seed=_json_int(obj["seed"], "seed"),
        )
        if kind == "linear":
            return CalibratedModel(
                kind=ModelKind.LINEAR,
                weighting=Weighting(_json_str(obj["weighting"], "weighting")),
                weights=tuple(_json_number(w, "weights") for w in obj["weights"]),
                **common,
            )
        ensemble = TreeEnsemble(
            trees=tuple(Tree.grow(t, _node_fields) for t in obj["trees"]),
            base_score=_json_number(obj["base_score"], "base_score"),
            learning_rate=_json_number(obj["learning_rate"], "learning_rate"),
        )
        return CalibratedModel(kind=ModelKind.GBT, trees=ensemble, **common)
    except MetacalError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: int() of an infinity, float() of a huge integer.
        raise MalformedModel(f"bad model payload: {exc}") from exc
    except RecursionError:
        raise MalformedModel("model nests too deeply") from None


def save_model(model: CalibratedModel, path: str) -> None:
    write_json(model_to_obj(model), path)


def load_model(path: str) -> CalibratedModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_obj(_parse_json(fh.read(), MalformedModel))


# ---------------------------------------------------------------------------
# Scoring and splitting
# ---------------------------------------------------------------------------


def score_with_model(model: CalibratedModel, matrix: ScoreMatrix) -> np.ndarray:
    """Meta-score every matrix row: select the model's columns by name,
    normalize through its specs, expand features, apply weights or trees."""
    try:
        order = [matrix.metric_names.index(s.name) for s in model.metric_specs]
    except ValueError:
        wanted = set(model.metric_names)
        missing = sorted(wanted - set(matrix.metric_names))
        raise ColumnMismatch(f"matrix lacks model metrics: {', '.join(missing)}") from None
    raw = matrix.values[:, order]
    normalized = normalize_values(raw, model.metric_specs)
    if model.kind is ModelKind.LINEAR:
        features = expand_matrix(normalized, model.weighting)
        return features @ np.asarray(model.weights)
    return model.trees.predict(normalized)


TRAIN_FRACTION = 0.30  # the default train share of `split_train_test` and `split_matrix`
SPARSITY_EPSILON = 0.01  # the default dropped-weight cut of `report_model`


def split_train_test(
    rows: Sequence, fraction: float = TRAIN_FRACTION, seed: int = 0
) -> tuple[list, list]:
    """Seeded shuffle-then-split; the train side takes floor(fraction * n)."""
    if not 0.0 < fraction < 1.0:
        raise MetacalError(f"train fraction must be in (0, 1), got {fraction}")
    if seed < 0:
        raise MetacalError(f"seed must be >= 0, got {seed}")
    items = list(rows)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(items))
    n_train = int(math.floor(fraction * len(items)))
    train_idx = sorted(order[:n_train].tolist())
    test_idx = sorted(order[n_train:].tolist())
    return [items[i] for i in train_idx], [items[i] for i in test_idx]


def split_matrix(
    matrix: ScoreMatrix,
    target: PreferenceTarget | None,
    fraction: float = TRAIN_FRACTION,
    seed: int = 0,
) -> tuple[
    tuple[ScoreMatrix, PreferenceTarget | None],
    tuple[ScoreMatrix, PreferenceTarget | None],
]:
    """Split a score matrix and its target by target unit, so a pair's
    members stay together; without a target, by row."""
    if target is not None:
        validate_alignment(matrix, target)
    n_units = matrix.n_examples if target is None else target.n_units
    return tuple(
        (
            matrix.take_rows(unit_rows(target, units)),
            None if target is None else target.take_units(units),
        )
        for units in split_train_test(range(n_units), fraction, seed)
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def report_model(model: CalibratedModel, epsilon: float = SPARSITY_EPSILON) -> tuple[str, dict]:
    """Human-readable text plus a JSON-ready dict of weights or importances.

    Linear models list every stored weight and flag those below `epsilon` as
    dropped; tree models list total-gain importances, largest first.
    """
    if not math.isfinite(epsilon):
        raise MetacalError(f"sparsity epsilon must be finite, got {epsilon}")
    if model.kind is ModelKind.LINEAR:
        names = expanded_feature_names(model.metric_names, model.weighting)
        weights = dict(zip(names, model.weights))
        dropped = [n for n, w in weights.items() if abs(w) < epsilon]
        obj = {
            "kind": "linear",
            "weighting": model.weighting.value,
            "objective_used": model.objective_used,
            "seed": model.seed,
            "sparsity_epsilon": float(epsilon),
            "weights": {n: float(w) for n, w in weights.items()},
            "dropped": dropped,
        }
        lines = [f"linear model ({model.weighting.value} weighting)"]
        for name, weight in weights.items():
            flag = "  [dropped]" if name in dropped else ""
            lines.append(f"  {name}: {format_float(weight)}{flag}")
    else:
        gains = feature_importance(model.trees, len(model.metric_specs)).tolist()
        ranked = sorted(zip(model.metric_names, gains), key=lambda kv: (-kv[1], kv[0]))
        obj = {
            "kind": "gbt",
            "objective_used": model.objective_used,
            "seed": model.seed,
            "n_trees": len(model.trees.trees),
            "importances": {n: float(v) for n, v in ranked},
        }
        lines = [f"gbt model ({len(model.trees.trees)} trees)"]
        for name, value in ranked:
            lines.append(f"  {name}: {format_float(value)}")
    return "\n".join(lines), obj


def report_to_obj(report: EvalReport) -> dict:
    obj: dict[str, Any] = {"version": 1}
    if report.category_accuracy is not None:
        obj["overall_accuracy"] = report.overall_accuracy
        obj["categories"] = {k: float(v) for k, v in report.category_accuracy.items()}
        return obj
    obj["avg_corr"] = report.avg_corr
    obj["avg_corr_aggregation"] = "unweighted"
    obj["tie_policy"] = report.tie_policy
    obj["datasets"] = {
        name: {
            "sys_pearson": stats.sys_pearson,
            "seg_pearson": stats.seg_pearson,
            "acc_t": stats.acc_t,
        }
        for name, stats in report.datasets.items()
    }
    return obj
