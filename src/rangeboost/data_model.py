"""Column-typed tabular dataset: CSV ingestion and train/test split.

Cells are plain Python values: ``float`` for numeric, ``str`` for categorical,
``None`` for missing.  Tables are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from .errors import (
    DataError,
    DegenerateSplit,
    InvalidConfig,
    MissingColumn,
    RowArity,
    UnknownColumn,
)
from .jsondoc import check_fields, check_value, read_json, to_doc

NUMERIC = "numeric"
CATEGORICAL = "categorical"
FEATURE = "feature"
TARGET = "target"

# Tokens read as a missing cell, compared case-insensitively after trimming.
MISSING_TOKENS = frozenset({"", "na", "n/a"})

_CURRENCY_SYMBOLS = "$£€¥"


@dataclass(frozen=True)
class ColumnSchema:
    """One column: its name, value kind, and model role."""

    name: str
    kind: Literal[NUMERIC, CATEGORICAL]
    role: Literal[FEATURE, TARGET] = FEATURE

    def __post_init__(self):
        check_fields(self, InvalidConfig)
        if not self.name:
            raise InvalidConfig("column name must be non-empty")


def _check_schema(schema: Sequence[ColumnSchema]) -> tuple[ColumnSchema, ...]:
    cols = tuple(schema)
    names = [c.name for c in cols]
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise InvalidConfig(f"duplicate column names in schema: {dup}")
    targets = [c for c in cols if c.role == TARGET]
    if len(targets) != 1:
        raise InvalidConfig(f"schema must have exactly one target column, found {len(targets)}")
    if targets[0].kind != NUMERIC:
        raise InvalidConfig(f"target column {targets[0].name!r} must be numeric")
    return cols


@dataclass(frozen=True)
class DataTable:
    """Immutable rows of cells conforming to an ordered column schema."""

    schema: tuple[ColumnSchema, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self):
        object.__setattr__(self, "schema", _check_schema(self.schema))
        width = len(self.schema)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise RowArity(f"row {i}: expected {width} cells, got {len(row)}")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.schema)

    def column(self, name: str) -> list:
        for j, c in enumerate(self.schema):
            if c.name == name:
                return [row[j] for row in self.rows]
        raise UnknownColumn(name)

    def target_schema(self) -> ColumnSchema:
        return next(c for c in self.schema if c.role == TARGET)

    def subset(self, indices: Iterable[int]) -> "DataTable":
        return DataTable(self.schema, tuple(self.rows[i] for i in indices))


@dataclass(frozen=True)
class SplitIndices:
    """Row-index partition of a table into a train part and a test part."""

    train_rows: tuple[int, ...]
    test_rows: tuple[int, ...]


def default_schema() -> tuple[ColumnSchema, ...]:
    """Product-listing schema: nine feature columns plus a Sales target."""
    return (
        ColumnSchema("Products", CATEGORICAL),
        ColumnSchema("Brand", CATEGORICAL),
        ColumnSchema("Colour", CATEGORICAL),
        ColumnSchema("Manufacturer", CATEGORICAL),
        ColumnSchema("Price", NUMERIC),
        ColumnSchema("Rating", NUMERIC),
        ColumnSchema("Number of Rating", NUMERIC),
        ColumnSchema("Shipment", NUMERIC),
        ColumnSchema("Weight Pounds", NUMERIC),
        ColumnSchema("Sales", NUMERIC, TARGET),
    )


def parse_numeric(text: str) -> float | None:
    """Parse a numeric cell; currency symbols and thousands separators are
    tolerated.  Anything unparseable or non-finite is missing."""
    s = text.strip()
    try:  # the missing tokens fail both attempts too
        value = float(s)
    except ValueError:
        stripped = s.lstrip(_CURRENCY_SYMBOLS).replace(",", "").strip()
        try:
            value = float(stripped)
        except ValueError:
            return None
    return value if math.isfinite(value) else None


def parse_categorical(text: str) -> str | None:
    s = text.strip()
    if s.lower() in MISSING_TOKENS:
        return None
    return s


# Distinct texts a column's parse memo may hold.  A repeat costs about
# half a parse and a new text about three, so a memo this full (a product
# title, a price) is dropped and its column parses each cell again.
MEMO_TEXTS = 4096


class _ParseMemo(dict):
    """One column's cell text -> parsed value, so each distinct text is
    parsed once and its repeats share one value."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, text):
        value = self[text] = self.parse(text)
        return value


def _unless_full(parse):
    """``parse``, or the bare parser of a memo that holds ``MEMO_TEXTS`` texts."""
    memo = getattr(parse, "__self__", None)
    return memo.parse if isinstance(memo, _ParseMemo) and len(memo) >= MEMO_TEXTS else parse


def read_rows(path, schema: Sequence[ColumnSchema], allow_missing_target: bool = False) -> Iterator[tuple]:
    """Yield the rows of a UTF-8, comma-delimited CSV as tuples of cells in
    ``schema`` order, one at a time.

    Column order in the file is free; columns are matched by header name,
    and each may appear once.  A leading byte-order mark and blank lines
    are skipped.  With ``allow_missing_target`` the target column may be
    absent from the file (all its cells load as missing), which is what
    prediction-time inputs look like.  The file is opened and its header
    checked at the first ``next``; a bad row raises when it is reached.
    Each column parses a distinct text once, through a memo, until the
    memo holds ``MEMO_TEXTS`` texts; from the next multiple of
    ``MEMO_TEXTS`` lines on, that column parses every cell.  The rows are
    those of parsing every cell.
    """
    schema = _check_schema(schema)
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with handle:
        try:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise MissingColumn(f"{path}: file has no header row")
            # One (field position, parser) pair per schema column, in schema order.
            parsers = []
            for col in schema:
                if header.count(col.name) > 1:
                    raise DataError(f"{path}: column {col.name!r} appears more than once in the header")
                if col.name in header:
                    parse = parse_numeric if col.kind == NUMERIC else parse_categorical
                    parsers.append((header.index(col.name), _ParseMemo(parse).__getitem__))
                elif col.role == TARGET and allow_missing_target:
                    parsers.append((0, lambda text: None))  # every row read has a field 0
                else:
                    raise MissingColumn(f"{path}: column {col.name!r} not in header")
            for count, fields in enumerate(reader):
                # A memo kept at a check gains at most MEMO_TEXTS texts
                # before the next, so none holds 2 * MEMO_TEXTS.
                if count % MEMO_TEXTS == 0:
                    parsers = [(pos, _unless_full(parse)) for pos, parse in parsers]
                if not fields:  # a blank line
                    continue
                if len(fields) != len(header):
                    raise RowArity(
                        f"line {reader.line_num}: expected {len(header)} fields, got {len(fields)}"
                    )
                yield tuple([parse(fields[pos]) for pos, parse in parsers])
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"{path}: {exc}") from exc


def load_csv(path, schema: Sequence[ColumnSchema], allow_missing_target: bool = False) -> DataTable:
    """Read a whole CSV into a DataTable; see ``read_rows`` for the format."""
    return DataTable(schema, tuple(read_rows(path, schema, allow_missing_target)))


def write_csv(table: DataTable, path) -> None:
    """Write a DataTable back to CSV.  ``csv.writer`` writes a missing cell
    as an empty field and a number as its ``str``, for a float the shortest
    text that ``load_csv`` reads back to the same value."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.column_names)
        writer.writerows(table.rows)


def split_train_test(table: DataTable, train_fraction: float = 0.8, seed: int = 0) -> SplitIndices:
    """Seeded random permutation split; the first round(fraction*n) indices
    (half-up rounding) form the train side."""
    n = table.n
    if n < 2:
        raise DegenerateSplit(f"cannot split {n} rows")
    size = math.floor(train_fraction * n + 0.5)  # half up
    if size <= 0 or size >= n:
        raise DegenerateSplit(
            f"train_fraction={train_fraction} on n={n} leaves an empty side"
        )
    perm = np.random.default_rng(seed).permutation(n)
    return SplitIndices(
        train_rows=tuple(int(i) for i in perm[:size]),
        test_rows=tuple(int(i) for i in perm[size:]),
    )


def schema_to_json(schema: Sequence[ColumnSchema]) -> list[dict]:
    return to_doc(tuple(schema))


def schema_from_json(doc) -> tuple[ColumnSchema, ...]:
    return _check_schema(check_value(doc, tuple[ColumnSchema, ...], InvalidConfig, "schema"))


def load_schema(path) -> tuple[ColumnSchema, ...]:
    return schema_from_json(read_json(path, "schema", InvalidConfig))
