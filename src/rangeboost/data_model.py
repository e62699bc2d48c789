"""Column-typed tabular dataset: CSV ingestion and train/test split.

Cells are plain Python values: ``float`` for numeric, ``str`` for categorical,
``None`` for missing.  Tables are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DataError,
    DegenerateSplit,
    InvalidConfig,
    MissingColumn,
    RowArity,
    UnknownColumn,
)
from .jsondoc import from_doc, read_json, to_doc

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
    kind: str
    role: str = FEATURE

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise InvalidConfig(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.role not in (FEATURE, TARGET):
            raise InvalidConfig(f"column {self.name!r}: unknown role {self.role!r}")
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

    def column_index(self, name: str) -> int:
        for i, c in enumerate(self.schema):
            if c.name == name:
                return i
        raise UnknownColumn(name)

    def column(self, name: str) -> list:
        j = self.column_index(name)
        return [row[j] for row in self.rows]

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
    if s.lower() in MISSING_TOKENS:
        return None
    try:
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


def load_csv(path, schema: Sequence[ColumnSchema], allow_missing_target: bool = False) -> DataTable:
    """Read a UTF-8, comma-delimited CSV into a DataTable.

    Column order in the file is free; columns are matched by header name,
    and each may appear once.  A leading byte-order mark and blank lines
    are skipped.  Without ``allow_missing_target`` some row must have a
    target value; with it the target column may be absent from the file
    (all its cells load as missing), which is what prediction-time inputs
    look like.
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
            positions: dict[str, int | None] = {}
            for col in schema:
                if header.count(col.name) > 1:
                    raise DataError(f"{path}: column {col.name!r} appears more than once in the header")
                if col.name in header:
                    positions[col.name] = header.index(col.name)
                elif col.role == TARGET and allow_missing_target:
                    positions[col.name] = None
                else:
                    raise MissingColumn(col.name)
            rows = []
            for fields in reader:
                if not fields:  # a blank line
                    continue
                if len(fields) != len(header):
                    raise RowArity(
                        f"line {reader.line_num}: expected {len(header)} fields, got {len(fields)}"
                    )
                cells = []
                for col in schema:
                    pos = positions[col.name]
                    if pos is None:
                        cells.append(None)
                    elif col.kind == NUMERIC:
                        cells.append(parse_numeric(fields[pos]))
                    else:
                        cells.append(parse_categorical(fields[pos]))
                rows.append(tuple(cells))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"{path}: {exc}") from exc
    target = next(i for i, col in enumerate(schema) if col.role == TARGET)
    if rows and not allow_missing_target and all(row[target] is None for row in rows):
        raise DataError(f"{path}: target column {schema[target].name!r} has no value in any row")
    return DataTable(schema, tuple(rows))


def write_csv(table: DataTable, path) -> None:
    """Write a DataTable back to CSV.  ``csv.writer`` writes a missing cell
    as an empty field and a number as its ``str``, for a float the shortest
    text that ``load_csv`` reads back to the same value."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.column_names)
        writer.writerows(table.rows)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def split_train_test(table: DataTable, train_fraction: float = 0.8, seed: int = 0) -> SplitIndices:
    """Seeded random permutation split; the first round(fraction*n) indices
    (half-up rounding) form the train side."""
    n = table.n
    if n < 2:
        raise DegenerateSplit(f"cannot split {n} rows")
    size = _round_half_up(train_fraction * n)
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
    if not isinstance(doc, list) or not doc:
        raise InvalidConfig("schema document must be a non-empty list of columns")
    return _check_schema(from_doc(ColumnSchema, entry, InvalidConfig, "schema entry") for entry in doc)


def load_schema(path) -> tuple[ColumnSchema, ...]:
    return schema_from_json(read_json(path, "schema", InvalidConfig))


def save_schema(schema: Sequence[ColumnSchema], path) -> None:
    Path(path).write_text(json.dumps(schema_to_json(schema), indent=2) + "\n", encoding="utf-8")
