import json
import math

import numpy as np
import pytest

from rangeboost.data_model import (
    CATEGORICAL,
    NUMERIC,
    TARGET,
    ColumnSchema,
    DataTable,
    default_schema,
    load_csv,
    load_schema,
    parse_numeric,
    read_rows,
    schema_from_json,
    schema_to_json,
    split_train_test,
    write_csv,
)
from rangeboost.errors import (
    DataError,
    DegenerateSplit,
    InvalidConfig,
    MissingColumn,
    RowArity,
    UnknownColumn,
)

HEADER = "Products,Brand,Colour,Manufacturer,Price,Rating,Number of Rating,Shipment,Weight Pounds,Sales"


def write_table(tmp_path, lines, name="data.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_csv_basic(tmp_path):
    path = write_table(
        tmp_path,
        [
            HEADER,
            "computer mice,acme,grey,acme,19.99,4.5,120,3,0.2,150",
            "air fryers,zest,black,zest,89.0,4.0,50,5,11.0,900",
            "gaming keyboards,keyco,white,keyco,45.5,3.9,300,2,2.1,40",
        ],
    )
    table = load_csv(path, default_schema())
    assert table.n == 3
    assert table.column("Price")[0] == 19.99


CLEAN_LINES = [
    HEADER,
    "computer mice,acme,grey,acme,19.99,4.5,120,3,0.2,150",
    "air fryers,zest,black,zest,89.0,4.0,50,5,11.0,900",
]

# How spreadsheet tools write the clean file: a byte-order mark before the
# header, blank lines between or after the rows.
SPREADSHEET_TEXT = {
    "byte-order-mark": "\ufeff" + "\n".join(CLEAN_LINES) + "\n",
    "blank-lines": "\n".join(CLEAN_LINES[:2] + [""] + CLEAN_LINES[2:]) + "\n\n",
}


@pytest.mark.parametrize("case", sorted(SPREADSHEET_TEXT))
def test_spreadsheet_csv_loads_as_the_clean_file(case, tmp_path):
    path = tmp_path / "sheet.csv"
    path.write_text(SPREADSHEET_TEXT[case], encoding="utf-8")
    clean = load_csv(write_table(tmp_path, CLEAN_LINES), default_schema())
    assert load_csv(path, default_schema()) == clean


def test_read_rows_yields_each_row_before_reading_the_next(tmp_path):
    path = write_table(tmp_path, CLEAN_LINES + ["computer mice,acme"])
    clean = load_csv(write_table(tmp_path, CLEAN_LINES, "clean.csv"), default_schema())
    rows = read_rows(path, default_schema())
    assert (next(rows), next(rows)) == clean.rows
    with pytest.raises(RowArity, match="line 4: expected 10 fields, got 2"):
        next(rows)


def test_schema_column_named_twice_in_header_raises(tmp_path):
    path = write_table(tmp_path, ["Price," + HEADER, "1.0," + CLEAN_LINES[1]])
    with pytest.raises(DataError, match="'Price' appears more than once"):
        load_csv(path, default_schema())


def test_blank_and_na_fields_become_missing(tmp_path):
    path = write_table(
        tmp_path,
        [
            HEADER,
            "computer mice,acme,grey,acme,19.99,,120,3,0.2,150",
            "computer mice,acme,grey,acme,19.99,NA,120,3,0.2,150",
            "computer mice,acme,grey,acme,19.99,n/a,120,3,0.2,150",
        ],
    )
    table = load_csv(path, default_schema())
    assert table.column("Rating") == [None, None, None]


def test_unparseable_numeric_becomes_missing(tmp_path):
    path = write_table(
        tmp_path,
        [HEADER, "computer mice,acme,grey,acme,19.99,abc,120,3,0.2,150"],
    )
    table = load_csv(path, default_schema())
    assert table.column("Rating") == [None]
    assert table.n == 1


def test_currency_and_thousands_separators_parse():
    assert parse_numeric("$1,299.99") == 1299.99
    assert parse_numeric("  42 ") == 42.0
    assert parse_numeric("£100") == 100.0


@pytest.mark.parametrize(
    "text", ["", "   ", "na", "NA", "Na", " nA ", "n/a", "N/A", " N/a ", "$n/a", "£NA", "nan", "NaN", "inf", "-inf"]
)
def test_parse_numeric_reads_missing_tokens_and_non_finite_as_missing(text):
    assert parse_numeric(text) is None


def test_non_finite_inputs_become_missing(tmp_path):
    path = write_table(
        tmp_path,
        [
            HEADER,
            "computer mice,acme,grey,acme,nan,inf,-inf,3,0.2,150",
        ],
    )
    table = load_csv(path, default_schema())
    assert table.column("Price") == [None]
    assert table.column("Rating") == [None]
    assert table.column("Number of Rating") == [None]
    for row in table.rows:
        for cell in row:
            if isinstance(cell, float):
                assert math.isfinite(cell)


def test_missing_schema_column_raises(tmp_path):
    path = write_table(tmp_path, ["Products,Brand", "mice,acme"])
    with pytest.raises(MissingColumn) as caught:
        load_csv(path, default_schema())
    assert str(caught.value) == f"{path}: column 'Colour' not in header"


def test_row_arity_reports_line_number(tmp_path):
    path = write_table(
        tmp_path,
        [HEADER, "computer mice,acme,grey,acme,19.99,4.5,120,3,0.2,150", "short,row"],
    )
    with pytest.raises(RowArity, match="line 3"):
        load_csv(path, default_schema())


def test_column_order_free_matched_by_name(tmp_path):
    schema = (
        ColumnSchema("a", NUMERIC),
        ColumnSchema("b", CATEGORICAL),
        ColumnSchema("y", NUMERIC, TARGET),
    )
    path = write_table(tmp_path, ["y,b,a,extra", "1.5,tok,2.0,ignored"])
    table = load_csv(path, schema)
    assert table.rows[0] == (2.0, "tok", 1.5)


def test_allow_missing_target(tmp_path):
    schema = (ColumnSchema("a", NUMERIC), ColumnSchema("y", NUMERIC, TARGET))
    path = write_table(tmp_path, ["a", "1.0"])
    table = load_csv(path, schema, allow_missing_target=True)
    assert table.rows[0] == (1.0, None)
    with pytest.raises(MissingColumn):
        load_csv(path, schema)
    # A target column with no value in any row loads either way; training on it fails in fit_pipeline.
    path = write_table(tmp_path, ["a,y", "1.0,", "2.0,NA"], "empty-target.csv")
    assert load_csv(path, schema, allow_missing_target=True).rows == ((1.0, None), (2.0, None))
    assert load_csv(path, schema).rows == ((1.0, None), (2.0, None))


def test_column_stats_unknown_column():
    schema = (ColumnSchema("x", NUMERIC), ColumnSchema("y", NUMERIC, TARGET))
    table = DataTable(schema, ((1.0, 0.0),))
    with pytest.raises(UnknownColumn):
        table.column("nope")


def _toy_table(n):
    schema = (ColumnSchema("x", NUMERIC), ColumnSchema("y", NUMERIC, TARGET))
    return DataTable(schema, tuple((float(i), 0.0) for i in range(n)))


def test_split_sizes_at_catalog_scale():
    split = split_train_test(_toy_table(1565), 0.8, seed=0)
    assert len(split.train_rows) == 1252
    assert len(split.test_rows) == 313


def test_split_deterministic_for_seed():
    table = _toy_table(10)
    a = split_train_test(table, 0.8, seed=42)
    b = split_train_test(table, 0.8, seed=42)
    assert a == b
    c = split_train_test(table, 0.8, seed=43)
    assert c != a


def test_split_small_table_partitions():
    split = split_train_test(_toy_table(5), 0.8, seed=1)
    assert len(split.train_rows) == 4
    assert len(split.test_rows) == 1
    assert sorted(split.train_rows + split.test_rows) == [0, 1, 2, 3, 4]


def test_split_degenerate_cases():
    with pytest.raises(DegenerateSplit):
        split_train_test(_toy_table(1), 0.8, seed=0)
    with pytest.raises(DegenerateSplit):
        split_train_test(_toy_table(10), 0.999999, seed=0)


def test_split_partition_property():
    rng = np.random.default_rng(0)
    for n in (2, 3, 7, 10, 97, 500, 1000):
        size = int(math.floor(0.8 * n + 0.5))
        for seed in rng.integers(0, 10_000, 3):
            if size <= 0 or size >= n:
                with pytest.raises(DegenerateSplit):
                    split_train_test(_toy_table(n), 0.8, int(seed))
                continue
            split = split_train_test(_toy_table(n), 0.8, int(seed))
            combined = sorted(split.train_rows + split.test_rows)
            assert combined == list(range(n))
            assert len(split.train_rows) == size


def test_csv_round_trip(tmp_path):
    schema = (
        ColumnSchema("name", CATEGORICAL),
        ColumnSchema("x", NUMERIC),
        ColumnSchema("y", NUMERIC, TARGET),
    )
    table = DataTable(
        schema,
        (
            ("plain", 1.5, 10.0),
            ('with, comma and "quote"', None, 0.125),
            (None, 0.1 + 0.2, None),
        ),
    )
    path = tmp_path / "round.csv"
    write_csv(table, path)
    reloaded = load_csv(path, schema)
    assert reloaded == table


def test_csv_round_trip_of_numpy_floats(tmp_path):
    """A numpy float is a float to DataTable, and write_csv writes its
    shortest round-trip text, not its repr."""
    schema = (ColumnSchema("x", NUMERIC), ColumnSchema("y", NUMERIC, TARGET))
    rows = ((np.float64(0.1), 1.0), (np.float64(1e300), np.float64(0.1) + np.float64(0.2)), (None, np.float64(-3)))
    path = tmp_path / "numpy.csv"
    write_csv(DataTable(schema, rows), path)
    assert load_csv(path, schema).rows == ((0.1, 1.0), (1e300, 0.1 + 0.2), (None, -3.0))


def test_schema_validation():
    with pytest.raises(InvalidConfig):
        schema_from_json([{"name": "a", "kind": NUMERIC}])  # no target
    with pytest.raises(InvalidConfig):
        DataTable(
            (
                ColumnSchema("a", NUMERIC),
                ColumnSchema("a", NUMERIC),
                ColumnSchema("y", NUMERIC, TARGET),
            ),
            (),
        )
    with pytest.raises(InvalidConfig):
        ColumnSchema("a", "integer")


def test_table_row_of_the_wrong_arity_raises():
    row = ("computer mice", "acme", "grey", "acme", 19.99, 4.5, 120.0, 3.0, 0.2, 150.0)
    with pytest.raises(RowArity, match="row 1: expected 10 cells, got 9"):
        DataTable(default_schema(), (row, row[:-1]))


def test_schema_target_must_be_numeric():
    """The target is regressed on and binned, so a categorical one is a
    config error naming the column, wherever a schema is checked."""
    schema = (ColumnSchema("Size", CATEGORICAL), ColumnSchema("Sales", CATEGORICAL, TARGET))
    with pytest.raises(InvalidConfig, match="'Sales'"):
        schema_from_json(schema_to_json(schema))
    with pytest.raises(InvalidConfig, match="'Sales'"):
        DataTable(schema, ())
    assert ColumnSchema("Size", CATEGORICAL, TARGET).role == TARGET  # one column is not a schema


def test_schema_json_round_trip(tmp_path):
    schema = default_schema()
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(schema_to_json(schema)), encoding="utf-8")
    assert load_schema(path) == schema
    assert schema_from_json(schema_to_json(schema)) == schema
