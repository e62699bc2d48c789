import tracemalloc
from collections import Counter

import numpy as np
import pytest

from rangeboost import feature_pipeline
from rangeboost.data_model import (
    CATEGORICAL,
    NUMERIC,
    TARGET,
    ColumnSchema,
    DataTable,
    default_schema,
)
from rangeboost.errors import EmptyTrain, InvalidConfig, SchemaMismatch
from rangeboost.eval_harness import SyntheticSpec, generate_synthetic
from rangeboost.feature_pipeline import (
    ColorLexicon,
    ColorNormalize,
    CrossFill,
    HierarchicalMean,
    ImputationPlan,
    ZeroFill,
    default_plan,
    fit_pipeline,
    normalize_color,
    state_from_json,
    state_to_json,
    transform,
)


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("dark grey", "grey"),
        ("black/red", "composite"),
        ("red, white & blue", "colourful"),
        ("grey", "grey"),
        ("Matte Black", "black"),
        ("black and silver and grey", "colourful"),
        ("black/mystery", "composite"),
        ("slate", "slate"),
        ("light blue", "blue"),
    ],
)
def test_normalize_color(raw, expected):
    assert normalize_color(raw) == expected


def test_normalize_color_idempotent():
    pool = [
        "dark grey",
        "black/red",
        "red, white & blue",
        "grey",
        "slate",
        "Burgundy Wine",
        "matte black",
        "white/gold",
        "a & b & c & d",
    ]
    for raw in pool:
        once = normalize_color(raw)
        assert normalize_color(once) == once


def _product_table(rows):
    return DataTable(default_schema(), tuple(rows))


def _row(
    products="computer mice",
    brand="acme",
    colour="grey",
    manufacturer="acme",
    price=20.0,
    rating=4.0,
    n_rating=100.0,
    shipment=3.0,
    weight=0.5,
    sales=100.0,
):
    return (products, brand, colour, manufacturer, price, rating, n_rating, shipment, weight, sales)


def test_fit_collects_sorted_vocabularies_and_layout():
    table = _product_table([_row(colour="grey"), _row(colour="black/red")])
    state = fit_pipeline(table)
    assert state.vocabularies["Colour"] == ("composite", "grey")
    assert state.layout[:5] == ("Price", "Rating", "Number of Rating", "Shipment", "Weight Pounds")
    assert "Colour=grey" in state.layout
    assert "Colour=composite" in state.layout


def test_fit_stores_group_means():
    table = _product_table(
        [
            _row(brand="brandA", products="computer mice", shipment=2.0),
            _row(brand="brandA", products="computer mice", shipment=4.0),
            _row(brand="brandB", products="air fryers", shipment=10.0),
        ]
    )
    state = fit_pipeline(table)
    brand_tier = state.group_means["Shipment"][0]
    assert brand_tier[("brandA", "computer mice")] == 3.0
    product_tier = state.group_means["Shipment"][1]
    assert product_tier[("computer mice",)] == 3.0
    global_tier = state.group_means["Shipment"][2]
    assert global_tier[()] == pytest.approx(16.0 / 3.0)


def test_all_missing_column_transforms_to_zero():
    table = _product_table([_row(weight=None), _row(weight=None)])
    state = fit_pipeline(table)
    assert state.group_means["Weight Pounds"] == ({}, {}, {})
    matrix, _ = transform(table, state)
    weight_col = state.layout.index("Weight Pounds")
    assert np.all(matrix[:, weight_col] == 0.0)


def test_zero_fill_on_rating_and_target():
    table = _product_table([_row(rating=None, sales=None), _row()])
    state = fit_pipeline(table)
    matrix, target = transform(table, state)
    assert matrix[0, state.layout.index("Rating")] == 0.0
    assert target[0] == 0.0
    assert target[1] == 100.0


def test_cross_fill_brand_from_manufacturer():
    table = _product_table(
        [
            _row(brand=None, manufacturer="Acme"),
            _row(brand="zest", manufacturer="zest"),
        ]
    )
    state = fit_pipeline(table)
    assert "Acme" in state.vocabularies["Brand"]
    matrix, _ = transform(table, state)
    col = state.layout.index("Brand=Acme")
    assert matrix[0, col] == 1.0


def test_cross_fill_both_missing_becomes_unknown():
    table = _product_table([_row(brand=None, manufacturer=None), _row()])
    state = fit_pipeline(table)
    assert "unknown" in state.vocabularies["Brand"]
    assert "unknown" in state.vocabularies["Manufacturer"]
    matrix, _ = transform(table, state)
    assert matrix[0, state.layout.index("Brand=unknown")] == 1.0


def test_hierarchical_fallback_to_product_tier():
    table = _product_table(
        [
            _row(brand="brandA", products="gaming keyboards", weight=None),
            _row(brand="brandB", products="gaming keyboards", weight=2.5),
            _row(brand="brandB", products="gaming keyboards", weight=3.5),
        ]
    )
    state = fit_pipeline(table)
    matrix, _ = transform(table, state)
    # no (brandA, keyboards) mean exists, so the product-tier mean applies
    assert matrix[0, state.layout.index("Weight Pounds")] == 3.0


def test_unseen_category_encodes_to_zero_block():
    train = _product_table([_row(colour="grey"), _row(colour="black")])
    state = fit_pipeline(train)
    # an unseen and a missing colour between seen ones
    test = _product_table(
        [_row(colour="teal"), _row(colour="black"), _row(colour=None), _row(colour="grey")]
    )
    matrix, _ = transform(test, state)
    assert state.vocabularies["Colour"] == ("black", "grey")
    colour_cols = [state.layout.index("Colour=black"), state.layout.index("Colour=grey")]
    expected = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(matrix[:, colour_cols], expected)


def test_missing_colour_encodes_to_zero_block():
    train = _product_table([_row(colour="grey"), _row(colour="black")])
    state = fit_pipeline(train)
    test = _product_table([_row(colour=None)])
    matrix, _ = transform(test, state)
    colour_cols = [j for j, name in enumerate(state.layout) if name.startswith("Colour=")]
    assert matrix[:, colour_cols].sum() == 0.0


def test_indicator_block_sums_are_zero_or_one():
    rng = np.random.default_rng(3)
    colours = ["grey", "black/red", None, "teal", "dark grey", "red, white & blue"]
    rows = [
        _row(
            colour=colours[rng.integers(0, len(colours))],
            brand=None if rng.random() < 0.4 else f"brand{rng.integers(0, 3)}",
            manufacturer=None if rng.random() < 0.4 else f"brand{rng.integers(0, 3)}",
        )
        for _ in range(40)
    ]
    table = _product_table(rows)
    state = fit_pipeline(table)
    matrix, _ = transform(table, state)
    for col in ("Products", "Brand", "Colour", "Manufacturer"):
        block = [j for j, name in enumerate(state.layout) if name.startswith(f"{col}=")]
        sums = matrix[:, block].sum(axis=1)
        assert set(np.unique(sums)) <= {0.0, 1.0}


def test_transform_always_dense_and_finite():
    rows = [_row(price=None, rating=None, n_rating=None, shipment=None, weight=None,
                 brand=None, manufacturer=None, colour=None, sales=None)] * 3 + [_row()]
    table = _product_table(rows)
    state = fit_pipeline(table)
    matrix, target = transform(table, state)
    assert matrix.shape == (4, len(state.layout))
    assert np.isfinite(matrix).all()
    assert np.isfinite(target).all()


def test_transform_on_row_shards_matches_whole_table():
    rows = [
        _row(price=float(i), colour=c, sales=float(i))
        for i, c in enumerate(["grey", "black/red", "teal", "dark grey"] * 5)
    ]
    table = _product_table(rows)
    state = fit_pipeline(table)
    whole, targets = transform(table, state)
    first, t_first = transform(table.subset(range(0, 10)), state)
    second, t_second = transform(table.subset(range(10, 20)), state)
    assert np.array_equal(np.vstack([first, second]), whole)
    assert np.array_equal(np.concatenate([t_first, t_second]), targets)


def test_each_distinct_colour_normalized_once(monkeypatch):
    raws = ["grey", "Dark Grey", None, "black/red", "grey", "teal", "Dark Grey", None, "grey"] * 3
    table = _product_table([_row(colour=c) for c in raws])
    per_row = [None if c is None else normalize_color(c) for c in raws]
    vocabulary = sorted({c for c in per_row if c is not None})

    calls = Counter()

    def counted(raw, lexicon=None):
        calls[raw] += 1
        return normalize_color(raw, lexicon)

    monkeypatch.setattr(feature_pipeline, "normalize_color", counted)
    once = Counter({c: 1 for c in raws if c is not None})
    state = fit_pipeline(table)
    assert calls == once
    calls.clear()
    matrix, _ = transform(table, state)
    assert calls == once

    assert list(state.vocabularies["Colour"]) == vocabulary
    block = [state.layout.index(f"Colour={c}") for c in vocabulary]
    expected = np.array([[float(c == v) for v in vocabulary] for c in per_row])
    assert np.array_equal(matrix[:, block], expected)


def test_transform_reads_each_column_once(monkeypatch):
    """A cross-fill partner is taken from its own column's read, so a
    default-plan transform builds each of the ten columns once."""
    table = _product_table([_row(), _row(brand=None), _row(manufacturer=None, price=None)])
    state = fit_pipeline(table)
    calls = Counter()
    column = DataTable.column

    def counted(self, name):
        calls[name] += 1
        return column(self, name)

    monkeypatch.setattr(DataTable, "column", counted)
    transform(table, state)
    assert calls == Counter(table.column_names)


def test_transform_holds_one_matrix():
    """Every column is written into the one result: the peak memory of a
    transform stays within 1.5 times the matrix (a copy of it would be 2)."""
    table = generate_synthetic(SyntheticSpec(n_products=2000, seed=3))
    state = fit_pipeline(table)
    tracemalloc.start()
    try:
        matrix, _ = transform(table, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.flags.c_contiguous and matrix.dtype == np.float64
    assert matrix.shape == (2000, len(state.layout))
    assert peak <= 1.5 * matrix.nbytes


def _encode(schema, plan, train_rows, rows):
    state = fit_pipeline(DataTable(schema, train_rows), plan=ImputationPlan(plan))
    matrix, target = transform(DataTable(schema, rows), state)
    assert matrix.flags.c_contiguous and matrix.dtype == np.float64
    assert matrix.shape == (len(rows), len(state.layout))
    return state.layout, matrix.tolist(), target.tolist()


def test_transform_without_numeric_features():
    schema = (
        ColumnSchema("Colour", CATEGORICAL),
        ColumnSchema("Brand", CATEGORICAL),
        ColumnSchema("Sales", NUMERIC, TARGET),
    )
    plan = {"Colour": ColorNormalize(), "Brand": CrossFill(), "Sales": ZeroFill()}
    train_rows = (("grey", "acme", 10.0), ("black/red", None, None), (None, "zeta", 3.0))
    rows = train_rows + (("teal", "newco", 1.0),)
    assert _encode(schema, plan, train_rows, rows) == (
        ("Colour=composite", "Colour=grey", "Brand=acme", "Brand=unknown", "Brand=zeta"),
        [[0.0, 1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0],
         [0.0, 0.0, 0.0, 0.0, 0.0]],
        [10.0, 0.0, 3.0, 1.0],
    )


def test_transform_without_categorical_features():
    schema = (
        ColumnSchema("Price", NUMERIC),
        ColumnSchema("Rating", NUMERIC),
        ColumnSchema("Sales", NUMERIC, TARGET),
    )
    plan = {"Price": HierarchicalMean(tiers=((),)), "Rating": ZeroFill(), "Sales": ZeroFill()}
    rows = ((2.0, None, 5.0), (None, 4.5, None), (4.0, 3.0, 1.0))
    assert _encode(schema, plan, rows, rows) == (
        ("Price", "Rating"),
        [[2.0, 0.0], [3.0, 4.5], [4.0, 3.0]],
        [5.0, 0.0, 1.0],
    )


def test_fit_transform_deterministic():
    rows = [_row(price=float(i), sales=float(i * 10)) for i in range(25)]
    table = _product_table(rows)
    a_state = fit_pipeline(table)
    b_state = fit_pipeline(table)
    a, _ = transform(table, a_state)
    b, _ = transform(table, b_state)
    assert a.tobytes() == b.tobytes()


def test_empty_train_raises():
    with pytest.raises(EmptyTrain):
        fit_pipeline(_product_table([]))


def test_schema_mismatch_raises():
    state = fit_pipeline(_product_table([_row()]))
    other_schema = (
        ColumnSchema("x", NUMERIC),
        ColumnSchema("y", NUMERIC, TARGET),
    )
    other = DataTable(other_schema, ((1.0, 2.0),))
    with pytest.raises(SchemaMismatch):
        transform(other, state)


def test_plan_validation():
    schema = default_schema()
    bad = ImputationPlan(strategies={c.name: ZeroFill() for c in schema})
    with pytest.raises(InvalidConfig):
        fit_pipeline(DataTable(schema, (_row(),)), plan=bad)
    base = default_plan().strategies
    missing = ImputationPlan(strategies={k: v for k, v in base.items() if k != "Price"})
    with pytest.raises(InvalidConfig):
        fit_pipeline(DataTable(schema, (_row(),)), plan=missing)
    cross_to_numeric = ImputationPlan(strategies={**base, "Brand": CrossFill(partner="Price")})
    with pytest.raises(InvalidConfig):
        fit_pipeline(DataTable(schema, (_row(),)), plan=cross_to_numeric)
    bad_tier = ImputationPlan(strategies={**base, "Shipment": HierarchicalMean(tiers=(("Price",),))})
    with pytest.raises(InvalidConfig):
        fit_pipeline(DataTable(schema, (_row(),)), plan=bad_tier)


def test_state_json_round_trip():
    table = _product_table(
        [
            _row(colour="dark grey", brand=None, manufacturer="Acme"),
            _row(colour="black/red", weight=None),
            _row(colour="teal", shipment=None),
        ]
    )
    state = fit_pipeline(table)
    restored = state_from_json(state_to_json(state))
    assert restored.layout == state.layout
    assert restored.vocabularies == state.vocabularies
    assert restored.group_means == state.group_means
    a, ta = transform(table, state)
    b, tb = transform(table, restored)
    assert a.tobytes() == b.tobytes()
    assert ta.tobytes() == tb.tobytes()


def test_lexicon_validation():
    with pytest.raises(InvalidConfig):
        ColorLexicon(base_colors=frozenset())
    with pytest.raises(InvalidConfig):
        ColorLexicon(multi_color_delimiters=())
    with pytest.raises(InvalidConfig):
        ColorLexicon(multi_color_delimiters=("/", ""))
