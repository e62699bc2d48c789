import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangeboost.errors import InvalidConfig, NegativeValue, NonFiniteInput
from rangeboost.range_binning import (
    BinSpec,
    apply_binning,
    bin_of,
    bins_from_json,
    bins_to_json,
    default_bins,
    target_bins,
)


def test_default_bins_shape():
    spec = default_bins()
    assert spec.n_bins == 8
    assert spec.labels[0] == "0-50"
    assert spec.labels[-1] == "5000-10000"


def test_default_bins_tile_the_full_range():
    spec = default_bins()
    # consecutive ranges with no gap or overlap, covering [0, 10000]
    assert spec.edges[0] == 0.0
    assert spec.edges[-1] == 10000.0
    for lo, hi in zip(spec.edges, spec.edges[1:]):
        assert lo < hi
    parsed = [tuple(float(p) for p in label.split("-")) for label in spec.labels]
    assert [p[0] for p in parsed] == list(spec.edges[:-1])
    assert [p[1] for p in parsed] == list(spec.edges[1:])
    # the inserted range closing the listed gap
    assert spec.edges[3] == 300.0 and spec.edges[4] == 500.0


@pytest.mark.parametrize(
    "value,expected",
    [(75, 1), (0, 0), (400, 3), (12000, 7), (49.999, 0), (9999.5, 7)],
)
def test_bin_of(value, expected):
    assert bin_of(value) == expected


def test_bin_of_lower_edges_map_to_own_bins():
    spec = default_bins()
    assert [bin_of(e, spec) for e in spec.edges[:-1]] == list(range(8))
    assert apply_binning([50, 100, 300, 500, 1000, 3000, 5000]) == [1, 2, 3, 4, 5, 6, 7]


def test_bin_of_negative_raises():
    with pytest.raises(NegativeValue):
        bin_of(-1)


def test_apply_binning():
    assert apply_binning([0, 75, 9999]) == [0, 1, 7]
    assert apply_binning([]) == []
    with pytest.raises(NegativeValue, match="index 2"):
        apply_binning([1, 2, -3])


def test_nan_sales_volume_raises_and_inf_clamps():
    # NaN compares false to every edge, so it must not fall through to the top bin
    with pytest.raises(NonFiniteInput):
        bin_of(float("nan"))
    with pytest.raises(NonFiniteInput, match="index 1"):
        apply_binning([5.0, float("nan")])
    assert bin_of(float("inf")) == 7
    assert apply_binning([float("inf"), 5.0]) == [7, 0]


def test_bin_of_monotone_on_sweep():
    spec = default_bins()
    values = np.linspace(0, 12000, 4001)
    indices = [bin_of(v, spec) for v in values]
    assert all(a <= b for a, b in zip(indices, indices[1:]))


def test_labels_bound_their_values():
    spec = default_bins()
    rng = np.random.default_rng(5)
    for v in rng.uniform(0, 10000, 500):
        lo, hi = (float(p) for p in spec.labels[bin_of(v, spec)].split("-"))
        assert lo <= v < hi or (v == hi == spec.edges[-1])


def test_custom_bins_validation():
    with pytest.raises(InvalidConfig):
        BinSpec(edges=(0, 10, 10))
    with pytest.raises(InvalidConfig):
        BinSpec(edges=(0, 10), labels=("a", "b"))
    with pytest.raises(InvalidConfig):
        BinSpec(edges=(5,))
    with pytest.raises(InvalidConfig, match="first bin edge"):
        BinSpec(edges=(10, 20, 30))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    edges=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=6, unique=True),
    value=st.floats(0, 1e7),
)
def test_bin_of_never_returns_a_negative_bin(edges, value):
    """Every bin spec the constructor accepts puts every sales volume in one
    of its bins."""
    try:
        spec = BinSpec(edges=sorted(edges))
    except InvalidConfig:
        return
    assert 0 <= bin_of(value, spec) < spec.n_bins
    assert 0 <= apply_binning([value], spec)[0] < spec.n_bins


def test_custom_bins_derive_labels_and_round_trip():
    spec = BinSpec(edges=(0, 10, 100))
    assert spec.labels == ("0-10", "10-100")
    assert bins_from_json(bins_to_json(spec)) == spec
    assert bin_of(10, spec) == 1
    assert bin_of(250, spec) == 1


def test_target_bins_is_the_one_target_rule():
    custom = BinSpec((0.0, 10.0))
    assert target_bins("binned_range", custom, "config") is custom
    assert target_bins("binned_range", None, "config") == default_bins()
    assert target_bins("raw_sales", None, "config") is None
    with pytest.raises(InvalidConfig, match=r"^config\.bins: raw_sales targets are not binned"):
        target_bins("raw_sales", custom, "config")
    for mode in ("banana", None, 42, "RAW_SALES"):
        with pytest.raises(InvalidConfig, match="unknown target mode"):
            target_bins(mode, None, "config")
