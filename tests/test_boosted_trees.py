import gc
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import enumerate_best_split, golden_section_minimize, leaf_objective, reference_train
from spoiled_matrices import SPOILED_MATRICES
from rangeboost import boosted_trees
from rangeboost.baseline_models import GbdtBaselineConfig, fit_gbdt_first_order
from rangeboost.data_model import DataTable
from rangeboost.eval_harness import SyntheticSpec, generate_synthetic
from rangeboost.feature_pipeline import fit_pipeline, transform
from rangeboost.boosted_trees import (
    Branch,
    Ensemble,
    Leaf,
    RegressionTree,
    TrainConfig,
    find_best_split,
    from_json,
    grow_tree,
    leaf_weight,
    objective_value,
    to_json,
    train,
)
from rangeboost.errors import (
    DegenerateLeaf,
    EmptyData,
    InvalidConfig,
    LayoutMismatch,
    LengthMismatch,
    MalformedModel,
    NonFiniteInput,
)


def test_leaf_weight_closed_forms():
    assert leaf_weight(2.0, 3.0, 1.0) == -0.5
    assert leaf_weight(0.0, 5.0, 0.0) == 0.0
    assert leaf_weight(-4.0, 2.0, 2.0) == 1.0


def test_leaf_weight_matches_numeric_minimizer():
    expected = golden_section_minimize(
        lambda w: leaf_objective(1.7, 2.3, 0.5, w), -100.0, 100.0
    )
    assert leaf_weight(1.7, 2.3, 0.5) == pytest.approx(expected, abs=1e-6)


def test_leaf_weight_random_against_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        g = float(rng.uniform(-10, 10))
        h = float(rng.uniform(0.2, 10))
        lam = float(rng.uniform(0, 5))
        expected = golden_section_minimize(
            lambda w: leaf_objective(g, h, lam, w), -100.0, 100.0
        )
        assert leaf_weight(g, h, lam) == pytest.approx(expected, abs=1e-6)


def test_leaf_weight_degenerate():
    with pytest.raises(DegenerateLeaf):
        leaf_weight(1.0, 0.0, 0.0)


def test_split_gain_matches_objective_difference():
    # A split's gain is the parent leaf's objective at its optimal weight
    # minus the two children's, net of gamma; lambda = 0 included.
    rng = np.random.default_rng(4)
    found = 0
    for _ in range(300):
        n = int(rng.integers(2, 30))
        matrix = rng.integers(0, 5, size=(n, int(rng.integers(1, 4)))).astype(np.float64)
        rows = np.arange(n)
        grad = rng.uniform(-10, 10, n)
        lam = float(rng.choice([0.0, rng.uniform(0, 5)]))
        gamma = float(rng.uniform(0, 2))
        config = TrainConfig(reg_lambda=lam, gamma=gamma, min_child_weight=0.0)
        split = find_best_split(rows, matrix, grad, config)
        if split is None:
            continue
        found += 1
        left = matrix[rows, split.feature] < split.threshold
        parent = _leaf_optimum(grad, lam)
        children = _leaf_optimum(grad[left], lam) + _leaf_optimum(grad[~left], lam)
        assert split.gain == pytest.approx(parent - children - gamma, abs=1e-9)
    assert found > 200


def _leaf_optimum(grad, lam):
    """Objective of one leaf holding ``grad`` (unit hessians) at its weight."""
    g, h = float(np.sum(grad)), float(grad.size)
    return leaf_objective(g, h, lam, leaf_weight(g, h, lam))


def _grad_for(targets, prediction=0.0):
    y = np.asarray(targets, dtype=np.float64)
    return np.full_like(y, prediction) - y


def test_find_best_split_step_fixture():
    matrix = np.array([[1.0], [2.0], [3.0], [4.0]])
    grad = _grad_for([0.0, 0.0, 1.0, 1.0])
    config = TrainConfig(reg_lambda=0.0, gamma=0.0, min_child_weight=0.0)
    split = find_best_split(np.arange(4), matrix, grad, config)
    assert split.feature == 0
    assert split.threshold == 2.5
    assert split.gain == pytest.approx(0.5)
    oracle = enumerate_best_split(matrix, np.arange(4), grad, np.ones(4), 0.0, 0.0, 0.0)
    assert (split.feature, split.threshold) == (oracle[1], oracle[2])
    assert split.gain == pytest.approx(oracle[0], abs=1e-9)


def test_find_best_split_no_candidates():
    matrix = np.array([[2.0], [2.0], [2.0]])
    grad = _grad_for([0.0, 1.0, 2.0])
    config = TrainConfig(reg_lambda=0.0, gamma=0.0, min_child_weight=0.0)
    assert find_best_split(np.arange(3), matrix, grad, config) is None


def test_find_best_split_large_gamma_rejects():
    matrix = np.array([[1.0], [2.0], [3.0], [4.0]])
    grad = _grad_for([0.0, 0.0, 1.0, 1.0])
    config = TrainConfig(reg_lambda=0.0, gamma=100.0, min_child_weight=0.0)
    assert find_best_split(np.arange(4), matrix, grad, config) is None


def test_find_best_split_min_child_weight_skips_thin_sides():
    matrix = np.array([[1.0], [2.0], [3.0], [4.0]])
    grad = _grad_for([5.0, 0.0, 0.0, 0.0])
    config = TrainConfig(reg_lambda=0.0, gamma=0.0, min_child_weight=2.0)
    split = find_best_split(np.arange(4), matrix, grad, config)
    assert split.threshold == 2.5  # 1.5 and 3.5 would leave a child below weight 2


def test_find_best_split_tie_breaks():
    # duplicated feature column: gains identical, lower feature index wins
    column = np.array([1.0, 2.0, 3.0, 4.0])
    matrix = np.column_stack([column, column])
    grad = _grad_for([0.0, 0.0, 1.0, 1.0])
    config = TrainConfig(reg_lambda=0.0, gamma=0.0, min_child_weight=0.0)
    split = find_best_split(np.arange(4), matrix, grad, config)
    assert split.feature == 0
    # symmetric targets: thresholds 1.5 and 3.5 tie, the lower threshold wins
    grad = _grad_for([1.0, 0.0, 0.0, 1.0])
    split = find_best_split(np.arange(4), matrix[:, :1], grad, config)
    assert split.threshold == 1.5


def test_find_best_split_matches_oracle_randomized():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, 5))
        matrix = rng.normal(size=(n, m))
        grad = rng.normal(size=n)
        hess = np.ones(n)
        lam = float(rng.uniform(0, 5))
        gamma = float(rng.uniform(0, 2))
        config = TrainConfig(reg_lambda=lam, gamma=gamma, min_child_weight=0.0)
        split = find_best_split(np.arange(n), matrix, grad, config)
        oracle = enumerate_best_split(matrix, np.arange(n), grad, hess, lam, gamma, 0.0)
        if oracle is None:
            assert split is None
        else:
            assert (split.feature, split.threshold) == (oracle[1], oracle[2])
            assert split.gain == pytest.approx(oracle[0], abs=1e-9)


# Two rows whose midpoint is not strictly above the lower value: adjacent
# floats round it down, values near the float limit overflow it to inf.
CLOSE_OR_HUGE = {
    "adjacent_floats": (1.0, float(np.nextafter(1.0, 2.0)), float(np.nextafter(1.0, 2.0))),
    "near_float_max": (1.5e308, 1.7e308, 1.6e308),
}


@pytest.mark.parametrize("case", sorted(CLOSE_OR_HUGE))
def test_find_best_split_threshold_separates_close_or_huge_values(case):
    lo, hi, expected = CLOSE_OR_HUGE[case]
    matrix = np.array([[lo], [hi]])
    grad = _grad_for([0.0, 1.0])
    config = TrainConfig(reg_lambda=0.0, gamma=0.0, min_child_weight=0.0)
    split = find_best_split(np.arange(2), matrix, grad, config)
    assert split.threshold == expected
    assert lo < split.threshold <= hi


@pytest.mark.parametrize("case", sorted(CLOSE_OR_HUGE))
@pytest.mark.parametrize(
    "fit",
    [
        lambda x, y: train(x, y, TrainConfig(n_trees=1, reg_lambda=0.0)),
        lambda x, y: train(x, y, TrainConfig(n_trees=1, reg_lambda=1.0)),
        lambda x, y: fit_gbdt_first_order(x, y, GbdtBaselineConfig(n_trees=1)),
    ],
    ids=["lambda0", "lambda1", "gbdt"],
)
def test_learners_split_close_or_huge_values(case, fit):
    lo, hi, _ = CLOSE_OR_HUGE[case]
    matrix = np.array([[lo], [hi]])
    targets = np.array([0.0, 1.0])
    model = fit(matrix, targets)
    (tree,) = model.trees
    assert len(tree.nodes) == 3
    root = tree.nodes[0]
    assert root.feature == 0 and lo < root.threshold <= hi
    # one row per leaf: the rows get different leaf weights
    left, right = tree.predict(matrix)
    assert left == tree.nodes[root.left].weight < 0.0 < tree.nodes[root.right].weight == right
    restored = from_json(json.loads(json.dumps(to_json(model))))
    assert restored == model


def test_grow_tree_single_row_leaf():
    matrix = np.array([[3.0]])
    grad = np.array([2.0])
    config = TrainConfig(learning_rate=0.5, reg_lambda=1.0)
    tree = grow_tree(np.arange(1), matrix, grad, config)
    assert len(tree.nodes) == 1
    assert tree.nodes[0].weight == 0.5 * (-2.0 / 2.0)


def test_grow_tree_interpolates_four_rows_at_depth_two():
    matrix = np.array([[1.0], [2.0], [3.0], [4.0]])
    targets = np.array([1.0, 2.0, 3.0, 4.0])
    grad = _grad_for(targets)
    config = TrainConfig(
        learning_rate=1.0, reg_lambda=0.0, gamma=0.0, max_depth=2, min_child_weight=0.0
    )
    tree = grow_tree(np.arange(4), matrix, grad, config)
    assert np.allclose(tree.predict(matrix), targets)


def test_grow_tree_depth_one_bound():
    matrix = np.array([[1.0], [2.0], [3.0], [4.0]])
    grad = _grad_for([1.0, 2.0, 3.0, 4.0])
    config = TrainConfig(max_depth=1, reg_lambda=0.0, min_child_weight=0.0)
    tree = grow_tree(np.arange(4), matrix, grad, config)
    assert len(tree.nodes) in (1, 3)
    assert sum(isinstance(node, Branch) for node in tree.nodes) <= 1


def _grow_tree_oracle_cases():
    # Few distinct values per column, so bins hold many rows each and their
    # sums fold in another order than the oracle's row-by-row scan ...
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(20, 80))
        yield rng.integers(0, 4, size=(n, 3)).astype(np.float64), rng.normal(size=n), float(rng.uniform(0, 2))
    # ... and no repeated value, so every gain, through sibling subtraction
    # too, must equal the oracle's to the bit.
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(20, 80))
        yield rng.normal(size=(n, 3)), rng.normal(size=n), float(rng.uniform(0, 2))


@pytest.mark.parametrize("max_depth", [1, 2, 4])
def test_grow_tree_every_node_matches_oracle(max_depth, monkeypatch):
    searched = {}  # node rows -> the split grow_tree's own search returned

    def recording_search(rows, *args):
        searched[rows.tobytes()] = split = find_best_split(rows, *args)
        return split

    monkeypatch.setattr(boosted_trees, "find_best_split", recording_search)
    for matrix, grad, lam in _grow_tree_oracle_cases():
        searched.clear()
        n = matrix.shape[0]
        distinct = all(np.unique(column).size == n for column in matrix.T)
        hess = np.ones(n)
        config = TrainConfig(reg_lambda=lam, gamma=0.0, max_depth=max_depth, min_child_weight=1.0)
        tree = grow_tree(np.arange(n), matrix, grad, config)
        stack = [(0, np.arange(n), 0)]
        while stack:
            index, rows, depth = stack.pop()
            node = tree.nodes[index]
            oracle = enumerate_best_split(matrix, rows, grad, hess, lam, 0.0, 1.0)
            if isinstance(node, Leaf):
                assert oracle is None or depth == config.max_depth
                g_sum, h_sum = float(np.sum(grad[rows])), float(np.sum(hess[rows]))
                assert node.weight == config.learning_rate * leaf_weight(g_sum, h_sum, lam)
                continue
            assert (node.feature, node.threshold) == (oracle[1], oracle[2])
            if distinct:
                assert searched[rows.tobytes()].gain == oracle[0]
            mask = matrix[rows, node.feature] < node.threshold
            stack.append((node.left, rows[mask], depth + 1))
            stack.append((node.right, rows[~mask], depth + 1))


@pytest.mark.parametrize("min_child_weight", [0.0, 1.0, 3.0])
def test_grow_tree_searches_no_node_too_small_to_split(min_child_weight, monkeypatch):
    # A node under 2 * max(1, min_child_weight) rows cannot leave a row and
    # min_child_weight on each side, so the grower makes it a leaf unsearched.
    min_rows = 2 * max(1.0, min_child_weight)
    searched = set()

    def recording_search(rows, *args):
        assert rows.shape[0] >= min_rows
        searched.add(rows.tobytes())
        return find_best_split(rows, *args)

    monkeypatch.setattr(boosted_trees, "find_best_split", recording_search)
    skipped = 0
    for matrix, grad, lam in _grow_tree_oracle_cases():
        searched.clear()
        n = matrix.shape[0]
        config = TrainConfig(reg_lambda=lam, gamma=0.0, max_depth=8, min_child_weight=min_child_weight)
        tree = grow_tree(np.arange(n), matrix, grad, config)
        stack = [(0, np.arange(n), 0)]
        while stack:
            index, rows, depth = stack.pop()
            node = tree.nodes[index]
            if depth < config.max_depth:
                assert (rows.tobytes() in searched) == (rows.shape[0] >= min_rows)
            if rows.shape[0] < min_rows:
                skipped += 1
                assert isinstance(node, Leaf)
                assert enumerate_best_split(matrix, rows, grad, np.ones(n), lam, 0.0, min_child_weight) is None
            if isinstance(node, Branch):
                mask = matrix[rows, node.feature] < node.threshold
                stack.append((node.left, rows[mask], depth + 1))
                stack.append((node.right, rows[~mask], depth + 1))
    assert skipped > 0


def test_find_best_split_gain_bit_exact_on_distinct_values():
    # Each bin holds at most one row, and a column's running sums and total
    # fold its rows in the oracle's order, so gains agree to the bit.
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 60))
        matrix = rng.normal(size=(n, int(rng.integers(1, 6))))
        rows = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        grad = rng.normal(size=n) * 3.0
        lam, gamma = float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 2.0))
        config = TrainConfig(reg_lambda=lam, gamma=gamma, min_child_weight=0.0)
        split = find_best_split(rows, matrix, grad, config)
        oracle = enumerate_best_split(matrix, rows, grad, np.ones(n), lam, gamma, 0.0)
        if oracle is None:
            assert split is None
        else:
            assert (split.gain, split.feature, split.threshold) == oracle


def test_sibling_subtraction_equals_counting():
    rng = np.random.default_rng(43)
    grad = rng.normal(size=300)
    rows = np.arange(300)
    for matrix in (rng.integers(0, 6, size=(300, 4)).astype(np.float64), rng.normal(size=(300, 4))):
        bins = boosted_trees._rank_codes(matrix)
        parent = boosted_trees._histogram(bins, rows, grad)
        mask = matrix[:, 1] < np.median(matrix[:, 1])
        left = boosted_trees._histogram(bins, rows[mask], grad)
        right = boosted_trees._histogram(bins, rows[~mask], grad)
        assert np.array_equal(parent.h - left.h, right.h)
        assert np.allclose(parent.g - left.g, right.g, rtol=0.0, atol=1e-12)
    # No repeated value: one row per bin, so G subtracts exactly too.
    assert np.array_equal(parent.g - left.g, right.g)


def test_find_best_split_folds_the_gradient_residue_of_an_empty_bin():
    # Sibling subtraction can leave G != 0 in a bin that holds no row (H = 0):
    # the parent's sum of the bin's rows minus the child's, folded in other
    # orders.  Each column's G total is its running sum over every bin, so
    # the residue counts.  Here folding only the bins holding rows gives a
    # gain with other bits.
    matrix = np.array([[0.0], [1.0], [2.0]])
    bins = boosted_trees._rank_codes(matrix)
    residue = (0.1 + 0.2) - 0.3
    g_low, g_high = 0.2, -1.2
    hist = boosted_trees._Histogram(bins, np.array([g_low, residue, g_high]), np.array([1, 0, 1]))
    config = TrainConfig(reg_lambda=1.0, gamma=0.0, min_child_weight=1.0)
    split = find_best_split(np.arange(2), matrix, np.zeros(3), config, hist)

    def gain(g_total):
        g_right = g_total - g_low
        return 0.5 * (g_low * g_low / 2.0 + g_right * g_right / 2.0 - g_total * g_total / 3.0)

    every_bin, present_bins = (g_low + residue) + g_high, g_low + g_high
    assert gain(every_bin) != gain(present_bins)
    assert split.gain == gain(every_bin)
    assert (split.feature, split.threshold) == (0, 1.0)  # between the bins holding rows


def test_duplicate_and_constant_columns_change_no_tree():
    rng = np.random.default_rng(41)
    n = 150
    matrix = np.column_stack(
        [rng.normal(size=n), rng.integers(0, 2, size=n), rng.integers(0, 5, size=n)]
    ).astype(np.float64)
    targets = rng.normal(size=n)
    wide = np.hstack([matrix, matrix, np.full((n, 1), 3.0)])
    for config in (TrainConfig(n_trees=10, max_depth=3), TrainConfig(n_trees=5, reg_lambda=0.0)):
        narrow_doc, wide_doc = to_json(train(matrix, targets, config)), to_json(train(wide, targets, config))
        assert len(narrow_doc.pop("feature_layout")) == 3
        assert len(wide_doc.pop("feature_layout")) == 7
        assert json.dumps(narrow_doc) == json.dumps(wide_doc)


def test_rank_codes_merge_signed_zeros_and_keep_close_or_huge_values_apart():
    above_one = float(np.nextafter(1.0, 2.0))
    matrix = np.array([[-0.0, 1.0, -1.7e308], [0.0, above_one, 1.7e308], [1.0, 1.0, 1.7e308]])
    bins = boosted_trees._rank_codes(matrix)
    # -0.0 and 0.0 share one bin: no threshold t has -0.0 < t <= 0.0.
    assert bins.codes[0, 0] == bins.codes[1, 0] != bins.codes[2, 0]
    assert bins.feature.tolist() == [0, 0, 1, 1, 2, 2]
    assert bins.values[2:].tolist() == [1.0, above_one, -1.7e308, 1.7e308]
    config = TrainConfig(reg_lambda=0.0, gamma=0.0, min_child_weight=0.0)
    signed_zeros = np.array([[-0.0], [0.0]])
    assert find_best_split(np.arange(2), signed_zeros, np.array([-1.0, 1.0]), config) is None


def _awkward_catalog(n=240, seed=53):
    """A matrix that takes every dedupe rule and the finest thresholds, and
    targets that split on most of it: a continuous column and its copy, a
    one-hot block and its copy, a constant and its copy, a 0/1 column and
    the same column with -0.0 for 0.0, and a column of two neighbouring
    floats."""
    rng = np.random.default_rng(seed)
    continuous = rng.normal(size=n)
    one_hot = np.eye(4)[rng.integers(0, 4, size=n)]
    flag = rng.integers(0, 2, size=n).astype(np.float64)
    signed = np.where(flag == 0.0, -0.0, flag)
    above_one = float(np.nextafter(1.0, 2.0))
    neighbours = np.where(rng.integers(0, 2, size=n) == 1, above_one, 1.0)
    constant = np.full((n, 1), 2.5)
    matrix = np.column_stack(
        [continuous, one_hot, constant, flag, continuous, signed, neighbours, one_hot, constant]
    )
    targets = continuous + one_hot @ [0.0, 3.0, -1.0, 2.0] + 2.0 * flag + 4.0 * (neighbours > 1.0)
    return matrix, targets + rng.normal(size=n) * 0.1


def _bins_fields(bins):
    return [bins.codes, bins.values.view(np.int64), bins.feature, bins.column, bins.last]


def test_histogram_cell_budget_changes_no_model_byte(monkeypatch):
    """One-column blocks on every node, and one block of every column on
    every node, give the same model text."""
    matrix, targets = _awkward_catalog()
    for config in (TrainConfig(n_trees=8, max_depth=4), TrainConfig(n_trees=4, reg_lambda=0.0, min_child_weight=0.0)):
        texts = []
        for cells in (1, 2**62):
            monkeypatch.setattr(boosted_trees, "_HISTOGRAM_CELLS", cells)
            texts.append(json.dumps(to_json(train(matrix, targets, config))))
        assert texts[0] == texts[1]
        assert '"threshold"' in texts[0]


def test_histogram_blocks_keep_every_bit(monkeypatch):
    """Built and sibling-subtracted histograms hold the same G and H bits
    whether the columns are counted one at a time, three at a time (a block
    left over at the end) or all at once.  So do a matrix that keeps no
    column, a one-row node and an empty row set, at budgets of 1 and 7 cells
    and the default: G float64 and H intp, one of each per bin."""
    default_cells = boosted_trees._HISTOGRAM_CELLS
    matrix, _ = _awkward_catalog()
    n = matrix.shape[0]
    rng = np.random.default_rng(59)
    bins = boosted_trees._rank_codes(matrix)
    grad = rng.normal(size=n) * 1e3
    rows, small = np.arange(n), np.sort(rng.choice(n, size=n // 3, replace=False))
    assert bins.codes.shape[1] % 3 != 0

    def histograms(cells):
        monkeypatch.setattr(boosted_trees, "_HISTOGRAM_CELLS", cells)
        parent, built = boosted_trees._histogram(bins, rows, grad), boosted_trees._histogram(bins, small, grad)
        return [(parent.g, parent.h), (built.g, built.h), (parent.g - built.g, parent.h - built.h)]

    whole = histograms(2**62)
    for cells in (1, 3 * n):
        for (g, h), (g_whole, h_whole) in zip(histograms(cells), whole):
            assert np.array_equal(g.view(np.int64), g_whole.view(np.int64))
            assert np.array_equal(h.view(np.int64), h_whole.view(np.int64))

    no_column = boosted_trees._rank_codes(np.full((n, 3), 2.5))
    assert no_column.codes.shape == (n, 0)
    for edge_bins, node in ((no_column, rows), (bins, rows[7:8]), (bins, rows[:0])):
        found = []
        for cells in (1, 7, default_cells):
            monkeypatch.setattr(boosted_trees, "_HISTOGRAM_CELLS", cells)
            hist = boosted_trees._histogram(edge_bins, node, grad)
            assert hist.g.dtype == np.float64 and hist.h.dtype == np.intp
            assert hist.g.shape == hist.h.shape == (edge_bins.values.size,)
            found.append((hist.g.view(np.int64), hist.h.view(np.int64)))
        for g, h in found[1:]:
            assert np.array_equal(g, found[0][0]) and np.array_equal(h, found[0][1])


@st.composite
def _small_training_sets(draw):
    """2-64 rows of 1-6 columns whose values repeat: 0/1 columns, columns
    from a small pool, constant columns, copies of an earlier column, and
    columns of two neighbouring floats; targets from a small pool or any
    moderate float."""
    n = draw(st.integers(2, 64))
    above_one = float(np.nextafter(1.0, 2.0))
    pools = {
        "flag": st.sampled_from([0.0, 1.0]),
        "pool": st.sampled_from([-2.5, 0.0, 0.75, 3.0, 1e3]),
        "neighbours": st.sampled_from([1.0, above_one]),
    }
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["flag", "pool", "neighbours", "constant", "copy"]))
        if kind == "copy" and columns:
            columns.append(list(draw(st.sampled_from(columns))))
        elif kind == "constant":
            columns.append([draw(pools["pool"])] * n)
        else:  # a copy with no earlier column is a 0/1 column
            columns.append(draw(st.lists(pools.get(kind, pools["flag"]), min_size=n, max_size=n)))
    target = st.one_of(st.sampled_from([0.0, 1.0, -3.5]), st.floats(-1e3, 1e3))
    return np.array(columns).T, np.array(draw(st.lists(target, min_size=n, max_size=n)))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    data=_small_training_sets(),
    reg_lambda=st.sampled_from([0.0, 1.0]),
    gamma=st.sampled_from([0.0, 0.5]),
    min_child_weight=st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]),
    max_depth=st.integers(1, 4),
    n_trees=st.integers(1, 5),
    learning_rate=st.sampled_from([0.1, 1.0]),
    one_cell=st.booleans(),
)
def test_train_matches_the_scalar_reference_grower(
    data, reg_lambda, gamma, min_child_weight, max_depth, n_trees, learning_rate, one_cell
):
    """Every byte of a model equals the scalar reference's, with one-column
    histogram blocks and with the default budget."""
    matrix, targets = data
    config = TrainConfig(n_trees=n_trees, learning_rate=learning_rate, reg_lambda=reg_lambda,
                         gamma=gamma, max_depth=max_depth, min_child_weight=min_child_weight)
    cells = 1 if one_cell else boosted_trees._HISTOGRAM_CELLS
    with mock.patch.object(boosted_trees, "_HISTOGRAM_CELLS", cells):
        text = json.dumps(to_json(train(matrix, targets, config)))
    assert text == json.dumps(reference_train(matrix, targets, config))


def test_gain_needs_no_error_suppression():
    """With every floating-point error raised, training and direct searches
    run at lambda = 0, gamma = 0 and min_child_weight 0 or 1, on one-row
    children, neighbouring floats and a gradient sum just below the bound."""
    above_one = float(np.nextafter(1.0, 2.0))
    matrix = np.array([[1.0, 0.0], [above_one, 1.0], [above_one, 0.0], [3.0, 1.0]])
    near_bound = float(np.nextafter(boosted_trees._MAX_GRAD_SUM / 4.0, 0.0))
    big = np.array([near_bound, near_bound, -near_bound, -near_bound])
    assert np.abs(big).sum() < boosted_trees._MAX_GRAD_SUM
    with np.errstate(all="raise"):
        for min_child_weight in (0.0, 1.0):
            config = TrainConfig(n_trees=5, max_depth=4, reg_lambda=0.0, gamma=0.0,
                                 min_child_weight=min_child_weight)
            for targets in (np.array([1.0, -2.0, 0.5, 4.0]), -big):
                model = train(matrix, targets, config)
                assert isinstance(model.trees[0].nodes[0], Branch)
            for grad in (np.array([1.0, -2.0, 0.5, 4.0]), big):
                for rows in (np.arange(4), np.array([0, 1]), np.array([1, 2, 3]), np.array([2, 3])):
                    split = find_best_split(rows, matrix, grad, config)
                    assert split is None or np.isfinite(split.gain)
            # Both cuts of the first column leave one row on a side and tie;
            # the first wins, and between neighbours only ``hi`` cuts.
            one_row_left = find_best_split(np.arange(4), matrix, big, config)
            assert (one_row_left.feature, one_row_left.threshold) == (0, above_one)


def test_rank_codes_dedupe_by_bytes():
    """A column is dropped when it is constant or has the bytes of an earlier
    one: -0.0 and 0.0 differ in bytes, so a column that differs only there is
    kept, and a copy of a dropped constant column is dropped."""
    x = np.array([0.0, 1.0, 0.0, 2.0])
    matrix = np.column_stack(
        [x, np.full(4, 5.0), np.where(x == 0.0, -0.0, x), x, np.full(4, 5.0), np.full(4, -0.0), np.zeros(4)]
    )
    bins = boosted_trees._rank_codes(matrix)
    assert np.unique(bins.feature).tolist() == [0, 2]


def test_rank_codes_compare_the_bytes_on_a_hash_match(monkeypatch):
    """With every column hashed alike, the exact compare alone tells copies
    apart, and the bins and the model are the same."""
    matrix, targets = _awkward_catalog()
    config = TrainConfig(n_trees=5, max_depth=4)
    expected, text = _bins_fields(boosted_trees._rank_codes(matrix)), json.dumps(to_json(train(matrix, targets, config)))
    hashed = []
    monkeypatch.setattr(boosted_trees, "hash", lambda data: hashed.append(data) or 0, raising=False)
    collided = _bins_fields(boosted_trees._rank_codes(matrix))
    assert len(hashed) == 13  # every column but the two constants
    assert all(np.array_equal(a, b) for a, b in zip(collided, expected))
    assert json.dumps(to_json(train(matrix, targets, config))) == text


def test_train_memory_on_a_unique_per_row_column_stays_within_three_matrices():
    """A column that differs in every row (here Products) one-hot encodes to
    a matrix about as wide as it is long.  What ``train`` allocates on top of
    it peaks at most at 3 times its size: the Fortran copy, the rank codes,
    and one block of columns of a histogram, with no copy of each column's
    bytes kept for the dedupe."""
    table = generate_synthetic(SyntheticSpec(n_products=2000, seed=3))
    table = DataTable(table.schema, tuple((f"product {i}",) + row[1:] for i, row in enumerate(table.rows)))
    matrix, targets = transform(table, fit_pipeline(table))
    assert matrix.shape[1] > matrix.shape[0]
    tracemalloc.start()
    try:
        train(matrix, targets, TrainConfig(n_trees=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * matrix.nbytes


def test_grow_tree_leaves_no_reference_cycle():
    # A cycle would keep every node's histogram alive until a full
    # collection.
    rng = np.random.default_rng(8)
    matrix = rng.normal(size=(200, 4))
    grad = rng.normal(size=200)
    config = TrainConfig(max_depth=4, min_child_weight=1.0)
    gc.collect()
    gc.disable()
    try:
        tree = grow_tree(np.arange(200), matrix, grad, config)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert tree.n_leaves > 8


def test_train_zero_trees_predicts_base():
    matrix = np.array([[1.0], [2.0]])
    targets = np.array([5.0, 7.0])
    model = train(matrix, targets, TrainConfig(n_trees=0))
    assert np.all(model.predict(matrix) == 6.0)
    explicit = train(matrix, targets, TrainConfig(n_trees=0, base_score=1.5))
    assert np.all(explicit.predict(matrix) == 1.5)


def test_train_single_tree_interpolates_distinct_rows():
    rng = np.random.default_rng(8)
    matrix = rng.normal(size=(16, 3))
    targets = rng.normal(size=16)
    config = TrainConfig(
        n_trees=1,
        learning_rate=1.0,
        reg_lambda=0.0,
        gamma=0.0,
        max_depth=16,
        min_child_weight=0.0,
    )
    model = train(matrix, targets, config)
    residuals = model.predict(matrix) - targets
    assert float(np.mean(residuals**2)) < 1e-9


def test_train_mse_non_increasing():
    rng = np.random.default_rng(13)
    matrix = rng.normal(size=(50, 3))
    targets = rng.normal(size=50)
    config = TrainConfig(n_trees=50, learning_rate=0.1, reg_lambda=1.0, gamma=0.0, max_depth=3)
    model = train(matrix, targets, config)
    preds = np.full(50, model.base_score)
    last = float(np.mean((preds - targets) ** 2))
    for tree in model.trees:
        preds += tree.predict(matrix)
        current = float(np.mean((preds - targets) ** 2))
        assert current <= last + 1e-12
        last = current


def test_train_objective_non_increasing_each_round():
    rng = np.random.default_rng(17)
    matrix = rng.normal(size=(40, 3))
    targets = rng.uniform(0, 1, size=40)
    for eta in (0.1, 0.5, 1.0):
        config = TrainConfig(
            n_trees=20, learning_rate=eta, reg_lambda=1.0, gamma=0.0, max_depth=3
        )
        model = train(matrix, targets, config)
        values = [
            objective_value(
                Ensemble(model.trees[:k], model.base_score, eta, model.feature_layout),
                matrix,
                targets,
                1.0,
                0.0,
            )
            for k in range(len(model.trees) + 1)
        ]
        for before, after in zip(values, values[1:]):
            assert after <= before + 1e-12


def test_train_rejects_bad_inputs():
    with pytest.raises(EmptyData):
        train(np.empty((0, 2)), np.empty(0))
    with pytest.raises(NonFiniteInput):
        train(np.array([[np.nan]]), np.array([1.0]))
    with pytest.raises(InvalidConfig):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(InvalidConfig):
        TrainConfig(max_depth=0)
    with pytest.raises(InvalidConfig):
        TrainConfig(reg_lambda=-1.0)


def test_train_rejects_a_gradient_sum_that_overflows_the_gains():
    matrix = np.arange(8.0).reshape(-1, 1)
    targets = np.repeat([0.0, 1e200], 4)
    config = TrainConfig(n_trees=3, reg_lambda=0.0)
    with pytest.raises(NonFiniteInput, match="rescale the target"):
        train(matrix, targets, config)
    # Rescaled, the same data splits at the step.
    assert train(matrix, targets / 1e190, config).trees[0].nodes[0].threshold == 3.5
    # At the bound itself (|grad| = limit/8 per row) every gain is finite: an
    # overflow warning would fail this test.
    at_bound = np.repeat([0.0, boosted_trees._MAX_GRAD_SUM / 4.0], 4)
    assert train(matrix, at_bound, config).trees[0].nodes[0].threshold == 3.5


def test_train_rejects_a_target_mean_that_overflows():
    # Finite targets whose sum overflows: the error names the mean, with no
    # overflow warning (which would fail this test) and before any round.
    matrix = np.arange(4.0).reshape(-1, 1)
    targets = np.full(4, 1e308)
    with pytest.raises(NonFiniteInput, match="training-target mean overflows"):
        train(matrix, targets, TrainConfig(n_trees=3))
    # A given base score takes no mean.
    assert train(matrix, targets, TrainConfig(n_trees=0, base_score=0.0)).base_score == 0.0


def test_train_deterministic_across_worker_counts():
    rng = np.random.default_rng(7)
    matrix = rng.normal(size=(80, 6))
    targets = rng.normal(size=80)
    config = TrainConfig(n_trees=10, max_depth=4)
    documents = [
        json.dumps(to_json(train(matrix, targets, config, n_jobs=jobs)))
        for jobs in (1, 2, 8)
    ]
    assert documents[0] == documents[1] == documents[2]


def test_predict_additivity():
    rng = np.random.default_rng(9)
    matrix = rng.normal(size=(30, 2))
    targets = rng.normal(size=30)
    config = TrainConfig(n_trees=2, max_depth=3, base_score=0.0)
    model = train(matrix, targets, config)
    first = Ensemble(model.trees[:1], 0.0, model.learning_rate, model.feature_layout)
    second = Ensemble(model.trees[1:], 0.0, model.learning_rate, model.feature_layout)
    # exact for a zero base with a single extra tree
    combined = model.predict(matrix)
    assert np.array_equal(combined, first.predict(matrix) + second.predict(matrix))
    bigger = train(matrix, targets, TrainConfig(n_trees=6, max_depth=3, base_score=0.0))
    head = Ensemble(bigger.trees[:3], 0.0, bigger.learning_rate, bigger.feature_layout)
    tail = Ensemble(bigger.trees[3:], 0.0, bigger.learning_rate, bigger.feature_layout)
    assert np.allclose(
        bigger.predict(matrix), head.predict(matrix) + tail.predict(matrix), atol=1e-12
    )


def _route_one_row(tree, row):
    node = tree.nodes[0]
    while isinstance(node, Branch):
        node = tree.nodes[node.left if row[node.feature] < node.threshold else node.right]
    return node.weight


def test_routing_ignores_memory_layout():
    rng = np.random.default_rng(21)
    train_matrix = rng.normal(size=(60, 4))
    model = train(train_matrix, rng.normal(size=60), TrainConfig(n_trees=4, max_depth=3))
    rows = [train_matrix]
    for tree in model.trees:
        for node in (n for n in tree.nodes if isinstance(n, Branch)):
            at = np.tile(rng.normal(size=4), (3, 1))
            at[:, node.feature] = [
                np.nextafter(node.threshold, -np.inf),
                node.threshold,
                np.nextafter(node.threshold, np.inf),
            ]
            rows.append(at)
    matrix = np.vstack(rows)
    layouts = _layouts(matrix)

    expected = model.predict(layouts[0])
    references = [np.array([_route_one_row(tree, row) for row in matrix]) for tree in model.trees]
    for layout in layouts:
        assert model.predict(layout).tobytes() == expected.tobytes()
        for tree, reference in zip(model.trees, references):
            assert tree.predict(layout).tobytes() == reference.tobytes()


def _layouts(matrix):
    """C-ordered, Fortran-ordered and strided copies of ``matrix``."""
    wide = np.zeros((2 * matrix.shape[0], 3 * matrix.shape[1]))
    wide[::2, ::3] = matrix
    layouts = [np.ascontiguousarray(matrix), np.asfortranarray(matrix), wide[::2, ::3]]
    assert layouts[1].flags.f_contiguous and not layouts[1].flags.c_contiguous
    assert not (layouts[2].flags.c_contiguous or layouts[2].flags.f_contiguous)
    return layouts


def test_route_matches_boolean_indexing():
    # Boolean indexing, rows[matrix[rows, f] < t], is the reference: _route
    # must match it to the bit for every layout, row set and threshold.
    rng = np.random.default_rng(23)
    matrix = rng.integers(-3, 4, size=(40, 5)).astype(np.float64)  # repeated values
    matrix[:, 4] = rng.normal(size=40)
    for layout in _layouts(matrix):
        for _ in range(30):
            f = int(rng.integers(5))
            column = layout[:, f]
            size = int(rng.integers(41))
            subsets = [
                np.arange(0),
                np.sort(rng.choice(40, size=size, replace=False)),
                rng.permutation(40)[:size],
            ]
            cell = column[rng.integers(40)]
            thresholds = [
                np.nextafter(cell, -np.inf),
                cell,
                np.nextafter(cell, np.inf),
                column.min(),  # every row right
                np.nextafter(column.max(), np.inf),  # every row left
            ]
            for rows in subsets:
                for t in thresholds:
                    left, right = boosted_trees._route(column, rows, t)
                    mask = layout[rows, f] < t
                    for got, want in ((left, rows[mask]), (right, rows[~mask])):
                        assert got.dtype == want.dtype
                        assert got.tobytes() == want.tobytes()
            everything = np.arange(40)
            assert boosted_trees._route(column, everything, column.min())[0].size == 0
            assert boosted_trees._route(column, everything, np.nextafter(column.max(), np.inf))[1].size == 0


def test_predict_zero_rows_returns_an_empty_vector():
    rng = np.random.default_rng(24)
    matrix = rng.normal(size=(20, 3))
    model = train(matrix, rng.normal(size=20), TrainConfig(n_trees=3, max_depth=2))
    out = model.predict(np.empty((0, 3)))
    assert out.dtype == np.float64 and out.shape == (0,)


def test_training_ignores_memory_layout():
    rng = np.random.default_rng(22)
    matrix = rng.normal(size=(80, 5))
    targets = rng.normal(size=80)
    config = TrainConfig(n_trees=6, max_depth=4)
    documents = [
        json.dumps(to_json(train(layout, targets, config)))
        for layout in (np.ascontiguousarray(matrix), np.asfortranarray(matrix))
    ]
    assert documents[0] == documents[1]


def test_predict_layout_mismatch():
    model = Ensemble(trees=(), base_score=0.0, learning_rate=0.1, feature_layout=("a", "b"))
    with pytest.raises(LayoutMismatch):
        model.predict(np.zeros((3, 5)))


# (matrix, targets, feature names) that train rejects, and the error it raises.
MISMATCHED_INPUTS = {
    "matrix-1d": (np.zeros(4), np.zeros(4), None, LengthMismatch),
    "targets-short": (np.zeros((4, 2)), np.zeros(3), None, LengthMismatch),
    "feature-names-short": (np.zeros((4, 2)), np.zeros(4), ("a",), LayoutMismatch),
    "matrix-text": ("abc", np.zeros(4), None, NonFiniteInput),
    "matrix-ragged": ([[0.0, 1.0], [0.0]], np.zeros(2), None, NonFiniteInput),
    "matrix-object-text": (np.array([[0.0, "abc"]] * 4, dtype=object), np.zeros(4), None, NonFiniteInput),
    "matrix-complex": (np.zeros((4, 2)) + 1j, np.zeros(4), None, NonFiniteInput),
    "targets-complex": (np.zeros((4, 2)), np.zeros(4, dtype=complex), None, NonFiniteInput),
}


@pytest.mark.parametrize("case", sorted(MISMATCHED_INPUTS))
def test_train_rejects_mismatched_inputs(case):
    matrix, targets, names, error = MISMATCHED_INPUTS[case]
    with pytest.raises(error):
        train(matrix, targets, TrainConfig(n_trees=1), feature_names=names)


@pytest.mark.parametrize("case", list(SPOILED_MATRICES))
def test_predict_rejects_a_non_finite_cell(case):
    spoil, message = SPOILED_MATRICES[case]
    rng = np.random.default_rng(12)
    matrix = rng.normal(size=(20, 3))
    model = train(matrix, rng.normal(size=20), TrainConfig(n_trees=3, max_depth=2))
    with pytest.raises(NonFiniteInput, match=f"predict inputs must be {message}"):
        model.predict(spoil(matrix))


def test_single_leaf_prediction():
    tree = RegressionTree(nodes=(Leaf(weight=0.7),))
    model = Ensemble(trees=(tree,), base_score=0.0, learning_rate=1.0, feature_layout=("x",))
    assert np.all(model.predict(np.zeros((4, 1))) == 0.7)


def test_objective_value_cases():
    matrix = np.zeros((2, 1))
    empty = Ensemble(trees=(), base_score=3.0, learning_rate=0.1, feature_layout=("x",))
    assert objective_value(empty, matrix, np.array([3.0, 3.0]), 1.0, 1.0) == 0.0

    leaf_tree = RegressionTree(nodes=(Leaf(weight=1.0),))
    model = Ensemble(trees=(leaf_tree,), base_score=0.0, learning_rate=1.0, feature_layout=("x",))
    assert objective_value(model, matrix, np.array([1.0, 1.0]), 2.0, 3.0) == 4.0


def test_objective_drops_when_positive_gain_split_applied():
    matrix = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
    targets = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
    grad = _grad_for(targets)
    lam, gamma = 0.5, 0.01
    stump_config = TrainConfig(
        learning_rate=1.0, reg_lambda=lam, gamma=gamma, max_depth=1, min_child_weight=0.0
    )
    stump = grow_tree(np.arange(5), matrix, grad, stump_config)
    assert len(stump.nodes) == 3
    leaf_only = RegressionTree(
        nodes=(Leaf(weight=leaf_weight(float(grad.sum()), 5.0, lam)),)
    )
    layout = ("x",)
    with_split = objective_value(
        Ensemble((stump,), 0.0, 1.0, layout), matrix, targets, lam, gamma
    )
    without = objective_value(
        Ensemble((leaf_only,), 0.0, 1.0, layout), matrix, targets, lam, gamma
    )
    assert with_split < without


def test_serialize_round_trip_bit_exact():
    rng = np.random.default_rng(2)
    matrix = rng.normal(size=(40, 4))
    targets = rng.normal(size=40)
    model = train(matrix, targets, TrainConfig(n_trees=5, max_depth=4))
    document = json.loads(json.dumps(to_json(model)))
    restored = from_json(document)
    assert np.array_equal(model.predict(matrix), restored.predict(matrix))
    assert restored.base_score == model.base_score
    assert restored.feature_layout == model.feature_layout


def _document_with_nodes(nodes):
    return {
        "format_version": 1,
        "kind": "ensemble",
        "base_score": 0.0,
        "learning_rate": 0.1,
        "feature_layout": ["a", "b"],
        "trees": [{"root": 0, "nodes": nodes}],
    }


def test_from_json_rejects_cycles():
    nodes = [
        {"feature": 0, "threshold": 1.0, "left": 1, "right": 0},
        {"weight": 0.5},
    ]
    with pytest.raises(MalformedModel, match="cycle|twice"):
        from_json(_document_with_nodes(nodes))


def test_from_json_rejects_out_of_range_feature():
    nodes = [
        {"feature": 7, "threshold": 1.0, "left": 1, "right": 2},
        {"weight": 0.5},
        {"weight": -0.5},
    ]
    with pytest.raises(MalformedModel, match="feature index"):
        from_json(_document_with_nodes(nodes))


def test_from_json_rejects_unreachable_nodes():
    nodes = [{"weight": 0.5}, {"weight": 1.0}]
    with pytest.raises(MalformedModel, match="unreachable"):
        from_json(_document_with_nodes(nodes))


def test_from_json_reports_a_malformed_node_it_cannot_reach_as_unreachable():
    """The walk from the root never decodes node 1, so its bad weight is not
    what is reported."""
    nodes = [{"weight": 0.5}, {"weight": "heavy"}]
    with pytest.raises(MalformedModel, match=r"^model\.trees\[0\]: 1 node\(s\) unreachable from the root$"):
        from_json(_document_with_nodes(nodes))


@pytest.mark.parametrize("node", [5, None, "weight"])
def test_from_json_rejects_a_reachable_node_that_is_not_an_object(node):
    nodes = [{"feature": 0, "threshold": 1.0, "left": 1, "right": 2}, node, {"weight": -0.5}]
    with pytest.raises(MalformedModel, match=r"^model\.trees\[0\]\.nodes\[1\] must be a JSON object"):
        from_json(_document_with_nodes(nodes))


def test_from_json_rejects_a_branch_whose_children_are_one_node():
    nodes = [{"feature": 0, "threshold": 1.0, "left": 1, "right": 1}, {"weight": 0.5}]
    with pytest.raises(MalformedModel, match=r"^model\.trees\[0\]\.nodes\[1\]: node reached twice"):
        from_json(_document_with_nodes(nodes))


def test_from_json_loads_only_ensembles():
    document = _document_with_nodes([{"weight": 0.5}])
    assert from_json(document).trees[0].nodes[0].weight == 0.5
    with pytest.raises(MalformedModel, match="model.kind"):
        from_json({**document, "kind": "linear"})


def test_from_json_rejects_bad_shapes():
    with pytest.raises(MalformedModel):
        from_json({"format_version": 2})
    with pytest.raises(MalformedModel):
        from_json(_document_with_nodes([{"weight": float("nan")}]))
    with pytest.raises(MalformedModel):
        from_json(_document_with_nodes([{"feature": 0, "threshold": 1.0, "left": 1}]))



def test_from_json_bounds_every_running_sum_of_predict():
    """|base_score| plus each tree's largest |leaf weight| must be finite.  A
    sum of exactly the largest float loads and predicts finite values; one
    float more, or a second tree, overflows and is rejected."""
    big = float(np.finfo(np.float64).max)
    split = {"feature": 0, "threshold": 0.0, "left": 1, "right": 2}
    tree = {"root": 0, "nodes": [split, {"weight": -1e308}, {"weight": 1e308}]}
    at_limit = {**_document_with_nodes([]), "base_score": big - 1e308, "trees": [tree]}  # exact
    predictions = from_json(at_limit).predict(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    assert predictions.tolist() == [big - 1e308 - 1e308, big]
    for over in (
        {**at_limit, "base_score": float(np.nextafter(big - 1e308, np.inf))},
        {**at_limit, "trees": [tree, tree]},
    ):
        with pytest.raises(MalformedModel, match=r"^model: predictions can overflow"):
            from_json(over)


@pytest.mark.parametrize("rate", [0.0, -0.1, 1.5])
def test_from_json_rejects_learning_rate_outside_unit_interval(rate):
    with pytest.raises(MalformedModel, match=r"^model\.learning_rate: must be in \(0, 1\]"):
        from_json({**_document_with_nodes([{"weight": 0.5}]), "learning_rate": rate})
