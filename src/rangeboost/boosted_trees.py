"""Second-order gradient boosting over regularized CART trees.

The model is an additive ensemble: a base score plus the routed leaf weight
of each tree.  Trees are grown by exact-greedy split search against the
second-order approximation of the regularized squared-error objective

    sum_i 1/2 (pred_i - y_i)^2  +  sum_k [ gamma * T_k + 1/2 lambda * ||w_k||^2 ]

where T_k counts tree k's leaves and w_k are its leaf weights.  For a leaf
collecting gradient sum G and hessian sum H the optimal weight is
-G / (H + lambda), and a split of that leaf into (L, R) is worth

    1/2 [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda) ] - gamma.

The learner is specialised to that 1/2-scaled squared loss: the hessian is
exactly 1 per row, so the second-order expansion is exact and the objective
decreases monotonically round over round for any shrinkage above 0 and at most 1.
H over a set of rows is therefore its row count, an exact integer in float64.

Split search is exact greedy over per-node histograms.  ``train`` codes each
cell once by its rank among its column's distinct values, each column owning a
contiguous range of bins (XGBoost's pre-sorted column block), and skips
constant columns and copies of an earlier column.  A node's histogram holds
per bin the gradient sum G (one ``np.bincount``, rows folded in ascending
order) and the row count H; of a split's children the smaller is counted and
the other is the parent minus it (LightGBM's sibling subtraction).  The bins
are the distinct values, so the candidates are a sorted scan's; running sums
restart at each column, whose G total is its own last running sum, so when no
value repeats at a node every gain equals the sorted scan's to the bit.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated, Literal, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateLeaf,
    EmptyData,
    InvalidConfig,
    LayoutMismatch,
    LengthMismatch,
    MalformedModel,
    NonFiniteInput,
)
from .jsondoc import Bound, check_doc, check_fields, check_value, from_doc, read_json, to_doc
from .range_binning import TargetMode

# Each bound declared once, for every config and reader of the field; Jobs is n_jobs's and --jobs's.
NTrees = Annotated[int, Bound(0)]
LearningRate = Annotated[float, Bound(0, 1, open_lo=True)]
MaxDepth = Annotated[int, Bound(1)]
Jobs = Annotated[int, Bound(1)]


def leaf_weight(g_sum: float, h_sum: float, reg_lambda: float) -> float:
    """Minimizer of the per-leaf objective G*w + 1/2 (H + lambda) w^2."""
    denom = h_sum + reg_lambda
    if denom <= 0.0:
        raise DegenerateLeaf(f"hessian sum plus lambda must be positive, got {denom}")
    return -g_sum / denom


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the second-order learner.

    ``base_score=None`` means "use the training-target mean".
    """

    n_trees: NTrees = 200
    learning_rate: LearningRate = 0.1
    reg_lambda: Annotated[float, Bound(0)] = 1.0
    gamma: Annotated[float, Bound(0)] = 0.0
    max_depth: MaxDepth = 6
    min_child_weight: Annotated[float, Bound(0)] = 1.0
    base_score: float | None = None

    def __post_init__(self):
        check_fields(self, InvalidConfig)


@dataclass(frozen=True)
class Leaf:
    """A terminal node: the (shrunken) weight it adds to each row it gets."""

    weight: float


@dataclass(frozen=True)
class Branch:
    """An internal test, and the indices of its two children.  ``_route``
    applies the test, for the predictor and the grower alike: rows with
    value < threshold route left, the rest right."""

    feature: int
    threshold: float
    left: int
    right: int


def _route(column: np.ndarray, rows: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The split rule: of ``rows``, those whose ``column`` value is below
    ``threshold`` go left and the rest (NaN included) go right, each side
    keeping the order of ``rows``.  ``take`` gathers from a column of any
    stride, and ``compress`` partitions without a fancy-index pass."""
    goes_left = column.take(rows) < threshold
    return rows.compress(goes_left), rows.compress(~goes_left)


@dataclass(frozen=True)
class RegressionTree:
    nodes: tuple[Leaf | Branch, ...]  # nodes[0] is the root

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        out = np.empty(matrix.shape[0], dtype=np.float64)
        stack = [(0, np.arange(matrix.shape[0]))]
        while stack:
            idx, rows = stack.pop()
            node = self.nodes[idx]
            if isinstance(node, Leaf):
                out[rows] = node.weight
            else:
                left, right = _route(matrix[:, node.feature], rows, node.threshold)
                stack.append((node.left, left))
                stack.append((node.right, right))
        return out

    @property
    def n_leaves(self) -> int:
        return sum(isinstance(n, Leaf) for n in self.nodes)


@dataclass(frozen=True)
class Ensemble:
    """Additive model: base score plus the sum of per-tree leaf weights.
    Leaf weights are stored post-shrinkage."""

    trees: tuple[RegressionTree, ...]
    base_score: float
    learning_rate: float
    feature_layout: tuple[str, ...]

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        # Column-major, so each split's ``take`` gathers from one contiguous
        # column; routing gives the same bits for any layout.
        matrix = np.asfortranarray(check_predict_inputs(matrix, len(self.feature_layout)))
        out = np.full(matrix.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees:
            out += tree.predict(matrix)
        return out


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    gain: float


def _threshold(lo: float, hi: float) -> float:
    """Cut point t with lo < t <= hi, so rows at lo route left and rows at hi
    route right.  The midpoint whenever it qualifies; it does not when it
    rounds down to lo (adjacent floats) or overflows, and then lo/2 + hi/2,
    then hi itself."""
    for t in ((lo + hi) / 2.0, lo / 2.0 + hi / 2.0):
        if lo < t <= hi:
            return t
    return hi


class _Bins(NamedTuple):
    """A matrix's rank codes; see ``_rank_codes``."""

    codes: np.ndarray  # (rows, kept columns) intp: each cell's bin
    values: np.ndarray  # per bin: the distinct value it stands for
    feature: np.ndarray  # per bin: its matrix column
    column: np.ndarray  # per bin: its column's position among the kept ones
    last: np.ndarray  # per bin: its column's last bin
    runs: list  # bins of the columns of one width: a slice, or (columns, width)


class _Histogram(NamedTuple):
    bins: _Bins
    g: np.ndarray  # gradient sum per bin
    h: np.ndarray  # row count per bin: the unit hessian's sum


def _rank_codes(matrix: np.ndarray) -> _Bins:
    """Code each cell by the rank of its value among its column's distinct
    values, offset so that each column owns a contiguous range of bins.
    Constant columns, and columns with the bytes of an earlier one, get no
    bins: a copy's gains tie the first copy's to the bit, and the first
    maximum wins.  A copy is found by a hash of its bytes and confirmed by
    comparing them, so no column's bytes are kept."""
    kept, by_hash = [], {}
    for j in range(matrix.shape[1]):
        column = matrix[:, j]
        if not column.min() < column.max():  # a copy of a constant column is constant
            continue
        key = column.tobytes()
        earlier = by_hash.setdefault(hash(key), [])
        if not any(matrix[:, i].tobytes() == key for i in earlier):
            earlier.append(j)
            kept.append(j)
    codes = np.empty((matrix.shape[0], len(kept)), dtype=np.intp)
    values, start = [], 0
    for i, j in enumerate(kept):
        distinct, inverse = np.unique(matrix[:, j], return_inverse=True)
        codes[:, i] = inverse + start
        values.append(distinct)
        start += distinct.size
    widths = np.array([v.size for v in values], dtype=np.intp)
    starts = np.cumsum(widths) - widths
    runs = []
    for width in np.unique(widths):
        at = starts[widths == width]
        runs.append(slice(at[0], at[0] + width) if at.size == 1 else at[:, None] + np.arange(width))
    return _Bins(
        codes=codes,
        values=np.concatenate([np.empty(0), *values]),
        feature=np.repeat(np.array(kept, dtype=np.intp), widths),
        column=np.repeat(np.arange(len(kept)), widths),
        last=np.repeat(starts + widths - 1, widths),
        runs=runs,
    )


# Cells of ``codes[rows]`` that one histogram gathers at a time.  A node of
# more rows times kept columns is counted one block of columns at a time.
_HISTOGRAM_CELLS = 1 << 17


def _histogram(bins: _Bins, rows: np.ndarray, grad: np.ndarray) -> _Histogram:
    """G and H of ``rows`` per bin; each bin folds its rows in the order of
    ``rows``, ascending in the grower.  Each block of columns is counted
    over every bin and the counts are summed.  A bin belongs to one block,
    and the others add +0.0 to it: a ``bincount`` sum starts at +0.0, so it
    is never -0.0, and every G and H keeps its bits."""
    size, weights = bins.values.size, grad[rows]
    step = max(1, _HISTOGRAM_CELLS // max(1, rows.shape[0]))  # columns per block
    for lo in range(0, max(1, bins.codes.shape[1]), step):  # once when no column is kept
        block = bins.codes[rows, lo : lo + step]
        block_g = np.bincount(block.ravel(), weights=weights.repeat(block.shape[1]), minlength=size)
        block_h = np.bincount(block.ravel(), minlength=size)
        if lo == 0:  # fresh arrays from bincount, so later blocks add in place
            g, h = block_g, block_h
        else:
            g += block_g
            h += block_h
    # An empty bincount is intp whatever its weights: no rows, or no bins.
    return _Histogram(bins, g.astype(np.float64, copy=False), h)


def find_best_split(
    rows: np.ndarray,
    matrix: np.ndarray,
    grad: np.ndarray,
    config: TrainConfig,
    hist: _Histogram | None = None,
) -> Split | None:
    """Exact-greedy scan over every feature and boundary threshold.

    ``hist`` is the node's histogram over the rank codes of ``matrix``,
    built from ``rows`` when omitted.  Candidates are boundaries between
    adjacent distinct values present at the node, cut by ``_threshold``; a
    candidate must leave at least min_child_weight of hessian on each side
    and have strictly positive gain.  Ties on gain resolve to the first
    maximum in (feature, threshold) order."""
    bins, g, h = hist if hist is not None else _histogram(_rank_codes(matrix), rows, grad)
    n_rows = rows.shape[0]
    # The bins holding rows, ascending.  A candidate is one followed by
    # another of its column: the next value present at the node.
    present = (h > 0).nonzero()[0]
    column = bins.column[present]
    at = (column[:-1] == column[1:]).nonzero()[0]
    # Rows at or below each candidate, exact: each row has one bin per column.
    h_left = (h[present].cumsum()[at] - column[at] * n_rows).astype(np.float64)
    h_total = float(n_rows)
    h_right = h_total - h_left
    if config.min_child_weight > 1.0:  # up to 1, the row on each side meets it
        usable = (h_left >= config.min_child_weight) & (h_right >= config.min_child_weight)
        at, h_left, h_right = at[usable], h_left[usable], h_right[usable]
    if at.size == 0:
        return None
    candidate, after = present[at], present[at + 1]
    # Running sums over every bin of each column in rank order.  G folds
    # within the column, so its last sum is the column's total.  An empty bin
    # of a derived histogram can hold a G residue, and it is folded too.
    g_cum = np.empty_like(g)
    for run in bins.runs:
        g_cum[run] = g[run].cumsum(axis=-1)
    g_total = g_cum[bins.last[candidate]]
    g_left = g_cum[candidate]
    g_right = g_total - g_left

    lam = config.reg_lambda
    # Each side holds a row and lambda >= 0, so no denominator is below 1;
    # train's _MAX_GRAD_SUM keeps every square finite.
    gains = (
        0.5
        * (
            g_left * g_left / (h_left + lam)
            + g_right * g_right / (h_right + lam)
            - (g_total * g_total) / (h_total + lam)
        )
        - config.gamma
    )

    best = int(gains.argmax())
    if not gains[best] > 0.0:
        return None
    lo, hi = candidate[best], after[best]
    threshold = _threshold(float(bins.values[lo]), float(bins.values[hi]))
    return Split(feature=int(bins.feature[lo]), threshold=threshold, gain=float(gains[best]))


def grow_tree(
    rows: np.ndarray,
    matrix: np.ndarray,
    grad: np.ndarray,
    config: TrainConfig,
    bins: _Bins | None = None,
) -> RegressionTree:
    """Depth-limited growth in pre-order; leaves store shrunken weights.

    ``bins`` are the rank codes of ``matrix``, built when omitted.  A node at
    ``max_depth``, or with fewer than 2 * max(1, min_child_weight) rows, is a
    leaf unsearched: no split can leave a row and min_child_weight on each
    side of it.  Of a split's two children, the one with fewer rows (the left
    on a tie) gets its histogram built from its rows, the other the parent's
    minus it; when neither child is searched, neither gets one."""
    rows = np.asarray(rows)
    if bins is None:
        bins = _rank_codes(matrix)
    min_rows = 2.0 * max(1.0, config.min_child_weight)
    # A split's slot holds None until its right child's index is known.
    nodes: list[Leaf | Branch | None] = []
    # (rows, histogram, depth, (index, Split) of the parent whose right child it is)
    stack = [(rows, _histogram(bins, rows, grad), 0, None)]
    while stack:
        node_rows, hist, depth, parent = stack.pop()
        index = len(nodes)
        if parent is not None:  # pre-order: the parent's left child is the node after it
            at, parent_split = parent
            nodes[at] = Branch(parent_split.feature, parent_split.threshold, at + 1, index)
        split = None
        if depth < config.max_depth and node_rows.shape[0] >= min_rows:
            split = find_best_split(node_rows, matrix, grad, config, hist)
        if split is None:
            g_sum = float(np.sum(grad[node_rows]))
            h_sum = float(node_rows.shape[0])
            weight = config.learning_rate * leaf_weight(g_sum, h_sum, config.reg_lambda)
            nodes.append(Leaf(weight))
            continue
        # Pre-order: the left child is popped next, the right one after the
        # left subtree, which builds this Branch above.
        nodes.append(None)
        left_rows, right_rows = _route(matrix[:, split.feature], node_rows, split.threshold)
        left = right = None  # for children that are not searched
        if depth + 1 < config.max_depth and max(left_rows.shape[0], right_rows.shape[0]) >= min_rows:
            small = left_rows if left_rows.shape[0] <= right_rows.shape[0] else right_rows
            built = _histogram(bins, small, grad)
            derived = _Histogram(bins, hist.g - built.g, hist.h - built.h)
            left, right = (built, derived) if small is left_rows else (derived, built)
        stack.append((right_rows, right, depth + 1, (index, split)))
        stack.append((left_rows, left, depth + 1, None))
    return RegressionTree(nodes=tuple(nodes))


def real_array(value, what: str) -> np.ndarray:
    """``value`` as a float64 array of real numbers, else NonFiniteInput:
    text, complex numbers and ragged rows are not real."""
    try:
        array = np.asarray(value)
        array = np.asarray(array.tolist()) if array.dtype == object else array  # a number per cell
        if array.dtype.kind not in "biuf":  # bool, integer or float; not text, complex or a date
            raise TypeError
    except (TypeError, ValueError):  # a ValueError: ragged rows, or text in an object array
        raise NonFiniteInput(f"{what} inputs must be real numbers") from None
    return array.astype(np.float64, copy=False)


def _finite_array(value, what: str) -> np.ndarray:
    """``value`` as a float64 array of finite real numbers, else NonFiniteInput:
    a NaN would route right at every split."""
    array = real_array(value, what)
    if not np.isfinite(array).all():
        raise NonFiniteInput(f"{what} inputs must be finite")
    return array


def check_fit_inputs(matrix, targets) -> tuple[np.ndarray, np.ndarray]:
    """The one input check of every fit: a finite, non-empty 2-D float
    matrix and a target vector with one value per row."""
    matrix = np.ascontiguousarray(_finite_array(matrix, "fit"))
    targets = _finite_array(targets, "fit")
    if matrix.ndim != 2:
        raise LengthMismatch(f"feature matrix must be 2-D, got shape {matrix.shape}")
    if targets.ndim != 1 or matrix.shape[0] != targets.shape[0]:
        raise LengthMismatch(
            f"matrix has {matrix.shape[0]} rows but targets has {targets.shape}"
        )
    if matrix.shape[0] == 0:
        raise EmptyData("cannot fit on an empty dataset")
    return matrix, targets


def check_predict_inputs(matrix, n_columns: int) -> np.ndarray:
    """The one input check of every predict: a finite 2-D float matrix with
    ``n_columns`` columns."""
    matrix = _finite_array(matrix, "predict")
    if matrix.ndim != 2 or matrix.shape[1] != n_columns:
        got = matrix.shape[1] if matrix.ndim == 2 else "?"
        raise LayoutMismatch(f"matrix has {got} columns, model expects {n_columns}")
    return matrix


# No node's |G| exceeds a round's sum |grad|, and each side of a split holds a
# row, so each term G^2/(H + lambda) of a gain, and the sum of two, is at most
# that sum squared.  Below this bound the square is finite with room to spare.
_MAX_GRAD_SUM = float(np.sqrt(np.finfo(np.float64).max / 2.0))


def train(
    matrix: np.ndarray,
    targets: np.ndarray,
    config: TrainConfig | None = None,
    feature_names: Sequence[str] | None = None,
    n_jobs: Jobs = 1,
) -> Ensemble:
    """Boost n_trees rounds of second-order tree fitting.

    Each round recomputes per-row gradients against the current predictions,
    grows one tree, and adds its (already shrunken) outputs to the
    prediction buffer.  Every column is rank-coded once, up front, for all
    rounds.  Deterministic for a fixed config.  ``n_jobs`` (at least 1)
    is accepted for compatibility only: training runs on one thread, and
    neither its result nor its speed depends on ``n_jobs``.
    """
    config = config or TrainConfig()
    check_value(n_jobs, Jobs, InvalidConfig, "n_jobs")
    matrix, targets = check_fit_inputs(matrix, targets)
    names = tuple(feature_names) if feature_names is not None else tuple(
        f"f{i}" for i in range(matrix.shape[1])
    )
    if len(names) != matrix.shape[1]:
        raise LayoutMismatch(
            f"{len(names)} feature names for {matrix.shape[1]} matrix columns"
        )

    if config.base_score is None:
        with np.errstate(over="ignore"):
            base = float(np.mean(targets))
        if not np.isfinite(base):
            raise NonFiniteInput(f"the training-target mean overflows to {base}; rescale the target")
    else:
        base = float(config.base_score)
    predictions = np.full(matrix.shape[0], base, dtype=np.float64)
    rows = np.arange(matrix.shape[0])
    # Column-major, as in Ensemble.predict: each partition's and each
    # update's ``take`` gathers from one contiguous column.
    matrix = np.asfortranarray(matrix)
    bins = _rank_codes(matrix)  # built once here, not per tree in grow_tree

    trees: list[RegressionTree] = []
    for _ in range(config.n_trees):
        with np.errstate(over="ignore"):  # an overflowing sum fails the check below
            grad = predictions - targets
            grad_sum = float(np.abs(grad).sum())
        if not grad_sum <= _MAX_GRAD_SUM:
            raise NonFiniteInput(
                f"gradient sum {grad_sum:.3g} would overflow the split gains "
                f"(limit {_MAX_GRAD_SUM:.3g}); rescale the target"
            )
        tree = grow_tree(rows, matrix, grad, config, bins)
        trees.append(tree)
        predictions += tree.predict(matrix)
    return Ensemble(
        trees=tuple(trees),
        base_score=base,
        learning_rate=config.learning_rate,
        feature_layout=names,
    )


def objective_value(
    ensemble: Ensemble,
    matrix: np.ndarray,
    targets: np.ndarray,
    reg_lambda: float,
    gamma: float,
) -> float:
    """Regularized objective of the stored model on a dataset: squared loss
    plus gamma per leaf plus the L2 penalty on stored leaf weights."""
    predictions = ensemble.predict(matrix)
    targets = np.asarray(targets, dtype=np.float64)
    loss = 0.5 * float(np.sum((predictions - targets) ** 2))
    penalty = 0.0
    for tree in ensemble.trees:
        weights = np.asarray([n.weight for n in tree.nodes if isinstance(n, Leaf)], dtype=np.float64)
        penalty += gamma * weights.size + 0.5 * reg_lambda * float(np.sum(weights**2))
    return loss + penalty


# JSON types of a model document's parts; a node is a Leaf or a Branch.  A
# bundle written by `train` adds the encoder, schema, target mode and bins; a
# bare ensemble has none of them.
FORMAT_VERSION = 1
_TREE = {"root": Literal[0], "nodes": list}
_ENSEMBLE = {"format_version": Literal[FORMAT_VERSION], "kind": Literal["ensemble"],
             "base_score": float, "learning_rate": float, "feature_layout": tuple[str, ...],
             "trees": list}
_BUNDLE = {"pipeline": dict, "schema": list, "target_mode": TargetMode, "bins": dict | None}


def to_json(ensemble: Ensemble) -> dict:
    """Model document, each node keyed by the fields of its class; floats
    survive bit-exactly via shortest-round-trip text."""
    trees = [{"root": 0, "nodes": to_doc(tree.nodes)} for tree in ensemble.trees]
    return {
        "format_version": FORMAT_VERSION,
        "kind": "ensemble",
        "base_score": ensemble.base_score,
        "learning_rate": ensemble.learning_rate,
        "feature_layout": list(ensemble.feature_layout),
        "trees": trees,
    }


def _require(condition: bool, location: str, message: str) -> None:
    if not condition:
        raise MalformedModel(f"{location}: {message}")


def _check_tree(doc, layout_size: int, location: str) -> tuple[RegressionTree, float]:
    """The tree ``doc`` decodes to, and the largest |weight| of its leaves.  One
    walk from the root, left child first (index order for a tree `train` wrote),
    decodes and bounds each node where it first reaches it."""
    doc = check_doc(doc, _TREE, MalformedModel, location, required=_TREE.keys())
    size = len(doc["nodes"])
    _require(size > 0, location, "a tree needs at least one node")
    nodes, largest, stack = [None] * size, 0.0, [0]
    while stack:
        i = stack.pop()
        where = f"{location}.nodes[{i}]"
        _require(nodes[i] is None, where, "node reached twice (cycle or shared child)")
        node_doc = doc["nodes"][i]
        is_leaf = isinstance(node_doc, dict) and "weight" in node_doc
        node = nodes[i] = from_doc(Leaf if is_leaf else Branch, node_doc, MalformedModel, where)
        if is_leaf:
            largest = max(largest, abs(node.weight))
        else:
            feature, left, right = node.feature, node.left, node.right
            _require(0 <= feature < layout_size, where, f"feature index {feature} not in [0, {layout_size})")
            _require(0 <= left < size and 0 <= right < size, where, f"child {left} or {right} out of range")
            stack.extend((right, left))
    unreached = nodes.count(None)
    _require(unreached == 0, location, f"{unreached} node(s) unreachable from the root")
    return RegressionTree(nodes=tuple(nodes)), largest


def from_json(doc) -> Ensemble:
    """Validate and decode a model document, bare or a `train` bundle; the
    error names the first offending location.  |base_score| plus each tree's
    largest |leaf weight|, summed in tree order, must be finite: rounding is
    monotone, so that sum bounds every running sum ``Ensemble.predict`` forms."""
    doc = check_doc(doc, {**_ENSEMBLE, **_BUNDLE}, MalformedModel, "model", required=_ENSEMBLE.keys())
    base, rate, layout = float(doc["base_score"]), float(doc["learning_rate"]), doc["feature_layout"]
    (rates,) = LearningRate.__metadata__
    _require(rates.admits(rate), "model.learning_rate", f"must be {rates}, got {rate}")
    trees, bound = [], abs(base)
    for k, tree_doc in enumerate(doc["trees"]):
        tree, largest = _check_tree(tree_doc, len(layout), f"model.trees[{k}]")
        trees.append(tree)
        bound += largest
    _require(bound <= sys.float_info.max, "model",
             f"predictions can overflow: |base_score| plus each tree's largest |leaf weight| is {bound}")
    return Ensemble(trees=tuple(trees), base_score=base, learning_rate=rate, feature_layout=layout)


def save_model(document: dict, path) -> None:
    Path(path).write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def load_model(path) -> dict:
    return read_json(path, "model", MalformedModel)
