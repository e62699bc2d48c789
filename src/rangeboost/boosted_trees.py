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
decreases monotonically round over round for any shrinkage in (0, 1].
``train`` therefore passes ``hess=None``, a unit hessian, and H over a set
of rows is its row count, an exact integer in float64.  ``find_best_split``
and ``grow_tree`` keep their ``hess`` argument but take only ``None`` or an
all-ones array.

Each column is sorted once per ``train`` call.  Every node carries, per
feature, its rows and their values in (value, row) order; a split stably
partitions both for its children, and children at ``max_depth`` (leaves)
get no lists at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Literal, Sequence

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
from .jsondoc import check_doc, read_json


def leaf_weight(g_sum: float, h_sum: float, reg_lambda: float) -> float:
    """Minimizer of the per-leaf objective G*w + 1/2 (H + lambda) w^2."""
    denom = h_sum + reg_lambda
    if denom <= 0.0:
        raise DegenerateLeaf(f"hessian sum plus lambda must be positive, got {denom}")
    return -g_sum / denom


def split_gain(
    g_left: float,
    h_left: float,
    g_right: float,
    h_right: float,
    reg_lambda: float,
    gamma: float,
) -> float:
    """Objective reduction from splitting one leaf into two, net of the
    per-leaf penalty gamma.  May be negative."""
    if h_left + reg_lambda <= 0.0 or h_right + reg_lambda <= 0.0:
        raise DegenerateLeaf("each child needs a positive hessian sum plus lambda")
    g_parent = g_left + g_right
    h_parent = h_left + h_right
    return (
        0.5
        * (
            g_left * g_left / (h_left + reg_lambda)
            + g_right * g_right / (h_right + reg_lambda)
            - g_parent * g_parent / (h_parent + reg_lambda)
        )
        - gamma
    )


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the second-order learner.

    ``base_score=None`` means "use the training-target mean".  ``seed`` is
    carried for config-file compatibility; training itself is deterministic.
    """

    n_trees: int = 200
    learning_rate: float = 0.1
    reg_lambda: float = 1.0
    gamma: float = 0.0
    max_depth: int = 6
    min_child_weight: float = 1.0
    base_score: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 0:
            raise InvalidConfig(f"n_trees must be >= 0, got {self.n_trees}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise InvalidConfig(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if self.reg_lambda < 0.0:
            raise InvalidConfig(f"reg_lambda must be >= 0, got {self.reg_lambda}")
        if self.gamma < 0.0:
            raise InvalidConfig(f"gamma must be >= 0, got {self.gamma}")
        if self.max_depth < 1:
            raise InvalidConfig(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_child_weight < 0.0:
            raise InvalidConfig(f"min_child_weight must be >= 0, got {self.min_child_weight}")


@dataclass(frozen=True)
class TreeNode:
    """Either an internal test (feature, threshold, children) or a leaf
    (weight).  Rows with value < threshold route left, >= routes right."""

    feature: int | None = None
    threshold: float | None = None
    left: int | None = None
    right: int | None = None
    weight: float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class RegressionTree:
    nodes: tuple[TreeNode, ...]
    root: int = 0

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        out = np.empty(matrix.shape[0], dtype=np.float64)
        stack = [(self.root, np.arange(matrix.shape[0]))]
        while stack:
            idx, rows = stack.pop()
            node = self.nodes[idx]
            if node.is_leaf:
                out[rows] = node.weight
            else:
                mask = matrix[rows, node.feature] < node.threshold
                stack.append((node.left, rows[mask]))
                stack.append((node.right, rows[~mask]))
        return out

    def leaf_weights(self) -> np.ndarray:
        return np.asarray([n.weight for n in self.nodes if n.is_leaf], dtype=np.float64)

    @property
    def n_leaves(self) -> int:
        return sum(1 for n in self.nodes if n.is_leaf)


@dataclass(frozen=True)
class Ensemble:
    """Additive model: base score plus the sum of per-tree leaf weights.
    Leaf weights are stored post-shrinkage."""

    trees: tuple[RegressionTree, ...]
    base_score: float
    learning_rate: float
    feature_layout: tuple[str, ...]

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.feature_layout):
            raise LayoutMismatch(
                f"matrix has {matrix.shape[1] if matrix.ndim == 2 else '?'} columns, "
                f"model expects {len(self.feature_layout)}"
            )
        check_finite("predict", matrix)  # NaN would route right at every split
        # Column-major, so each split's gather reads one contiguous column.
        matrix = np.asfortranarray(matrix)
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


def _sort_rows(rows: np.ndarray, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per feature, ``rows`` in (value, position in ``rows``) order and
    their values in that order; shape (features, rows) each."""
    order = rows[np.argsort(columns[:, rows], axis=1, kind="stable")]
    return order, np.take_along_axis(columns, order, axis=1)


def _cut(order: np.ndarray, values: np.ndarray, keep: np.ndarray, n_rows: int):
    """The entries of ``order`` and ``values`` where ``keep`` is set, each
    feature's in their sorted order; shape (features, n_rows) each.  Taken
    by index: numpy copies a boolean selection run by run, which is slow on
    the scattered masks of every feature but the split one."""
    index = np.flatnonzero(keep)
    shape = (order.shape[0], n_rows)
    return order.take(index).reshape(shape), values.take(index).reshape(shape)


def _check_unit_hessian(hess: np.ndarray | None) -> None:
    """The learner is specialised to a unit hessian: ``hess`` must be
    ``None`` or all ones."""
    if hess is not None and not np.all(np.asarray(hess) == 1.0):
        raise InvalidConfig("hess must be None or all ones: the learner fits squared loss")


def find_best_split(
    rows: np.ndarray,
    matrix: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray | None,
    config: TrainConfig,
    order: np.ndarray | None = None,
    values: np.ndarray | None = None,
) -> Split | None:
    """Exact-greedy scan over every feature and boundary threshold.

    ``order`` holds, per feature, the node's rows in (value, row) order and
    ``values`` the feature values in that order; both are derived from
    ``rows`` when either is omitted.  ``hess`` must be ``None`` or all ones
    (a unit hessian), so the hessian sum of a set of rows is its row count,
    an exact integer in float64.  Candidates are boundaries
    between adjacent distinct sorted values, cut by ``_threshold``; a
    candidate must leave at least min_child_weight of hessian on each side
    and have strictly positive gain.  Ties on gain resolve to the first
    maximum in (feature, threshold) order."""
    _check_unit_hessian(hess)
    if matrix.shape[1] == 0 or rows.shape[0] < 2:
        return None
    if order is None or values is None:
        order, values = _sort_rows(rows, matrix.T)
    g_cum = np.cumsum(grad[order], axis=1)
    feature, position = np.nonzero(values[:, :-1] < values[:, 1:])
    if feature.size == 0:
        return None
    g_total = g_cum[feature, -1]
    g_left = g_cum[feature, position]
    h_total = float(rows.shape[0])
    h_left = position + 1.0
    g_right = g_total - g_left
    h_right = h_total - h_left

    lam = config.reg_lambda
    usable = (
        (h_left >= config.min_child_weight)
        & (h_right >= config.min_child_weight)
        & (h_left + lam > 0.0)
        & (h_right + lam > 0.0)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = (
            0.5
            * (
                g_left * g_left / (h_left + lam)
                + g_right * g_right / (h_right + lam)
                - (g_total * g_total) / (h_total + lam)
            )
            - config.gamma
        )
    gains = np.where(usable, gains, -np.inf)

    best = int(np.argmax(gains))
    if not gains[best] > 0.0:
        return None
    col, boundary = feature[best], position[best]
    threshold = _threshold(float(values[col, boundary]), float(values[col, boundary + 1]))
    return Split(feature=int(col), threshold=threshold, gain=float(gains[best]))


def grow_tree(
    rows: np.ndarray,
    matrix: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray | None,
    config: TrainConfig,
    order: np.ndarray | None = None,
    values: np.ndarray | None = None,
) -> RegressionTree:
    """Depth-limited growth in pre-order; leaves store shrunken weights.

    ``hess``, ``order`` and ``values`` are as in ``find_best_split``.  A
    split stably partitions every feature's sorted rows and values, so each
    child's lists stay in (value, row) order without sorting again; children
    at ``max_depth`` are leaves and get no lists.  A node's lists are
    dropped once its children's are cut."""
    _check_unit_hessian(hess)
    rows = np.asarray(rows)
    if order is None or values is None:
        order, values = _sort_rows(rows, matrix.T)
    goes_left = np.zeros(matrix.shape[0], dtype=bool)
    nodes: list[TreeNode] = []
    # (rows, order, values, depth, index of the parent whose right child it is)
    stack = [(rows, order, values, 0, None)]
    while stack:
        node_rows, node_order, node_values, depth, parent = stack.pop()
        index = len(nodes)
        if parent is not None:
            nodes[parent] = replace(nodes[parent], right=index)
        split = None
        if depth < config.max_depth:
            split = find_best_split(node_rows, matrix, grad, None, config, node_order, node_values)
        if split is None:
            g_sum = float(np.sum(grad[node_rows]))
            h_sum = float(node_rows.shape[0])
            weight = config.learning_rate * leaf_weight(g_sum, h_sum, config.reg_lambda)
            nodes.append(TreeNode(weight=weight))
            continue
        # Pre-order: the left child is popped next, the right one after the
        # left subtree, which fills in its index above.
        nodes.append(TreeNode(feature=split.feature, threshold=split.threshold, left=index + 1))
        goes_left[node_order[split.feature]] = node_values[split.feature] < split.threshold
        mask = goes_left[node_rows]
        n_left = int(np.count_nonzero(mask))
        n_right = node_rows.shape[0] - n_left
        left = right = (None, None)  # children at max_depth are leaves
        if depth + 1 < config.max_depth:
            flags = goes_left[node_order]
            left = _cut(node_order, node_values, flags, n_left)
            right = _cut(node_order, node_values, ~flags, n_right)
        stack.append((node_rows[~mask], *right, depth + 1, index))
        stack.append((node_rows[mask], *left, depth + 1, None))
    return RegressionTree(nodes=tuple(nodes), root=0)


def check_fit_inputs(matrix, targets) -> tuple[np.ndarray, np.ndarray]:
    """The one input check of every fit: a finite, non-empty 2-D float
    matrix and a target vector with one value per row."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if matrix.ndim != 2:
        raise LengthMismatch(f"feature matrix must be 2-D, got shape {matrix.shape}")
    if targets.ndim != 1 or matrix.shape[0] != targets.shape[0]:
        raise LengthMismatch(
            f"matrix has {matrix.shape[0]} rows but targets has {targets.shape}"
        )
    if matrix.shape[0] == 0:
        raise EmptyData("cannot fit on an empty dataset")
    check_finite("fit", matrix, targets)
    return matrix, targets


def check_finite(what: str, *arrays: np.ndarray) -> None:
    """Raise NonFiniteInput if any array holds a NaN or an infinity."""
    if not all(np.isfinite(array).all() for array in arrays):
        raise NonFiniteInput(f"{what} inputs must be finite")


def train(
    matrix: np.ndarray,
    targets: np.ndarray,
    config: TrainConfig | None = None,
    feature_names: Sequence[str] | None = None,
    n_jobs: int = 1,
) -> Ensemble:
    """Boost n_trees rounds of second-order tree fitting.

    Each round recomputes per-row gradients against the current predictions,
    grows one tree, and adds its (already shrunken) outputs to the
    prediction buffer.  Every column is sorted once, up front, for all
    rounds.  Deterministic for a fixed config.  ``n_jobs`` is accepted for
    compatibility only: training runs on one thread, and neither its result
    nor its speed depends on ``n_jobs``.
    """
    config = config or TrainConfig()
    matrix, targets = check_fit_inputs(matrix, targets)
    names = tuple(feature_names) if feature_names is not None else tuple(
        f"f{i}" for i in range(matrix.shape[1])
    )
    if len(names) != matrix.shape[1]:
        raise LayoutMismatch(
            f"{len(names)} feature names for {matrix.shape[1]} matrix columns"
        )

    base = float(np.mean(targets)) if config.base_score is None else float(config.base_score)
    predictions = np.full(matrix.shape[0], base, dtype=np.float64)
    rows = np.arange(matrix.shape[0])
    # Built once here, not per tree in grow_tree: every round starts from
    # the same sorted root lists.
    columns = np.ascontiguousarray(matrix.T)
    order, values = _sort_rows(rows, columns)

    trees: list[RegressionTree] = []
    for _ in range(config.n_trees):
        grad = predictions - targets
        tree = grow_tree(rows, matrix, grad, None, config, order, values)
        trees.append(tree)
        predictions += tree.predict(columns.T)  # column-major view, as in Ensemble.predict
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
        weights = tree.leaf_weights()
        penalty += gamma * tree.n_leaves + 0.5 * reg_lambda * float(np.sum(weights**2))
    return loss + penalty


FORMAT_VERSION = 1


def to_json(ensemble: Ensemble) -> dict:
    """Model document; floats survive bit-exactly via shortest-round-trip
    text."""
    trees = []
    for tree in ensemble.trees:
        nodes = []
        for node in tree.nodes:
            if node.is_leaf:
                nodes.append({"weight": node.weight})
            else:
                nodes.append(
                    {
                        "feature": node.feature,
                        "threshold": node.threshold,
                        "left": node.left,
                        "right": node.right,
                    }
                )
        trees.append({"root": tree.root, "nodes": nodes})
    return {
        "format_version": FORMAT_VERSION,
        "kind": "ensemble",
        "base_score": ensemble.base_score,
        "learning_rate": ensemble.learning_rate,
        "feature_layout": list(ensemble.feature_layout),
        "trees": trees,
    }


# JSON types of a model document's parts.  A bundle written by `train` adds
# the encoder, schema, target mode and bins; a bare ensemble has none of them.
_LEAF = {"weight": float}
_SPLIT = {"feature": int, "threshold": float, "left": int, "right": int}
_TREE = {"root": int, "nodes": list}
_ENSEMBLE = {"format_version": Literal[FORMAT_VERSION], "kind": Literal["ensemble"],
             "base_score": float, "learning_rate": float, "feature_layout": tuple[str, ...],
             "trees": list}
_BUNDLE = {"pipeline": dict, "schema": list, "target_mode": str, "bins": dict | None}


def _require(condition: bool, location: str, message: str) -> None:
    if not condition:
        raise MalformedModel(f"{location}: {message}")


def _check_tree(doc, layout_size: int, location: str) -> RegressionTree:
    doc = check_doc(doc, _TREE, MalformedModel, location, required=_TREE.keys())
    size, root = len(doc["nodes"]), doc["root"]
    _require(0 <= root < size, location, f"bad root index {root!r} for {size} node(s)")
    nodes: list[TreeNode] = []
    for i, node_doc in enumerate(doc["nodes"]):
        where = f"{location}.nodes[{i}]"
        fields = _LEAF if isinstance(node_doc, dict) and "weight" in node_doc else _SPLIT
        node = check_doc(node_doc, fields, MalformedModel, where, required=fields.keys())
        if fields is _LEAF:
            nodes.append(TreeNode(weight=float(node["weight"])))
            continue
        feature, left, right = node["feature"], node["left"], node["right"]
        _require(0 <= feature < layout_size, where, f"feature index {feature} not in [0, {layout_size})")
        _require(0 <= left < size and 0 <= right < size, where, f"child {left} or {right} out of range")
        nodes.append(TreeNode(feature=feature, threshold=float(node["threshold"]), left=left, right=right))

    seen: set[int] = set()
    stack = [root]
    while stack:
        idx = stack.pop()
        _require(idx not in seen, f"{location}.nodes[{idx}]", "node reached twice (cycle or shared child)")
        seen.add(idx)
        node = nodes[idx]
        if not node.is_leaf:
            stack.extend((node.left, node.right))
    _require(len(seen) == size, location, f"{size - len(seen)} node(s) unreachable from the root")
    return RegressionTree(nodes=tuple(nodes), root=root)


def from_json(doc) -> Ensemble:
    """Validate and decode a model document, bare or a `train` bundle; the
    error names the first offending location."""
    doc = check_doc(doc, {**_ENSEMBLE, **_BUNDLE}, MalformedModel, "model", required=_ENSEMBLE.keys())
    layout = doc["feature_layout"]
    trees = tuple(
        _check_tree(tree, len(layout), f"model.trees[{k}]") for k, tree in enumerate(doc["trees"])
    )
    return Ensemble(
        trees=trees,
        base_score=float(doc["base_score"]),
        learning_rate=float(doc["learning_rate"]),
        feature_layout=layout,
    )


def save_model(document: dict, path) -> None:
    Path(path).write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def load_model(path) -> dict:
    return read_json(path, "model", MalformedModel)
