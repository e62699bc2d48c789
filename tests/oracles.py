"""Independent reference implementations the tests check the learners against.

These deliberately avoid the library's own code paths: the minimizer is a
golden-section search, the split oracle enumerates every candidate with
masked sums, and the reference grower is scalar Python written from the
learner's stated rules.
"""

import numpy as np


def golden_section_minimize(fn, lo, hi, tol=1e-10, max_iter=300):
    inv_phi = (5**0.5 - 1) / 2
    a, b = float(lo), float(hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return (a + b) / 2


def leaf_objective(g_sum, h_sum, reg_lambda, w):
    """Second-order per-leaf objective G*w + 1/2 (H + lambda) w^2."""
    return g_sum * w + 0.5 * (h_sum + reg_lambda) * w * w


def enumerate_best_split(matrix, rows, grad, hess, reg_lambda, gamma, min_child_weight):
    """Scalar re-derivation of exact-greedy: walk each feature's rows in
    (value, row) order, accumulate g/h left-to-right, and evaluate the
    closed-form gain at every boundary between distinct values.  The first
    strictly-better candidate in feature-then-threshold order wins, which is
    the learner's stated tie-break; folding in the same sorted order keeps
    mathematically tied candidates bitwise tied here too.  Returns
    (gain, feature, threshold) or None."""
    X = np.asarray(matrix)[np.asarray(rows)]
    g = [float(v) for v in np.asarray(grad)[np.asarray(rows)]]
    h = [float(v) for v in np.asarray(hess)[np.asarray(rows)]]
    n = len(g)
    best = None
    for feature in range(X.shape[1]):
        column = [float(v) for v in X[:, feature]]
        order = sorted(range(n), key=lambda i: (column[i], i))
        g_total = 0.0
        h_total = 0.0
        for i in order:
            g_total += g[i]
            h_total += h[i]
        g_left = 0.0
        h_left = 0.0
        for position in range(n - 1):
            g_left += g[order[position]]
            h_left += h[order[position]]
            lo = column[order[position]]
            hi = column[order[position + 1]]
            if not lo < hi:
                continue
            g_right = g_total - g_left
            h_right = h_total - h_left
            if h_left < min_child_weight or h_right < min_child_weight:
                continue
            if h_left + reg_lambda <= 0 or h_right + reg_lambda <= 0:
                continue
            gain = (
                0.5
                * (
                    g_left * g_left / (h_left + reg_lambda)
                    + g_right * g_right / (h_right + reg_lambda)
                    - g_total * g_total / (h_total + reg_lambda)
                )
                - gamma
            )
            if gain > 0.0 and (best is None or gain > best[0]):
                best = (gain, feature, (lo + hi) / 2.0)
    return best


def _cut(lo, hi):
    """The threshold rule: the midpoint when lo < midpoint <= hi, else
    lo/2 + hi/2 under the same test, else hi."""
    for t in ((lo + hi) / 2.0, lo / 2.0 + hi / 2.0):
        if lo < t <= hi:
            return t
    return hi


def reference_train(matrix, targets, config):
    """The model document ``train`` writes, grown in scalar Python from the
    learner's rules:

    - the base score is ``np.mean`` of the targets; each round's gradient is
      prediction minus target, and a leaf's weight is the learning rate times
      -np.sum(its rows' gradients) / (rows + lambda);
    - a column's bins are its distinct values over every training row; a
      node's histogram holds per bin G, folded from 0.0 over the node's rows
      in ascending order, and H, the bin's row count;
    - of a split's children the one with fewer rows (the left on a tie)
      gets a histogram folded from its rows and the other the parent's
      minus it, bin by bin; neither gets one when neither can be searched;
    - a node is searched only below max_depth and with at least
      2 * max(1, min_child_weight) rows;
    - a candidate is a bin holding rows followed by the next bin of its
      column that holds rows; G left of it is the running sum over every bin
      of the column up to it, the column's total its last running sum, and H
      left of it counts rows;
    - the first candidate of strictly largest positive gain wins, in column
      then value order, and cuts by ``_cut``; rows below the threshold go
      left, each side keeping the node's row order.

    It keeps every column, constant and duplicate ones too: a copy's gains
    equal the first copy's, so the first maximum is the same."""
    X = [[float(v) for v in row] for row in np.asarray(matrix)]
    y = [float(v) for v in np.asarray(targets)]
    n, width = len(X), len(X[0])
    lam, gamma, mcw = config.reg_lambda, config.gamma, config.min_child_weight
    min_rows = 2.0 * max(1.0, mcw)
    values = [sorted({X[i][j] for i in range(n)}) for j in range(width)]
    rank = [{v: k for k, v in enumerate(column)} for column in values]
    code = [[rank[j][X[i][j]] for j in range(width)] for i in range(n)]

    def histogram(rows, grad):
        g = [[0.0] * len(column) for column in values]
        h = [[0] * len(column) for column in values]
        for i in rows:
            for j in range(width):
                g[j][code[i][j]] += grad[i]
                h[j][code[i][j]] += 1
        return g, h

    def minus(parent, child):  # bin by bin, G and H alike
        return tuple(
            [[a - b for a, b in zip(p, c)] for p, c in zip(parent_sums, child_sums)]
            for parent_sums, child_sums in zip(parent, child)
        )

    def search(rows, hist):
        g, h = hist
        total = float(len(rows))
        best = None
        for j in range(width):
            running, running_sums = 0.0, []
            for value in g[j]:
                running += value
                running_sums.append(running)
            g_total = running_sums[-1]
            present = [k for k in range(len(values[j])) if h[j][k] > 0]
            below = 0
            for k, after in zip(present, present[1:]):
                below += h[j][k]
                h_left, h_right = float(below), total - below
                if h_left < mcw or h_right < mcw:
                    continue
                g_left = running_sums[k]
                g_right = g_total - g_left
                gain = 0.5 * (
                    g_left * g_left / (h_left + lam)
                    + g_right * g_right / (h_right + lam)
                    - g_total * g_total / (total + lam)
                ) - gamma
                if gain > 0.0 and (best is None or gain > best[0]):
                    best = (gain, j, _cut(values[j][k], values[j][after]))
        return best

    def grow(rows, hist, depth, grad, nodes, weights):
        index = len(nodes)
        split = search(rows, hist) if depth < config.max_depth and len(rows) >= min_rows else None
        if split is None:
            g_sum = float(np.sum(np.array([grad[i] for i in rows])))
            weight = config.learning_rate * (-g_sum / (len(rows) + lam))
            nodes.append({"weight": weight})
            for i in rows:
                weights[i] = weight
            return
        _, feature, threshold = split
        nodes.append(None)
        left = [i for i in rows if X[i][feature] < threshold]
        right = [i for i in rows if not X[i][feature] < threshold]
        left_hist = right_hist = None
        if depth + 1 < config.max_depth and max(len(left), len(right)) >= min_rows:
            if len(left) <= len(right):
                left_hist = histogram(left, grad)
                right_hist = minus(hist, left_hist)
            else:
                right_hist = histogram(right, grad)
                left_hist = minus(hist, right_hist)
        grow(left, left_hist, depth + 1, grad, nodes, weights)
        right_index = len(nodes)
        grow(right, right_hist, depth + 1, grad, nodes, weights)
        nodes[index] = {"feature": feature, "threshold": threshold, "left": index + 1, "right": right_index}

    base = config.base_score
    if base is None:
        base = float(np.mean(np.asarray(targets, dtype=np.float64)))
    predictions = [base] * n
    trees = []
    for _ in range(config.n_trees):
        grad = [p - t for p, t in zip(predictions, y)]
        nodes, weights = [], [0.0] * n
        grow(list(range(n)), histogram(range(n), grad), 0, grad, nodes, weights)
        predictions = [p + w for p, w in zip(predictions, weights)]
        trees.append({"root": 0, "nodes": nodes})
    return {
        "format_version": 1,
        "kind": "ensemble",
        "base_score": base,
        "learning_rate": config.learning_rate,
        "feature_layout": [f"f{j}" for j in range(width)],
        "trees": trees,
    }
