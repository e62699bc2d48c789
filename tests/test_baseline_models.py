import numpy as np
import pytest

from spoiled_matrices import SPOILED_MATRICES
from rangeboost import baseline_models
from rangeboost.baseline_models import (
    GbdtBaselineConfig,
    LinearModel,
    SvrConfig,
    fit_bayes_ridge,
    fit_gbdt_first_order,
    fit_linear_svr,
    fit_ols,
    linear_to_json,
    svr_objective,
)
from rangeboost.boosted_trees import FORMAT_VERSION, Leaf
from rangeboost.errors import EmptyData, InvalidConfig, LayoutMismatch, NonFiniteInput


def test_ols_exact_line():
    x = np.linspace(0, 5, 12).reshape(-1, 1)
    y = 2.0 * x[:, 0] + 1.0
    model = fit_ols(x, y)
    assert model.weights[0] == pytest.approx(2.0, abs=1e-9)
    assert model.intercept == pytest.approx(1.0, abs=1e-9)


def test_ols_collinear_matches_pseudo_inverse():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(5, 2))
    matrix = np.column_stack([base, base[:, 0]])  # duplicated column
    targets = base @ np.array([1.0, -2.0]) + 0.5
    model = fit_ols(matrix, targets)
    fitted = model.predict(matrix)
    assert np.allclose(fitted, targets, atol=1e-6)
    augmented = np.hstack([matrix, np.ones((5, 1))])
    reference = augmented @ (np.linalg.pinv(augmented) @ targets)
    assert np.allclose(fitted, reference, atol=1e-6)


def test_ols_zero_features_gives_mean_intercept():
    targets = np.array([1.0, 2.0, 6.0])
    model = fit_ols(np.empty((3, 0)), targets)
    assert model.weights == ()
    assert model.intercept == pytest.approx(3.0)


def test_bayes_ridge_diagonal_closed_form():
    # Every column and the target are centred already, and X'X = 2I, so the
    # posterior mean is X'y / (2 + alpha) with a zero intercept.
    matrix = np.vstack([np.eye(3), -np.eye(3)])
    for alpha in (0.5, 1.0, 4.0):
        model = fit_bayes_ridge(matrix, matrix[:, 0], alpha)
        assert np.allclose(model.weights, np.array([2.0, 0.0, 0.0]) / (2.0 + alpha), rtol=0.0, atol=1e-12)
        assert model.intercept == pytest.approx(0.0, abs=1e-12)


def test_bayes_ridge_approaches_ols_for_tiny_alpha():
    rng = np.random.default_rng(1)
    matrix = rng.normal(size=(50, 3))
    targets = matrix @ np.array([1.0, -0.5, 2.0]) + 0.3 + 0.01 * rng.normal(size=50)
    ridge = fit_bayes_ridge(matrix, targets, alpha=1e-8)
    ols = fit_ols(matrix, targets)
    assert np.allclose(ridge.weights, ols.weights, atol=1e-6)
    assert ridge.intercept == pytest.approx(ols.intercept, abs=1e-6)


def test_bayes_ridge_large_alpha_shrinks_to_mean():
    rng = np.random.default_rng(2)
    matrix = rng.normal(size=(30, 2))
    targets = rng.normal(size=30) + 5.0
    model = fit_bayes_ridge(matrix, targets, alpha=1e8)
    assert np.allclose(model.weights, 0.0, atol=1e-6)
    assert model.intercept == pytest.approx(float(np.mean(targets)), abs=1e-4)


def test_bayes_ridge_requires_positive_alpha():
    with pytest.raises(InvalidConfig):
        fit_bayes_ridge(np.ones((2, 1)), np.ones(2), alpha=0.0)


def test_bayes_ridge_checks_its_inputs_once(monkeypatch):
    checked = []
    check = baseline_models.check_fit_inputs
    monkeypatch.setattr(
        baseline_models, "check_fit_inputs", lambda *args: checked.append(args) or check(*args)
    )
    fit_bayes_ridge(np.eye(3), np.arange(3.0))
    assert len(checked) == 1


@pytest.mark.parametrize("column", [[1.7e308, -1.7e308, 1e308], [1e200, -1e200, 3e200]])
def test_bayes_ridge_rejects_overflowing_normal_equations(column):
    # finite inputs whose centring (first) or Gram matrix (second) overflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteInput, match="overflow"):
            fit_bayes_ridge(np.array(column).reshape(-1, 1), np.arange(3.0))


def test_gbdt_interpolates_distinct_rows():
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(16, 2))
    targets = rng.normal(size=16)
    config = GbdtBaselineConfig(n_trees=1, learning_rate=1.0, max_depth=16, min_samples_leaf=1)
    model = fit_gbdt_first_order(matrix, targets, config)
    assert float(np.mean((model.predict(matrix) - targets) ** 2)) < 1e-9


def test_gbdt_constant_targets_single_leaf():
    matrix = np.arange(8.0).reshape(-1, 1)
    targets = np.full(8, 3.25)
    model = fit_gbdt_first_order(matrix, targets, GbdtBaselineConfig(n_trees=2))
    assert all(len(tree.nodes) == 1 for tree in model.trees)
    assert np.allclose(model.predict(matrix), targets)


def test_gbdt_mse_non_increasing_per_round():
    rng = np.random.default_rng(6)
    matrix = rng.normal(size=(60, 3))
    targets = rng.normal(size=60)
    for eta in (0.3, 1.0):
        config = GbdtBaselineConfig(n_trees=25, learning_rate=eta, max_depth=3)
        model = fit_gbdt_first_order(matrix, targets, config)
        preds = np.full(60, model.base_score)
        last = float(np.mean((preds - targets) ** 2))
        for tree in model.trees:
            preds += tree.predict(matrix)
            current = float(np.mean((preds - targets) ** 2))
            assert current <= last + 1e-12
            last = current


def test_gbdt_respects_min_samples_leaf():
    matrix = np.arange(10.0).reshape(-1, 1)
    targets = np.arange(10.0)
    config = GbdtBaselineConfig(n_trees=1, learning_rate=1.0, max_depth=8, min_samples_leaf=3)
    model = fit_gbdt_first_order(matrix, targets, config)

    def leaf_sizes(tree):
        sizes = []
        stack = [(0, np.arange(10))]
        while stack:
            idx, rows = stack.pop()
            node = tree.nodes[idx]
            if isinstance(node, Leaf):
                sizes.append(len(rows))
            else:
                mask = matrix[rows, node.feature] < node.threshold
                stack.append((node.left, rows[mask]))
                stack.append((node.right, rows[~mask]))
        return sizes

    assert min(leaf_sizes(model.trees[0])) >= 3


def test_svr_inside_tube_stays_at_zero():
    matrix = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])
    targets = np.array([0.05, -0.08, 0.0])
    config = SvrConfig(epsilon=0.1, epochs=50, step_size=0.1)
    model = fit_linear_svr(matrix, targets, config)
    assert model.weights == (0.0, 0.0)
    assert model.intercept == 0.0


def test_svr_mae_decreases_on_separable_fixture():
    rng = np.random.default_rng(12)
    x = rng.uniform(-1, 1, size=(20, 1))
    y = 1.5 * x[:, 0]
    mae_by_epochs = []
    for epochs in (0, 40, 200):
        config = SvrConfig(epsilon=0.0, c=10.0, step_size=0.05, step_decay=0.0, epochs=epochs)
        model = fit_linear_svr(x, y, config)
        mae_by_epochs.append(float(np.mean(np.abs(model.predict(x) - y))))
    assert mae_by_epochs[1] < mae_by_epochs[0]
    assert mae_by_epochs[2] < mae_by_epochs[1]


def test_svr_objective_non_increasing_small_fixed_step():
    rng = np.random.default_rng(15)
    matrix = rng.normal(size=(25, 2))
    targets = matrix @ np.array([0.7, -0.4]) + 0.2
    config = SvrConfig(epsilon=0.05, c=1.0, step_size=1e-3, step_decay=0.0, epochs=60)
    values = []
    for epochs in range(0, 61, 10):
        partial = SvrConfig(
            epsilon=config.epsilon,
            c=config.c,
            step_size=config.step_size,
            step_decay=0.0,
            epochs=epochs,
        )
        model = fit_linear_svr(matrix, targets, partial)
        values.append(
            svr_objective(model.weights, model.intercept, matrix, targets, config.epsilon, config.c)
        )
    for before, after in zip(values, values[1:]):
        assert after <= before + 1e-9


def test_svr_deterministic():
    rng = np.random.default_rng(20)
    matrix = rng.normal(size=(30, 3))
    targets = rng.normal(size=30)
    a = fit_linear_svr(matrix, targets, SvrConfig())
    b = fit_linear_svr(matrix, targets, SvrConfig())
    assert a == b


def test_predict_linear_basics():
    model = LinearModel(weights=(0.0, 0.0), intercept=1.5)
    assert np.all(model.predict(np.zeros((4, 2))) == 1.5)
    unit = LinearModel(weights=(0.0, 2.0), intercept=1.0)
    one_hot = np.array([[0.0, 1.0]])
    assert unit.predict(one_hot)[0] == 3.0
    scaled = unit.predict(3.0 * one_hot)[0] - unit.intercept
    assert scaled == 3.0 * (unit.predict(one_hot)[0] - unit.intercept)


def test_predict_linear_layout_mismatch():
    model = LinearModel(weights=(1.0,), intercept=0.0)
    with pytest.raises(LayoutMismatch):
        model.predict(np.zeros((2, 3)))


@pytest.mark.parametrize("case", list(SPOILED_MATRICES))
def test_linear_predict_rejects_a_non_finite_cell(case):
    spoil, message = SPOILED_MATRICES[case]
    rng = np.random.default_rng(12)
    matrix = rng.normal(size=(20, 3))
    targets = rng.normal(size=20)
    models = [fit_ols(matrix, targets), fit_bayes_ridge(matrix, targets), fit_linear_svr(matrix, targets)]
    for model in models:
        with pytest.raises(NonFiniteInput, match=f"predict inputs must be {message}"):
            model.predict(spoil(matrix))


def test_fit_ols_rejects_a_matrix_that_is_not_real_numbers():
    for matrix in ("abc", [[0.0, 1.0], [0.0]], np.zeros((4, 2)) + 1j):
        with pytest.raises(NonFiniteInput, match="fit inputs must be real numbers"):
            fit_ols(matrix, np.zeros(4))


def test_fit_on_empty_raises():
    with pytest.raises(EmptyData):
        fit_ols(np.empty((0, 2)), np.empty(0))
    with pytest.raises(EmptyData):
        fit_gbdt_first_order(np.empty((0, 2)), np.empty(0))
    with pytest.raises(EmptyData):
        fit_linear_svr(np.empty((0, 2)), np.empty(0))


def test_config_validation():
    with pytest.raises(InvalidConfig):
        GbdtBaselineConfig(min_samples_leaf=0)
    with pytest.raises(InvalidConfig):
        SvrConfig(epsilon=-0.1)
    with pytest.raises(InvalidConfig):
        SvrConfig(c=0.0)


def test_linear_model_serializes_into_shared_envelope():
    model = LinearModel(weights=(1.5, -0.25), intercept=0.75)
    document = linear_to_json(model, feature_layout=("Price", "Rating"))
    assert document["format_version"] == FORMAT_VERSION == 1
    assert document["kind"] == "linear"
    assert document["weights"] == [1.5, -0.25]
    assert document["intercept"] == 0.75
    assert document["feature_layout"] == ["Price", "Rating"]
