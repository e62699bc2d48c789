"""Comparison models: first-order GBDT, OLS, Bayesian ridge, and linear SVR.

All four share the same contract as the core learner: deterministic fit under
a fixed config, pure predict, output length equal to the input row count.
The GBDT baseline is the core tree learner with its leaf and weight
regularization switched off (lambda = gamma = 0), so comparing the two
isolates that regularization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .boosted_trees import FORMAT_VERSION, Ensemble, TrainConfig, check_fit_inputs, check_predict_inputs, train
from .errors import InvalidConfig, NonFiniteInput
from .jsondoc import Bound, check_fields


@dataclass(frozen=True)
class LinearModel:
    weights: tuple[float, ...]
    intercept: float

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        matrix = check_predict_inputs(matrix, len(self.weights))
        return matrix @ np.asarray(self.weights, dtype=np.float64) + self.intercept


def fit_ols(matrix, targets) -> LinearModel:
    """Least squares with an implicit intercept column; rank deficiency
    resolves to the minimum-norm solution instead of failing."""
    X, y = check_fit_inputs(matrix, targets)
    augmented = np.hstack([X, np.ones((X.shape[0], 1))])
    solution, *_ = np.linalg.lstsq(augmented, y, rcond=None)
    return LinearModel(weights=tuple(float(w) for w in solution[:-1]), intercept=float(solution[-1]))


def _ridge_solve(X: np.ndarray, y: np.ndarray, alpha: float) -> np.ndarray:
    """Posterior-mean weights (X'X + alpha I)^-1 X'y of the Gaussian linear
    model with an isotropic prior of precision alpha."""
    if not alpha > 0:
        raise InvalidConfig(f"prior precision must be positive, got {alpha}")
    gram = X.T @ X + alpha * np.eye(X.shape[1])
    moment = X.T @ y
    if not (np.isfinite(gram).all() and np.isfinite(moment).all()):
        raise NonFiniteInput("ridge normal equations overflow; rescale the features or targets")
    return np.linalg.solve(gram, moment)


def fit_bayes_ridge(matrix, targets, alpha: float = 1.0) -> LinearModel:
    """Bayesian ridge posterior mean with an unpenalized intercept, obtained
    by centering the design and targets before the closed-form solve."""
    X, y = check_fit_inputs(matrix, targets)
    x_mean = X.mean(axis=0)
    y_mean = float(np.mean(y))
    weights = _ridge_solve(X - x_mean, y - y_mean, alpha)
    intercept = y_mean - float(x_mean @ weights)
    return LinearModel(weights=tuple(float(w) for w in weights), intercept=intercept)


@dataclass(frozen=True)
class GbdtBaselineConfig:
    n_trees: int = 200
    learning_rate: float = 0.1
    max_depth: int = 6
    min_samples_leaf: Annotated[int, Bound(1)] = 1

    def __post_init__(self):
        check_fields(self, InvalidConfig)
        self.train_config()  # checks n_trees, learning_rate and max_depth

    def train_config(self) -> TrainConfig:
        """The core learner's config this baseline runs (see fit_gbdt_first_order)."""
        return TrainConfig(
            n_trees=self.n_trees,
            learning_rate=self.learning_rate,
            reg_lambda=0.0,
            gamma=0.0,
            max_depth=self.max_depth,
            min_child_weight=self.min_samples_leaf,
        )


def fit_gbdt_first_order(matrix, targets, config: GbdtBaselineConfig | None = None) -> Ensemble:
    """Plain gradient boosting: each tree fits the current residuals with
    mean-residual leaves and variance-reduction splits, scaled by the
    learning rate.

    Under squared loss the hessian is 1 per row, so variance reduction is
    exactly twice the second-order gain at lambda = gamma = 0 and the mean
    residual is the leaf weight -G/H: this is the core learner at those
    settings, with min_child_weight = min_samples_leaf."""
    return train(matrix, targets, (config or GbdtBaselineConfig()).train_config())


@dataclass(frozen=True)
class SvrConfig:
    """Linear epsilon-insensitive SVR trained by full-batch subgradient
    descent.  The step at epoch t is step_size / (1 + step_decay * t),
    applied to the mean subgradient; full-batch updates make the fit
    deterministic."""

    epsilon: Annotated[float, Bound(0)] = 0.1
    c: Annotated[float, Bound(0, open_lo=True)] = 1.0
    step_size: Annotated[float, Bound(0, open_lo=True)] = 1e-5
    step_decay: Annotated[float, Bound(0)] = 0.02
    epochs: Annotated[int, Bound(0)] = 300

    def __post_init__(self):
        check_fields(self, InvalidConfig)


def svr_objective(weights, intercept, matrix, targets, epsilon: float, c: float) -> float:
    """0.5 ||w||^2 / c plus the epsilon-insensitive hinge over all rows."""
    w = np.asarray(weights, dtype=np.float64)
    X = np.asarray(matrix, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    errors = X @ w + intercept - y
    hinge = np.maximum(0.0, np.abs(errors) - epsilon)
    return 0.5 * float(w @ w) / c + float(np.sum(hinge))


def fit_linear_svr(matrix, targets, config: SvrConfig | None = None) -> LinearModel:
    """Epoch-ordered subgradient descent; rows inside the epsilon tube
    contribute no loss subgradient, so a model already within the tube stays
    put."""
    config = config or SvrConfig()
    X, y = check_fit_inputs(matrix, targets)
    n, m = X.shape
    w = np.zeros(m, dtype=np.float64)
    b = 0.0
    for epoch in range(config.epochs):
        step = config.step_size / (1.0 + config.step_decay * epoch)
        errors = X @ w + b - y
        signs = np.where(np.abs(errors) > config.epsilon, np.sign(errors), 0.0)
        grad_w = w / (config.c * n) + (X.T @ signs) / n
        grad_b = float(np.sum(signs)) / n
        w = w - step * grad_w
        b = b - step * grad_b
    return LinearModel(weights=tuple(float(v) for v in w), intercept=float(b))


def linear_to_json(model: LinearModel, feature_layout=None) -> dict:
    layout = list(feature_layout) if feature_layout is not None else [f"f{i}" for i in range(len(model.weights))]
    return {
        "format_version": FORMAT_VERSION,
        "kind": "linear",
        "weights": list(model.weights),
        "intercept": model.intercept,
        "feature_layout": layout,
    }
