"""Acceptance suite: one test per criterion, each printing a pass line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines;
under plain `pytest -v` the test names serve as the pass/fail record.
The pinned dataset for the directional criteria is the synthetic catalog at
n=1565, seed 7, with default configs everywhere.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import enumerate_best_split, golden_section_minimize, leaf_objective
from rangeboost.baseline_models import GbdtBaselineConfig, fit_gbdt_first_order
from rangeboost.boosted_trees import (
    Ensemble,
    TrainConfig,
    find_best_split,
    leaf_weight,
    objective_value,
    to_json,
    train,
)
from rangeboost.data_model import split_train_test
from rangeboost.eval_harness import (
    ExperimentConfig,
    MetricsRow,
    ModelSpec,
    SyntheticSpec,
    generate_synthetic,
    mae,
    mse,
    render_report,
    rmse,
    run_experiment,
)
from rangeboost.feature_pipeline import fit_pipeline, transform
from rangeboost.range_binning import apply_binning, bin_of, default_bins

PINNED_SPEC = SyntheticSpec(n_products=1565, seed=7)


def _passed(number: int, detail: str) -> None:
    print(f"criterion {number:02d} PASS - {detail}")


@pytest.fixture(scope="module")
def pinned_reports():
    """Both target modes on the pinned dataset with the default five-model
    roster; shared by the directional criteria."""
    start = time.perf_counter()
    binned = run_experiment(
        ExperimentConfig(synthetic=PINNED_SPEC, target_mode="binned_range", seed=7)
    )
    raw = run_experiment(
        ExperimentConfig(synthetic=PINNED_SPEC, target_mode="raw_sales", seed=7)
    )
    elapsed = time.perf_counter() - start
    return binned, raw, elapsed


def test_criterion_01_split_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 65))
        m = int(rng.integers(1, 5))
        matrix = rng.normal(size=(n, m))
        grad = rng.normal(size=n) * 3.0
        hess = np.ones(n)
        lam = float(rng.uniform(0.0, 5.0))
        gamma = float(rng.uniform(0.0, 2.0))
        config = TrainConfig(reg_lambda=lam, gamma=gamma, min_child_weight=0.0)
        split = find_best_split(np.arange(n), matrix, grad, config)
        oracle = enumerate_best_split(matrix, np.arange(n), grad, hess, lam, gamma, 0.0)
        if oracle is None:
            assert split is None
        else:
            assert split is not None
            assert (split.feature, split.threshold) == (oracle[1], oracle[2])
            assert split.gain == pytest.approx(oracle[0], abs=1e-9)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(1, f"200 datasets matched the exhaustive split oracle in {elapsed:.2f}s ({checked} with splits)")


def test_criterion_02_closed_form_leaf_weights():
    rng = np.random.default_rng(102)
    for _ in range(1000):
        g = float(rng.uniform(-10.0, 10.0))
        h = float(rng.uniform(0.2, 10.0))
        lam = float(rng.uniform(0.0, 5.0))
        numeric = golden_section_minimize(lambda w: leaf_objective(g, h, lam, w), -100.0, 100.0)
        assert leaf_weight(g, h, lam) == pytest.approx(numeric, abs=1e-6)
    _passed(2, "1000 random leaf weights matched 1-D numeric minimization within 1e-6")


def test_criterion_03_monotone_objective():
    rng = np.random.default_rng(103)
    for _ in range(20):
        n = int(rng.integers(10, 65))
        m = int(rng.integers(1, 4))
        matrix = rng.normal(size=(n, m))
        targets = rng.uniform(0.0, 1.0, size=n)
        lam = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        for eta in (0.1, 0.5, 1.0):
            config = TrainConfig(
                n_trees=50, learning_rate=eta, reg_lambda=lam, gamma=0.0, max_depth=3
            )
            model = train(matrix, targets, config)
            previous = objective_value(
                Ensemble((), model.base_score, eta, model.feature_layout),
                matrix,
                targets,
                lam,
                0.0,
            )
            for k in range(1, len(model.trees) + 1):
                current = objective_value(
                    Ensemble(model.trees[:k], model.base_score, eta, model.feature_layout),
                    matrix,
                    targets,
                    lam,
                    0.0,
                )
                assert current <= previous + 1e-12
                previous = current
    _passed(3, "objective non-increasing every round on 20 datasets x eta in {0.1, 0.5, 1.0}")


def test_criterion_04_exact_interpolation():
    rng = np.random.default_rng(104)
    for _ in range(50):
        n = int(rng.integers(4, 25))
        m = int(rng.integers(1, 4))
        matrix = rng.normal(size=(n, m))
        targets = rng.normal(size=n)
        core_config = TrainConfig(
            n_trees=1,
            learning_rate=1.0,
            reg_lambda=0.0,
            gamma=0.0,
            max_depth=n,
            min_child_weight=0.0,
        )
        core = train(matrix, targets, core_config)
        assert mse(core.predict(matrix), targets) < 1e-9
        baseline_config = GbdtBaselineConfig(
            n_trees=1, learning_rate=1.0, max_depth=n, min_samples_leaf=1
        )
        baseline = fit_gbdt_first_order(matrix, targets, baseline_config)
        assert mse(baseline.predict(matrix), targets) < 1e-9
    _passed(4, "50 random fixtures interpolated to MSE < 1e-9 by both tree learners")


def test_criterion_05_worker_count_determinism():
    table = generate_synthetic(PINNED_SPEC)
    split = split_train_test(table, 0.8, 7)
    state = fit_pipeline(table.subset(split.train_rows))
    matrix, targets_raw = transform(table.subset(split.train_rows), state)
    targets = np.asarray(apply_binning(targets_raw, default_bins()), dtype=np.float64)
    config = TrainConfig(n_trees=40)
    model_documents = [
        json.dumps(to_json(train(matrix, targets, config, feature_names=state.layout, n_jobs=jobs)))
        for jobs in (1, 2, 8)
    ]
    assert model_documents[0] == model_documents[1] == model_documents[2]

    roster = (
        ModelSpec("XGBoost", "boosted_trees", {"n_trees": 40}),
        ModelSpec("GBDT", "gbdt", {"n_trees": 40}),
        ModelSpec("Linear", "ols"),
    )
    experiment = ExperimentConfig(
        synthetic=PINNED_SPEC, target_mode="binned_range", seed=7, models=roster
    )
    reports = [
        render_report(run_experiment(experiment, n_jobs=jobs), "json").encode()
        for jobs in (1, 2, 8)
    ]
    assert reports[0] == reports[1] == reports[2]
    _passed(5, "1/2/8 worker threads produced byte-identical models and reports at seed 7")


def test_criterion_06_pipeline_totality_under_heavy_missingness():
    rates = {
        name: 0.3
        for name in (
            "Products",
            "Brand",
            "Colour",
            "Manufacturer",
            "Price",
            "Rating",
            "Number of Rating",
            "Shipment",
            "Weight Pounds",
            "Sales",
        )
    }
    spec = SyntheticSpec(n_products=400, seed=7, missing_rates=rates)
    table = generate_synthetic(spec)
    split = split_train_test(table, 0.8, 7)
    state = fit_pipeline(table.subset(split.train_rows))
    for part in (split.train_rows, split.test_rows):
        matrix, target = transform(table.subset(part), state)
        assert matrix.shape[1] == len(state.layout)
        assert np.isfinite(matrix).all()
        assert np.isfinite(target).all()
        for column in ("Products", "Brand", "Colour", "Manufacturer"):
            block = [j for j, name in enumerate(state.layout) if name.startswith(f"{column}=")]
            sums = matrix[:, block].sum(axis=1)
            assert set(np.unique(sums)) <= {0.0, 1.0}
    _passed(6, "30% missingness everywhere still yields a dense finite matrix with 0/1 indicator sums")


def test_criterion_07_binning_properties():
    spec = default_bins()
    sweep = np.linspace(0.0, 12000.0, 100_000)
    indices = np.fromiter((bin_of(v, spec) for v in sweep), dtype=np.int64, count=sweep.size)
    assert np.all(np.diff(indices) >= 0)
    lower_edge_bins = [bin_of(e, spec) for e in spec.edges[:-1]]
    assert lower_edge_bins == list(range(8))
    for i, label in enumerate(spec.labels):
        lo, hi = (float(part) for part in label.split("-"))
        assert lo == spec.edges[i]
        assert hi == spec.edges[i + 1]
    _passed(7, "bin_of monotone over 1e5 points; edges and labels consistent")


def test_criterion_08_metric_identities():
    rng = np.random.default_rng(108)
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        pred = rng.normal(size=n) * rng.uniform(0.1, 100)
        truth = rng.normal(size=n) * rng.uniform(0.1, 100)
        m = mse(pred, truth)
        r = rmse(pred, truth)
        a = mae(pred, truth)
        assert r * r == pytest.approx(m, rel=1e-9)
        assert a <= r + 1e-12
    vec = rng.normal(size=32)
    assert mse(vec, vec) == 0.0 and rmse(vec, vec) == 0.0 and mae(vec, vec) == 0.0
    _passed(8, "rmse^2 == mse and mae <= rmse over 1000 random pairs; zero iff identical")


def test_criterion_09_raw_vs_binned_contrast(pinned_reports):
    binned, raw, elapsed = pinned_reports
    assert elapsed < 60.0
    ratios = {}
    for binned_row, raw_row in zip(binned, raw):
        assert binned_row.error is None and raw_row.error is None
        ratios[binned_row.model_name] = raw_row.mse / binned_row.mse
        assert raw_row.mse >= 1e3 * binned_row.mse
    summary = ", ".join(f"{k}={v:.0f}x" for k, v in ratios.items())
    _passed(9, f"raw-sales MSE >= 1000x binned for every model in {elapsed:.1f}s ({summary})")


def test_criterion_10_model_ordering(pinned_reports):
    binned, _, _ = pinned_reports
    by_name = {row.model_name: row for row in binned}
    core = by_name["XGBoost"].mse
    gbdt = by_name["GBDT"].mse
    ols = by_name["Linear"].mse
    assert core <= gbdt
    assert core < ols
    assert gbdt < ols
    _passed(10, f"second-order {core:.3f} <= first-order {gbdt:.3f} < OLS {ols:.3f} at seed 7")


def test_criterion_11_report_fidelity():
    rows = (
        MetricsRow("GBDT", 3.45, 1.86, 1.23),
        MetricsRow("XGBoost", 1.93, 1.39, 1.07),
        MetricsRow("Linear", 1.06e14, 1.03e7, 2.29e6),
        MetricsRow("Bayes", 4.47, 2.11, 1.66),
        MetricsRow("SVM", 3.52, 1.88, 1.51),
    )
    text = render_report(rows, "table")
    cells = [line.split() for line in text.strip().splitlines()]
    assert cells == [
        ["Model", "MSE", "RMSE", "MAE"],
        ["GBDT", "3.45", "1.86", "1.23"],
        ["XGBoost", "1.93", "1.39", "1.07"],
        ["Linear", "1.06E+14", "1.03E+07", "2.29E+06"],
        ["Bayes", "4.47", "2.11", "1.66"],
        ["SVM", "3.52", "1.88", "1.51"],
    ]
    _passed(11, "reference comparison table reproduced cell-for-cell incl. 1.06E+14")


def test_pinned_binned_mse_bit_identity(pinned_reports):
    """The pinned binned MSEs of both tree learners, bit for bit as the
    rank-code histogram grower (sibling subtraction, per-column folds)
    produces them; a split-search change that moves any model shows here."""
    binned, _, _ = pinned_reports
    by_name = {row.model_name: row.mse for row in binned}
    assert by_name["XGBoost"] == 1.9486861729631708
    assert by_name["GBDT"] == 1.9976759008577087


def test_readme_table_is_the_pinned_report(pinned_reports):
    """README's comparison table is this suite's pinned binned report,
    character for character, so a change that moves it must update README."""
    binned, _, _ = pinned_reports
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert render_report(binned, "table") in readme
