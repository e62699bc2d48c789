import json
import math
from dataclasses import replace

import numpy as np
import pytest

import rangeboost.eval_harness as harness
from rangeboost.baseline_models import GbdtBaselineConfig, SvrConfig, fit_bayes_ridge
from rangeboost.boosted_trees import TrainConfig
from rangeboost.data_model import default_schema, load_csv, write_csv
from rangeboost.errors import EmptyData, InvalidConfig, LengthMismatch, NonFiniteInput
from rangeboost.eval_harness import (
    ExperimentConfig,
    MetricsRow,
    ModelSpec,
    SyntheticSpec,
    default_models,
    experiment_from_json,
    generate_synthetic,
    mae,
    mse,
    render_report,
    rmse,
    run_experiment,
    synthetic_spec_from_json,
)
from rangeboost.feature_pipeline import ColorLexicon, normalize_color
from rangeboost.range_binning import BinSpec, apply_binning, default_bins


def test_metric_examples():
    assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mse([0.0, 0.0], [3.0, 4.0]) == 12.5
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5))
    assert mae([0.0, 0.0], [3.0, 4.0]) == 3.5
    assert rmse([1.0], [1.0]) == 0.0
    assert mae([1.0], [1.0]) == 0.0


def test_metric_errors():
    with pytest.raises(LengthMismatch):
        mse([1.0], [1.0, 2.0])
    with pytest.raises(EmptyData):
        mse([], [])


@pytest.mark.parametrize("pred, truth", [
    (np.array([1 + 5j, 2]), [1, 2]),  # a cast to float would drop the imaginary part
    (["a"], [1]),
    ([1.0, 2.0], ["1", "2"]),
    ([[1.0], [1.0, 2.0]], [1.0, 2.0]),
], ids=["complex", "text", "numeric-text", "ragged"])
@pytest.mark.parametrize("metric", [mse, rmse, mae])
def test_metrics_take_real_numbers_only(metric, pred, truth):
    with pytest.raises(NonFiniteInput, match="^metric inputs must be real numbers$"):
        metric(pred, truth)


def test_metrics_score_non_finite_predictions():
    """A diverged model's predictions still score; the report prints them as failed."""
    assert mse([math.inf, 1.0], [1.0, 1.0]) == math.inf
    assert math.isnan(mae([math.nan], [1.0]))
    assert mse(np.array([True, False]), np.array([1, 0], dtype=np.int8)) == 0.0


def test_metric_identities_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        pred = rng.normal(size=n)
        truth = rng.normal(size=n)
        m, r, a = mse(pred, truth), rmse(pred, truth), mae(pred, truth)
        assert r * r == pytest.approx(m, rel=1e-9)
        assert a <= r + 1e-12


def test_generate_synthetic_deterministic():
    spec = SyntheticSpec(n_products=120, seed=9)
    assert generate_synthetic(spec) == generate_synthetic(spec)


def test_generate_synthetic_zero_missingness():
    spec = SyntheticSpec(
        n_products=60, seed=1, missing_rates={name: 0.0 for name in harness.default_missing_rates()}
    )
    table = generate_synthetic(spec)
    assert all(cell is not None for row in table.rows for cell in row)


def test_generate_synthetic_respects_missing_rates():
    spec = SyntheticSpec(n_products=400, seed=2, missing_rates={"Rating": 1.0})
    table = generate_synthetic(spec)
    assert all(v is None for v in table.column("Rating"))
    assert all(v is not None for v in table.column("Price"))


def test_generate_synthetic_covers_all_bins_at_pinned_seed():
    for n in (500, 1565):
        table = generate_synthetic(SyntheticSpec(n_products=n, seed=7))
        sales = [0.0 if v is None else v for v in table.column("Sales")]
        assert sorted(set(apply_binning(sales, default_bins()))) == list(range(8))


def test_generate_synthetic_exercises_colour_rules():
    table = generate_synthetic(SyntheticSpec(n_products=400, seed=3))
    colours = {v for v in table.column("Colour") if v is not None}
    assert any("/" in c for c in colours)
    assert any(c.startswith("dark ") or c.startswith("matte ") for c in colours)
    assert any("," in c or " and " in c for c in colours)


def test_generate_synthetic_rating_bounds_and_types():
    table = generate_synthetic(SyntheticSpec(n_products=200, seed=4))
    ratings = [v for v in table.column("Rating") if v is not None]
    assert all(0.0 <= v <= 5.0 for v in ratings)
    reviews = [v for v in table.column("Number of Rating") if v is not None]
    assert all(float(v).is_integer() for v in reviews)


def test_generate_synthetic_round_trips_through_csv(tmp_path):
    table = generate_synthetic(SyntheticSpec(n_products=80, seed=5))
    path = tmp_path / "synth.csv"
    write_csv(table, path)
    assert load_csv(path, default_schema()) == table


def test_generate_synthetic_gives_a_lone_product_the_middle_price_rank():
    """A category with at most one product has no price order, so its
    product's price rank in the planted sales signal is 0.5."""
    categories = tuple(f"category {i}" for i in range(12))
    spec = SyntheticSpec(n_products=10, categories=categories, missing_rates={}, noise_scale=0.0)
    table = generate_synthetic(spec)
    products = table.column("Products")
    lone = [i for i, category in enumerate(products) if products.count(category) == 1]
    assert lone
    rating = np.array(table.column("Rating"))[lone]
    reviews = np.array(table.column("Number of Rating"))[lone]
    score = 0.40 * (rating / 5.0) + 0.40 * np.minimum(1.0, np.log1p(reviews) / math.log1p(30000.0)) + 0.20 * 0.5
    assert np.array(table.column("Sales"))[lone].tolist() == np.round(np.expm1(score * 9.9)).tolist()


def test_synthetic_spec_validation():
    with pytest.raises(InvalidConfig):
        SyntheticSpec(n_products=5)
    with pytest.raises(InvalidConfig):
        SyntheticSpec(missing_rates={"Rating": 1.5})
    with pytest.raises(InvalidConfig):
        SyntheticSpec(brand_count=0)
    with pytest.raises(InvalidConfig):
        synthetic_spec_from_json({"bogus": 1})


SMALL_MODELS = (
    ModelSpec("XGBoost", "boosted_trees", {"n_trees": 20, "max_depth": 3}),
    ModelSpec("GBDT", "gbdt", {"n_trees": 20, "max_depth": 3}),
    ModelSpec("Linear", "ols"),
)


def _small_config(**overrides):
    settings = dict(
        synthetic=SyntheticSpec(n_products=200, seed=7),
        target_mode=harness.BINNED_RANGE,
        seed=7,
        models=SMALL_MODELS,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def test_run_experiment_single_model_row():
    config = _small_config(models=(ModelSpec("XGBoost", "boosted_trees", {"n_trees": 25}),))
    rows = run_experiment(config)
    assert len(rows) == 1
    row = rows[0]
    assert row.error is None
    assert 0.0 < row.mse < 64.0
    assert row.rmse == pytest.approx(math.sqrt(row.mse), rel=1e-9)
    assert row.mae <= row.rmse


def test_run_experiment_row_order_is_config_order():
    rows = run_experiment(_small_config())
    assert [r.model_name for r in rows] == ["XGBoost", "GBDT", "Linear"]


def test_run_experiment_deterministic():
    reports = [
        render_report(run_experiment(_small_config()), "json") for _ in range(2)
    ]
    assert reports[0] == reports[1]


def test_binned_mode_truth_values_are_integer_indices():
    from rangeboost.data_model import split_train_test
    from rangeboost.feature_pipeline import fit_pipeline, transform

    table = generate_synthetic(SyntheticSpec(n_products=120, seed=7))
    split = split_train_test(table, 0.8, 7)
    state = fit_pipeline(table.subset(split.train_rows))
    _, y_raw = transform(table.subset(split.test_rows), state)
    truth = apply_binning(y_raw, default_bins())
    assert all(isinstance(v, int) and 0 <= v <= 7 for v in truth)


def test_run_experiment_with_rounded_predictions():
    config = _small_config(round_predictions=True)
    rows = run_experiment(config)
    assert all(row.error is None for row in rows)
    plain = run_experiment(_small_config())
    assert rows[0].mse != plain[0].mse


def test_run_experiment_empty_roster_rejected():
    with pytest.raises(InvalidConfig):
        _small_config(models=())


def test_run_experiment_requires_one_data_source():
    with pytest.raises(InvalidConfig):
        ExperimentConfig(models=SMALL_MODELS)
    with pytest.raises(InvalidConfig):
        ExperimentConfig(
            data_csv="x.csv", synthetic=SyntheticSpec(n_products=50), models=SMALL_MODELS
        )


def test_run_experiment_failed_model_row(monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(harness, "fit_ols", explode)
    rows = run_experiment(_small_config())
    by_name = {r.model_name: r for r in rows}
    assert by_name["Linear"].error == "synthetic failure"
    assert by_name["Linear"].mse is None
    assert by_name["XGBoost"].error is None


TABLE2_ROWS = (
    MetricsRow("GBDT", 3.45, 1.86, 1.23),
    MetricsRow("XGBoost", 1.93, 1.39, 1.07),
    MetricsRow("Linear", 1.06e14, 1.03e7, 2.29e6),
    MetricsRow("Bayes", 4.47, 2.11, 1.66),
    MetricsRow("SVM", 3.52, 1.88, 1.51),
)

TABLE2_CELLS = [
    ["Model", "MSE", "RMSE", "MAE"],
    ["GBDT", "3.45", "1.86", "1.23"],
    ["XGBoost", "1.93", "1.39", "1.07"],
    ["Linear", "1.06E+14", "1.03E+07", "2.29E+06"],
    ["Bayes", "4.47", "2.11", "1.66"],
    ["SVM", "3.52", "1.88", "1.51"],
]


def test_render_report_reference_table_cell_for_cell():
    text = render_report(TABLE2_ROWS, "table")
    cells = [line.split() for line in text.strip().splitlines()]
    assert cells == TABLE2_CELLS


def test_render_report_csv_single_row():
    text = render_report((MetricsRow("OLS", 1.0, 1.0, 0.5),), "csv")
    lines = text.strip().splitlines()
    assert lines[0] == "Model,MSE,RMSE,MAE,Error"
    assert lines[1].startswith("OLS,1.0,1.0,0.5")
    assert len(lines) == 2


def test_render_report_json_round_trip():
    text = render_report(TABLE2_ROWS, "json")
    parsed = json.loads(text)
    assert [r["model"] for r in parsed["rows"]] == [r.model_name for r in TABLE2_ROWS]
    assert parsed["rows"][2]["mse"] == 1.06e14
    assert parsed["rows"][1]["rmse"] == 1.39


def test_render_report_failed_row_and_bad_format():
    failed = (MetricsRow("SVM", error="diverged"),)
    text = render_report(failed, "table")
    assert "failed" in text
    with pytest.raises(InvalidConfig):
        render_report(failed, "html")
    with pytest.raises(EmptyData):
        render_report((), "table")


def test_experiment_from_json_full_document():
    doc = {
        "dataset": {"synthetic": {"n_products": 200, "seed": 3}},
        "target_mode": "binned_range",
        "bins": {"edges": [0, 10, 100]},
        "train_fraction": 0.75,
        "seed": 11,
        "models": [
            {"name": "core", "kind": "boosted_trees", "config": {"n_trees": 5}},
            {"kind": "ols"},
        ],
        "round_predictions": True,
        "output": "report.txt",
    }
    config = experiment_from_json(doc)
    assert config.synthetic == SyntheticSpec(n_products=200, seed=3)
    assert config.target_mode == "binned_range"
    assert config.bins.edges == (0.0, 10.0, 100.0)
    assert config.train_fraction == 0.75
    assert config.models[0].config == {"n_trees": 5}
    assert config.models[1].name == "ols"
    assert config.round_predictions
    assert config.output == "report.txt"


def test_raw_sales_takes_neither_bins_nor_rounding():
    raw = {"dataset": {"synthetic": {}}, "target_mode": "raw_sales"}
    assert experiment_from_json(raw).target_mode == "raw_sales"
    with pytest.raises(InvalidConfig, match=r"^experiment\.bins: raw_sales"):
        experiment_from_json({**raw, "bins": {"edges": [0, 10, 100]}})
    with pytest.raises(InvalidConfig, match="round_predictions"):
        experiment_from_json({**raw, "round_predictions": True})


def test_experiment_from_json_rejects_bad_documents():
    with pytest.raises(InvalidConfig):
        experiment_from_json({"dataset": {"synthetic": {}}, "target_mode": "nope"})
    with pytest.raises(InvalidConfig):
        experiment_from_json({"dataset": {"synthetic": {}}, "unknown_key": 1})
    with pytest.raises(InvalidConfig):
        experiment_from_json({})
    with pytest.raises(InvalidConfig):
        experiment_from_json(
            {"dataset": {"synthetic": {}}, "models": [{"kind": "mystery"}]}
        )


def test_experiment_from_json_rejects_roster_config_typo():
    doc = {
        "dataset": {"synthetic": {}},
        "models": [{"kind": "bayes_ridge", "config": {"alpah": 2}}],
    }
    with pytest.raises(InvalidConfig, match="alpah"):
        experiment_from_json(doc)


def test_default_models_order():
    assert [m.name for m in default_models()] == ["GBDT", "XGBoost", "Linear", "Bayes", "SVM"]


NAN = float("nan")
# Config objects built in code, and the keyword arguments each must reject
# with InvalidConfig.  Every bound is written so that NaN, which compares
# false to any number, fails it, as the JSON readers reject NaN.
INVALID_CONFIGS = {
    "train-n-trees-nan": (TrainConfig, {"n_trees": NAN}),
    "train-reg-lambda-nan": (TrainConfig, {"reg_lambda": NAN}),
    "train-gamma-nan": (TrainConfig, {"gamma": NAN}),
    "train-max-depth-nan": (TrainConfig, {"max_depth": NAN}),
    "train-min-child-weight-nan": (TrainConfig, {"min_child_weight": NAN}),
    "train-base-score-nan": (TrainConfig, {"base_score": NAN}),
    "train-base-score-inf": (TrainConfig, {"base_score": math.inf}),
    "gbdt-min-samples-leaf-nan": (GbdtBaselineConfig, {"min_samples_leaf": NAN}),
    "svr-epsilon-nan": (SvrConfig, {"epsilon": NAN}),
    "svr-c-nan": (SvrConfig, {"c": NAN}),
    "svr-step-size-nan": (SvrConfig, {"step_size": NAN}),
    "svr-step-decay-nan": (SvrConfig, {"step_decay": NAN}),
    "svr-epochs-nan": (SvrConfig, {"epochs": NAN}),
    "bayes-ridge-alpha-nan": (lambda alpha: fit_bayes_ridge(np.eye(2), np.ones(2), alpha), {"alpha": NAN}),
    "bins-edge-nan": (BinSpec, {"edges": (0, NAN, 10)}),
    "synthetic-noise-scale-nan": (SyntheticSpec, {"noise_scale": NAN}),
    "synthetic-seed-nan": (SyntheticSpec, {"seed": NAN}),
    "experiment-seed-nan": (ExperimentConfig, {"synthetic": SyntheticSpec(), "seed": NAN}),
    "experiment-target-mode-unknown": (ExperimentConfig, {"synthetic": SyntheticSpec(), "target_mode": "banana"}),
    # Integer fields take what the JSON readers take: no fraction, infinity or bool.
    "train-n-trees-fraction": (TrainConfig, {"n_trees": 2.5}),
    "train-max-depth-fraction": (TrainConfig, {"max_depth": 2.5}),
    "train-max-depth-inf": (TrainConfig, {"max_depth": math.inf}),
    "svr-epochs-fraction": (SvrConfig, {"epochs": 2.5}),
    "gbdt-min-samples-leaf-fraction": (GbdtBaselineConfig, {"min_samples_leaf": 1.5}),
    "synthetic-n-products-fraction": (SyntheticSpec, {"n_products": 20.5}),
    "synthetic-brand-count-fraction": (SyntheticSpec, {"brand_count": 2.5}),
    "synthetic-seed-fraction": (SyntheticSpec, {"seed": 1.5}),
    "experiment-seed-fraction": (ExperimentConfig, {"synthetic": SyntheticSpec(), "seed": 1.5}),
    "experiment-seed-bool": (ExperimentConfig, {"synthetic": SyntheticSpec(), "seed": True}),
    "experiment-raw-sales-with-bins": (
        ExperimentConfig,
        {"synthetic": SyntheticSpec(), "target_mode": "raw_sales", "bins": BinSpec((0.0, 10.0))},
    ),
}


@pytest.mark.parametrize("case", sorted(INVALID_CONFIGS))
def test_config_objects_reject_out_of_range_values(case):
    build, kwargs = INVALID_CONFIGS[case]
    with pytest.raises(InvalidConfig):
        build(**kwargs)


def test_config_objects_take_numpy_integers():
    assert TrainConfig(n_trees=np.int64(3), max_depth=np.int32(2)).n_trees == 3
    assert SvrConfig(epochs=np.uint8(4)).epochs == 4
    assert GbdtBaselineConfig(min_samples_leaf=np.int64(2)).min_samples_leaf == 2
    assert SyntheticSpec(n_products=np.int64(20), brand_count=np.int16(3), seed=np.int64(1)).seed == 1
    assert ExperimentConfig(synthetic=SyntheticSpec(), seed=np.int64(5)).seed == 5
    # An array may be a list or a tuple, and a number a numpy float.
    for edges in ([0, 10.0], (0, 10.0), [np.float64(0), np.float32(10)]):
        assert BinSpec(edges, labels=["all"]).edges == (0.0, 10.0)
    for categories in (["mice", "desks"], ("mice", "desks")):
        spec = SyntheticSpec(n_products=20, categories=categories, missing_rates={"Price": np.float64(0.5)})
        assert generate_synthetic(spec) == generate_synthetic(replace(spec, categories=("mice", "desks")))
    # A frozenset has no order, so it is an array only where a set of values is declared.
    with pytest.raises(InvalidConfig, match=r"^categories must be an array, got frozenset"):
        SyntheticSpec(categories=frozenset({"mice"}))
    assert normalize_color("pale teal", ColorLexicon(base_colors=["teal"], modifier_tokens=("pale",))) == "teal"
    floats = {
        TrainConfig: {"learning_rate": 0.5, "reg_lambda": 2.0, "gamma": 0.1, "min_child_weight": 2.0,
                      "base_score": -1.5},
        GbdtBaselineConfig: {"learning_rate": 0.5},
        SvrConfig: {"epsilon": 0.2, "c": 2.0, "step_size": 1e-3, "step_decay": 0.5},
        SyntheticSpec: {"noise_scale": 0.3},
        ExperimentConfig: {"train_fraction": 0.6},
    }
    for cls, values in floats.items():
        base = {"synthetic": SyntheticSpec()} if cls is ExperimentConfig else {}
        built = cls(**base, **{name: np.float64(value) for name, value in values.items()})
        assert all(getattr(built, name) == value for name, value in values.items())


def test_experiment_bins_are_none_exactly_under_raw_sales():
    raw = {"dataset": {"synthetic": {}}, "target_mode": "raw_sales"}
    assert experiment_from_json(raw).bins is None
    assert experiment_from_json({"dataset": {"synthetic": {}}}).bins == default_bins()
    assert ExperimentConfig(synthetic=SyntheticSpec(), target_mode="raw_sales").bins is None
    assert ExperimentConfig(synthetic=SyntheticSpec(), target_mode="binned_range").bins == default_bins()
    custom = BinSpec((0.0, 10.0, 100.0))
    assert ExperimentConfig(synthetic=SyntheticSpec(), bins=custom).bins is custom
    # Built in code, raw_sales with bins fails as it does in JSON.
    with pytest.raises(InvalidConfig, match=r"^experiment\.bins: raw_sales targets are not binned"):
        ExperimentConfig(synthetic=SyntheticSpec(), target_mode="raw_sales", bins=custom)
