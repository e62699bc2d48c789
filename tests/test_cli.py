import concurrent.futures
import contextlib
import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangeboost import boosted_trees, cli, eval_harness, feature_pipeline
from rangeboost.cli import main
from rangeboost.data_model import default_schema, load_csv, schema_to_json
from rangeboost.errors import NonFiniteInput
from rangeboost.eval_harness import experiment_from_json
from rangeboost.feature_pipeline import ColorLexicon, default_plan, plan_to_json, state_from_json, state_to_json, transform
from rangeboost.jsondoc import to_doc
from rangeboost.range_binning import bins_to_json, default_bins


@pytest.fixture
def synth_csv(tmp_path):
    spec = {"n_products": 150, "seed": 5}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    data_path = tmp_path / "data.csv"
    assert main(["synth", "--spec", str(spec_path), "--out", str(data_path)]) == 0
    return data_path


def test_bins_show(capsys):
    assert main(["bins", "--show"]) == 0
    out = capsys.readouterr().out
    assert "0-50" in out
    assert "5000-10000" in out
    assert len(out.strip().splitlines()) == 8


def test_synth_writes_loadable_csv(synth_csv):
    table = load_csv(synth_csv, default_schema())
    assert table.n == 150


def test_train_and_predict_round_trip(tmp_path, synth_csv):
    config_path = tmp_path / "train.json"
    config_path.write_text(
        json.dumps({"target_mode": "binned_range", "model": {"n_trees": 10, "max_depth": 3}}),
        encoding="utf-8",
    )
    model_path = tmp_path / "model.json"
    assert (
        main(
            [
                "train",
                "--data",
                str(synth_csv),
                "--config",
                str(config_path),
                "--model-out",
                str(model_path),
            ]
        )
        == 0
    )
    document = json.loads(model_path.read_text(encoding="utf-8"))
    assert document["format_version"] == 1
    assert document["kind"] == "ensemble"
    assert len(document["trees"]) == 10
    assert "pipeline" in document and "schema" in document

    preds_path = tmp_path / "preds.csv"
    assert (
        main(["predict", "--model", str(model_path), "--data", str(synth_csv), "--out", str(preds_path)])
        == 0
    )
    lines = preds_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "prediction"
    assert len(lines) == 151
    float(lines[1])


def test_predict_accepts_data_without_target(tmp_path, synth_csv):
    """Columns are matched by header name: the file without its target
    column, and the file with its columns in reverse order, score to the
    bytes of the full file."""
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(synth_csv), "--model-out", str(model_path)]) == 0
    with synth_csv.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    sales_idx = rows[0].index("Sales")
    layouts = {
        "no-target": [[v for i, v in enumerate(row) if i != sales_idx] for row in rows],
        "reversed": [row[::-1] for row in rows],
    }
    assert _predict(model_path, synth_csv, tmp_path / "full-preds.csv") == 0
    expected = (tmp_path / "full-preds.csv").read_bytes()
    for name, layout_rows in layouts.items():
        data = tmp_path / f"{name}.csv"
        with data.open("w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(layout_rows)
        assert _predict(model_path, data, tmp_path / f"{name}-preds.csv") == 0
        assert (tmp_path / f"{name}-preds.csv").read_bytes() == expected, name


# SHA-256 of the synth CSV, the 20-tree train bundle on it and that bundle's
# predictions for it.  A change that promises the same output bytes keeps
# these; one that moves a byte of parsing, encoding, training or writing
# fails here, not only in the benchmark's checks.
PINNED_SHA256 = {
    "data.csv": "d3963fb6ec8454f07e50f2abdc388b961755fb1739175150ba45259619404365",
    "model.json": "8b75a690e67ebe56ea279ee54adeeeea6ed118a6342b120b3ec1ac9f7e67c75c",
    "preds.csv": "9fc6556171c3588a251d95994d3a530347d0bdb06adb37cbf442c13b7e6fece2",
}


def test_synth_train_predict_bytes_are_pinned(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_products": 300, "seed": 11}), encoding="utf-8")
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"model": {"n_trees": 20}}), encoding="utf-8")
    data, model, preds = (tmp_path / name for name in PINNED_SHA256)
    assert main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--config", str(config), "--model-out", str(model)]) == 0
    assert _predict(model, data, preds) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (data, model, preds)}
    assert digests == PINNED_SHA256


def test_compare_writes_reports(tmp_path, capsys):
    experiment = {
        "dataset": {"synthetic": {"n_products": 150, "seed": 5}},
        "target_mode": "binned_range",
        "models": [
            {"name": "XGBoost", "kind": "boosted_trees", "config": {"n_trees": 10, "max_depth": 3}},
            {"name": "Linear", "kind": "ols"},
        ],
    }
    exp_path = tmp_path / "exp.json"
    exp_path.write_text(json.dumps(experiment), encoding="utf-8")
    for suffix in (".txt", ".csv", ".json"):
        out_path = tmp_path / f"report{suffix}"
        assert main(["compare", "--experiment", str(exp_path), "--out", str(out_path)]) == 0
        assert out_path.exists()
    parsed = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert [r["model"] for r in parsed["rows"]] == ["XGBoost", "Linear"]
    out = capsys.readouterr().out
    assert "XGBoost" in out


@pytest.mark.parametrize("where", ["--out", "output"])
def test_compare_checks_the_report_suffix_before_fitting(tmp_path, capsys, monkeypatch, where):
    def no_fit(config):
        raise AssertionError("run_experiment called")

    monkeypatch.setattr(cli, "run_experiment", no_fit)
    out = str(tmp_path / "report.xlsx")
    experiment = {**TINY_EXPERIMENT, "output": out} if where == "output" else TINY_EXPERIMENT
    exp_path = tmp_path / "exp.json"
    exp_path.write_text(json.dumps(experiment), encoding="utf-8")
    argv = ["compare", "--experiment", str(exp_path)] + (["--out", out] if where == "--out" else [])
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot infer report format from {out!r}; use .txt, .csv, or .json\n"
    )


def test_exit_code_2_on_config_errors(tmp_path, synth_csv):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert main(["compare", "--experiment", str(bad_json)]) == 2
    assert (
        main(
            [
                "train",
                "--data",
                str(synth_csv),
                "--config",
                str(bad_json),
                "--model-out",
                str(tmp_path / "m.json"),
            ]
        )
        == 2
    )
    exp = tmp_path / "exp.json"
    exp.write_text(
        json.dumps({"dataset": {"synthetic": {}}, "models": [{"kind": "mystery"}]}),
        encoding="utf-8",
    )
    assert main(["compare", "--experiment", str(exp)]) == 2


def test_exit_code_3_on_data_errors(tmp_path):
    assert (
        main(["train", "--data", str(tmp_path / "absent.csv"), "--model-out", str(tmp_path / "m.json")])
        == 3
    )
    short = tmp_path / "short.csv"
    short.write_text("Products,Brand\nmice,acme\n", encoding="utf-8")
    assert main(["train", "--data", str(short), "--model-out", str(tmp_path / "m.json")]) == 3


def test_exit_code_4_on_model_errors(tmp_path, synth_csv):
    broken = tmp_path / "model.json"
    broken.write_text("{not json", encoding="utf-8")
    assert (
        main(["predict", "--model", str(broken), "--data", str(synth_csv), "--out", str(tmp_path / "p.csv")])
        == 4
    )
    assert (
        main(
            [
                "predict",
                "--model",
                str(tmp_path / "missing.json"),
                "--data",
                str(synth_csv),
                "--out",
                str(tmp_path / "p.csv"),
            ]
        )
        == 4
    )


NOT_UTF8 = b'{"seed": "\xff"}'
CSV_HEADER = ",".join(column.name for column in default_schema())
CSV_ROW = "computer mice,acme,grey,acme,19.99,4.5,120,3,0.2"
# The same row shipping in 1e308 days: two of them overflow the Shipment means.
HUGE_SHIPMENT_ROW = "computer mice,acme,grey,acme,19.99,4.5,120,1e308,0.2"
# Eight rows, Sales 0 below price 30 and 1e200 above: raw-sales gradient
# sums of 4e200, whose squares overflow the split gains.
HUGE_SALES_ROWS = "".join(
    f"computer mice,acme,grey,acme,{price},4.5,120,3,0.2,{0 if price < 30 else 1e200}\n"
    for price in (10, 15, 20, 25, 35, 40, 45, 50)
)
# Ten rows whose only Sales value is row 5, a test row of the seed-7 split.
SALES_IN_TEST_ROW_ONLY = "".join(f"{CSV_ROW},{150 if i == 5 else ''}\n" for i in range(10))
TINY_EXPERIMENT = {"dataset": {"synthetic": {"n_products": 60, "seed": 5}}}
# Arrays nested past the JSON decoder's recursion limit.
DEEP_JSON = b"[" * 3000 + b"]" * 3000
CATEGORICAL_TARGET = [
    {**column, "kind": "categorical"} if column["role"] == "target" else column
    for column in schema_to_json(default_schema())
]


def _leaves_at_1e308(document):
    """Base score and every leaf weight 1e308: each prediction overflows to inf."""
    document["base_score"] = 1e308
    for tree in document["trees"]:
        for node in tree["nodes"]:
            if "weight" in node:
                node["weight"] = 1e308


def _categorical_target(document):
    for schema in (document["schema"], document["pipeline"]["schema"]):
        schema[:] = CATEGORICAL_TARGET


# case -> (subcommand, option, file content, expected exit code[, further
# options]).  Content is raw bytes, a JSON document, or a function that
# corrupts a freshly trained model document in place.
MALFORMED_INPUTS = {
    "experiment-not-utf8": ("compare", "--experiment", NOT_UTF8, 2),
    "train-config-not-utf8": ("train", "--config", NOT_UTF8, 2),
    "schema-not-utf8": ("train", "--schema", NOT_UTF8, 2),
    "synth-spec-not-utf8": ("synth", "--spec", NOT_UTF8, 2),
    "model-not-utf8": ("predict", "--model", NOT_UTF8, 4),
    "train-csv-not-utf8": ("train", "--data", b"Products,Brand\n\xff,acme\n", 3),
    "predict-csv-not-utf8": ("predict", "--data", b"Products,Brand\n\xff,acme\n", 3),
    "train-fraction-string": (
        "compare",
        "--experiment",
        {**TINY_EXPERIMENT, "train_fraction": "0.8"},
        2,
    ),
    "models-not-objects": ("compare", "--experiment", {**TINY_EXPERIMENT, "models": [1]}, 2),
    "roster-config-typo": (
        "compare",
        "--experiment",
        {**TINY_EXPERIMENT, "models": [{"kind": "bayes_ridge", "config": {"alpah": 2}}]},
        2,
    ),
    "roster-alpha-not-positive": (
        "compare",
        "--experiment",
        {**TINY_EXPERIMENT, "models": [{"kind": "bayes_ridge", "config": {"alpha": 0}}]},
        2,
    ),
    "roster-svr-seed": (
        "compare",
        "--experiment",
        {**TINY_EXPERIMENT, "models": [{"kind": "linear_svr", "config": {"seed": 1}}]},
        2,
    ),
    "roster-gbdt-n-trees-negative": (
        "compare",
        "--experiment",
        {**TINY_EXPERIMENT, "models": [{"kind": "gbdt", "config": {"n_trees": -1}}]},
        2,
    ),
    "experiment-seed-negative": ("compare", "--experiment", {**TINY_EXPERIMENT, "seed": -1}, 2),
    "synth-seed-negative": ("synth", "--spec", {"seed": -1}, 2),
    "plan-entry-not-object": (
        "compare",
        "--experiment",
        {**TINY_EXPERIMENT, "pipeline": {"plan": {"Price": 1}}},
        2,
    ),
    "train-schema-categorical-target": ("train", "--schema", CATEGORICAL_TARGET, 2),
    "train-schema-empty-list": ("train", "--schema", [], 2),
    "experiment-schema-categorical-target": (
        "compare",
        "--experiment",
        {"dataset": {"csv": "data.csv", "schema": "categorical-target.json"}},
        2,
    ),
    "model-schema-categorical-target": ("predict", "--model", _categorical_target, 4),
    "bins-edges-string": ("train", "--config", {"bins": {"edges": "ab"}}, 2),
    "train-config-bins-without-edges": ("train", "--config", {"bins": {"labels": ["all"]}}, 2),
    "train-config-raw-sales-with-bins": (
        "train",
        "--config",
        {"target_mode": "raw_sales", "bins": {"edges": [0, 10, 100]}},
        2,
    ),
    "experiment-raw-sales-with-bins": (
        "compare",
        "--experiment",
        {**TINY_EXPERIMENT, "target_mode": "raw_sales", "bins": {"edges": [0, 10, 100]}},
        2,
    ),
    "experiment-raw-sales-round-predictions": (
        "compare",
        "--experiment",
        {**TINY_EXPERIMENT, "target_mode": "raw_sales", "round_predictions": True},
        2,
    ),
    "bins-first-edge-above-zero": ("train", "--config", {"bins": {"edges": [10, 20, 30]}}, 2),
    "experiment-bins-first-edge-above-zero": (
        "compare",
        "--experiment",
        {**TINY_EXPERIMENT, "bins": {"edges": [10, 20, 30]}},
        2,
    ),
    "lexicon-empty-delimiter": (
        "train",
        "--config",
        {"pipeline": {"lexicon": {"multi_color_delimiters": ["/", ""]}}},
        2,
    ),
    "lexicon-base-colors-number": ("train", "--config", {"pipeline": {"lexicon": {"base_colors": 3}}}, 2),
    "n-trees-float": ("train", "--config", {"model": {"n_trees": 2.5}}, 2),
    "train-config-model-seed": ("train", "--config", {"model": {"seed": 1}}, 2),
    "train-csv-column-twice": (
        "train",
        "--data",
        f"{CSV_HEADER},Price\n{CSV_ROW},150,5.0\n{CSV_ROW},900,6.0\n".encode(),
        3,
    ),
    "train-csv-no-target-value": ("train", "--data", f"{CSV_HEADER}\n{CSV_ROW},\n{CSV_ROW},NA\n".encode(), 3),
    "experiment-csv-no-target-value-in-train-rows": (
        "compare",
        "--experiment",
        {"dataset": {"csv": "sales-in-test-row-only.csv"}, "seed": 7},
        3,
    ),
    "train-csv-group-mean-overflows": (
        "train",
        "--data",
        (f"{CSV_HEADER}\n" + f"{CSV_ROW},150\n" * 10 + f"{HUGE_SHIPMENT_ROW},900\n" * 2).encode(),
        3,
    ),
    "train-csv-raw-sales-gain-overflows": (
        "train",
        "--data",
        f"{CSV_HEADER}\n{HUGE_SALES_ROWS}".encode(),
        3,
        {"--config": "raw-sales.json"},
    ),
    "train-csv-raw-sales-mean-overflows": (
        "train",
        "--data",
        (f"{CSV_HEADER}\n" + f"{CSV_ROW},1e308\n" * 2).encode(),
        3,
        {"--config": "raw-sales.json"},
    ),
    "experiment-synthetic-with-schema": (
        "compare",
        "--experiment",
        {"dataset": {**TINY_EXPERIMENT["dataset"], "schema": "no-such-schema.json"}},
        2,
    ),
    "max-depth-bool": ("train", "--config", {"model": {"max_depth": True}}, 2),
    "categories-number": ("synth", "--spec", {"categories": 3}, 2),
    "synth-n-products-over-limit": ("synth", "--spec", {"n_products": 10**31}, 2),
    "synth-missing-rate-unknown-column": (
        "synth",
        "--spec",
        {"n_products": 50, "missing_rates": {"Prize": 0.9}},
        2,
    ),
    "synth-brand-count-over-limit": ("synth", "--spec", {"brand_count": 10**10}, 2),
    "model-plan-entry-not-object": (
        "predict",
        "--model",
        lambda d: d["pipeline"]["plan"].update(Price=1),
        4,
    ),
    "model-vocabulary-missing": (
        "predict",
        "--model",
        lambda d: d["pipeline"]["vocabularies"].pop("Brand"),
        4,
    ),
    "model-vocabulary-entry-not-string": (
        "predict",
        "--model",
        lambda d: d["pipeline"]["vocabularies"].update(Brand=[["acme"]]),
        4,
    ),
    "model-vocabularies-not-object": (
        "predict",
        "--model",
        lambda d: d["pipeline"].update(vocabularies=[]),
        4,
    ),
    "model-schema-entry-lacks-kind": (
        "predict",
        "--model",
        lambda d: d.update(schema=[{"name": "Sales", "role": "target"}]),
        4,
    ),
    "model-vocabulary-reversed": (
        "predict",
        "--model",
        lambda d: d["pipeline"]["vocabularies"]["Brand"].reverse(),
        4,
    ),
    "model-schema-differs-from-pipeline": (
        "predict",
        "--model",
        lambda d: d["schema"].pop(0),
        4,
    ),
    "model-feature-layout-differs-from-pipeline": (
        "predict",
        "--model",
        lambda d: d["feature_layout"].reverse(),
        4,
    ),
    "model-kind-linear": ("predict", "--model", lambda d: d.update(kind="linear"), 4),
    "model-lexicon-not-object": ("predict", "--model", lambda d: d["pipeline"].update(lexicon=["red"]), 4),
    "model-unknown-key": ("predict", "--model", lambda d: d.update(weights=[]), 4),
    "model-target-mode-number": ("predict", "--model", lambda d: d.update(target_mode=42), 4),
    "model-bins-string": ("predict", "--model", lambda d: d.update(bins="x"), 4),
    "model-target-mode-unknown": ("predict", "--model", lambda d: d.update(target_mode="banana"), 4),
    "model-target-mode-missing": ("predict", "--model", lambda d: d.pop("target_mode"), 4),
    "model-bins-edges-descending": ("predict", "--model", lambda d: d["bins"].update(edges=[5, 1]), 4),
    "model-bins-unknown-key": ("predict", "--model", lambda d: d["bins"].update(colour="red"), 4),
    "model-raw-sales-with-bins": ("predict", "--model", lambda d: d.update(target_mode="raw_sales"), 4),
    "model-binned-range-bins-null": ("predict", "--model", lambda d: d.update(bins=None), 4),
    "model-group-mean-bool": (
        "predict",
        "--model",
        lambda d: d["pipeline"]["group_means"]["Price"][0]["means"][0].__setitem__(1, True),
        4,
    ),
    "model-group-means-no-tiers": (
        "predict",
        "--model",
        lambda d: d["pipeline"]["group_means"].update(Price=[]),
        4,
    ),
    "model-tree-root-out-of-range": ("predict", "--model", lambda d: d["trees"][0].update(root=5), 4),
    "model-tree-no-nodes": ("predict", "--model", lambda d: d["trees"][0].update(nodes=[]), 4),
    "model-tree-node-not-object": ("predict", "--model", lambda d: d["trees"][0]["nodes"].__setitem__(0, 5), 4),
    "model-tree-root-is-its-own-left-child": ("predict", "--model", lambda d: d["trees"][0]["nodes"][0].update(left=0), 4),
    "train-csv-empty": ("train", "--data", b"", 3),
    "train-csv-raw-sales-gradient-sum-overflows": (
        "train",
        "--data",
        (f"{CSV_HEADER}\n" + "".join(f"{CSV_ROW},{s}\n" for s in ("1e308", "-1e308") * 2)).encode(),
        3,
        {"--config": "raw-sales.json"},
    ),
    "train-config-base-score-overflows-gradient-sum": ("train", "--config", {"model": {"base_score": 1e308}}, 3),
    "compare-out-unknown-suffix": (
        "compare",
        "--experiment",
        {"dataset": {"csv": "data.csv"}, "models": [{"kind": "ols"}]},
        2,
        {"--out": "report.xlsx"},
    ),
    "train-config-gamma-negative": ("train", "--config", {"model": {"gamma": -1.0}}, 2),
    "train-config-min-child-weight-negative": ("train", "--config", {"model": {"min_child_weight": -1.0}}, 2),
    "roster-svr-step-size-zero": (
        "compare",
        "--experiment",
        {**TINY_EXPERIMENT, "models": [{"kind": "linear_svr", "config": {"step_size": 0.0}}]},
        2,
    ),
    "roster-svr-step-decay-negative": (
        "compare",
        "--experiment",
        {**TINY_EXPERIMENT, "models": [{"kind": "linear_svr", "config": {"step_decay": -1.0}}]},
        2,
    ),
    "roster-svr-epochs-negative": (
        "compare",
        "--experiment",
        {**TINY_EXPERIMENT, "models": [{"kind": "linear_svr", "config": {"epochs": -1}}]},
        2,
    ),
    "train-schema-unknown-role": ("train", "--schema", [{"name": "Sales", "kind": "numeric", "role": "label"}], 2),
    "train-schema-empty-name": ("train", "--schema", [{"name": "", "kind": "numeric", "role": "target"}], 2),
    "train-config-plan-empty": ("train", "--config", {"pipeline": {"plan": {}}}, 2),
    "train-config-plan-target-not-zero-fill": (
        "train",
        "--config",
        {"pipeline": {"plan": {**plan_to_json(default_plan()), "Sales": {"strategy": "hierarchical_mean"}}}},
        2,
    ),
    "train-config-plan-categorical-strategy-on-numeric": (
        "train",
        "--config",
        {"pipeline": {"plan": {**plan_to_json(default_plan()), "Price": {"strategy": "color_normalize"}}}},
        2,
    ),
    "train-config-plan-unknown-column": (
        "train",
        "--config",
        {"pipeline": {"plan": {**plan_to_json(default_plan()), "Prize": {"strategy": "zero_fill"}}}},
        2,
    ),
    "experiment-train-fraction-above-one": ("compare", "--experiment", {**TINY_EXPERIMENT, "train_fraction": 1.5}, 2),
    "synth-categories-empty": ("synth", "--spec", {"categories": []}, 2),
    "synth-noise-scale-negative": ("synth", "--spec", {"noise_scale": -1.0}, 2),
    "experiment-nested-too-deeply": ("compare", "--experiment", DEEP_JSON, 2),
    "train-config-nested-too-deeply": ("train", "--config", DEEP_JSON, 2),
    "synth-spec-nested-too-deeply": ("synth", "--spec", DEEP_JSON, 2),
    "schema-nested-too-deeply": ("train", "--schema", DEEP_JSON, 2),
    "model-nested-too-deeply": ("predict", "--model", DEEP_JSON, 4),
    "model-predictions-overflow": ("predict", "--model", _leaves_at_1e308, 4),
    "model-learning-rate-above-one": ("predict", "--model", lambda d: d.update(learning_rate=1.5), 4),
    "model-learning-rate-zero": ("predict", "--model", lambda d: d.update(learning_rate=0.0), 4),
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    spec = root / "spec.json"
    spec.write_text(json.dumps({"n_products": 40, "seed": 5}), encoding="utf-8")
    data = root / "data.csv"
    config = root / "train.json"
    config.write_text(json.dumps({"model": {"n_trees": 2}}), encoding="utf-8")
    model = root / "model.json"
    assert main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--config", str(config), "--model-out", str(model)]) == 0
    (root / "raw-sales.json").write_text(json.dumps({"target_mode": "raw_sales"}), encoding="utf-8")
    (root / "categorical-target.json").write_text(json.dumps(CATEGORICAL_TARGET), encoding="utf-8")
    (root / "sales-in-test-row-only.csv").write_text(f"{CSV_HEADER}\n{SALES_IN_TEST_ROW_ONLY}", encoding="utf-8")
    return data, model


def test_model_file_writers_write_the_keys_their_readers_declare(trained):
    """A `train` bundle holds exactly the ensemble's and the bundle's keys,
    a bare ensemble the ensemble's, and an encoder state the state's."""
    _, model = trained
    bundle = json.loads(model.read_text(encoding="utf-8"))
    assert bundle.keys() == boosted_trees._ENSEMBLE.keys() | boosted_trees._BUNDLE.keys()
    assert boosted_trees.to_json(boosted_trees.from_json(bundle)).keys() == boosted_trees._ENSEMBLE.keys()
    assert state_to_json(state_from_json(bundle["pipeline"])).keys() == feature_pipeline._STATE.keys()


def _no_catalog(spec=None):
    raise AssertionError("a malformed input reached the synthetic catalog generator")


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_with_its_code(case, trained, tmp_path, capsys, monkeypatch):
    command, option, content, expected, *further = MALFORMED_INPUTS[case]
    # Each is rejected while its spec is read, so a spec too large to build
    # is never built.
    monkeypatch.setattr(cli, "generate_synthetic", _no_catalog)
    monkeypatch.setattr(eval_harness, "generate_synthetic", _no_catalog)
    data, model = trained
    monkeypatch.chdir(data.parent)  # experiments name the trained files relative to it
    if callable(content):
        document = json.loads(model.read_text(encoding="utf-8"))
        content(document)
        content = document
    if not isinstance(content, bytes):
        content = json.dumps(content).encode("utf-8")
    bad = tmp_path / "input"
    bad.write_bytes(content)
    options = {
        "synth": {"--out": tmp_path / "out.csv"},
        "train": {"--data": data, "--model-out": tmp_path / "model.json"},
        "predict": {"--model": model, "--data": data, "--out": tmp_path / "preds.csv"},
        "compare": {},
    }[command]
    options[option] = bad
    options.update(*further)
    argv = [command] + [str(part) for pair in options.items() for part in pair]
    assert main(argv) == expected
    assert capsys.readouterr().err.startswith(("config error:", "data error:", "model error:"))


@pytest.mark.parametrize("command", ["synth", "train", "predict", "compare"])
def test_unwritable_output_exits_2(command, trained, tmp_path, capsys):
    data, model = trained
    experiment = tmp_path / "exp.json"
    experiment.write_text(json.dumps({**TINY_EXPERIMENT, "models": [{"kind": "ols"}]}), encoding="utf-8")
    out = tmp_path / "missing" / "out.txt"
    argv = {
        "synth": ["synth", "--out", out],
        "train": ["train", "--data", data, "--config", data.parent / "train.json", "--model-out", out],
        "predict": ["predict", "--model", model, "--data", data, "--out", out],
        "compare": ["compare", "--experiment", experiment, "--out", out],
    }[command]
    assert main([str(part) for part in argv]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write {out}: ")


@pytest.mark.parametrize("jobs", ["0", "-5"])
@pytest.mark.parametrize("command", ["train", "compare"])
def test_jobs_below_one_exits_2(command, jobs, trained, tmp_path, capsys):
    """--jobs is checked against its bound before the command reads or writes anything."""
    data, _ = trained
    experiment = tmp_path / "exp.json"
    experiment.write_text(json.dumps(TINY_EXPERIMENT), encoding="utf-8")
    out = tmp_path / "out.json"
    argv = {
        "train": ["train", "--data", data, "--model-out", out, "--jobs", jobs],
        "compare": ["compare", "--experiment", experiment, "--out", out, "--jobs", jobs],
    }[command]
    assert main([str(part) for part in argv]) == 2
    assert capsys.readouterr().err == f"config error: --jobs must be >= 1, got {jobs}\n"
    assert not out.exists()


def test_model_target_mode_error_names_its_location(trained, tmp_path, capsys):
    """A model's target_mode is one of the declared target modes, and an error names its location."""
    data, model = trained
    document = json.loads(model.read_text(encoding="utf-8"))
    document["target_mode"] = "banana"
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(document), encoding="utf-8")
    assert _predict(bad, data, tmp_path / "preds.csv") == 4
    expected = "model error: model.target_mode must be one of ['raw_sales', 'binned_range'], got 'banana'\n"
    assert capsys.readouterr().err == expected


def test_model_without_target_mode_error_names_the_key(trained, tmp_path, capsys):
    """A bundle whose pipeline is there but whose target_mode is not says so."""
    data, model = trained
    document = json.loads(model.read_text(encoding="utf-8"))
    del document["target_mode"]
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(document), encoding="utf-8")
    assert _predict(bad, data, tmp_path / "preds.csv") == 4
    assert capsys.readouterr().err.endswith(": model.target_mode is missing\n")


def _predict(model, data, out) -> int:
    return main(["predict", "--model", str(model), "--data", str(data), "--out", str(out)])


@pytest.mark.parametrize("block_rows", [1, 7, 8, 40])
def test_predict_in_blocks_matches_one_block(block_rows, trained, tmp_path, monkeypatch):
    """Scoring the 40-row CSV in blocks (with a remainder, an exact multiple,
    one full block) writes the bytes of the one-block run, which are those
    of Ensemble.predict on the whole encoded table."""
    data, model = trained
    assert _predict(model, data, tmp_path / "whole.csv") == 0
    monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
    assert _predict(model, data, tmp_path / "blocks.csv") == 0
    whole = (tmp_path / "whole.csv").read_bytes()
    assert (tmp_path / "blocks.csv").read_bytes() == whole

    document = json.loads(model.read_text(encoding="utf-8"))
    state = state_from_json(document["pipeline"])
    matrix, _ = transform(load_csv(data, state.schema, allow_missing_target=True), state)
    expected = boosted_trees.from_json(document).predict(matrix)
    assert whole.decode("utf-8") == "prediction\n" + "".join(f"{float(v)!r}\n" for v in expected)


def test_predict_bad_row_in_a_later_block_writes_nothing(trained, tmp_path, monkeypatch, capsys):
    data, model = trained
    lines = data.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[29] = lines[29][:10] + "\n"  # line 30, in the fifth block of 7 rows
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "preds.csv"
    out.write_text("earlier predictions\n", encoding="utf-8")
    monkeypatch.setattr(cli, "BLOCK_ROWS", 7)
    assert _predict(model, bad, out) == 3
    assert "line 30:" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "earlier predictions\n"


def test_predict_header_only_csv_writes_the_header(trained, tmp_path, monkeypatch):
    data, model = trained
    header_only = tmp_path / "header.csv"
    header_only.write_text(data.read_text(encoding="utf-8").splitlines(keepends=True)[0], encoding="utf-8")
    monkeypatch.setattr(cli, "BLOCK_ROWS", 7)
    assert _predict(model, header_only, tmp_path / "preds.csv") == 0
    assert (tmp_path / "preds.csv").read_bytes() == b"prediction\n"


def test_predict_memory_grows_with_the_block_not_the_file(trained, tmp_path, monkeypatch):
    """predict's traced allocation peak grows by under 100 bytes per row of
    the file (the predictions, 8 bytes a row per copy), and by several
    times that per row of a block (parsed cells and the encoded matrix)."""
    data, model = trained
    header, *rows = data.read_text(encoding="utf-8").splitlines(keepends=True)

    def peak(n_rows, block_rows):
        path = tmp_path / f"rows{n_rows}.csv"
        path.write_text(header + "".join(rows * (n_rows // len(rows))), encoding="utf-8")
        monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
        tracemalloc.start()
        try:
            assert _predict(model, path, tmp_path / "preds.csv") == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long, long_big_blocks = peak(400, 20), peak(4000, 20), peak(4000, 400)
    per_file_row = (long - short) / (4000 - 400)
    per_block_row = (long_big_blocks - long) / (400 - 20)
    assert per_file_row < 100
    assert per_block_row > 5 * per_file_row


def _pools(monkeypatch, workers) -> list:
    """Make ``predict`` see ``workers`` usable CPUs; the returned list gets
    the worker count of each pool it starts."""
    started = []

    def pool(max_workers, *args, **kwargs):
        started.append(max_workers)
        return ProcessPoolExecutor(max_workers, *args, **kwargs)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    return started


@pytest.mark.parametrize("block_rows", [1, 7, 8, 20, 40])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_predict_in_workers_matches_in_process(workers, block_rows, trained, tmp_path, monkeypatch):
    """Blocks scored by a pool of up to MAX_WORKERS workers, from two full
    blocks on, write the bytes of the in-process one-block run, and no
    worker outlives predict."""
    data, model = trained
    assert _predict(model, data, tmp_path / "whole.csv") == 0
    monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
    pools = _pools(monkeypatch, workers)
    assert _predict(model, data, tmp_path / "blocks.csv") == 0
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert pools == ([min(workers, cli.MAX_WORKERS)] if workers > 1 and 40 >= 2 * block_rows else [])
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("reason", ["one-block", "one-full-block", "second-thread"])
def test_predict_scores_in_process_without_a_pool(reason, trained, tmp_path, monkeypatch):
    """A file within one block, a full block followed by a partial one, or a
    process with a second thread scores in-process, with the same bytes."""
    data, model = trained
    assert _predict(model, data, tmp_path / "whole.csv") == 0
    monkeypatch.setattr(cli, "BLOCK_ROWS", {"one-block": 41, "one-full-block": 21}.get(reason, 7))
    pools = _pools(monkeypatch, 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    if reason == "second-thread":
        thread.start()
    try:
        assert _predict(model, data, tmp_path / "blocks.csv") == 0
    finally:
        release.set()
        if thread.ident is not None:
            thread.join(timeout=30)
    assert not thread.is_alive()
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert pools == []


@pytest.mark.parametrize("workers", [2, 3])
def test_predict_bad_row_while_workers_run_writes_nothing(workers, trained, tmp_path, monkeypatch, capsys):
    """A parse error in the parent, with earlier blocks in the pool, exits 3
    as in-process, leaves --out untouched and leaves no worker running."""
    pools = _pools(monkeypatch, workers)
    test_predict_bad_row_in_a_later_block_writes_nothing(trained, tmp_path, monkeypatch, capsys)
    assert pools == [min(workers, cli.MAX_WORKERS)]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("failure", ["worker-dies", "worker-raises"])
def test_predict_worker_failure_exits_with_one_line(failure, trained, tmp_path, monkeypatch, capfd):
    """A worker that dies mid-run (here on its second block) ends predict with
    exit 5, and a package error raised in a worker is raised unchanged; one
    line on stderr and no traceback either way, --out untouched, and no
    worker left running."""
    data, model = trained
    parent, calls = os.getpid(), []
    score = boosted_trees.Ensemble.predict

    def fails_in_a_worker(ensemble, matrix):
        if os.getpid() != parent:
            calls.append(matrix)
            if failure == "worker-raises":
                raise NonFiniteInput("scored in a worker")
            if len(calls) == 2:
                os._exit(1)
        return score(ensemble, matrix)

    monkeypatch.setattr(boosted_trees.Ensemble, "predict", fails_in_a_worker)
    monkeypatch.setattr(cli, "BLOCK_ROWS", 7)
    pools = _pools(monkeypatch, 2)
    out = tmp_path / "preds.csv"
    out.write_text("earlier predictions\n", encoding="utf-8")
    expected_code, expected_err = {
        "worker-dies": (5, "worker error: "),
        "worker-raises": (3, "data error: scored in a worker\n"),
    }[failure]
    assert _predict(model, data, out) == expected_code
    err = capfd.readouterr().err
    assert err.startswith(expected_err) and err.count("\n") == 1 and "Traceback" not in err
    assert out.read_text(encoding="utf-8") == "earlier predictions\n"
    assert pools == [2]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_predict_memory_bound_holds_for_each_worker_count(workers, trained, tmp_path, monkeypatch):
    """The allocation bound holds in-process, where tracemalloc sees every
    allocation of the scoring, and with a pool, where this process holds
    the parsed rows of the blocks in flight."""
    _pools(monkeypatch, workers)
    test_predict_memory_grows_with_the_block_not_the_file(trained, tmp_path, monkeypatch)


@pytest.mark.parametrize("workers", [1, 2])
def test_predict_encodes_each_block_where_it_is_scored(workers, trained, tmp_path, monkeypatch):
    """With a pool, the workers encode every block and this process, which
    only parses, encodes none; in-process, it encodes each block once."""
    data, model = trained
    calls = tmp_path / "transform-pids.txt"
    encode = cli.transform

    def recorded(*args, **kwargs):
        with open(calls, "a", encoding="utf-8") as handle:  # one line per call, from any process
            handle.write(f"{os.getpid()}\n")
        return encode(*args, **kwargs)

    monkeypatch.setattr(cli, "transform", recorded)
    monkeypatch.setattr(cli, "BLOCK_ROWS", 7)
    pools = _pools(monkeypatch, workers)
    assert _predict(model, data, tmp_path / "preds.csv") == 0
    pids = calls.read_text(encoding="utf-8").split()
    assert len(pids) == 6  # 40 rows: five blocks of 7 and one of 5
    if workers == 1:
        assert pools == [] and set(pids) == {str(os.getpid())}
    else:
        assert pools == [2] and str(os.getpid()) not in pids
    assert multiprocessing.active_children() == []


def _paths(value, path=()):
    """Every location in a JSON document, the document itself first."""
    yield path
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _documents(csv_path, model):
    """The three JSON inputs the fuzz test mutates, each with every section
    filled in: a trained model file, a train config and an experiment."""
    root = model.parent
    (root / "schema.json").write_text(json.dumps(schema_to_json(default_schema())), encoding="utf-8")
    shared = {
        "target_mode": "binned_range",
        "bins": bins_to_json(default_bins()),
        "pipeline": {"plan": plan_to_json(default_plan()), "lexicon": to_doc(ColorLexicon())},
    }
    tree_config = {"n_trees": 2, "learning_rate": 0.3, "max_depth": 3, "min_child_weight": 1.0}
    return {
        "model": json.loads(model.read_text(encoding="utf-8")),
        "train-config": {**shared, "model": {**tree_config, "reg_lambda": 1.0, "base_score": None}},
        "experiment": {
            **shared,
            "dataset": {"csv": str(csv_path), "schema": str(root / "schema.json")},
            "train_fraction": 0.8,
            "seed": 5,
            "round_predictions": True,
            "output": None,
            "models": [
                {"name": "XGBoost", "kind": "boosted_trees", "config": tree_config},
                {"name": "GBDT", "kind": "gbdt", "config": {"n_trees": 2, "min_samples_leaf": 1}},
                {"name": "Linear", "kind": "ols"},
                {"name": "Bayes", "kind": "bayes_ridge", "config": {"alpha": 1.0}},
                {"name": "SVM", "kind": "linear_svr", "config": {"epsilon": 0.1, "epochs": 20}},
            ],
        },
    }


@pytest.mark.parametrize("kind", ["model", "train-config", "experiment"])
@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_document_never_raises(kind, trained, data):
    """Deleting any key or element of a trained model file, a train config
    or an experiment, or swapping any value for a JSON value of another
    type, exits 0, 2, 3 or 4 and never ends in a traceback."""
    csv_path, model = trained
    document = _documents(csv_path, model)[kind]
    path = data.draw(st.sampled_from(list(_paths(document))))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]] if path else document
    if path and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        new = data.draw(JSON_VALUES.filter(lambda v: _json_type(v) != _json_type(old)))
        if path:
            parent[path[-1]] = new
        else:
            document = new
    root = model.parent
    fuzzed = root / "fuzzed.json"
    fuzzed.write_text(json.dumps(document), encoding="utf-8")
    argv = {
        "model": ["predict", "--model", fuzzed, "--data", csv_path, "--out", root / "fuzzed.csv"],
        "train-config": ["train", "--data", csv_path, "--config", fuzzed, "--model-out", root / "fuzzed-model.json"],
        "experiment": ["compare", "--experiment", fuzzed, "--out", root / "fuzzed-report.json"],
    }[kind]
    assert main([str(part) for part in argv]) in (0, 2, 3, 4)


# Floats at the limits of float64 and next to zero.
EXTREME_FLOATS = (1e308, -1e308, sys.float_info.max, -sys.float_info.max, 5e-324, -5e-324,
                  sys.float_info.min, -0.0)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_model_with_extreme_floats_predicts_finite_or_exits_4(trained, data):
    """Setting leaf weights, thresholds and base_score of a trained model to
    extreme floats, or to a neighbour of their value, makes predict write
    finite predictions or exit 4 with one line on stderr; no numpy warning
    (an error under this suite's filterwarnings) and no traceback."""
    csv_path, model = trained
    document = json.loads(model.read_text(encoding="utf-8"))

    def extreme(old):
        neighbours = (math.nextafter(old, math.inf), math.nextafter(old, -math.inf))
        return data.draw(st.sampled_from(EXTREME_FLOATS + neighbours))

    if data.draw(st.booleans()):
        document["base_score"] = extreme(document["base_score"])
    for tree in document["trees"]:  # all leaves of a tree at once, so that sums can overflow
        leaves = [node for node in tree["nodes"] if "weight" in node]
        if data.draw(st.booleans()):
            weight = extreme(leaves[0]["weight"])
            for leaf in leaves:
                leaf["weight"] = weight
    branches = [node for tree in document["trees"] for node in tree["nodes"] if "threshold" in node]
    for branch in data.draw(st.lists(st.sampled_from(branches), max_size=3)):
        branch["threshold"] = extreme(branch["threshold"])
    fuzzed, out = model.parent / "extreme.json", model.parent / "extreme.csv"
    fuzzed.write_text(json.dumps(document), encoding="utf-8")
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["predict", "--model", str(fuzzed), "--data", str(csv_path), "--out", str(out)])
    if code == 0:
        predictions = [float(line) for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert len(predictions) == 40 and all(map(math.isfinite, predictions))
    else:
        assert code == 4
        assert err.getvalue().startswith("model error: ") and err.getvalue().count("\n") == 1


# Header mutations act on a whole column, its name and every cell.
CSV_MUTATIONS = (
    "delete-column", "duplicate-column", "rename-header", "bom", "blank-lines",
    "quoted-newline", "non-utf8-byte", "truncate-row", "cell",
)
CELL_TEXTS = ("text", "inf", "1e400", "-0", "$1,234", "1e308")


def _mutated_csv(clean: str, data) -> bytes:
    """``clean`` with one mutation drawn from ``CSV_MUTATIONS``."""
    rows = list(csv.reader(io.StringIO(clean)))
    kind = data.draw(st.sampled_from(CSV_MUTATIONS))
    j = data.draw(st.integers(0, len(rows[0]) - 1))
    i = data.draw(st.integers(1, len(rows) - 1))  # a data row
    if kind == "delete-column":
        for row in rows:
            del row[j]
    elif kind == "duplicate-column":
        for row in rows:
            row.append(row[j])
    elif kind == "rename-header":
        rows[0][j] = data.draw(st.text(st.characters(codec="utf-8"), max_size=6))
    elif kind == "quoted-newline":
        rows[i][j] += "\nmore"
    elif kind == "cell":  # in up to three rows, so that two huge values can meet in one mean
        text = data.draw(st.sampled_from(CELL_TEXTS))
        for k in data.draw(st.lists(st.integers(1, len(rows) - 1), min_size=1, max_size=3)):
            rows[k][j] = text
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    lines = buffer.getvalue().splitlines(keepends=True)
    if kind == "bom":
        i = data.draw(st.integers(0, len(lines) - 1))  # the header line too
        lines[i] = "\ufeff" + lines[i]
    elif kind == "blank-lines":
        lines.insert(i, "\r\n" * data.draw(st.integers(1, 3)))
    elif kind == "truncate-row":
        lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i]) - 3))] + "\r\n"
    content = "".join(lines).encode("utf-8")
    if kind == "non-utf8-byte":
        at = data.draw(st.integers(0, len(content)))
        content = content[:at] + b"\xff" + content[at:]
    return content


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_csv_never_raises(trained, data):
    """Training on a mutated copy of the 40-row CSV, and predicting on it,
    exits 0, 2, 3 or 4 and never ends in a traceback; a model that trains
    loads and predicts on the clean CSV."""
    csv_path, model = trained
    root = model.parent
    mutated = root / "mutated.csv"
    mutated.write_bytes(_mutated_csv(csv_path.read_text(encoding="utf-8"), data))
    mutated_model = root / "mutated-model.json"
    trained_code = main([
        "train", "--data", str(mutated), "--config", str(root / "train.json"), "--model-out", str(mutated_model)
    ])
    assert trained_code in (0, 2, 3, 4)
    out = str(root / "mutated-predictions.csv")
    assert main(["predict", "--model", str(model), "--data", str(mutated), "--out", out]) in (0, 2, 3, 4)
    if trained_code == 0:
        assert main(["predict", "--model", str(mutated_model), "--data", str(csv_path), "--out", out]) == 0


def test_readme_json_examples_load():
    """Every JSON example in README is accepted by the reader of its file:
    the model file's by from_json, the experiment file's by
    experiment_from_json."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    docs = [json.loads(block) for block in blocks]
    models = [doc for doc in docs if "format_version" in doc]
    experiments = [doc for doc in docs if "format_version" not in doc]
    assert models and experiments
    for doc in models:
        boosted_trees.from_json(doc)
    for doc in experiments:
        experiment_from_json(doc)
