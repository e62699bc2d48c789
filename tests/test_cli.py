import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangeboost import boosted_trees, cli, eval_harness
from rangeboost.cli import main
from rangeboost.data_model import default_schema, load_csv, save_schema, schema_to_json
from rangeboost.eval_harness import experiment_from_json
from rangeboost.feature_pipeline import ColorLexicon, default_plan, lexicon_to_json, plan_to_json
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
    import csv

    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(synth_csv), "--model-out", str(model_path)]) == 0
    with synth_csv.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    sales_idx = rows[0].index("Sales")
    no_target = tmp_path / "new.csv"
    with no_target.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        for row in rows:
            writer.writerow([v for i, v in enumerate(row) if i != sales_idx])
    preds_path = tmp_path / "preds.csv"
    assert (
        main(["predict", "--model", str(model_path), "--data", str(no_target), "--out", str(preds_path)])
        == 0
    )


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
TINY_EXPERIMENT = {"dataset": {"synthetic": {"n_products": 60, "seed": 5}}}
CATEGORICAL_TARGET = [
    {**column, "kind": "categorical"} if column["role"] == "target" else column
    for column in schema_to_json(default_schema())
]


def _categorical_target(document):
    for schema in (document["schema"], document["pipeline"]["schema"]):
        schema[:] = CATEGORICAL_TARGET


# case -> (subcommand, option, file content, expected exit code).  Content is
# raw bytes, a JSON document, or a function that corrupts a freshly trained
# model document in place.
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
    "experiment-schema-categorical-target": (
        "compare",
        "--experiment",
        {"dataset": {"csv": "data.csv", "schema": "categorical-target.json"}},
        2,
    ),
    "model-schema-categorical-target": ("predict", "--model", _categorical_target, 4),
    "bins-edges-string": ("train", "--config", {"bins": {"edges": "ab"}}, 2),
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
    "model-unknown-key": ("predict", "--model", lambda d: d.update(weights=[]), 4),
    "model-target-mode-number": ("predict", "--model", lambda d: d.update(target_mode=42), 4),
    "model-bins-string": ("predict", "--model", lambda d: d.update(bins="x"), 4),
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
    (root / "categorical-target.json").write_text(json.dumps(CATEGORICAL_TARGET), encoding="utf-8")
    return data, model


def _no_catalog(spec=None):
    raise AssertionError("a malformed input reached the synthetic catalog generator")


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_with_its_code(case, trained, tmp_path, capsys, monkeypatch):
    command, option, content, expected = MALFORMED_INPUTS[case]
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
    argv = [command] + [str(part) for pair in options.items() for part in pair]
    assert main(argv) == expected
    assert capsys.readouterr().err.startswith(("config error:", "data error:", "model error:"))


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
    save_schema(default_schema(), root / "schema.json")
    shared = {
        "target_mode": "binned_range",
        "bins": bins_to_json(default_bins()),
        "pipeline": {"plan": plan_to_json(default_plan()), "lexicon": lexicon_to_json(ColorLexicon())},
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
