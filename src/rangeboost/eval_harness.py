"""Metrics, synthetic data generation, the experiment runner, and reports.

The synthetic generator stands in for a scraped product dataset: category-
dependent price/weight/shipment distributions, bounded ratings, heavy-tailed
review counts, messy colour strings, per-column missingness, and a planted
monotone sales signal wide enough to populate every sales-range bin.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Annotated, Literal, Sequence

import numpy as np

from .baseline_models import (
    Alpha,
    GbdtBaselineConfig,
    SvrConfig,
    fit_bayes_ridge,
    fit_gbdt_first_order,
    fit_linear_svr,
    fit_ols,
)
from .boosted_trees import Jobs, TrainConfig, real_array, train
from .data_model import DataTable, default_schema, load_csv, load_schema, split_train_test
from .errors import EmptyData, InvalidConfig, LengthMismatch
from .feature_pipeline import ColorLexicon, fit_pipeline, plan_from_json, transform
from .jsondoc import Bound, _declaration, check_doc, check_fields, check_value, from_doc
from .range_binning import BINNED_RANGE, BinSpec, TargetMode, apply_binning, target_bins


def _as_pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    """Both as float64 arrays of real numbers; a non-finite prediction still
    scores, and the report prints its metrics as failed."""
    p, t = real_array(pred, "metric"), real_array(truth, "metric")
    if p.ndim != 1 or t.ndim != 1 or p.shape != t.shape:
        raise LengthMismatch(f"prediction/truth shapes differ: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise EmptyData("metrics need at least one element")
    return p, t


def mse(pred, truth) -> float:
    p, t = _as_pair(pred, truth)
    return float(np.mean((p - t) ** 2))


def rmse(pred, truth) -> float:
    return math.sqrt(mse(pred, truth))


def mae(pred, truth) -> float:
    p, t = _as_pair(pred, truth)
    return float(np.mean(np.abs(p - t)))


@dataclass(frozen=True)
class MetricsRow:
    """One comparison line: a model name and its three test-set errors.
    A failed fit carries the error text instead of numbers."""

    model_name: str
    mse: float | None = None
    rmse: float | None = None
    mae: float | None = None
    error: str | None = None


# ---------------------------------------------------------------------------
# Synthetic dataset generation
# ---------------------------------------------------------------------------

DEFAULT_CATEGORIES = (
    "wireless headphones",
    "gaming keyboards",
    "computer mice",
    "air fryers",
)

# price log-mean, weight in pounds, typical shipment days
_CATEGORY_PROFILES = {
    "wireless headphones": (4.4, 0.55, 3.0),
    "gaming keyboards": (4.1, 2.1, 4.0),
    "computer mice": (3.5, 0.22, 2.0),
    "air fryers": (4.5, 11.5, 6.0),
}
_FALLBACK_PROFILE = (4.0, 1.0, 4.0)

_COLOR_POOL = (
    "black",
    "white",
    "grey",
    "dark grey",
    "light blue",
    "matte black",
    "red",
    "blue",
    "pink",
    "silver",
    "black/red",
    "white/gold",
    "blue/grey",
    "red, white & blue",
    "black and silver and grey",
    "slate",
)
_COLOR_WEIGHTS = (
    0.22, 0.12, 0.08, 0.08, 0.05, 0.06, 0.06, 0.06, 0.04, 0.05,
    0.05, 0.03, 0.03, 0.02, 0.02, 0.03,
)


def default_missing_rates() -> dict:
    return {
        "Products": 0.02,
        "Brand": 0.06,
        "Colour": 0.05,
        "Manufacturer": 0.06,
        "Price": 0.04,
        "Rating": 0.07,
        "Number of Rating": 0.07,
        "Shipment": 0.08,
        "Weight Pounds": 0.08,
        "Sales": 0.03,
    }


# Largest synthetic catalog and brand count; a larger one would exhaust memory or numpy's array limits.
MAX_PRODUCTS = 10_000_000


@dataclass(frozen=True)
class SyntheticSpec:
    n_products: Annotated[int, Bound(10, MAX_PRODUCTS)] = 1565
    categories: tuple[str, ...] = DEFAULT_CATEGORIES
    brand_count: Annotated[int, Bound(1, MAX_PRODUCTS)] = 12
    missing_rates: dict[str, Annotated[float, Bound(0, 1)]] = field(default_factory=default_missing_rates)
    noise_scale: Annotated[float, Bound(0)] = 0.65
    seed: Annotated[int, Bound(0)] = 7

    def __post_init__(self):
        check_fields(self, InvalidConfig)
        if not self.categories:
            raise InvalidConfig("at least one category is required")
        unknown = self.missing_rates.keys() - {c.name for c in default_schema()}
        if unknown:
            raise InvalidConfig(f"missing rates name columns not in the schema: {sorted(unknown)}")


def generate_synthetic(spec: SyntheticSpec | None = None) -> DataTable:
    """Deterministically emit a product table under the default schema."""
    spec = spec or SyntheticSpec()
    rng = np.random.default_rng(spec.seed)
    n = spec.n_products
    schema = default_schema()

    categories = [spec.categories[i] for i in rng.integers(0, len(spec.categories), n)]
    profiles = [_CATEGORY_PROFILES.get(c, _FALLBACK_PROFILE) for c in categories]

    brand_names = [f"brand{i:02d}" for i in range(spec.brand_count)]
    # most manufacturers trade under the brand's own name
    manufacturer_of = {
        b: (b if i % 10 < 7 else f"{b} industries") for i, b in enumerate(brand_names)
    }
    brands = [brand_names[i] for i in rng.integers(0, spec.brand_count, n)]
    manufacturers = [manufacturer_of[b] for b in brands]

    price = np.round(np.exp(rng.normal([p[0] for p in profiles], 0.45)), 2)
    rating = np.round(np.clip(rng.normal(4.2, 0.55, n), 0.0, 5.0), 1)
    review_counts = np.floor(np.exp(rng.normal(5.0, 1.6, n)))
    shipment = np.clip(np.round(rng.normal([p[2] for p in profiles], 1.8)), 1, 30)
    weight = np.round(np.exp(rng.normal(np.log([p[1] for p in profiles]), 0.3)), 2)
    colours = [
        _COLOR_POOL[i] for i in rng.choice(len(_COLOR_POOL), size=n, p=_COLOR_WEIGHTS)
    ]

    # percentile of price within its own category, in [0, 1]
    price_rank = np.zeros(n)
    categories_arr = np.asarray(categories)
    for cat in spec.categories:
        members = np.flatnonzero(categories_arr == cat)
        if members.size <= 1:
            price_rank[members] = 0.5
            continue
        order = np.argsort(price[members], kind="stable")
        ranks = np.empty(members.size)
        ranks[order] = np.arange(members.size)
        price_rank[members] = ranks / (members.size - 1)

    # planted signal: rises with rating and review volume, falls with price
    # rank; the exponent spreads sales across every volume range
    score = (
        0.40 * (rating / 5.0)
        + 0.40 * np.minimum(1.0, np.log1p(review_counts) / math.log1p(30000.0))
        + 0.20 * (1.0 - price_rank)
    )
    noise = spec.noise_scale * rng.standard_normal(n)
    sales = np.round(np.maximum(0.0, np.expm1(score * 9.9 + noise)))

    columns: dict[str, list] = {
        "Products": categories,
        "Brand": brands,
        "Colour": colours,
        "Manufacturer": manufacturers,
        "Price": price.tolist(),
        "Rating": rating.tolist(),
        "Number of Rating": review_counts.tolist(),
        "Shipment": shipment.tolist(),
        "Weight Pounds": weight.tolist(),
        "Sales": sales.tolist(),
    }
    for col in schema:
        rate = spec.missing_rates.get(col.name, 0.0)
        if rate <= 0.0:
            continue
        values = columns[col.name]  # a list of this call's own, so set in place
        for i in np.flatnonzero(rng.random(n) < rate).tolist():
            values[i] = None

    return DataTable(schema, tuple(zip(*(columns[col.name] for col in schema))))


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------

# Each roster kind: what its "config" object is read into (a config
# dataclass, or, for the two closed-form linear fits, keyword arguments and
# their types) and its fit on (x, y, settings, layout), which looks the
# fitting function up when called.
_MODELS = {
    "boosted_trees": (TrainConfig, lambda x, y, c, layout: train(x, y, c, feature_names=layout)),
    "gbdt": (GbdtBaselineConfig, lambda x, y, c, layout: fit_gbdt_first_order(x, y, c)),
    "ols": ({}, lambda x, y, c, layout: fit_ols(x, y, **c)),
    "bayes_ridge": ({"alpha": Alpha}, lambda x, y, c, layout: fit_bayes_ridge(x, y, **c)),
    "linear_svr": (SvrConfig, lambda x, y, c, layout: fit_linear_svr(x, y, c)),
}
MODEL_KINDS = tuple(_MODELS)


@dataclass(frozen=True)
class ModelSpec:
    """One roster entry.  ``config`` is checked when the spec is built and
    kept, decoded, in ``settings``, so a bad config never reaches a fit."""

    name: str
    kind: Literal[MODEL_KINDS]
    config: dict = field(default_factory=dict)
    settings: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_fields(self, InvalidConfig)
        target, what = _MODELS[self.kind][0], f"{self.kind} config"
        if isinstance(target, dict):
            settings = check_doc(self.config, target, InvalidConfig, what)
        else:
            settings = from_doc(target, self.config, InvalidConfig, what)
        object.__setattr__(self, "settings", settings)


def default_models() -> tuple[ModelSpec, ...]:
    """The five-model comparison lineup in its reporting order."""
    return (
        ModelSpec("GBDT", "gbdt"),
        ModelSpec("XGBoost", "boosted_trees"),
        ModelSpec("Linear", "ols"),
        ModelSpec("Bayes", "bayes_ridge"),
        ModelSpec("SVM", "linear_svr"),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """One comparison run; once built, ``bins`` is None exactly under raw_sales."""

    data_csv: str | None = None
    schema_path: str | None = None
    synthetic: SyntheticSpec | None = None
    target_mode: TargetMode = BINNED_RANGE
    bins: BinSpec | None = None
    train_fraction: Annotated[float, Bound(0, 1, open_lo=True, open_hi=True)] = 0.8
    seed: Annotated[int, Bound(0)] = 7
    models: tuple[ModelSpec, ...] = field(default_factory=default_models)
    plan: dict | None = None
    lexicon: ColorLexicon | None = None
    round_predictions: bool = False
    output: str | None = None

    def __post_init__(self):
        check_fields(self, InvalidConfig)
        if (self.data_csv is None) == (self.synthetic is None):
            raise InvalidConfig("configure exactly one of data_csv or synthetic")
        if self.synthetic is not None and self.schema_path is not None:
            raise InvalidConfig("a synthetic dataset has the default schema and takes no schema file")
        object.__setattr__(self, "bins", target_bins(self.target_mode, self.bins, "experiment"))
        if not self.models:
            raise InvalidConfig("the model roster must not be empty")
        if self.round_predictions and self.bins is None:
            raise InvalidConfig("round_predictions rounds to bins, which raw_sales targets do not have")


def _fit_and_predict(model: ModelSpec, x_train, y_train, x_test, layout):
    fit = _MODELS[model.kind][1]
    return fit(x_train, y_train, model.settings, layout).predict(x_test)


def run_experiment(config: ExperimentConfig, n_jobs: Jobs = 1) -> list[MetricsRow]:
    """Load or generate data, split, fit the pipeline on the train side,
    fit every roster model, and score the held-out side.

    One model failing is recorded in its row; the rest of the roster still
    runs.  Report row order follows the roster order.  ``n_jobs`` (at
    least 1) is accepted for compatibility only; neither the report nor the
    run time depends on it.
    """
    check_value(n_jobs, Jobs, InvalidConfig, "n_jobs")
    if config.synthetic is not None:
        table = generate_synthetic(config.synthetic)
    else:
        schema = load_schema(config.schema_path) if config.schema_path else default_schema()
        table = load_csv(config.data_csv, schema)

    split = split_train_test(table, config.train_fraction, config.seed)
    train_table = table.subset(split.train_rows)
    test_table = table.subset(split.test_rows)

    state = fit_pipeline(train_table, config.plan, config.lexicon)
    x_train, y_train = transform(train_table, state)
    x_test, y_test = transform(test_table, state)

    bins = config.bins
    if bins is not None:
        y_train = np.asarray(apply_binning(y_train, bins), dtype=np.float64)
        y_test = np.asarray(apply_binning(y_test, bins), dtype=np.float64)

    rows: list[MetricsRow] = []
    for model in config.models:
        try:
            preds = _fit_and_predict(model, x_train, y_train, x_test, state.layout)
            if config.round_predictions:
                preds = np.clip(np.rint(preds), 0, bins.n_bins - 1)
            rows.append(MetricsRow(model.name, mse(preds, y_test), rmse(preds, y_test), mae(preds, y_test)))
        except Exception as exc:  # a failed model must not sink the comparison
            rows.append(MetricsRow(model_name=model.name, error=str(exc)))
    return rows


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

REPORT_FORMATS = {".txt": "table", ".csv": "csv", ".json": "json"}

# Each report column: its header and the MetricsRow field it holds.  The
# text table shows the first four; JSON keys are the lowercased headers.
_REPORT_COLUMNS = (
    ("Model", "model_name"), ("MSE", "mse"), ("RMSE", "rmse"), ("MAE", "mae"), ("Error", "error")
)


def _format_metric(value: float | None) -> str:
    if value is None or not math.isfinite(value):
        return "failed"
    if abs(value) >= 1e6:
        return f"{value:.2E}"
    return f"{value:.2f}"


def render_report(rows: Sequence[MetricsRow], fmt: str = "table") -> str:
    """Render rows as an aligned text table, CSV, or JSON.

    The text table uses two fraction digits and switches to scientific
    notation at 1e6; CSV and JSON keep full precision, and CSV leaves a
    missing value empty.
    """
    if not rows:
        raise EmptyData("report has no rows")
    headers = [header for header, _ in _REPORT_COLUMNS]
    cells = [[getattr(row, name) for _, name in _REPORT_COLUMNS] for row in rows]
    if fmt == "table":
        lines = [headers[:4]] + [[name, *map(_format_metric, metrics)] for name, *metrics, _ in cells]
        widths = [max(len(line[j]) for line in lines) for j in range(4)]
        text = ("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() for line in lines)
        return "\n".join(text) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer).writerows([headers, *cells])
        return buffer.getvalue()
    if fmt == "json":
        keys = [header.lower() for header in headers]
        return json.dumps({"rows": [dict(zip(keys, line)) for line in cells]}, indent=2) + "\n"
    raise InvalidConfig(f"unknown report format {fmt!r}; expected one of {tuple(REPORT_FORMATS.values())}")


# ---------------------------------------------------------------------------
# JSON config parsing
# ---------------------------------------------------------------------------

def synthetic_spec_from_json(doc) -> SyntheticSpec:
    return from_doc(SyntheticSpec, doc, InvalidConfig, "synthetic spec")


def parse_document(doc, fields: dict, what: str) -> dict:
    """Check an experiment or train document against the sections both
    share plus ``fields`` (key -> JSON type), and decode the shared ones:
    ``target_mode`` (defaulted), ``bins`` (by ``target_bins``: None exactly
    under raw_sales) and ``pipeline`` (replaced by ``plan`` and ``lexicon``,
    None when absent)."""
    shared = {"target_mode": _EXPERIMENT["target_mode"], "bins": BinSpec, "pipeline": dict}
    doc = check_doc(doc, {**shared, **fields}, InvalidConfig, what)
    doc.setdefault("target_mode", BINNED_RANGE)
    doc["bins"] = target_bins(doc["target_mode"], doc.get("bins"), what)
    pipeline = check_doc(
        doc.pop("pipeline", {}), {"plan": dict, "lexicon": ColorLexicon}, InvalidConfig, "pipeline"
    )
    doc["plan"] = plan_from_json(pipeline["plan"]) if "plan" in pipeline else None
    doc["lexicon"] = pipeline.get("lexicon")
    return doc


# JSON types of the experiment's keys, of its dataset and of a roster entry.
# A key an experiment (or, for target_mode, a train config) shares with
# ExperimentConfig, and each key of an entry, has the type its dataclass declares.
_EXPERIMENT = _declaration(ExperimentConfig)[0]
_EXPERIMENT_FIELDS = {"dataset": dict, "models": list, **{
    key: _EXPERIMENT[key] for key in ("train_fraction", "seed", "round_predictions", "output")}}
_DATASET_FIELDS = {"csv": str, "schema": str, "synthetic": SyntheticSpec}
_ENTRY_FIELDS = _declaration(ModelSpec)[0]


def experiment_from_json(doc) -> ExperimentConfig:
    doc = parse_document(doc, _EXPERIMENT_FIELDS, "experiment")
    dataset = check_doc(doc.pop("dataset", {}), _DATASET_FIELDS, InvalidConfig, "dataset")
    if "models" in doc:
        entries = [check_doc(e, _ENTRY_FIELDS, InvalidConfig, "model entry", {"kind"}) for e in doc["models"]]
        doc["models"] = tuple(ModelSpec(**{"name": e["kind"], **e}) for e in entries)  # named by kind by default
    return ExperimentConfig(data_csv=dataset.get("csv"), schema_path=dataset.get("schema"),
                            synthetic=dataset.get("synthetic"), **doc)

