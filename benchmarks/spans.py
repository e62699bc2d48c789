"""Span tracing for the benchmark's traced passes.

Wrappers go on the public names where rangeboost's own code looks them up
(module attributes and two methods), are installed only around traced
passes, and are removed afterwards.  Each call records a span (name, start,
end, parent) in memory, plus exact counts read from its arguments or result.
Per-layer metrics are sums over spans: ``_s`` metrics are self time (span
duration minus the time covered by its child spans) unless the metric table
below says otherwise.

A wrapped name that no longer exists is reported as missing, and every
metric built from it is emitted as ``null``; the run goes on.
"""

from __future__ import annotations

import importlib
import os
import threading
import time

TRAIN = "boosted_trees.train"
GBDT_FIT = "baseline_models.gbdt_fit"
PREDICT = "boosted_trees.predict"
GBDT_PREDICT = "baseline_models.gbdt_predict"
UPDATE = "boosted_trees.update"


def _rows_times_features(args, kwargs, result):
    rows, matrix = args[0], args[1]
    return {"cells": int(len(rows)) * int(matrix.shape[1]), "found": int(result is not None)}


def _file_bytes(path):
    return {"bytes": os.path.getsize(path)}


# (module, attribute, span name, counter).  A counter maps
# (args, kwargs, result) to a dict of exact counts for the span.
FUNCTIONS = (
    ("rangeboost.cli", "main", "cli.main", None),
    ("rangeboost.cli", "run_experiment", "eval_harness.run_experiment", None),
    ("rangeboost.cli", "render_report", "eval_harness.render_report", None),
    ("rangeboost.cli", "load_csv", "data_model.load_csv", lambda a, k, r: {"rows": r.n}),
    ("rangeboost.cli", "fit_pipeline", "feature_pipeline.fit", None),
    ("rangeboost.cli", "transform", "feature_pipeline.transform", lambda a, k, r: {"cells": int(r[0].size)}),
    ("rangeboost.cli", "state_to_json", "feature_pipeline.state_io", None),
    ("rangeboost.cli", "state_from_json", "feature_pipeline.state_io", None),
    ("rangeboost.cli", "apply_binning", "range_binning.apply", lambda a, k, r: {"values": len(r)}),
    ("rangeboost.boosted_trees", "train", TRAIN, lambda a, k, r: {"trees": len(r.trees)}),
    ("rangeboost.boosted_trees", "grow_tree", "boosted_trees.grow_tree", lambda a, k, r: {"leaves": r.n_leaves}),
    ("rangeboost.boosted_trees", "find_best_split", "boosted_trees.find_best_split", _rows_times_features),
    ("rangeboost.boosted_trees", "to_json", "boosted_trees.to_json", None),
    ("rangeboost.boosted_trees", "from_json", "boosted_trees.from_json", None),
    ("rangeboost.boosted_trees", "save_model", "boosted_trees.save_load", lambda a, k, r: _file_bytes(a[1])),
    ("rangeboost.boosted_trees", "load_model", "boosted_trees.save_load", lambda a, k, r: _file_bytes(a[0])),
    ("rangeboost.eval_harness", "train", TRAIN, lambda a, k, r: {"trees": len(r.trees)}),
    ("rangeboost.eval_harness", "fit_gbdt_first_order", GBDT_FIT, None),
    ("rangeboost.eval_harness", "fit_ols", "baseline_models.ols_fit", None),
    ("rangeboost.eval_harness", "fit_bayes_ridge", "baseline_models.bayes_fit", None),
    ("rangeboost.eval_harness", "fit_linear_svr", "baseline_models.svr_fit", None),
    ("rangeboost.eval_harness", "generate_synthetic", "eval_harness.generate_synthetic", None),
    ("rangeboost.eval_harness", "load_csv", "data_model.load_csv", lambda a, k, r: {"rows": r.n}),
    ("rangeboost.eval_harness", "split_train_test", "data_model.split", None),
    ("rangeboost.eval_harness", "fit_pipeline", "feature_pipeline.fit", None),
    ("rangeboost.eval_harness", "transform", "feature_pipeline.transform", lambda a, k, r: {"cells": int(r[0].size)}),
    ("rangeboost.eval_harness", "apply_binning", "range_binning.apply", lambda a, k, r: {"values": len(r)}),
    ("rangeboost.eval_harness", "mse", "eval_harness.metrics", None),
    ("rangeboost.eval_harness", "rmse", "eval_harness.metrics", None),
    ("rangeboost.eval_harness", "mae", "eval_harness.metrics", None),
)

# (module, class, method, span name); the two predict methods are special
# and resolved at call time, see Tracer._wrap_method.
METHODS = (
    ("rangeboost.data_model", "DataTable", "subset", "data_model.split"),
    ("rangeboost.baseline_models", "LinearModel", "predict", "baseline_models.linear_predict"),
    ("rangeboost.boosted_trees", "Ensemble", "predict", PREDICT),
    ("rangeboost.boosted_trees", "RegressionTree", "predict", UPDATE),
)

# metric -> (unit, how, span name[, count key]).  "self" sums self time,
# "total" sums span duration, "calls" counts spans, "count" sums a count,
# "ratio" is a count divided by the number of calls.
METRICS = {
    "boosted_trees.split_search_s": ("s", "self", "boosted_trees.find_best_split"),
    "boosted_trees.split_calls": ("count", "calls", "boosted_trees.find_best_split"),
    "boosted_trees.cells_scanned": ("count", "count", "boosted_trees.find_best_split", "cells"),
    "boosted_trees.split_found_ratio": ("ratio", "ratio", "boosted_trees.find_best_split", "found"),
    "boosted_trees.grow_tree_s": ("s", "self", "boosted_trees.grow_tree"),
    "boosted_trees.update_s": ("s", "self", UPDATE),
    "boosted_trees.train_s": ("s", "total", TRAIN),
    "boosted_trees.train_self_s": ("s", "self", TRAIN),
    "boosted_trees.trees": ("count", "count", TRAIN, "trees"),
    "boosted_trees.leaves": ("count", "count", "boosted_trees.grow_tree", "leaves"),
    "boosted_trees.predict_s": ("s", "self", PREDICT),
    "boosted_trees.rows_predicted": ("count", "count", PREDICT, "rows"),
    "boosted_trees.from_json_s": ("s", "self", "boosted_trees.from_json"),
    "boosted_trees.to_json_s": ("s", "self", "boosted_trees.to_json"),
    "boosted_trees.save_load_s": ("s", "self", "boosted_trees.save_load"),
    "boosted_trees.model_bytes": ("count", "count", "boosted_trees.save_load", "bytes"),
    "baseline_models.gbdt_fit_s": ("s", "self", GBDT_FIT),
    "baseline_models.gbdt_predict_s": ("s", "self", GBDT_PREDICT),
    "baseline_models.ols_fit_s": ("s", "self", "baseline_models.ols_fit"),
    "baseline_models.bayes_fit_s": ("s", "self", "baseline_models.bayes_fit"),
    "baseline_models.svr_fit_s": ("s", "self", "baseline_models.svr_fit"),
    "baseline_models.linear_predict_s": ("s", "self", "baseline_models.linear_predict"),
    "data_model.load_csv_s": ("s", "self", "data_model.load_csv"),
    "data_model.rows_loaded": ("count", "count", "data_model.load_csv", "rows"),
    "data_model.split_s": ("s", "self", "data_model.split"),
    "feature_pipeline.fit_s": ("s", "self", "feature_pipeline.fit"),
    "feature_pipeline.transform_s": ("s", "self", "feature_pipeline.transform"),
    "feature_pipeline.cells_encoded": ("count", "count", "feature_pipeline.transform", "cells"),
    "feature_pipeline.state_io_s": ("s", "self", "feature_pipeline.state_io"),
    "range_binning.apply_s": ("s", "self", "range_binning.apply"),
    "range_binning.values_binned": ("count", "count", "range_binning.apply", "values"),
    "eval_harness.run_experiment_s": ("s", "total", "eval_harness.run_experiment"),
    "eval_harness.self_s": ("s", "self", "eval_harness.run_experiment"),
    "eval_harness.generate_synthetic_s": ("s", "self", "eval_harness.generate_synthetic"),
    "eval_harness.metrics_s": ("s", "self", "eval_harness.metrics"),
    "eval_harness.render_report_s": ("s", "self", "eval_harness.render_report"),
    "cli.main_s": ("s", "total", "cli.main"),
    "cli.self_s": ("s", "self", "cli.main"),
}
COUNT_METRICS = tuple(name for name, spec in METRICS.items() if spec[0] == "count")

# Spans whose RegressionTree.predict calls are the per-round update, and
# spans whose tree calls are already timed as part of a prediction.
_UPDATE_PARENTS = (TRAIN, GBDT_FIT)
_PREDICT_PARENTS = (PREDICT, GBDT_PREDICT)


class Tracer:
    """Installs span wrappers on rangeboost and collects spans in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, counts]
        self.missing: set[str] = set()  # wrap targets that no longer exist
        self.broken_counters: set[str] = set()  # spans whose counts failed
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._gbdt_models: list[object] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, counter, func, args, kwargs):
        stack = self._stack()
        index = len(self.spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
        self.spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
        if counter is not None:
            try:
                span[4] = counter(args, kwargs, result)
            except (AttributeError, IndexError, TypeError, OSError):
                self.broken_counters.add(name)
        return result

    def _ancestor(self, names) -> str | None:
        """Nearest enclosing span whose name is in ``names``."""
        for index in reversed(self._stack()):
            if self.spans[index][0] in names:
                return self.spans[index][0]
        return None

    def _wrap_function(self, name, counter, func):
        remember = self._gbdt_models.append if name == GBDT_FIT else None

        def wrapper(*args, **kwargs):
            result = self._call(name, counter, func, args, kwargs)
            if remember is not None:
                remember(result)
            return result

        return wrapper

    def _wrap_method(self, name, method):
        if name == PREDICT:
            # Ensemble.predict: a GBDT baseline's prediction is attributed
            # to baseline_models, every other one to boosted_trees.
            def wrapper(model, matrix, *args, **kwargs):
                span = GBDT_PREDICT if any(model is m for m in self._gbdt_models) else PREDICT
                counter = (lambda a, k, r: {"rows": int(len(r))}) if span == PREDICT else None
                return self._call(span, counter, method, (model, matrix) + args, kwargs)
        elif name == UPDATE:
            # RegressionTree.predict: under train or GBDT fit it is the
            # per-round update; inside an ensemble prediction it is part of
            # that span; called on its own it is a prediction.
            def wrapper(tree, *args, **kwargs):
                owner = self._ancestor(_UPDATE_PARENTS + _PREDICT_PARENTS)
                if owner in _PREDICT_PARENTS:
                    return method(tree, *args, **kwargs)
                span = UPDATE if owner in _UPDATE_PARENTS else PREDICT
                return self._call(span, None, method, (tree,) + args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return self._call(name, None, method, args, kwargs)
        return wrapper

    def install(self) -> None:
        for module_name, attr, name, counter in FUNCTIONS:
            module = importlib.import_module(module_name)
            func = getattr(module, attr, None)
            if func is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, func))
            setattr(module, attr, self._wrap_function(name, counter, func))
        for module_name, class_name, attr, name in METHODS:
            owner = getattr(importlib.import_module(module_name), class_name, None)
            method = owner.__dict__.get(attr) if owner is not None else None
            if method is None:
                self.missing.add(f"{module_name}.{class_name}.{attr}")
                continue
            self._saved.append((owner, attr, method))
            setattr(owner, attr, self._wrap_method(name, method))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._gbdt_models.clear()

    def reset(self) -> None:
        self.spans = []
        self._gbdt_models.clear()


def lost_spans(missing: set[str]) -> set[str]:
    """Span names that lost every wrap target, so their metrics are missing."""
    flags: dict[str, list[bool]] = {}
    for module_name, attr, name, _ in FUNCTIONS:
        flags.setdefault(name, []).append(f"{module_name}.{attr}" in missing)
    for module_name, class_name, attr, name in METHODS:
        flags.setdefault(name, []).append(f"{module_name}.{class_name}.{attr}" in missing)
    flags[GBDT_PREDICT] = flags[PREDICT]
    return {name for name, lost in flags.items() if all(lost)}


def aggregate(spans: list[list], missing: set[str], broken_counters: set[str]) -> dict:
    """Per-layer metrics of one traced pass; a metric whose spans or counts
    are missing is None."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent] += end - start
    totals: dict[str, dict] = {}
    for i, (name, start, end, parent, counts) in enumerate(spans):
        entry = totals.setdefault(name, {"self": 0.0, "total": 0.0, "calls": 0, "counts": {}})
        entry["total"] += end - start
        entry["self"] += (end - start) - children[i]
        entry["calls"] += 1
        for key, value in (counts or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    lost = lost_spans(missing)
    out = {}
    for metric, (unit, how, span, *key) in METRICS.items():
        if span in lost or (key and span in broken_counters):
            out[metric] = None
            continue
        entry = totals.get(span, {"self": 0.0, "total": 0.0, "calls": 0, "counts": {}})
        if how in ("self", "total", "calls"):
            out[metric] = entry[how]
        elif how == "count":
            out[metric] = entry["counts"].get(key[0], 0)
        else:
            calls = entry["calls"]
            out[metric] = entry["counts"].get(key[0], 0) / calls if calls else 0.0
    out["trace.self_sum_s"] = sum(end - start - children[i] for i, (_, start, end, _, _) in enumerate(spans))
    return out
