"""The benchmark's span tracer must find every function it wraps, and
every span it defines must be recorded.

A renamed or moved wrapped function only shows up in a benchmark run as a
``null`` per-layer metric, and a function no longer called through the
attribute the tracer wraps as a silent 0; this test makes both fail tier-1.
"""

import json
import sys
from pathlib import Path

from rangeboost import cli

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_tracer_wraps_every_target(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ as checked out
    from spans import FUNCTIONS, GBDT_PREDICT, METHODS, Tracer

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_products": 40, "seed": 5}), encoding="utf-8")
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"model": {"n_trees": 2}}), encoding="utf-8")
    experiment = tmp_path / "exp.json"
    roster = [{"kind": kind, "config": {"n_trees": 2}} for kind in ("boosted_trees", "gbdt")]
    roster += [{"kind": kind} for kind in ("ols", "bayes_ridge", "linear_svr")]
    experiment.write_text(
        json.dumps({"dataset": {"synthetic": {"n_products": 40, "seed": 5}}, "models": roster}),
        encoding="utf-8",
    )
    data, model = tmp_path / "data.csv", tmp_path / "model.json"
    commands = [
        ["synth", "--spec", spec, "--out", data],
        ["train", "--data", data, "--config", config, "--model-out", model],
        ["predict", "--model", model, "--data", data, "--out", tmp_path / "preds.csv"],
        ["compare", "--experiment", experiment, "--out", tmp_path / "report.json"],
    ]
    tracer = Tracer()
    tracer.install()
    try:
        for argv in commands:  # through the module, as the benchmark's worker calls it
            assert cli.main([str(part) for part in argv]) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == set()
    assert tracer.broken_counters == set()
    defined = {entry[2] for entry in FUNCTIONS} | {entry[3] for entry in METHODS} | {GBDT_PREDICT}
    assert defined - {span[0] for span in tracer.spans} == set()
