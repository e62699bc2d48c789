"""rangeboost benchmark: one workload per run, end-to-end or traced.

    python3 benchmarks/run.py --workload compare_pinned --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --smoke

Run from the repository root; it imports rangeboost from ``src/``.  See
README.md in this directory for the workloads and every metric.

A run generates the workload's inputs from ``--seed`` (three times, to time
set-up), then starts one worker process that calls ``rangeboost.cli.main``
once per pass for ``--seconds`` seconds, then checks the outputs here.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  Every result is also stored with
the machine's facts under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKER_LIMIT_S = 150.0  # leaves time for the checks within 180 s

SETUP_REPEATS = 3
PINNED = {"n_products": 1565, "seed": 7}
TRAIN_ROUNDS = 20
MODELS = ("XGBoost", "GBDT", "Linear", "Bayes", "SVM")
# Binned test MSEs of the pinned compare at the seed commit.
REFERENCE_MSE = {
    "GBDT": 1.9961317446847378,
    "XGBoost": 1.939725127547726,
    "Linear": 2.0533664965538625,
    "Bayes": 2.0511290950998475,
    "SVM": 6.230339541783892,
}
# Full sizes, and the tiny sizes of --smoke.
SIZES = {
    False: {"train_rows": 10_000, "holdout_rows": 20_000, "score_rows": 100_000, "rounds": TRAIN_ROUNDS},
    True: {"train_rows": 400, "holdout_rows": 400, "score_rows": 2_000, "rounds": 2},
}
TINY_ROSTER = [
    {"name": "GBDT", "kind": "gbdt", "config": {"n_trees": 3}},
    {"name": "XGBoost", "kind": "boosted_trees", "config": {"n_trees": 3}},
    {"name": "Linear", "kind": "ols"},
    {"name": "Bayes", "kind": "bayes_ridge"},
    {"name": "SVM", "kind": "linear_svr", "config": {"epochs": 5}},
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


# train_10k's model is scored on one fixed held-out catalog: with a held-out
# set drawn per seed, its sampling noise tripled the MSE's run-to-run spread.
HOLDOUT_SEED = 999_983


def seeds(seed: int) -> dict:
    """Catalog seeds of one benchmark seed; never the pinned seed 7."""
    base = seed % 1_000_000
    return {"train": 10_000 + 2 * base, "score": 2_000_000 + base}


# ---------------------------------------------------------------------------
# Workloads: set-up writes the inputs and returns the pass command
# ---------------------------------------------------------------------------


def catalog(n: int, seed: int):
    from rangeboost.eval_harness import SyntheticSpec, generate_synthetic

    return generate_synthetic(SyntheticSpec(n_products=n, seed=seed))


def fixture(name: str) -> bytes:
    """Decompressed fixture bytes, checked against the manifest."""
    data = gzip.decompress((HERE / "fixtures" / f"{name}.gz").read_bytes())
    manifest = json.loads((HERE / "fixtures" / "manifest.json").read_text(encoding="utf-8"))
    if sha256(data) != manifest["sha256"][name]:
        raise SystemExit(f"fixture {name} does not match its manifest")
    return data


def setup_compare_pinned(work: Path, seed: int, tiny: bool) -> dict:
    experiment = {"dataset": {"synthetic": dict(PINNED)}, "target_mode": "binned_range", "seed": 7}
    if tiny:
        experiment["dataset"]["synthetic"]["n_products"] = 200
        experiment["models"] = TINY_ROSTER
    warmup = {"dataset": {"synthetic": {"n_products": 60, "seed": 7}}, "models": TINY_ROSTER}
    write_json(work / "experiment.json", experiment)
    write_json(work / "warmup.json", warmup)
    return {
        "argv": ["compare", "--experiment", str(work / "experiment.json"),
                 "--out", str(work / "report.json"), "--jobs", "1"],
        "warmup": ["compare", "--experiment", str(work / "warmup.json"),
                   "--out", str(work / "warmup_report.json"), "--jobs", "1"],
        "output": str(work / "report.json"),
        "inputs": ["experiment.json"],
    }


def setup_train_10k(work: Path, seed: int, tiny: bool) -> dict:
    from rangeboost.data_model import write_csv

    size = SIZES[tiny]
    table = catalog(size["train_rows"], seeds(seed)["train"])
    write_csv(table, work / "train.csv")
    write_csv(table.subset(range(200)), work / "warmup.csv")
    write_json(work / "train_config.json", {"model": {"n_trees": size["rounds"]}})
    write_json(work / "warmup_config.json", {"model": {"n_trees": 2}})
    return {
        "argv": ["train", "--data", str(work / "train.csv"), "--config", str(work / "train_config.json"),
                 "--model-out", str(work / "model.json"), "--jobs", "2"],
        "warmup": ["train", "--data", str(work / "warmup.csv"), "--config", str(work / "warmup_config.json"),
                   "--model-out", str(work / "warmup_model.json"), "--jobs", "2"],
        "output": str(work / "model.json"),
        "inputs": ["train.csv", "train_config.json"],
    }


def setup_score_100k(work: Path, seed: int, tiny: bool) -> dict:
    from rangeboost.data_model import write_csv

    (work / "model.json").write_bytes(fixture("score_model.json"))
    table = catalog(SIZES[tiny]["score_rows"], seeds(seed)["score"])
    write_csv(table, work / "score.csv")
    write_csv(table.subset(range(200)), work / "warmup.csv")
    return {
        "argv": ["predict", "--model", str(work / "model.json"), "--data", str(work / "score.csv"),
                 "--out", str(work / "predictions.csv")],
        "warmup": ["predict", "--model", str(work / "model.json"), "--data", str(work / "warmup.csv"),
                   "--out", str(work / "warmup_predictions.csv")],
        "output": str(work / "predictions.csv"),
        "inputs": ["model.json", "score.csv"],
    }


# ---------------------------------------------------------------------------
# Output checks: each returns the workload's mse.* metrics and its failures
# ---------------------------------------------------------------------------


def binned_mse(predictions, target) -> float:
    return float(np.mean((np.asarray(predictions, dtype=np.float64) - target) ** 2))


def encoded(table, bundle):
    """Encoded matrix and binned target of a table under a model bundle."""
    from rangeboost.feature_pipeline import state_from_json, transform
    from rangeboost.range_binning import apply_binning, bins_from_json

    matrix, target = transform(table, state_from_json(bundle["pipeline"]))
    return matrix, np.asarray(apply_binning(target, bins_from_json(bundle["bins"])), dtype=np.float64)


def baseline_mses() -> dict:
    """MSE of the fixed baseline fixtures on the pinned catalog's test side.

    They were fitted as compare fits them, so these equal the pinned
    compare's figures at the commit that built them; they move only if the
    synthetic data, split, encoder or prediction code changes."""
    from rangeboost.boosted_trees import from_json
    from rangeboost.data_model import split_train_test

    doc = json.loads(fixture("baselines.json"))
    table = catalog(PINNED["n_products"], PINNED["seed"])
    test = table.subset(split_train_test(table, 0.8, PINNED["seed"]).test_rows)
    matrix, target = encoded(test, doc)
    out = {}
    for name, model in doc["models"].items():
        if model["kind"] == "ensemble":
            predictions = from_json(model).predict(matrix)
        else:
            predictions = matrix @ np.asarray(model["weights"], dtype=np.float64) + model["intercept"]
        out[name] = binned_mse(predictions, target)
    return out


def off_reference(mses: dict, bounds: dict) -> list[str]:
    """Pinned-catalog MSEs further than their metric's bound from the seed
    commit's figures."""
    return [
        f"mse.{name} {value!r} is off the reference {REFERENCE_MSE[name]!r}"
        for name, value in mses.items()
        if not abs(value / REFERENCE_MSE[name] - 1.0) <= bounds[f"mse.{name}"]
    ]


def check_compare_pinned(work: Path, tiny: bool, bounds: dict) -> tuple[dict, list[str]]:
    rows = json.loads((work / "report.json").read_text(encoding="utf-8"))["rows"]
    if sorted(row["model"] for row in rows) != sorted(MODELS):
        return {}, [f"report rows {[row['model'] for row in rows]} are not the default roster"]
    failed = [row for row in rows if row["error"] is not None or not math.isfinite(row["mse"])]
    problems = [f"{row['model']} failed: {row['error']}" for row in failed]
    mses = {row["model"]: row["mse"] for row in rows if row not in failed}
    if problems or tiny:  # three-tree models do not reach the paper's ordering
        return mses, problems
    if not mses["XGBoost"] <= mses["GBDT"] < mses["Linear"]:
        problems.append(f"criterion-10 ordering XGBoost <= GBDT < Linear broken: {mses}")
    return mses, problems + off_reference(mses, bounds)


def check_train_10k(work: Path, tiny: bool, bounds: dict) -> tuple[dict, list[str]]:
    from rangeboost.boosted_trees import from_json, load_model

    bundle = load_model(work / "model.json")
    ensemble = from_json(bundle)
    problems = []
    if len(ensemble.trees) != SIZES[tiny]["rounds"]:
        problems.append(f"model has {len(ensemble.trees)} trees, configured {SIZES[tiny]['rounds']}")
    matrix, target = encoded(catalog(SIZES[tiny]["holdout_rows"], HOLDOUT_SEED), bundle)
    mses = baseline_mses()
    problems += off_reference(mses, bounds)
    mses["XGBoost"] = binned_mse(ensemble.predict(matrix), target)
    return mses, problems


def check_score_100k(work: Path, tiny: bool, bounds: dict) -> tuple[dict, list[str]]:
    from rangeboost.boosted_trees import from_json, load_model
    from rangeboost.data_model import load_csv, schema_from_json

    bundle = load_model(work / "model.json")
    table = load_csv(work / "score.csv", schema_from_json(bundle["schema"]), allow_missing_target=True)
    matrix, target = encoded(table, bundle)
    expected = from_json(bundle).predict(matrix)
    lines = (work / "predictions.csv").read_text(encoding="utf-8").splitlines()
    if lines[:1] != ["prediction"] or len(lines) != len(expected) + 1:
        return {}, [f"predictions file has {len(lines)} lines for {len(expected)} rows"]
    written = np.asarray([float(line) for line in lines[1:]], dtype=np.float64)
    differ = int(np.count_nonzero(written.view(np.int64) != expected.view(np.int64)))
    problems = [f"{differ} predictions differ from in-process from_json(model).predict"] if differ else []
    mses = baseline_mses()
    problems += off_reference(mses, bounds)
    mses["XGBoost"] = binned_mse(written, target)
    return mses, problems


WORKLOADS = {
    "compare_pinned": (setup_compare_pinned, check_compare_pinned),
    "train_10k": (setup_train_10k, check_train_10k),
    "score_100k": (setup_score_100k, check_score_100k),
}


# ---------------------------------------------------------------------------
# Machine facts, stored with every result
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_fingerprint(),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_worker(spec: dict, work: Path, deadline: float) -> dict:
    spec_path = work / "worker_spec.json"
    result_path = work / "worker_result.json"
    result_path.unlink(missing_ok=True)
    write_json(spec_path, dict(spec, result=str(result_path)))
    with open(work / "worker.log", "w", encoding="utf-8") as log:
        child = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
        )
        try:
            child.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise SystemExit("the worker ran past the run's time limit")
    if child.returncode != 0 or not result_path.exists():
        tail = (work / "worker.log").read_text(encoding="utf-8")[-2000:]
        raise SystemExit(f"the worker exited with code {child.returncode}:\n{tail}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def count_drift(workload: str, seed: int, tiny: bool, counts: dict) -> str | None:
    """Compare exact counts with an earlier run of the same source, workload
    and seed; the first run records them."""
    key = f"{workload}-seed{seed}{'-smoke' if tiny else ''}-{source_fingerprint()[:16]}.json"
    path = WORK / "counts" / key
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        drift = {k: (earlier.get(k), v) for k, v in counts.items() if earlier.get(k) != v}
        return f"counts drifted from an earlier run: {drift}" if drift else None
    path.parent.mkdir(parents=True, exist_ok=True)
    write_json(path, counts)
    return None


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, measure and check one workload; returns the result document."""
    deadline = time.monotonic() + WORKER_LIMIT_S
    spec = benchmark_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    facts = machine_facts()
    setup, check = WORKLOADS[workload]
    work = WORK / workload
    work.mkdir(parents=True, exist_ok=True)

    setup_times, input_hashes = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        job = setup(work, seed, tiny)
        setup_times.append(time.perf_counter() - t0)
        hashes = {name: sha256((work / name).read_bytes()) for name in job["inputs"]}
        if input_hashes not in (None, hashes):
            raise SystemExit("set-up wrote different inputs for the same seed")
        input_hashes = hashes

    result = run_worker(
        {"src": str(SRC), "argv": job["argv"], "warmup": job["warmup"], "output": job["output"],
         "seconds": seconds, "trace": trace, "spans": str(work / "spans.json")},
        work, deadline,
    )
    if result["warmup_rc"] != 0:
        raise SystemExit(f"the warm-up command failed:\n{result['warmup_error']}")
    passes = result["passes"]

    # Every pass, traced or not, must write the same bytes as the first.
    problems = [[] for _ in passes]
    for p, problem in zip(passes, problems):
        if p["rc"] != 0:
            problem.append(f"exit code {p['rc']}: {p['error']}")
        if p["sha256"] != passes[0]["sha256"]:
            problem.append("output bytes differ from the first pass")
    try:
        mses, failures = check(work, tiny, bounds)
    except Exception as exc:  # unreadable outputs fail the passes, not the run
        mses, failures = {}, [f"output check raised {exc!r}"]
    for problem in problems:
        problem.extend(failures)

    untraced = [p["seconds"] for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if trace:
        # Times are medians over the traced passes; counts must be equal.
        layers = {}
        for name in spans.METRICS:
            values = [p["layers"][name] for p in traced]
            layers[name] = None if None in values else statistics.median(values)
        counts = {name: [p["layers"][name] for p in traced] for name in spans.COUNT_METRICS}
        drift = [f"{name} differs between traced passes: {v}" for name, v in counts.items() if len(set(v)) > 1]
        drift.append(count_drift(workload, seed, tiny, {name: v[0] for name, v in counts.items()}))
        layers.update((name, v[0]) for name, v in counts.items())
        for p, problem in zip(passes, problems):
            if p["traced"]:
                problem.extend(d for d in drift if d)
        traced_wall = statistics.median(p["seconds"] for p in traced)
        layers["trace.self_sum_s"] = statistics.median(p["layers"]["trace.self_sum_s"] for p in traced)
        layers["trace.overhead_s"] = traced_wall - statistics.median(untraced)
        units = {name: entry[0] for name, entry in spans.METRICS.items()}
        units.update({"trace.self_sum_s": "s", "trace.overhead_s": "s"})
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times) + result["ready_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
        }
        for name in MODELS:
            metrics[f"mse.{name}"] = {"value": mses.get(name), "unit": "bin2"}

    failed = sum(1 for problem in problems if problem)
    facts["loadavg_end"] = list(os.getloadavg())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": tiny,
        "train_rounds": SIZES[tiny]["rounds"],
        "catalog_seeds": dict(seeds(seed), holdout=HOLDOUT_SEED, pinned=PINNED["seed"]),
        "machine": facts,
        "input_sha256": input_hashes,
        "setup_repeats_s": setup_times,
        "worker_ready_s": result["ready_s"],
        "pass_seconds": {"untraced": untraced, "traced": [p["seconds"] for p in traced]},
        "missing_wrap_targets": result["missing"],
        "problems": [problem for problem in problems if problem],
        "failed_ratio": failed / len(passes),
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": metrics,
    }


def store(doc: dict) -> None:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{doc['workload']}-seed{doc['seed']}-trace{int(doc['trace'])}-{time.time_ns()}.json"
    write_json(out / name, doc)


def report(doc: dict) -> None:
    print(f"workload {doc['workload']}  seed {doc['seed']}  trace {int(doc['trace'])}  "
          f"passes {doc['attempted']}  failed {doc['failed']}  failed_ratio {doc['failed_ratio']:.4g} ratio")
    for problem in doc["problems"]:
        print("  FAILED:", "; ".join(problem))
    for target in doc["missing_wrap_targets"]:
        print("  missing wrap target:", target)
    for name, metric in doc["metrics"].items():
        value = "missing" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"  {name:40s} {value:>14s} {metric['unit']}")
    print("machine", json.dumps(doc["machine"]))


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced; checks that the
    emitted metric names are exactly those in BENCHMARK.json."""
    spec = benchmark_spec()
    expected = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            doc = run(workload, 0, 1.0, bool(trace), tiny=True)
            names = set(doc["metrics"])
            problems = [f"missing {sorted(expected[trace] - names)}"] if expected[trace] - names else []
            if names - expected[trace]:
                problems.append(f"unlisted {sorted(names - expected[trace])}")
            if not doc["correct"]:
                problems.append(f"checks failed: {doc['problems']}")
            bad += bool(problems)
            print(f"smoke {workload} trace {trace}: {'ok' if not problems else problems}")
    print("smoke:", "ok" if not bad else f"{bad} failed")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, names check")
    args = parser.parse_args()
    if not (SRC / "rangeboost" / "cli.py").is_file():
        print(f"error: no rangeboost source under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    doc = run(args.workload, args.seed, args.seconds, bool(args.trace))
    store(doc)
    report(doc)
    print(json.dumps({key: doc[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
