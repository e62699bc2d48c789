"""Rebuild the fixed models that the benchmark scores.

    python3 benchmarks/make_fixtures.py

Run from the repository root.  It trains, with the rangeboost in ``src/``
and default configs, on the pinned synthetic catalog (1565 products,
seed 7):

- ``fixtures/score_model.json.gz``: the 200-tree bundle that ``rangeboost
  train`` writes (model, encoder state, schema, bins).  ``score_100k``
  predicts with it.
- ``fixtures/baselines.json.gz``: the first-order GBDT, OLS, Bayesian ridge
  and linear SVR fitted exactly as ``compare`` fits them (80/20 split with
  seed 7, encoder fitted on the train side), with that encoder state.
  ``train_10k`` and ``score_100k`` report their MSE on the test side, which
  equals the pinned compare's figures at the commit that built them.

The committed files were built once and stay fixed, so that a change to a
learner never changes what the scoring workload reads.  Rebuilding them
changes the benchmark: do it only in a change that redefines the benchmark.
"""

import gzip
import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from rangeboost import cli  # noqa: E402
from rangeboost.baseline_models import (  # noqa: E402
    fit_bayes_ridge,
    fit_gbdt_first_order,
    fit_linear_svr,
    fit_ols,
    linear_to_json,
)
from rangeboost.boosted_trees import to_json  # noqa: E402
from rangeboost.data_model import split_train_test, write_csv  # noqa: E402
from rangeboost.eval_harness import SyntheticSpec, generate_synthetic  # noqa: E402
from rangeboost.feature_pipeline import fit_pipeline, state_to_json, transform  # noqa: E402
from rangeboost.range_binning import apply_binning, bins_to_json, default_bins  # noqa: E402

FIXTURES = HERE / "fixtures"


def write_gzip(path: Path, data: bytes) -> str:
    """Gzip with a zero timestamp so equal bytes give an equal file."""
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
        handle.write(data)
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    catalog = generate_synthetic(SyntheticSpec(n_products=1565, seed=7))
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        csv_path = Path(tmp) / "pinned.csv"
        model_path = Path(tmp) / "model.json"
        write_csv(catalog, csv_path)
        if cli.main(["train", "--data", str(csv_path), "--model-out", str(model_path)]) != 0:
            raise SystemExit("training the score model failed")
        model_bytes = model_path.read_bytes()

    split = split_train_test(catalog, 0.8, 7)
    train_table = catalog.subset(split.train_rows)
    state = fit_pipeline(train_table, None, None)
    matrix, target = transform(train_table, state)
    target = [float(v) for v in apply_binning(target, default_bins())]
    baselines = {
        "pipeline": state_to_json(state),
        "bins": bins_to_json(default_bins()),
        "models": {
            "GBDT": to_json(fit_gbdt_first_order(matrix, target)),
            "Linear": linear_to_json(fit_ols(matrix, target)),
            "Bayes": linear_to_json(fit_bayes_ridge(matrix, target, alpha=1.0)),
            "SVM": linear_to_json(fit_linear_svr(matrix, target)),
        },
    }
    manifest = {
        "built_from": "pinned synthetic catalog (n_products=1565, seed=7), default configs; baselines on its 80/20 seed-7 train split",
        "sha256": {
            "score_model.json": write_gzip(FIXTURES / "score_model.json.gz", model_bytes),
            "baselines.json": write_gzip(
                FIXTURES / "baselines.json.gz", (json.dumps(baselines) + "\n").encode("utf-8")
            ),
        },
    }
    (FIXTURES / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(manifest, indent=2))


if __name__ == "__main__":
    main()
