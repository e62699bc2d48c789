"""The package's default of one OpenBLAS thread.  OpenBLAS reads the variable
once, when numpy loads, so each case runs in a fresh process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import rangeboost

SRC = str(Path(rangeboost.__file__).resolve().parent.parent)


def _python(args, cwd, **env_vars):
    """Run the interpreter with ``src`` on the path, OPENBLAS_NUM_THREADS
    unset unless given."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(env_vars)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, check=True)


READ_SETTING = "import os, rangeboost; print(os.environ['OPENBLAS_NUM_THREADS'])"


def test_import_defaults_to_one_blas_thread(tmp_path):
    assert _python(["-c", READ_SETTING], tmp_path).stdout == "1\n"


def test_a_users_blas_setting_wins(tmp_path):
    assert _python(["-c", READ_SETTING], tmp_path, OPENBLAS_NUM_THREADS="3").stdout == "3\n"


def test_compare_report_does_not_depend_on_blas_threads(tmp_path):
    experiment = {"dataset": {"synthetic": {"n_products": 200, "seed": 7}}, "target_mode": "binned_range", "seed": 7}
    (tmp_path / "exp.json").write_text(json.dumps(experiment), encoding="utf-8")
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"report-{threads}.json"
        compare = ["-m", "rangeboost.cli", "compare", "--experiment", "exp.json", "--out", out.name]
        _python(compare, tmp_path, OPENBLAS_NUM_THREADS=threads)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    # The three models that call BLAS are among the five.
    assert sorted(row["model"] for row in json.loads(reports[0])["rows"]) == ["Bayes", "GBDT", "Linear", "SVM", "XGBoost"]
