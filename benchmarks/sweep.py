"""Repeat benchmark runs over seeds and summarise each metric's spread.

    python3 benchmarks/sweep.py --runs 10 --out benchmarks/BENCH_seed.json
    python3 benchmarks/sweep.py --runs 5 --workloads score_100k --traced 0

Run from the repository root.  Runs ``run.py`` once per (seed, workload),
round-robin over the workloads, with BENCHMARK.json's ``run_seconds``.
For every end-to-end metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, which is
the inter-quartile distance as a share of the median, next to the metric's
bound.  ``--traced`` adds that many traced runs per workload, on the first
seed, and records the per-layer metrics of the first; run.py fails a traced
pass whose exact counts differ from an earlier run of the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Result line and machine facts of one run.py invocation."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{out.stdout}\n{out.stderr}")
    machine = next((json.loads(line[len("machine "):]) for line in lines if line.startswith("machine ")), {})
    return json.loads(lines[-1]), machine


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values,
            "bound": bound, "within_bound": spread <= bound, "within_third": spread < bound / 3}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--traced", type=int, default=1, help="traced runs per workload")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    lines: dict[str, list[dict]] = {w: [] for w in workloads}
    machine: dict = {}
    for i in range(args.runs):
        for workload in workloads:
            line, machine = one_run(workload, args.seed_base + i, seconds, 0)
            lines[workload].append(line)
            print(workload, args.seed_base + i, json.dumps({k: round(v["value"], 4) for k, v in line["metrics"].items()}),
                  "failed", line["failed"], flush=True)

    summary = {"run_seconds": seconds, "runs": args.runs, "seeds": [args.seed_base + i for i in range(args.runs)],
               "machine": machine, "workloads": {}}
    worst_ok = True
    for workload in workloads:
        entry = {
            "attempted": sum(line["attempted"] for line in lines[workload]),
            "failed": sum(line["failed"] for line in lines[workload]),
            "end_to_end": {
                name: summarise([line["metrics"][name]["value"] for line in lines[workload]], bounds[name])
                for name in bounds
            },
        }
        traced = [one_run(workload, args.seed_base, seconds, 1)[0] for _ in range(args.traced)]
        if traced:
            entry["per_layer"] = {m["name"]: traced[0]["metrics"][m["name"]]["value"] for m in spec["per_layer"]}
            entry["traced_runs"] = len(traced)
            entry["traced_failed"] = sum(t["failed"] for t in traced)
        summary["workloads"][workload] = entry
        print(f"\n{workload}: {entry['failed']} of {entry['attempted']} passes failed")
        for name, stats in entry["end_to_end"].items():
            flag = "ok" if stats["within_third"] else ("WIDE" if stats["within_bound"] else "OVER BOUND")
            if name != "setup_s":
                worst_ok &= stats["within_bound"]
            print(f"  {name:14s} median {stats['median']:.6g}  IQR/median {stats['spread']:.4f}  "
                  f"bound {stats['bound']}  {flag}")
        if traced:
            print(f"  traced runs: {entry['traced_failed']} failed passes (count drift included)")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
