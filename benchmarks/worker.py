"""Runs one workload's passes in a fresh process and writes their timings.

run.py starts this script with the path of a JSON spec; it is not meant to
be run by hand.  Every pass calls ``rangeboost.cli.main`` in this process,
one command at a time (a closed loop).  With tracing on, the first half of
the time budget runs untraced passes and the rest runs traced ones, so the
tracing overhead is measured in the same process.  The process reports its
own peak resident memory, which therefore covers the imports, the warm-up
and the passes, but none of the input generation done by run.py.
"""

import time

START = time.perf_counter()

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402


def file_sha256(path):
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def call_main(cli, argv):
    """Exit code and error text of one CLI command; never raises."""
    try:
        return cli.main(argv), None
    except SystemExit as exc:  # argparse rejects its arguments this way
        return (exc.code if isinstance(exc.code, int) else 1), f"SystemExit({exc.code!r})"
    except Exception:  # a crash is a failed pass, not a crashed benchmark
        return 1, traceback.format_exc()


def measure(cli, spec, budget, tracer=None):
    """Passes until the next one is expected to overrun ``budget`` seconds;
    at least one."""
    passes = []
    began = time.perf_counter()
    while not passes or (
        time.perf_counter() - began + statistics.median(p["seconds"] for p in passes) <= budget
    ):
        gc.collect()
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        rc, error = call_main(cli, spec["argv"])
        seconds = time.perf_counter() - t0
        entry = {
            "seconds": seconds,
            "rc": rc,
            "error": error,
            "sha256": file_sha256(spec["output"]),
            "traced": tracer is not None,
        }
        if tracer is not None:
            entry["layers"] = spans.aggregate(tracer.spans, tracer.missing, tracer.broken_counters)
        passes.append(entry)
    return passes


def main():
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from rangeboost import cli

    rc, error = call_main(cli, spec["warmup"])
    ready = time.perf_counter() - START
    result = {"ready_s": ready, "warmup_rc": rc, "warmup_error": error, "missing": []}
    if rc == 0:
        if spec["trace"]:
            began = time.perf_counter()
            passes = measure(cli, spec, spec["seconds"] / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                passes += measure(cli, spec, spec["seconds"] - (time.perf_counter() - began), tracer)
            finally:
                tracer.uninstall()
            # The last traced pass's spans: [name, start, end, parent index, counts].
            Path(spec["spans"]).write_text(json.dumps(tracer.spans), encoding="utf-8")
            result["missing"] = sorted(tracer.missing | {n + " counts" for n in tracer.broken_counters})
        else:
            passes = measure(cli, spec, spec["seconds"])
        result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
