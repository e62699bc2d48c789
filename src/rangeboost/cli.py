"""Command-line front end.

Subcommands: synth, train, predict, compare, bins.  Exit codes: 0 success,
2 config error, 3 data error, 4 model error, 5 a `predict` worker process
died.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from collections import deque
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import boosted_trees
from .data_model import DataTable, default_schema, load_csv, load_schema, read_rows, schema_to_json, write_csv
from .errors import ConfigError, DataError, InvalidConfig, MalformedModel, ModelError, WorkerDied
from .eval_harness import (
    REPORT_FORMATS,
    SyntheticSpec,
    experiment_from_json,
    generate_synthetic,
    parse_document,
    render_report,
    run_experiment,
    synthetic_spec_from_json,
)
from .feature_pipeline import fit_pipeline, state_from_json, state_to_json, transform
from .jsondoc import check_value, read_json
from .range_binning import RAW_SALES, apply_binning, bins_from_json, bins_to_json, default_bins, target_bins

# Rows `predict` parses, encodes and scores at a time: its memory peak is
# set by one block, not by the file's length.  Smaller blocks add routing
# calls per tree; larger ones keep more parsed rows alive.
BLOCK_ROWS = 16_384


@contextmanager
def _writing(path):
    """Turn a failure to write an output file into a config error."""
    try:
        yield
    except OSError as exc:
        raise InvalidConfig(f"cannot write {path}: {exc}") from exc


def _cmd_synth(args) -> int:
    spec = SyntheticSpec()
    if args.spec:
        spec = synthetic_spec_from_json(read_json(args.spec, "synthetic spec", InvalidConfig))
    table = generate_synthetic(spec)
    with _writing(args.out):
        write_csv(table, args.out)
    print(f"wrote {table.n} rows x {len(table.schema)} columns to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = read_json(args.config, "train config", InvalidConfig) if args.config else {}
    config = parse_document(config, {"model": boosted_trees.TrainConfig}, "train config")
    train_config = config.get("model", boosted_trees.TrainConfig())
    schema = load_schema(args.schema) if args.schema else default_schema()
    bins = config["bins"]
    table = load_csv(args.data, schema)
    state = fit_pipeline(table, config["plan"], config["lexicon"])
    matrix, target = transform(table, state)
    if bins is not None:
        target = apply_binning(target, bins)
    ensemble = boosted_trees.train(matrix, target, train_config, feature_names=state.layout)

    document = boosted_trees.to_json(ensemble)
    document["pipeline"] = state_to_json(state)
    document["schema"] = schema_to_json(schema)
    document["target_mode"] = config["target_mode"]
    document["bins"] = bins_to_json(bins)
    with _writing(args.model_out):
        boosted_trees.save_model(document, args.model_out)
    print(
        f"trained {len(ensemble.trees)} trees on {table.n} rows "
        f"({len(state.layout)} encoded features); model written to {args.model_out}"
    )
    return 0


# The pool's size, the only count measured (score_100k, 2 CPUs).  The parent
# parses every block serially while the workers encode and score, so a third
# worker may mostly wait; widen this with a paired run on 3 or more CPUs.
MAX_WORKERS = 2


def _usable_cpus() -> int:
    """CPUs this process may run on, so ``taskset`` limits them.  The 1
    returned where the platform cannot tell is also the no-``fork``
    fallback: every platform with ``sched_getaffinity`` has ``fork``."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _encode(state, rows) -> np.ndarray:
    """One block of parsed rows, encoded.  In-process it is mapped over the
    blocks, so each block's rows are freed before its matrix is scored."""
    return transform(DataTable(state.schema, rows), state)[0]


_worker_model = None  # (ensemble, state) in each pool worker; fork hands it over unpickled


def _init_worker(ensemble, state) -> None:
    global _worker_model
    _worker_model = ensemble, state


def _score_in_worker(rows) -> np.ndarray:
    ensemble, state = _worker_model
    return ensemble.predict(_encode(state, rows))


def _score(ensemble, state, blocks) -> list[np.ndarray]:
    """Predictions for each of ``blocks`` of parsed rows, in order.  From
    two full blocks on, a fork pool of ``MAX_WORKERS`` workers encodes and
    scores them while this process parses the next, with at most
    ``MAX_WORKERS + 1`` blocks in flight.  A file of fewer rows, one usable
    CPU, or a thread beside this one (forking would copy its locks in
    whatever state they are) score in-process, where a block's rows and
    its matrix are each freed before the next block is parsed; only a
    process that may start a pool reads blocks ahead."""
    workers = min(_usable_cpus(), MAX_WORKERS)
    head = list(islice(blocks, 2)) if workers > 1 and threading.active_count() == 1 else []
    pooled = len(head) == 2 and len(head[1]) == BLOCK_ROWS  # only the last block is short
    # Each block is freed once used: an exhausted list iterator drops its
    # list, where chain would hold a list among its arguments to the end.
    blocks = chain(iter(head), blocks)
    del head
    if not pooled:
        return list(map(ensemble.predict, map(lambda rows: _encode(state, rows), blocks)))
    # Imported only here: the pool's modules add about 1.3 MiB of resident
    # memory and 15 ms of start-up to every command that starts no pool.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    parts, pending = [], deque()
    context = multiprocessing.get_context("fork")
    try:
        with ProcessPoolExecutor(workers, context, initializer=_init_worker, initargs=(ensemble, state)) as pool:
            for rows in blocks:
                pending.append(pool.submit(_score_in_worker, rows))
                if len(pending) > workers:
                    parts.append(pending.popleft().result())
            parts.extend(future.result() for future in pending)
    except BrokenProcessPool as exc:
        raise WorkerDied(f"a predict worker process died: {exc}") from exc
    return parts


def _cmd_predict(args) -> int:
    document = boosted_trees.load_model(args.model)
    ensemble = boosted_trees.from_json(document)
    bins = document.get("bins")
    try:
        state = state_from_json(document.get("pipeline"))
        bins = None if bins is None else bins_from_json(bins)
        if target_bins(document.get("target_mode"), bins, "model") != bins:  # the default filled no bins in
            raise InvalidConfig(f"bins must be null exactly under {RAW_SALES}")
    except ConfigError as exc:
        raise MalformedModel(f"model file {args.model}: bad embedded pipeline or bins: {exc}") from exc
    if document.get("schema") != document["pipeline"]["schema"]:
        raise MalformedModel(f"model file {args.model}: its schema differs from pipeline.schema")
    if ensemble.feature_layout != state.layout:
        raise MalformedModel(f"model file {args.model}: its feature_layout differs from pipeline.layout")
    rows = read_rows(args.data, state.schema, allow_missing_target=True)
    parts = _score(ensemble, state, iter(lambda: tuple(islice(rows, BLOCK_ROWS)), ()))
    with _writing(args.out), open(args.out, "w", encoding="utf-8") as handle:
        handle.write("prediction\n")
        for part in parts:  # one block's text at a time
            handle.write("\n".join(map(repr, part.tolist())) + "\n")
    print(f"wrote {sum(map(len, parts))} predictions to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    config = experiment_from_json(read_json(args.experiment, "experiment", InvalidConfig))
    out = args.out or config.output
    if out:  # checked before any model is fitted
        fmt = REPORT_FORMATS.get(Path(out).suffix.lower())
        if fmt is None:
            raise InvalidConfig(f"cannot infer report format from {out!r}; use .txt, .csv, or .json")
    rows = run_experiment(config)
    table_text = render_report(rows, "table")
    if out:
        report = render_report(rows, fmt)
        with _writing(out):
            Path(out).write_text(report, encoding="utf-8")
        print(f"report written to {out}")
    print(table_text, end="")
    return 0


def _cmd_bins(args) -> int:
    spec = default_bins()
    if args.show:
        for i, label in enumerate(spec.labels):
            lo, hi = spec.edges[i], spec.edges[i + 1]
            closer = "]" if i == spec.n_bins - 1 else ")"
            print(f"{i}: {label}  [{lo:g}, {hi:g}{closer}")
    return 0


JOBS_HELP = (
    "at least 1; accepted for compatibility: train and compare run in one "
    "process, and neither results nor speed depend on it"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangeboost",
        description="Gradient-boosted sales-range forecasting and benchmarking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic product dataset")
    p_synth.add_argument("--spec", help="synthetic spec JSON (defaults apply if omitted)")
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.set_defaults(func=_cmd_synth)

    p_train = sub.add_parser("train", help="fit the boosted-tree model on a CSV")
    p_train.add_argument("--data", required=True, help="training CSV")
    p_train.add_argument("--schema", help="schema JSON (default product schema if omitted)")
    p_train.add_argument("--config", help="train config JSON")
    p_train.add_argument("--model-out", required=True, help="output model JSON path")
    p_train.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p_train.set_defaults(func=_cmd_train)

    p_predict = sub.add_parser("predict", help="apply a trained model to new rows")
    p_predict.add_argument("--model", required=True, help="model JSON from `train`")
    p_predict.add_argument("--data", required=True, help="input CSV (target column optional)")
    p_predict.add_argument("--out", required=True, help="output predictions CSV")
    p_predict.set_defaults(func=_cmd_predict)

    p_compare = sub.add_parser("compare", help="run a multi-model comparison experiment")
    p_compare.add_argument("--experiment", required=True, help="experiment config JSON")
    p_compare.add_argument("--out", help="report path (.txt, .csv, or .json)")
    p_compare.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p_compare.set_defaults(func=_cmd_compare)

    p_bins = sub.add_parser("bins", help="inspect the sales-range bins")
    p_bins.add_argument("--show", action="store_true", help="print the default bin spec")
    p_bins.set_defaults(func=_cmd_bins)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_value(getattr(args, "jobs", 1), boosted_trees.Jobs, InvalidConfig, "--jobs")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 4
    except WorkerDied as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
