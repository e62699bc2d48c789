"""Gradient-boosted sales-range forecasting toolkit."""

import os

# Every BLAS call rangeboost makes (OLS ``lstsq``, the ridge normal equations,
# the SVR's matrix-vector products) is on at most ~10^5 x 52 matrices, where
# OpenBLAS's thread pool only adds wake-up stalls: one ``lstsq`` of the pinned
# compare takes 0.36 s on two threads and 0.003 s on one (2 vCPUs), with the
# same bits.  One thread per process also keeps worker processes from
# oversubscribing the cores.  A value the user set wins.  OpenBLAS reads the
# variable when numpy loads, so this takes effect only when the package is
# imported before numpy, as the CLI does.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .baseline_models import (  # noqa: E402
    GbdtBaselineConfig,
    LinearModel,
    SvrConfig,
    fit_bayes_ridge,
    fit_gbdt_first_order,
    fit_linear_svr,
    fit_ols,
)
from .boosted_trees import (  # noqa: E402
    Branch,
    Ensemble,
    Leaf,
    RegressionTree,
    TrainConfig,
    find_best_split,
    from_json,
    grow_tree,
    leaf_weight,
    objective_value,
    to_json,
    train,
)
from .data_model import (  # noqa: E402
    ColumnSchema,
    DataTable,
    SplitIndices,
    default_schema,
    load_csv,
    read_rows,
    split_train_test,
    write_csv,
)
from .eval_harness import (  # noqa: E402
    ExperimentConfig,
    MetricsRow,
    ModelSpec,
    SyntheticSpec,
    default_models,
    generate_synthetic,
    mae,
    mse,
    render_report,
    rmse,
    run_experiment,
)
from .feature_pipeline import (  # noqa: E402
    ColorLexicon,
    EncoderState,
    default_plan,
    fit_pipeline,
    normalize_color,
    transform,
)
from .range_binning import BinSpec, apply_binning, bin_of, default_bins  # noqa: E402

__version__ = "0.1.0"
