"""Gradient-boosted sales-range forecasting toolkit."""

from .baseline_models import (
    GbdtBaselineConfig,
    LinearModel,
    SvrConfig,
    fit_bayes_ridge,
    fit_gbdt_first_order,
    fit_linear_svr,
    fit_ols,
)
from .boosted_trees import (
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
from .data_model import (
    ColumnSchema,
    DataTable,
    SplitIndices,
    default_schema,
    load_csv,
    read_rows,
    split_train_test,
    write_csv,
)
from .eval_harness import (
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
from .feature_pipeline import (
    ColorLexicon,
    EncoderState,
    default_plan,
    fit_pipeline,
    normalize_color,
    transform,
)
from .range_binning import BinSpec, apply_binning, bin_of, default_bins

__version__ = "0.1.0"
