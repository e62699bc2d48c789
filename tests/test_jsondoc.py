"""Writing and reading share one declaration of each JSON format."""

import json
from dataclasses import MISSING, fields

import pytest

from rangeboost.baseline_models import GbdtBaselineConfig, SvrConfig
from rangeboost.boosted_trees import TrainConfig
from rangeboost.data_model import CATEGORICAL, TARGET, ColumnSchema
from rangeboost.errors import InvalidConfig
from rangeboost.eval_harness import SyntheticSpec
from rangeboost.feature_pipeline import (
    ColorLexicon,
    ColorNormalize,
    CrossFill,
    HierarchicalMean,
    ZeroFill,
)
from rangeboost.jsondoc import from_doc, to_doc
from rangeboost.range_binning import BinSpec

# One instance of each dataclass read with from_doc, every field off its default.
INSTANCES = [
    TrainConfig(n_trees=3, learning_rate=0.25, reg_lambda=0.5, gamma=0.1, max_depth=2,
                min_child_weight=2.0, base_score=1.5, seed=4),
    GbdtBaselineConfig(n_trees=5, learning_rate=0.5, max_depth=3, min_samples_leaf=2),
    SvrConfig(epsilon=0.2, c=2.0, step_size=1e-3, step_decay=0.5, epochs=7, seed=1),
    SyntheticSpec(n_products=50, categories=("mice", "desks"), brand_count=3,
                  missing_rates={"Price": 0.5, "Sales": 0.0}, noise_scale=0.1, seed=2),
    BinSpec(edges=(-1.0, 0.1 + 0.2, 10.0), labels=("low", "high")),
    ColorLexicon(base_colors=frozenset({"teal", "red"}), modifier_tokens=frozenset({"pale"}),
                 multi_color_delimiters=("|", " with ")),
    ColumnSchema("Size", CATEGORICAL, TARGET),
    ZeroFill(),
    CrossFill(partner="Brand"),
    HierarchicalMean(tiers=(("Colour", "Brand"), ())),
    ColorNormalize(),
]


@pytest.mark.parametrize("value", INSTANCES, ids=lambda v: type(v).__name__)
def test_to_doc_round_trips_through_from_doc(value):
    for f in fields(value):
        default = f.default_factory() if f.default_factory is not MISSING else f.default
        assert getattr(value, f.name) != default, f"{f.name} is at its default"
    doc = json.loads(json.dumps(to_doc(value)))
    assert list(doc) == [f.name for f in fields(value)]
    assert from_doc(type(value), doc, InvalidConfig, "value") == value

