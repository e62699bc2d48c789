"""Writing and reading share one declaration of each JSON format."""

from __future__ import annotations

import json
import typing
from collections import Counter
from dataclasses import MISSING, dataclass, fields

import pytest

from rangeboost import jsondoc
from rangeboost.baseline_models import GbdtBaselineConfig, SvrConfig
from rangeboost.boosted_trees import Branch, Leaf, TrainConfig, from_json, to_json, train
from rangeboost.data_model import CATEGORICAL, TARGET, ColumnSchema
from rangeboost.errors import InvalidConfig
from rangeboost.eval_harness import SyntheticSpec, generate_synthetic
from rangeboost.feature_pipeline import (
    ColorLexicon,
    ColorNormalize,
    CrossFill,
    HierarchicalMean,
    ZeroFill,
    fit_pipeline,
    state_from_json,
    state_to_json,
    transform,
)
from rangeboost.jsondoc import check_value, from_doc, to_doc
from rangeboost.range_binning import BinSpec

# One instance of each dataclass read with from_doc, every field off its default.
INSTANCES = [
    TrainConfig(n_trees=3, learning_rate=0.25, reg_lambda=0.5, gamma=0.1, max_depth=2,
                min_child_weight=2.0, base_score=1.5),
    GbdtBaselineConfig(n_trees=5, learning_rate=0.5, max_depth=3, min_samples_leaf=2),
    SvrConfig(epsilon=0.2, c=2.0, step_size=1e-3, step_decay=0.5, epochs=7),
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
    Leaf(weight=-0.25),
    Branch(feature=3, threshold=0.5, left=1, right=4),
]


@pytest.mark.parametrize("value", INSTANCES, ids=lambda v: type(v).__name__)
def test_to_doc_round_trips_through_from_doc(value):
    for f in fields(value):
        default = f.default_factory() if f.default_factory is not MISSING else f.default
        assert getattr(value, f.name) != default, f"{f.name} is at its default"
    doc = json.loads(json.dumps(to_doc(value)))
    assert list(doc) == [f.name for f in fields(value)]
    assert from_doc(type(value), doc, InvalidConfig, "value") == value



@dataclass(frozen=True)
class Run:
    """A document with dataclass fields, one of them optional."""

    bins: BinSpec
    lexicon: ColorLexicon | None = None


def test_nested_dataclass_decodes():
    run = from_doc(Run, {"bins": {"edges": [0, 10]}, "lexicon": {"base_colors": ["teal"]}}, InvalidConfig, "run")
    assert run == Run(BinSpec((0.0, 10.0)), ColorLexicon(base_colors=frozenset({"teal"})))
    assert from_doc(Run, {"bins": {"edges": [0, 1]}, "lexicon": None}, InvalidConfig, "run").lexicon is None


@pytest.mark.parametrize("doc, message", [
    ({"bins": {"edges": [0, "x"]}}, "run.bins.edges[1] must be a finite number, got 'x'"),
    ({"bins": {"labels": []}}, "run.bins needs ['edges']"),
    ({"bins": [0, 1]}, "run.bins must be a JSON object, got [0, 1]"),
    ({"bins": {"edges": [0, 1]}, "lexicon": {"colours": []}}, "unknown run.lexicon keys: ['colours']"),
])
def test_nested_dataclass_error_names_its_path(doc, message):
    with pytest.raises(InvalidConfig) as caught:
        from_doc(Run, doc, InvalidConfig, "run")
    assert str(caught.value) == message


def test_array_of_dataclasses_decodes():
    doc = [{"name": "Size", "kind": "numeric", "role": "target"}, {"name": "Hue", "kind": "categorical"}]
    hint = tuple[ColumnSchema, ...]
    columns = check_value(doc, hint, InvalidConfig, "schema")
    assert columns == (ColumnSchema("Size", "numeric", TARGET), ColumnSchema("Hue", CATEGORICAL))
    with pytest.raises(InvalidConfig, match=r"^schema\[1\] needs \['kind'\]$"):
        check_value([doc[0], {"name": "Hue"}], hint, InvalidConfig, "schema")


def test_decoding_a_model_reads_each_declaration_once(monkeypatch):
    table = generate_synthetic(SyntheticSpec(n_products=60, seed=5))
    state = fit_pipeline(table)
    ensemble = train(*transform(table, state), TrainConfig(n_trees=3, max_depth=3))
    document = json.loads(json.dumps({**to_json(ensemble), "pipeline": state_to_json(state)}))
    calls = Counter()
    get_type_hints = typing.get_type_hints

    def counting(cls, *args, **kwargs):
        calls[cls] += 1
        return get_type_hints(cls, *args, **kwargs)

    monkeypatch.setattr(typing, "get_type_hints", counting)
    jsondoc._declaration.cache_clear()
    assert from_json(document) == ensemble
    assert state_from_json(document["pipeline"]) == state
    assert {Leaf, Branch, ColumnSchema, ColorLexicon} <= calls.keys()
    assert max(calls.values()) == 1
