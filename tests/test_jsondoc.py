"""Writing and reading share one declaration of each JSON format."""

from __future__ import annotations

import json
import math
import typing
from collections import Counter
from dataclasses import MISSING, dataclass, fields

import pytest

from rangeboost import jsondoc
from rangeboost.baseline_models import GbdtBaselineConfig, SvrConfig
from rangeboost.boosted_trees import Branch, Leaf, TrainConfig, from_json, to_json, train
from rangeboost.data_model import CATEGORICAL, NUMERIC, TARGET, ColumnSchema
from rangeboost.errors import InvalidConfig
from rangeboost.eval_harness import ExperimentConfig, ModelSpec, SyntheticSpec, generate_synthetic
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


def test_read_json_reports_deep_nesting_as_the_callers_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 3000 + "]" * 3000, encoding="utf-8")
    with pytest.raises(InvalidConfig, match=r"^train config file .*deep\.json is nested too deeply$"):
        jsondoc.read_json(path, "train config", InvalidConfig)


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


# Every config dataclass, and the arguments it needs besides the one under test.
CONFIGS = {
    TrainConfig: {}, GbdtBaselineConfig: {}, SvrConfig: {}, SyntheticSpec: {},
    ModelSpec: {"name": "m", "kind": "ols"}, ExperimentConfig: {"synthetic": SyntheticSpec()},
    BinSpec: {"edges": (0.0, 10.0)}, ColorLexicon: {}, ColumnSchema: {"name": "Size", "kind": NUMERIC},
}
# Each field of each, from the declaration check_fields reads, so a field added later is covered.
FIELDS = [(cls, name, hint) for cls in CONFIGS for name, hint in jsondoc._declaration(cls)[0].items()]


def _parts(hint) -> set:
    """``hint`` and its type arguments, an ``Annotated`` one read as its base type too."""
    parts = {hint, *typing.get_args(hint)}
    return parts | {typing.get_args(p)[0] for p in parts if typing.get_origin(p) is typing.Annotated}


NUMBER_FIELDS = [(cls, name) for cls, name, hint in FIELDS if {int, float} & _parts(hint)]


def _field_id(value):
    return getattr(value, "__name__", value)


@pytest.mark.parametrize("cls, name", NUMBER_FIELDS, ids=_field_id)
@pytest.mark.parametrize("bad", [True, math.nan, "1"], ids=["bool", "nan", "text"])
def test_number_fields_follow_the_json_type_rule(cls, name, bad):
    """A config built in code takes in a number field what JSON takes there:
    no bool, NaN or text."""
    cls(**CONFIGS[cls])
    with pytest.raises(InvalidConfig, match=f"^{name} must be "):
        cls(**{**CONFIGS[cls], name: bad})


@pytest.mark.parametrize("cls, name", [(cls, name) for cls, name, _ in FIELDS], ids=_field_id)
def test_every_config_field_is_type_checked(cls, name):
    """Every field is checked before any bound: a value of no JSON type fails
    with the field's name."""
    with pytest.raises(InvalidConfig, match=f"^{name} must be "):
        cls(**{**CONFIGS[cls], name: object()})


def _bounds(cls, name, hint) -> list:
    """(bound, base type, field value holding a number, error location) for
    each ``Bound`` declared on a field, on the field itself or on its dict's
    values (keyed as in the field's default, since keys may be checked too)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Annotated:
        return [(bound, args[0], lambda v: v, name) for bound in hint.__metadata__]
    if origin is dict:
        key = next(iter(getattr(cls(**CONFIGS[cls]), name)))
        return [(bound, base, lambda v: {key: v}, f"{name}.{key}") for bound, base, _, _ in _bounds(cls, name, args[1])]
    return []


# Each bound declared across the config classes, and each of its ends, so a bound added later is covered.
BOUNDS = [(cls, name, *entry) for cls, name, hint in FIELDS for entry in _bounds(cls, name, hint)]
BOUND_ENDS = [
    pytest.param(cls, name, bound, base, wrap, where, end, id=f"{cls.__name__}-{where}-{end}")
    for cls, name, bound, base, wrap, where in BOUNDS for end in ("lo", "hi") if getattr(bound, end) is not None
]


def _every_bound(hint) -> list:
    """Each ``Bound`` anywhere in ``hint``, however deep."""
    return [b for a in typing.get_args(hint) for b in ([a] if isinstance(a, jsondoc.Bound) else _every_bound(a))]


def test_bound_walk_misses_no_bound():
    """``_bounds`` finds every bound the declarations hold, nested ones too."""
    assert len(BOUNDS) == sum(len(_every_bound(hint)) for *_, hint in FIELDS) > 0


@pytest.mark.parametrize("cls, name, bound, base, wrap, where, end", BOUND_ENDS)
def test_every_bound_holds_at_both_ends(cls, name, bound, base, wrap, where, end):
    """A closed end admits its limit and an open one the nearest value
    inside; the nearest value outside (the limit itself at an open end)
    fails with the field's location and its bound."""
    limit, is_open, outward = getattr(bound, end), getattr(bound, f"open_{end}"), -1 if end == "lo" else 1

    def beside(value, direction):
        return value + direction if base is int else math.nextafter(float(value), direction * math.inf)

    inside = beside(limit, -outward) if is_open else base(limit)
    outside = base(limit) if is_open else beside(limit, outward)
    assert getattr(cls(**{**CONFIGS[cls], name: wrap(inside)}), name) == wrap(inside)
    with pytest.raises(InvalidConfig) as caught:
        cls(**{**CONFIGS[cls], name: wrap(outside)})
    assert str(caught.value) == f"{where} must be {bound}, got {outside!r}"


@pytest.mark.parametrize("name, doc", [
    ("synthetic", {"n_products": 20}),
    ("bins", {"edges": [0, 1]}),
    ("models", ({"name": "x", "kind": "ols"},)),
    ("lexicon", {"base_colors": ["red"]}),
])
def test_code_built_config_takes_instances_where_dataclasses_are_declared(name, doc):
    """JSON decodes an object into the dataclass declared for it; a config
    built in code must pass the instance, not the object."""
    with pytest.raises(InvalidConfig, match=rf"^{name}(\[0\])? must be a [A-Z]\w+, got "):
        ExperimentConfig(**{**CONFIGS[ExperimentConfig], name: doc})
