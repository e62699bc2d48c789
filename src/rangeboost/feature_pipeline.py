"""Fit-on-train feature encoding: imputation, colour normalization, one-hot.

The encoder is fitted on the training partition only and then applied as a
pure function to any table with the same schema.  Its serialized form captures
everything the transform needs, so the encoding used at training time can be
shipped alongside a model and replayed at prediction time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Sequence

import numpy as np

from .data_model import (
    CATEGORICAL,
    FEATURE,
    NUMERIC,
    TARGET,
    ColumnSchema,
    DataTable,
    schema_from_json,
)
from .errors import EmptyTrain, InvalidConfig, SchemaMismatch
from .jsondoc import check_doc, from_doc, to_doc

UNKNOWN_TOKEN = "unknown"
COMPOSITE_TOKEN = "composite"
COLOURFUL_TOKEN = "colourful"

DEFAULT_BASE_COLORS = frozenset(
    {
        "grey",
        "black",
        "white",
        "red",
        "blue",
        "green",
        "pink",
        "purple",
        "brown",
        "yellow",
        "orange",
        "gold",
        "silver",
    }
)
DEFAULT_MODIFIERS = frozenset({"dark", "light", "matte", "deep", "pale", "bright"})
DEFAULT_DELIMITERS = ("/", "&", ",", " and ")


@dataclass(frozen=True)
class ColorLexicon:
    """Vocabulary driving colour-string normalization."""

    base_colors: frozenset[str] = DEFAULT_BASE_COLORS
    modifier_tokens: frozenset[str] = DEFAULT_MODIFIERS
    multi_color_delimiters: tuple[str, ...] = DEFAULT_DELIMITERS

    def __post_init__(self):
        if not self.base_colors:
            raise InvalidConfig("colour lexicon needs at least one base colour")
        delimiters = self.multi_color_delimiters
        if not delimiters or "" in delimiters:
            raise InvalidConfig(f"colour lexicon needs one or more delimiters, none empty: {delimiters}")


def normalize_color(raw: str, lexicon: ColorLexicon | None = None) -> str:
    """Collapse a colour listing to a single token.

    Two delimiter-separated segments mean a dual-colour product ("composite"),
    three or more mean "colourful".  A single segment is reduced to its last
    base-colour token after dropping shade modifiers; strings with no known
    base colour pass through lowercased and trimmed.
    """
    lexicon = lexicon or ColorLexicon()
    s = raw.strip().lower()
    pattern = "|".join(re.escape(d) for d in lexicon.multi_color_delimiters)
    segments = [p.strip() for p in re.split(pattern, s) if p.strip()]
    if len(segments) >= 3:
        return COLOURFUL_TOKEN
    if len(segments) == 2:
        return COMPOSITE_TOKEN
    tokens = [t for t in s.split() if t not in lexicon.modifier_tokens]
    for token in reversed(tokens):
        if token in lexicon.base_colors:
            return token
    return s


@dataclass(frozen=True)
class ZeroFill:
    """Missing means zero (ratings, review counts, sales)."""


@dataclass(frozen=True)
class CrossFill:
    """Missing categorical takes its partner column's value; with no partner
    (or both missing) it becomes the "unknown" token."""

    partner: str | None = None


@dataclass(frozen=True)
class HierarchicalMean:
    """Missing numeric takes the mean of the most specific available group;
    the empty tier is the global mean and an exhausted ladder yields zero."""

    tiers: tuple[tuple[str, ...], ...] = (("Brand", "Products"), ("Products",), ())


@dataclass(frozen=True)
class ColorNormalize:
    """Normalize colour strings before one-hot encoding."""


_STRATEGY_NAMES = {
    ZeroFill: "zero_fill",
    CrossFill: "cross_fill",
    HierarchicalMean: "hierarchical_mean",
    ColorNormalize: "color_normalize",
}


@dataclass(frozen=True)
class ImputationPlan:
    """Exactly one strategy per feature column, plus ZeroFill on the target."""

    strategies: dict


def default_plan() -> ImputationPlan:
    return ImputationPlan(
        strategies={
            "Products": CrossFill(),
            "Brand": CrossFill(partner="Manufacturer"),
            "Colour": ColorNormalize(),
            "Manufacturer": CrossFill(partner="Brand"),
            "Price": HierarchicalMean(),
            "Rating": ZeroFill(),
            "Number of Rating": ZeroFill(),
            "Shipment": HierarchicalMean(),
            "Weight Pounds": HierarchicalMean(),
            "Sales": ZeroFill(),
        }
    )


def _validate_plan(plan: ImputationPlan, schema: Sequence[ColumnSchema]) -> None:
    by_name = {c.name: c for c in schema}
    for col in schema:
        if col.name not in plan.strategies:
            raise InvalidConfig(f"imputation plan is missing column {col.name!r}")
        strat = plan.strategies[col.name]
        if col.role == TARGET and not isinstance(strat, ZeroFill):
            raise InvalidConfig("the target column must use the zero-fill strategy")
        if isinstance(strat, (ZeroFill, HierarchicalMean)) and col.kind != NUMERIC:
            raise InvalidConfig(f"{col.name!r}: numeric strategy on a categorical column")
        if isinstance(strat, (CrossFill, ColorNormalize)) and col.kind != CATEGORICAL:
            raise InvalidConfig(f"{col.name!r}: categorical strategy on a numeric column")
        if isinstance(strat, CrossFill) and strat.partner is not None:
            partner = by_name.get(strat.partner)
            if partner is None or partner.kind != CATEGORICAL:
                raise InvalidConfig(
                    f"{col.name!r}: cross-fill partner {strat.partner!r} is not a categorical column"
                )
        if isinstance(strat, HierarchicalMean):
            for tier in strat.tiers:
                for key in tier:
                    key_col = by_name.get(key)
                    if key_col is None or key_col.kind != CATEGORICAL or key_col.role != FEATURE:
                        raise InvalidConfig(
                            f"{col.name!r}: group key {key!r} is not a categorical feature column"
                        )
    extras = set(plan.strategies) - set(by_name)
    if extras:
        raise InvalidConfig(f"imputation plan names unknown columns: {sorted(extras)}")


@dataclass(frozen=True)
class EncoderState:
    """Everything needed to replay the fitted transform on new rows."""

    schema: tuple[ColumnSchema, ...]
    plan: ImputationPlan
    lexicon: ColorLexicon
    vocabularies: dict
    group_means: dict
    layout: tuple[str, ...]


def _categorical_features(schema: Sequence[ColumnSchema]) -> list[ColumnSchema]:
    return [c for c in schema if c.role == FEATURE and c.kind == CATEGORICAL]


def _numeric_features(schema: Sequence[ColumnSchema]) -> list[ColumnSchema]:
    return [c for c in schema if c.role == FEATURE and c.kind == NUMERIC]


def _resolve_categoricals(table: DataTable, plan: ImputationPlan, lexicon: ColorLexicon) -> dict:
    """Apply cross-fill and colour normalization, returning per-column value
    lists where ``None`` marks a category that stays unencodable."""
    # Each read once: a cross-fill partner may be any categorical column.
    columns = {c.name: table.column(c.name) for c in table.schema if c.kind == CATEGORICAL}
    resolved: dict[str, list] = {}
    for col in _categorical_features(table.schema):
        strat = plan.strategies[col.name]
        raw = columns[col.name]
        if isinstance(strat, CrossFill):
            partner = columns[strat.partner] if strat.partner else [None] * table.n
            values = []
            for own, other in zip(raw, partner):
                if own is not None:
                    values.append(own)
                elif other is not None:
                    values.append(other)
                else:
                    values.append(UNKNOWN_TOKEN)
            resolved[col.name] = values
        else:  # ColorNormalize, the only other categorical strategy
            # One call per distinct raw colour: catalogs repeat a few listings.
            normalized = {v: normalize_color(v, lexicon) for v in set(raw) if v is not None}
            resolved[col.name] = [None if v is None else normalized[v] for v in raw]
    return resolved


def _group_keys(tier: Sequence[str], resolved: dict, rows: Sequence[int]) -> list:
    """Group key of each of ``rows`` under ``tier``: the tuple of its key
    columns' resolved values, or ``None`` when one of them is missing."""
    if not tier:
        return [()] * len(rows)
    picked = [[resolved[k][i] for i in rows] for k in tier]
    return [None if None in key else key for key in zip(*picked)]


def fit_pipeline(
    train: DataTable,
    plan: ImputationPlan | None = None,
    lexicon: ColorLexicon | None = None,
) -> EncoderState:
    """Fit vocabularies and group means on the training partition."""
    plan = plan or default_plan()
    lexicon = lexicon or ColorLexicon()
    if train.n == 0:
        raise EmptyTrain("cannot fit the feature pipeline on an empty table")
    _validate_plan(plan, train.schema)

    resolved = _resolve_categoricals(train, plan, lexicon)
    vocabularies = {
        col.name: tuple(sorted({v for v in resolved[col.name] if v is not None}))
        for col in _categorical_features(train.schema)
    }

    group_means: dict[str, tuple] = {}
    for col in _numeric_features(train.schema):
        strat = plan.strategies[col.name]
        if not isinstance(strat, HierarchicalMean):
            continue
        values = train.column(col.name)
        tiers = []
        for tier in strat.tiers:
            groups: dict[tuple, list] = {}
            for v, key in zip(values, _group_keys(tier, resolved, range(train.n))):
                if v is not None and key is not None:
                    groups.setdefault(key, []).append(v)
            # A left fold from 0.0 in ascending row order fixes every mean's bits.
            tiers.append({k: reduce(add, vs, 0.0) / len(vs) for k, vs in groups.items()})
        group_means[col.name] = tuple(tiers)

    return EncoderState(
        schema=train.schema,
        plan=plan,
        lexicon=lexicon,
        vocabularies=vocabularies,
        group_means=group_means,
        layout=_layout(train.schema, vocabularies),
    )


def _layout(schema: Sequence[ColumnSchema], vocabularies: dict) -> tuple[str, ...]:
    """Encoded column names: each numeric feature, then one indicator per
    vocabulary entry of each categorical feature."""
    layout = [c.name for c in _numeric_features(schema)]
    for col in _categorical_features(schema):
        layout.extend(f"{col.name}={entry}" for entry in vocabularies[col.name])
    return tuple(layout)


def transform(table: DataTable, state: EncoderState) -> tuple[np.ndarray, np.ndarray]:
    """Encode a table into a dense feature matrix and a target vector.

    The matrix's columns follow ``state.layout``: each numeric feature, then
    one indicator per vocabulary entry of each categorical feature.  It holds
    no missing and no non-finite values: numeric gaps are filled per the
    plan, and a category missing or unseen at fit time leaves its feature's
    indicators all zero.
    """
    if table.schema != state.schema:
        raise SchemaMismatch(
            f"table schema {table.column_names} does not match the fitted schema"
        )
    n = table.n
    resolved = _resolve_categoricals(table, state.plan, state.lexicon)
    matrix = np.zeros((n, len(state.layout)), dtype=np.float64)

    numeric = _numeric_features(table.schema)
    for j, col in enumerate(numeric):
        strat = state.plan.strategies[col.name]
        values = table.column(col.name)
        if isinstance(strat, ZeroFill):
            filled = [0.0 if v is None else v for v in values]
        else:  # HierarchicalMean: the first tier that saw a row's group fills it
            filled = list(values)
            pending = [i for i, v in enumerate(values) if v is None]
            for tier, means in zip(strat.tiers, state.group_means[col.name]):
                unseen = []
                for i, key in zip(pending, _group_keys(tier, resolved, pending)):
                    if key in means:
                        filled[i] = means[key]
                    else:
                        unseen.append(i)
                pending = unseen
            for i in pending:
                filled[i] = 0.0
        matrix[:, j] = filled

    offset = len(numeric)
    for col in _categorical_features(table.schema):
        vocab = state.vocabularies[col.name]
        index = {v: offset + j for j, v in enumerate(vocab)}
        codes = np.fromiter((index.get(v, -1) for v in resolved[col.name]), dtype=np.intp, count=n)
        seen = np.flatnonzero(codes >= 0)
        matrix[seen, codes[seen]] = 1.0
        offset += len(vocab)

    target_values = table.column(table.target_schema().name)
    target = np.asarray([0.0 if v is None else v for v in target_values], dtype=np.float64)
    return matrix, target


def plan_to_json(plan: ImputationPlan) -> dict:
    return {
        name: {"strategy": _STRATEGY_NAMES[type(strat)], **to_doc(strat)}
        for name, strat in plan.strategies.items()
    }


def plan_from_json(doc) -> ImputationPlan:
    """Each entry names its strategy; its other keys are that strategy's
    fields (``partner`` for cross_fill, ``tiers`` for hierarchical_mean)."""
    if not isinstance(doc, dict):
        raise InvalidConfig("imputation plan document must be an object")
    strategies = {}
    for name, entry in doc.items():
        if not isinstance(entry, dict):
            raise InvalidConfig(f"plan entry {name!r} must be a JSON object, got {entry!r}")
        options = {k: v for k, v in entry.items() if k != "strategy"}
        kind = entry.get("strategy")
        strategy = next((cls for cls, s in _STRATEGY_NAMES.items() if s == kind), None)
        if strategy is None:
            raise InvalidConfig(f"column {name!r}: unknown strategy {kind!r}")
        strategies[name] = from_doc(strategy, options, InvalidConfig, f"plan entry {name!r}")
    return ImputationPlan(strategies=strategies)


def lexicon_to_json(lexicon: ColorLexicon) -> dict:
    return to_doc(lexicon)


def lexicon_from_json(doc) -> ColorLexicon:
    return from_doc(ColorLexicon, doc, InvalidConfig, "colour lexicon")


def state_to_json(state: EncoderState) -> dict:
    """The state's fields in declaration order; the plan and the tuple-keyed
    group means, as sorted [key, mean] pairs, have forms of their own."""
    group_means = {
        col: [{"means": sorted([list(k), m] for k, m in tier.items())} for tier in tiers]
        for col, tiers in state.group_means.items()
    }
    return {**to_doc(state), "plan": plan_to_json(state.plan), "group_means": group_means}


# JSON types of an encoder state document (every key required) and of one
# group-mean tier: [[group key values], mean] pairs.
_STATE = {"schema": list, "plan": dict, "lexicon": dict, "vocabularies": dict[str, tuple[str, ...]],
          "group_means": dict[str, tuple[dict, ...]], "layout": tuple[str, ...]}
_TIER = {"means": tuple[tuple[tuple[str, ...], float], ...]}


def state_from_json(doc) -> EncoderState:
    """Decode an encoder state; its fitted values must be exactly those its
    schema and plan call for, and its layout the one they give."""
    doc = check_doc(doc, _STATE, InvalidConfig, "encoder state", required=_STATE.keys())
    schema = schema_from_json(doc["schema"])
    plan = plan_from_json(doc["plan"])
    _validate_plan(plan, schema)
    vocabularies = doc["vocabularies"]
    categorical = {c.name for c in _categorical_features(schema)}
    tiers = {n: s.tiers for n, s in plan.strategies.items() if isinstance(s, HierarchicalMean)}
    if vocabularies.keys() != categorical or doc["group_means"].keys() != tiers.keys():
        raise InvalidConfig(
            f"encoder state must hold the vocabularies of {sorted(categorical)} "
            f"and the group means of {sorted(tiers)}"
        )
    unsorted = [name for name, vocab in vocabularies.items() if list(vocab) != sorted(set(vocab))]
    if unsorted:
        raise InvalidConfig(f"vocabularies of {unsorted} are not sorted and free of repeats")
    group_means = {}
    for name, docs in doc["group_means"].items():
        pairs = [
            check_doc(tier, _TIER, InvalidConfig, f"group_means.{name}[{i}]", _TIER.keys())["means"]
            for i, tier in enumerate(docs)
        ]
        fits = len(pairs) == len(tiers[name]) and all(
            len(key) == len(keys) for keys, tier in zip(tiers[name], pairs) for key, _ in tier
        )
        if not fits:  # one tier per tier of the plan, each keyed by that tier's columns
            raise InvalidConfig(f"group means of {name!r} do not fit the tiers {tiers[name]} of its plan")
        group_means[name] = tuple({key: float(mean) for key, mean in tier} for tier in pairs)
    layout = _layout(schema, vocabularies)
    if doc["layout"] != layout:
        raise InvalidConfig("encoder state layout differs from the one its schema and vocabularies give")
    return EncoderState(
        schema=schema,
        plan=plan,
        lexicon=lexicon_from_json(doc["lexicon"]),
        vocabularies=vocabularies,
        group_means=group_means,
        layout=layout,
    )
