"""Fit-on-train feature encoding: imputation, colour normalization, one-hot.

The encoder is fitted on the training partition only and then applied as a
pure function to any table with the same schema.  Its serialized form captures
everything the transform needs, so the encoding used at training time can be
shipped alongside a model and replayed at prediction time.
"""

from __future__ import annotations

import math
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
from .errors import EmptyTrain, InvalidConfig, NonFiniteInput, SchemaMismatch
from .jsondoc import check_doc, check_fields, check_value, from_doc, to_doc

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
        check_fields(self, InvalidConfig)
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

    tiers = ()  # not a field: a hierarchical-mean ladder with no tiers


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


def default_plan() -> dict:
    """An imputation plan: column name -> strategy, exactly one strategy per
    feature column, plus ZeroFill on the target."""
    return {
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


def _validate_plan(plan: dict, schema: Sequence[ColumnSchema]) -> None:
    by_name = {c.name: c for c in schema}
    for col in schema:
        if col.name not in plan:
            raise InvalidConfig(f"imputation plan is missing column {col.name!r}")
        strat = plan[col.name]
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
    extras = set(plan) - set(by_name)
    if extras:
        raise InvalidConfig(f"imputation plan names unknown columns: {sorted(extras)}")


@dataclass(frozen=True)
class EncoderState:
    """Everything needed to replay the fitted transform on new rows."""

    schema: tuple[ColumnSchema, ...]
    plan: dict
    lexicon: ColorLexicon
    vocabularies: dict
    group_means: dict
    layout: tuple[str, ...]


def _features(schema: Sequence[ColumnSchema], kind: str) -> list[ColumnSchema]:
    return [c for c in schema if c.role == FEATURE and c.kind == kind]


def _resolve_categoricals(table: DataTable, plan: dict, lexicon: ColorLexicon) -> dict:
    """Apply cross-fill and colour normalization, returning per-column value
    lists where ``None`` marks a category that stays unencodable."""
    # Each read once: a cross-fill partner may be any categorical column.
    columns = {c.name: table.column(c.name) for c in table.schema if c.kind == CATEGORICAL}
    resolved: dict[str, list] = {}
    for col in _features(table.schema, CATEGORICAL):
        strat = plan[col.name]
        raw = columns[col.name]
        if isinstance(strat, CrossFill):
            partner = columns[strat.partner] if strat.partner else [None] * table.n
            resolved[col.name] = [
                own if own is not None else other if other is not None else UNKNOWN_TOKEN
                for own, other in zip(raw, partner)
            ]
        else:  # ColorNormalize, the only other categorical strategy
            # One call per distinct raw colour: catalogs repeat a few listings.
            normalized = {v: normalize_color(v, lexicon) for v in set(raw) if v is not None}
            resolved[col.name] = list(map(normalized.get, raw))  # None stays None
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
    plan: dict | None = None,
    lexicon: ColorLexicon | None = None,
) -> EncoderState:
    """Fit vocabularies and group means on the training partition, which
    needs a target value in some row."""
    plan = default_plan() if plan is None else plan  # an empty plan is invalid, not the default
    lexicon = lexicon or ColorLexicon()
    if train.n == 0:
        raise EmptyTrain("cannot fit the feature pipeline on an empty table")
    _validate_plan(plan, train.schema)
    target = train.target_schema().name
    if all(v is None for v in train.column(target)):
        raise EmptyTrain(f"target column {target!r} has no value in any training row")

    resolved = _resolve_categoricals(train, plan, lexicon)
    vocabularies = {
        col.name: tuple(sorted({v for v in resolved[col.name] if v is not None}))
        for col in _features(train.schema, CATEGORICAL)
    }

    group_means: dict[str, tuple] = {}
    for col in _features(train.schema, NUMERIC):
        strat = plan[col.name]
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
            means = {k: reduce(add, vs, 0.0) / len(vs) for k, vs in groups.items()}
            if not all(map(math.isfinite, means.values())):
                raise NonFiniteInput(f"column {col.name!r}: values too large, a group mean overflows")
            tiers.append(means)
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
    layout = [c.name for c in _features(schema, NUMERIC)]
    for col in _features(schema, CATEGORICAL):
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

    numeric = _features(table.schema, NUMERIC)
    for j, col in enumerate(numeric):
        # The first tier that saw a row's group fills it, and 0.0 fills the
        # rest: ZeroFill has no tiers.
        tiers = state.plan[col.name].tiers
        filled = table.column(col.name)
        pending = [i for i, v in enumerate(filled) if v is None]
        for tier, means in zip(tiers, state.group_means.get(col.name, ())):
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
    for col in _features(table.schema, CATEGORICAL):
        vocab = state.vocabularies[col.name]
        index = {v: offset + j for j, v in enumerate(vocab)}
        codes = np.fromiter((index.get(v, -1) for v in resolved[col.name]), dtype=np.intp, count=n)
        seen = np.flatnonzero(codes >= 0)
        matrix[seen, codes[seen]] = 1.0
        offset += len(vocab)

    target_values = table.column(table.target_schema().name)
    target = np.asarray([0.0 if v is None else v for v in target_values], dtype=np.float64)
    return matrix, target


def plan_to_json(plan: dict) -> dict:
    return {
        name: {"strategy": _STRATEGY_NAMES[type(strat)], **to_doc(strat)}
        for name, strat in plan.items()
    }


def plan_from_json(doc) -> dict:
    """Each entry names its strategy; its other keys are that strategy's
    fields (``partner`` for cross_fill, ``tiers`` for hierarchical_mean)."""
    strategies = {}
    for name, entry in check_value(doc, dict[str, dict], InvalidConfig, "plan").items():
        options = {k: v for k, v in entry.items() if k != "strategy"}
        kind = entry.get("strategy")
        strategy = next((cls for cls, s in _STRATEGY_NAMES.items() if s == kind), None)
        if strategy is None:
            raise InvalidConfig(f"column {name!r}: unknown strategy {kind!r}")
        strategies[name] = from_doc(strategy, options, InvalidConfig, f"plan entry {name!r}")
    return strategies


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
_STATE = {"schema": list, "plan": dict, "lexicon": ColorLexicon,
          "vocabularies": dict[str, tuple[str, ...]], "group_means": dict[str, tuple[dict, ...]],
          "layout": tuple[str, ...]}
_TIER = {"means": tuple[tuple[tuple[str, ...], float], ...]}


def state_from_json(doc) -> EncoderState:
    """Decode an encoder state; its fitted values must be exactly those its
    schema and plan call for, and its layout the one they give."""
    doc = check_doc(doc, _STATE, InvalidConfig, "encoder state", required=_STATE.keys())
    schema = schema_from_json(doc["schema"])
    plan = plan_from_json(doc["plan"])
    _validate_plan(plan, schema)
    vocabularies = doc["vocabularies"]
    categorical = {c.name for c in _features(schema, CATEGORICAL)}
    tiers = {n: s.tiers for n, s in plan.items() if isinstance(s, HierarchicalMean)}
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
        lexicon=doc["lexicon"],
        vocabularies=vocabularies,
        group_means=group_means,
        layout=layout,
    )
