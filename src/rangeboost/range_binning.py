"""Ordinal binning of raw sales volumes into volume ranges, and whether a target is binned."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Literal, Sequence

from .errors import InvalidConfig, NegativeValue, NonFiniteInput
from .jsondoc import check_fields, from_doc, to_doc

DEFAULT_EDGES = (0.0, 50.0, 100.0, 300.0, 500.0, 1000.0, 3000.0, 5000.0, 10000.0)

# The two target modes: sales volumes as they are, or their range's index.
RAW_SALES = "raw_sales"
BINNED_RANGE = "binned_range"
TargetMode = Literal[RAW_SALES, BINNED_RANGE]


def _format_edge(e: float) -> str:
    return str(int(e)) if float(e).is_integer() else repr(float(e))


@dataclass(frozen=True)
class BinSpec:
    """Ascending edges defining half-open ranges [edges[i], edges[i+1]);
    the last range is closed on the right and values above it clamp into it."""

    edges: tuple[float, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        check_fields(self, InvalidConfig)
        edges = tuple(float(e) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        if len(edges) < 2:
            raise InvalidConfig("bin edges need at least two entries")
        if not all(b > a for a, b in zip(edges, edges[1:])):  # NaN fails too
            raise InvalidConfig(f"bin edges must be strictly increasing: {edges}")
        if edges[0] > 0:  # sales are non-negative, so every one must fall in a bin
            raise InvalidConfig(f"the first bin edge must be at most 0, got {_format_edge(edges[0])}")
        labels = tuple(self.labels)
        if not labels:
            labels = tuple(
                f"{_format_edge(a)}-{_format_edge(b)}" for a, b in zip(edges, edges[1:])
            )
        if len(labels) != len(edges) - 1:
            raise InvalidConfig(
                f"expected {len(edges) - 1} labels for {len(edges)} edges, got {len(labels)}"
            )
        object.__setattr__(self, "labels", labels)

    @property
    def n_bins(self) -> int:
        return len(self.labels)


def default_bins() -> BinSpec:
    return BinSpec(DEFAULT_EDGES)


def target_bins(target_mode, bins: BinSpec | None, what: str) -> BinSpec | None:
    """The bins a target is put in: ``bins`` or the default ones under binned_range,
    None under raw_sales, which takes none.  ``what`` names the document in errors."""
    if target_mode == BINNED_RANGE:
        return bins or default_bins()
    if target_mode != RAW_SALES:
        raise InvalidConfig(f"unknown target mode {target_mode!r}")
    if bins is not None:
        raise InvalidConfig(f"{what}.bins: raw_sales targets are not binned; remove bins or use binned_range")
    return None


def bin_of(value: float, spec: BinSpec | None = None) -> int:
    """Ordinal index of the range containing ``value``; values at or above
    the top edge, +inf too, clamp to the last bin, and NaN raises."""
    spec = spec or default_bins()
    if value < 0:
        raise NegativeValue(f"sales volume must be non-negative, got {value}")
    if math.isnan(value):  # compares false to every edge, so bisect would put it last
        raise NonFiniteInput(f"sales volume must be a number, got {value}")
    i = bisect_right(spec.edges, value) - 1
    return min(i, spec.n_bins - 1)


def apply_binning(targets: Sequence[float], spec: BinSpec | None = None) -> list[int]:
    """Element-wise bin_of over a target sequence; an error names the index."""
    spec = spec or default_bins()
    out = []
    for i, v in enumerate(targets):
        try:
            out.append(bin_of(v, spec))
        except (NegativeValue, NonFiniteInput) as exc:
            raise type(exc)(f"{exc} at index {i}") from None
    return out


def bins_to_json(spec: BinSpec | None) -> dict | None:
    return to_doc(spec)


def bins_from_json(doc) -> BinSpec:
    return from_doc(BinSpec, doc, InvalidConfig, "bins")
