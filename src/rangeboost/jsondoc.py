"""Reading and writing JSON documents against declared types.

Every JSON document the package reads (experiment, train config, synthetic
spec, schema, model) goes through ``read_json`` and, part by part, through
``check_doc``, ``from_doc`` or ``check_value``.  Each takes the caller's
error class, so a failure maps to the exit code of the file it came from.
A dataclass field may itself be a dataclass, read by ``from_doc`` in turn,
and a number field may carry its ``Bound``, checked with its type.
Writers build their documents with ``to_doc``, the inverse of ``from_doc``,
so a format's keys are declared once, by the dataclass both sides use.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import sys
import types
import typing
from dataclasses import MISSING, dataclass, is_dataclass
from dataclasses import fields as dataclass_fields
from pathlib import Path

_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string",
          dict: "an object", list: "an array", tuple: "an array", frozenset: "an array"}


def read_json(path, what: str, error: type[Exception]):
    """Parse a UTF-8 JSON file; any failure to read or decode raises ``error``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise error(f"cannot read {what} file {path}: {exc}") from exc
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise error(f"{what} file {path} is not valid JSON: {exc}") from exc
    except RecursionError:  # the decoder recurses once per nested array or object
        raise error(f"{what} file {path} is nested too deeply") from None


@dataclass(frozen=True)
class Bound:
    """The range a number field allows, declared as ``Annotated`` metadata:
    ``Annotated[int, Bound(0)]`` is ``>= 0`` and ``Bound(0, 1, open_lo=True)``
    is ``in (0, 1]``."""

    lo: float
    hi: float | None = None
    open_lo: bool = False
    open_hi: bool = False

    def admits(self, value) -> bool:
        above = value > self.lo if self.open_lo else value >= self.lo
        return above and (self.hi is None or (value < self.hi if self.open_hi else value <= self.hi))

    def __str__(self) -> str:
        if self.hi is None:
            return f"{'>' if self.open_lo else '>='} {self.lo}"
        return f"in {'(' if self.open_lo else '['}{self.lo}, {self.hi}{')' if self.open_hi else ']'}"


def check_value(value, hint, error: type[Exception], where: str, decode: bool = True):
    """``value`` if it has the JSON type ``hint`` declares, with arrays
    turned into the tuples or frozensets it names and, if ``decode``, objects
    into the dataclasses it names; else raise ``error``.  ``tuple[A, B]`` is
    an array of exactly those types, ``Literal`` names the values allowed,
    and ``Annotated[T, Bound(...)]`` is a T within each bound.  A tuple, or a
    frozenset where one is declared, may stand for an array."""
    if type(hint) is type:  # a plain type, checked without typing introspection
        if hint is float:  # exact for ints of any size; false for NaN and the infinities
            ok = _is_number(value) and (
                abs(value) <= sys.float_info.max if type(value) is int else math.isfinite(value))
        elif hint is int:
            ok = type(value) is int or _is_number(value) and isinstance(value, numbers.Integral)
        else:
            ok = isinstance(value, hint)
        if ok:
            return value
        if is_dataclass(hint):
            if decode:
                return from_doc(hint, value, error, where)
            raise error(f"{where} must be a {hint.__name__}, got {value!r}")
        raise error(f"{where} must be {_NAMES[hint]}, got {value!r}")
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Annotated:  # the type's rule first, so bools, NaN and text fail as above
        value = check_value(value, args[0], error, where, decode)
        for bound in hint.__metadata__:
            if not bound.admits(value):
                raise error(f"{where} must be {bound}, got {value!r}")
        return value
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (hint,) = (a for a in args if a is not type(None))
        return check_value(value, hint, error, where, decode)
    if origin in (tuple, frozenset) and isinstance(value, (list, tuple, origin)):
        hints = args if origin is tuple and args[-1] is not ... else args[:1] * len(value)
        if len(hints) == len(value):
            items = enumerate(zip(value, hints))
            return origin(check_value(v, h, error, f"{where}[{i}]", decode) for i, (v, h) in items)
    if origin is dict and isinstance(value, dict):
        return {k: check_value(v, args[1], error, f"{where}.{k}", decode) for k, v in value.items()}
    if origin is typing.Literal and any(type(value) is type(a) and value == a for a in args):
        return value  # 1 == 1.0 == True, hence the type test
    expected = f"one of {list(args)}" if origin is typing.Literal else _NAMES[origin]
    raise error(f"{where} must be {expected}, got {value!r}")


def _is_number(value) -> bool:
    """True for ints and floats (numpy's too), false for bools."""
    return type(value) in (int, float) or isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_doc(doc, fields: dict, error: type[Exception], what: str, required=frozenset()) -> dict:
    """``doc`` as a dict, once it is an object whose keys all appear in
    ``fields`` (key -> type), that has every key of the set ``required``,
    and whose values have those types."""
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object, got {doc!r}")
    if not doc.keys() <= fields.keys():
        raise error(f"unknown {what} keys: {sorted(doc.keys() - fields.keys())}")
    if not doc.keys() >= required:
        raise error(f"{what} needs {sorted(required - doc.keys())}")
    return {key: check_value(value, fields[key], error, f"{what}.{key}") for key, value in doc.items()}


@functools.cache
def _declaration(cls) -> tuple[dict, frozenset]:
    """The types of the dataclass ``cls``'s ``__init__`` fields in declaration
    order and the names of those without a default, worked out once per class."""
    fields, hints = [f for f in dataclass_fields(cls) if f.init], typing.get_type_hints(cls, include_extras=True)
    required = frozenset(f.name for f in fields if f.default is f.default_factory is MISSING)
    return {f.name: hints[f.name] for f in fields}, required


def check_fields(obj, error: type[Exception]) -> None:
    """Raise ``error`` unless each field of the dataclass instance ``obj`` has
    its declared type and bounds, by the rule ``check_value`` applies to JSON:
    a config built in code takes what its JSON document takes, except that a
    dataclass field takes an instance, not the object it is decoded from."""
    for name, hint in _declaration(type(obj))[0].items():
        check_value(getattr(obj, name), hint, error, name, decode=False)


def from_doc(cls, doc, error: type[Exception], what: str):
    """Build the dataclass ``cls`` from a JSON object keyed by its field
    names; the field annotations are the types ``check_doc`` checks."""
    hints, required = _declaration(cls)
    return cls(**check_doc(doc, hints, error, what, required))


def to_doc(value):
    """The JSON value ``from_doc`` reads back as ``value``: a dataclass is an
    object of its fields in declaration order, tuples and lists are arrays,
    frozensets sorted arrays, dicts keep their keys, anything else is itself."""
    if value is None or type(value) in (int, float, str):  # most of a model's values
        return value
    if is_dataclass(value):
        return {name: to_doc(getattr(value, name)) for name in _declaration(type(value))[0]}
    if isinstance(value, (tuple, list, frozenset)):
        items = [to_doc(v) for v in value]
        return sorted(items) if isinstance(value, frozenset) else items
    if isinstance(value, dict):
        return {k: to_doc(v) for k, v in value.items()}
    return value
