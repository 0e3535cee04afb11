"""The JSON form of every configuration and scenario block.

A dataclass maps to a JSON object by field name, or by the key a field
names in field(metadata={"json": key}); tuples map to lists. An infinite
float maps to null, and null reads back as the field's default: the one
infinite default is an open-ended tone's t_off_s. from_json checks every
key and value against the field annotations, so malformed input is a
ValueError that starts with its JSON path, for example
"sources[0].power_dbm: expected float, got str".

save and load are the package's one road for JSON files.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from itertools import repeat

# The Python types a JSON value may have, per scalar annotation.
_SCALARS = {float: (int, float), int: (int,), bool: (bool,), str: (str,), type(None): (type(None),)}


def to_json(obj, tp=None):
    """JSON-able form of a config value: dataclasses by field, tuples as lists, inf as None.

    tp is obj's annotation, which a dataclass passes down to each field.
    Where it says float, a number is written as a float, as from_json
    reads it back, so equal values write equal JSON: "r_c": 220.0 whether
    the block was given 220 or 220.0.
    """
    if dataclasses.is_dataclass(obj):
        return {key: to_json(getattr(obj, name), t) for key, (name, t, _) in _schema(type(obj)).items()}
    if typing.get_origin(tp) in (typing.Union, types.UnionType):  # the arm _decode would read obj's JSON with
        tp = next((arm for arm in typing.get_args(tp) if _accepts(arm, obj)), None)
    if isinstance(obj, (tuple, list)):
        origin, args = typing.get_origin(tp), typing.get_args(tp)
        if origin is list or args[-1:] == (Ellipsis,):  # list[X] or tuple[X, ...]
            args = repeat(args[0])
        elif origin is not tuple or len(args) != len(obj):  # not a fixed tuple of this length
            args = repeat(None)
        return [to_json(x, t) for x, t in zip(obj, args)]
    if tp is float and isinstance(obj, (int, float)):
        obj = float(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return None
    return obj


def from_json(cls, d, where: str, *, root: bool = False):
    """cls from its JSON form d, every key and value checked.

    `where` is d's JSON path and starts every error message. With
    root=True it names a whole document, whose fields' paths start bare
    ("sources[0]", not "scenario.sources[0]"). A key left out or null
    takes the field's default, so a field without one must be given. A
    ValueError or ArithmeticError from cls's own checks is prefixed with
    `where` too.
    """
    schema = _schema(cls)
    if not isinstance(d, dict):
        raise ValueError(f"{where}: expected an object, got {_kind(d)}")
    for key in d:
        if key not in schema:
            raise ValueError(f"{where}: unknown key {key!r}")
    kw = {}
    for key, (name, tp, has_default) in schema.items():
        v = d.get(key)
        if v is not None:
            kw[name] = _decode(tp, v, key if root else f"{where}.{key}")
        elif not has_default:
            raise ValueError(f"{where}: missing key {key!r}")
    try:
        return cls(**kw)
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def save(obj, path: str) -> None:
    """Write to_json(obj) to path as JSON: indent 2, sorted keys, a final newline."""
    with open(path, "w") as fh:
        json.dump(to_json(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load(cls, path: str, where: str, *, root: bool = False):
    """cls from the JSON file at path, checked as from_json checks it; a file that is not JSON is a ValueError naming path."""
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return from_json(cls, d, where, root=root)


@functools.cache
def _schema(cls) -> dict:
    """{JSON key: (field name, annotation, has a default)} over the fields of cls."""
    hints = typing.get_type_hints(cls)
    return {
        f.metadata.get("json", f.name): (
            f.name,
            hints[f.name],
            f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    }


def _decode(tp, v, path: str):
    """v read as a value of type tp; ValueError starting with path otherwise."""
    if tp in _SCALARS:
        if not _accepts(tp, v):
            raise ValueError(f"{path}: expected {tp.__name__}, got {_kind(v)}")
        if tp is not float:
            return v
        try:
            v = float(v)
        except OverflowError:  # an int beyond the float range
            v = math.inf
        # JSON has no NaN or Infinity, but Python's json module reads them.
        if not math.isfinite(v):
            raise ValueError(f"{path}: expected a finite float")
        return v
    if dataclasses.is_dataclass(tp):
        return from_json(tp, v, path)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        if not isinstance(v, (list, tuple)):
            raise ValueError(f"{path}: expected a list, got {_kind(v)}")
        fixed = args[-1] is not Ellipsis
        if fixed and len(v) != len(args):
            raise ValueError(f"{path}: expected {len(args)} items, got {len(v)}")
        items = args if fixed else [args[0]] * len(v)
        return tuple(_decode(t, x, f"{path}[{i}]") for i, (t, x) in enumerate(zip(items, v)))
    # A union: the first arm of v's JSON kind reads it, so an error inside a table names its item.
    for arm in args:
        if _accepts(arm, v):
            return _decode(arm, v, path)
    raise ValueError(f"{path}: expected {_describe(tp)}, got {_kind(v)}")


def _accepts(tp, v) -> bool:
    """Whether v has the JSON kind of tp; the items of a list are checked later."""
    if tp in _SCALARS:
        return isinstance(v, _SCALARS[tp]) and (tp is bool or not isinstance(v, bool))
    return isinstance(v, dict if dataclasses.is_dataclass(tp) else (list, tuple))


def _describe(tp) -> str:
    if tp in _SCALARS:
        return tp.__name__
    if dataclasses.is_dataclass(tp):
        return "an object"
    if typing.get_origin(tp) is tuple:
        return "a list"
    return " or ".join(_describe(a) for a in typing.get_args(tp) if a is not type(None))


def _kind(v) -> str:
    return "null" if v is None else type(v).__name__
