"""Config blocks read into dataclasses: `FromDict.from_dict` refuses, with a
ConfigError naming the value's path, a document that is not an object, an
unknown key, a missing field without a default, and a value that does not
fit its field's annotation.  `int` takes a JSON integer (not `true`, not
`2.0`), `float` a finite number, `complex` a number or [re, im], `tuple`
and `list` arrays, a dataclass an object, `X | None` an X (None stands
only for an absent key).  Numbers are kept as given; __post_init__ checks
ranges."""

from __future__ import annotations

import dataclasses
import json
import sys
import types
import typing

from .errors import ConfigError


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


_SCALARS = {int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
            float: (_finite, "a finite number"), complex: (_finite, "a number or [re, im]"),
            str: (lambda v: isinstance(v, str), "a string")}


def fit(hint, value, where: str):
    """value as a field annotated hint holds it; a ConfigError naming where
    if it does not fit."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        return read(hint, value, where)
    if origin in (typing.Union, types.UnionType):
        for alt in (a for a in args if a is not type(None)):
            try:
                return fit(alt, value, where)
            except ConfigError as exc:
                error = exc
        raise error
    if hint is complex and isinstance(value, list):
        return complex(*fit(tuple[float, float], value, where))
    if origin in (list, tuple):
        what = "an array" if origin is list else f"an array of {len(args)} values"
        if isinstance(value, list) and (origin is list or len(value) == len(args)):
            return origin(fit(args[0], v, f"{where}/{i}") for i, v in enumerate(value))
    else:
        fits, what = _SCALARS[hint]
        if fits(value):
            return value
    raise ConfigError(f"at {where}: expected {what}, got {json.dumps(value)}")


def read(cls, doc, where: str = "<root>"):
    """cls built from the JSON object doc found at path where."""
    if not isinstance(doc, dict):
        raise ConfigError(f"at {where}: expected an object, got {json.dumps(doc)}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    at = "" if where == "<root>" else where + "/"
    for key in doc:
        if key not in fields:
            raise ConfigError(f"at {at}{key}: unknown key")
    for name, f in fields.items():
        if name not in doc and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"at {at}{name}: missing required key")
    hints = typing.get_type_hints(cls)
    kwargs = {key: fit(hints[key], value, at + key) for key, value in doc.items()}
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"at {where}: {exc}") from None


class FromDict:
    @classmethod
    def from_dict(cls, doc):
        return read(cls, doc)
