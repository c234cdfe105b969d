"""The one rule every suite config and rover map document goes through: merge
the document over its defaults and check every field against them."""
from __future__ import annotations

import copy
import math


class ConfigError(ValueError):
    """Configuration could not be read or validated; the message names the
    field or line at fault."""


def merge(defaults: dict, raw, where: str = "", required=()) -> dict:
    """`raw` deep-merged over `defaults`, checked field by field.

    Each default fixes its field's type: an int also passes as a float, a
    list's first element types every element (an empty list leaves them
    unchecked), ints must be non-negative and floats finite. A key of
    `defaults` that `raw` leaves out takes its default, except the keys in
    `required`, which must be given with every field their default holds.
    Unknown keys and wrong types raise a ConfigError naming the dotted field.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{where or 'config'}: expected an object, got {raw!r}")
    prefix = f"{where}." if where else ""
    for key in raw:
        if key not in defaults:
            raise ConfigError(f"{prefix}{key}: unknown field; expected one of {sorted(defaults)}")
    out = {}
    for key, default in defaults.items():
        if key in raw:
            out[key] = _check(default, raw[key], prefix + key, key in required)
        elif key in required:
            raise ConfigError(f"{prefix}{key}: missing required field")
        else:
            out[key] = copy.deepcopy(default)
    return out


def _check(default, value, name: str, whole: bool = False):
    if isinstance(default, dict):
        return merge(default, value, name, tuple(default) if whole else ())
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{name}: expected a list, got {value!r}")
        if not default:
            return copy.deepcopy(value)
        return [_check(default[0], v, f"{name}[{i}]") for i, v in enumerate(value)]
    kind = type(default)
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind:
        raise ConfigError(f"{name}: expected {kind.__name__}, got {value!r}")
    if (kind is int and value < 0) or (kind is float and not math.isfinite(value)):
        raise ConfigError(f"{name}: out of range: {value!r}")
    return value


def checked(where: str, make, fields: dict, renamed: dict | None = None, **fixed):
    """make(**fields, **fixed), whose ValueErrors name the parameter first.
    Such an error becomes a ConfigError on renamed[parameter] when the
    parameter comes from a field of another name, on `where`.<parameter> for
    a parameter of `fields`, and on `where` otherwise."""
    try:
        return make(**fields, **fixed)
    except ValueError as exc:
        param = str(exc).split()[0]
        name = (renamed or {}).get(param) or (f"{where}.{param}" if param in fields else where)
        raise ConfigError(f"{name}: {exc}") from exc
