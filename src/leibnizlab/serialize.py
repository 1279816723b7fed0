"""Deterministic JSON emission with 17-significant-digit floats.

The stock json encoder writes floats via repr (shortest round-trip form);
report files instead pin the representation to '%.17g' so output bytes are
identical across Python versions, and infinities (legal exponent values) are
emitted as the string "inf" to stay inside strict JSON.

``dumps`` encodes in one pass that dispatches on the exact type of each value.
Two fast paths give the same bytes as encoding every value on its own: a list
or tuple made only of Python floats whose sum is finite (so none is inf or
nan) is formatted through one cached '%.17g' template per length, and the
encoded text of each ``str`` dict key is memoized.  Every other value,
including subclasses of the built-in types and numpy scalars, falls back to
the per-value rules.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def format_float(x: float) -> str:
    if math.isfinite(x):
        return "%.17g" % x
    if math.isnan(x):
        return '"nan"'
    return '"inf"' if x > 0 else '"-inf"'


def _encode_str(s: str) -> str:
    out = s.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
    return f'"{out}"'


# Keyed by the key string itself: a bool or int key is encoded through
# str(key) and never looked up here (True and 1 hash equal).
_encode_key = lru_cache(maxsize=1024)(_encode_str)


@lru_cache(maxsize=64)
def _float_list_template(length: int) -> str:
    return "[" + ", ".join(["%.17g"] * length) + "]"


_FLOATS_ONLY = {float}


def _encode_sequence(seq) -> str:
    if {*map(type, seq)} == _FLOATS_ONLY and math.isfinite(sum(seq)):
        return _float_list_template(len(seq)) % tuple(seq)
    return "[" + ", ".join([_encode(v) for v in seq]) + "]"


def _encode_dict(obj: dict) -> str:
    items = [f"{_encode_key(k) if type(k) is str else _encode(str(k))}: {_encode(v)}"
             for k, v in obj.items()]
    return "{" + ", ".join(items) + "}"


def _encode_other(obj) -> str:
    """The per-value rules, for any type without an exact-type encoder."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return _encode_sequence(obj)
    if isinstance(obj, dict):
        return _encode_dict(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


_BY_TYPE = {
    type(None): lambda obj: "null",
    bool: lambda obj: "true" if obj else "false",
    int: str,
    float: format_float,
    str: _encode_str,
    list: _encode_sequence,
    tuple: _encode_sequence,
    dict: _encode_dict,
}


def _encode(obj) -> str:
    return _BY_TYPE.get(type(obj), _encode_other)(obj)


def dumps(obj) -> str:
    """``obj`` as one line of JSON, by the rules in the module docstring."""
    return _encode(obj)


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(dumps(rec))
            fh.write("\n")
