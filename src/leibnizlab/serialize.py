"""Deterministic JSON emission with 17-significant-digit floats.

The stock json encoder writes floats via repr (shortest round-trip form);
report files instead pin the representation to '%.17g' so output bytes are
identical across Python versions, and infinities (legal exponent values) are
emitted as the string "inf" to stay inside strict JSON.  -0.0 is written
"-0.0" (not the "-0" of '%.17g', which a JSON reader takes for the integer 0),
so it reads back as a float with its sign.

``dumps`` encodes any value, each part on its own; it is the reference.  Suite
report lines are formatted a block at a time from columns
(``block_lines``): one '%' template for all the rows of a block (its keys,
and the values every row shares, such as name and tolerance, as literal
text), filled from one ``tolist`` per column.  A column the numeric
placeholders cannot hold, a ragged list or a float column with a non-finite
value or a -0.0, fills one '%s' per row with that row's value as ``dumps``
writes it.
Every line is the bytes ``dumps`` gives for the row.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def format_float(x: float) -> str:
    if math.isfinite(x):
        return "%.17g" % x if x or math.copysign(1.0, x) > 0.0 else "-0.0"
    if math.isnan(x):
        return '"nan"'
    return '"inf"' if x > 0 else '"-inf"'


def _encode_str(s: str) -> str:
    out = s.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
    return f'"{out}"'


# Keyed by the key string; a bool or int key is looked up as str(key).
_encode_key = lru_cache(maxsize=1024)(_encode_str)


def dumps(obj) -> str:
    """``obj`` as one line of JSON, by the rules in the module docstring:
    each value encoded on its own, nested values recursively."""
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
        return dumps(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([dumps(v) for v in obj]) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join([f"{_encode_key(str(k))}: {dumps(v)}" for k, v in obj.items()]) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _flatten(obj: dict, parts: list, slots: list) -> None:
    """The JSON object of columns ``obj`` as '%'-template text ``parts``, and
    each per-row column as the (B, k) values of its k placeholders in ``slots``."""
    parts.append("{")
    for j, (key, col) in enumerate(obj.items()):
        parts.append((", " if j else "") + _encode_key(key).replace("%", "%%") + ": ")
        if isinstance(col, dict):
            _flatten(col, parts, slots)
            continue
        if not isinstance(col, (tuple, np.ndarray)):
            parts.append(dumps(col).replace("%", "%%"))
            continue
        if isinstance(col, tuple):
            values, lengths = col
            col = np.array(["[" + ", ".join(map(format_float, v[:m])) + "]"
                            for v, m in zip(values.tolist(), lengths.tolist())], dtype=object)
        elif col.dtype.kind == "f" and not (np.isfinite(col).all() and not np.signbit(col[col == 0.0]).any()):
            col = np.array([dumps(v) for v in col.tolist()], dtype=object)
        elif col.dtype.kind == "b":
            col = np.where(col, "true", "false")
        elif col.dtype.kind in "UO":
            col = np.array([_encode_key(v) if type(v) is str else dumps(v) for v in col.tolist()], dtype=object)
        if col.ndim == 2:
            parts.append("[" + ", ".join(["%.17g"] * col.shape[1]) + "]")
        else:
            parts.append("%.17g" if col.dtype.kind == "f" else "%d" if col.dtype.kind in "iu" else "%s")
            col = col.reshape(-1, 1)
        slots.append(col)
    parts.append("}")


def block_lines(columns: dict, rows: int) -> list[str]:
    """The JSON line of each of ``rows`` rows of report columns, by the rule
    in the module docstring.

    ``columns`` is a dict, keyed as the line.  A column is one JSON value
    for every row, or per row: an array (B,) of floats, ints, bools, or
    objects (strings, and exponents as ``core.exponent_tag`` writes them:
    "inf" or a finite float), a float array (B, k) of lists, or
    a pair (float array (B, M), lengths (B,)) whose row i is
    ``values[i, :lengths[i]]``; a dict of columns is a JSON object.
    """
    # the empty object column turns every value into a Python object, and
    # gives a block without a per-row column its rows
    parts, slots = [], [np.empty((rows, 0), dtype=object)]
    _flatten(columns, parts, slots)
    template = "".join(parts)
    return [template % tuple(row) for row in np.concatenate(slots, axis=1).tolist()]


def block_rows(columns: dict, count: int) -> list[tuple]:
    """The values of ``count`` rows of report columns (see ``block_lines``): a tuple per row, in key order."""
    parts = []
    for col in columns.values():
        kind = type(col)
        if kind is np.ndarray:
            parts.append(col.tolist())
        elif kind is dict:
            parts.append([dict(zip(col, row)) for row in block_rows(col, count)])
        elif kind is tuple:
            parts.append([v[:m] for v, m in zip(col[0].tolist(), col[1].tolist())])
        else:
            parts.append([col] * count)
    return list(zip(*parts)) if parts else [()] * count


def write_jsonl(path, records) -> None:
    """Write one line per record: a string as it is, anything else through ``dumps``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines((rec if type(rec) is str else dumps(rec)) + "\n" for rec in records)
