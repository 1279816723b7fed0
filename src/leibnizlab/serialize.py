"""Deterministic JSON emission with 17-significant-digit floats.

The stock json encoder writes floats via repr (shortest round-trip form);
report files instead pin the representation to '%.17g' so output bytes are
identical across Python versions, and infinities (legal exponent values) are
emitted as the string "inf" to stay inside strict JSON.

``dumps`` encodes any value, each part on its own; it is the reference.  Suite
report lines are formatted a block at a time from columns
(``block_lines``): one cached '%' template per shape of line (its keys, the
values every row shares, such as name and tolerance, as literal text, and
the length of each list), filled from one ``tolist`` per column.  The one
exception is a row holding a non-finite float: its line is ``dumps`` of its
report's ``to_dict()``.  Both give the bytes ``dumps`` gives.
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


def _finite(value) -> bool:
    """Whether a JSON value holds no non-finite float."""
    if isinstance(value, (list, tuple, dict)):
        return all(map(_finite, value.values() if isinstance(value, dict) else value))
    return not isinstance(value, float) or math.isfinite(value)


def _flatten(obj: dict, parts: list, slots: list, finite: np.ndarray) -> None:
    """The JSON object of columns ``obj`` as template ``parts`` ('%'-escaped
    text with scalar placeholders, and the ``slots`` index of each list),
    and each column as (values (B, k), width: 1, k or each row's length)
    in ``slots``.  Clears ``finite`` for rows holding a non-finite float."""
    parts.append("{")
    for j, (key, col) in enumerate(obj.items()):
        parts.append((", " if j else "") + _encode_key(key).replace("%", "%%") + ": ")
        if isinstance(col, dict):
            _flatten(col, parts, slots, finite)
            continue
        if not isinstance(col, (tuple, np.ndarray)):
            finite &= _finite(col)
            parts.append(dumps(col).replace("%", "%%"))
            continue
        values, width = col if isinstance(col, tuple) else (col, col.shape[1] if col.ndim == 2 else 1)
        kind = values.dtype.kind
        if kind == "f":
            bad = ~np.isfinite(values) if values.ndim == 2 else ~np.isfinite(values)[:, None]
            finite &= ~(bad & (np.arange(bad.shape[1]) < np.reshape(width, (-1, 1)))).any(axis=1)
        if values.ndim == 1:
            parts.append("%.17g" if kind == "f" else "%d" if kind in "iu" else "%s")
            if kind == "b":
                values = np.where(values, "true", "false")
            elif kind in "UO":
                values = np.array([_encode_key(v) if type(v) is str else dumps(v) for v in values.tolist()])
            values = values[:, None]
        else:
            parts.append(len(slots))
        slots.append((values, width))
    parts.append("}")


@lru_cache(maxsize=1024)
def _template(parts: tuple) -> str:
    """The text parts joined, each int part k widened to a list of k floats."""
    return "".join(p if type(p) is str else "[" + ", ".join(["%.17g"] * p) + "]" for p in parts)


def block_lines(columns: dict, rows: int, fallback) -> list[str]:
    """The JSON line of each of ``rows`` rows of report columns, by the rule
    in the module docstring; ``fallback(i)`` gives the line of a row holding
    a non-finite float.

    ``columns`` is a dict, keyed as the line.  A column is one JSON value
    for every row, or per row: an array (B,) of floats, ints, bools, or
    objects (strings, and exponents as ``core.exponent_tag`` writes them:
    "inf" or a finite float), a float array (B, k) of lists, or
    a pair (float array (B, M), lengths (B,)) whose row i is
    ``values[i, :lengths[i]]``; a dict of columns is a JSON object.
    """
    parts, slots, finite = [], [], np.ones(rows, dtype=bool)
    _flatten(columns, parts, slots, finite)
    lines = [None if ok else fallback(i) for i, ok in enumerate(finite.tolist())]
    live = np.flatnonzero(finite)
    ragged = [k for k, (_, width) in enumerate(slots) if type(width) is not int]
    keys, group = np.unique(np.stack([slots[k][1][live] for k in ragged] + [0 * live], axis=1),
                            axis=0, return_inverse=True)
    for g, key in enumerate(keys.tolist()):
        idx, widths = live[group.reshape(-1) == g], [width for _, width in slots]
        for k, m in zip(ragged, key):
            widths[k] = m
        template = _template(tuple(p if type(p) is str else widths[p] for p in parts))
        args, c = np.empty((idx.size, sum(widths)), dtype=object), 0
        for (values, _), w in zip(slots, widths):
            args[:, c:c + w] = values[idx, :w]
            c += w
        for i, row in zip(idx.tolist(), args.tolist()):
            lines[i] = template % tuple(row)
    return lines


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
