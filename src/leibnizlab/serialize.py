"""Deterministic JSON emission with 17-significant-digit floats.

The stock json encoder writes floats via repr (shortest round-trip form);
report files instead pin the representation to '%.17g' so output bytes are
identical across Python versions, and infinities (legal exponent values) are
emitted as the string "inf" to stay inside strict JSON.  -0.0 is written
"-0.0" (not the "-0" of '%.17g', which a JSON reader takes for the integer 0),
so it reads back as a float with its sign.

Strings escape '"', '\\' and every character below U+0020 as ``json.dumps``
does; other characters are written as they are.

``dumps`` encodes any value, each part on its own; it is the reference.  Suite
report lines are formatted a block at a time from columns (``block_lines``):
one '%' template for all the rows of a block (its keys, and the values every
row shares, such as name and tolerance, as literal text), filled row by row
from one list per placeholder (the ``tolist`` of a column, of each column of a
(B, k) one), so every value reaches the line through CPython's '%':

* a float column fills '%.17g'; one whose values are all integral, below
  2**53 in size and none -0.0, fills '%d' from int64, which writes the same
  bytes;
* a float column (B,) with at most half its values distinct (bit for bit)
  fills '%s', each distinct value through ``format_float`` once;
* any other float column with a non-finite value or a -0.0 fills '%s': its
  other entries through one '%.17g' call, those through ``format_float``;
* a ragged column fills '%s' with each row's list, the rows of one length
  through one template of that many '%.17g', a row whose live cells hold a
  non-finite value or a -0.0 through ``format_float``;
* a string or exponent column fills '%s', each distinct value encoded once;
  a bool column fills '%s' with true and false, an int column '%d'.

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


#: The escape of each character a JSON string cannot hold as it is, as ``json.dumps`` writes it.
_ESCAPES = {c: "\\u%04x" % c for c in range(0x20)} | {ord(c): "\\" + e for c, e in zip('\\"\b\f\n\r\t', '\\"bfnrt')}


def _encode_str(s: str) -> str:
    return '"' + s.translate(_ESCAPES) + '"'


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


#: A bool column's JSON words, indexed by the bool.
_BOOLS = np.array(["false", "true"], dtype=object)


def _special(values: np.ndarray) -> np.ndarray:
    """Where ``values`` holds a non-finite value or a -0.0: what '%.17g' does not write as ``dumps`` does."""
    return ~np.isfinite(values) | (values == 0.0) & np.signbit(values)


def _g17(values: list) -> list[str]:
    """Each float of ``values`` through '%.17g', in one '%' call."""
    return ("\n".join(["%.17g"] * len(values)) % tuple(values)).split("\n") if values else []


def _floats(col: np.ndarray) -> tuple[str, np.ndarray]:
    """A float column's placeholder and the array whose values fill it."""
    if not col.size:
        return "%.17g", col
    magnitude = np.abs(col)
    top, low = np.maximum.reduce(magnitude, axis=None), np.minimum.reduce(magnitude, axis=None)
    plain = top < math.inf and not (low == 0.0 and np.signbit(col[col == 0.0]).any())
    # '%.17g' of an integral float below 2**53 is its '%d'
    if plain and top < 2.0 ** 53 and col.item(0).is_integer():
        ints = col.astype(np.int64)
        if not np.count_nonzero(ints != col):
            return "%d", ints
    if col.ndim == 1 and col.dtype.itemsize == 8:
        bits = np.sort(col.view(np.int64))  # -0.0 and 0.0, and each nan, apart
        new = bits[1:] != bits[:-1]
        if 2 * (np.count_nonzero(new) + 1) <= len(bits):
            values = bits[np.concatenate(([True], new))]
            text = np.array(list(map(format_float, values.view(col.dtype).tolist())), dtype=object)
            return "%s", text[np.searchsorted(values, col.view(np.int64))]
    if plain:
        return "%.17g", col
    special = _special(col)
    out = np.empty(col.shape, dtype=object)
    out[~special] = _g17(col[~special].tolist())
    out[special] = list(map(format_float, col[special].tolist()))
    return "%s", out


def _ragged(values: np.ndarray, lengths: np.ndarray) -> list[str]:
    """The JSON list ``values[i, :lengths[i]]`` of each row i."""
    templates = ["[" + ", ".join(["%.17g"] * m) + "]" for m in range(values.shape[1] + 1)]
    out = [templates[m] % tuple(v[:m]) for v, m in zip(values.tolist(), lengths.tolist())]
    special = _special(values) & (np.arange(values.shape[1]) < lengths[:, None])
    for i in np.flatnonzero(special.any(axis=1)).tolist():
        out[i] = "[" + ", ".join(map(format_float, values[i, :lengths[i]].tolist())) + "]"
    return out


def _objects(col: np.ndarray) -> list[str]:
    """Each value of a string or exponent column as ``dumps`` writes it; of
    strings and floats, each distinct value is encoded once."""
    values = col.tolist()
    if set(map(type, values)) <= {str, float}:
        table = {v: dumps(v) for v in set(values)}
        if 0.0 not in table:  # else -0.0 and 0.0 would share an entry
            return list(map(table.__getitem__, values))
    return list(map(dumps, values))


def _flatten(obj: dict, parts: list, cells: list) -> None:
    """The JSON object of columns ``obj`` as '%'-template text ``parts``, and
    the values of each per-row placeholder as a list (one per row) in ``cells``."""
    parts.append("{")
    for j, (key, col) in enumerate(obj.items()):
        parts.append((", " if j else "") + _encode_key(key).replace("%", "%%") + ": ")
        if isinstance(col, dict):
            _flatten(col, parts, cells)
            continue
        if isinstance(col, tuple):
            parts.append("%s")
            cells.append(_ragged(*col))
            continue
        if not isinstance(col, np.ndarray):
            parts.append(dumps(col).replace("%", "%%"))
            continue
        kind = col.dtype.kind
        if kind == "f":
            slot, col = _floats(col)
        elif kind == "b":
            slot, col = "%s", _BOOLS[col.view(np.uint8)]
        elif kind in "iu":
            slot = "%d"
        else:
            parts.append("%s")
            cells.append(_objects(col))
            continue
        if col.ndim == 2:
            parts.append("[" + ", ".join([slot] * col.shape[1]) + "]")
            cells.extend(col.T.tolist())
        else:
            parts.append(slot)
            cells.append(col.tolist())
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
    parts, cells = [], []
    _flatten(columns, parts, cells)
    template = "".join(parts)
    if not cells:
        return [template % ()] * rows
    return [template % row for row in zip(*cells)]


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
    """Write each record and a newline: a string (one line or several) as it is, anything else through ``dumps``."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec if type(rec) is str else dumps(rec))
            fh.write("\n")
