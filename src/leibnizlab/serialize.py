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
from one array or list per placeholder (the ``tolist`` of a column, of each
column of a (B, k) one), so every value reaches the line through CPython's '%':

* a float column whose values are all integral, below 2**53 in size and none
  -0.0 fills '%d' from int64, which writes the bytes of '%.17g';
* a float column that holds a non-finite value or a -0.0, (B,) or (B, k),
  and a plain column (B,) with at most half its values distinct (bit for
  bit), fill '%s', each distinct value through ``format_float`` once;
* any other float column fills a '%s%d' pair per value, a prefix string and
  an integer (below);
* a ragged column fills '%s' with each row's list, written through a
  template of one '%s%d' pair per entry, or, when a live cell of the column
  holds a non-finite value or a -0.0, through ``format_float`` row by row;
* a string or exponent column fills '%s', each distinct value encoded once;
  a bool column fills '%s' with true and false, an int column '%d'.

The pairs hold the digits of '%.17g', computed in int64 (``_digits``) for the
floats of all the blocks given to one ``lay_out`` call in one numpy pass.
For |x| in [1e-4, 2**31), '%.17g' writes x in fixed point: its 17 significant
digits D = round-half-even(|x| * 10**(16 - k)) for k = floor(log10 |x|), the
fraction's trailing zeros (and then the point) dropped.  The product is
exact as hi + lo (Dekker's two-product; 10**s is a float for s <= 22); k from
``np.log10`` is moved by one where hi + lo falls outside [10**16, 10**17).
There hi >= 2**53 is an even integer, so D = hi + rint(lo) rounds as '%.17g'
does, ties to even included.  The prefix holds the sign, the integer part,
the point and the zeros after it ("0.", "-0.000", "12.0"), from a table of the
prefixes present; the integer holds the other digits, and for an integral
value its last digit.  Other finite values (0.0, and magnitudes outside that
range, which '%.17g' may write with an exponent) are '%.17g' split before the
last digit.

Every line is the bytes ``dumps`` gives for the row.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

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

#: 10**s for s = 0..22, each exact in a float, with its Veltkamp halves (27 and 26 bits).
_POW10 = 10.0 ** np.arange(23)
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI

#: 10**s for s = 0..17, as int64.
_INT_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _scaled(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**s`` exactly, as a float hi and the float lo of its rounding
    error (Dekker's two-product, ``a`` split by Veltkamp's)."""
    b, b_hi, b_lo = _POW10.take(s), _POW10_HI.take(s), _POW10_LO.take(s)
    hi = a * b
    c = a * 134217729.0
    a_hi = c - (c - a)
    a_lo = a - a_hi
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _prefix(key: int) -> str:
    """The prefix text of a ``_digits`` key: sign, integer part, point and the zeros after it."""
    whole, zeros, integral, negative = key >> 7, key >> 2 & 31, key & 2, key & 1
    sign = "-" if negative else ""
    if integral:  # the last digit is the int
        return sign + str(whole // 10) if whole >= 10 else sign
    return sign + str(whole) + "." + "0" * zeros


#: Most floats ``_digits`` takes through numpy at once, so that the dozen
#: float-sized arrays it holds stay near 0.5 MB: a whole draw at once (20k-25k
#: floats) raised the peak RSS of ``verify --suite all --trials 8000`` by 2.6 MB.
DIGITS_SLICE = 4096


def _digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each float of ``values`` (1-D, finite, none -0.0) as a prefix string
    and an int64, ``'%s%d' % (prefix, int) == '%.17g' % value``: by the exact
    integer path of the module docstring where the magnitude is in
    [1e-4, 2**31) and not 0, else '%.17g' split before its last digit."""
    prefix, ints = np.empty(len(values), dtype=object), np.empty(len(values), dtype=np.int64)
    for i in range(0, len(values), DIGITS_SLICE):
        prefix[i:i + DIGITS_SLICE], ints[i:i + DIGITS_SLICE] = _slice_digits(values[i:i + DIGITS_SLICE])
    return prefix, ints


def _slice_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_digits`` of at most DIGITS_SLICE floats, at least one."""
    a = np.abs(values)
    slow = np.flatnonzero(~((a >= 1e-4) & (a < 2.0 ** 31)))
    a[slow] = 1.0
    # s = 16 - k for k = floor(log10 |x|), so that D = |x| * 10**s has 17 digits
    s = 16 - np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, s)
    # log10 may be off by one next to a power of ten: move s by one where hi + lo is outside [10**16, 10**17)
    low, high = (hi < 1e16) | (hi == 1e16) & (lo < 0), (hi > 1e17) | (hi == 1e17) & (lo >= 0)
    shift = low.view(np.int8) - high.view(np.int8)
    off = np.flatnonzero(shift)
    s[off] += shift[off]
    hi[off], lo[off] = _scaled(a[off], s[off])
    # hi >= 2**53 is an even integer, so rint(lo) rounds hi + lo half to even; below
    # 2**31 no float is within half a unit of the 17th digit under a power of ten,
    # so D never rounds up to 10**17
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # the digits before the point (none for |x| < 1) and the s after it
    scale = _INT_POW10.take(np.minimum(s, 17))
    whole = d // scale
    frac = d - whole * scale
    zeros = np.maximum(s - 17, 0)  # between the point and the first digit
    lead = np.flatnonzero((frac < scale // 10) & (frac > 0))
    zeros[lead] = s[lead] - np.searchsorted(_INT_POW10, frac[lead], side="right")
    # '%g' drops the fraction's trailing zeros (at most 16), and the point with them
    integral = frac == 0
    tenth = frac // 10
    tail = np.flatnonzero((tenth * 10 == frac) & ~integral)
    frac[tail] = tenth[tail]
    for power in _INT_POW10[[8, 4, 2, 1]].tolist():
        f = frac[tail]
        q = f // power
        cut = q * power == f
        frac[tail[cut]] = q[cut]
    ends = np.flatnonzero(integral)
    frac[ends] = whole[ends] % 10
    key = whole << 7 | zeros << 2 | integral.view(np.int8) << 1 | (values < 0).view(np.int8)
    keys = np.sort(key)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    prefix = np.array([_prefix(k) for k in keys.tolist()], dtype=object).take(np.searchsorted(keys, key))
    for i, x in zip(slow.tolist(), values[slow].tolist()):
        text = "%.17g" % x
        prefix[i], frac[i] = text[:-1], int(text[-1])
    return prefix, frac


def _floats(col: np.ndarray) -> tuple[str, np.ndarray]:
    """A float column's placeholder and the array whose values fill it; the
    column itself for '%s%d', whose cells come from ``_digits``."""
    if not col.size:
        return "%s%d", col
    magnitude = np.abs(col)
    top, low = np.maximum.reduce(magnitude, axis=None), np.minimum.reduce(magnitude, axis=None)
    plain = top < math.inf and not (low == 0.0 and np.signbit(col[col == 0.0]).any())
    # '%.17g' of an integral float below 2**53 is its '%d'
    if plain and top < 2.0 ** 53 and col.item(0).is_integer():
        ints = col.astype(np.int64)
        if not np.count_nonzero(ints != col):
            return "%d", ints
    if not plain or col.ndim == 1:
        bits = col.astype(np.float64, copy=False).view(np.int64)
        ordered = np.sort(bits, axis=None)  # -0.0 and 0.0, and each nan, apart
        new = ordered[1:] != ordered[:-1]
        if not plain or 2 * (np.count_nonzero(new) + 1) <= len(ordered):
            values = ordered[np.concatenate(([True], new))]
            text = np.array(list(map(format_float, values.view(np.float64).tolist())), dtype=object)
            return "%s", text[np.searchsorted(values, bits)]
    return "%s%d", col


def _objects(col: np.ndarray) -> list[str]:
    """Each value of a string or exponent column as ``dumps`` writes it; of
    strings and floats, each distinct value is encoded once."""
    values = col.tolist()
    if set(map(type, values)) <= {str, float}:
        table = {v: dumps(v) for v in set(values)}
        if 0.0 not in table:  # else -0.0 and 0.0 would share an entry
            return list(map(table.__getitem__, values))
    return list(map(dumps, values))


def _flatten(obj: dict, parts: list, cells: list, pending: list) -> None:
    """The JSON object of columns ``obj`` as '%'-template text ``parts``, and
    the values of each per-row placeholder (an array, or a list with one
    entry per row) in ``cells``.  A column whose cells come from ``_digits``
    leaves None in them, and in ``pending`` the function that fills them
    from the digits of its floats, and those floats."""
    parts.append("{")
    for j, (key, col) in enumerate(obj.items()):
        parts.append((", " if j else "") + _encode_key(key).replace("%", "%%") + ": ")
        if isinstance(col, dict):
            _flatten(col, parts, cells, pending)
            continue
        if isinstance(col, tuple):
            values, lengths = col
            live = values[np.arange(values.shape[1]) < lengths[:, None]]
            parts.append("%s")
            if np.isfinite(live).all() and not np.signbit(live[live == 0.0]).any():
                pending.append((partial(_fill_ragged, cells, len(cells), values.shape[1], lengths), live))
                cells.append(None)
            else:  # a non-finite value or a -0.0: row by row through format_float
                cells.append(["[" + ", ".join(map(format_float, row[:m])) + "]"
                              for row, m in zip(values.tolist(), lengths.tolist())])
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
        if slot == "%s%d":  # a prefix and an int per float
            pending.append((partial(_fill_floats, cells, len(cells), col.shape), col.ravel()))
            cells.extend([None] * (2 * col.shape[1] if col.ndim == 2 else 2))
        elif col.ndim == 2:
            cells.extend(col.T)
        else:
            cells.append(col)
        parts.append("[" + ", ".join([slot] * col.shape[1]) + "]" if col.ndim == 2 else slot)
    parts.append("}")


def _fill_floats(cells: list, at: int, shape: tuple, prefix: np.ndarray, ints: np.ndarray) -> None:
    """Put the prefix and int cells of a float column of ``shape`` in
    ``cells[at:]``, a pair per column of a (B, k) one, from the digits of its floats."""
    prefix, ints = prefix.reshape(shape), ints.reshape(shape)
    if len(shape) == 2:
        cells[at:at + 2 * shape[1]] = [c for pair in zip(prefix.T, ints.T) for c in pair]
    else:
        cells[at:at + 2] = prefix, ints


def _fill_ragged(cells: list, at: int, width: int, lengths: np.ndarray, prefix: np.ndarray, ints: np.ndarray) -> None:
    """Put the JSON list of the first ``lengths[i]`` floats of each row i (at
    most ``width``) in ``cells[at]``, from the digits of the rows' floats laid end to end."""
    flat = np.empty(2 * len(ints), dtype=object)
    flat[0::2], flat[1::2] = prefix, ints
    flat = flat.tolist()
    templates = ["[" + ", ".join(["%s%d"] * m) + "]" for m in range(width + 1)]
    ends = np.cumsum(2 * lengths).tolist()
    cells[at] = [templates[m] % tuple(flat[end - 2 * m:end]) for m, end in zip(lengths.tolist(), ends)]


def lay_out(blocks: list[dict]) -> list[tuple[str, list]]:
    """The '%' template of the lines of each block of report columns (see
    ``block_lines``) and the arrays or lists that fill it, the plain floats of
    every block formatted in one ``_digits`` call."""
    layouts, pending = [], []
    for columns in blocks:
        parts, cells = [], []
        _flatten(columns, parts, cells, pending)
        layouts.append(("".join(parts), cells))
    if pending:
        prefix, ints = _digits(np.concatenate([values for _, values in pending], dtype=np.float64))
        start = 0
        for fill, values in pending:
            end = start + len(values)
            fill(prefix[start:end], ints[start:end])
            start = end
    return layouts


def block_lines(columns: dict, rows: int, layout: tuple | None = None) -> list[str]:
    """The JSON line of each of ``rows`` rows of report columns, by the rule
    in the module docstring.

    ``columns`` is a dict, keyed as the line.  A column is one JSON value
    for every row, or per row: an array (B,) of floats, ints, bools, or
    objects (strings, and exponents as ``core.exponent_tag`` writes them:
    "inf" or a finite float), a float array (B, k) of lists, or
    a pair (float array (B, M), lengths (B,)) whose row i is
    ``values[i, :lengths[i]]``; a dict of columns is a JSON object.
    ``layout`` is the entry of ``lay_out`` for these columns, when their
    floats were formatted with other blocks'.
    """
    template, cells = layout or lay_out([columns])[0]
    if not cells:
        return [template % ()] * rows
    return [template % row for row in zip(*[c.tolist() if type(c) is np.ndarray else c for c in cells])]


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
