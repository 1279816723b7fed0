"""``dumps`` and ``format_float`` against a per-value recursive reference
encoder kept in this file, and the block writer ``block_lines`` against
``dumps`` of each report."""

import json
import math
import random

import numpy as np
import pytest

from leibnizlab.core import exponent_tag
from leibnizlab.cli import main
from leibnizlab.reports import ReportBlock
from leibnizlab import serialize
from leibnizlab.serialize import block_lines, block_rows, dumps, format_float


def _reference_dumps(obj) -> str:
    """Every value encoded on its own, recursively: the rules ``dumps`` must keep."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        return _reference_dumps(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_reference_dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{_reference_dumps(str(k))}: {_reference_dumps(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


CASES = [
    math.inf, -math.inf, math.nan,
    [1.0, math.inf], [-math.inf, 2.5, 3.0], [math.nan], [0.5, math.nan, math.inf, -math.inf],
    (math.inf, 1.0),
    -0.0, [-0.0, 0.0], 5e-324, [5e-324, -5e-324],
    [1e308] * 3, (1e308, 1e308), [1e308, -1e308, 1e308],
    [], (), [0.1, 0.2, 0.30000000000000004], tuple(0.1 * k for k in range(40)),
    np.float64(0.1), np.float64(math.inf), np.float32(0.1), np.int64(-7), np.int32(3),
    [np.float64(0.25), 0.25, np.int64(2), 2, True],
    np.array([0.5, -1.5, 2.0]), np.array([[1, 2], [3, 4]]), np.array([math.inf, 1.0]),
    (1, 2.0, "three", None, False),
    {"a": {"b": {"c": [1.0, 2.0]}, "d": None}, "e": [{"f": 1}, {"g": [0.5]}]},
    {True: "bool key", 1.5: "float key", None: "none key"},
    "plain", 'quote " inside', "back\\slash", "new\nline", "tab\there", "cr\rhere",
    "bell\x07", "back\x08space", "feed\x0c", "unit\x1fsep", "\x00", "del\x7f", "non-ascii \u00e9\u2028",
    {'k"ey': "v\\al", "line\nkey": ["t\tab"]},
    10 ** 30, -(10 ** 30), True, False, None,
]


@pytest.mark.parametrize("obj", CASES, ids=range(len(CASES)))
def test_dumps_matches_reference(obj):
    assert dumps(obj) == _reference_dumps(obj)


@pytest.mark.parametrize("code", range(0x20))
def test_control_characters_are_escaped_as_json_dumps_does(code):
    text = f"a{chr(code)}b"
    assert dumps(text) == json.dumps(text, ensure_ascii=False)
    assert dumps({text: [text]}) == json.dumps({text: [text]}, ensure_ascii=False)
    assert json.loads(dumps({text: text})) == {text: text}


def test_manifest_of_an_out_directory_with_a_control_character_parses(tmp_path, capsys):
    out = tmp_path / "o\x1fd"
    assert main(["verify", "--suite", "decomposition", "--trials", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["outputs"] == [str(out / "suite_decomposition.jsonl")]


def test_bool_and_int_keys_in_the_same_run():
    # True == 1 and they hash equal, but encode as "True" and "1"
    for obj in ({True: 1, "x": 2}, {1: 1, "x": 2}, {"True": 0}, {True: 0}, {1: 0}, {"1": 0}):
        assert dumps(obj) == _reference_dumps(obj)
    assert dumps({True: 0}) == '{"True": 0}'
    assert dumps({1: 0}) == '{"1": 0}'


@pytest.mark.parametrize("obj", [np.bool_(True), {"a": object()}, [1.0, {1, 2}]],
                         ids=["numpy-bool", "object", "set"])
def test_unsupported_values_raise_like_reference(obj):
    with pytest.raises(TypeError) as expected:
        _reference_dumps(obj)
    with pytest.raises(TypeError) as got:
        dumps(obj)
    assert str(got.value) == str(expected.value)


def test_random_float_lists_match_reference():
    rng = random.Random(20)
    special = (math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308)
    for _ in range(3000):
        values = []
        for _ in range(rng.randint(0, 9)):
            k = rng.random()
            if k < 0.05:
                values.append(rng.choice(special))
            elif k < 0.5:
                values.append(rng.uniform(-1.0, 1.0))
            else:
                values.append(rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 307))
        assert dumps(values) == _reference_dumps(values)
        record = {"lhs": values[0] if values else 0.0, "instance": {"x": values}, "seed": 3}
        assert dumps(record) == _reference_dumps(record)


def test_block_lines_match_dumps_of_each_report():
    # one row per special float in lhs; the other columns put more of them in other rows
    lhs = np.array([math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308, 2.0, 0.1])
    rows = len(lhs)
    x = np.tile([0.5, -0.0, 3.0], (rows, 1))
    x[6, 1] = math.inf  # row 6 holds inf in x
    ragged = np.full((rows, 4), math.inf)  # the padding past each length is not written
    ragged[:, :2] = [[1.0, -2.5]] * rows
    ragged[7, 0] = math.nan  # row 7 holds nan in a list entry
    instance = {
        "n": 3, "x": x, "tag": np.array([exponent_tag(math.inf if i % 2 else 1.5) for i in range(rows)], dtype=object),
        "norm": np.array(["l1", 'q"uote', "k%3", "linf"] * 2), "flag": lhs > 0,
        "nested": {"ragged": (ragged, np.arange(rows) % 3), "scale": np.arange(rows) * 0.25},
        "points": [1e308, 5e-324, -0.0], "expected_failure": True,
    }
    block = ReportBlock("edge%d", lhs, 0.0, 0.0 - lhs, np.zeros(rows, dtype=bool), 1e-9, instance,
                        seed=np.arange(rows) + 2 ** 53 + 1)
    reports = block.reports()
    lines = block_lines(block.columns, rows)
    assert lines == [dumps(r.to_dict()) for r in reports] == block.lines()
    assert reports[3].seed == 2 ** 53 + 4 and '"seed": 9007199254740996' in lines[3]
    assert reports[3].instance["nested"]["ragged"] == []
    assert reports[4].instance["nested"]["ragged"] == [1.0]


@pytest.mark.parametrize("tolerance, shared", [(math.inf, [1.0]), (1e-9, [0.5, math.nan]), (1e-9, {"k": -math.inf})])
def test_block_lines_fall_back_on_a_non_finite_shared_value(tolerance, shared):
    lhs = np.array([0.25, -0.0, 7.0])
    block = ReportBlock("shared", lhs, 0.0, 0.0 - lhs, lhs < 1, tolerance, {"v": shared, "x": lhs[:, None]})
    lines = block_lines(block.columns, 3)
    assert lines == [dumps(r.to_dict()) for r in block.reports()]


EDGE_BLOCKS = {
    "no-rows": ({"lhs": np.zeros(0), "x": np.zeros((0, 2)), "i": {"r": (np.zeros((0, 3)), np.zeros(0, dtype=int))}}, 0),
    "no-per-row-column": ({"name": "k%d", "v": [math.inf, 1.0], "o": {"t": True, "s": None}}, 3),
    "nested-non-finite": ({"lhs": np.array([0.5, 2.0, 3.0]), "i": {"scale": np.array([0.25, -math.inf, math.nan])}}, 3),
    # every live cell finite, the padding past each length not: the padding is never read
    "ragged-finite": ({"r": (np.array([[-0.0, 5e-324, math.inf], [1e308, 0.1, math.nan], [math.inf] * 3]),
                             np.array([2, 1, 0]))}, 3),
    "ragged-non-finite": ({"r": (np.array([[1.5, -math.inf], [math.nan, 0.25], [math.inf, 2.0]]),
                                 np.array([2, 1, 2]))}, 3),
}


@pytest.mark.parametrize("columns, rows", EDGE_BLOCKS.values(), ids=EDGE_BLOCKS)
def test_block_lines_of_edge_blocks_match_dumps(columns, rows):
    lines = block_lines(columns, rows)
    assert lines == [dumps(dict(zip(columns, row))) for row in block_rows(columns, rows)]
    assert len(lines) == rows


#: Integral floats at the edge of the '%d' rule: below 2**53 '%d' and '%.17g'
#: write the same digits; 1e17 is '1e+17' under '%.17g'.
INTEGRAL_EDGES = (2.0 ** 53 - 1, -(2.0 ** 53 - 1), 1e16, -1e16, 1e17, -1e17, 0.0, 1.0, -3.0)
SPECIALS = (-0.0, math.inf, -math.inf, math.nan)


def _fuzz_floats(rng, shape):
    """Plain or integral floats, with edge values and sometimes -0.0, inf or nan."""
    if rng.random() < 0.5:
        values = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-300, 300, shape)
    else:
        values = rng.integers(-9, 10, shape).astype(float)
        edges = rng.random(shape) < 0.3
        values[edges] = rng.choice(INTEGRAL_EDGES, shape)[edges]
    if rng.random() < 0.4:
        special = rng.random(shape) < 0.2
        values[special] = rng.choice(SPECIALS, shape)[special]
    return values


def _fuzz_ragged(rng, rows):
    """(values, lengths) with length-0 rows, and -0.0, inf or nan in live cells or in the padding."""
    width = int(rng.integers(0, 6))
    values = _fuzz_floats(rng, (rows, width))
    lengths = rng.integers(0, width + 1, rows)
    padding = np.arange(width) >= lengths[:, None]
    values[padding] = rng.choice(SPECIALS + (0.5,), (rows, width))[padding]
    return values, lengths


def _fuzz_column(rng, rows):
    kind = rng.integers(0, 9)
    if kind == 0:
        return _fuzz_ragged(rng, rows)
    if kind == 1:  # exponents as core.exponent_tag writes them, or objects that compare equal and encode apart
        if rng.random() < 0.8:
            return np.array([exponent_tag(p) for p in rng.choice([1.0, 1.25, 2.0, 3.0, math.inf], rows)], dtype=object)
        pool = [0.0, -0.0, math.nan, "inf"] if rng.random() < 0.5 else [True, 1, 1.0, 10 ** 17, 1e17, "1"]
        return np.array([pool[i] for i in rng.integers(0, len(pool), rows)] + [None], dtype=object)[:rows]
    if kind == 2:
        return rng.choice(["l1", "k3", 'q"%s', "x%d\n", "%%", "é\x1f"], rows)
    if kind == 3:
        return rng.random(rows) < 0.5
    if kind == 4:
        return rng.integers(-2 ** 62, 2 ** 62, rows)
    if kind == 5:  # shared by every row
        return [0.5, -0.0, math.inf] if rng.random() < 0.5 else "tag%d"
    if kind == 6:
        return {f"in%{j}": _fuzz_column(rng, rows) for j in range(int(rng.integers(0, 3)))}
    return _fuzz_floats(rng, (rows,) if kind == 7 else (rows, int(rng.integers(0, 5))))


def test_block_lines_fuzz_matches_dumps_of_each_report():
    rng = np.random.default_rng(27)
    for _ in range(400):
        rows = int(rng.integers(0, 9))
        lhs, rhs = _fuzz_floats(rng, rows), _fuzz_floats(rng, rows)
        instance = {f"k{j}" + "%" * int(rng.integers(0, 3)) + "s": _fuzz_column(rng, rows)
                    for j in range(int(rng.integers(0, 6)))}
        seed = None if rng.random() < 0.3 else rng.integers(0, 2 ** 62, rows)
        with np.errstate(invalid="ignore"):  # inf - inf
            block = ReportBlock.from_values("fuzz%d", lhs, rhs, 1e-9, instance, seed=seed)
        assert block_lines(block.columns, rows) == [dumps(r.to_dict()) for r in block.reports()]


def _assert_digits_match(values):
    """``_digits`` of ``values`` against '%.17g' of each, and of its negation."""
    for x in (np.asarray(values, dtype=float), -np.asarray(values, dtype=float)):
        prefix, ints = serialize._digits(x)
        got = ["%s%d" % pair for pair in zip(prefix.tolist(), ints.tolist())]
        assert got == ["%.17g" % v for v in x.tolist()]


def test_digits_match_g17_on_random_bit_patterns():
    rng = np.random.default_rng(32)
    anywhere = rng.integers(0, 2 ** 64, 60_000, dtype=np.uint64).view(np.float64)
    # the same with the exponent drawn from the integer path's range, [1e-4, 2**31) and a little past it
    near = (rng.integers(0, 2 ** 52, 60_000, dtype=np.uint64) | rng.integers(1009, 1056, 60_000, dtype=np.uint64) << 52)
    values = np.concatenate([anywhere, near.view(np.float64)])
    values = values[np.isfinite(values) & ~((values == 0.0) & np.signbit(values))]
    assert len(values) > 100_000 and np.count_nonzero((np.abs(values) >= 1e-4) & (np.abs(values) < 2.0 ** 31)) > 50_000
    _assert_digits_match(values)


def _ulps(x: float, count: int) -> list[float]:
    """x and the ``count`` floats on each side of it."""
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(count):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def _dyadics(rng, digits: int) -> list[float]:
    """Odd multiples of 2**-j in [1e-4, 2**31) with exactly ``digits``
    significant digits, the last a 5: at 18 digits '%.17g' rounds a tie."""
    out = []
    for j in range(1, 64):
        for e in range(-14, 31):  # n / 2**j in [2**e, 2**(e + 1))
            for n in rng.integers(2 ** (e + j), 2 ** (e + j + 1), 4).tolist() if 0 < e + j <= 52 else ():
                if len(str((n | 1) * 5 ** j)) == digits and 1e-4 <= (n | 1) / 2 ** j < 2 ** 31:
                    out.append((n | 1) / 2 ** j)
    return out


def test_digits_match_g17_at_the_edges():
    rng = np.random.default_rng(33)
    edges = [v for x in (1e-4, 1.0, 2.0 ** 31) for v in _ulps(x, 3)]
    edges += [v for j in range(-5, 18) for v in _ulps(10.0 ** j, 3)]
    ties, past = _dyadics(rng, 18), _dyadics(rng, 19)  # a tie at the 17th digit; an 18th digit 5 and more after it
    assert len(ties) > 100 and len(past) > 100
    integral = [0.0, 1.0, 9.0, 10.0, 120.0, 1e9, 2.0 ** 31 - 1, 2.0 ** 31, 2.0 ** 53, 1e17, 1e22]
    integral += rng.integers(1, 2 ** 31, 2000).astype(float).tolist()
    subnormal = [5e-324, 2.2250738585072009e-308, 1e-310] + (rng.random(100) * 2.2250738585072014e-308).tolist()
    _assert_digits_match(edges + ties + past + integral + subnormal)


def test_digits_of_no_values():
    prefix, ints = serialize._digits(np.zeros(0))
    assert prefix.shape == ints.shape == (0,)


#: Magnitudes either side of the integer path's bounds, and the values it treats apart.
MIXED = (1e-4, math.nextafter(1e-4, 0.0), 2.0 ** 31, math.nextafter(2.0 ** 31, 0.0), 0.1, 0.5, 12.0, 120.0,
         1e-5, 3e9, 0.0, 5e-324, -0.0, math.inf, -math.inf, math.nan)


def test_block_lines_of_mixed_magnitudes_match_dumps():
    rng = np.random.default_rng(34)
    for _ in range(60):
        rows = int(rng.integers(1, 7))

        def floats(shape):
            values = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-6, 11, shape)
            picked = rng.random(shape) < 0.4
            values[picked] = rng.choice(MIXED, shape)[picked]
            return values * np.where(rng.random(shape) < 0.5, -1.0, 1.0)

        width = int(rng.integers(0, 5))
        columns = {"lhs": floats(rows), "x": floats((rows, int(rng.integers(0, 4)))),
                   "r": (floats((rows, width)), rng.integers(0, width + 1, rows)), "tolerance": 1e-9}
        assert block_lines(columns, rows) == [dumps(dict(zip(columns, row))) for row in block_rows(columns, rows)]


def test_a_float_column_with_a_non_finite_value_or_a_negative_zero_takes_the_text_path(monkeypatch):
    # (B,) and (B, k) alike: one '%s' per value, each distinct value through format_float once
    rows = 40
    lhs = np.tile([0.1, 2.5, 1e-300, math.nan], rows // 4)
    x = np.tile([[0.25, -0.0, math.inf], [3.0, 0.5, 0.75]], (rows // 2, 1))
    columns = {"lhs": lhs, "x": x, "plain": np.arange(rows) * 0.1 + 0.01}
    seen = []
    monkeypatch.setattr(serialize, "format_float", lambda v: seen.append(v) or format_float(v))
    template, _ = serialize.lay_out([columns])[0]
    monkeypatch.undo()
    assert template == '{"lhs": %s, "x": [%s, %s, %s], "plain": %s%d}'
    assert sorted(map(repr, seen)) == sorted(map(repr, [0.1, 2.5, 1e-300, math.nan, 0.25, -0.0, math.inf,
                                                        3.0, 0.5, 0.75]))
    assert block_lines(columns, rows) == [dumps(dict(zip(columns, row))) for row in block_rows(columns, rows)]


def test_a_ragged_column_with_a_live_non_finite_value_is_written_row_by_row(monkeypatch):
    values = np.array([[1.5, 0.25, math.inf], [-0.0, 2.0, 0.5], [0.1, 0.2, 0.3]])
    live, padded = (values, np.array([2, 3, 1])), (values, np.array([2, 0, 3]))
    calls = []
    digits = serialize._digits
    monkeypatch.setattr(serialize, "_digits", lambda v: calls.append(v.tolist()) or digits(v))
    # the -0.0 in row 1 is live: no digits are taken for the column
    assert block_lines({"r": live}, 3) == ['{"r": [1.5, 0.25]}', '{"r": [-0.0, 2, 0.5]}', '{"r": [0.10000000000000001]}']
    assert calls == []
    # the inf and the -0.0 are padding: the live cells take the digit path
    assert block_lines({"r": padded}, 3) == [dumps({"r": row[:m]}) for row, m in zip(values.tolist(), [2, 0, 3])]
    assert calls == [[1.5, 0.25, 0.1, 0.2, 0.3]]
