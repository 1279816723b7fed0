"""One-pass ``dumps`` against the per-value recursive encoder it replaced."""

import math
import random

import numpy as np
import pytest

from leibnizlab.serialize import dumps, format_float


def _reference_dumps(obj) -> str:
    """Every value encoded on its own, recursively (the encoder before the fast paths)."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
        return f'"{out}"'
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
    {'k"ey': "v\\al", "line\nkey": ["t\tab"]},
    10 ** 30, -(10 ** 30), True, False, None,
]


@pytest.mark.parametrize("obj", CASES, ids=range(len(CASES)))
def test_dumps_matches_reference(obj):
    assert dumps(obj) == _reference_dumps(obj)


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
