"""Block seeding: ``kernels.streams`` against ``default_rng``, and its fallback."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import leibnizlab.kernels as kernels
from leibnizlab.search import SearchConfig, search

SEEDS = (0, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3)


@pytest.mark.parametrize("seed", SEEDS)
def test_streams_match_default_rng(seed):
    # the suites' (seed, stream, t) for streams 0-8, and the search's (seed, t)
    for prefix in [(seed, stream) for stream in range(9)] + [(seed,)]:
        got = [rng.bit_generator.state for rng in kernels.streams(prefix, 0, 3000)]
        assert got == [np.random.default_rng((*prefix, t)).bit_generator.state for t in range(3000)]


@pytest.mark.parametrize("seed", SEEDS)
def test_streams_cross_the_32_bit_boundary_of_t(seed):
    # t = 2^32 - 1 is the last one-word trial index; the block ends there
    for prefix in ((seed, 8), (seed,)):
        ts = range(2 ** 32 - 3, 2 ** 32 + 2)
        rngs = kernels.streams(prefix, ts.start, ts.stop)
        for t, rng in zip(ts, rngs):
            ref = np.random.default_rng((*prefix, t))
            assert rng.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(rng.random(4), ref.random(4))
            assert rng.integers(0, 10, 3).tolist() == ref.integers(0, 10, 3).tolist()


def test_streams_refuse_negative_entropy():
    for prefix, start in (((-1, 0), 0), ((3,), -2)):
        with pytest.raises(ValueError):
            next(kernels.streams(prefix, start, start + 1))


def test_seeding_is_checked_on_first_use_not_at_import():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import leibnizlab, leibnizlab.kernels as k; "
            "a = k._seeding_matches.cache_info().currsize; next(k.streams((1,), 0, 1)); "
            "print(a, k._seeding_matches.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]


def test_fallback_builds_each_stream_with_default_rng(monkeypatch):
    cfg = SearchConfig(target="chain_rule", n=4, p_grid=(1.0, 3.0, math.inf), trials=1100,
                       refine_steps=2, seed=21)
    seeded = search(cfg)
    assert len({id(rng) for rng in list(kernels.streams((5, 1), 0, 3))}) == 1
    monkeypatch.setattr(kernels, "_seeding_matches", lambda: False)
    assert len({id(rng) for rng in list(kernels.streams((5, 1), 0, 3))}) == 3
    fallback = search(cfg)
    assert (fallback.witness, fallback.per_p, fallback.history) == (
        seeded.witness, seeded.per_p, seeded.history)
