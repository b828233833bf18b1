"""Stream-stability tests for the counter-based generator.

The reference implementation below uses only Python big-int arithmetic, so
agreement with the numpy path rules out any uint64 wrap-around mistakes.
The frozen vectors pin the stream for all time: if they ever change, every
seeded result in the package changes.
"""

import math

import numpy as np
import pytest

from conftest import counter_poisson, reference_poisson
from gmmle.rng import (
    DERIVE_GAMMA, GAMMA, MASK64, CounterRng, _mix64_array, mix64, poisson_cdf,
    poisson_invert,
)

M1 = 0xBF58476D1FD49E4E
M2 = 0x94D049BB133111EB


def _mix64_reference(z):
    z &= MASK64
    z = ((z ^ (z >> 30)) * M1) & MASK64
    z = ((z ^ (z >> 27)) * M2) & MASK64
    return z ^ (z >> 31)


def _stream_reference(seed, n):
    key = _mix64_reference(seed)
    return [_mix64_reference((key + (i + 1) * GAMMA) & MASK64) for i in range(n)]


# First three outputs for seed 0, computed with _stream_reference and frozen.
FROZEN_SEED0 = [
    9216622159448117266,
    4443222484206243043,
    10102218113812532818,
]


def test_mix64_matches_reference():
    for z in [0, 1, 2**63, MASK64, 0x123456789ABCDEF0]:
        assert mix64(z) == _mix64_reference(z)


def test_mix64_array_matches_reference_and_keeps_its_input():
    values = [0, 1, 2**63, MASK64, 0x123456789ABCDEF0]
    z = np.array(values, dtype=np.uint64)
    assert _mix64_array(z).tolist() == [_mix64_reference(v) for v in values]
    assert z.tolist() == values


@pytest.mark.parametrize("bound", [7, 2**40])
def test_integers_are_the_stream_modulo_bound(bound):
    got = CounterRng(3).integers(bound, 50)
    assert got.dtype == np.int64
    assert got.tolist() == [v % bound for v in _stream_reference(3, 50)]


@pytest.mark.parametrize("bound", [1, 2, 2500, 2**32 - 1, 2**32 + 1, 2**63 + 1])
def test_integers_equal_the_uint64_remainder(bound):
    got = CounterRng(9).integers(bound, 1000)
    want = CounterRng(9).uint64(1000) % np.uint64(bound)
    assert np.array_equal(got.view(np.uint64), want)


def test_frozen_vector_seed0():
    assert _stream_reference(0, 3) == FROZEN_SEED0
    assert CounterRng(0).uint64(3).tolist() == FROZEN_SEED0


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, MASK64])
def test_numpy_stream_matches_reference(seed):
    got = CounterRng(seed).uint64(17).tolist()
    assert got == _stream_reference(seed, 17)


def test_counter_continuation():
    rng = CounterRng(7)
    a = rng.uint64(5).tolist()
    b = rng.uint64(5).tolist()
    assert a + b == CounterRng(7).uint64(10).tolist()


def test_derive_is_keyed_not_counted():
    root = CounterRng(3)
    child = root.derive(4)
    expected_key = _mix64_reference((_mix64_reference(3) + 5 * DERIVE_GAMMA) & MASK64)
    assert child.key == expected_key
    assert root.counter == 0
    assert child.uint64(4).tolist() != root.uint64(4).tolist()


def test_random_unit_interval():
    vals = CounterRng(11).random(4096)
    assert vals.min() >= 0.0 and vals.max() < 1.0
    # crude uniformity check, far looser than 4-sigma
    assert abs(vals.mean() - 0.5) < 0.05


def test_integers_in_range_and_deterministic():
    rng = CounterRng(5)
    vals = rng.integers(7, 1000)
    assert vals.min() >= 0 and vals.max() < 7
    assert np.array_equal(vals, CounterRng(5).integers(7, 1000))


def test_permutation_is_a_permutation():
    perm = CounterRng(9).permutation(100)
    assert sorted(perm.tolist()) == list(range(100))


def test_normal_moments():
    vals = CounterRng(13).normal(20000)
    assert abs(vals.mean()) < 0.05
    assert abs(vals.std() - 1.0) < 0.05


def test_poisson_mean_and_determinism():
    rng = CounterRng(17)
    counts = counter_poisson(rng, 3.0, 10000)
    assert abs(counts.mean() - 3.0) < 0.1
    assert np.array_equal(counts, counter_poisson(CounterRng(17), 3.0, 10000))
    assert counter_poisson(CounterRng(1), 0.0, 8).tolist() == [0] * 8


def test_poisson_matches_scalar_reference():
    # scalar inversion oracle sharing only the uniform stream
    lam = 2.5
    rng = CounterRng(23)
    got = counter_poisson(rng, lam, 200)
    u = CounterRng(23).random(200)
    expected = []
    for ui in u:
        k, p = 0, math.exp(-lam)
        cum = p
        while ui > cum:
            k += 1
            p *= lam / k
            cum += p
        expected.append(k)
    assert got.tolist() == expected


def test_poisson_rejects_huge_rate():
    with pytest.raises(ValueError):
        counter_poisson(CounterRng(0), 1e4, 3)


@pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf, 700.5])
def test_poisson_rejects_bad_rate_before_drawing(lam):
    rng = CounterRng(0)
    with pytest.raises(ValueError, match="Poisson rate"):
        counter_poisson(rng, lam, 3)
    assert rng.counter == 0


@pytest.mark.parametrize("lam", [0.0, 1e-9, 0.013, 0.5, 2.5, 5.0, 37.0, 699.9, 700.0])
def test_poisson_matches_inversion_loop(lam):
    got = counter_poisson(CounterRng(29), lam, 5000)
    assert got.tolist() == reference_poisson(CounterRng(29).random(5000), lam).tolist()


@pytest.mark.parametrize("lam", [0.0, 1e-9, 0.5, 5.0, 699.9])
def test_poisson_table_matches_loop_at_the_edges(lam):
    # uniforms on and next to every table entry, plus both ends of [0, 1):
    # the loop's `u > cum` must agree with searchsorted's side="left" there
    table = poisson_cdf(lam)
    assert table.size == int(lam + 40.0 * math.sqrt(lam) + 60.0)
    assert (np.diff(table) >= 0).all()
    near = np.concatenate([table, np.nextafter(table, 0.0), np.nextafter(table, 2.0)])
    u = np.concatenate([[0.0, 1.0 - 2.0**-53], near[near < 1.0]])
    assert poisson_invert(table, u).tolist() == reference_poisson(u, lam).tolist()


def test_poisson_cap_reached_when_cum_stalls():
    # at lam = 699.9 the table tops out below the largest uniform 1 - 2**-53,
    # so that uniform inverts to cap in both the loop and the table
    table = poisson_cdf(699.9)
    u = np.array([1.0 - 2.0**-53])
    assert table[-1] < u[0]
    assert reference_poisson(u, 699.9).tolist() == [table.size]
    assert poisson_invert(table, u).tolist() == [table.size]


@pytest.mark.parametrize(
    "first,count,size", [(0, 1, 1), (0, 5, 17), (3, 4, 0), (7, 0, 5), (1000, 3, 64)]
)
def test_derive_random_rows_are_derived_streams(first, count, size):
    root = CounterRng(41)
    root.uint64(9)  # the root's own counter plays no part in its children
    block = root.derive_random(first, count, size)
    assert block.shape == (count, size) and block.dtype == np.float64
    for r in range(count):
        assert block[r].tolist() == root.derive(first + r).random(size).tolist()
    assert root.counter == 9


def test_derive_random_wraps_like_the_reference():
    # keys near 2**64 exercise the uint64 wrap of key + id * DERIVE_GAMMA
    root = CounterRng(0, _key=MASK64 - 5)
    block = root.derive_random(2**40, 3, 4)
    for r in range(3):
        key = _mix64_reference((MASK64 - 5 + (2**40 + r + 1) * DERIVE_GAMMA) & MASK64)
        raw = [_mix64_reference((key + (i + 1) * GAMMA) & MASK64) for i in range(4)]
        assert block[r].tolist() == [(v >> 11) * 2.0**-53 for v in raw]
