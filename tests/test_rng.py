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
    DERIVE_GAMMA, GAMMA, MASK64, CounterRng, _mix64_array, keyed_random, mix64,
    poisson_cdf, poisson_guide, poisson_invert,
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


@pytest.mark.parametrize("draw", [
    lambda rng, size: rng.random(size),
    lambda rng, size: rng.integers(5, size),
    lambda rng, size: rng.normal(size),
], ids=["random", "integers", "normal"])
@pytest.mark.parametrize("size, numpy_size", [
    (3, np.int64(3)),
    (7, np.uint8(7)),
    ((2, 3), (np.int64(2), np.intp(3))),
    ((2, 3), np.array([2, 3])),
    ((), ()),
], ids=["int64", "uint8", "tuple-of-numpy", "array", "empty-shape"])
def test_numpy_integer_size_draws_like_int_size(draw, size, numpy_size):
    """A numpy-integer size draws the same values in the same shape, and
    leaves the counter a Python int at the same count."""
    want_rng, got_rng = CounterRng(5), CounterRng(5)
    want, got = draw(want_rng, size), draw(got_rng, numpy_size)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert type(got_rng.counter) is int
    assert got_rng.counter == want_rng.counter
    assert draw(got_rng, 4).tobytes() == draw(want_rng, 4).tobytes()


def test_negative_size_does_not_move_the_counter_back():
    rng = CounterRng(0)
    rng.random(2)
    with pytest.raises(ValueError, match="size must not be negative, got -1"):
        rng.random(-1)
    assert rng.random(1)[0] == CounterRng(0).random(3)[2]


@pytest.mark.parametrize("draw", [
    lambda rng, size: rng.uint64(size),
    lambda rng, size: rng.random(size),
    lambda rng, size: rng.integers(5, size),
    lambda rng, size: rng.normal(size),
], ids=["uint64", "random", "integers", "normal"])
@pytest.mark.parametrize("size", [-1, (2, -1)], ids=["negative", "negative-in-shape"])
def test_negative_size_raises_and_leaves_the_counter(draw, size):
    rng = CounterRng(5)
    rng.uint64(3)
    with pytest.raises(ValueError, match="size must not be negative"):
        draw(rng, size)
    assert rng.counter == 3


@pytest.mark.parametrize("draw, size, error", [
    ("uint64", 2.7, TypeError),
    ("permutation", 2.7, TypeError),
    ("permutation", -1, ValueError),
    ("permutation", (2, -1), TypeError),
    ("permutation", (2, 3), TypeError),
], ids=["uint64-float", "permutation-float", "permutation-negative",
        "permutation-negative-in-shape", "permutation-shape"])
def test_size_refused_before_the_counter_moves(draw, size, error):
    """uint64 takes an integer or a shape of them; permutation one length."""
    rng = CounterRng(5)
    with pytest.raises(error):
        getattr(rng, draw)(size)
    assert rng.counter == 0


def test_sizeless_draws_are_the_first_value_of_a_size_one_draw():
    rng = CounterRng(8)
    u = rng.random()
    assert type(u) is float and rng.counter == 1
    assert u == CounterRng(8).random(1)[0]
    k = rng.integers(7)
    assert type(k) is int and rng.counter == 2
    want = CounterRng(8)
    want.uint64(1)
    assert k == want.integers(7, 1)[0]


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


GUIDE_RATES = [0.0, 0.05, 0.5, 5.0, 37.0, 250.0, 699.9]


def _guide_oracle_points(table):
    """Uniforms where an indexed search could part from the binary one: 0,
    1 - 2**-53, every bucket edge b / 2**12 and the float below it, and
    every table entry below 1 with both of its neighbours."""
    edges = np.arange(1, 2**12) * 2.0**-12
    below_one = table[table < 1.0]
    near = np.concatenate(
        [below_one, np.nextafter(below_one, 0.0), np.nextafter(below_one, 2.0)]
    )
    return np.concatenate(
        [[0.0, 1.0 - 2.0**-53], edges, np.nextafter(edges, 0.0), near[near < 1.0]]
    )


@pytest.mark.parametrize("lam", GUIDE_RATES)
def test_indexed_search_equals_searchsorted(lam):
    table = poisson_cdf(lam)
    guide = poisson_guide(table)
    u = _guide_oracle_points(table)
    want = np.searchsorted(table, u, side="left")
    assert np.array_equal(poisson_invert(table, u), want)
    assert np.array_equal(poisson_invert(table, u, guide), want)


@pytest.mark.parametrize("lam", GUIDE_RATES)
def test_indexed_search_on_a_column_slice(lam):
    # the sampler inverts column slices u[:, c0:c1] of a chunk's uniforms
    table = poisson_cdf(lam)
    points = _guide_oracle_points(table)
    u = keyed_random(CounterRng(31).derive_keys(0, 300), 0, points.size // 60 + 1)
    block = u[:, 100:160]
    block.flat[: points.size] = points
    assert not block.flags.c_contiguous
    got = poisson_invert(table, block, poisson_guide(table))
    assert got.shape == block.shape
    assert np.array_equal(got, np.searchsorted(table, block, side="left"))


@pytest.mark.parametrize("lam", GUIDE_RATES)
def test_guide_entries_are_the_search_of_their_whole_bucket(lam):
    table = poisson_cdf(lam)
    guide = poisson_guide(table)
    assert guide.shape == (2**12,)
    lower = np.searchsorted(table, np.arange(2**12) * 2.0**-12, side="left")
    upper = np.searchsorted(table, np.arange(1, 2**12 + 1) * 2.0**-12, side="left")
    settled = guide >= 0
    assert np.array_equal(settled, lower == upper)
    assert np.array_equal(guide[settled], lower[settled])
    # only a few percent of the uniforms are left to the binary search
    assert (~settled).mean() < 0.05


@pytest.mark.parametrize(
    "first,count,size", [(0, 1, 1), (0, 5, 17), (3, 4, 0), (7, 0, 5), (1000, 3, 64)]
)
def test_derive_random_rows_are_derived_streams(first, count, size):
    # the multinomial sampler's (cells, trials) block: outputs 0 .. size - 1
    # of each derived stream, transposed to one row per stream
    root = CounterRng(41)
    root.uint64(9)  # the root's own counter plays no part in its children
    block = keyed_random(root.derive_keys(first, count), 0, size).T
    assert block.shape == (count, size) and block.dtype == np.float64
    for r in range(count):
        assert block[r].tolist() == root.derive(first + r).random(size).tolist()
    assert root.counter == 9


@pytest.mark.parametrize(
    "first,count,start,size", [(0, 1, 0, 1), (0, 5, 0, 17), (3, 4, 9, 0), (7, 0, 2, 5),
                               (1000, 3, 250, 64)]
)
def test_keyed_random_columns_are_derived_streams(first, count, start, size):
    root = CounterRng(41)
    root.uint64(9)
    keys = root.derive_keys(first, count)
    assert keys.dtype == np.uint64
    assert keys.tolist() == [root.derive(first + r).key for r in range(count)]
    block = keyed_random(keys, start, size)
    assert block.shape == (size, count) and block.dtype == np.float64
    for r in range(count):
        stream = root.derive(first + r).random(start + size)
        assert block[:, r].tolist() == stream[start:].tolist()
    assert root.counter == 9


def test_derive_random_wraps_like_the_reference():
    # keys near 2**64 exercise the uint64 wrap of key + id * DERIVE_GAMMA
    root = CounterRng(0, _key=MASK64 - 5)
    block = keyed_random(root.derive_keys(2**40, 3), 0, 4)
    for r in range(3):
        key = _mix64_reference((MASK64 - 5 + (2**40 + r + 1) * DERIVE_GAMMA) & MASK64)
        raw = [_mix64_reference((key + (i + 1) * GAMMA) & MASK64) for i in range(4)]
        assert block[:, r].tolist() == [(v >> 11) * 2.0**-53 for v in raw]


@pytest.mark.parametrize("call, message", [
    (lambda rng: rng.derive(2.5), "stream_id must be an integer, got 2.5"),
    (lambda rng: rng.derive(True), "stream_id must be an integer, got True"),
    (lambda rng: rng.derive(-1), "stream_id=-1 outside [0, 18446744073709551614]"),
    (lambda rng: rng.derive_keys(0, 2.5), "count must be an integer, got 2.5"),
    (lambda rng: rng.derive_keys(0.5, 2), "stream_id must be an integer, got 0.5"),
    (lambda rng: rng.derive_keys(0, -1), "count must be >= 0, got -1"),
    (lambda rng: rng.derive_keys(2**64 - 2, 2),
     "stream_id=18446744073709551614 outside [0, 18446744073709551613]"),
], ids=["derive-float", "derive-bool", "derive-negative", "keys-float-count",
        "keys-float-first", "keys-negative-count", "keys-past-2**64"])
def test_derive_refuses_what_is_no_stream_id(call, message):
    root = CounterRng(5)
    with pytest.raises(ValueError) as caught:
        call(root)
    assert str(caught.value) == message
    assert root.counter == 0


def test_derive_reaches_the_last_stream_id():
    # the last id below 2**64 - 1 keeps (id + 1) * DERIVE_GAMMA in uint64
    root = CounterRng(5)
    last = 2**64 - 2
    expected = _mix64_reference((root.key + (last + 1) * DERIVE_GAMMA) & MASK64)
    assert root.derive(last).key == expected
    assert root.derive_keys(last - 1, 2).tolist() == [root.derive(last - 1).key, expected]
