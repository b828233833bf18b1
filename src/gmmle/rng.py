"""Deterministic counter-based random numbers.

Every random choice in this package flows through :class:`CounterRng` so that
a given seed produces the same stream on every platform and numpy version.
Output ``i`` of a stream is a pure function of ``(key, i)``:

    out_i = mix64((key + (i + 1) * GAMMA) mod 2**64)

where ``GAMMA = 0x9E3779B97F4A7C15`` and ``mix64`` is the SplitMix64
finalizer (all arithmetic modulo 2**64):

    z ^= z >> 30;  z *= 0xBF58476D1FD49E4E
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Independent streams for parallel work are derived by re-keying
(:meth:`CounterRng.derive`), never by splitting counter ranges.  Child
``j`` of a stream with key ``key`` has the key

    key_j = mix64((key + (j + 1) * DERIVE_GAMMA) mod 2**64)

so output ``i`` of child ``j`` is ``mix64(key_j + (i + 1) * GAMMA)``, a pure
function of ``(key, j, i)``.  :func:`keyed_random` evaluates it for a run
of outputs of a run of children whose keys (:meth:`CounterRng.derive_keys`)
were derived once, as one 2-D array with one column per child (numpy's
wrapping uint64 arithmetic is the ``mod 2**64``).
Fixed output vectors are pinned in ``tests/test_rng.py``.

Poisson counts come from one CDF table per rate (:func:`poisson_cdf`),
searched by :func:`poisson_invert`; see ``poisson_cdf`` for why this
equals the classic one-uniform inversion loop bit for bit.  The search is
indexed (a "guide table": Chen & Asau 1974; Devroye 1986, III.2.4):
:func:`poisson_guide` splits [0, 1) into 2**12 equal buckets and records,
for each bucket that holds no table entry, the one count every uniform in
it inverts to.  A uniform's bucket is ``floor(u * 2**12)``, exact since the
scale is a power of two, so almost every draw is one lookup, and only the
uniforms in the few buckets that hold an entry are binary-searched; the
counts are ``np.searchsorted(table, u, side="left")`` on every input.
"""

from __future__ import annotations

import math
import operator

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
# Distinct odd constant used only for deriving child stream keys.
DERIVE_GAMMA = 0xBB67AE8584CAA73B
# Above this rate exp(-rate) underflows and the inversion is no longer exact.
POISSON_MAX_RATE = 700.0
# log2 of the bucket count of a Poisson guide table (see poisson_guide).
_GUIDE_BITS = 12

_U = np.uint64


def mix64(value: int) -> int:
    """SplitMix64 finalizer on a plain Python integer (reference path)."""
    z = value & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1FD49E4E) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer; uint64 in, a new uint64 array out.

    The first shift makes the output array, so ``z`` is never written; the
    later steps run in place on it and one scratch array.
    """
    out = z >> _U(30)
    out ^= z
    out *= _U(0xBF58476D1FD49E4E)
    shifted = out >> _U(27)
    out ^= shifted
    out *= _U(0x94D049BB133111EB)
    np.right_shift(out, _U(31), out=shifted)
    out ^= shifted
    return out


def _offsets(gamma: int, start: int, size: int) -> np.ndarray:
    """``(i + 1) * gamma`` for i = start .. start + size - 1."""
    offsets = np.arange(start + 1, start + size + 1, dtype=np.uint64)
    offsets *= _U(gamma)
    return offsets


def keyed_random(keys: np.ndarray, start: int, size: int) -> np.ndarray:
    """Outputs ``start`` .. ``start + size - 1`` of the streams keyed by the
    uint64 ``keys`` (:meth:`CounterRng.derive_keys`), as uniforms in one
    (size, keys.size) array: column j holds stream j's outputs, so entry
    (i, j) is output ``start + i`` of ``CounterRng(0, _key=keys[j])``.
    """
    return _unit_float(_mix64_array(_offsets(GAMMA, start, size)[:, None] + keys))


def _unit_float(raw: np.ndarray) -> np.ndarray:
    """Top 53 bits of each uint64 as a float64 in [0, 1)."""
    return (raw >> _U(11)).astype(np.float64) * 2.0 ** -53


def poisson_cdf(lam: float) -> np.ndarray:
    """CDF table of the Poisson inversion at rate ``lam``.

    Entry k is ``cum_k``, built by the inversion recurrence: ``cum_0 =
    prob_0 = exp(-lam)``, then ``prob_k = prob_{k-1} * (lam / k)`` and
    ``cum_k = cum_{k-1} + prob_k`` for k < ``cap = int(lam + 40 sqrt(lam)
    + 60)``.  The inversion of a uniform ``u`` is the first k < cap with
    ``u <= cum_k``, and cap if there is none.  ``cum`` never decreases, so
    that is ``np.searchsorted(table, u, side="left")`` (:func:`poisson_invert`);
    each entry is made by the same IEEE operations in the same order as
    the loop makes it, so the counts are the loop's bit for bit.
    """
    if lam < 0.0 or not math.isfinite(lam):
        raise ValueError(f"Poisson rate must be finite and >= 0, got {lam}")
    if lam > POISSON_MAX_RATE:
        raise ValueError(
            f"Poisson rate {lam} above {POISSON_MAX_RATE:g}, the limit of exact inversion"
        )
    cap = int(lam + 40.0 * math.sqrt(lam) + 60.0)
    prob = cum = math.exp(-lam)
    table = [cum]
    for k in range(1, cap):
        prob *= lam / k
        cum += prob
        table.append(cum)
    return np.array(table)


def poisson_guide(table: np.ndarray) -> np.ndarray:
    """Guide of a :func:`poisson_cdf` table: one intp per bucket
    ``[b / 2**12, (b + 1) / 2**12)``, b = 0 .. 2**12 - 1.

    With ``g[b] = searchsorted(table, b / 2**12, "left")``, the number of
    entries below the bucket's lower edge, entry b is ``g[b]`` when
    ``g[b] == g[b + 1]`` and -1 otherwise.  In the first case no entry lies
    in the bucket: the entries before index ``g[b]`` are below ``b / 2**12
    <= u`` and the rest are at least ``(b + 1) / 2**12 > u``, so ``g[b]`` is
    the search result of every ``u`` in the bucket.  A -1 bucket holds an
    entry; that includes the top bucket of a table that stalls below 1,
    whose largest uniforms invert to the cap.
    """
    edges = np.arange((1 << _GUIDE_BITS) + 1) * 2.0 ** -_GUIDE_BITS
    below = np.searchsorted(table, edges, side="left")
    return np.where(below[:-1] == below[1:], below[:-1], -1)


def poisson_invert(
    table: np.ndarray, u: np.ndarray, guide: np.ndarray | None = None
) -> np.ndarray:
    """Poisson counts of the uniforms ``u`` (in [0, 1]) by a
    :func:`poisson_cdf` table: ``np.searchsorted(table, u, side="left")``.

    Each uniform's bucket is looked up in the table's
    :func:`poisson_guide` (built here unless given), and only the uniforms
    of -1 buckets are searched.  1.0 lands in the top bucket, whose guide
    entry, when set, is also its search result.
    """
    if guide is None:
        guide = poisson_guide(table)
    buckets = (u * 2.0 ** _GUIDE_BITS).astype(np.intp)
    counts = np.take(guide, buckets, mode="clip")
    unsettled = counts < 0
    if unsettled.any():
        counts[unsettled] = np.searchsorted(table, u[unsettled], side="left")
    return counts


def _shape_and_count(size) -> tuple[tuple[int, ...], int]:
    """``size``, an integer (numpy's too) or a sequence of them, as a shape
    of Python ints, none negative, and that shape's element count."""
    shape = (operator.index(size),) if np.ndim(size) == 0 else tuple(map(operator.index, size))
    if any(length < 0 for length in shape):
        raise ValueError(f"size must not be negative, got {size}")
    return shape, math.prod(shape)


class CounterRng:
    """Counter-mode SplitMix64 stream.

    The object is a thin (key, counter) pair; every draw goes through
    :meth:`uint64`, which advances the counter by the requested size's
    element count, so value-dependent logic can never perturb the stream.
    """

    __slots__ = ("key", "counter")

    def __init__(self, seed: int, _key: int | None = None):
        self.key = mix64(seed) if _key is None else (_key & MASK64)
        self.counter = 0

    def derive(self, stream_id: int) -> "CounterRng":
        """Child stream with an independent key; does not advance self."""
        child_key = mix64((self.key + (stream_id + 1) * DERIVE_GAMMA) & MASK64)
        return CounterRng(0, _key=child_key)

    def derive_keys(self, first: int, count: int) -> np.ndarray:
        """Keys of ``count`` child streams as a uint64 array: entry r is
        ``self.derive(first + r).key``; does not advance self."""
        ids = _offsets(DERIVE_GAMMA, first, count)
        ids += _U(self.key)
        return _mix64_array(ids)

    def uint64(self, size: int | tuple[int, ...]) -> np.ndarray:
        shape, n = _shape_and_count(size)
        counters = _offsets(GAMMA, self.counter, n)
        self.counter += n
        counters += _U(self.key)
        return _mix64_array(counters).reshape(shape)

    def random(self, size: int | tuple[int, ...] | None = None) -> float | np.ndarray:
        """Uniform float64 in [0, 1) using the top 53 bits."""
        if size is None:
            return float(self.random(1)[0])
        raw = self.uint64(size)
        return _unit_float(raw.ravel()).reshape(raw.shape)  # 1-d: shape () stays an array

    def integers(self, bound: int, size: int | tuple[int, ...] | None = None):
        """Uniform integers in [0, bound) by 64-bit modulo.

        Modulo bias is < bound / 2**64, irrelevant for the bounds used here.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        if size is None:
            return int(self.integers(bound, 1)[0])
        raw = self.uint64(size)
        flat = raw.ravel()  # a 1-d view even for shape (), so out= works and writes raw
        # flat - (flat // bound) * bound is flat % bound; numpy divides by a
        # scalar through libdivide, several times faster than its uint64 %
        divisor = _U(bound)
        quotient = np.floor_divide(flat, divisor)
        np.multiply(quotient, divisor, out=quotient)
        np.subtract(flat, quotient, out=flat)
        # the same bits astype(np.int64) gives, without the copy
        return raw.view(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic shuffle of range(n) by sorting random 64-bit keys."""
        return np.argsort(self.uint64((n,)), kind="stable")

    def normal(self, size: int | tuple[int, ...]) -> np.ndarray:
        """Standard normals via Box-Muller; consumes 2*ceil(n/2) counters."""
        shape, n = _shape_and_count(size)
        half = (n + 1) // 2
        u1, u2 = self.random((2, half))
        radius = np.sqrt(-2.0 * np.log1p(-u1))  # u1 < 1 so log1p(-u1) is finite
        angle = (2.0 * math.pi) * u2
        out = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]
        return out.reshape(shape)
