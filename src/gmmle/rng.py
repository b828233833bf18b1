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
function of ``(key, j, i)``.  :meth:`CounterRng.derive_random` evaluates it
for a run of children at once as one 2-D uint64 array (numpy's wrapping
uint64 arithmetic is the ``mod 2**64``).  Fixed output vectors are pinned in
``tests/test_rng.py``.

Poisson counts come from one CDF table per rate (:func:`poisson_cdf`),
searched by :func:`poisson_invert`; see ``poisson_cdf`` for why this
equals the classic one-uniform inversion loop bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
# Distinct odd constant used only for deriving child stream keys.
DERIVE_GAMMA = 0xBB67AE8584CAA73B
# Above this rate exp(-rate) underflows and the inversion is no longer exact.
POISSON_MAX_RATE = 700.0

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


def poisson_invert(table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Poisson counts of the uniforms ``u`` by a :func:`poisson_cdf` table."""
    return np.searchsorted(table, u, side="left")


class CounterRng:
    """Counter-mode SplitMix64 stream.

    The object is a thin (key, counter) pair; all draws advance the counter
    by a count that depends only on the requested sizes, so interleaving of
    value-dependent logic can never perturb the stream.
    """

    __slots__ = ("key", "counter")

    def __init__(self, seed: int, _key: int | None = None):
        self.key = mix64(seed) if _key is None else (_key & MASK64)
        self.counter = 0

    def derive(self, stream_id: int) -> "CounterRng":
        """Child stream with an independent key; does not advance self."""
        child_key = mix64((self.key + (stream_id + 1) * DERIVE_GAMMA) & MASK64)
        return CounterRng(0, _key=child_key)

    def derive_random(self, first: int, count: int, size: int) -> np.ndarray:
        """Uniforms of ``count`` child streams as one (count, size) array.

        Row r equals ``self.derive(first + r).random(size)``; does not
        advance self.
        """
        ids = np.arange(first + 1, first + count + 1, dtype=np.uint64)
        ids *= _U(DERIVE_GAMMA)
        ids += _U(self.key)
        keys = _mix64_array(ids)
        offsets = np.arange(1, size + 1, dtype=np.uint64)
        offsets *= _U(GAMMA)
        return _unit_float(_mix64_array(keys[:, None] + offsets))

    def _raw(self, n: int) -> np.ndarray:
        counters = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        counters *= _U(GAMMA)
        counters += _U(self.key)
        return _mix64_array(counters)

    def uint64(self, n: int) -> np.ndarray:
        return self._raw(int(n))

    def random(self, size: int | tuple[int, ...] | None = None) -> float | np.ndarray:
        """Uniform float64 in [0, 1) using the top 53 bits."""
        if size is None:
            return float(self.uint64(1)[0] >> _U(11)) * 2.0 ** -53
        shape = (size,) if isinstance(size, int) else tuple(size)
        n = int(np.prod(shape)) if shape else 1
        return _unit_float(self.uint64(n)).reshape(shape)

    def integers(self, bound: int, size: int | tuple[int, ...] | None = None):
        """Uniform integers in [0, bound) by 64-bit modulo.

        Modulo bias is < bound / 2**64, irrelevant for the bounds used here.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        if size is None:
            return int(self.uint64(1)[0] % _U(bound))
        shape = (size,) if isinstance(size, int) else tuple(size)
        n = int(np.prod(shape)) if shape else 1
        raw = self.uint64(n)
        # raw - (raw // bound) * bound is raw % bound; numpy divides by a
        # scalar through libdivide, several times faster than its uint64 %
        divisor = _U(bound)
        quotient = np.floor_divide(raw, divisor)
        np.multiply(quotient, divisor, out=quotient)
        np.subtract(raw, quotient, out=raw)
        # the same bits astype(np.int64) gives, without the copy
        return raw.view(np.int64).reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic shuffle of range(n) by sorting random 64-bit keys."""
        return np.argsort(self.uint64(n), kind="stable")

    def normal(self, size: int | tuple[int, ...]) -> np.ndarray:
        """Standard normals via Box-Muller; consumes 2*ceil(n/2) counters."""
        shape = (size,) if isinstance(size, int) else tuple(size)
        n = int(np.prod(shape)) if shape else 1
        half = (n + 1) // 2
        u1 = self.random(half)
        u2 = self.random(half)
        radius = np.sqrt(-2.0 * np.log1p(-u1))  # u1 < 1 so log1p(-u1) is finite
        angle = (2.0 * math.pi) * u2
        out = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]
        return out.reshape(shape)
