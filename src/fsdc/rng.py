"""Deterministic random numbers that do not depend on numpy's own generators.

The uniform source is a bank of xoshiro256** generators advanced in lockstep.
Lane states are filled from a splitmix64 counter sequence, which is the seeding
procedure recommended for the xoshiro family.  Outputs are interleaved lane by
lane within each step, so the stream for a given seed is a fixed function of
the seed alone: chunk sizes, platform, and numpy version do not change it.

Normal variates come from the inverse CDF applied to (0, 1) uniforms.  The
quantile function is the Cephes ``ndtri`` (the one ``scipy.special.ndtri``
wraps), evaluated in numpy with the same coefficients and the same order of
operations.  Where the uniform lies between exp(-2) and 1 - exp(-2) the
result is a rational function of it and equals scipy's bit for bit.  In the
two tails it goes through ``np.log``, which may round differently from the C
library's ``log``; there it can differ from scipy's by a few ulp (at most 5
over 10M draws with numpy 2.4 on x86-64 Linux).  So normals, and everything
drawn from them, are reproducible across machines exactly as far as the
platforms' ``np.log`` agree.

Independent streams are derived with :func:`derive_key`: hash a parent seed
together with integer tags (a stream domain, an episode index, a class id) and
seed a fresh generator with the result.  That keeps parallel work reproducible
without any shared, order-sensitive generator state.
"""

from __future__ import annotations

from typing import Final

import numpy as np

_MASK: Final = (1 << 64) - 1
_GOLDEN: Final = 0x9E3779B97F4A7C15
_MIX1: Final = 0xBF58476D1CE4E5B9
_MIX2: Final = 0x94D049BB133111EB

#: Number of parallel xoshiro256** lanes in one generator.
LANES: Final = 4096

_U64_TO_UNIT: Final = 2.0 ** -53
#: The largest double below 1.
_BELOW_ONE: Final = 1.0 - 2.0 ** -53

# Cephes ndtri.  Below exp(-2) (and symmetrically above 1 - exp(-2)) the
# quantile is expanded in z = 1/sqrt(-2 log y): _P1/_Q1 for sqrt(-2 log y)
# below 8, _P2/_Q2 from there on; in between it is a rational function of
# (y - 1/2)^2, _P0/_Q0.  A _Q table omits its leading coefficient, 1.
_EXP_M2: Final = 0.13533528323661269189
_SQRT_2PI: Final = 2.50662827463100050242
_P0: Final = (-5.99633501014107895267e1, 9.80010754185999661536e1,
              -5.66762857469070293439e1, 1.39312609387279679503e1,
              -1.23916583867381258016e0)
_Q0: Final = (1.95448858338141759834e0, 4.67627912898881538453e0,
              8.63602421390890590575e1, -2.25462687854119370527e2,
              2.00260212380060660359e2, -8.20372256168333339912e1,
              1.59056225126211695515e1, -1.18331621121330003142e0)
_P1: Final = (4.05544892305962419923e0, 3.15251094599893866154e1,
              5.71628192246421288162e1, 4.40805073893200834700e1,
              1.46849561928858024014e1, 2.18663306850790267539e0,
              -1.40256079171354495875e-1, -3.50424626827848203418e-2,
              -8.57456785154685413611e-4)
_Q1: Final = (1.57799883256466749731e1, 4.53907635128879210584e1,
              4.13172038254672030440e1, 1.50425385692907503408e1,
              2.50464946208309415979e0, -1.42182922854787788574e-1,
              -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2: Final = (3.23774891776946035970e0, 6.91522889068984211695e0,
              3.93881025292474443415e0, 1.33303460815807542389e0,
              2.01485389549179081538e-1, 1.23716634817820021358e-2,
              3.01581553508235416007e-4, 2.65806974686737550832e-6,
              6.23974539184983293730e-9)
_Q2: Final = (6.02427039364742014255e0, 3.67983563856160859403e0,
              1.37702099489081330271e0, 2.16236993594496635890e-1,
              1.34204006088543189037e-2, 3.28014464682127739104e-4,
              2.89247864745380683936e-6, 6.79019408009981274425e-9)
#: Values per step of :func:`_ndtri`; a step's temporaries stay in cache.
_NDTRI_BLOCK: Final = 1 << 15


def splitmix64(state: int) -> int:
    """Return the splitmix64 output for ``state`` after one increment.

    Equivalent to advancing a splitmix64 generator whose state is ``state``
    by one step and returning its output.
    """
    z = (state + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_key(seed: int, *parts: int) -> int:
    """Derive an independent 64-bit stream key from ``seed`` and integer tags.

    The same (seed, parts) always yields the same key; differing in any part
    (including order) yields an unrelated key.  Negative parts are folded into
    the 64-bit range first.
    """
    key = splitmix64(seed & _MASK)
    for part in parts:
        key = splitmix64(key ^ splitmix64(part & _MASK))
    return key


def _seed_block(seed: int, count: int) -> np.ndarray:
    # splitmix64 advances its state by a fixed constant, so the i-th output is
    # a closed-form function of seed and i and the whole block vectorizes.
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK) + idx * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _polevl(x: np.ndarray, coef, monic: bool = False) -> np.ndarray:
    # Horner's rule as Cephes' polevl (monic: p1evl, with an implicit
    # leading 1), one rounding per multiply and per add
    ans = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _ndtri_tail(y0: np.ndarray) -> np.ndarray:
    """Quantiles of values at most exp(-2) or above 1 - exp(-2)."""
    y = np.where(y0 > 1.0 - _EXP_M2, 1.0 - y0, y0)
    # y0 of 0 or 1 has an infinite quantile; give log a finite stand-in
    edge = y == 0.0
    y[edge] = 0.5
    x = np.sqrt(-2.0 * np.log(y))
    x0 = x - np.log(x) / x
    z = 1.0 / x
    x1 = z * _polevl(z, _P1) / _polevl(z, _Q1, monic=True)
    far = np.flatnonzero(x >= 8.0)   # y below exp(-32): rare
    if far.size:
        zf = z[far]
        x1[far] = zf * _polevl(zf, _P2) / _polevl(zf, _Q2, monic=True)
    x0 -= x1
    x0[edge] = np.inf
    return np.copysign(x0, y0 - 0.5)


def _ndtri(y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normal quantiles of ``y`` in [0, 1], float64.

    ``out`` may be ``y`` itself: each step of ``_NDTRI_BLOCK`` values reads
    its inputs before writing them over.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    out = np.empty_like(y) if out is None else out.reshape(-1)
    for lo in range(0, y.size, _NDTRI_BLOCK):
        u = y[lo:lo + _NDTRI_BLOCK]
        tail = np.flatnonzero((u <= _EXP_M2) | (u > 1.0 - _EXP_M2))
        tail_x = _ndtri_tail(u[tail]) if tail.size else None
        # the central expansion runs on every value, which costs less than
        # gathering the central ones; the tail's values overwrite it
        t = u - 0.5
        t2 = t * t
        x = _polevl(t2, _P0)
        x *= t2
        x /= _polevl(t2, _Q0, monic=True)
        x *= t
        x += t
        np.multiply(x, _SQRT_2PI, out=out[lo:lo + _NDTRI_BLOCK])
        if tail_x is not None:
            out[lo + tail] = tail_x
    return out


def _rotl(x: np.ndarray, k: int) -> np.ndarray:
    return (x << np.uint64(k)) | (x >> np.uint64(64 - k))


class PortableRng:
    """Buffered stream of 64-bit words from a lane bank of xoshiro256**.

    ``next_u64(n)`` returns the next ``n`` words of the stream; ``uniform``
    and ``normal`` map those words to floats.  The stream position is the only
    mutable state, so interleaving calls of different sizes never changes
    which word lands where.
    """

    def __init__(self, seed: int) -> None:
        words = _seed_block(seed, 4 * LANES)
        state = words.reshape(4, LANES).copy()
        # an all-zero lane state is a fixed point of xoshiro; nudge it out
        dead = (state == 0).all(axis=0)
        if dead.any():
            state[0, dead] = np.uint64(_GOLDEN)
        self._state = state
        self._buffer = np.empty(0, dtype=np.uint64)
        self._start = 0

    def _fill(self, steps: int) -> np.ndarray:
        s0, s1, s2, s3 = (self._state[i] for i in range(4))
        out = np.empty((steps, LANES), dtype=np.uint64)
        five = np.uint64(5)
        nine = np.uint64(9)
        seventeen = np.uint64(17)
        for i in range(steps):
            out[i] = _rotl(s1 * five, 7) * nine
            t = s1 << seventeen
            s2 = s2 ^ s0
            s3 = s3 ^ s1
            s1 = s1 ^ s2
            s0 = s0 ^ s3
            s2 = s2 ^ t
            s3 = _rotl(s3, 45)
        self._state = np.stack([s0, s1, s2, s3])
        return out.reshape(-1)

    def next_u64(self, count: int) -> np.ndarray:
        """Return the next ``count`` stream words as a uint64 array."""
        if count < 0:
            raise ValueError("count must be non-negative")
        available = self._buffer.size - self._start
        if available >= count:
            out = self._buffer[self._start:self._start + count].copy()
            self._start += count
            return out
        head = self._buffer[self._start:]
        need = count - available
        steps = -(-need // LANES)
        block = self._fill(steps)
        self._buffer = block
        self._start = need
        return np.concatenate([head, block[:need]])

    def uniform(self, count: int) -> np.ndarray:
        """Uniform doubles on (0, 1) from the top 53 bits w of each word.

        Each value is (w + 1/2) * 2**-53, rounded to a double: an odd
        multiple of 2**-54 below 1/2, and from 1/2 up a multiple of 2**-53,
        rounded half to even.  The largest w would round to exactly 1.0,
        where ``normal`` is infinite, so it gives 1 - 2**-53 instead.
        """
        words = self.next_u64(count)
        words >>= np.uint64(11)
        out = words.astype(np.float64)
        out += 0.5
        out *= _U64_TO_UNIT
        return np.minimum(out, _BELOW_ONE, out=out)

    def normal(self, count: int) -> np.ndarray:
        """Standard normal doubles via the inverse CDF."""
        u = self.uniform(count)
        return _ndtri(u, out=u)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) by bitmask rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        mask = (1 << (bound - 1).bit_length()) - 1
        while True:
            value = int(self.next_u64(1)[0]) & mask
            if value < bound:
                return value

    def permutation_prefix(self, n: int, take: int) -> list[int]:
        """First ``take`` entries of a uniform permutation of range(n).

        Partial Fisher-Yates: draws exactly ``take`` integers from the
        stream, so the cost does not depend on how much of the permutation
        is discarded.
        """
        if not 0 <= take <= n:
            raise ValueError("take must be in [0, n]")
        items = list(range(n))
        for i in range(take):
            j = i + self.randbelow(n - i)
            items[i], items[j] = items[j], items[i]
        return items[:take]
