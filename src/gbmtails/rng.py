"""Reproducible random streams.

Every stochastic routine in this package draws from an :class:`RngStream`,
a thin stateful wrapper over a counter-based bit generator keyed by
``(seed, stream_id)``, or ``(seed, stream_id, child)`` for ``substream``;
each part is an integer in ``[0, 2**64)``, not a bool, so no two keys alias.
A stream is a pure function of its key, made new at its first draw, so
identical keys replay identical draw sequences; distinct keys give
statistically independent streams, which is how batch samplers and agent
simulations get scheduling-independent parallelism: partition work by
stream, never by sharing a stream. Batch samplers fill their rows through
:meth:`StreamUniformBlock.rows`, which takes the leading uniforms of
``BLOCK_ROWS`` streams at a time; the block evaluates Philox itself and so
depends on no private bit-generator state.

Normal variates are produced by applying the inverse normal CDF to the
uniform stream. The monotone coupling this induces (larger uniform, larger
normal) is relied on by paired-seed tests elsewhere, so do not swap in a
rejection or ziggurat sampler. The inverse CDF is the package's port of
Cephes ``ndtri`` (``_ndtr``), bit-equal to ``scipy.special.ndtri`` without
importing scipy. Its tails take ``log`` from the C library through
``math.log``, because numpy's SIMD ``log`` rounds a few inputs in 10^4
differently, and each such input would change a written sample.
"""

from __future__ import annotations

import numpy as np

from ._ndtr import ndtri
from .serialization import BLOCK_ROWS

_UINT64_MASK = (1 << 64) - 1

# Smallest uniform the inverse CDF is allowed to see; the bit generator
# emits 0.0 with probability 2**-53 and ndtri(0) would be -inf.
_U_FLOOR = 2.0 ** -53


def _check_key(name: str, value) -> int:
    """A seed, stream id or child index as an int in ``[0, 2**64)``; a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if not 0 <= value <= _UINT64_MASK:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
    return int(value)


class RngStream:
    """Single-owner random stream identified by ``(seed, stream_id)``.

    The stream is stateful: each draw advances it. Never share one stream
    between concurrent workers; give each worker its own ``stream_id``.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = _check_key("seed", seed)
        self.stream_id = _check_key("stream_id", stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    # -- uniform draws ---------------------------------------------------

    def uniform(self) -> float:
        """Next uniform draw in [0, 1)."""
        return float(self._gen.random())

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` uniform draws in [0, 1)."""
        return self._gen.random(int(n))

    # -- normal draws via inverse CDF ------------------------------------

    def normal(self) -> float:
        """Next standard normal draw, inverse-CDF transform of uniform()."""
        return normals_from_uniforms(self._gen.random())

    def normals(self, n: int) -> np.ndarray:
        """Next ``n`` standard normal draws."""
        return normals_from_uniforms(self._gen.random(int(n)))

    # -- derived streams --------------------------------------------------

    def substream(self, child: int) -> "RngStream":
        """A new stream for ``(seed, stream_id, child)``, at its first draw.

        Two calls with the same ``child`` replay the same draws; a caller
        that keeps drawing from a child holds it. Child keys are hashed
        through a seed sequence, statistically disjoint from top-level keys.
        """
        spawn_key = (self.stream_id, _check_key("child", child))
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=spawn_key)
        sub = RngStream.__new__(RngStream)
        sub.seed, sub.stream_id = self.seed, self.stream_id
        sub._gen = np.random.Generator(np.random.Philox(seed=ss))
        return sub


# Philox4x64-10 constants, as in numpy's ``Philox`` bit generator.
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhi(m: int, x: np.ndarray) -> np.ndarray:
    """High 64-bit words of the 128-bit products ``m * x``: Hacker's Delight
    ``mulhu`` on 32-bit halves, whose partial sums cannot overflow 64 bits."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo = x & _LO32
    x_hi = x >> _S32
    w = x_lo * m_lo
    w >>= _S32  # carry out of the low product
    t = x_hi * m_lo
    t += w
    np.bitwise_and(t, _LO32, out=w)
    t >>= _S32
    x_lo *= m_hi
    w += x_lo  # the middle column: its carry goes to the high word
    w >>= _S32
    x_hi *= m_hi
    x_hi += t
    x_hi += w
    return x_hi


def _philox4x64(counter: int, k0: int, k1: np.ndarray, words: int = 4) -> tuple:
    """The first ``words`` output words of block ``counter`` for keys
    ``(k0, k1[i])``; the last round computes only those words."""
    c0 = np.full(1, counter, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros(1, dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = (k0 + _PHILOX_W0) & _UINT64_MASK
            k1 = k1 + np.uint64(_PHILOX_W1)
        need = words if r == _PHILOX_ROUNDS - 1 else 4
        hi1 = _mulhi(_PHILOX_M1, c2)
        hi1 ^= c1
        hi1 ^= np.uint64(k0)
        c1 = c2 * np.uint64(_PHILOX_M1) if need > 1 else None
        if need > 2:
            c2 = _mulhi(_PHILOX_M0, c0) ^ k1
            c2 ^= c3
        c3 = c0 * np.uint64(_PHILOX_M0) if need > 3 else None
        c0 = hi1
    return (c0, c1, c2, c3)[:words]


class StreamUniformBlock:
    """Vectorized helper: leading uniforms of many consecutive streams.

    Produces, for stream ids ``start .. start+n-1`` under one seed, the
    first ``width`` uniforms of each stream, byte-identical to creating the
    ``RngStream`` objects one by one. Philox is counter-based (Salmon et
    al., "Parallel random numbers: as easy as 1, 2, 3", SC'11): block ``c``
    of a stream is a pure function of ``(key, c)``, so the first blocks of
    every stream are computed together as whole-array operations over the
    stream keys, without touching numpy's bit-generator state.
    """

    def __init__(self, seed: int, width: int):
        self.seed = _check_key("seed", seed)
        self.width = int(width)

    def take(self, start: int, n: int) -> np.ndarray:
        """Array of shape (n, width): row j = first draws of stream start+j, in one array pass."""
        start, n = int(start), int(n)
        if start < 0 or n < 0:
            raise ValueError("start and n must be non-negative")
        if start + n > (1 << 64):
            raise ValueError("stream ids must stay below 2**64")
        out = np.empty((n, self.width))
        ids = np.arange(n, dtype=np.uint64) + np.uint64(start)
        # numpy's Philox bumps the counter before its first block
        for block, col in enumerate(range(0, self.width, 4), start=1):
            words = _philox4x64(block, self.seed, ids, min(4, self.width - col))
            for c, word in enumerate(words, start=col):
                # top 53 bits scaled to [0, 1), as Generator.random does
                np.multiply(word >> np.uint64(11), 2.0 ** -53, out=out[:, c])
        return out

    def rows(self, kernel, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Fill ``out[a:b] = kernel(self.take(lo + a, b - a))``, BLOCK_ROWS streams at a time.

        Returns ``out``, which holds the rows of streams lo..hi-1. ``kernel``
        maps each stream's uniforms to its row alone, so blocking changes no
        byte, and the working set beyond ``out`` is one block's uniforms and
        kernel temporaries, whatever the range.
        """
        for a in range(0, hi - lo, BLOCK_ROWS):
            b = min(a + BLOCK_ROWS, hi - lo)
            out[a:b] = kernel(self.take(lo + a, b - a))
        return out


def normals_from_uniforms(u):
    """Inverse-CDF normals from a uniform or an array; every normal drawn comes through here.

    A float gives a float, as ``ndtri`` gives for any scalar.
    """
    return ndtri(np.maximum(u, _U_FLOOR))
