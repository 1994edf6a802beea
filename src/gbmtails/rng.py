"""Reproducible random streams.

Every stochastic routine in this package draws from an :class:`RngStream`,
a thin stateful wrapper over a counter-based bit generator keyed by
``(seed, stream_id)``. Identical keys replay identical draw sequences;
distinct ``stream_id`` values give statistically independent streams, which
is how batch samplers and agent simulations get scheduling-independent
parallelism: partition work by stream, never by sharing a stream. Batch
samplers take the leading uniforms of many streams at once from
:class:`StreamUniformBlock`, which evaluates Philox itself and so depends
on no private bit-generator state.

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

_UINT64_MASK = (1 << 64) - 1

# Smallest uniform the inverse CDF is allowed to see; the bit generator
# emits 0.0 with probability 2**-53 and ndtri(0) would be -inf.
_U_FLOOR = 2.0 ** -53


def _check_seed(seed) -> int:
    """The seed as an int; only ``[0, 2**64)`` is accepted, so no two seeds alias."""
    if not isinstance(seed, (int, np.integer)):
        raise TypeError("seed must be an integer")
    if not (0 <= seed <= _UINT64_MASK):
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return int(seed)


class RngStream:
    """Single-owner random stream identified by ``(seed, stream_id)``.

    The stream is stateful: each draw advances it. Never share one stream
    between concurrent workers; give each worker its own ``stream_id``.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = _check_seed(seed)
        if not isinstance(stream_id, (int, np.integer)):
            raise TypeError("stream_id must be an integer")
        if stream_id < 0 or stream_id >= (1 << 64):
            raise ValueError("stream_id must be a non-negative 64-bit integer")
        self.stream_id = int(stream_id)
        self._start(np.random.Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64)))

    def _start(self, bit_generator) -> None:
        self._gen = np.random.Generator(bit_generator)
        self._children: dict[int, "RngStream"] = {}

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
        """Derived stream for ``(seed, stream_id, child)``.

        Memoized: repeated calls with the same ``child`` return the same
        stateful object, so a caller can keep drawing from a child across
        invocations. Child keys are hashed through a seed sequence, which
        keeps them statistically disjoint from the top-level key space.
        """
        got = self._children.get(child)
        if got is not None:
            return got
        if child < 0:
            raise ValueError("child index must be non-negative")
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream_id, child)
        )
        sub = RngStream.__new__(RngStream)
        sub.seed = self.seed
        sub.stream_id = self.stream_id
        sub._start(np.random.Philox(seed=ss))
        self._children[child] = sub
        return sub


# Philox4x64-10 constants, as in numpy's ``Philox`` bit generator.
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
# Streams per array pass; bounds the working set of ``take``.
_TAKE_CHUNK = 1 << 14
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit words of the 128-bit products ``m * x``."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo = x & _LO32
    x_hi = x >> _S32
    lo_lo = x_lo * m_lo
    hi_lo = x_hi * m_lo
    lo_hi = x_lo * m_hi
    mid = (lo_lo >> _S32) + (hi_lo & _LO32) + (lo_hi & _LO32)
    hi = x_hi * m_hi + (hi_lo >> _S32) + (lo_hi >> _S32) + (mid >> _S32)
    return x * np.uint64(m), hi


def _philox4x64(counter: int, k0: int, k1: np.ndarray) -> tuple:
    """The four output words of block ``counter`` for keys ``(k0, k1[i])``."""
    c0 = np.full(1, counter, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros(1, dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = (k0 + _PHILOX_W0) & _UINT64_MASK
            k1 = k1 + np.uint64(_PHILOX_W1)
        lo0, hi0 = _mulhilo(_PHILOX_M0, c0)
        lo1, hi1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


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
        self.seed = _check_seed(seed)
        self.width = int(width)

    def take(self, start: int, n: int) -> np.ndarray:
        """Array of shape (n, width): row j = first draws of stream start+j."""
        start, n = int(start), int(n)
        if start < 0 or n < 0:
            raise ValueError("start and n must be non-negative")
        if start + n > (1 << 64):
            raise ValueError("stream ids must stay below 2**64")
        out = np.empty((n, self.width))
        for lo in range(0, n, _TAKE_CHUNK):
            hi = min(lo + _TAKE_CHUNK, n)
            ids = np.arange(hi - lo, dtype=np.uint64)
            ids += np.uint64(start + lo)
            # numpy's Philox bumps the counter before its first block
            for block, col in enumerate(range(0, self.width, 4), start=1):
                words = _philox4x64(block, self.seed, ids)
                for word, c in zip(words, range(col, min(col + 4, self.width))):
                    # top 53 bits scaled to [0, 1), as Generator.random does
                    np.multiply(word >> np.uint64(11), 2.0 ** -53, out=out[lo:hi, c])
        return out


def normals_from_uniforms(u):
    """Inverse-CDF normals from a uniform or an array; every normal drawn comes through here.

    A float stays a float (``ndtri``'s scalar path), so one draw costs no
    numpy array round trip.
    """
    return ndtri(max(u, _U_FLOOR) if isinstance(u, float) else np.maximum(u, _U_FLOOR))
