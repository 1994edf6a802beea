"""Reproducible random streams.

Every stochastic routine in this package draws from a Philox stream keyed
by ``(seed, stream_id)``, or ``(seed, stream_id, child)`` for a substream;
each part is an integer in ``[0, 2**64)``, not a bool, and a substream has
no substreams of its own, so no two keys alias. That key range is this
module's rule (``_check_key``); counts of draws, streams and columns follow
the package's rule for integers (``_checks._integer``, at least 0).
:class:`RngStream` is a thin stateful wrapper over one such stream. A
stream is a pure function of its key, made new at its first draw, so
identical keys replay identical draw sequences; distinct keys give
statistically independent streams, which is how batch samplers and agent
simulations get scheduling-independent parallelism: partition work by
stream, never by sharing a stream. Batch samplers fill their rows through
:meth:`StreamUniformBlock.rows`, which takes the leading uniforms of
``BLOCK_ROWS`` streams at a time. Code that needs many substreams at once,
such as the agent simulator, takes their Philox keys from ``_child_keys``,
which runs numpy's seed-sequence hash over every child in one pass. Both
draw through ``_uniforms``, the one fill of counters x keys, which alone
knows the draw layout. Neither builds a stream object, and neither depends
on private bit-generator state.

Normal variates are produced by applying the inverse normal CDF to the
uniform stream. The monotone coupling this induces (larger uniform, larger
normal) is relied on by paired-seed tests elsewhere, so do not swap in a
rejection or ziggurat sampler. The inverse CDF is the package's port of
Cephes ``ndtri`` (``_ndtr``), bit-equal to ``scipy.special.ndtri`` without
importing scipy. Its tails take ``log`` from the C library, because
numpy's SIMD ``log`` rounds a few inputs in 10^4 differently, and each such
input would change a written sample: a scalar through ``math.log``, an
array through numpy's complex ``log``, whose C loop calls the C library's
``clog``, equal to ``log`` on every argument the tails pass it.
"""

from __future__ import annotations

import numpy as np

from ._checks import _integer
from ._ndtr import ndtri
from .serialization import BLOCK_ROWS

_UINT64_MASK = (1 << 64) - 1

# Smallest uniform the inverse CDF is allowed to see; the bit generator
# emits 0.0 with probability 2**-53 and ndtri(0) would be -inf.
_U_FLOOR = 2.0 ** -53


def _check_key(name: str, value) -> int:
    """A seed, stream id or child index as an int in ``[0, 2**64)``."""
    value = _integer(name, value)
    if not 0 <= value <= _UINT64_MASK:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
    return value


class RngStream:
    """Single-owner random stream identified by ``(seed, stream_id)``.

    The stream is stateful: each draw advances it. Never share one stream
    between concurrent workers; give each worker its own ``stream_id``.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = _check_key("seed", seed)
        self.stream_id = _check_key("stream_id", stream_id)
        self._child = None
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self) -> str:
        text = f"RngStream(seed={self.seed}, stream_id={self.stream_id})"
        return text if self._child is None else f"{text}.substream({self._child})"

    # -- uniform draws ---------------------------------------------------

    def uniform(self) -> float:
        """Next uniform draw in [0, 1)."""
        return float(self._gen.random())

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` uniform draws in [0, 1)."""
        return self._gen.random(_integer("n", n, 0))

    # -- normal draws via inverse CDF ------------------------------------

    def normal(self) -> float:
        """Next standard normal draw, inverse-CDF transform of uniform()."""
        return normals_from_uniforms(self._gen.random())

    def normals(self, n: int) -> np.ndarray:
        """Next ``n`` standard normal draws."""
        return normals_from_uniforms(self._gen.random(_integer("n", n, 0)))

    # -- derived streams --------------------------------------------------

    def substream(self, child: int) -> "RngStream":
        """A new stream for ``(seed, stream_id, child)``, at its first draw.

        Two calls with the same ``child`` replay the same draws; a caller
        that keeps drawing from a child holds it. Child keys are hashed
        through a seed sequence, statistically disjoint from top-level keys.
        A substream's key has no room for a grandchild, so calling this on
        a substream raises ``ValueError``.
        """
        if self._child is not None:
            raise ValueError(f"{self!r} is a substream; a substream has no substreams")
        child = _check_key("child", child)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id, child))
        sub = RngStream.__new__(RngStream)
        sub.seed, sub.stream_id, sub._child = self.seed, self.stream_id, child
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


def _philox4x64(counter, k0, k1, words: int = 4) -> tuple:
    """The first ``words`` output words of block ``counter`` under keys ``(k0, k1)``.

    The three arguments broadcast, so a column of counters against a row of
    keys gives every block of every key at once; the last round computes
    only the words asked for.
    """
    # arrays, not uint64 scalars: the key schedule wraps, and scalars warn when they wrap
    counter, k0, k1 = (np.atleast_1d(np.asarray(x, dtype=np.uint64)) for x in (counter, k0, k1))
    shape = np.broadcast_shapes(counter.shape, k0.shape, k1.shape)
    # round 0 of the block (counter, 0, 0, 0): the products of the zero words vanish
    c0 = np.broadcast_to(k0, shape)
    c1 = np.broadcast_to(np.uint64(0), shape)
    c2 = np.broadcast_to(_mulhi(_PHILOX_M0, counter) ^ k1, shape)
    c3 = np.broadcast_to(counter * np.uint64(_PHILOX_M0), shape)
    for r in range(1, _PHILOX_ROUNDS):
        k0 = k0 + np.uint64(_PHILOX_W0)  # not in place: c0 may be a view of k0, or k0 the caller's
        k1 = k1 + np.uint64(_PHILOX_W1)
        need = words if r == _PHILOX_ROUNDS - 1 else 4
        hi1 = _mulhi(_PHILOX_M1, c2)
        hi1 ^= c1
        hi1 ^= k0
        c1 = c2 * np.uint64(_PHILOX_M1) if need > 1 else None
        if need > 2:
            c2 = _mulhi(_PHILOX_M0, c0)
            c2 ^= k1
            c2 ^= c3
        c3 = c0 * np.uint64(_PHILOX_M0) if need > 3 else None
        c0 = hi1
    return (c0, c1, c2, c3)[:words]


# numpy's SeedSequence constants, from O'Neill's randutils ``seed_seq``
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_SS_POOL = 4
_MASK32 = 0xFFFFFFFF


def _words32(value: int) -> list:
    """The little-endian 32-bit words of ``value``, ``[0]`` for 0, as SeedSequence splits an int."""
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _seed_hash(init: int, mult: int):
    """SeedSequence's hash of uint32 arrays; its constant steps by ``mult`` per call,
    whatever the data, so one call hashes every child at once."""
    const = init

    def hash_(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value *= np.uint32(const)
        value ^= value >> np.uint32(16)
        return value

    return hash_


def _child_keys(seed: int, stream_id: int, n: int, first: int = 0) -> tuple:
    """Philox keys ``(k0, k1)`` of substreams ``first .. first+n-1`` of ``(seed, stream_id)``.

    Child i's key is ``SeedSequence(entropy=seed, spawn_key=(stream_id,
    i)).generate_state(2, np.uint64)``, the key ``substream(i)`` uses. The
    seed sequence runs here as uint32 array operations over every child at
    once; that needs every child to have the same word count, so the
    children must lie below 2**32.
    """
    seed, stream_id = _check_key("seed", seed), _check_key("stream_id", stream_id)
    first, n = _integer("first", first, 0), _integer("n", n, 0)
    if first + n > 1 << 32:
        raise ValueError("bulk child keys need every child below 2**32")
    run = _words32(seed)
    run += [0] * (_SS_POOL - len(run))  # padded to the pool, as with any spawn key
    entropy = [np.array([w], dtype=np.uint32) for w in run + _words32(stream_id)]
    entropy.append(np.arange(first, first + n, dtype=np.uint32))

    def mix(x, y):
        out = x * np.uint32(_SS_MIX_L) - y * np.uint32(_SS_MIX_R)
        out ^= out >> np.uint32(16)
        return out

    hashmix = _seed_hash(_SS_INIT_A, _SS_MULT_A)
    pool = [hashmix(word) for word in entropy[:_SS_POOL]]
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_SS_POOL:]:
        for dst in range(_SS_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = _seed_hash(_SS_INIT_B, _SS_MULT_B)  # generate_state: each pool word hashed once
    w0, w1, w2, w3 = (out(word).astype(np.uint64) for word in pool)
    return w0 | w1 << np.uint64(32), w2 | w3 << np.uint64(32)


def _to_unit(word: np.ndarray, out: np.ndarray) -> None:
    """Write Philox words as uniforms in [0, 1) to ``out``, as ``Generator.random`` maps
    them: the top 53 bits, scaled. The words are shifted in place."""
    word >>= np.uint64(11)
    np.multiply(word, 2.0 ** -53, out=out)


def _uniforms(k0, k1, lo: int, hi: int) -> np.ndarray:
    """Draws lo..hi-1 of the streams keyed ``(k0[i], k1[i])``, step-major: shape (hi - lo, n).

    Philox is counter-based (Salmon et al., SC'11): draw k of a stream is word
    ``k % 4`` of its block ``k // 4 + 1`` (numpy bumps the counter first), and
    ``_philox4x64`` fills whole blocks BLOCK_ROWS counters x keys at a time; a
    range inside one block computes only its words. A key part shared by every
    stream may be one element long, and stays so in every Philox round.
    """
    k0, k1 = (np.atleast_1d(np.asarray(k, dtype=np.uint64)) for k in (k0, k1))
    (n,) = np.broadcast_shapes(k0.shape, k1.shape)
    first, last = lo // 4, -(-hi // 4)
    words = 4 if last - first > 1 else hi - 4 * first
    block = np.empty((last - first, words, n))
    keys = max(1, min(n, BLOCK_ROWS))
    counters = max(1, BLOCK_ROWS // keys)
    for b in range(first, last, counters):
        ctr = np.arange(b + 1, min(b + counters, last) + 1, dtype=np.uint64)[:, None]
        for a in range(0, n, keys):
            part = (k if k.size == 1 else k[a:a + keys] for k in (k0, k1))
            for j, word in enumerate(_philox4x64(ctr, *part, words)):
                _to_unit(word, block[b - first:b - first + counters, j, a:a + keys])
    return block.reshape((last - first) * words, n)[lo - 4 * first:hi - 4 * first]


class StreamUniformBlock:
    """Vectorized helper: leading uniforms of many consecutive streams.

    Produces, for stream ids ``start .. start+n-1`` under one seed, the
    first ``width`` uniforms of each stream, byte-identical to creating the
    ``RngStream`` objects one by one, from ``_uniforms``.
    """

    def __init__(self, seed: int, width: int):
        self.seed = _check_key("seed", seed)
        self.width = _integer("width", width, 0)

    def take(self, start: int, n: int) -> np.ndarray:
        """Array of shape (n, width): row j = first draws of stream start+j."""
        start, n = _check_key("start", start), _integer("n", n, 0)
        if start + n > (1 << 64):
            raise ValueError("stream ids must stay below 2**64")
        ids = np.arange(n, dtype=np.uint64) + np.uint64(start)
        return _uniforms(self.seed, ids, 0, self.width).T

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
