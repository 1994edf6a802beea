"""Deterministic serialization helpers.

JSON output uses sorted keys and fixed 17-significant-digit float rendering
so that identical inputs produce identical bytes. Writers take a binary file
handle, and write_text alone encodes text: as UTF-8, a lone surrogate as the
byte it escapes, so artifacts and manifests are UTF-8 whatever the locale
and a path is written as the bytes it was given. open_text reads every file
back the way argv is decoded, so a manifest replays under any locale. Files
are written to a temporary file and renamed, so a failed run leaves no
partial artifact. CSV float rows come from write_float_rows, whose exact
integer kernel gives '%.17g''s bytes for 1e-4 <= |x| < 2**51; a row with any
other field is formatted with '%'.
"""

from __future__ import annotations

import enum
import hashlib
import math
import os
import sys

import numpy as np


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return "%.17g" % x


# JSON escapes: short forms where JSON has them, \u00xx for other controls.
_ESCAPES = {c: "\\u%04x" % c for c in range(0x20)}
_ESCAPES.update(str.maketrans({'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}))


def _escape_string(s: str) -> str:
    return '"' + s.translate(_ESCAPES) + '"'


def canonical_json(obj, indent: int = 0) -> str:
    """Render with sorted keys and '%.17g' floats; bytes are reproducible."""
    pad = "  " * indent
    child_pad = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, enum.Enum):
        return canonical_json(obj.value, indent)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return _escape_string(obj)
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [child_pad + canonical_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            items.append(
                child_pad + _escape_string(key) + ": " + canonical_json(obj[key], indent + 1)
            )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    return canonical_json(obj) + "\n"


# Rows per block of every pass over a sample or a batch: Philox draws, the
# killed kernel, the double-Pareto profile, KS statistics and CSV formatting.
# Each pass is elementwise, so the block size bounds temporaries and changes
# no byte.
BLOCK_ROWS = 1 << 14

# The kernel takes x with 1e-4 <= |x| < 1e16, where '%.17g' writes fixed
# notation. With d = floor(log10|x|) and k = 16 - d, N = round(|x| * 10**k)
# has 17 digits, and the text is N's digits with the point after digit
# d + 1 (d >= 0) or "0." and -d - 1 zeros before them (d < 0), trailing
# zeros and a bare point dropped. For |x| = m * 2**(e - 53) (m a 53-bit
# integer), N = round(m * 5**k / 2**s) with s = 53 - e - k, exact in 128
# bits while 5**k < 2**63 (k <= 27) and 1 <= s <= 63; s < 1 from 2**51 on.
_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)
_LOW32 = 0xFFFFFFFF
_ONES = 0x0101010101010101
_HEAD = int.from_bytes(b"\0\0" b"0.000" b"\0", "little")


def _masks(d: int) -> list:
    """Byte masks of a field's first four words (see _field_words) for d."""
    head = (0, 1, 7) if d >= 0 else (0, 1, 2, 3, *range(4, 3 - d), 7)
    bits = 8 * max(d, 0)  # the integer digits after the leading one
    return [sum(0xFF << 8 * b for b in head), (1 << min(bits, 64)) - 1,
            (1 << max(bits - 64, 0)) - 1, ord(".") * (d >= 0)]


_MASKS = np.array([_masks(d) for d in range(-4, 16)], dtype=np.uint64)


def _swar8(v):
    """The 8 decimal digits of v < 10**8 as byte lanes, most significant in
    the lowest byte."""
    hi = v // 10000
    w = hi | ((v - hi * 10000) << 32)
    t = ((w * 5243) >> 19) & 0x0000007F0000007F  # 32-bit lanes // 100
    w = t | ((w - t * 100) << 16)
    t = ((w * 103) >> 10) & 0x000F000F000F000F  # 16-bit lanes // 10
    return t | ((w - t * 10) << 8)


def _through_last_nonzero(z):
    """0xFF on each byte of z (bytes <= 9) up to its last nonzero one."""
    f = (z + 0x7F * _ONES) & (0x80 * _ONES)
    for shift in (8, 16, 32):  # each flag spreads to every lower byte
        f |= f >> shift
    return (f >> 7) * 0xFF


def _scaled(m, e, k):
    """floor(|x| * 10**k) for |x| = m * 2**(e - 53), whether it rounds up
    (half to even), and whether the exact path applies (1 <= s <= 63)."""
    s = 53 - e - k
    fits = (s >= 1) & (s <= 63)
    s = np.where(fits, s, 1).astype(np.uint64)
    p = _POW5[k]
    # m * p as two 64-bit limbs from 32-bit halves, then shifted right by s
    ml, mh, pl, ph = m & _LOW32, m >> 32, p & _LOW32, p >> 32
    ll, lh, hl = ml * pl, ml * ph, mh * pl
    mid = (ll >> 32) + (lh & _LOW32) + (hl & _LOW32)
    lo = (ll & _LOW32) | (mid << 32)
    hi = mh * ph + (lh >> 32) + (hl >> 32) + (mid >> 32)
    t = (hi << (64 - s)) | (lo >> s)
    rem, half = lo & ((1 << s) - 1), 1 << (s - 1)
    return t, (rem > half) | ((rem == half) & ((t & 1) == 1)), fits


def _field_words(x: np.ndarray):
    """The '%.17g' text of each field of a float64 array as 6 uint64 words
    with NUL filler, first character in the lowest byte, and where the
    kernel took the field.

    The words hold [separator slot, sign, "0.000", leading digit], the
    other 16 digits masked to the integer part, ".", and the same 16
    digits masked to the fraction.
    """
    ax = np.abs(x)
    ok = (ax >= 1e-4) & (ax < 1e16)
    ax[~ok] = 1.0
    f, e = np.frexp(ax)
    m = (f * 2.0**53).astype(np.uint64)
    k = 16 - np.floor(np.log10(ax)).astype(np.int64)
    t, up, fits = _scaled(m, e, k)
    # np.log10 only estimates d: where t has 16 or 18 digits, move k by one
    step = (t < 10**16).astype(np.int64) - (t >= 10**17)
    redo = (step != 0) & fits
    if redo.any():
        k[redo] += step[redo]
        t[redo], up[redo], fits[redo] = _scaled(m[redo], e[redo], k[redo])
    n = t + up
    # N = 10**17 (a carry) occurs for no float in range: the float below each
    # power of ten from 1e-3 to 1e16 keeps 17 nines. '%' would take one.
    ok &= fits & (t >= 10**16) & (n < 10**17)
    lead = n // 10**16
    rest = n - lead * 10**16
    z1, z2 = _swar8(rest // 10**8), _swar8(rest % 10**8)
    tail2 = _through_last_nonzero(z2)
    tail1 = _through_last_nonzero(z1) | (tail2 & 0xFF) * _ONES
    w1, w2 = z1 | 0x30 * _ONES, z2 | 0x30 * _ONES
    masks = _MASKS[np.where(ok, 20 - k, 0)]
    head = _HEAD | (np.signbit(x).astype(np.uint64) * ord("-") << 8) | ((lead | 0x30) << 56)
    frac1, frac2 = w1 & ~masks[..., 1] & tail1, w2 & ~masks[..., 2] & tail2
    dot = masks[..., 3] * ((frac1 | frac2) != 0)
    return (head & masks[..., 0], w1 & masks[..., 1], w2 & masks[..., 2], dot, frac1, frac2), ok


def _percent_rows(rows: np.ndarray) -> bytes:
    """The rows the kernel cannot take, formatted with ``%``."""
    return (b",".join([b"%.17g"] * rows.shape[1]) + b"\n") * len(rows) % tuple(rows.ravel().tolist())


def write_float_rows(fh, rows: np.ndarray) -> None:
    """Write each row of a float array as comma-joined '%.17g' fields and a newline.

    ``rows`` is 1-d (one field per row) or 2-d, in any byte order or memory
    layout. Fields with 1e-4 <= |x| < 2**51 go through an exact integer
    kernel (_field_words) that gives '%.17g''s bytes. A row with any other
    field (0, inf, nan, |x| < 1e-4, |x| >= 2**51) is formatted with ``%``
    and spliced in. Chunks of BLOCK_ROWS rows bound the memory.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[:, None]
    for lo in range(0, len(rows), BLOCK_ROWS):
        chunk = rows[lo : lo + BLOCK_ROWS]
        words, ok = _field_words(chunk)
        out = np.empty((len(chunk), 6 * chunk.shape[1] + 1), dtype="<u8")
        fields = out[:, :-1].reshape(len(chunk), -1, 6)
        for i, w in enumerate(words):
            fields[..., i] = w
        fields[:, 1:, 0] |= ord(",")
        out[:, -1] = ord("\n")
        text, row_bytes = out.tobytes(), out[0].nbytes
        bad = ~ok.all(axis=1)
        edges = [0, *(np.flatnonzero(bad[1:] != bad[:-1]) + 1).tolist(), len(chunk)]
        for a, b in zip(edges[:-1], edges[1:]):
            if bad[a]:
                fh.write(_percent_rows(chunk[a:b]))
            else:
                fh.write(text[a * row_bytes : b * row_bytes].translate(None, b"\0"))


# Headers of the two sample CSV schemas: one value per row, and a killed batch.
SAMPLE_CSV_HEADER = "value"
BATCH_CSV_HEADER = "kill_time,state"


def write_sample_csv_fh(fh, values: np.ndarray) -> None:
    """Write 1-d ``values`` in the one-column ``value`` schema, one '%.17g' row each."""
    write_text(fh, SAMPLE_CSV_HEADER + "\n")
    write_float_rows(fh, values)


# Flags for the temp file: a new file only, binary on platforms that
# translate newlines at the descriptor level.
_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def atomic_write(path, write) -> None:
    """Write whole file or nothing: ``write(fh)`` fills a binary temp file in
    the target dir, which is then renamed over ``path``.

    The temp file is created with mode 0o666 less the umask, as a plain
    ``open(path, "w")`` would create ``path``.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, _TEMP_FLAGS, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_text(fh, text: str) -> None:
    """UTF-8, lone surrogates as the bytes they escape: UTF-8 mode's rule for argv."""
    fh.write(text.encode("utf-8", "surrogateescape"))


def open_text(path):
    """Open ``path`` for reading, decoded as argv is: write_text's rule run backwards."""
    return open(path, encoding=sys.getfilesystemencoding(), errors=sys.getfilesystemencodeerrors())


def atomic_write_text(path, text: str) -> None:
    atomic_write(path, lambda fh: write_text(fh, text))


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class _Sha256Sink:
    """A binary sink that keeps only a running sha256 and a byte count."""

    def __init__(self):
        self.digest, self.size = hashlib.sha256(), 0

    def write(self, data) -> None:
        self.digest.update(data)
        self.size += len(data)

    def tell(self) -> int:
        return self.size


def sha256_written(write) -> str:
    """sha256 of the bytes ``write(fh)`` writes, computed in memory."""
    write(sink := _Sha256Sink())
    return sink.digest.hexdigest()
