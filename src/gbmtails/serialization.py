"""Deterministic serialization helpers.

JSON output uses sorted keys and fixed 17-significant-digit float rendering
so that identical inputs produce identical bytes. Writers take a binary file
handle, and write_text alone encodes text: as UTF-8, a lone surrogate as the
byte it escapes, so artifacts and manifests are UTF-8 whatever the locale
and a path is written as the bytes it was given. open_text reads every file
back the way argv is decoded, so a manifest replays under any locale. Files
are written to a temporary file and renamed, so a failed run leaves no
partial artifact. CSV float rows come from write_float_rows, whose exact
kernel gives '%.17g''s bytes for 1e-4 <= |x| < 1e16: it scales by a power
of ten with Dekker's two-product, whose float part and exact remainder give
the 17 digits; a row with any other field is formatted with '%'.
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
# killed kernel, the agents' shock transform, the double-Pareto candidate
# scores, KS statistics and CSV formatting.
# Each pass is elementwise, so the block size bounds temporaries and changes
# no byte.
BLOCK_ROWS = 1 << 14

# The kernel takes x with 1e-4 <= |x| < 1e16, where '%.17g' writes fixed
# notation. With d = floor(log10|x|) and k = 16 - d, N = round(|x| * 10**k)
# has 17 digits, and the text is N's digits with the point after digit
# d + 1 (d >= 0) or "0." and -d - 1 zeros before them (d < 0), trailing
# zeros and a bare point dropped. 10**k is a float for k <= 22, and Dekker's
# two-product splits |x| * 10**k exactly into the float product p plus err.
# Where the product has 17 digits, p >= 10**16 > 2**53 is an even integer,
# so the floor is p + floor(err) and the half-to-even rounding p + rint(err).
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split into two 26-bit halves
_ONES = 0x0101010101010101


def _halves(a):
    """a = hi + lo, each half exact to multiply by another half."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


# d is floor(e * log10(2)) or one more, for |x| = 1.f * 2**e: the exponent
# bits index the first guess and the power of ten that decides. Tables by
# j = d + 5 hold 10**k and its halves, and each field's byte masks for d.
_GUESS = np.clip((((np.arange(2048) - 1023) * 315653) >> 20) + 5, 0, 21)  # j of the first guess
_NEXT = np.array([float(f"1e{j - 4}") for j in range(22)])[_GUESS]
_POW10 = np.array([float(10 ** (21 - j)) for j in range(23)])
_POW10_HI, _POW10_LO = _halves(_POW10)


def _masks(d: int) -> list:
    """Byte masks of the head, the integer digits and the point for d."""
    if not -4 <= d <= 15:
        return [0] * 5
    head = (0, 1, 7) if d >= 0 else (0, 1, 2, 3, *range(4, 3 - d), 7)
    digits = (1 << 8 * max(d, 0)) - 1  # the integer digits after the leading one
    dot = ord(".") << 8 * d if d >= 0 else 0
    return [sum(0xFF << 8 * b for b in head) & int.from_bytes(b"\0\0" b"0.000" b"0", "little"),
            digits & (2**64 - 1), digits >> 64, dot & (2**64 - 1), dot >> 64]


_HEAD, _INT1, _INT2, _DOT1, _DOT2 = np.array([_masks(j - 5) for j in range(23)],
                                              dtype=np.uint64).T.copy()


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


def _scaled(a, j):
    """floor(a * 10**k) and its half-to-even rounding, k = 21 - j."""
    ah, al = _halves(a)
    bh, bl = _POW10_HI.take(j), _POW10_LO.take(j)
    p = a * _POW10.take(j)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    p = p.astype(np.int64)
    return p + np.floor(err).astype(np.int64), p + np.rint(err).astype(np.int64)


def _field_words(x: np.ndarray):
    """The '%.17g' text of each field of a float64 array as 4 uint64 words
    with NUL filler, first character in the lowest byte, and where the
    kernel took the field.

    The words hold [separator slot, sign, "0.000", leading digit], then the
    other 16 digits over 24 bytes: those of the integer part, then ".",
    then the fraction's through its last nonzero one. The last word's top
    byte is free.
    """
    ax = np.abs(x)
    ok = (ax >= 1e-4) & (ax < 1e16)
    np.copyto(ax, 1.0, where=~ok)
    e = ax.view(np.int64) >> 52
    j = _GUESS.take(e) + (ax >= _NEXT.take(e))
    t, n = _scaled(ax, j)
    # the guard: where t has 16 or 18 digits, move k by one
    redo = (t - 10**16).view(np.uint64) >= 9 * 10**16
    if redo.any():
        j[redo] += (t[redo] >= 10**17).astype(np.int64) * 2 - 1
        t[redo], n[redo] = _scaled(ax[redo], j[redo])
        ok[redo] &= (t[redo] >= 10**16) & (t[redo] < 10**17)
    # N = 10**17 (a carry) occurs for no float in range: the float below each
    # power of ten from 1e-3 to 1e16 keeps 17 nines. '%' would take one.
    ok &= n < 10**17
    lead = n // 10**16
    rest = n - lead * 10**16
    hi = rest // 10**8
    z1, z2 = _swar8(hi).view(np.uint64), _swar8(rest - hi * 10**8).view(np.uint64)
    tail2 = _through_last_nonzero(z2)
    tail1 = _through_last_nonzero(z1) | (tail2 & 0xFF) * _ONES
    w1, w2 = z1 | 0x30 * _ONES, z2 | 0x30 * _ONES
    int1, int2 = w1 & _INT1.take(j), w2 & _INT2.take(j)
    frac1, frac2 = (w1 ^ int1) & tail1, (w2 ^ int2) & tail2
    head = _HEAD.take(j) | (x.view(np.uint64) >> 63) * (ord("-") << 8) | lead.view(np.uint64) << 56
    return (head,
            int1 | frac1 << 8 | _DOT1.take(j) & tail1,
            int2 | frac2 << 8 | frac1 >> 56 | _DOT2.take(j) & tail2,
            frac2 >> 56), ok


def _percent_rows(rows: np.ndarray) -> bytes:
    """The rows the kernel cannot take, formatted with ``%``."""
    return (b",".join([b"%.17g"] * rows.shape[1]) + b"\n") * len(rows) % tuple(rows.ravel().tolist())


def write_float_rows(fh, rows: np.ndarray) -> None:
    """Write each row of a float array as comma-joined '%.17g' fields and a newline.

    ``rows`` is 1-d (one field per row) or 2-d, in any byte order or memory
    layout. Fields with 1e-4 <= |x| < 1e16 go through an exact kernel
    (_field_words) that gives '%.17g''s bytes. A row with any other field
    (0, inf, nan, |x| < 1e-4, |x| >= 1e16) is formatted with ``%`` and
    spliced in. Chunks of BLOCK_ROWS rows bound the memory; a row's words
    pad it to 32 bytes a field, the newline in its last field's free byte.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[:, None]
    for lo in range(0, len(rows), BLOCK_ROWS):
        chunk = rows[lo : lo + BLOCK_ROWS]
        words, ok = _field_words(chunk)
        out = np.empty((*chunk.shape, 4), dtype="<u8")
        for i, w in enumerate(words):
            out[..., i] = w
        out[:, 1:, 0] |= ord(",")
        out[:, -1, 3] |= ord("\n") << 56
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
