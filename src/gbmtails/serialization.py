"""Deterministic serialization helpers.

JSON output uses sorted keys and fixed 17-significant-digit float
rendering so that identical inputs produce identical bytes; file writes go
through a temporary file plus atomic rename so failed runs never leave
partial artifacts behind.
"""

from __future__ import annotations

import enum
import hashlib
import math
import os

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


# Rows rendered per ``%`` call by write_float_rows.
_FORMAT_ROWS = 4096


def write_float_rows(fh, rows: np.ndarray, row_format: str) -> None:
    """Write ``row_format % tuple(row)`` for every row of a float array.

    ``rows`` is 1-d (one field per row) or 2-d. Rows are formatted a chunk
    at a time with one ``%`` call, which gives the same bytes as formatting
    them one by one.
    """
    for lo in range(0, len(rows), _FORMAT_ROWS):
        chunk = rows[lo : lo + _FORMAT_ROWS]
        fh.write(row_format * len(chunk) % tuple(chunk.ravel().tolist()))


# Flags for the temp file: a new file only, binary on platforms that
# translate newlines at the descriptor level.
_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def atomic_write(path, write) -> None:
    """Write whole file or nothing: ``write(fh)`` fills a temp file in the
    target dir, which is then renamed over ``path``.

    The temp file is created with mode 0o666 less the umask, as a plain
    ``open(path, "w")`` would create ``path``.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, _TEMP_FLAGS, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write(path, lambda fh: fh.write(text))


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
