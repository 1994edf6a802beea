import ast
import glob
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmtails import serialization
from gbmtails.serialization import (
    BLOCK_ROWS,
    _escape_string,
    _field_words,
    _percent_rows,
    atomic_write,
    atomic_write_text,
    canonical_json,
    dumps,
    sha256_file,
    write_float_rows,
)


class TestCanonicalJson:
    def test_sorted_keys_and_fixed_floats(self):
        text = dumps({"b": 0.1, "a": 1.0, "c": [1, 2.5]})
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert "0.10000000000000001" in text
        parsed = json.loads(text)
        assert parsed["b"] == 0.1 and parsed["a"] == 1.0

    def test_seventeen_digit_round_trip(self):
        values = [0.28077640640441515, 1.7807764064044149, 1e-300, -3.5, 2**53 + 1.0]
        parsed = json.loads(dumps(values))
        assert parsed == values

    def test_non_finite_floats(self):
        parsed = json.loads(dumps({"a": math.inf, "b": -math.inf, "c": math.nan}))
        assert parsed["a"] == math.inf and parsed["b"] == -math.inf
        assert math.isnan(parsed["c"])

    def test_numpy_scalars_and_arrays(self):
        doc = {"x": np.float64(0.5), "n": np.int64(3), "v": np.array([1.0, 2.0]),
               "f": np.bool_(True)}
        parsed = json.loads(dumps(doc))
        assert parsed == {"x": 0.5, "n": 3, "v": [1.0, 2.0], "f": True}

    def test_identical_bytes_for_identical_input(self):
        doc = {"z": [1.5, {"k": "v"}], "a": None, "flag": False}
        assert dumps(doc) == dumps(dict(reversed(list(doc.items()))))

    def test_string_escaping(self):
        parsed = json.loads(dumps({"s": 'a"b\\c\n\t\x01'}))
        assert parsed["s"] == 'a"b\\c\n\t\x01'

    def test_escape_table_matches_per_character_loop(self):
        def escape_loop(s):  # the escaper the translate table replaced
            out = ['"']
            for ch in s:
                if ch == '"':
                    out.append('\\"')
                elif ch == "\\":
                    out.append("\\\\")
                elif ch == "\n":
                    out.append("\\n")
                elif ch == "\r":
                    out.append("\\r")
                elif ch == "\t":
                    out.append("\\t")
                elif ord(ch) < 0x20:
                    out.append("\\u%04x" % ord(ch))
                else:
                    out.append(ch)
            out.append('"')
            return "".join(out)

        every = "".join(map(chr, range(0x110000)))  # lone surrogates included
        assert _escape_string(every) == escape_loop(every)

    def test_rejects_non_string_keys(self):
        with pytest.raises(TypeError):
            canonical_json({1: "x"})


class TestAtomicWrite:
    def test_writes_complete_file(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_no_leftover_temp_files(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "x" * 1000)
        leftovers = [p for p in os.listdir(tmp_path) if p != "out.txt"]
        assert leftovers == []

    def test_failed_writer_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")

        def write(fh):
            fh.write(b"partial")
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError, match="writer failed"):
            atomic_write(path, write)
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                             ids=["umask022", "umask077", "umask002"])
    def test_mode_follows_umask_like_plain_open(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            atomic_write_text(tmp_path / "out.txt", "x\n")
            with open(tmp_path / "plain.txt", "w") as fh:
                fh.write("x\n")
        finally:
            os.umask(old)
        assert os.stat(tmp_path / "out.txt").st_mode & 0o777 == mode
        assert os.stat(tmp_path / "plain.txt").st_mode & 0o777 == mode

    def test_text_is_written_as_utf8(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "é\n")
        assert path.read_bytes() == b"\xc3\xa9\n"

    def test_sha256_matches_content(self, tmp_path):
        import hashlib

        path = tmp_path / "out.txt"
        atomic_write_text(path, "digest me")
        assert sha256_file(path) == hashlib.sha256(b"digest me").hexdigest()


class TestWriteFloatRows:
    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 9000])
    def test_matches_row_by_row_formatting(self, n):
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-320, 300, (n, 2))
        special = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 2.2250738585072014e-308]
        rows.ravel()[: min(rows.size, len(special))] = special[: rows.size]
        fh = io.BytesIO()
        write_float_rows(fh, rows)
        assert fh.getvalue().decode("ascii") == "".join("%.17g,%.17g\n" % (a, b) for a, b in rows)
        fh = io.BytesIO()
        write_float_rows(fh, rows[:, 1])
        assert fh.getvalue().decode("ascii") == "".join("%.17g\n" % v for v in rows[:, 1])


def _per_row(rows) -> str:
    """The reference: '%' on one row at a time."""
    rows = np.asarray(rows, dtype=float)
    rows = rows.reshape(len(rows), -1)
    row_format = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return "".join(row_format % tuple(row) for row in rows.tolist())


def _written(rows) -> str:
    fh = io.BytesIO()
    write_float_rows(fh, rows)
    return fh.getvalue().decode("ascii")


def _ties() -> np.ndarray:
    """Floats x = M * 2**(d - 17), M odd, whose 17-digit scaling x * 10**(16 - d)
    is an odd integer over 2: exact ties at the 17th digit, for each decade d
    the kernel covers."""
    rng = np.random.default_rng(11)
    values = []
    for d in range(-4, 16):
        lo, hi = -(-2 * 10**16 // 5 ** (16 - d)), min(2 * 10**17 // 5 ** (16 - d), 2**53)
        for m in {lo | 1, (hi - 1) | 1, *(int(v) | 1 for v in rng.integers(lo, hi, 120))}:
            if m < 2**53:
                values.append(m * 2.0 ** (d - 17))
    return np.array(values)


class TestFloatKernel:
    """write_float_rows' exact integer kernel against per-row '%.17g'."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([1, 2, 5]).flatmap(lambda cols: st.lists(
        st.lists(st.floats(), min_size=cols, max_size=cols), min_size=1, max_size=40)))
    def test_any_floats(self, rows):
        assert _written(np.array(rows)) == _per_row(rows)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(2).integers(0, 2**64, 400_000, dtype=np.uint64)
        rows = bits.view(np.float64).reshape(-1, 2)
        assert _written(rows) == _per_row(rows)

    def test_log_uniform_values(self):
        rng = np.random.default_rng(3)
        values = np.exp(rng.uniform(math.log(1e-5), math.log(1e17), 1_000_000))
        values *= rng.choice([-1.0, 1.0], values.size)
        assert _written(values.reshape(-1, 2)) == _per_row(values.reshape(-1, 2))

    def test_decades_and_their_neighbours(self):
        values = []
        for e in range(-6, 18):
            x = 10.0**e
            below, above = np.nextafter(x, 0.0), np.nextafter(x, np.inf)
            values += [x, below, np.nextafter(below, 0.0), above, np.nextafter(above, np.inf)]
        values = np.array(values)
        assert 1e-4 in values and 1e16 in values
        assert _written(values) == _per_row(values)
        assert _written(-values) == _per_row(-values)

    def test_exact_ties_round_half_to_even(self):
        ties = _ties()
        assert ties.size > 2000
        _, ok = _field_words(ties[:, None])
        assert ok.all()  # the kernel, not the fallback, rounds them
        text = _written(ties)
        assert text == _per_row(ties)
        last = [line[-1] for line in text.split()]
        assert set(last) <= set("02468")  # half to even, trailing zeros dropped

    def test_kernel_takes_2_51_to_1e16(self):
        """Values from 2**51 up to 1e16, their decade neighbours and the
        powers of two between are written by the kernel, not by '%'."""
        rng = np.random.default_rng(6)
        values = list(np.exp(rng.uniform(math.log(2.0**51), math.log(1e16), 20_000)))
        for x in (2.0**51, 2.0**52, 2.0**53, 2.0**53 + 2, 1e15, 1e16):
            below, above = np.nextafter(x, 0.0), np.nextafter(x, np.inf)
            values += [below, np.nextafter(below, 0.0), x, above, np.nextafter(above, np.inf)]
        values = np.array([v for v in values if v < 1e16])
        _, ok = _field_words(np.stack([values, -values], axis=1))
        assert ok.all()
        assert _written(values) == _per_row(values)
        assert _written(-values) == _per_row(-values)

    @pytest.mark.parametrize("fill", [math.inf, 0.0], ids=["low", "high"])
    def test_guard_mends_a_first_guess_one_off(self, monkeypatch, fill):
        """With the comparison that decides d forced one way, the first guess
        is one decade low (or high) for many fields; the 16/18-digit guard
        redoes them, and the kernel still takes every field."""
        monkeypatch.setattr(serialization, "_NEXT", np.full_like(serialization._NEXT, fill))
        values = np.exp(np.random.default_rng(7).uniform(math.log(1e-4), math.log(1e16), 20_000))
        _, ok = _field_words(values[:, None])
        assert ok.all()
        assert _written(values) == _per_row(values)

    def test_zeros_subnormals_and_integers_near_2_53(self):
        values = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                           2.0**53 - 2, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, -(2.0**53 + 2),
                           2.0**51 - 0.5, 2.0**51, 1e15, 9999999999999998.0])
        assert _written(values) == _per_row(values)
        assert _written(values.reshape(-1, 2)) == _per_row(values.reshape(-1, 2))

    def test_chunk_edges_and_fallback_runs(self):
        n = 2 * BLOCK_ROWS + 3
        rows = np.exp(np.random.default_rng(4).uniform(-9.0, 35.0, (n, 2)))
        for i in (0, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS, n - 1):
            rows[i, i % 2] = 0.0  # '%' rows at and next to chunk edges
        rows[100:140, 1] = math.inf  # and one longer run
        assert _written(rows) == _per_row(rows)

    def test_benchmark_killed_rows_take_the_kernel(self, quasi_batch, monkeypatch):
        """At r 0.05, alpha 0.2, nu 0.01 at least 99.9% of killed rows are
        written by the kernel; only fields below 1e-4 (here kill times) or
        of 1e16 and above are left to '%'. A writer that handed every row
        to '%' would still give the right bytes, so this pins the mechanism.
        The splice of '%'-formatted rows is pinned by the KILLED golden
        digest (test_golden.py, alpha 0.5), where about 30% of rows have a
        state below 1e-4 and fall back."""
        by_percent = []

        def counted(rows):
            by_percent.append(len(rows))
            return _percent_rows(rows)

        monkeypatch.setattr(serialization, "_percent_rows", counted)
        rows = quasi_batch[:200_000]
        assert _written(rows) == _per_row(rows)
        assert 0 < sum(by_percent) <= 0.001 * len(rows)

    def test_byte_order_and_memory_layout_do_not_change_bytes(self):
        """Byte-swapped, Fortran-ordered and strided inputs give the bytes of
        native contiguous ones. The kernel builds its words with an explicit
        little-endian dtype, so big-endian hosts get the same bytes by
        construction; that has not been run on big-endian hardware."""
        rng = np.random.default_rng(5)
        rows = np.exp(rng.uniform(-12.0, 40.0, (30_000, 4))) * rng.choice([-1.0, 1.0], (30_000, 4))
        rows[::97, 1] = 0.0  # some rows fall back to '%'
        native = _written(rows)
        assert native == _per_row(rows)
        assert _written(rows.astype(">f8")) == native
        assert _written(np.asfortranarray(rows)) == native
        wide = np.zeros((60_000, 8))
        wide[::2, ::2] = rows
        assert _written(wide[::2, ::2]) == native
        assert _written(rows[:, 2]) == _written(np.ascontiguousarray(rows[:, 2]))


def _text_opens(path: str) -> list[str]:
    """``file:line`` of each builtin ``open(...)`` in ``path`` whose mode is
    not a binary string literal, outside ``serialization.open_text``."""
    with open(path, "rb") as fh:
        tree = ast.parse(fh.read(), filename=path)
    allowed = set()
    if os.path.basename(path) == "serialization.py":
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "open_text":
                allowed.update(id(n) for n in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open") or id(node) in allowed:
            continue
        mode = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
        if not (mode and isinstance(mode[0], ast.Constant) and "b" in str(mode[0].value)):
            found.append(f"{os.path.basename(path)}:{node.lineno}")
    return found


def test_every_text_read_goes_through_open_text():
    """A text-mode ``open`` elsewhere in the package would decode in the
    locale's codec; ``open_text`` decodes as argv is, whatever the locale."""
    package = os.path.dirname(os.path.abspath(serialization.__file__))
    sources = sorted(glob.glob(os.path.join(package, "*.py")))
    assert os.path.join(package, "serialization.py") in sources
    assert [where for path in sources for where in _text_opens(path)] == []


def test_text_opens_finds_a_text_mode_open(tmp_path):
    path = tmp_path / "reader.py"
    path.write_text('open(p, "rb")\nopen(p, mode="wb")\nopen(p)\nopen(p, "r")\nopen(p, m)\n'
                    'def open_text(p):\n    return open(p)\n')
    assert _text_opens(str(path)) == ["reader.py:3", "reader.py:4", "reader.py:5", "reader.py:7"]
