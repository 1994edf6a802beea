import io
import json
import math
import os

import numpy as np
import pytest

from gbmtails.serialization import (
    _escape_string,
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
            fh.write("partial")
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
        fh = io.StringIO()
        write_float_rows(fh, rows, "%.17g,%.17g\n")
        assert fh.getvalue() == "".join("%.17g,%.17g\n" % (a, b) for a, b in rows)
        fh = io.StringIO()
        write_float_rows(fh, rows[:, 1], "%.17g\n")
        assert fh.getvalue() == "".join("%.17g\n" % v for v in rows[:, 1])
