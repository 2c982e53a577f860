import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import assocspectra as a
from assocspectra.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnum:
    def test_infix_level_two(self, capsys):
        code, out, _ = run(capsys, "enum", "--p", "2", "--n", "2", "--format", "infix")
        assert code == 0
        assert out == "((xx)x)\n(x(xx))\n"

    def test_tuple_level_zero(self, capsys):
        code, out, _ = run(capsys, "enum", "--p", "2", "--n", "0", "--format", "tuple")
        assert code == 0 and out == "()\n"

    def test_tuple_level_three(self, capsys):
        code, out, _ = run(capsys, "enum", "--p", "2", "--n", "3", "--format", "tuple")
        assert code == 0
        assert out.splitlines() == ["(1,1,1)", "(1,1,2)", "(1,1,3)", "(1,2,2)", "(1,2,3)"]

    def test_prefix_default(self, capsys):
        code, out, _ = run(capsys, "enum", "--p", "3", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["wwxxxxx", "wxwxxxx", "wxxwxxx"]

    def test_deterministic(self, capsys):
        first = run(capsys, "enum", "--p", "2", "--n", "4")
        second = run(capsys, "enum", "--p", "2", "--n", "4")
        assert first == second

    def test_infix_needs_binary(self, capsys):
        code, _, err = run(capsys, "enum", "--p", "3", "--n", "2", "--format", "infix")
        assert code == 2 and "infix" in err

    def test_bad_arity(self, capsys):
        code, _, _ = run(capsys, "enum", "--p", "1", "--n", "2")
        assert code == 2

    def test_cap(self, capsys):
        code, _, err = run(capsys, "enum", "--p", "2", "--n", "12",
                           "--max-bracketings", "100")
        assert code == 3 and "cap" in err

    def test_missing_flags(self):
        with pytest.raises(SystemExit) as exc:
            main(["enum", "--p", "2"])
        assert exc.value.code == 2

    def test_negative_cap_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "enum", "--p", "2", "--n", "3",
                             "--max-bracketings", "-1")
        assert code == 2 and out == "" and "cap" in err

    def test_huge_level_is_a_cap_error(self, capsys):
        code, out, err = run(capsys, "enum", "--p", "2", "--n", "20000")
        assert code == 3 and out == "" and "at least 2**19999" in err

    def test_a_closed_stdout_ends_quietly(self):
        # level 11 is 1.4 MB of text, far more than a pipe buffers, so the
        # command is still writing when the reader goes away
        src = str(Path(a.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        with subprocess.Popen([sys.executable, "-m", "assocspectra", "enum", "--p", "2",
                               "--n", "11"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert first == b"wwwwwwwwwwwxxxxxxxxxxxx\n"
        assert code == 141 and err == b""


class TestCount:
    def test_catalan(self, capsys):
        assert run(capsys, "count", "catalan", "--p", "2", "--n", "3") == (0, "5\n", "")
        assert run(capsys, "count", "catalan", "--p", "3", "--n", "3") == (0, "12\n", "")

    def test_m(self, capsys):
        assert run(capsys, "count", "m", "--p", "2", "--n", "0", "--k", "9") == (0, "1\n", "")
        assert run(capsys, "count", "m", "--p", "2", "--n", "2", "--k", "2") == (0, "5\n", "")

    def test_prints_counts_past_the_digit_limit(self, capsys):
        code, out, err = run(capsys, "count", "catalan", "--p", "2", "--n", "10000")
        digits = out.strip()
        value = a.catalan(10000, 2)
        assert code == 0 and err == "" and digits.isdigit()
        assert 10 ** (len(digits) - 1) <= value < 10 ** len(digits)
        assert int(digits[:40]) == value // 10 ** (len(digits) - 40)
        assert int(digits[-40:]) == value % 10 ** 40

    def test_m_needs_k(self, capsys):
        code, _, err = run(capsys, "count", "m", "--p", "2", "--n", "2")
        assert code == 2 and "--k" in err

    def test_unknown_kind(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "bell", "--p", "2", "--n", "2"])
        assert exc.value.code == 2


class TestSpectrum:
    def write(self, tmp_path, doc, name="g.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_polyk1_counts(self, capsys, tmp_path):
        path = self.write(tmp_path, a.dump_groupoid(a.gallery("polyk", k=1)))
        code, out, _ = run(capsys, "spectrum", path, "--max-n", "4")
        assert code == 0
        assert out.splitlines() == [
            "n=0 classes=1", "n=1 classes=1", "n=2 classes=2",
            "n=3 classes=3", "n=4 classes=4"]

    def test_trivial_groupoid(self, capsys, tmp_path):
        path = self.write(tmp_path, {"p": 2, "size": 1, "table": [0]})
        code, out, _ = run(capsys, "spectrum", path, "--max-n", "5")
        assert code == 0
        assert all(line.endswith("classes=1") for line in out.splitlines())

    def test_egg7_counts(self, capsys, tmp_path):
        path = self.write(tmp_path, a.dump_groupoid(a.gallery("egg7")))
        code, out, _ = run(capsys, "spectrum", path, "--max-n", "5")
        assert code == 0
        counts = [int(line.rsplit("=", 1)[1]) for line in out.splitlines()]
        assert counts == [1, 1, 2, 5, 14, 41]

    def test_fine_blocks_parse_back(self, capsys, tmp_path):
        path = self.write(tmp_path, a.dump_groupoid(a.gallery("egg4")))
        code, out, _ = run(capsys, "spectrum", path, "--max-n", "3", "--fine")
        assert code == 0
        counts, _, rest = out.partition("\n\n")
        sigma = a.parse_spectrum_prefix(rest)
        assert sigma.horizon == 3
        assert [pi.num_classes for pi in sigma.partitions] == [1, 1, 2, 4]

    def test_truncates_on_cap(self, capsys, tmp_path):
        path = self.write(tmp_path, a.dump_groupoid(a.gallery("egg7")))
        code, out, _ = run(capsys, "spectrum", path, "--max-n", "5",
                           "--max-cells", "100000")
        assert code == 3
        lines = out.splitlines()
        assert lines[-1] == "# truncated at n=4"
        assert lines[:-1] == ["n=0 classes=1", "n=1 classes=1",
                              "n=2 classes=2", "n=3 classes=5"]

    def test_fine_keeps_the_completed_levels_on_a_cap(self, capsys, tmp_path):
        g = a.gallery("egg7")
        path = self.write(tmp_path, a.dump_groupoid(g))
        code, out, _ = run(capsys, "spectrum", path, "--max-n", "5",
                           "--max-cells", "100000", "--fine")
        assert code == 3
        body, _, last = out.rstrip("\n").rpartition("\n")
        assert last == "# truncated at n=4"
        counts, _, blocks = body.partition("\n\n")
        assert counts.splitlines() == ["n=0 classes=1", "n=1 classes=1",
                                       "n=2 classes=2", "n=3 classes=5"]
        sigma = a.parse_spectrum_prefix(blocks)
        assert list(sigma.partitions) == [a.fine_level(g, n) for n in range(4)]

    def test_negative_horizon_is_a_usage_error(self, capsys, tmp_path):
        path = self.write(tmp_path, a.dump_groupoid(a.gallery("egg4")))
        sigma = tmp_path / "sigma.txt"
        sigma.write_text(a.format_spectrum_prefix(a.build_prefix(a.tau, 3)), encoding="utf-8")
        for argv in (["spectrum", path], ["verify", "--builtin", "sigma_a:000001"],
                     ["verify", "--builtin", "dldr"], ["verify", "--file", str(sigma)]):
            code, out, err = run(capsys, *argv, "--max-n", "-1")
            assert (code, out) == (2, "") and "horizon must be nonnegative, got -1" in err

    def test_schema_error(self, capsys, tmp_path):
        path = self.write(tmp_path, {"p": 2, "size": 2, "table": [0, 0, 0]})
        code, _, err = run(capsys, "spectrum", path, "--max-n", "2")
        assert code == 2 and "table" in err

    def test_arity_above_63_is_a_schema_error(self, capsys, tmp_path):
        path = self.write(tmp_path, {"p": 64, "size": 1, "table": [0]})
        code, out, err = run(capsys, "spectrum", path, "--max-n", "2")
        assert code == 2 and out == "" and "arity" in err

    def test_bad_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, _ = run(capsys, "spectrum", str(path), "--max-n", "2")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "spectrum", "/nonexistent/g.json", "--max-n", "2")
        assert code == 2


class TestVerify:
    @pytest.mark.parametrize("builtin", ["left_factor:2", "tail:2", "dldr", "tau"])
    def test_builtins_closed(self, capsys, builtin):
        code, out, _ = run(capsys, "verify", "--builtin", builtin, "--max-n", "6")
        assert (code, out) == (0, "CLOSED\n")

    def test_left_factor_huge_k(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", "--builtin", "left_factor:1000000000",
                           "--max-n", "6")
        assert time.perf_counter() - start < 1
        assert (code, out) == (0, "CLOSED\n")

    def test_sigma_a_closed(self, capsys):
        code, out, _ = run(capsys, "verify", "--builtin", "sigma_a:000001", "--max-n", "5")
        assert (code, out) == (0, "CLOSED\n")

    def test_tail_ternary(self, capsys):
        code, out, _ = run(capsys, "verify", "--builtin", "tail:1", "--max-n", "4",
                           "--p", "3")
        assert (code, out) == (0, "CLOSED\n")

    def test_violating_file(self, capsys, tmp_path):
        parts = [a.Partition.full(n, 2) for n in range(5)] + [a.Partition.equality(5, 2)]
        text = a.format_spectrum_prefix(a.SpectrumPrefix(parts))
        path = tmp_path / "sigma.txt"
        path.write_text(text + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "verify", "--file", str(path))
        assert code == 1
        assert out.startswith("VIOLATION at n=4: ")
        assert " ~ " in out and out.rstrip().endswith("required")

    def test_closed_file(self, capsys, tmp_path):
        sigma = a.build_prefix(lambda n: a.left_factor_sigma(n, 1), 5)
        path = tmp_path / "sigma.txt"
        path.write_text(a.format_spectrum_prefix(sigma), encoding="utf-8")
        code, out, _ = run(capsys, "verify", "--file", str(path))
        assert (code, out) == (0, "CLOSED\n")

    def test_file_truncated_by_max_n(self, capsys, tmp_path):
        parts = [a.Partition.full(n, 2) for n in range(5)] + [a.Partition.equality(5, 2)]
        path = tmp_path / "sigma.txt"
        path.write_text(a.format_spectrum_prefix(a.SpectrumPrefix(parts)), encoding="utf-8")
        code, out, _ = run(capsys, "verify", "--file", str(path), "--max-n", "4")
        assert (code, out) == (0, "CLOSED\n")
        code, _, _ = run(capsys, "verify", "--file", str(path), "--max-n", "9")
        assert code == 2

    def test_huge_header_is_a_cap_error(self, capsys, tmp_path):
        path = tmp_path / "sigma.txt"
        path.write_text("level=200000 p=2 classes=1\nclass 0: (1)\n", encoding="utf-8")
        code, out, err = run(capsys, "verify", "--file", str(path))
        assert code == 3 and out == "" and "cap" in err

    def test_wide_header_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "sigma.txt"
        path.write_text("level=2 p=1500 classes=1\nclass 0: (1,1)\n", encoding="utf-8")
        code, out, err = run(capsys, "verify", "--file", str(path))
        assert code == 2 and out == "" and "1499 bracketings left unclassified" in err

    def test_wide_arity_prefix_is_checked(self, capsys, tmp_path):
        # the arity is under the cap's reach, so the prefix is checked, not refused
        path = tmp_path / "sigma.txt"
        path.write_text("level=0 p=100000 classes=1\nclass 0: ()\n\n"
                        "level=1 p=100000 classes=1\nclass 0: (1)\n", encoding="utf-8")
        code, out, err = run(capsys, "verify", "--file", str(path))
        assert (code, out, err) == (0, "CLOSED\n", "")

    @pytest.mark.parametrize("header", ["level=1 p=1000000000 classes=1\nclass 0: (1)\n",
                                        "level=2 p=100000 classes=1\nclass 0: (1,1)\n"])
    def test_wide_header_is_a_cap_error(self, capsys, tmp_path, header):
        path = tmp_path / "sigma.txt"
        path.write_text(header, encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--file", str(path))
        assert time.perf_counter() - start < 1
        assert code == 3 and out == "" and "child references" in err

    def test_sigma_a_cap_covers_pushed_levels(self, capsys):
        code, out, err = run(capsys, "verify", "--builtin", "sigma_a:0000000000",
                             "--max-bracketings", "10")
        assert code == 3 and out == "" and "level 4 holds 14 bracketings" in err

    def test_sigma_a_trimmed_by_max_n(self, capsys):
        code, out, _ = run(capsys, "verify", "--builtin", "sigma_a:0000010", "--max-n", "4")
        assert (code, out) == (0, "CLOSED\n")
        code, _, _ = run(capsys, "verify", "--builtin", "sigma_a:000001", "--max-n", "9")
        assert code == 2

    def test_sigma_a_builds_only_the_levels_asked_for(self, capsys):
        # level 14 of the full string is over the default cap
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", "--builtin", "sigma_a:" + "0" * 15, "--max-n", "5")
        assert time.perf_counter() - start < 1
        assert (code, out) == (0, "CLOSED\n")

    @pytest.mark.parametrize("bits,message", [("00000000a", "invalid literal"),
                                              ("000000002", "bits must be 0 or 1"),
                                              ("000010000", "first five bits must be 0")])
    def test_sigma_a_checks_bits_past_max_n(self, capsys, bits, message):
        code, out, err = run(capsys, "verify", "--builtin", f"sigma_a:{bits}", "--max-n", "2")
        assert code == 2 and out == "" and message in err

    def test_file_levels_obey_max_bracketings(self, capsys, tmp_path):
        path = tmp_path / "sigma.txt"
        path.write_text(a.format_spectrum_prefix(a.build_prefix(a.tau, 3)), encoding="utf-8")
        code, out, err = run(capsys, "verify", "--file", str(path), "--max-bracketings", "1")
        assert code == 3 and out == "" and "level 2 holds 2 bracketings" in err

    def test_max_n_past_the_horizon_names_the_source(self, capsys, tmp_path):
        path = tmp_path / "sigma.txt"
        path.write_text(a.format_spectrum_prefix(a.build_prefix(a.tau, 3)), encoding="utf-8")
        code, _, err = run(capsys, "verify", "--file", str(path), "--max-n", "4")
        assert code == 2 and "--max-n 4 exceeds the file horizon 3" in err
        code, _, err = run(capsys, "verify", "--builtin", "sigma_a:000001", "--max-n", "9")
        assert code == 2 and "--max-n 9 exceeds the bit string horizon" in err

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "verify", "--builtin", "mystery", "--max-n", "3")
        assert code == 2 and "unknown builtin" in err

    @pytest.mark.parametrize("builtin,message", [
        ("left_factor", "builtin 'left_factor' needs a parameter, e.g. left_factor:2"),
        ("left_factor:x", "bad parameter 'x' for builtin 'left_factor'"),
        ("sigma_a", "builtin sigma_a needs a bit string"),
        ("dldr:1", "builtin 'dldr' takes no parameter"),
    ])
    def test_bad_builtin_parameter(self, capsys, builtin, message):
        code, out, err = run(capsys, "verify", "--builtin", builtin, "--max-n", "3")
        assert code == 2 and out == "" and message in err

    def test_builtin_needs_max_n(self, capsys):
        code, _, err = run(capsys, "verify", "--builtin", "tau")
        assert code == 2 and "--max-n" in err

    def test_sigma_a_needs_binary(self, capsys):
        code, _, _ = run(capsys, "verify", "--builtin", "sigma_a:000001", "--p", "3")
        assert code == 2

    def test_needs_source(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--max-n", "3"])
        assert exc.value.code == 2


class TestGallery:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "gallery", "list")
        assert code == 0
        assert "egg4 (4)" in out
        assert "egg7 (7)" in out
        assert "polyk (k+2)" in out
        assert "sheffer (2)" in out
        assert "truncated_ring (evaluation-only)" in out

    def test_emit_then_spectrum(self, capsys, tmp_path):
        out_file = tmp_path / "egg4.json"
        code, _, _ = run(capsys, "gallery", "emit", "egg4", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text(encoding="utf-8"))
        assert a.load_groupoid(doc) == a.gallery("egg4")
        code, out, _ = run(capsys, "spectrum", str(out_file), "--max-n", "3")
        assert code == 0
        counts = [int(line.rsplit("=", 1)[1]) for line in out.splitlines()]
        assert counts == [1, 1, 2, 4]

    def test_emit_with_param(self, capsys, tmp_path):
        out_file = tmp_path / "p.json"
        code, _, _ = run(capsys, "gallery", "emit", "polyk:3", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text(encoding="utf-8"))
        assert a.load_groupoid(doc) == a.gallery("polyk", k=3)

    def test_emit_evaluation_only(self, capsys, tmp_path):
        code, _, err = run(capsys, "gallery", "emit", "truncated_ring",
                           str(tmp_path / "tr.json"))
        assert code == 4 and "evaluation-only" in err

    def test_emit_unknown(self, capsys, tmp_path):
        code, _, _ = run(capsys, "gallery", "emit", "mystery", str(tmp_path / "m.json"))
        assert code == 2

    def test_emit_bad_param(self, capsys, tmp_path):
        code, _, _ = run(capsys, "gallery", "emit", "egg4:3", str(tmp_path / "m.json"))
        assert code == 2
        code, _, _ = run(capsys, "gallery", "emit", "polyk:three", str(tmp_path / "m.json"))
        assert code == 2

    def test_list_bytes(self, capsys):
        code, out, _ = run(capsys, "gallery", "list")
        assert code == 0 and out == (
            "egg4 (4)  term-function maxima drop with each egg pair, floor 0\n"
            "egg7 (7)  tagged blow-up whose fine spectrum merges exactly the 3-egg bracketings\n"
            "polyk (k+2)  degree-k polynomial spectrum keyed by iterated left-factor lengths\n"
            "truncated_ring (evaluation-only)  Z6 polynomials under 3Y*X1 + 2Y*X2 below Y^N\n"
            "sheffer (2)  separates every bracketing\n"
            "const_assoc (m)  associative control: x*y = min(x+y, m-1)\n")

    # the first 16 hex digits of each emitted document's SHA-256
    @pytest.mark.parametrize("ref,digest", [
        ("egg4", "1845aeeb0fe74054"), ("egg7", "e61faa855985ecbc"),
        ("sheffer", "39aeb2fbd4d1c28b"), ("polyk:2", "163de73f7dbd7998"),
        ("polyk: 2", "163de73f7dbd7998"), ("const_assoc:2", "677b5dbc1564d5d7")])
    def test_emit_documents(self, capsys, tmp_path, ref, digest):
        out_file = tmp_path / "g.json"
        code, out, err = run(capsys, "gallery", "emit", ref, str(out_file))
        assert (code, out, err) == (0, "", "")
        assert hashlib.sha256(out_file.read_bytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("ref,code,message", [
        ("polyk", 2, "bad parameters for 'polyk': _polyk() missing 1 required positional "
                     "argument: 'k'"),
        ("const_assoc", 2, "bad parameters for 'const_assoc': _const_assoc() missing 1 required "
                           "positional argument: 'm'"),
        ("polyk:", 2, "bad parameters for 'polyk': _polyk() missing 1 required positional "
                      "argument: 'k'"),
        ("truncated_ring", 4, "truncated_ring is evaluation-only and has no finite table to emit"),
        ("truncated_ring:2", 4,
         "truncated_ring is evaluation-only and has no finite table to emit"),
        ("egg4:2", 2, "gallery entry 'egg4' takes no parameter"),
        ("egg7:2", 2, "gallery entry 'egg7' takes no parameter"),
        ("sheffer:2", 2, "gallery entry 'sheffer' takes no parameter"),
        ("mystery:3", 2, "gallery entry 'mystery' takes no parameter"),
        ("polyk:x", 2, "bad parameter 'x' for gallery entry 'polyk'"),
        ("const_assoc:x", 2, "bad parameter 'x' for gallery entry 'const_assoc'"),
        ("truncated_ring:x", 2, "bad parameter 'x' for gallery entry 'truncated_ring'"),
        ("mystery", 2, "unknown gallery entry 'mystery'; known: const_assoc, egg4, egg7, polyk, "
                       "sheffer, truncated_ring"),
        ("polyk:0", 2, "polyk degree k must be an integer >= 1, got 0"),
        ("polyk:-1", 2, "polyk degree k must be an integer >= 1, got -1"),
        ("const_assoc:0", 2, "const_assoc carrier size m must be an integer >= 1, got 0"),
        ("truncated_ring:0", 2, "truncation degree must be an integer >= 1, got 0"),
    ])
    def test_emit_refusals(self, capsys, tmp_path, ref, code, message):
        out_file = tmp_path / "g.json"
        got = run(capsys, "gallery", "emit", ref, str(out_file))
        assert got == (code, "", f"error: {message}\n")
        assert not out_file.exists()
