"""End-to-end command line behavior."""

import contextlib
import errno
import gc
import io
import json
import os
import re
import shlex
import shutil
import stat
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    GOLDEN_DIR,
    MAC_TEXT,
    MOD_TEXT,
    REPORT_SCHEMA,
    UNDEFINED_TEXT,
    WIRING_FAULTS,
    chain_text,
    done_one_step_late,
    done_past_the_last_step,
    nested_text,
    with_unread_register,
)
import cigen
from cigen import cli
from cigen import vhdl_ast as ast
from cigen.errors import InternalCheckError
from cigen.frontend import MAX_EXPR_DEPTH
from cigen.lpm import AddSubGenerics

SUB_TEXT = ("ci s(opcode=3) {\n  input a: signed<16>;\n"
            "  input b: signed<16>;\n  output y: signed<16>;\n"
            "  y = a - b;\n}\n")

DIV_TEXT = ("ci d(opcode=2) {\n  input a: signed<16>;\n"
            "  input b: signed<16>;\n  output q: signed<16>;\n"
            "  q = a / b;\n}\n")


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "f.ci"
    path.write_text(MAC_TEXT)
    return path


@pytest.fixture
def div_file(tmp_path):
    path = tmp_path / "d.ci"
    path.write_text(DIV_TEXT)
    return path


def _run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Each ```sh block of README.md that shows a `$ cigen` command: the
# command and the stdout printed under it.
README_TRANSCRIPTS = re.findall(
    r"^```sh\n\$ (cigen [^\n]*)\n(.*?)^```$",
    (Path(__file__).resolve().parent.parent / "README.md").read_text(),
    re.MULTILINE | re.DOTALL)


class TestReadmeTranscripts:
    """Every `$ cigen` transcript in README.md is what the command prints,
    byte for byte, run where f.ci is tests/golden/f.ci and prog.c a copy
    of tests/golden/fixture.c."""

    def test_every_command_has_a_transcript(self):
        assert [command.split()[1] for command, _ in README_TRANSCRIPTS] == \
            ["build", "simulate", "patch", "report"]

    @pytest.mark.parametrize("command, shown", README_TRANSCRIPTS,
                             ids=[command.split()[1]
                                  for command, _ in README_TRANSCRIPTS])
    def test_transcript_matches_the_command(self, tmp_path, monkeypatch,
                                            capsys, command, shown):
        shutil.copy(GOLDEN_DIR / "f.ci", tmp_path / "f.ci")
        shutil.copy(GOLDEN_DIR / "fixture.c", tmp_path / "prog.c")
        monkeypatch.chdir(tmp_path)
        assert _run(capsys, *shlex.split(command)[1:]) == (0, shown, "")


class TestBuild:
    def test_artifacts_match_goldens(self, tmp_path, capsys, spec_file):
        out = tmp_path / "out"
        code, stdout, _ = _run(capsys, "build", spec_file, "-o", out)
        assert code == 0
        for step in range(1, 6):
            assert f"[{step}/5]" in stdout
        assert (out / "f.vhd").read_text() == \
            (GOLDEN_DIR / "f.vhd").read_text()
        assert (out / "ci_f.h").read_text() == \
            (GOLDEN_DIR / "ci_f.h").read_text()
        assert (out / "report.json").read_text() == \
            (GOLDEN_DIR / "report.json").read_text()

    def test_two_runs_are_byte_identical(self, tmp_path, capsys, spec_file):
        for name in ("one", "two"):
            assert _run(capsys, "build", spec_file, "-o",
                        tmp_path / name)[0] == 0
        for artifact in ("f.vhd", "ci_f.h", "report.json"):
            assert (tmp_path / "one" / artifact).read_bytes() == \
                (tmp_path / "two" / artifact).read_bytes()

    def test_config_overrides_intrinsic(self, tmp_path, capsys, spec_file):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"intrinsic": "my_ci_call"}))
        code, _, _ = _run(capsys, "build", spec_file, "-o", tmp_path / "out",
                          "--vectors", "16", "--config", config)
        assert code == 0
        header = (tmp_path / "out" / "ci_f.h").read_text()
        assert "my_ci_call(" in header
        assert "__builtin_custom_inii" not in header

    def test_structure_gate_blocks_artifacts(self, tmp_path, capsys,
                                             monkeypatch, spec_file):
        def validate_structure(design):
            raise InternalCheckError("generated design is malformed "
                                     "(name-collision: f (forced))")

        monkeypatch.setattr(cli, "validate_structure", validate_structure)
        out = tmp_path / "out"
        code, _, stderr = _run(capsys, "build", spec_file, "-o", out)
        assert code == 2
        assert stderr == ("cigen: internal check failed: generated design is "
                          "malformed (name-collision: f (forced)); no artifacts "
                          "written\n")
        assert not out.exists()

    def test_structure_gate_names_each_violation(self, tmp_path, capsys,
                                                 monkeypatch, spec_file):
        # a CI name the parser refuses, handed to the gate behind it
        parse = cli.parse_ci_spec
        monkeypatch.setattr(cli, "parse_ci_spec", lambda text:
                            parse(text)._replace(name="s_1"))
        out = tmp_path / "out"
        code, _, stderr = _run(capsys, "build", spec_file, "-o", out)
        assert code == 2
        assert stderr == ("cigen: internal check failed: generated design is "
                          "malformed (name-collision: s_1 (signal vs entity)); "
                          "no artifacts written\n")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["s_1", "r_a", "w_1", "u_add_0",
                                      "lpm_add_sub", "LPM_Mult", "X_0"])
    def test_generated_name_as_ci_name_is_a_user_error(self, tmp_path,
                                                       capsys, name):
        spec = tmp_path / "n.ci"
        spec.write_text(f"ci {name}(opcode=0) {{\n  input a: signed<8>;\n"
                        "  input b: signed<8>;\n  output y: signed<8>;\n"
                        "  y = a + b;\n}\n")
        out = tmp_path / "out"
        code, _, stderr = _run(capsys, "build", spec, "-o", out)
        assert code == 1
        assert stderr == f"cigen: error: 1:4: identifier {name!r} is reserved\n"
        assert not out.exists()

    def test_equivalence_gate_blocks_artifacts(self, tmp_path, capsys,
                                               monkeypatch, spec_file):
        monkeypatch.setattr(
            cli, "check_equivalence",
            lambda spec, mapped, vectors, design: [{"inputs": {}, "reference": 1,
                                                    "simulated": 2}])
        out = tmp_path / "out"
        code, _, stderr = _run(capsys, "build", spec_file, "-o", out)
        assert code == 2
        assert "no artifacts written" in stderr
        assert not out.exists()

    def test_bad_spec_is_a_user_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ci"
        bad.write_text("ci ??? {}")
        code, _, stderr = _run(capsys, "build", bad, "-o", tmp_path / "out")
        assert code == 1
        assert stderr.startswith("cigen: error:")

    def test_missing_spec_file(self, tmp_path, capsys):
        code, _, stderr = _run(capsys, "build", tmp_path / "ghost.ci",
                               "-o", tmp_path / "out")
        assert code == 1
        assert "cannot read spec" in stderr

    def test_bad_config_json(self, tmp_path, capsys, spec_file):
        config = tmp_path / "cfg.json"
        config.write_text("[1, 2")
        code, _, stderr = _run(capsys, "build", spec_file, "-o",
                               tmp_path / "out", "--config", config)
        assert code == 1
        assert "config" in stderr

    def test_missing_required_flag_exits_one(self, spec_file):
        with pytest.raises(SystemExit) as info:
            cli.main(["build", str(spec_file)])
        assert info.value.code == 1


class TestFailClosed:
    """Bad flags, config, input bytes and output paths exit 1 with one
    error line and leave -o uncreated; no input depth gives a traceback."""

    def _refused(self, capsys, argv, out):
        code, _, stderr = _run(capsys, *argv)
        assert code == 1
        assert stderr.startswith("cigen: error:")
        assert len(stderr.strip().splitlines()) == 1
        assert not out.exists()
        return stderr

    def test_out_of_memory_writes_nothing(self, tmp_path, capsys,
                                          monkeypatch, spec_file):
        def random_vectors(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "random_vectors", random_vectors)
        out = tmp_path / "out"
        stderr = self._refused(capsys, ["build", spec_file, "-o", out], out)
        assert stderr.startswith("cigen: error: out of memory")

    def test_invalid_cost_writes_nothing(self, tmp_path, capsys, spec_file):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"costs": {"mul": 0}}))
        out = tmp_path / "out"
        self._refused(capsys, ["build", spec_file, "-o", out,
                               "--config", config], out)

    @pytest.mark.parametrize("costs", [{"ADD": 2, "add": 3}, {"add": 3, "Add": 2}])
    def test_cost_named_twice_writes_nothing(self, tmp_path, capsys,
                                             spec_file, costs):
        # were the last spelling to win, sw_cycles would hang on key order
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"costs": costs}))
        out = tmp_path / "out"
        stderr = self._refused(capsys, ["build", spec_file, "-o", out,
                                        "--config", config], out)
        assert stderr == "cigen: error: config costs name 'add' twice\n"

    @pytest.mark.parametrize("command", ["build", "patch", "report"])
    @pytest.mark.parametrize("text, key", [
        ('{"costs": {"add": 2, "add": 3}}', "add"),
        ('{"costs": {"add": 3, "add": 2}}', "add"),
        ('{"power_mw": 1, "time_ms": 2, "power_mw": 5}', "power_mw"),
    ], ids=["costs", "costs-reversed", "top-level"])
    def test_key_named_twice_writes_nothing(self, tmp_path, capsys, spec_file,
                                            command, text, key):
        # json.loads alone keeps the last value, so the order would decide
        config = tmp_path / "cfg.json"
        config.write_text(text)
        source = tmp_path / "prog.c"
        source.write_text((GOLDEN_DIR / "fixture.c").read_text())
        out = tmp_path / "out"
        argv = {"build": ["build", spec_file, "-o", out],
                "patch": ["patch", spec_file, source, "--header-dir", out],
                "report": ["report", spec_file, "--json"]}[command]
        code, stdout, stderr = _run(capsys, *argv, "--config", config)
        assert (code, stdout) == (1, "")
        assert stderr == f"cigen: error: config names the key {key!r} twice\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["cfg.json", "f.ci", "prog.c"]

    @pytest.mark.parametrize("spec, argv, source, message", [
        (MAC_TEXT.replace("+ c", "+ q"), ["build", "-o", "out"], "",
         "6:17: undeclared input 'q'"),
        (MAC_TEXT.replace("input c:", "input A:"), ["build", "-o", "out"], "",
         "4:9: duplicate declaration of 'A'"),
        (MAC_TEXT, ["simulate", "--inputs", "a=2147483648,b=0,c=0", "--trace",
                    "t.jsonl"], "", "input 'a' = 2147483648 does not fit signed<32>"),
        (MAC_TEXT, ["patch", "prog.c"],
         "int f(int a, int b, int c) { return (a * b) + c; }\n/* open\n",
         "unterminated block comment on line 2"),
        (MOD_TEXT, ["patch", "prog.c"], (GOLDEN_DIR / "fixture.c").read_text(),
         "h uses flooring modulus, which no C operator computes; rewrite the C "
         "call site by hand"),
    ], ids=["undeclared-identifier", "duplicate-declaration", "input-out-of-range",
            "unterminated-comment", "flooring-modulus"])
    def test_user_error_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                       spec, argv, source, message):
        monkeypatch.chdir(tmp_path)
        Path("s.ci").write_text(spec)
        Path("prog.c").write_text(source)
        code, stdout, stderr = _run(capsys, argv[0], "s.ci", *argv[1:])
        assert (code, stdout, stderr) == (1, "", f"cigen: error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["prog.c", "s.ci"]

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_vector_count_below_one(self, tmp_path, capsys, spec_file, count):
        out = tmp_path / "out"
        self._refused(capsys, ["build", spec_file, "-o", out,
                               "--vectors", count], out)

    @pytest.mark.parametrize("count", [str(cli.MAX_VECTORS + 1),
                                       "99999999999999999999999"])
    def test_vector_count_above_the_ceiling(self, tmp_path, capsys,
                                            monkeypatch, spec_file, count):
        def draw(*args):
            raise AssertionError("a vector was drawn")
        monkeypatch.setattr(cli, "random_vectors", draw)
        out = tmp_path / "out"
        self._refused(capsys, ["build", spec_file, "-o", out,
                               "--vectors", count], out)

    @pytest.mark.parametrize("field", ["width", "opcode"])
    def test_spec_integer_past_the_conversion_limit(self, tmp_path, capsys,
                                                    field):
        digits = "9" * 5000
        old, new, where = {"width": ("signed<32>", f"signed<{digits}>", "2:19"),
                           "opcode": ("opcode=0", f"opcode={digits}", "1:13")}[field]
        spec = tmp_path / "huge.ci"
        spec.write_text(MAC_TEXT.replace(old, new, 1))
        out = tmp_path / "out"
        stderr = self._refused(capsys, ["build", spec, "-o", out], out)
        assert stderr.startswith(f"cigen: error: {where}: {field} {digits} "
                                 "out of range ")

    def test_non_numeric_power(self, tmp_path, capsys, spec_file):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"power_mw": "x"}))
        out = tmp_path / "out"
        self._refused(capsys, ["build", spec_file, "-o", out,
                               "--config", config], out)

    @pytest.mark.parametrize("config", [
        {"power_mw": float("nan"), "time_ms": 1},   # the JSON literal NaN
        {"power_mw": 1, "time_ms": float("inf")},
        {"power_mw": -1, "time_ms": 1},
        {"power_mw": 10**400, "time_ms": 1},
    ], ids=["nan", "inf", "negative", "401-digit-integer"])
    def test_power_and_time_are_finite_and_non_negative(self, tmp_path, capsys,
                                                        spec_file, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code, stdout, stderr = _run(capsys, "build", spec_file, "-o", out,
                                    "--config", path)
        assert (code, stdout) == (1, "")   # refused before [1/5]
        assert stderr.startswith("cigen: error: config ")
        assert "must be finite and non-negative" in stderr
        assert stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["build", "report"])
    @pytest.mark.parametrize("config, key", [
        ({"power_mw": " 2_98 ", "time_ms": 1}, "power_mw"),
        ({"power_mw": "nan", "time_ms": 1}, "power_mw"),
        ({"power_mw": 298, "time_ms": True}, "time_ms"),
        ({"power_mw": False, "time_ms": 1}, "power_mw"),
    ], ids=["string", "nan-string", "true", "false"])
    def test_power_and_time_must_be_json_numbers(self, tmp_path, capsys,
                                                 spec_file, command, config,
                                                 key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = [command, spec_file, "--config", path]
        code, stdout, stderr = _run(capsys, *argv,
                                    *(["-o", out] if command == "build" else []))
        assert (code, stdout) == (1, "")
        assert stderr == f"cigen: error: config {key} must be a number\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["build", "report"])
    @pytest.mark.parametrize("text", [
        "[" * 200_000,
        '{"costs": {"add": 1' + "0" * 5000 + "}}",
    ], ids=["200000-nested-arrays", "5001-digit-integer"])
    def test_config_the_json_reader_refuses(self, tmp_path, capsys, spec_file,
                                            command, text):
        # Python's reader raises RecursionError and a plain ValueError here
        config = tmp_path / "cfg.json"
        config.write_text(text)
        out = tmp_path / "out"
        argv = [command, spec_file, "--config", config]
        code, stdout, stderr = _run(capsys, *argv,
                                    *(["-o", out] if command == "build" else []))
        assert (code, stdout) == (1, "")
        assert stderr.startswith("cigen: error: config is not valid JSON: ")
        assert stderr.count("\n") == 1
        assert not out.exists()

    def test_energy_beyond_a_float_writes_nothing(self, tmp_path, capsys,
                                                  spec_file):
        config = tmp_path / "cfg.json"
        config.write_text('{"power_mw": 1e308, "time_ms": 1e10}')
        out = tmp_path / "out"
        code, _, stderr = _run(capsys, "build", spec_file, "-o", out,
                               "--config", config)
        assert code == 1
        assert stderr == ("cigen: error: energy 1e+308 mW x 10000000000.0 ms "
                          "is too large to report\n")
        assert not out.exists()

    def test_spec_is_not_overwritten(self, tmp_path, capsys):
        spec = tmp_path / "f.vhd"
        spec.write_text(MAC_TEXT)
        code, _, stderr = _run(capsys, "build", spec, "-o", tmp_path)
        assert code == 1
        assert stderr == f"cigen: error: cannot write {spec}: it is an input\n"
        assert spec.read_text() == MAC_TEXT
        assert [p.name for p in tmp_path.iterdir()] == ["f.vhd"]

    def test_link_to_the_spec_is_not_overwritten(self, tmp_path, capsys,
                                                 spec_file):
        out = tmp_path / "out"
        out.mkdir()
        os.link(spec_file, out / "f.vhd")
        code, _, stderr = _run(capsys, "build", spec_file, "-o", out)
        assert code == 1
        assert stderr.endswith(f"{out / 'f.vhd'}: it is an input\n")
        assert spec_file.read_text() == MAC_TEXT

    def test_config_is_not_overwritten(self, tmp_path, capsys, spec_file):
        config = tmp_path / "report.json"
        config.write_text("{}")
        code, _, stderr = _run(capsys, "build", spec_file, "-o", tmp_path,
                               "--config", config)
        assert code == 1
        assert stderr == f"cigen: error: cannot write {config}: it is an input\n"
        assert config.read_text() == "{}"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["f.ci", "report.json"]

    def test_non_utf8_spec(self, tmp_path, capsys):
        spec = tmp_path / "bad.ci"
        spec.write_bytes(MAC_TEXT.encode() + b"\xff\xfe")
        out = tmp_path / "out"
        self._refused(capsys, ["build", spec, "-o", out], out)

    def test_non_ascii_identifier(self, tmp_path, capsys):
        spec = tmp_path / "u.ci"
        spec.write_text(MAC_TEXT.replace("input b:", "input b\u00e4:")
                        .replace("a * b", "a * b\u00e4"), encoding="utf-8")
        out = tmp_path / "out"
        self._refused(capsys, ["build", spec, "-o", out], out)

    def test_non_utf8_config(self, tmp_path, capsys, spec_file):
        config = tmp_path / "cfg.json"
        config.write_bytes(b'{"intrinsic": "\xff"}')
        out = tmp_path / "out"
        self._refused(capsys, ["build", spec_file, "-o", out,
                               "--config", config], out)

    @pytest.mark.parametrize("intrinsic, reason", [
        ("return", "a C keyword"),
        ("_Bool", "a C keyword"),
        ("CI_F", "a name ci_f.h defines"),
        ("CI_F_OPCODE", "a name ci_f.h defines"),
        ("CI_F_H", "a name ci_f.h defines"),
        ("p_a", "a parameter of CI_F"),
    ])
    @pytest.mark.parametrize("command", ["build", "patch"])
    def test_intrinsic_the_header_cannot_call(self, tmp_path, capsys, spec_file,
                                              command, intrinsic, reason):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"intrinsic": intrinsic}))
        source = tmp_path / "prog.c"
        source.write_text((GOLDEN_DIR / "fixture.c").read_text())
        out = tmp_path / "out"
        argv = ["build", spec_file, "-o", out] if command == "build" \
            else ["patch", spec_file, source, "--header-dir", out]
        stderr = self._refused(capsys, [*argv, "--config", config], out)
        assert stderr == f"cigen: error: config intrinsic {intrinsic!r} is {reason}\n"
        assert not (tmp_path / "prog.ci.c").exists()

    @pytest.mark.parametrize("intrinsic", ["p_d", "ci_f", "CI_G", "Return"])
    def test_intrinsic_beside_the_header_names_is_called(self, tmp_path, capsys,
                                                         spec_file, intrinsic):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"intrinsic": intrinsic}))
        code, _, _ = _run(capsys, "build", spec_file, "-o", tmp_path / "out",
                          "--vectors", "4", "--config", config)
        assert code == 0
        assert f"{intrinsic}(CI_F_OPCODE" in (tmp_path / "out" / "ci_f.h").read_text()

    def test_non_utf8_c_source(self, tmp_path, capsys, spec_file):
        source = tmp_path / "prog.c"
        source.write_bytes(b"int f(int a) { return a; } /* \xff */\n")
        self._refused(capsys, ["patch", spec_file, source],
                      tmp_path / "prog.ci.c")

    @pytest.mark.parametrize("text", [
        chain_text(1500),
        nested_text(1, "a + (" * 1200 + "b" + ")" * 1200),
    ], ids=["1500-term-chain", "1200-nested-parentheses"])
    def test_too_deep_expression(self, tmp_path, capsys, text):
        spec = tmp_path / "deep.ci"
        spec.write_text(text)
        out = tmp_path / "out"
        self._refused(capsys, ["build", spec, "-o", out], out)

    def test_chain_at_the_depth_limit_builds_as_a_program(self, tmp_path):
        # run as `python -m cigen` so the recursion headroom is a program's
        spec = tmp_path / "deep.ci"
        spec.write_text(chain_text(MAX_EXPR_DEPTH + 1))
        src = str(Path(cigen.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "cigen", "build", str(spec), "-o",
             str(tmp_path / "out"), "--vectors", "4"],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out" / "w.vhd").exists()

    def test_chain_at_the_depth_limit_patches(self, tmp_path, capsys):
        terms = MAX_EXPR_DEPTH + 1
        spec = tmp_path / "deep.ci"
        spec.write_text(chain_text(terms))
        params = ", ".join(f"int a{i}" for i in range(terms))
        chain = " + ".join(f"a{i}" for i in range(terms))
        source = tmp_path / "deep.c"
        source.write_text(f"int g({params})\n{{\n    return {chain};\n}}\n")
        code, stdout, stderr = _run(capsys, "patch", spec, source)
        assert code == 0, stderr
        assert "patched 1 call site(s) with CI_W(" in stdout
        patched = (tmp_path / "deep.ci.c").read_text()
        assert patched.count("CI_W(") == 1
        assert f"return {chain};" not in patched

    def test_deeply_nested_c_parentheses(self, tmp_path, capsys, spec_file):
        deep = "(" * 600 + "a" + ")" * 600 + " * b + c"
        source = tmp_path / "deep.c"
        source.write_text(
            f"int g(int a, int b, int c) {{ return {deep}; }}\n"
            "int h(int a, int b, int c) { return (a * b) + c; }\n")
        code, _, stderr = _run(capsys, "patch", spec_file, source)
        assert code == 0, stderr
        patched = (tmp_path / "deep.ci.c").read_text()
        # the redundant parentheses around a do not hide the target
        assert f"return {deep};" not in patched
        assert patched.count("return CI_F(a, b, c);") == 2

    def test_site_before_a_deep_group_is_patched(self, tmp_path, capsys,
                                                 spec_file):
        deep = "(" * 300 + "x" + ")" * 300
        source = tmp_path / "deep.c"
        source.write_text(
            f"int g(int a, int b, int c, int x) {{ return a * b + c + {deep}; }}\n")
        code, _, stderr = _run(capsys, "patch", spec_file, source)
        assert code == 0, stderr
        patched = (tmp_path / "deep.ci.c").read_text()
        assert f"return CI_F(a, b, c) + {deep};" in patched

    def test_output_path_is_a_file(self, tmp_path, capsys, spec_file):
        out = tmp_path / "taken"
        out.write_text("keep")
        code, _, stderr = _run(capsys, "build", spec_file, "-o", out)
        assert code == 1
        assert stderr.startswith("cigen: error:")
        assert len(stderr.strip().splitlines()) == 1
        assert out.read_text() == "keep"

    def test_artifact_path_taken_by_a_directory_writes_nothing(
            self, tmp_path, capsys, spec_file):
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        code, _, stderr = _run(capsys, "build", spec_file, "-o", out)
        assert code == 1
        assert stderr.count("\n") == 1
        assert "report.json: it is a directory" in stderr
        assert [p.name for p in out.iterdir()] == ["report.json"]


def _swap_add_sub_operands(design: ast.HdlDesign) -> ast.HdlDesign:
    def swap(inst: ast.Instance) -> ast.Instance:
        if type(inst.generics) is not AddSubGenerics:
            return inst
        dataa, datab, result = inst.wires
        return inst._replace(wires=(datab, dataa, result))
    arch = design.architecture
    return design._replace(architecture=arch._replace(
        instances=tuple(swap(i) for i in arch.instances)))


def _drop_first_stage_load(design: ast.HdlDesign) -> ast.HdlDesign:
    proc = design.architecture.process
    index = next(i for i, step in enumerate(proc.steps)
                 if any(load.target.startswith("s_") for load in step))
    step = proc.steps[index]
    dropped = next(load for load in step if load.target.startswith("s_"))
    steps = list(proc.steps)
    steps[index] = tuple(load for load in step if load is not dropped)
    return design._replace(architecture=design.architecture._replace(
        process=proc._replace(steps=tuple(steps))))


def _narrow_first_slice(design: ast.HdlDesign) -> ast.HdlDesign:
    proc = design.architecture.process
    first, *rest = proc.steps
    load = next(load for load in first if isinstance(load.expr, ast.Slice))
    narrow = load._replace(expr=ast.Slice(load.expr.name,
                                          load.expr.width - 1))
    first = tuple(narrow if other is load else other for other in first)
    return design._replace(architecture=design.architecture._replace(
        process=proc._replace(steps=(first, *rest))))


def _with_steps(design: ast.HdlDesign, reorder) -> ast.HdlDesign:
    """design with its control steps put in the order reorder returns."""
    proc = design.architecture.process
    return design._replace(architecture=design.architecture._replace(
        process=proc._replace(steps=tuple(reorder(*proc.steps)))))


def _swap_first_steps(design: ast.HdlDesign) -> ast.HdlDesign:
    # step 0 is now the one guarded by start, and step 1 runs after it
    return _with_steps(design, lambda first, second, *rest:
                       (second, first, *rest))


def _repeat_second_step(design: ast.HdlDesign) -> ast.HdlDesign:
    # every later step moves one counter value up
    return _with_steps(design, lambda first, second, *rest:
                       (first, second, second, *rest))


class TestBuildChecksTheWrittenDesign:
    """A fault injected into the design build emits must stop the build:
    the check simulates that same object, and lowering it for the check is
    the only gate that sees wiring faults."""

    @staticmethod
    def _build(tmp_path, capsys, monkeypatch, text, mutate) -> str:
        """Build text with mutate applied to its design, assert that
        nothing was written, and return stderr."""
        spec = tmp_path / "spec.ci"
        spec.write_text(text)
        real = cli.build_design
        monkeypatch.setattr(cli, "build_design",
                            lambda spec, mapped: mutate(real(spec, mapped)))
        out = tmp_path / "out"
        code, _, stderr = _run(capsys, "build", spec, "-o", out)
        assert code == 2
        assert "no artifacts written" in stderr
        assert not out.exists()
        return stderr

    @pytest.mark.parametrize("text, mutate", [
        (SUB_TEXT, _swap_add_sub_operands),
        (MAC_TEXT, _drop_first_stage_load),
        (SUB_TEXT, _narrow_first_slice),
        (MAC_TEXT, _swap_first_steps),
        (MAC_TEXT, _repeat_second_step),
        (UNDEFINED_TEXT, done_one_step_late),
        (MAC_TEXT, done_past_the_last_step),
    ], ids=["swapped-operands", "dropped-load", "narrow-slice",
            "swapped-steps", "repeated-step", "late-done-every-vector-faults",
            "done-past-the-last-step"])
    def test_mutated_design_is_refused(self, tmp_path, capsys, monkeypatch,
                                       text, mutate):
        self._build(tmp_path, capsys, monkeypatch, text, mutate)

    @pytest.mark.parametrize("mutate, message", WIRING_FAULTS)
    def test_wiring_fault_is_refused(self, tmp_path, capsys, monkeypatch,
                                     mutate, message):
        stderr = self._build(tmp_path, capsys, monkeypatch, MAC_TEXT, mutate)
        assert message in stderr

    def test_unread_register_leaves_out_untouched(self, tmp_path, capsys,
                                                  monkeypatch, spec_file):
        # a register the design declares, resets and loads but never reads
        out = tmp_path / "out"
        assert _run(capsys, "build", spec_file, "-o", out)[0] == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        real = cli.build_design
        monkeypatch.setattr(cli, "build_design", lambda spec, mapped:
                            with_unread_register(real(spec, mapped)))
        code, stdout, stderr = _run(capsys, "build", spec_file, "-o", out)
        assert code == 2
        assert "[3/5] hdl:" in stdout and "[4/5]" not in stdout
        assert "f: register s_3 is never read" in stderr
        assert stderr.count("\n") == 1
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


class TestSimulate:
    def test_result_lines(self, capsys, spec_file):
        code, stdout, _ = _run(capsys, "simulate", spec_file,
                               "--inputs", "a=2,b=3,c=4")
        assert code == 0
        assert "result = 10 (0x0000000A)" in stdout
        assert "done cycle 3 (3 with stalls), 4 enabled cycles total" in stdout

    def test_trace_does_not_overwrite_the_spec(self, capsys, spec_file):
        code, stdout, stderr = _run(capsys, "simulate", spec_file,
                                    "--inputs", "a=2,b=3,c=4",
                                    "--trace", spec_file)
        assert (code, stdout) == (1, "")
        assert stderr == \
            f"cigen: error: cannot write {spec_file}: it is an input\n"
        assert spec_file.read_text() == MAC_TEXT

    def test_trace_jsonl(self, tmp_path, capsys, spec_file):
        trace = tmp_path / "trace.jsonl"
        code, stdout, _ = _run(capsys, "simulate", spec_file,
                               "--inputs", "a=2,b=3,c=4", "--trace", trace)
        assert code == 0
        assert f"trace: 6 rows -> {trace}" in stdout
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(rows) == 6
        for row in rows:
            assert set(row) == {"cycle", "clk_en", "start", "dataa", "datab",
                                "regs", "done", "result"}
        assert [r["done"] for r in rows] == [0, 0, 0, 1, 0, 0]

    def test_gaps_shift_the_stalled_count(self, capsys, spec_file):
        code, stdout, _ = _run(capsys, "simulate", spec_file,
                               "--inputs", "a=2,b=3,c=4",
                               "--clk-en-gaps", "1,2")
        assert code == 0
        assert "done cycle 3 (5 with stalls)" in stdout

    def test_negative_signed_result(self, capsys, div_file):
        code, stdout, _ = _run(capsys, "simulate", div_file,
                               "--inputs", "a=-7,b=2")
        assert code == 0
        assert "result = -3 (0xFFFFFFFD)" in stdout

    def test_divide_by_zero_is_a_user_error(self, capsys, div_file):
        code, _, stderr = _run(capsys, "simulate", div_file,
                               "--inputs", "a=7,b=0")
        assert code == 1
        assert "zero" in stderr

    @pytest.mark.parametrize("inputs", ["a=2,b=3", "a=2,b=3,c=4,d=5",
                                        "a=2,b=2147483648,c=4",
                                        "a=x,b=3,c=4",
                                        "a 2"])
    def test_bad_inputs_exit_one(self, capsys, spec_file, inputs):
        code, _, stderr = _run(capsys, "simulate", spec_file,
                               "--inputs", inputs)
        assert code == 1
        assert stderr.startswith("cigen: error:")


    def test_an_empty_input_part_is_skipped(self, capsys, spec_file):
        code, stdout, _ = _run(capsys, "simulate", spec_file,
                               "--inputs", "a=1,,b=2,c=3")
        assert code == 0
        assert "result = 5 (0x00000005)" in stdout

    def test_repeated_input_exits_one(self, capsys, spec_file):
        code, stdout, stderr = _run(capsys, "simulate", spec_file,
                                    "--inputs", "a=1,b=2, a =3,c=4")
        assert (code, stdout) == (1, "")
        assert stderr == "cigen: error: input 'a' is given more than once\n"

    @pytest.mark.parametrize("text, inputs, message", [
        (DIV_TEXT, "a=7,b=0", "reached the result port on enabled cycle 1"),
        (DIV_TEXT.replace("q = a / b;", "q = (a / b) + a;"), "a=7,b=0",
         "latched on enabled cycle 1"),
        (MAC_TEXT.replace("(a * b) + c", "(a / b) + c"), "a=5,b=0,c=1",
         "latched on enabled cycle 2"),
    ])
    def test_divide_message_names_its_cycle_once(self, tmp_path, capsys,
                                                 text, inputs, message):
        path = tmp_path / "d.ci"
        path.write_text(text)
        code, _, stderr = _run(capsys, "simulate", path, "--inputs", inputs)
        assert code == 1
        assert stderr == f"cigen: error: divide by zero: zero divisor {message}\n"

    @pytest.mark.parametrize("flags, message", [
        (["--reset-at=-4"], "--reset-at: cycle -4 is negative"),
        (["--clk-en-gaps=3,-1"], "--clk-en-gaps: cycle -1 is negative"),
        (["--start-cycle", "-3"], "--start-cycle: cycle -3 is negative"),
        (["--reset-at=-4", "--clk-en-gaps=-1", "--start-cycle", "-3"],
         "--clk-en-gaps: cycle -1 is negative"),
        (["--reset-at", "1,x"], "bad cycle list '1,x'"),
    ])
    def test_negative_cycle_exits_one(self, capsys, spec_file, flags, message):
        code, stdout, stderr = _run(capsys, "simulate", spec_file,
                                    "--inputs", "a=2,b=3,c=4", *flags)
        assert code == 1
        assert stdout == ""
        assert stderr == f"cigen: error: {message}\n"

    def test_resets_every_third_cycle_still_finish(self, capsys, spec_file):
        # each reset comes two enabled cycles into the three the unit needs;
        # after the last one, at cycle 398, it finishes
        resets = ",".join(map(str, range(2, 399, 3)))
        code, stdout, _ = _run(capsys, "simulate", spec_file,
                               "--inputs", "a=2,b=3,c=4", "--reset-at", resets)
        assert code == 0
        assert "result = 10 (0x0000000A)" in stdout
        assert "done cycle 3 (402 with stalls)" in stdout

    def test_late_start_is_not_stepped_to(self, capsys, spec_file):
        began = time.perf_counter()
        code, stdout, _ = _run(capsys, "simulate", spec_file,
                               "--inputs", "a=2,b=3,c=4",
                               "--start-cycle", "1000000000000")
        assert time.perf_counter() - began < 1.0
        assert code == 0
        assert "done cycle 3 (1000000000003 with stalls)" in stdout


class TestPatch:
    @pytest.fixture
    def c_file(self, tmp_path):
        path = tmp_path / "prog.c"
        path.write_text((GOLDEN_DIR / "fixture.c").read_text())
        return path

    def test_default_writes_a_copy(self, tmp_path, capsys, spec_file, c_file):
        code, stdout, _ = _run(capsys, "patch", spec_file, c_file)
        assert code == 0
        assert "patched 1 call site(s) with CI_F(a, b, c)" in stdout
        patched = tmp_path / "prog.ci.c"
        assert patched.read_text() == \
            (GOLDEN_DIR / "fixture_patched.c").read_text()
        assert c_file.read_text() == (GOLDEN_DIR / "fixture.c").read_text()
        assert (tmp_path / "ci_f.h").read_text() == \
            (GOLDEN_DIR / "ci_f.h").read_text()

    def test_in_place_rewrites_the_file(self, capsys, spec_file, c_file):
        code, _, _ = _run(capsys, "patch", spec_file, c_file, "--in-place")
        assert code == 0
        assert c_file.read_text() == \
            (GOLDEN_DIR / "fixture_patched.c").read_text()

    @pytest.mark.parametrize("eol", ["\r\n", "\r"], ids=["cr-lf", "cr"])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_line_ends_are_kept(self, tmp_path, capsys, spec_file, in_place,
                                eol):
        def golden(name: str) -> bytes:
            return (GOLDEN_DIR / name).read_bytes().replace(b"\n", eol.encode())

        source = tmp_path / "prog.c"
        source.write_bytes(golden("fixture.c"))
        code, _, _ = _run(capsys, "patch", spec_file, source,
                          *["--in-place"] * in_place)
        assert code == 0
        out = source if in_place else tmp_path / "prog.ci.c"
        assert out.read_bytes() == golden("fixture_patched.c")
        assert (tmp_path / "ci_f.h").read_bytes() == \
            (GOLDEN_DIR / "ci_f.h").read_bytes()

    def test_second_pass_exits_one(self, capsys, spec_file, c_file):
        assert _run(capsys, "patch", spec_file, c_file, "--in-place")[0] == 0
        code, _, stderr = _run(capsys, "patch", spec_file, c_file,
                               "--in-place")
        assert code == 1
        assert "no occurrence" in stderr
        assert c_file.read_text() == \
            (GOLDEN_DIR / "fixture_patched.c").read_text()

    def test_header_dir(self, tmp_path, capsys, spec_file, c_file):
        include = tmp_path / "include"
        code, stdout, _ = _run(capsys, "patch", spec_file, c_file,
                               "--header-dir", include)
        assert code == 0
        assert (include / "ci_f.h").exists()
        assert str(include / "ci_f.h") in stdout

    def test_output_path_taken_by_a_directory_writes_nothing(
            self, tmp_path, capsys, spec_file, c_file):
        (tmp_path / "prog.ci.c").mkdir()
        code, _, stderr = _run(capsys, "patch", spec_file, c_file)
        assert code == 1
        assert stderr.count("\n") == 1
        assert "prog.ci.c: it is a directory" in stderr
        assert not (tmp_path / "ci_f.h").exists()
        assert c_file.read_text() == (GOLDEN_DIR / "fixture.c").read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["f.ci", "prog.c", "prog.ci.c"]

    def test_header_path_taken_by_a_directory_leaves_the_source(
            self, tmp_path, capsys, spec_file, c_file):
        (tmp_path / "ci_f.h").mkdir()
        code, _, stderr = _run(capsys, "patch", spec_file, c_file,
                               "--in-place")
        assert code == 1
        assert stderr.count("\n") == 1
        assert "ci_f.h: it is a directory" in stderr
        assert (tmp_path / "ci_f.h").is_dir()
        assert c_file.read_text() == (GOLDEN_DIR / "fixture.c").read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["ci_f.h", "f.ci", "prog.c"]

    def test_failed_header_write_leaves_the_source(self, tmp_path, capsys,
                                                   spec_file, c_file):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code, _, stderr = _run(capsys, "patch", spec_file, c_file,
                               "--in-place", "--header-dir", blocker)
        assert code == 1
        assert stderr.count("\n") == 1
        assert c_file.read_text() == (GOLDEN_DIR / "fixture.c").read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["blocker", "f.ci", "prog.c"]

    def test_source_named_like_the_header_is_not_overwritten(
            self, tmp_path, capsys, spec_file):
        source = tmp_path / "ci_f.h"
        source.write_text((GOLDEN_DIR / "fixture.c").read_text())
        code, _, stderr = _run(capsys, "patch", spec_file, source)
        assert code == 1
        assert stderr == f"cigen: error: cannot write {source}: it is an input\n"
        assert source.read_text() == (GOLDEN_DIR / "fixture.c").read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ci_f.h", "f.ci"]

    def test_header_and_output_in_one_file_are_refused(self, tmp_path, capsys,
                                                       spec_file):
        source = tmp_path / "ci_f.h"
        source.write_text((GOLDEN_DIR / "fixture.c").read_text())
        code, _, stderr = _run(capsys, "patch", spec_file, source, "--in-place")
        assert code == 1
        assert stderr == \
            f"cigen: error: cannot write {source}: it is another output\n"
        assert source.read_text() == (GOLDEN_DIR / "fixture.c").read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ci_f.h", "f.ci"]

    def test_in_place_keeps_the_permission_bits(self, capsys, spec_file,
                                                c_file):
        c_file.chmod(0o640)
        assert _run(capsys, "patch", spec_file, c_file, "--in-place")[0] == 0
        assert c_file.stat().st_mode & 0o777 == 0o640


class TestReport:
    def test_human_readable(self, capsys, spec_file):
        code, stdout, _ = _run(capsys, "report", spec_file)
        assert code == 0
        assert "f (opcode 0)" in stdout
        assert "speedup:     1.000x" in stdout
        assert "energy" not in stdout

    def test_no_components(self, capsys, tmp_path):
        path = tmp_path / "id.ci"
        path.write_text("ci t(opcode=0) { input a: signed<8>; "
                        "output y: signed<8>; y = a; }")
        code, stdout, _ = _run(capsys, "report", path)
        assert code == 0
        assert "  components:  none\n" in stdout

    def test_energy_line(self, capsys, spec_file):
        code, stdout, _ = _run(capsys, "report", spec_file,
                               "--power", "298", "--time", "10")
        assert code == 0
        assert "energy:      E = 2980.000 uJ (298.0 mW x 10.0 ms)" in stdout

    def test_json_validates(self, capsys, spec_file):
        code, stdout, _ = _run(capsys, "report", spec_file, "--json",
                               "--power", "298", "--time", "10")
        assert code == 0
        report = json.loads(stdout)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["energy"] == {"P": 298.0, "T": 10.0, "E": 2980.0}

    def test_config_supplies_power_and_time(self, tmp_path, capsys,
                                            spec_file):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"power_mw": 100, "time_ms": 2,
                                      "costs": {"mul": 10}}))
        code, stdout, _ = _run(capsys, "report", spec_file, "--json",
                               "--config", config)
        assert code == 0
        report = json.loads(stdout)
        assert report["energy"]["E"] == 200.0
        assert report["sw_cycles"] == 11

    def test_flags_override_config(self, tmp_path, capsys, spec_file):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"power_mw": 1, "time_ms": 1}))
        code, stdout, _ = _run(capsys, "report", spec_file, "--json",
                               "--config", config, "--power", "298",
                               "--time", "10")
        assert code == 0
        assert json.loads(stdout)["energy"]["E"] == 2980.0

    def test_negative_zero_is_reported_as_zero(self, tmp_path, capsys, spec_file):
        # the flag and config paths print and write an unsigned zero
        code, stdout, _ = _run(capsys, "report", spec_file,
                               "--power", "298", "--time", "-0.0")
        assert code == 0
        assert "energy:      E = 0.000 uJ (298.0 mW x 0.0 ms)" in stdout
        config = tmp_path / "cfg.json"
        config.write_text('{"power_mw": -0.0, "time_ms": 10}')
        assert _run(capsys, "build", spec_file, "-o", tmp_path / "out",
                    "--vectors", "16", "--config", config)[0] == 0
        code, stdout, _ = _run(capsys, "report", spec_file, "--json",
                               "--config", config)
        assert code == 0
        for text in (stdout, (tmp_path / "out" / "report.json").read_text()):
            assert '"energy": {\n    "P": 0.0,\n    "T": 10.0,\n    "E": 0.0\n  }' \
                in text


    @pytest.mark.parametrize("flags", [("--power", "inf", "--time", "0"),
                                       ("--power", "1", "--time", "nan"),
                                       ("--power", "-1", "--time", "1")],
                             ids=["inf", "nan", "negative"])
    def test_power_and_time_flags_are_finite_and_non_negative(
            self, capsys, spec_file, flags):
        code, stdout, stderr = _run(capsys, "report", spec_file, *flags)
        assert (code, stdout) == (1, "")
        assert stderr.startswith("cigen: error: --")
        assert "must be finite and non-negative" in stderr
        assert stderr.count("\n") == 1

    def test_energy_beyond_a_float_is_refused(self, capsys, spec_file):
        code, stdout, stderr = _run(capsys, "report", spec_file, "--json",
                                    "--power", "1e308", "--time", "1e308")
        assert (code, stdout) == (1, "")
        assert stderr == ("cigen: error: energy 1e+308 mW x 1e+308 ms "
                          "is too large to report\n")

    def test_speedup_beyond_a_float_is_refused(self, tmp_path, capsys,
                                               spec_file):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"costs": {"add": 10**400}}))
        code, stdout, stderr = _run(capsys, "report", spec_file,
                                    "--config", config)
        assert (code, stdout) == (1, "")
        assert stderr == \
            "cigen: error: software cycle count is too large to report\n"


# Arbitrary JSON documents whose object keys are often the config's own.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["intrinsic", "costs", "power_mw", "time_ms",
                         "add", "mul", "divs", "modu"]) | st.text(max_size=6),
        inner, max_size=4),
    max_leaves=12)


class TestAnyConfig:
    @settings(max_examples=200, deadline=None)
    @given(_JSON_VALUES.map(json.dumps))
    @example("[" * 200_000)
    @example('{"costs": {"add": 1' + "0" * 5000 + "}}")
    @example(json.dumps({"costs": {"add": 10**400}}))
    @example(json.dumps({"power_mw": 10**400, "time_ms": 1}))
    @example('{"power_mw": 1e308, "time_ms": 1e308}')
    @example(json.dumps({"costs": {"a\nb": 1}}))
    def test_report_exits_zero_or_one_with_one_line(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            spec, config = Path(tmp, "f.ci"), Path(tmp, "cfg.json")
            spec.write_text(MAC_TEXT)
            config.write_text(text)
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(["report", str(spec), "--config", str(config)])
        assert code in (0, 1)
        assert stderr.getvalue().count("\n") == code


def _snapshot(directory: Path) -> dict[str, tuple[bytes, int]]:
    """Every file under directory, hidden ones included: its bytes and mode."""
    return {str(path.relative_to(directory)): (path.read_bytes(),
                                               path.stat().st_mode)
            for path in sorted(directory.rglob("*")) if path.is_file()}


def _fail_write(monkeypatch, nth: int) -> None:
    """Make cli's nth new file fail after it is created, as a full disk
    would."""
    opened = []

    def create(file, mode="r", *args, **kwargs):
        if "x" not in mode:
            return open(file, mode, *args, **kwargs)
        opened.append(file)
        handle = open(file, mode, *args, **kwargs)
        if len(opened) == nth:
            handle.close()
            raise OSError(errno.ENOSPC, "No space left on device", str(file))
        return handle

    monkeypatch.setattr(cli, "open", create, raising=False)


class TestAllOrNothingWrites:
    """A command whose write fails exits 1 and leaves every target, and
    every other file, as it was: no temporary or set-aside file remains."""

    ARTIFACTS = ("f.vhd", "ci_f.h", "report.json")

    def _old_out(self, tmp_path) -> Path:
        out = tmp_path / "out"
        out.mkdir()
        for name in self.ARTIFACTS:
            (out / name).write_text(f"old {name}\n")
        (out / "notes.txt").write_text("unrelated\n")
        (out / "report.json").chmod(0o600)
        return out

    def _failed(self, capsys, *argv) -> str:
        code, stdout, stderr = _run(capsys, *argv)
        assert code == 1
        assert stderr.startswith("cigen: error:")
        assert stderr.count("\n") == 1
        return stdout

    def test_failed_third_artifact_leaves_out_as_it_was(
            self, tmp_path, capsys, monkeypatch, spec_file):
        out = self._old_out(tmp_path)
        before = _snapshot(out)
        _fail_write(monkeypatch, 3)
        stdout = self._failed(capsys, "build", spec_file, "-o", out)
        assert "[5/5]" not in stdout
        assert _snapshot(out) == before

    def test_failed_build_into_a_missing_out_makes_no_directory(
            self, tmp_path, capsys, monkeypatch, spec_file):
        before = sorted(tmp_path.iterdir())
        _fail_write(monkeypatch, 3)
        self._failed(capsys, "build", spec_file,
                     "-o", tmp_path / "new" / "deeper" / "out")
        assert sorted(tmp_path.iterdir()) == before

    def test_failed_rename_puts_back_every_target(
            self, tmp_path, capsys, monkeypatch, spec_file):
        out = self._old_out(tmp_path)
        (out / "ci_f.h").unlink()   # a new target, placed before the failure
        before = _snapshot(out)
        rename = os.rename

        def fail_onto_report(src, dst):   # the new report, not the old
            if Path(dst).name == "report.json" and str(src).endswith(".tmp"):
                raise OSError(errno.EIO, "Input/output error", str(dst))
            rename(src, dst)

        monkeypatch.setattr(os, "rename", fail_onto_report)
        self._failed(capsys, "build", spec_file, "-o", out)
        assert _snapshot(out) == before

    def test_replaced_artifacts_keep_their_mode_bits(self, tmp_path, capsys,
                                                     spec_file):
        out = self._old_out(tmp_path)
        (out / "f.vhd").chmod(0o751)
        assert _run(capsys, "build", spec_file, "-o", out)[0] == 0
        assert (out / "f.vhd").read_bytes() == \
            (GOLDEN_DIR / "f.vhd").read_bytes()
        assert (out / "f.vhd").stat().st_mode & 0o7777 == 0o751
        assert (out / "report.json").stat().st_mode & 0o7777 == 0o600
        assert sorted(p.name for p in out.iterdir()) == \
            sorted([*self.ARTIFACTS, "notes.txt"])

    def test_failed_in_place_patch_leaves_the_source(self, tmp_path, capsys,
                                                     monkeypatch, spec_file):
        source = tmp_path / "prog.c"
        source.write_text((GOLDEN_DIR / "fixture.c").read_text())
        (tmp_path / "ci_f.h").write_text("old header\n")
        before = _snapshot(tmp_path)
        _fail_write(monkeypatch, 2)   # the header is written first
        self._failed(capsys, "patch", spec_file, source, "--in-place")
        assert _snapshot(tmp_path) == before

    def test_failed_trace_leaves_the_old_trace(self, tmp_path, capsys,
                                               monkeypatch, spec_file):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("old\n")
        before = _snapshot(tmp_path)
        _fail_write(monkeypatch, 1)
        self._failed(capsys, "simulate", spec_file, "--inputs", "a=2,b=3,c=4",
                     "--trace", trace)
        assert _snapshot(tmp_path) == before

    def test_out_under_a_regular_file_reports_the_first_error(
            self, tmp_path, capsys, spec_file):
        (tmp_path / "file").write_text("not a directory\n")
        before = _snapshot(tmp_path)
        code, _, stderr = _run(capsys, "build", spec_file,
                               "-o", tmp_path / "file" / "x" / "out")
        assert code == 1
        assert "Not a directory" in stderr
        assert _snapshot(tmp_path) == before

    def test_out_that_cannot_be_made_reports_the_first_error(
            self, tmp_path, capsys, monkeypatch, spec_file):
        def refuse(directory, *args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied",
                                  str(directory))

        monkeypatch.setattr(Path, "mkdir", refuse)
        code, _, stderr = _run(capsys, "build", spec_file,
                               "-o", tmp_path / "new" / "out")
        assert code == 1
        assert stderr == ("cigen: error: [Errno 13] Permission denied: "
                          f"'{tmp_path / 'new'}'\n")

    def test_failed_write_through_a_link_puts_back_the_rest(
            self, tmp_path, capsys, spec_file):
        out = self._old_out(tmp_path)
        (out / "report.json").unlink()
        (out / "report.json").symlink_to(tmp_path / "missing" / "r.json")
        before = _snapshot(out)
        self._failed(capsys, "build", spec_file, "-o", out)
        assert _snapshot(out) == before
        assert (out / "report.json").is_symlink()


class TestTargetsThatAreNotPlainFiles:
    """A target that is not a plain file of one link is written through in
    place, as open(path, "w") would: it is never renamed aside or over."""

    INPUTS = ("--inputs", "a=2,b=3,c=4")

    def _trace(self, capsys, spec_file, target) -> str:
        code, stdout, _ = _run(capsys, "simulate", spec_file, *self.INPUTS,
                               "--trace", target)
        assert code == 0
        assert f"trace: 6 rows -> {target}" in stdout
        return stdout

    def test_trace_into_a_fifo(self, tmp_path, capsys, spec_file):
        plain = tmp_path / "plain.jsonl"
        self._trace(capsys, spec_file, plain)
        fifo = tmp_path / "trace.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            self._trace(capsys, spec_file, fifo)
            chunks = iter(lambda: os.read(reader, 1 << 16), b"")
            assert b"".join(chunks) == plain.read_bytes()
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["f.ci", "plain.jsonl", "trace.fifo"]

    def test_trace_through_a_dangling_symlink(self, tmp_path, capsys,
                                              spec_file):
        plain = tmp_path / "plain.jsonl"
        self._trace(capsys, spec_file, plain)
        link = tmp_path / "trace.jsonl"
        link.symlink_to(tmp_path / "real.jsonl")
        self._trace(capsys, spec_file, link)
        assert link.is_symlink()
        assert (tmp_path / "real.jsonl").read_bytes() == plain.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["f.ci", "plain.jsonl", "real.jsonl", "trace.jsonl"]

    def test_linked_artifacts_are_updated_in_place(self, tmp_path, capsys,
                                                   spec_file):
        out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
        out.mkdir()
        elsewhere.mkdir()
        (elsewhere / "f.vhd").write_text("old\n")
        (out / "f.vhd").symlink_to(elsewhere / "f.vhd")
        (elsewhere / "ci_f.h").write_text("old\n")
        os.link(elsewhere / "ci_f.h", out / "ci_f.h")
        assert _run(capsys, "build", spec_file, "-o", out)[0] == 0
        assert (out / "f.vhd").is_symlink()
        for name in ("f.vhd", "ci_f.h"):
            assert (elsewhere / name).read_bytes() == \
                (GOLDEN_DIR / name).read_bytes()
        assert sorted(p.name for p in out.iterdir()) == \
            ["ci_f.h", "f.vhd", "report.json"]


def _file_ids(directory: Path, names) -> dict[str, tuple[int, int, int]]:
    """Each named file's inode, mode and mtime in nanoseconds."""
    return {name: (info.st_ino, info.st_mode, info.st_mtime_ns)
            for name in names for info in [os.stat(directory / name)]}


def _record_opens(monkeypatch) -> list[str]:
    """The modes of every file cli opens from now on."""
    modes = []

    def recording(file, mode="r", *args, **kwargs):
        modes.append(mode)
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", recording, raising=False)
    return modes


class TestUnchangedTargets:
    """A plain target that already holds the bytes a command would write is
    left untouched: no temporary file, the same inode, mode and mtime.  One
    that differs, even in bytes alone, is replaced as before.  spec_file
    holds the text of tests/golden/f.ci."""

    ARTIFACTS = ("f.vhd", "ci_f.h", "report.json")

    def _all_replaced(self, out: Path, before: dict) -> None:
        after = _file_ids(out, self.ARTIFACTS)
        for name in self.ARTIFACTS:
            assert after[name][0] != before[name][0]
            assert (out / name).read_bytes() == \
                (GOLDEN_DIR / name).read_bytes()

    def test_rebuild_into_the_same_out_touches_nothing(
            self, tmp_path, capsys, monkeypatch, spec_file):
        out = tmp_path / "out"
        assert _run(capsys, "build", spec_file, "-o", out)[0] == 0
        before = _file_ids(out, self.ARTIFACTS)
        modes = _record_opens(monkeypatch)
        code, stdout, _ = _run(capsys, "build", spec_file, "-o", out)
        assert code == 0
        assert stdout.endswith(f"[5/5] write: {out / 'f.vhd'} "
                               f"{out / 'ci_f.h'} {out / 'report.json'}\n")
        assert _file_ids(out, self.ARTIFACTS) == before
        assert not [mode for mode in modes if "x" in mode or "w" in mode]
        assert sorted(p.name for p in out.iterdir()) == sorted(self.ARTIFACTS)

    def test_expression_edit_replaces_only_what_changed(self, tmp_path, capsys,
                                                        spec_file):
        out = tmp_path / "out"
        assert _run(capsys, "build", spec_file, "-o", out)[0] == 0
        before = _file_ids(out, self.ARTIFACTS)
        spec_file.write_text(MAC_TEXT.replace("(a * b) + c", "(a * b) - c"))
        assert _run(capsys, "build", spec_file, "-o", out)[0] == 0
        after = _file_ids(out, self.ARTIFACTS)
        assert after["f.vhd"][0] != before["f.vhd"][0]
        # subtracting needs the same ADD_SUB unit, so the report is the same
        assert after["ci_f.h"] == before["ci_f.h"]
        assert after["report.json"] == before["report.json"]
        fresh = tmp_path / "fresh"
        assert _run(capsys, "build", spec_file, "-o", fresh)[0] == 0
        assert _snapshot(out) == _snapshot(fresh)
        assert (fresh / "f.vhd").read_bytes() != \
            (GOLDEN_DIR / "f.vhd").read_bytes()

    @pytest.mark.parametrize("head", ["", "/* café, naïve */\n"],
                             ids=["fixture", "not-ascii"])
    def test_second_patch_touches_nothing(self, tmp_path, capsys,
                                          monkeypatch, spec_file, head):
        source = tmp_path / "prog.c"
        source.write_text(head + (GOLDEN_DIR / "fixture.c").read_text())
        assert _run(capsys, "patch", spec_file, source)[0] == 0
        written = ("ci_f.h", "prog.ci.c")
        before = _file_ids(tmp_path, written)
        modes = _record_opens(monkeypatch)
        code, stdout, _ = _run(capsys, "patch", spec_file, source)
        assert code == 0
        assert stdout.endswith(f"wrote {tmp_path / 'prog.ci.c'}\n")
        assert _file_ids(tmp_path, written) == before
        assert not [mode for mode in modes if "x" in mode or "w" in mode]
        assert (tmp_path / "prog.ci.c").read_text() == \
            head + (GOLDEN_DIR / "fixture_patched.c").read_text()

    @pytest.mark.parametrize("other", [
        lambda golden: golden.swapcase(),
        lambda golden: b"\xff" * len(golden),   # not UTF-8
    ], ids=["other-bytes", "not-utf8"])
    def test_same_size_other_bytes_are_replaced(self, tmp_path, capsys,
                                                spec_file, other):
        out = tmp_path / "out"
        out.mkdir()
        for name in self.ARTIFACTS:
            old = other((GOLDEN_DIR / name).read_bytes())
            assert len(old) == os.path.getsize(GOLDEN_DIR / name)
            (out / name).write_bytes(old)
        before = _file_ids(out, self.ARTIFACTS)
        assert _run(capsys, "build", spec_file, "-o", out)[0] == 0
        self._all_replaced(out, before)

    def test_unreadable_old_artifact_is_replaced(self, tmp_path, capsys,
                                                monkeypatch, spec_file):
        out = tmp_path / "out"
        assert _run(capsys, "build", spec_file, "-o", out)[0] == 0
        before = _file_ids(out, self.ARTIFACTS)

        def refuse_reads(file, mode="r", *args, **kwargs):
            if "r" in mode:
                raise PermissionError(errno.EACCES, "Permission denied",
                                      str(file))
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", refuse_reads, raising=False)
        assert _run(capsys, "build", spec_file, "-o", out)[0] == 0
        self._all_replaced(out, before)


@pytest.fixture
def odd_thresholds():
    """Collection thresholds no command sets, restored after the test."""
    saved = gc.get_threshold()
    gc.set_threshold(1234, 5, 6)
    yield (1234, 5, 6)
    gc.set_threshold(*saved)


class TestCollectionPolicy:
    """main raises the young generation's threshold while a command runs
    and gives the caller its own thresholds back however it ends."""

    @pytest.mark.parametrize("exit_code", [0, 1, 2])
    def test_thresholds_come_back_after_each_exit_code(
            self, capsys, monkeypatch, spec_file, odd_thresholds, exit_code):
        seen = []
        real = cli.map_design

        def map_design(spec):
            seen.append(gc.get_threshold())
            if exit_code == 2:
                raise cli.InternalCheckError("injected")
            return real(spec)

        monkeypatch.setattr(cli, "map_design", map_design)
        spec = spec_file if exit_code != 1 else spec_file.with_name("ghost.ci")
        assert _run(capsys, "report", spec)[0] == exit_code
        assert gc.get_threshold() == odd_thresholds
        assert all(threshold[0] > odd_thresholds[0] for threshold in seen)

    def test_thresholds_come_back_after_an_argument_error(self,
                                                          odd_thresholds):
        with pytest.raises(SystemExit):
            cli.main(["build"])
        assert gc.get_threshold() == odd_thresholds

    def test_chain_build_runs_no_young_collection(self, tmp_path, capsys):
        spec = tmp_path / "chain.ci"
        spec.write_text(chain_text(960))
        young = []

        def count(phase, info):
            if phase == "start" and info["generation"] == 0:
                young.append(info)

        gc.collect()
        gc.callbacks.append(count)
        try:
            code = cli.main(["build", str(spec), "-o", str(tmp_path / "out"),
                             "--vectors", "4"])
        finally:
            gc.callbacks.remove(count)
        assert code == 0, capsys.readouterr().err
        assert young == []


def _spliced(text: str) -> st.SearchStrategy[bytes]:
    """text's bytes with a run of arbitrary bytes put in place of a slice."""
    data = text.encode()
    return st.tuples(st.integers(0, len(data)), st.integers(0, 8),
                     st.binary(max_size=8)).map(
        lambda cut: data[:cut[0]] + cut[2] + data[cut[0] + cut[1]:])


class TestAnyInputBytes:
    """Arbitrary bytes as the spec, the C source or the config end in exit
    0, 1 or 2 and never in a traceback; a failed command leaves -o and the C
    source as they were."""

    @staticmethod
    def _main(*argv) -> tuple[int, str]:
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            code = cli.main([str(a) for a in argv])
        assert code in (0, 1, 2)
        assert stderr.getvalue().count("\n") == (code != 0)
        return code, stderr.getvalue()

    def _build(self, spec_bytes: bytes, config_bytes: bytes | None) -> int:
        with tempfile.TemporaryDirectory() as tmp:
            spec, config, out = (Path(tmp, name)
                                 for name in ("f.ci", "cfg.json", "out"))
            spec.write_bytes(spec_bytes)
            out.mkdir()
            (out / "f.vhd").write_text("old\n")
            (out / "notes.txt").write_text("unrelated\n")
            before = _snapshot(out)
            argv = ["build", spec, "-o", out, "--vectors", "4"]
            if config_bytes is not None:
                config.write_bytes(config_bytes)
                argv += ["--config", config]
            code, _ = self._main(*argv)
            if code:
                assert _snapshot(out) == before
            return code

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=200) | _spliced(MAC_TEXT))
    @example(MAC_TEXT.encode())
    @example(MAC_TEXT.replace("signed<32>", f"signed<{'9' * 5000}>", 1).encode())
    @example(MAC_TEXT.replace("opcode=0", f"opcode={'1' * 4301}", 1).encode())
    @example(b"\xff\xfe" + MAC_TEXT.encode())
    def test_spec_bytes(self, data):
        self._build(data, None)

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=200)
           | _spliced('{"intrinsic": "my_ci", "costs": {"mul": 5}, '
                      '"power_mw": 298, "time_ms": 10}'))
    @example(b'{"power_mw": 1' + b"0" * 5000 + b"}")
    @example(b"[" * 100_000)
    @example(b"{}")
    def test_config_bytes(self, data):
        self._build(MAC_TEXT.encode(), data)

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=200)
           | _spliced((GOLDEN_DIR / "fixture.c").read_text()), st.booleans())
    @example((GOLDEN_DIR / "fixture.c").read_bytes(), True)
    @example(b"int f(int a, int b, int c) { return a * b + c; } /* \xff */",
             False)
    def test_c_source_bytes(self, data, in_place):
        with tempfile.TemporaryDirectory() as tmp:
            spec, source = Path(tmp, "f.ci"), Path(tmp, "prog.c")
            spec.write_text(MAC_TEXT)
            source.write_bytes(data)
            before = _snapshot(Path(tmp))
            code, _ = self._main("patch", spec, source,
                                 *["--in-place"] * in_place)
            if code:
                assert _snapshot(Path(tmp)) == before


# Every text argparse prints, by golden file name; the file holds the
# stream that is not empty (stdout for help, exit 0; stderr, exit 1).  A
# command parsed by its own subparser alone must still print the full
# parser's texts.  argparse's layout differs between Python versions: these
# are 3.11's, at 80 columns.
CLI_TEXTS = {
    "help": ["-h"],
    "no_command": [],
    "unknown_command": ["frobnicate"],
    "build_help": ["build", "-h"],
    "simulate_help": ["simulate", "-h"],
    "patch_help": ["patch", "-h"],
    "report_help": ["report", "-h"],
    "build_missing_out": ["build", "f.ci"],
    "simulate_missing_inputs": ["simulate", "f.ci"],
    "patch_missing_source": ["patch", "f.ci"],
    "report_missing_spec": ["report"],
    "build_bad_vectors": ["build", "f.ci", "-o", "out", "--vectors", "abc"],
    "build_unrecognized": ["build", "f.ci", "-o", "out", "--bogus"],
    "report_unrecognized": ["report", "f.ci", "extra"],
}


class TestParser:
    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["frobnicate"])
        assert info.value.code == 1

    def test_no_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == 1

    @pytest.mark.parametrize("name", list(CLI_TEXTS))
    def test_texts_match_goldens(self, capsys, monkeypatch, name):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as info:
            cli.main(CLI_TEXTS[name])
        code = info.value.code
        assert code == (0 if name.endswith("help") else 1)
        golden = (GOLDEN_DIR / "cli" /
                  f"{name}.{'stderr' if code else 'stdout'}").read_text()
        assert capsys.readouterr() == (("", golden) if code else (golden, ""))

    def test_a_command_builds_only_its_own_subparser(self, tmp_path, capsys,
                                                     monkeypatch, spec_file):
        made = []
        init = cli._Parser.__init__

        def counted(parser, *args, **kwargs):
            made.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        assert _run(capsys, "build", spec_file, "-o", tmp_path / "out")[0] == 0
        assert made == ["cigen build"]

    def test_a_command_leaves_few_objects_in_cycles(self, capsys, spec_file):
        # the four-command parser left 231 objects in cycles per command
        calls = 20
        gc.collect()
        gc.disable()
        try:
            for _ in range(calls):
                assert _run(capsys, "report", spec_file)[0] == 0
            cyclic = gc.collect()
        finally:
            gc.enable()
        assert cyclic <= 100 * calls


SRC = Path(cigen.__file__).parent.parent
ROOT = SRC.parent


def _fresh(code: str, *args: str, cwd: Path = ROOT) -> list[str]:
    """The last stdout line of code run in a new interpreter, split."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()


_LOADED = """
import sys
from cigen import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exit:
    code = exit.code
print(code, *sorted(m for m in sys.modules if m.startswith("cigen")))
"""

# what every command but -h loads for the spec alone
_SPEC = {"cigen", "cigen.cli", "cigen.errors", "cigen.frontend",
         "cigen.lpm", "cigen.mapper", "cigen.vhdl_ast"}


class TestImports:
    """A command imports only the modules it calls, and the names stay
    reachable as cigen.cli attributes, where bench/spans.py wraps them."""

    def test_import_cigen_loads_no_submodule(self):
        assert _fresh("import sys, cigen; print(sorted("
                      "m for m in sys.modules if m.startswith('cigen')))") \
            == ["['cigen']"]

    def test_the_package_keeps_its_public_names(self):
        homes = {"CiSpec": "frontend", "MappedDesign": "mapper",
                 "Stimulus": "sim", "build_design": "hdl",
                 "check_equivalence": "sim", "done_cycle_enabled": "mapper",
                 "emit_header": "cpatch", "emit_vhdl": "hdl",
                 "estimate_metrics": "metrics", "eval_reference": "sim",
                 "find_call_sites": "cpatch", "map_design": "mapper",
                 "parse_ci_spec": "frontend", "rewrite": "cpatch",
                 "simulate_ci": "sim", "validate_structure": "hdl"}
        code = f"""
import importlib
import cigen
assert set(cigen.__all__) <= set(dir(cigen)), dir(cigen)   # before any is read
names = {{}}
exec("from cigen import *", names)
homes = {homes!r}
assert cigen.__all__ == [*homes, "__version__"], cigen.__all__
assert all(names[name] is getattr(cigen, name) is
           getattr(importlib.import_module("cigen." + home), name)
           for name, home in homes.items())
print(len(names.keys() & set(cigen.__all__)), cigen.__version__)
"""
        assert _fresh(code) == [str(len(homes) + 1), "0.1.0"]

    @pytest.mark.parametrize("argv, loaded", [
        (["-h"], {"cigen", "cigen.cli", "cigen.errors"}),
        (["report", "f.ci"], _SPEC | {"cigen.metrics"}),
        (["patch", "f.ci", "fixture.c"], _SPEC | {"cigen.metrics", "cigen.cpatch"}),
        (["simulate", "f.ci", "--inputs", "a=2,b=3,c=4"],
         _SPEC | {"cigen.hdl", "cigen.sim"}),
        (["build", "f.ci", "-o", "out"],
         _SPEC | {"cigen.metrics", "cigen.cpatch", "cigen.hdl", "cigen.sim",
                  "cigen.fuzz"}),
    ], ids=["help", "report", "patch", "simulate", "build"])
    def test_a_command_loads_only_its_modules(self, tmp_path, argv, loaded):
        for name in ("f.ci", "fixture.c"):
            (tmp_path / name).write_bytes((GOLDEN_DIR / name).read_bytes())
        code, *modules = _fresh(_LOADED, *argv, cwd=tmp_path)
        assert code == "0"
        assert set(modules) == loaded

    def test_a_copy_of_the_package_runs_its_own_stages(self, tmp_path):
        # cli imports a command's stage modules relative to its own package,
        # so a copy under another name never runs cigen's
        shutil.copytree(SRC / "cigen", tmp_path / "cigen_copy",
                        ignore=shutil.ignore_patterns("__pycache__"))
        (tmp_path / "f.ci").write_bytes((GOLDEN_DIR / "f.ci").read_bytes())
        code = ("import sys\nfrom cigen_copy import cli\n"
                "print(cli.main(['report', 'f.ci']), 'cigen_copy.frontend' in "
                "sys.modules, 'cigen.frontend' in sys.modules)")
        assert _fresh(code, cwd=tmp_path) == ["0", "True", "False"]

    def test_the_bench_spans_see_every_call(self, tmp_path):
        # Recorder.install reads each wrapped name before any command has
        # bound it, and main must keep the wrappers it finds there
        (tmp_path / "fixture.c").write_bytes(
            (GOLDEN_DIR / "fixture.c").read_bytes())
        code = f"""
import contextlib, io, sys
sys.path.insert(0, {str(ROOT / "bench")!r})
import spans
import cigen.cli
recorder = spans.Recorder()
recorder.install()
reached = []
for argv in (["build", "-o", "out"], ["patch", "fixture.c"]):
    first = len(recorder.spans)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cigen.cli.main([argv[0], {str(GOLDEN_DIR / "f.ci")!r}, *argv[1:]]) == 0
    reached.append(",".join(sorted({{s[0] for s in recorder.spans[first:]}})))
print(*reached)
"""
        build = ["frontend.parse", "mapper.map", "hdl.build_design",
                 "hdl.validate", "hdl.emit", "fuzz.random_vectors",
                 "sim.check", "metrics.estimate", "cpatch.header"]
        patch = ["frontend.parse", "mapper.map", "cpatch.lex", "cpatch.match",
                 "cpatch.rewrite", "cpatch.header"]
        assert _fresh(code, cwd=tmp_path) == [",".join(sorted(build)),
                                               ",".join(sorted(patch))]
