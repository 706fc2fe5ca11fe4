"""End-to-end command line behavior."""

import contextlib
import io
import json
import os
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
    REPORT_SCHEMA,
    UNDEFINED_TEXT,
    WIRING_FAULTS,
    chain_text,
    done_one_step_late,
    nested_text,
)
import cigen
from cigen import cli
from cigen import vhdl_ast as ast
from cigen.frontend import MAX_EXPR_DEPTH
from cigen.hdl import Violation
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
        monkeypatch.setattr(
            cli, "validate_structure",
            lambda design: [Violation("name-collision", "f", "forced")])
        out = tmp_path / "out"
        code, _, stderr = _run(capsys, "build", spec_file, "-o", out)
        assert code == 2
        assert "internal check failed" in stderr
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
        assert "(name-collision: s_1 (signal vs entity))" in stderr
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

    def test_invalid_cost_writes_nothing(self, tmp_path, capsys, spec_file):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"costs": {"mul": 0}}))
        out = tmp_path / "out"
        self._refused(capsys, ["build", spec_file, "-o", out,
                               "--config", config], out)

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
                 if any(load.target.startswith("s_") for load in step.loads))
    step = proc.steps[index]
    dropped = next(load for load in step.loads if load.target.startswith("s_"))
    steps = list(proc.steps)
    steps[index] = step._replace(
        loads=tuple(load for load in step.loads if load is not dropped))
    return design._replace(architecture=design.architecture._replace(
        process=proc._replace(steps=tuple(steps))))


def _narrow_first_slice(design: ast.HdlDesign) -> ast.HdlDesign:
    proc = design.architecture.process
    first, *rest = proc.steps
    load = next(load for load in first.loads if isinstance(load.expr, ast.Slice))
    narrow = load._replace(expr=ast.Slice(load.expr.name,
                                          load.expr.width - 1))
    first = first._replace(loads=tuple(
        narrow if other is load else other for other in first.loads))
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
    ], ids=["swapped-operands", "dropped-load", "narrow-slice",
            "swapped-steps", "repeated-step", "late-done-every-vector-faults"])
    def test_mutated_design_is_refused(self, tmp_path, capsys, monkeypatch,
                                       text, mutate):
        self._build(tmp_path, capsys, monkeypatch, text, mutate)

    @pytest.mark.parametrize("mutate, message", WIRING_FAULTS)
    def test_wiring_fault_is_refused(self, tmp_path, capsys, monkeypatch,
                                     mutate, message):
        stderr = self._build(tmp_path, capsys, monkeypatch, MAC_TEXT, mutate)
        assert message in stderr


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


class TestParser:
    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["frobnicate"])
        assert info.value.code == 1

    def test_no_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == 1
