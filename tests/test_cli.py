"""End-to-end command line behavior."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from conftest import MAC_TEXT, GOLDEN_DIR, chain_text, nested_text
import cigen
from cigen import cli
from cigen import vhdl_ast as ast
from cigen.frontend import MAX_EXPR_DEPTH
from cigen.hdl import Violation
from cigen.lpm import ComponentKind
from cigen.metrics import REPORT_SCHEMA

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
            lambda design: [Violation("entity-ports", "f", "forced")])
        out = tmp_path / "out"
        code, _, stderr = _run(capsys, "build", spec_file, "-o", out)
        assert code == 2
        assert "internal check failed" in stderr
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

    def test_non_numeric_power(self, tmp_path, capsys, spec_file):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"power_mw": "x"}))
        out = tmp_path / "out"
        self._refused(capsys, ["build", spec_file, "-o", out,
                               "--config", config], out)

    def test_non_utf8_spec(self, tmp_path, capsys):
        spec = tmp_path / "bad.ci"
        spec.write_bytes(MAC_TEXT.encode() + b"\xff\xfe")
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

    def test_deeply_nested_c_parentheses(self, tmp_path, capsys, spec_file):
        deep = "(" * 600 + "a" + ")" * 600 + " * b + c"
        source = tmp_path / "deep.c"
        source.write_text(
            f"int g(int a, int b, int c) {{ return {deep}; }}\n"
            "int h(int a, int b, int c) { return (a * b) + c; }\n")
        code, _, stderr = _run(capsys, "patch", spec_file, source)
        assert code == 0, stderr
        patched = (tmp_path / "deep.ci.c").read_text()
        assert f"return {deep};" in patched
        assert "return CI_F(a, b, c);" in patched

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


def _swap_add_sub_operands(design: ast.HdlDesign) -> ast.HdlDesign:
    def swap(inst: ast.Instance) -> ast.Instance:
        if inst.kind is not ComponentKind.ADD_SUB:
            return inst
        ports = dict(inst.port_map)
        ports["dataa"], ports["datab"] = ports["datab"], ports["dataa"]
        return dataclasses.replace(
            inst, port_map=tuple((name, ports[name]) for name, _ in inst.port_map))
    arch = design.architecture
    return dataclasses.replace(design, architecture=dataclasses.replace(
        arch, instances=tuple(swap(i) for i in arch.instances)))


def _drop_first_stage_load(design: ast.HdlDesign) -> ast.HdlDesign:
    proc = design.architecture.process
    index = next(i for i, step in enumerate(proc.steps)
                 if any(load.target.startswith("s_") for load in step.loads))
    step = proc.steps[index]
    dropped = next(load for load in step.loads if load.target.startswith("s_"))
    steps = list(proc.steps)
    steps[index] = dataclasses.replace(
        step, loads=tuple(load for load in step.loads if load is not dropped))
    return dataclasses.replace(design, architecture=dataclasses.replace(
        design.architecture,
        process=dataclasses.replace(proc, steps=tuple(steps))))


def _narrow_first_slice(design: ast.HdlDesign) -> ast.HdlDesign:
    proc = design.architecture.process
    first, *rest = proc.steps
    load = next(load for load in first.loads if isinstance(load.expr, ast.Slice))
    narrow = dataclasses.replace(load, expr=ast.Slice(load.expr.name,
                                                      load.expr.width - 1))
    first = dataclasses.replace(first, loads=tuple(
        narrow if other is load else other for other in first.loads))
    return dataclasses.replace(design, architecture=dataclasses.replace(
        design.architecture,
        process=dataclasses.replace(proc, steps=(first, *rest))))


class TestBuildChecksTheWrittenDesign:
    """A fault injected into the design build emits must stop the build:
    the check simulates that same object."""

    @pytest.mark.parametrize("text, mutate", [
        (SUB_TEXT, _swap_add_sub_operands),
        (MAC_TEXT, _drop_first_stage_load),
        (SUB_TEXT, _narrow_first_slice),
    ], ids=["swapped-operands", "dropped-load", "narrow-slice"])
    def test_mutated_design_is_refused(self, tmp_path, capsys, monkeypatch,
                                       text, mutate):
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


class TestSimulate:
    def test_result_lines(self, capsys, spec_file):
        code, stdout, _ = _run(capsys, "simulate", spec_file,
                               "--inputs", "a=2,b=3,c=4")
        assert code == 0
        assert "result = 10 (0x0000000A)" in stdout
        assert "done cycle 3 (3 with stalls), 4 enabled cycles total" in stdout

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


class TestParser:
    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["frobnicate"])
        assert info.value.code == 1

    def test_no_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == 1
