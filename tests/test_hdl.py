"""VHDL design construction, emission and structural validation."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cigen import vhdl_ast as ast
from cigen.frontend import parse_ci_spec
from cigen.fuzz import FuzzConfig, random_spec
from cigen.hdl import (
    ENTITY_PORTS,
    build_design,
    emit_vhdl,
    validate_structure,
)
from cigen.lpm import ComponentKind
from cigen.mapper import map_design

from conftest import MAC_TEXT, MOD_TEXT, NARROW_TEXT


def _design(text: str) -> ast.HdlDesign:
    spec = parse_ci_spec(text)
    return build_design(spec, map_design(spec))


def _rules(design: ast.HdlDesign) -> set[str]:
    return {v.rule for v in validate_structure(design)}


def _replace_arch(design: ast.HdlDesign, **kwargs) -> ast.HdlDesign:
    return dataclasses.replace(
        design, architecture=dataclasses.replace(design.architecture, **kwargs))


class TestGolden:
    def test_spec_text_matches_frozen_input(self, golden_dir):
        assert MAC_TEXT == (golden_dir / "f.ci").read_text()

    def test_emission_matches_golden(self, mac_spec, mac_mapped, golden_dir):
        text = emit_vhdl(build_design(mac_spec, mac_mapped))
        assert text == (golden_dir / "f.vhd").read_text()

    @pytest.mark.parametrize("text, golden", [(NARROW_TEXT, "g.vhd"),
                                              (MOD_TEXT, "h.vhd")])
    def test_adapter_and_divider_emission_matches_golden(self, golden_dir,
                                                         text, golden):
        # g: extend adapter, output resize, support entity; h: divider,
        # mod-correct select, 1-bit zero-extend, node slice, nested resize
        assert emit_vhdl(_design(text)) == (golden_dir / golden).read_text()

    def test_emission_is_deterministic(self, mac_spec):
        first = emit_vhdl(build_design(mac_spec, map_design(mac_spec)))
        second = emit_vhdl(build_design(mac_spec, map_design(mac_spec)))
        assert first == second

    def test_line_endings_and_indent(self, mac_spec, mac_mapped):
        text = emit_vhdl(build_design(mac_spec, mac_mapped))
        assert "\r" not in text
        assert "\t" not in text
        assert text.endswith("\n")
        assert "  port (" in text  # two-space indentation


class TestEntity:
    def test_ports_are_the_fixed_eight(self, mac_spec, mac_mapped):
        design = build_design(mac_spec, mac_mapped)
        assert design.entity.ports == ENTITY_PORTS
        names = [p.name for p in design.entity.ports]
        assert names == ["clk", "clk_en", "reset", "start",
                         "dataa", "datab", "done", "result"]
        widths = {p.name: p.width for p in design.entity.ports}
        assert widths["dataa"] == widths["datab"] == widths["result"] == 32
        assert widths["clk"] == widths["done"] == 1

    def test_entity_named_after_spec(self, mac_spec, mac_mapped):
        design = build_design(mac_spec, mac_mapped)
        assert design.entity.name == "f"
        assert design.architecture.of_entity == "f"


class TestDesignShape:
    def test_worked_example_contents(self, mac_spec, mac_mapped):
        design = build_design(mac_spec, mac_mapped)
        arch = design.architecture
        assert [c.name for c in arch.components] == ["lpm_add_sub", "lpm_mult"]
        assert [i.label for i in arch.instances] == ["u_mul_0", "u_add_1"]
        signal_names = [s.name for s in arch.signals]
        assert arch.process.counter == "cnt"
        for reg in ("r_a", "r_b", "r_c", "s_1", "s_3"):
            assert reg in signal_names
        assert not design.support_concat
        assert arch.assigns[-1].target == "result"

    def test_one_declaration_per_kind(self):
        design = _design(
            "ci t(opcode=0) { input a: signed<8>; input b: signed<8>;"
            "input c: signed<8>; input d: signed<8>; output x: signed<8>;"
            "x = (a + b) - (c + d); }")
        arch = design.architecture
        assert [c.name for c in arch.components] == ["lpm_add_sub"]
        assert len(arch.instances) == 3

    def test_identity_design(self):
        design = _design("ci t(opcode=0) { input a: unsigned<8>;"
                         "output x: unsigned<8>; x = a; }")
        arch = design.architecture
        assert arch.components == ()
        assert arch.instances == ()
        assert design.libraries == ("library ieee;",
                                    "use ieee.std_logic_1164.all;",
                                    "use ieee.numeric_std.all;")
        assert arch.process.counter_max == 1
        text = emit_vhdl(design)
        assert "lpm" not in text
        assert validate_structure(design) == []

    def test_support_entity_only_with_adapters(self, narrow_spec, mac_spec):
        narrow = build_design(narrow_spec, map_design(narrow_spec))
        assert narrow.support_concat
        text = emit_vhdl(narrow)
        assert text.count("entity ci_concat_extend is") == 1
        assert "ci_concat_extend" in [c.name for c
                                      in narrow.architecture.components]

        flat = build_design(mac_spec, map_design(mac_spec))
        assert not flat.support_concat
        assert "ci_concat_extend" not in emit_vhdl(flat)

    def test_mod_correction_is_a_concurrent_assign(self):
        design = _design(
            "ci t(opcode=0) { input a: signed<8>; input b: signed<8>;"
            "output x: signed<8>; x = a mod b; }")
        exprs = [a.expr for a in design.architecture.assigns]
        assert any(isinstance(e, ast.ModCorrect) for e in exprs)

    def test_control_sets_done_once(self, mac_spec, mac_mapped):
        proc = build_design(mac_spec, mac_mapped).architecture.process
        assert [s.set_done for s in proc.steps].count(True) == 1
        assert proc.counter_max == 3
        last = proc.steps[-1]
        assert last.next_index == 0
        assert proc.counter == "cnt"
        assert set(proc.registers) == {"r_a", "r_b", "r_c", "s_1", "s_3"}


class TestValidatorNegatives:
    @pytest.fixture
    def design(self, mac_spec, mac_mapped):
        return build_design(mac_spec, mac_mapped)

    def test_clean_design_has_no_violations(self, design):
        assert validate_structure(design) == []

    def test_missing_entity_port(self, design):
        broken = dataclasses.replace(
            design, entity=dataclasses.replace(
                design.entity, ports=design.entity.ports[:-1]))
        assert "entity-ports" in _rules(broken)

    def test_duplicate_signal(self, design):
        sig = design.architecture.signals[1]
        broken = _replace_arch(design,
                               signals=design.architecture.signals + (sig,))
        assert "duplicate-signal" in _rules(broken)

    def test_name_collision_with_port(self, design):
        stolen = ast.SignalDecl("dataa", 1)
        broken = _replace_arch(design,
                               signals=design.architecture.signals + (stolen,))
        assert "name-collision" in _rules(broken)

    @pytest.mark.parametrize("name", ["2bad", "bad__sig", "bad_", "näme", ""])
    def test_illegal_identifier(self, design, name):
        bad = ast.SignalDecl(name, 1)
        broken = _replace_arch(design,
                               signals=design.architecture.signals + (bad,))
        assert "illegal-identifier" in _rules(broken)

    def test_dangling_port(self, design):
        inst = design.architecture.instances[0]
        broken_inst = dataclasses.replace(inst, port_map=inst.port_map[:-1])
        broken = _replace_arch(
            design, instances=(broken_inst,) + design.architecture.instances[1:])
        assert "dangling-port" in _rules(broken)

    def test_unknown_port(self, design):
        inst = design.architecture.instances[0]
        broken_inst = dataclasses.replace(
            inst, port_map=inst.port_map + (("carry", "r_a"),))
        broken = _replace_arch(
            design, instances=(broken_inst,) + design.architecture.instances[1:])
        assert "unknown-port" in _rules(broken)

    def test_undeclared_signal_in_port_map(self, design):
        inst = design.architecture.instances[0]
        patched = dataclasses.replace(
            inst, port_map=inst.port_map[:-1] + (("result", "w_ghost"),))
        broken = _replace_arch(
            design, instances=(patched,) + design.architecture.instances[1:])
        assert "undeclared-signal" in _rules(broken)

    def test_undeclared_component(self, design):
        inst = design.architecture.instances[0]
        patched = dataclasses.replace(inst, kind=ComponentKind.DIVIDE)
        broken = _replace_arch(
            design, instances=(patched,) + design.architecture.instances[1:])
        assert "undeclared-component" in _rules(broken)

    def test_duplicate_component(self, design):
        comps = design.architecture.components
        broken = _replace_arch(design, components=comps + (comps[0],))
        rules = _rules(broken)
        assert "duplicate-component" in rules or "name-collision" in rules

    def test_multiple_drivers(self, design):
        # Drive the multiplier's output wire from an assign as well.
        wire = dict(design.architecture.instances[0].port_map)["result"]
        extra = ast.ConcurrentAssign(wire, ast.Ref("r_a"))
        broken = _replace_arch(
            design, assigns=design.architecture.assigns + (extra,))
        assert "multiple-drivers" in _rules(broken)

    def test_assign_target_must_be_declared(self, design):
        extra = ast.ConcurrentAssign("w_ghost", ast.Ref("r_a"))
        broken = _replace_arch(
            design, assigns=design.architecture.assigns + (extra,))
        assert "assign-target" in _rules(broken)

    def test_load_target_must_be_declared(self, design):
        proc = design.architecture.process
        step = proc.steps[1]
        patched_step = dataclasses.replace(
            step, loads=step.loads + (ast.RegisterLoad("s_ghost", ast.Ref("r_a")),))
        steps = tuple(patched_step if s is step else s for s in proc.steps)
        broken = _replace_arch(
            design, process=dataclasses.replace(proc, steps=steps))
        assert "load-target" in _rules(broken)


class TestFuzzedStructure:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_generated_designs_validate(self, seed):
        spec = random_spec(random.Random(seed), "p",
                           FuzzConfig(max_inputs=6, max_depth=4))
        mapped = map_design(spec)
        design = build_design(spec, mapped)
        assert validate_structure(design) == []
        assert design.entity.ports == ENTITY_PORTS
        # one declaration per used kind, one instance per op node
        decls = [c.name for c in design.architecture.components]
        kinds = {i.kind for i in mapped.instances}
        if mapped.adapters:
            kinds.add(ComponentKind.CONCAT_EXTEND)
        assert len(decls) == len(set(decls)) == len(kinds)
        op_instances = [i for i in design.architecture.instances
                        if i.label.startswith("u_")]
        assert len(op_instances) == len(mapped.instances)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_emission_is_stable(self, seed):
        spec = random_spec(random.Random(seed), "p")
        one = emit_vhdl(build_design(spec, map_design(spec)))
        two = emit_vhdl(build_design(spec, map_design(spec)))
        assert one == two
