"""VHDL design construction, emission and the naming rules of
validate_structure."""

import random
import re
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cigen import vhdl_ast as ast
from cigen.errors import InternalCheckError
from cigen.frontend import (
    CI_NAME_PREFIXES,
    CI_NAME_RESERVED,
    OpKind,
    parse_ci_spec,
)
from cigen.fuzz import FuzzConfig, random_spec, random_vectors
from cigen.hdl import (
    ARCHITECTURE,
    COUNTER,
    ENTITY_PORTS,
    PROCESS,
    build_design,
    emit_vhdl,
    input_reg,
    node_reg,
    validate_structure,
)
from cigen.lpm import (
    AddSubGenerics,
    ConcatExtendGenerics,
    Direction,
    DivideGenerics,
    Extension,
    LpmGenerics,
    MultGenerics,
    Representation,
)
from cigen.mapper import done_cycle_enabled, map_design
from cigen.sim import (
    IndexedDesign,
    check_equivalence,
    input_count,
    reference_columns,
)

from conftest import (
    MAC_TEXT,
    MOD_TEXT,
    NARROW_TEXT,
    corpus,
    declared_components,
    unread_registers,
    wide_specs,
)


def _design(text: str) -> ast.HdlDesign:
    spec = parse_ci_spec(text)
    return build_design(spec, map_design(spec))


def _replace_arch(design: ast.HdlDesign, **kwargs) -> ast.HdlDesign:
    return design._replace(architecture=design.architecture._replace(**kwargs))


def _counter_range(text: str) -> int:
    """The top of the counter range emitted VHDL declares."""
    prefix = f"  signal {COUNTER} : integer range 0 to "
    line, = (line for line in text.splitlines() if line.startswith(prefix))
    return int(line.removeprefix(prefix).rstrip(";"))


def _load_sources(design: ast.HdlDesign) -> dict[str, str]:
    """Each loaded register and the signal its load reads."""
    return {load.target: load.expr.name
            for loads in design.architecture.process.steps
            for load in loads}


def _result_source(design: ast.HdlDesign) -> str:
    """The signal the result port's expression reads."""
    expr, = (a.expr for a in design.architecture.assigns if a.target == "result")
    while isinstance(expr, ast.Resize):
        expr = expr.operand
    return expr.name


def _mod_corrected(design: ast.HdlDesign) -> set[str]:
    """The wires a mod correction drives."""
    return {assign.target for assign in design.architecture.assigns
            if isinstance(assign.expr, ast.ModCorrect)}


class TestGolden:
    def test_spec_text_matches_frozen_input(self, golden_dir):
        assert MAC_TEXT == (golden_dir / "f.ci").read_text()

    def test_emission_matches_golden(self, mac_spec, mac_mapped, golden_dir):
        design = build_design(mac_spec, mac_mapped)
        assert emit_vhdl(design) == (golden_dir / "f.vhd").read_text()
        assert unread_registers(design) == set()

    @pytest.mark.parametrize("text, golden", [(NARROW_TEXT, "g.vhd"),
                                              (MOD_TEXT, "h.vhd")])
    def test_adapter_and_divider_emission_matches_golden(self, golden_dir,
                                                         text, golden):
        # g: extend adapter, output resize, support entity; h: divider,
        # mod-correct select, 1-bit zero-extend, node slice, nested resize
        design = _design(text)
        assert emit_vhdl(design) == (golden_dir / golden).read_text()
        assert unread_registers(design) == set()

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
        # the design names its entity; every entity prints ENTITY_PORTS
        text = emit_vhdl(build_design(mac_spec, mac_mapped))
        names = [p.name for p in ENTITY_PORTS]
        assert names == ["clk", "clk_en", "reset", "start",
                         "dataa", "datab", "done", "result"]
        widths = {p.name: p.width for p in ENTITY_PORTS}
        assert widths["dataa"] == widths["datab"] == widths["result"] == 32
        assert widths["clk"] == widths["done"] == 1
        entity = text[text.index("entity f is"):text.index("end entity f;")]
        assert [line.split(" : ")[0].strip() for line in entity.splitlines()
                if " : " in line] == names

    def test_entity_named_after_spec(self, mac_spec, mac_mapped):
        design = build_design(mac_spec, mac_mapped)
        assert design.name == "f"
        assert f"architecture {ARCHITECTURE} of f is" \
            in emit_vhdl(design).splitlines()


class TestDesignShape:
    def test_worked_example_contents(self, mac_spec, mac_mapped):
        design = build_design(mac_spec, mac_mapped)
        arch = design.architecture
        text = emit_vhdl(design)
        assert declared_components(text) == ["lpm_add_sub", "lpm_mult"]
        assert [i.label for i in arch.instances] == ["u_mul_0", "u_add_1"]
        signal_names = [s.name for s in arch.signals]
        assert _counter_range(text) == 3
        for reg in ("r_a", "r_b", "r_c", "s_1"):
            assert reg in signal_names
        # the root's value is read from its wire: it has no register
        assert "s_3" not in signal_names and _result_source(design) == "w_3"
        assert "ci_concat_extend" not in text
        assert arch.assigns[-1].target == "result"

    def test_one_declaration_per_kind(self):
        design = _design(
            "ci t(opcode=0) { input a: signed<8>; input b: signed<8>;"
            "input c: signed<8>; input d: signed<8>; output x: signed<8>;"
            "x = (a + b) - (c + d); }")
        assert declared_components(emit_vhdl(design)) == ["lpm_add_sub"]
        assert len(design.architecture.instances) == 3

    def test_register_names(self, mac_mapped):
        assert [input_reg(n) for n in mac_mapped.analysis.operand_sequence] \
            == ["r_a", "r_b", "r_c"]
        assert [node_reg(i) for i in mac_mapped.analysis.operation_sequence] \
            == ["s_1", "s_3"]

    def test_declarations_follow_the_instances(self, mac_spec, mac_mapped):
        # the multiplier's generics swapped for a divider's: the text
        # declares the divider, not the multiplier
        design = build_design(mac_spec, mac_mapped)
        mul, add = design.architecture.instances
        divider = mul._replace(generics=DivideGenerics(
            32, 32, Representation.SIGNED, Representation.SIGNED))
        text = emit_vhdl(_replace_arch(design, instances=(divider, add)))
        assert declared_components(text) == ["lpm_add_sub", "lpm_divide"]

    def test_identity_design(self):
        design = _design("ci t(opcode=0) { input a: unsigned<8>;"
                         "output x: unsigned<8>; x = a; }")
        assert design.architecture.instances == ()
        # no op node: result reads the input register, the one register
        assert _result_source(design) == "r_a"
        assert design.architecture.process.registers() == ("r_a",)
        text = emit_vhdl(design)
        assert declared_components(text) == []
        assert "library ieee;\nuse ieee.std_logic_1164.all;\n" \
               "use ieee.numeric_std.all;\n\nentity t is" in text
        assert _counter_range(text) == 1
        assert "lpm" not in text
        validate_structure(design)   # raises on a violation

    def test_support_entity_only_with_adapters(self, narrow_spec, mac_spec):
        text = emit_vhdl(build_design(narrow_spec, map_design(narrow_spec)))
        assert text.count("entity ci_concat_extend is") == 1
        assert "ci_concat_extend" in declared_components(text)

        flat = build_design(mac_spec, map_design(mac_spec))
        assert "ci_concat_extend" not in emit_vhdl(flat)

    def test_mod_correction_is_a_concurrent_assign(self):
        design = _design(
            "ci t(opcode=0) { input a: signed<8>; input b: signed<8>;"
            "output x: signed<8>; x = a mod b; }")
        exprs = [a.expr for a in design.architecture.assigns]
        assert any(isinstance(e, ast.ModCorrect) for e in exprs)

    def test_control_sets_done_once(self, mac_spec, mac_mapped):
        design = build_design(mac_spec, mac_mapped)
        proc = design.architecture.process
        assert proc.done_step == 2
        assert len(proc.steps) == 4
        text = emit_vhdl(design)
        assert text.count("done <= '1';") == 1
        assert "done <= '1';" in text.split("elsif cnt = 2 then")[1].split("elsif")[0]
        # each step leads to the next, the last back to idle
        assert [proc.successor(i) for i in range(4)] == [1, 2, 3, 0]
        assert "cnt <= 0;" in text.split("elsif cnt = 3 then")[1]
        assert _counter_range(text) == 3
        assert f"  {PROCESS} : process (clk)" in text.splitlines()
        assert proc.registers() == ("r_a", "r_b", "r_c", "s_1")
        # the last step, after done, only returns to idle
        assert proc.steps[-1] == ()

    def test_a_second_done_step_cannot_be_built(self, mac_spec, mac_mapped):
        # a step is its loads alone and the process names one done step, so
        # no design sets done on two steps
        proc = build_design(mac_spec, mac_mapped).architecture.process
        assert ast.ControlProcess._fields == ("steps", "done_step")
        assert {type(load) for loads in proc.steps for load in loads} == {ast.Assign}
        with pytest.raises(TypeError):
            ast.ControlProcess(proc.steps, proc.done_step, len(proc.steps) - 1)

    def test_steps_run_in_sequence(self):
        # the printed counter assignments are each step's successor: the
        # next step, and idle after the last
        rng = random.Random(23)
        for index in range(20):
            spec = random_spec(rng, f"sq{index}")
            design = build_design(spec, map_design(spec))
            text = emit_vhdl(design).split("elsif clk_en = '1' then")[1]
            count = len(design.architecture.process.steps)
            assert [int(n) for n in re.findall(r"cnt <= (\d+);", text)] == \
                [*range(1, count), 0]


def _printed_control(text: str) -> tuple[list[int], list[str], list[str]]:
    """From the VHDL text alone: the counter value of each branch of the
    control process that sets done, the names its reset assigns but the
    counter and done, and the names its steps load, each once, in the
    order of their first load."""
    process = text.split(f"  {PROCESS} : process (clk)\n")[1]
    reset, steps = process.split("      elsif clk_en = '1' then\n")
    resets = [name for name in re.findall(r"^ +(\w+) <= ", reset, re.MULTILINE)
              if name not in (COUNTER, "done")]
    done_steps, loads, step = [], {}, None
    for line in steps.split(f"  end process {PROCESS};")[0].splitlines():
        branch = re.fullmatch(rf" +(?:els)?if {COUNTER} = (\d+) then", line)
        target = re.match(r" +(\w+) <= ", line)
        if branch:
            step = int(branch[1])
        elif line.strip() == "done <= '1';":
            done_steps.append(step)
        elif target and target[1] not in (COUNTER, "done"):
            loads.setdefault(target[1])
    return done_steps, resets, list(loads)


class TestPrintedControlProcess:
    """Read from the emitted VHDL text, not the records: done is set once,
    in the branch of the counter value one before the latency contract's
    done cycle, and reset clears exactly the loaded registers, in the
    order of their first load."""

    @staticmethod
    def _check(text: str, done_cycle: int) -> None:
        assert text.count("done <= '1';") == 1
        done_steps, resets, loads = _printed_control(text)
        assert done_steps == [done_cycle - 1]
        assert resets == loads

    @pytest.mark.parametrize("text, golden", [(MAC_TEXT, "f.vhd"),
                                              (NARROW_TEXT, "g.vhd"),
                                              (MOD_TEXT, "h.vhd")],
                             ids=["f", "g", "h"])
    def test_goldens(self, golden_dir, text, golden):
        mapped = map_design(parse_ci_spec(text))
        self._check((golden_dir / golden).read_text(), done_cycle_enabled(mapped))

    @pytest.mark.parametrize("specs", [
        lambda: [spec for spec, _ in corpus()], wide_specs],
        ids=["acceptance-corpus", "wide-designs"])
    def test_generated(self, specs):
        for spec in specs():
            mapped = map_design(spec)
            self._check(emit_vhdl(build_design(spec, mapped)),
                        done_cycle_enabled(mapped))


class TestDividerOutput:
    """A divider's node value is its quotient for / and its remainder for
    % and mod, through a mod correction for a signed mod.  The node is
    the root here, so the result port reads that value."""

    @staticmethod
    def _one_op(body: str) -> tuple[ast.HdlDesign, int]:
        spec = parse_ci_spec(f"ci t(opcode=0) {{ {body} }}")
        mapped = map_design(spec)
        inst, = mapped.instances
        return build_design(spec, mapped), inst.node

    @pytest.mark.parametrize("symbol, suffix, corrected", [
        ("/", "_q", False),
        ("%", "_r", False),
        ("mod", "_m", True),
    ])
    def test_divider_output_selection_signed(self, symbol, suffix, corrected):
        design, node = self._one_op(f"input a: signed<8>; input b: signed<8>;"
                                    f"output x: signed<8>; x = a {symbol} b;")
        assert _result_source(design) == f"w_{node}{suffix}"
        assert bool(_mod_corrected(design)) is corrected

    def test_unsigned_mod_needs_no_correction(self):
        design, node = self._one_op("input a: unsigned<8>; input b: unsigned<8>;"
                                    "output x: unsigned<8>; x = a mod b;")
        assert _result_source(design) == f"w_{node}_r"
        assert _mod_corrected(design) == set()


class TestValidatorNegatives:
    """The naming and declaration rules of validate_structure, and the
    wiring faults that the lowering (sim.IndexedDesign) refuses instead:
    more of those in test_sim.py::TestLoweringChecks."""

    @pytest.fixture
    def design(self, mac_spec, mac_mapped):
        return build_design(mac_spec, mac_mapped)

    def test_clean_design_has_no_violations(self, design):
        validate_structure(design)   # raises on a violation

    def test_duplicate_signal(self, design):
        sig = design.architecture.signals[1]
        broken = _replace_arch(design,
                               signals=design.architecture.signals + (sig,))
        with pytest.raises(InternalCheckError, match=re.escape(
                f"(duplicate-signal: {sig.name} (signal vs signal))")):
            validate_structure(broken)

    def test_name_collision_with_port(self, design):
        stolen = ast.SignalDecl("dataa", 1)
        broken = _replace_arch(design,
                               signals=design.architecture.signals + (stolen,))
        with pytest.raises(InternalCheckError,
                           match=re.escape("(name-collision: dataa (signal vs port))")):
            validate_structure(broken)

    @pytest.mark.parametrize("name", ["2bad", "bad__sig", "bad_", "näme", ""])
    def test_illegal_identifier(self, design, name):
        bad = ast.SignalDecl(name, 1)
        broken = _replace_arch(design,
                               signals=design.architecture.signals + (bad,))
        with pytest.raises(InternalCheckError, match=re.escape(
                f"(illegal-identifier: {name} (signal))")):
            validate_structure(broken)

    def test_dangling_port(self, design):
        # one wire too few: the multiplier's result port has none
        inst = design.architecture.instances[0]
        broken_inst = inst._replace(wires=inst.wires[:-1])
        broken = _replace_arch(
            design, instances=(broken_inst,) + design.architecture.instances[1:])
        with pytest.raises(InternalCheckError,
                           match="u_mul_0 binds 2 wires to the 3 ports of lpm_mult"):
            IndexedDesign(broken)

    def test_unknown_port(self, design):
        # one wire too many: it would bind to a port lpm_mult does not declare
        inst = design.architecture.instances[0]
        broken_inst = inst._replace(wires=inst.wires + ("r_a",))
        broken = _replace_arch(
            design, instances=(broken_inst,) + design.architecture.instances[1:])
        with pytest.raises(InternalCheckError,
                           match="u_mul_0 binds 4 wires to the 3 ports of lpm_mult"):
            IndexedDesign(broken)

    def test_multiple_drivers(self, design):
        # Drive the multiplier's output wire from an assign as well.
        wire = design.architecture.instances[0].wires[-1]
        extra = ast.Assign(wire, ast.Ref("r_a"))
        broken = _replace_arch(
            design, assigns=design.architecture.assigns + (extra,))
        with pytest.raises(InternalCheckError,
                           match="w_1_p has a second driver"):
            IndexedDesign(broken)


def _record_of(kind, ins: tuple[int, ...], outs: tuple[int, ...]):
    """A legal generics record of kind, at the widths of another
    component's ports where kind allows them."""
    if kind is AddSubGenerics:
        return AddSubGenerics(ins[0], Direction.ADD)
    if kind is MultGenerics:
        return MultGenerics(ins[0], ins[1], min(outs[0], ins[0] + ins[1]),
                            Representation.SIGNED)
    if kind is DivideGenerics:
        return DivideGenerics(ins[0], ins[1], Representation.SIGNED,
                              Representation.SIGNED)
    return ConcatExtendGenerics(ins[0], ins[0] + 1, Extension.SIGN)


class TestKindSwap:
    """An instance's kind is its generics record's class.  A record of
    another kind put on an op instance is caught by the lowering or by the
    equivalence check; the VHDL naming rules have nothing to catch, since
    the text declares whichever kinds the instances use.  A swap may pass
    the check only when no vector's value can reach the result, that is
    when the reference divides by zero on every vector."""

    def _outcome(self, spec, mapped, design, vectors) -> str:
        try:
            validate_structure(design)
        except InternalCheckError:
            return "violation"
        try:
            IndexedDesign(design)
        except InternalCheckError:
            return "refused"
        if check_equivalence(spec, mapped, vectors, design=design):
            return "mismatch"
        reference = reference_columns(spec, vectors, input_count(spec, vectors))
        assert None not in reference.zero_divisor
        return "masked"

    def test_every_swap_is_caught(self, mac_spec):
        rng = random.Random(18)
        specs = [mac_spec] + [random_spec(rng, f"ks{i}") for i in range(20)]
        outcomes = set()
        for spec in specs:
            mapped = map_design(spec)
            design = build_design(spec, mapped)
            vectors = random_vectors(rng, spec, 64)
            instances = design.architecture.instances
            for index, inst in enumerate(instances):
                if not inst.label.startswith("u_"):
                    continue
                for kind in typing.get_args(LpmGenerics):
                    if kind is type(inst.generics):
                        continue
                    swapped = inst._replace(
                        generics=_record_of(kind, *inst.generics.port_widths()))
                    broken = _replace_arch(design, instances=instances[:index]
                                           + (swapped,) + instances[index + 1:])
                    outcomes.add(self._outcome(spec, mapped, broken, vectors))
        assert outcomes - {"masked"} == {"refused", "mismatch"}


class TestFuzzedStructure:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_generated_designs_validate(self, seed):
        spec = random_spec(random.Random(seed), "p",
                           FuzzConfig(max_inputs=6, max_depth=4))
        mapped = map_design(spec)
        design = build_design(spec, mapped)
        validate_structure(design)   # raises on a violation
        assert design.name == "p"
        # one declaration per used kind, one instance per op node
        decls = declared_components(emit_vhdl(design))
        kinds = {type(i.generics) for i in mapped.instances}
        if any(a is not None for i in mapped.instances for a in i.adapters):
            kinds.add(ConcatExtendGenerics)
        assert len(decls) == len(set(decls)) == len(kinds)
        op_instances = [i for i in design.architecture.instances
                        if i.label.startswith("u_")]
        assert len(op_instances) == len(mapped.instances)
        # every register is read, and every op node but the root has one
        assert unread_registers(design) == set()
        registers = design.architecture.process.registers()
        if mapped.instances:
            assert sum(r.startswith("s_") for r in registers) == \
                len(mapped.instances) - 1
        # a node's register, or the result port for the root, reads the
        # output its node kind selects
        sources, corrected = _load_sources(design), _mod_corrected(design)
        root = mapped.dfg.root
        for inst in mapped.instances:
            kind, node = mapped.dfg.nodes[inst.node].kind, inst.node
            if type(inst.generics) is DivideGenerics:
                suffix = "_q" if kind in (OpKind.DIVS, OpKind.DIVU) \
                    else "_m" if kind == OpKind.MODS else "_r"
                assert (f"w_{node}_m" in corrected) == (kind == OpKind.MODS)
            else:
                suffix = inst.generics.component.wire_suffixes[0]
            value = f"w_{node}{suffix}"
            assert (_result_source(design) if node == root
                    else sources[node_reg(node)]) == value

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_emission_is_stable(self, seed):
        spec = random_spec(random.Random(seed), "p")
        one = emit_vhdl(build_design(spec, map_design(spec)))
        two = emit_vhdl(build_design(spec, map_design(spec)))
        assert one == two


class TestReservedNames:
    """frontend cannot import hdl, so CI_NAME_RESERVED and CI_NAME_PREFIXES
    restate the names the generated VHDL declares; a generated name missing
    from them would let a spec name its instruction after it."""

    @staticmethod
    def _declared(design: ast.HdlDesign) -> list[str]:
        arch = design.architecture
        return [design.name, *(p.name for p in ENTITY_PORTS),
                ARCHITECTURE, COUNTER, PROCESS,
                *(sig.name for sig in arch.signals),
                *declared_components(emit_vhdl(design)),
                *(inst.label for inst in arch.instances)]

    def test_every_generated_name_is_reserved(self):
        rng = random.Random(5)
        specs = [parse_ci_spec(text) for text in (MAC_TEXT, NARROW_TEXT, MOD_TEXT)]
        specs += [random_spec(rng, f"fz{i}") for i in range(60)]
        kinds = set()
        for spec in specs:
            design = build_design(spec, map_design(spec))
            kinds.update(type(inst.generics)
                         for inst in design.architecture.instances)
            for name in self._declared(design):
                if name == spec.name:
                    continue   # the one name the spec gives
                assert name.lower() in CI_NAME_RESERVED \
                    or name.lower().startswith(CI_NAME_PREFIXES), name
        assert kinds == set(typing.get_args(LpmGenerics))
