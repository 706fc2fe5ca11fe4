"""Build, validate and emit the VHDL design for a mapped CI.

``build_design`` is the one place the datapath is worked out from a
``MappedDesign``: the control schedule, per-node truncation, root-to-port
adaptation and the modulus correction all become nodes of the
``HdlDesign`` it returns.  ``emit_vhdl`` renders that design, holding all
VHDL spelling: an instance prints from the text of its generics class,
derived once from the class's component declaration, with its wires bound
to the component's ports in declaration order; the entity ports, the
component declarations, libraries, support entity, counter range and each
step's successor it derives from ``ENTITY_PORTS``, the instances and the
steps.  Two gates own the design's rules, each rule once:
``validate_structure`` checks what only the VHDL text shows (legal and
unique names), and ``sim.IndexedDesign`` checks connectivity (wire counts,
drivers, targets, widths, done) when it lowers the design to execute it.

The generated entity always exposes exactly eight ports: clk, clk_en, reset
and start (1 bit in), dataa and datab (32 bit in), done (1 bit out) and
result (32 bit out).  Internally the datapath holds one register per used
input operand (r_<name>) and one per op node (s_<id>); component instances
are combinational between registers.

Cycle contract, counting only clk_en-enabled cycles and starting at 0 on the
cycle start is sampled high: the ceil(k/2) loading cycles latch operand pairs
from (dataa, datab); each DFG level then takes one cycle, with every node of
that level latched together.  done is registered high exactly during cycle
ceil(k/2) + max(max_level, 1) - 1, when the root value is valid on result.
For a design with operations the root value is read combinationally from the
final component's output (its register only settles one cycle later); for the
zero-operation identity design it is the extended input register.

Emission is deterministic: equal designs yield byte-identical text (LF line
endings, two-space indents).
"""

from __future__ import annotations

import re
import typing
from typing import NamedTuple

from . import vhdl_ast as ast
from .frontend import CiSpec, LeafNode, OperandDecl, OpKind, OpNode
from .lpm import ConcatExtendGenerics, LpmGenerics
from .mapper import MappedDesign, done_cycle_enabled, input_reg, node_reg

ENTITY_PORTS: tuple[ast.Port, ...] = (
    ast.Port("clk", "in", 1),
    ast.Port("clk_en", "in", 1),
    ast.Port("reset", "in", 1),
    ast.Port("start", "in", 1),
    ast.Port("dataa", "in", 32),
    ast.Port("datab", "in", 32),
    ast.Port("done", "out", 1),
    ast.Port("result", "out", 32),
)

ARCHITECTURE, PROCESS, COUNTER = "rtl", "control", "cnt"
# the node kinds whose value is a divider's remainder, not its quotient
_REMAINDER_KINDS = (OpKind.REMS, OpKind.REMU, OpKind.MODS, OpKind.MODU)
# read once: an enum's member and property reads are slow on a hot path
_MODS = OpKind.MODS
_LABEL_PREFIX = {kind: f"u_{kind.name.lower()}_" for kind in OpKind}


class Violation(NamedTuple):
    """One structural rule broken by a design, naming the offender."""
    rule: str
    name: str
    detail: str


def _vec_type(width: int) -> str:
    return f"std_logic_vector({width - 1} downto 0)"


def _low_bits(name: str, width: int, take: int) -> ast.Expr:
    return ast.Ref(name) if take == width else ast.Slice(name, take)


def _result_port_expr(base: str, base_width: int, root_width: int,
                      root_signed: bool, out: OperandDecl) -> ast.Expr:
    """Adapt the root value to the output width, then to the 32-bit result
    port.  Truncation keeps low bits; widening extends by the signedness of
    the value being widened."""
    if out.width <= root_width:
        expr = _low_bits(base, base_width, out.width)
    else:
        inner = _low_bits(base, base_width, root_width)
        if root_signed == out.signed:
            # one extension covers output width and port width
            return ast.Resize(inner, root_signed, 32)
        expr = ast.Resize(inner, root_signed, out.width)
    if out.width < 32:
        expr = ast.Resize(expr, out.signed, 32)
    return expr


def build_design(spec: CiSpec, mapped: MappedDesign) -> ast.HdlDesign:
    """Assemble the complete VHDL AST for a mapped design."""
    dfg = mapped.dfg
    analysis = mapped.analysis
    loads = len(mapped.loading)
    done_cycle = done_cycle_enabled(mapped)

    def child_signal(node_id: int) -> str:
        node = dfg.nodes[node_id]
        if isinstance(node, LeafNode):
            return input_reg(node.decl.name)
        return node_reg(node_id)

    input_width = {decl.name: decl.width for decl in spec.inputs}
    signals = [ast.SignalDecl(input_reg(name), input_width[name])
               for name in analysis.operand_sequence]
    registers = [s.name for s in signals]
    instances: list[ast.Instance] = []
    assigns: list[ast.ConcurrentAssign] = []
    stage_loads: dict[int, list[ast.RegisterLoad]] = {}
    value_wires: dict[int, tuple[str, int]] = {}  # op node -> wire with its value
    adapter_count = 0   # adapters are numbered over the instances, left first

    for op_index, inst in enumerate(mapped.instances):
        node_id = inst.node
        node = dfg.nodes[node_id]
        assert isinstance(node, OpNode)

        inputs = []
        for adapter, child in zip(inst.adapters, (node.left, node.right)):
            signal = child_signal(child)
            if adapter is not None:
                wire = f"w_x_{adapter_count}"
                signals.append(ast.SignalDecl(wire, adapter.to_width))
                instances.append(ast.Instance(f"x_{adapter_count}", adapter,
                                              (signal, wire)))
                adapter_count += 1
                signal = wire
            inputs.append(signal)

        # the wires on the output ports, in declaration order
        wires = [f"w_{node_id}{suffix}"
                 for suffix in inst.generics.component.wire_suffixes]
        out_widths = inst.generics.port_widths()[1]
        signals.extend(map(ast.SignalDecl, wires, out_widths))
        # the divider's remainder has the dividend's sign: a signed mod
        # corrects it to the divisor's, an unsigned one needs no correction
        value_port = 1 if node.kind in _REMAINDER_KINDS else 0
        value, value_width = wires[value_port], out_widths[value_port]
        if node.kind is _MODS:
            assigns.append(ast.ConcurrentAssign(
                f"w_{node_id}_m", ast.ModCorrect(value, inputs[1])))
            value = f"w_{node_id}_m"
            signals.append(ast.SignalDecl(value, value_width))
        signals.append(ast.SignalDecl(node_reg(node_id), dfg.width[node_id]))
        registers.append(node_reg(node_id))
        value_wires[node_id] = value, value_width

        instances.append(ast.Instance(
            f"{_LABEL_PREFIX[node.kind]}{op_index}", inst.generics,
            (*inputs, *wires)))
        stage_loads.setdefault(dfg.level[node_id], []).append(ast.RegisterLoad(
            node_reg(node_id), _low_bits(value, value_width, dfg.width[node_id])))

    root = dfg.root
    base = value_wires.get(root, (child_signal(root), dfg.width[root]))
    assigns.append(ast.ConcurrentAssign("result", _result_port_expr(
        *base, dfg.width[root], dfg.signed[root], spec.output)))

    # step by step the counter runs 0..done_cycle, wrapping to idle on the
    # edge that ends the done cycle; level l latches on step loads + l - 1
    def pair_loads(pair_index: int) -> tuple[ast.RegisterLoad, ...]:
        return tuple(
            ast.RegisterLoad(input_reg(name),
                             _low_bits(port, 32, input_width[name]))
            for name, port in zip(mapped.loading[pair_index],
                                  ("dataa", "datab"))
            if name is not None)

    steps = [ast.ControlStep(pair_loads(0), done_cycle == 1)]
    for c in range(1, done_cycle + 1):
        step_loads = pair_loads(c) if c < loads \
            else tuple(stage_loads.get(c - loads + 1, ()))
        steps.append(ast.ControlStep(step_loads, c == done_cycle - 1))
    process = ast.ControlProcess(tuple(steps), tuple(registers))

    header = (
        f"-- {spec.name}: multicycle custom-instruction datapath (opcode {spec.opcode}).",
        "-- Interface: start latches the first operand pair; further pairs stream",
        "-- on consecutive enabled cycles; done pulses for one enabled cycle when",
        "-- the result is valid.",
    )
    architecture = ast.Architecture(tuple(signals), tuple(instances),
                                    tuple(assigns), process)
    return ast.HdlDesign(header, spec.name, architecture)


def _kinds(arch: ast.Architecture) -> list[type[LpmGenerics]]:
    """The components arch declares: its instances' generics classes."""
    return sorted({type(inst.generics) for inst in arch.instances},
                  key=lambda kind: kind.component.name)


# --- emission -------------------------------------------------------------

SUPPORT_ENTITY_TEXT = """\
-- Support unit: widens a vector by replicating its top bit (sign extension)
-- or by padding with zeros, using the concatenation operator.

library ieee;
use ieee.std_logic_1164.all;

entity ci_concat_extend is
  generic (
    FROM_WIDTH : natural;
    TO_WIDTH : natural;
    EXTEND_MODE : string
  );
  port (
    a : in std_logic_vector(FROM_WIDTH - 1 downto 0);
    result : out std_logic_vector(TO_WIDTH - 1 downto 0)
  );
end entity ci_concat_extend;

architecture rtl of ci_concat_extend is
  signal pad : std_logic_vector(TO_WIDTH - FROM_WIDTH - 1 downto 0);
begin
  pad <= (others => a(FROM_WIDTH - 1)) when EXTEND_MODE = "SIGN" else (others => '0');
  result <= pad & a;
end architecture rtl;
"""


def _port_type(port: ast.Port) -> str:
    return "std_logic" if port.width == 1 else _vec_type(port.width)


def _listed(items: list[str], sep: str, indent: str) -> list[str]:
    """One line per item of a VHDL list, sep after all but the last."""
    return [f"{indent}{item}{sep if i < len(items) - 1 else ''}"
            for i, item in enumerate(items)]


def emit_component_decl(decl: ast.ComponentDecl) -> str:
    generics = [f"{g.name} : {g.vhdl_type}" for g in decl.generics]
    ports = [f"{p.name} : {p.direction} {p.type_text}" for p in decl.ports]
    return "\n".join([f"  component {decl.name}", "    generic (",
                      *_listed(generics, ";", "      "), "    );", "    port (",
                      *_listed(ports, ";", "      "), "    );", "  end component;"])


def _instance_text(decl: ast.ComponentDecl) -> str:
    """The text of every instance of decl, left to fill with the label, the
    port map and the fields of the generics record, in order.  A string
    generic holds an enum and prints as its quoted value, read from the
    member's ``_value_`` attribute: the ``value`` property is slow on a
    path that formats every instance."""
    generics = ",\n".join(
        f"      {g.name} => "
        + (f'"{{{i}._value_}}"' if g.vhdl_type == "string" else f"{{{i}}}")
        for i, g in enumerate(decl.generics))
    return (f"  {{label}} : {decl.name}\n    generic map (\n{generics}\n"
            "    )\n    port map (\n      {ports}\n    );")


_INSTANCE_TEXT = {kind: _instance_text(kind.component.decl)
                  for kind in typing.get_args(LpmGenerics)}


def emit_instance(inst: ast.Instance) -> str:
    """Render an instantiation: the generic map pairs the component's
    generics with the fields of the generics record, and the port map its
    ports with the instance's wires, in order."""
    ports = ",\n      ".join([f"{port} => {wire}" for port, wire
                              in zip(inst.generics.component.ports, inst.wires)])
    return _INSTANCE_TEXT[type(inst.generics)].format(
        *inst.generics, label=inst.label, ports=ports)


def emit_expr(expr: ast.Expr, widths: dict[str, int]) -> str:
    """Render an expression; widths gives each signal's width."""
    if isinstance(expr, ast.Ref):
        return expr.name
    if isinstance(expr, ast.Slice):
        return f"{expr.name}({expr.width - 1} downto 0)"
    if isinstance(expr, ast.Resize):
        cast = "signed" if expr.signed else "unsigned"
        return (f"std_logic_vector(resize({cast}({emit_expr(expr.operand, widths)}), "
                f"{expr.width}))")
    r, d = expr.remainder, expr.divisor
    msb = widths[r] - 1
    return (f"std_logic_vector(unsigned({r}) + unsigned({d})) "
            f"when unsigned({r}) /= 0 and {r}({msb}) /= {d}({msb}) else {r}")


def _emit_process(proc: ast.ControlProcess, widths: dict[str, int]) -> str:
    lines = [f"  {PROCESS} : process (clk)", "  begin",
             "    if rising_edge(clk) then", "      if reset = '1' then",
             f"        {COUNTER} <= 0;", "        done <= '0';"]
    lines += [f"        {register} <= (others => '0');" for register in proc.registers]
    lines.append("      elsif clk_en = '1' then")
    lines.append("        done <= '0';")

    def step_lines(index: int, indent: str) -> list[str]:
        step = proc.steps[index]
        out = [f"{indent}{load.target} <= {emit_expr(load.expr, widths)};"
               for load in step.loads]
        if step.set_done:
            out.append(f"{indent}done <= '1';")
        return out + [f"{indent}{COUNTER} <= {proc.successor(index)};"]

    lines += [f"        if {COUNTER} = 0 then", "          if start = '1' then",
              *step_lines(0, "            "), "          end if;"]
    for index in range(1, len(proc.steps)):
        lines += [f"        elsif {COUNTER} = {index} then",
                  *step_lines(index, "          ")]
    lines.append("        end if;")
    lines.append("      end if;")
    lines.append("    end if;")
    lines.append(f"  end process {PROCESS};")
    return "\n".join(lines)


def emit_vhdl(design: ast.HdlDesign) -> str:
    """Render a design to deterministic VHDL text."""
    arch = design.architecture
    kinds = _kinds(arch)
    libraries = ["library ieee;", "use ieee.std_logic_1164.all;",
                 "use ieee.numeric_std.all;"]
    if any(kind is not ConcatExtendGenerics for kind in kinds):
        libraries += ["library lpm;", "use lpm.lpm_components.all;"]
    parts: list[str] = []
    parts.append("\n".join(design.header_comment))
    parts.append("\n".join(libraries))

    parts.append("\n".join([
        f"entity {design.name} is", "  port (",
        *_listed([f"{port.name} : {port.direction} {_port_type(port)}"
                  for port in ENTITY_PORTS], ";", "    "),
        "  );", f"end entity {design.name};"]))

    body: list[str] = [f"architecture {ARCHITECTURE} of {design.name} is"]
    for kind in kinds:
        body.append("")
        body.append(emit_component_decl(kind.component.decl))
    body.append("")
    proc = arch.process
    body.append(f"  signal {COUNTER} : integer range 0 to {len(proc.steps) - 1};")
    for sig in arch.signals:
        body.append(f"  signal {sig.name} : {_vec_type(sig.width)};")
    body.append("")
    body.append("begin")
    for inst in arch.instances:
        body.append("")
        body.append(emit_instance(inst))
    widths = {sig.name: sig.width for sig in arch.signals}
    for assign in arch.assigns:
        body.append("")
        body.append(f"  {assign.target} <= {emit_expr(assign.expr, widths)};")
    body.append("")
    body.append(_emit_process(proc, widths))
    body.append("")
    body.append(f"end architecture {ARCHITECTURE};")
    parts.append("\n".join(body))

    text = "\n\n".join(parts) + "\n"
    if ConcatExtendGenerics in kinds:
        text += "\n" + SUPPORT_ENTITY_TEXT
    return text


# --- structural validation -------------------------------------------------

_ID_OK = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


def _legal_identifier(name: str) -> bool:
    return bool(_ID_OK.match(name)) and "__" not in name and not name.endswith("_")


def validate_structure(design: ast.HdlDesign) -> list[Violation]:
    """Check the design's VHDL naming and declarations, which executing it
    cannot see; an empty list means it is sound.

    Rules: every identifier, the entity's fixed ports and the used
    components' included, is VHDL-legal and case-insensitively unique;
    signals are declared once.  ``emit_vhdl`` prints ``ENTITY_PORTS`` and
    declares each used component once by construction.  Connectivity is
    ``sim.IndexedDesign``'s to check.
    """
    violations: list[Violation] = []
    arch = design.architecture
    names: dict[str, str] = {}

    def claim(name: str, role: str) -> None:
        if not _legal_identifier(name):
            violations.append(Violation("illegal-identifier", name, role))
        key = name.lower()
        if key in names:
            rule = "duplicate-signal" if role == "signal" and names[key] == "signal" \
                else "name-collision"
            violations.append(Violation(rule, name, f"{role} vs {names[key]}"))
        else:
            names[key] = role

    claim(design.name, "entity")
    for port in ENTITY_PORTS:
        claim(port.name, "port")
    claim(ARCHITECTURE, "architecture")
    claim(COUNTER, "signal")
    for sig in arch.signals:
        claim(sig.name, "signal")
    for kind in _kinds(arch):
        claim(kind.component.decl.name, "component")
    for inst in arch.instances:
        claim(inst.label, "instance")
    claim(PROCESS, "process")
    return violations
