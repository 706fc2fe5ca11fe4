"""Build, validate and emit the VHDL design for a mapped CI.

``build_design`` is the one place the datapath is worked out from a
``MappedDesign``: the control schedule, per-node truncation, root-to-port
adaptation and the modulus correction all become nodes of the
``HdlDesign`` it returns.  ``emit_vhdl`` renders that design, holding all
VHDL spelling: an instance prints from the text of its generics class,
derived once from the class's component declaration, with its wires bound
to the component's ports in declaration order; the entity ports, the
component declarations, libraries, support entity, counter range, reset
registers and each step's successor it derives from ``ENTITY_PORTS``, the
instances and the steps.  Two gates own the design's rules, each rule once:
``validate_structure`` checks what only the VHDL text shows (legal and
unique names), and ``sim.IndexedDesign`` checks connectivity (wire counts,
drivers, targets, widths, done) when it lowers the design to execute it.
Each raises InternalCheckError at its first violation.

The generated entity always exposes exactly eight ports: clk, clk_en, reset
and start (1 bit in), dataa and datab (32 bit in), done (1 bit out) and
result (32 bit out).  Internally the datapath holds one register per used
input operand (r_<name>) and one per op node but the root (s_<id>);
component instances are combinational between registers.

Cycle contract, counting only clk_en-enabled cycles and starting at 0 on the
cycle start is sampled high: the ceil(k/2) loading cycles latch operand pairs
from (dataa, datab); each DFG level then takes one cycle, with every node of
that level latched together.  done is registered high exactly during cycle
ceil(k/2) + max(max_level, 1) - 1, when the root value is valid on result.
For a design with operations the root value is read combinationally from the
final component's output, so the root has no register; for the
zero-operation identity design it is the extended input register.

Emission is deterministic: equal designs yield byte-identical text (LF line
endings, two-space indents).
"""

from __future__ import annotations

import typing

from . import vhdl_ast as ast
from .errors import InternalCheckError
from .frontend import VHDL_IDENTIFIER, CiSpec, LeafNode, OperandDecl, OpKind, OpNode
from .lpm import ConcatExtendGenerics, LpmGenerics
from .mapper import MappedDesign, done_cycle_enabled

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


def input_reg(name: str) -> str:
    return f"r_{name}"


def node_reg(node_id: int) -> str:
    return f"s_{node_id}"


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
    nodes, node_width = dfg.nodes, dfg.width
    loads = len(mapped.loading)
    done_cycle = done_cycle_enabled(mapped)
    # each node's register name: r_<operand> for a leaf, s_<id> for an operation
    reg = [input_reg(node.decl.name) if isinstance(node, LeafNode)
           else node_reg(node.id) for node in nodes]

    input_width = {decl.name: decl.width for decl in spec.inputs}
    signals = [ast.SignalDecl(input_reg(name), input_width[name])
               for name in mapped.analysis.operand_sequence]
    instances: list[ast.Instance] = []
    assigns: list[ast.Assign] = []
    stage_loads: dict[int, list[ast.Assign]] = {}
    root = dfg.root
    base = reg[root], node_width[root]   # result's source: the root's value
    adapter_count = 0   # adapters are numbered over the instances, left first

    for op_index, (node_id, generics, adapters) in enumerate(mapped.instances):
        node = nodes[node_id]
        assert isinstance(node, OpNode)

        inputs = []
        for adapter, child in zip(adapters, (node.left, node.right)):
            signal = reg[child]
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
                 for suffix in generics.component.wire_suffixes]
        out_widths = generics.port_widths()[1]
        signals.extend(map(ast.SignalDecl, wires, out_widths))
        # the divider's remainder has the dividend's sign: a signed mod
        # corrects it to the divisor's, an unsigned one needs no correction
        value_port = 1 if node.kind in _REMAINDER_KINDS else 0
        value, value_width = wires[value_port], out_widths[value_port]
        if node.kind == OpKind.MODS:
            assigns.append(ast.Assign(
                f"w_{node_id}_m", ast.ModCorrect(value, inputs[1])))
            value = f"w_{node_id}_m"
            signals.append(ast.SignalDecl(value, value_width))
        base = value, value_width
        instances.append(ast.Instance(
            f"u_{node.kind}_{op_index}", generics, (*inputs, *wires)))
        if node_id != root:   # the root, deepest and so last, needs no register
            register, width = reg[node_id], node_width[node_id]
            signals.append(ast.SignalDecl(register, width))
            stage_loads.setdefault(dfg.level[node_id], []).append(ast.Assign(
                register, _low_bits(value, value_width, width)))

    assigns.append(ast.Assign("result", _result_port_expr(
        *base, node_width[root], dfg.signed[root], spec.output)))

    # step by step the counter runs 0..done_cycle, wrapping to idle on the
    # edge that ends the done cycle; level l latches on step loads + l - 1
    pair_loads = [tuple([ast.Assign(input_reg(name),
                                    _low_bits(port, 32, input_width[name]))
                         for name, port in zip(pair, ("dataa", "datab"))
                         if name is not None])
                  for pair in mapped.loading]
    steps = tuple(pair_loads[c] if c < loads
                  else tuple(stage_loads.get(c - loads + 1, ()))
                  for c in range(done_cycle + 1))
    process = ast.ControlProcess(steps, done_cycle - 1)

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

def _port_type(port: ast.Port) -> str:
    return "std_logic" if port.width == 1 else _vec_type(port.width)


def _listed(items: list[str], sep: str, indent: str) -> list[str]:
    """One line per item of a VHDL list, sep after all but the last."""
    return [f"{indent}{item}{sep if i < len(items) - 1 else ''}"
            for i, item in enumerate(items)]


def _clauses(decl: ast.ComponentDecl, indent: str) -> list[str]:
    """decl's generic and port clauses, each item two spaces in from indent."""
    generics = [f"{g.name} : {g.vhdl_type}" for g in decl.generics]
    ports = [f"{p.name} : {p.direction} {p.type_text}" for p in decl.ports]
    return [f"{indent}generic (", *_listed(generics, ";", f"{indent}  "), f"{indent});",
            f"{indent}port (", *_listed(ports, ";", f"{indent}  "), f"{indent});"]


# The support entity: its generic and port clauses print from its
# declaration, as a component declaration's do; only its body is written here.
SUPPORT_ENTITY_TEXT = """\
-- Support unit: widens a vector by replicating its top bit (sign extension)
-- or by padding with zeros, using the concatenation operator.

library ieee;
use ieee.std_logic_1164.all;

entity ci_concat_extend is
%s
end entity ci_concat_extend;

architecture rtl of ci_concat_extend is
  signal pad : std_logic_vector(TO_WIDTH - FROM_WIDTH - 1 downto 0);
begin
  pad <= (others => a(FROM_WIDTH - 1)) when EXTEND_MODE = "SIGN" else (others => '0');
  result <= pad & a;
end architecture rtl;
""" % "\n".join(_clauses(ConcatExtendGenerics.component.decl, "  "))


def _instance_text(decl: ast.ComponentDecl) -> tuple[str, tuple[str, ...]]:
    """The text of every instance of decl's component, left to fill by
    ``%`` with the label, the fields of the generics record in order and
    the port map; a string generic prints quoted.  Then the start of each
    port's line of the port map, in declaration order."""
    generics = ",\n".join(
        f"      {g.name} => " + ('"%s"' if g.vhdl_type == "string" else "%s")
        for g in decl.generics)
    return (f"  %s : {decl.name}\n    generic map (\n{generics}\n"
            "    )\n    port map (\n      %s\n    );",
            tuple(f"{port.name} => " for port in decl.ports))


_INSTANCE_TEXT = {kind: _instance_text(kind.component.decl)
                  for kind in typing.get_args(LpmGenerics)}


def emit_instance(inst: ast.Instance) -> str:
    """Render an instantiation: the generic map pairs the component's
    generics with the fields of the generics record, and the port map its
    ports with the instance's wires, in order."""
    text, ports = _INSTANCE_TEXT[type(inst.generics)]
    return text % (inst.label, *inst.generics,
                   ",\n      ".join(map(str.__add__, ports, inst.wires)))


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
    lines += [f"        {register} <= (others => '0');" for register in proc.registers()]
    lines += ["      elsif clk_en = '1' then", "        done <= '0';",
              f"        if {COUNTER} = 0 then", "          if start = '1' then"]
    indent = "            "   # step 0's branch nests inside the start test
    for index, loads in enumerate(proc.steps):
        if index:
            indent = "          "
            lines.append(f"        elsif {COUNTER} = {index} then")
        lines += [f"{indent}{target} <= {emit_expr(expr, widths)};"
                  for target, expr in loads]
        if index == proc.done_step:
            lines.append(f"{indent}done <= '1';")
        lines.append(f"{indent}{COUNTER} <= {proc.successor(index)};")
        if not index:
            lines.append("          end if;")
    lines += ["        end if;", "      end if;", "    end if;",
              f"  end process {PROCESS};"]
    return "\n".join(lines)


def emit_vhdl(design: ast.HdlDesign) -> str:
    """Render a design to deterministic VHDL text."""
    arch = design.architecture
    kinds = _kinds(arch)
    libraries = ["library ieee;", "use ieee.std_logic_1164.all;",
                 "use ieee.numeric_std.all;"]
    if any(kind is not ConcatExtendGenerics for kind in kinds):
        libraries += ["library lpm;", "use lpm.lpm_components.all;"]
    entity = [f"entity {design.name} is", "  port (",
              *_listed([f"{port.name} : {port.direction} {_port_type(port)}"
                        for port in ENTITY_PORTS], ";", "    "),
              "  );", f"end entity {design.name};"]

    body: list[str] = [f"architecture {ARCHITECTURE} of {design.name} is"]
    for decl in [kind.component.decl for kind in kinds]:
        body += ("", f"  component {decl.name}", *_clauses(decl, "    "),
                 "  end component;")
    body.append("")
    proc = arch.process
    body.append(f"  signal {COUNTER} : integer range 0 to {len(proc.steps) - 1};")
    body += [f"  signal {name} : {_vec_type(width)};" for name, width in arch.signals]
    body.append("")
    body.append("begin")
    for inst in arch.instances:
        body += ("", emit_instance(inst))
    widths = {name: width for name, width in arch.signals}
    for target, expr in arch.assigns:
        body += ("", f"  {target} <= {emit_expr(expr, widths)};")
    body.append("")
    body.append(_emit_process(proc, widths))
    body.append("")
    body.append(f"end architecture {ARCHITECTURE};")

    text = "\n\n".join("\n".join(part) for part in (
        design.header_comment, libraries, entity, body)) + "\n"
    if ConcatExtendGenerics in kinds:
        text += "\n" + SUPPORT_ENTITY_TEXT
    return text


# --- structural validation -------------------------------------------------


def validate_structure(design: ast.HdlDesign) -> None:
    """Check the design's VHDL naming and declarations, which executing it
    cannot see; raise InternalCheckError at the first violation, naming its
    rule, the name and a detail.

    Rules: every identifier, the entity's fixed ports and the used
    components' included, is VHDL-legal (``frontend.VHDL_IDENTIFIER``) and
    case-insensitively unique; signals are declared once.  One pass over
    the names tests each with one match and claims its lowercase form.
    ``emit_vhdl`` prints ``ENTITY_PORTS`` and declares each used component
    once by construction.  Connectivity is ``sim.IndexedDesign``'s to check.
    """
    arch = design.architecture
    claims = [(design.name, "entity"), *[(port.name, "port") for port in ENTITY_PORTS],
              (ARCHITECTURE, "architecture"), (COUNTER, "signal"),
              *[(sig.name, "signal") for sig in arch.signals],
              *[(kind.component.decl.name, "component") for kind in _kinds(arch)],
              *[(inst.label, "instance") for inst in arch.instances],
              (PROCESS, "process")]
    roles: dict[str, str] = {}   # lowercase name -> the role that claimed it
    legal = VHDL_IDENTIFIER.fullmatch
    for name, role in claims:
        key = name.lower()
        prior = roles.get(key)
        if not legal(name):
            rule, detail = "illegal-identifier", role
        elif prior is None:
            roles[key] = role
            continue
        else:
            rule = "duplicate-signal" if role == prior == "signal" else "name-collision"
            detail = f"{role} vs {prior}"
        raise InternalCheckError(
            f"generated design is malformed ({rule}: {name} ({detail}))")
