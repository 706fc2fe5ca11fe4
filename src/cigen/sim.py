"""Cycle-accurate simulation of a generated design, plus its reference oracle.

Two evaluators live here on purpose.  ``eval_reference`` walks the expression
tree over exact Python integers and applies the width rules at each node; it
never looks at component instances, adapters or the control schedule.
``simulate_ci`` executes the ``HdlDesign`` that ``emit_vhdl`` prints, cycle
by cycle: the registers and widths it declares, its instances through the
component library's evaluators, its concurrent assignments and the steps of
its control process.  Agreement between the two on the 32-bit result port
is the bit-exactness check the rest of the toolchain relies on.

Only the testbench side comes from the ``MappedDesign``: which operands the
driver puts on dataa and datab in each load cycle (the order the C header
sends them in) and the done cycle the latency contract promises.  Neither is
read back from the design, so a design that loads the wrong port or finishes
late disagrees with the reference instead of driving itself to agree.

The clock model: every loop iteration is one rising edge.  A trace row shows
the values visible during the cycle before that edge.  Registers update on
the edge only when clk_en is high; a high reset clears them on any edge,
enabled or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import vhdl_ast as ast
from .errors import DivideByZero, InputOutOfRange, InternalCheckError, ProtocolViolation
from .frontend import CiSpec, Dfg, LeafNode, OpKind, OpNode, build_dfg
from .hdl import build_design
from .lpm import COMPONENT_DECLS, EVALUATORS, BitVec, mod_correct_eval
from .mapper import (
    MappedDesign,
    adapt_root,
    done_cycle_enabled,
    infer_widths,
    load_cycle_count,
    map_design,
    node_reg,
)


def validate_inputs(spec: CiSpec, inputs: dict[str, int]) -> None:
    """Reject missing, unknown, or out-of-range operand values."""
    declared = {decl.name for decl in spec.inputs}
    for name in inputs:
        if name not in declared:
            raise InputOutOfRange(f"'{name}' is not an input of {spec.name}")
    for decl in spec.inputs:
        if decl.name not in inputs:
            raise InputOutOfRange(f"missing value for input '{decl.name}'")
        value = inputs[decl.name]
        if decl.signed:
            lo, hi = -(1 << (decl.width - 1)), (1 << (decl.width - 1)) - 1
        else:
            lo, hi = 0, (1 << decl.width) - 1
        if not lo <= value <= hi:
            kind = "signed" if decl.signed else "unsigned"
            raise InputOutOfRange(
                f"input '{decl.name}' = {value} does not fit {kind}<{decl.width}>")


def _trunc_div(n: int, d: int) -> int:
    q = abs(n) // abs(d)
    return -q if (n < 0) != (d < 0) else q


def eval_reference(spec: CiSpec, inputs: dict[str, int],
                   dfg: Dfg | None = None) -> BitVec:
    """Evaluate the expression over exact integers, reducing each node to its
    width, and adapt the root to the 32-bit result port.

    Division truncates toward zero; remainder takes the dividend's sign and
    modulus the divisor's sign.  A zero divisor raises DivideByZero naming
    the node.  Passing a width-inferred dfg skips rebuilding it per call.
    """
    validate_inputs(spec, inputs)
    if dfg is None:
        dfg = infer_widths(build_dfg(spec))

    def value(node_id: int) -> int:
        node = dfg.node(node_id)
        if isinstance(node, LeafNode):
            return inputs[node.decl.name]
        assert isinstance(node, OpNode)
        left, right = value(node.left), value(node.right)
        if node.kind is OpKind.ADD:
            raw = left + right
        elif node.kind is OpKind.SUB:
            raw = left - right
        elif node.kind is OpKind.MUL:
            raw = left * right
        else:
            if right == 0:
                raise DivideByZero(f"zero divisor at node {node_id}", node=node_id)
            if node.kind in (OpKind.DIVS, OpKind.DIVU):
                raw = _trunc_div(left, right)
            elif node.kind in (OpKind.REMS, OpKind.REMU):
                raw = left - _trunc_div(left, right) * right
            else:
                raw = left % right
        return BitVec.from_int(raw, dfg.width[node_id]).interpret(dfg.signed[node_id])

    root = dfg.root
    root_bits = BitVec.from_int(value(root), dfg.width[root])
    return adapt_root(root_bits, dfg.signed[root], spec.output)


@dataclass(frozen=True)
class Stimulus:
    """Clock-level disturbances applied around the normal driver sequence.

    All cycle numbers are absolute (counting every clock edge from 0, enabled
    or not).  strict makes a start pulse while the unit is busy an error
    instead of a silently ignored line.
    """
    clk_en_low: frozenset[int] = frozenset()
    reset_cycles: frozenset[int] = frozenset()
    extra_start_cycles: frozenset[int] = frozenset()
    start_cycle: int = 0
    strict: bool = True
    max_cycles: int | None = None

    def __post_init__(self):
        for name in ("clk_en_low", "reset_cycles", "extra_start_cycles"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))


@dataclass
class SimResult:
    """Outcome of one simulated invocation.

    done_cycle counts every clock edge; done_cycle_enabled counts only
    enabled cycles, with the start cycle as 0, and must always equal the
    scheduled value regardless of clk_en gaps.
    """
    result: BitVec
    done_cycle: int
    done_cycle_enabled: int
    rows: list[dict] = field(default_factory=list)


class IndexedDesign:
    """An HdlDesign indexed once for execution.

    Registers and their widths come from the control process and the signal
    declarations.  Every other signal is a wire, evaluated on demand from
    its single driver (an instance output port or a concurrent assignment)
    and cached for the cycle.  A fault of the design itself, such as a wire
    without a driver or a value whose width differs from its signal's,
    raises InternalCheckError.
    """

    def __init__(self, design: ast.HdlDesign):
        arch = design.architecture
        self.name = design.entity.name
        self.widths = {p.name: p.width for p in design.entity.ports}
        self.widths.update((s.name, s.width) for s in arch.signals)
        self.cleared = {r: BitVec(self.widths[r], 0) for r in arch.process.registers}
        self.steps = {step.index: step for step in arch.process.steps}
        # wire -> the expression assigned to it, or (evaluator, generics,
        # input signals, output signals) of the instance driving it
        self._drivers: dict[str, tuple | ast.Expr] = {
            assign.target: assign.expr for assign in arch.assigns}
        for inst in arch.instances:
            bound = dict(inst.port_map)
            ports = COMPONENT_DECLS[inst.kind].ports
            unit = (EVALUATORS[inst.kind], inst.generics,
                    [bound[p.name] for p in ports if p.direction == "in"],
                    [bound[p.name] for p in ports if p.direction == "out"])
            self._drivers.update((wire, unit) for wire in unit[3])

    def value(self, name: str, regs: dict[str, BitVec],
              wires: dict[str, BitVec]) -> BitVec:
        """A signal's value this cycle.  wires holds the input ports and the
        wires evaluated so far."""
        found = regs.get(name)
        if found is None:
            found = wires.get(name)
            if found is None:
                found = self._drive(name, regs, wires)
        return found

    def _drive(self, name: str, regs: dict[str, BitVec],
               wires: dict[str, BitVec]) -> BitVec:
        driver = self._drivers.get(name)
        if driver is None:
            raise InternalCheckError(f"{self.name}: {name} has no driver")
        if isinstance(driver, tuple):
            evaluate, generics, inputs, outputs = driver
            values = evaluate(generics, *[self.value(w, regs, wires) for w in inputs])
        else:
            outputs, values = (name,), (self.expr(driver, regs, wires),)
        for wire, value in zip(outputs, values):
            wires[wire] = self.fit(wire, value)
        return wires[name]

    def fit(self, name: str, value: BitVec) -> BitVec:
        """value, once checked against the declared width of name."""
        if value.width != self.widths.get(name):
            raise InternalCheckError(f"{self.name}: {value.width}-bit value on "
                                     f"{name}, declared {self.widths.get(name)}")
        return value

    def expr(self, expr: ast.Expr, regs: dict[str, BitVec],
             wires: dict[str, BitVec]) -> BitVec:
        if isinstance(expr, ast.Ref):
            return self.value(expr.name, regs, wires)
        if isinstance(expr, ast.Slice):
            whole = self.value(expr.name, regs, wires)
            if expr.width > whole.width:
                raise InternalCheckError(f"{self.name}: slice of {expr.width} "
                                         f"bits from {whole.width}-bit {expr.name}")
            return BitVec(expr.width, whole.bits & ((1 << expr.width) - 1))
        if isinstance(expr, ast.Resize):
            operand = self.expr(expr.operand, regs, wires)
            return BitVec.from_int(operand.interpret(expr.signed), expr.width)
        return mod_correct_eval(self.value(expr.remainder, regs, wires),
                                self.value(expr.divisor, regs, wires))


def simulate_ci(spec: CiSpec, inputs: dict[str, int],
                mapped: MappedDesign | None = None,
                stimulus: Stimulus | None = None,
                record: bool = True,
                design: IndexedDesign | None = None) -> SimResult:
    """Drive one invocation through the design and return its result.

    design defaults to build_design(spec, mapped), indexed.  The driver
    issues start with the first operand pair, streams the rest on the
    following enabled cycles, holds every line through clk_en-low cycles,
    and reissues from scratch after a reset pulse.  DivideByZero surfaces at the enabled cycle
    whose register latch (or done-cycle result read) consumes the bad
    output, with that cycle index attached.
    """
    if mapped is None:
        mapped = map_design(spec)
    validate_inputs(spec, inputs)
    if design is None:
        design = IndexedDesign(build_design(spec, mapped))
    stim = stimulus or Stimulus()
    loads = load_cycle_count(mapped)
    done_target = done_cycle_enabled(mapped)
    pair_lines = [(BitVec.from_int(inputs[first], 32),
                   BitVec.from_int(inputs[second] if second is not None else 0, 32))
                  for first, second in mapped.loading.cycles]

    limit = stim.max_cycles
    if limit is None:
        limit = stim.start_cycle + 4 * (done_target + 2) + \
            len(stim.clk_en_low) + len(stim.reset_cycles) + 8

    regs = dict(design.cleared)
    cnt = 0
    done = False
    started = False      # a start pulse was consumed at an earlier edge
    enabled_count = 0    # enabled cycles completed since the start cycle
    rows = [] if record else None
    observed: SimResult | None = None
    drain = 2 if record else 0   # post-done cycles kept in the trace

    for cycle in range(limit + 1):
        reset = cycle in stim.reset_cycles
        clk_en = cycle not in stim.clk_en_low
        wants_start = (not started and not reset and cycle >= stim.start_cycle) \
            or cycle in stim.extra_start_cycles
        pair_index = min(enabled_count, loads - 1) if started else 0
        dataa, datab = pair_lines[pair_index]
        wires = {"dataa": dataa, "datab": datab}

        if stim.strict and wants_start and clk_en and not reset and cnt != 0:
            raise ProtocolViolation(
                f"start asserted at cycle {cycle} while busy (cnt={cnt})")

        if rows is not None:
            try:
                row_result = design.value("result", regs, wires).bits
            except DivideByZero:
                row_result = None
            row_regs = {"cnt": cnt}
            row_regs.update((name, bv.bits) for name, bv in regs.items())
            rows.append({
                "cycle": cycle, "clk_en": int(clk_en),
                "start": int(wants_start), "dataa": dataa.bits,
                "datab": datab.bits, "regs": row_regs, "done": int(done),
                "result": row_result,
            })

        if observed is not None:
            if cycle >= observed.done_cycle + drain:
                observed.rows = rows or []
                return observed
        elif done and clk_en and not reset:
            try:
                final = design.value("result", regs, wires)
            except DivideByZero as exc:
                raise DivideByZero(
                    f"zero divisor reached the result port: {exc}",
                    cycle=enabled_count) from exc
            observed = SimResult(final, cycle, enabled_count)
            if drain == 0:
                observed.rows = rows or []
                return observed

        # clock edge
        if reset:
            regs = dict(design.cleared)
            cnt = 0
            done = False
            started = False
            enabled_count = 0
            continue
        if not clk_en:
            continue
        if cnt == 0:
            if not wants_start:
                done = False
                continue
            started = True
            enabled_count = 0
        step = design.steps.get(cnt)
        if step is None:
            raise InternalCheckError(f"{design.name}: no control step {cnt}")
        latched = {}
        for load in step.loads:
            try:
                latched[load.target] = design.fit(
                    load.target, design.expr(load.expr, regs, wires))
            except DivideByZero as exc:
                node = next((n for n in mapped.analysis.operation_sequence
                             if node_reg(n) == load.target), None)
                raise DivideByZero(
                    f"zero divisor latched on enabled cycle {enabled_count}: {exc}",
                    cycle=enabled_count, node=node) from exc
        regs.update(latched)
        done = step.set_done
        cnt = step.next_index
        enabled_count += 1

    if observed is not None:
        observed.rows = rows or []
        return observed
    raise InternalCheckError(
        f"done never observed within {limit} cycles for {spec.name}")


def check_equivalence(spec: CiSpec, mapped: MappedDesign | None = None,
                      vectors: list[dict[str, int]] | None = None,
                      stimulus: Stimulus | None = None,
                      design: ast.HdlDesign | None = None) -> list[dict]:
    """Compare the simulated design against the reference evaluator.

    design defaults to build_design(spec, mapped) and is indexed once for
    all vectors.  Returns one record per disagreement: differing result
    bits, a division fault on one side only, or a done pulse off its
    scheduled cycle.  An empty list means every vector matched bit for bit.
    """
    if mapped is None:
        mapped = map_design(spec)
    if not vectors:
        return []
    indexed = IndexedDesign(design if design is not None
                            else build_design(spec, mapped))
    mismatches = []
    expected_done = done_cycle_enabled(mapped)
    for vec in vectors:
        want: BitVec | None
        got: BitVec | None
        try:
            want = eval_reference(spec, vec, dfg=mapped.dfg)
        except DivideByZero:
            want = None
        sim = None
        try:
            sim = simulate_ci(spec, vec, mapped, stimulus, record=False,
                              design=indexed)
            got = sim.result
        except DivideByZero:
            got = None
        if want is not None and got is not None:
            if want.bits != got.bits:
                mismatches.append({"inputs": dict(vec),
                                   "reference": want.bits, "simulated": got.bits})
            elif sim is not None and sim.done_cycle_enabled != expected_done:
                mismatches.append({"inputs": dict(vec),
                                   "done_cycle": sim.done_cycle_enabled,
                                   "expected_done_cycle": expected_done})
        elif (want is None) != (got is None):
            mismatches.append({
                "inputs": dict(vec),
                "reference": "divide-by-zero" if want is None else want.bits,
                "simulated": "divide-by-zero" if got is None else got.bits})
    return mismatches
