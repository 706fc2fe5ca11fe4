"""Simulation of a generated design, plus its reference oracle.

Two evaluators live here on purpose.  ``eval_reference`` evaluates the
spec's dataflow graph, children first, over exact Python integers and
applies the width rules at each node; it never looks at component
instances, adapters or the control schedule.  The other executes the
``HdlDesign`` that ``emit_vhdl`` prints.
``IndexedDesign`` lowers it once: the registers and widths it declares, each
wire's single driver (an instance through the component library's column
kernels, or a concurrent assignment) and, for every step of its control
process from start to done, the drivers and register loads that step needs.
Two drivers run that one lowered design over columns of plain ints, one
entry per vector.  ``check_equivalence`` runs every vector through it
together and compares each 32-bit result with the reference: that is the
bit-exactness check the rest of the toolchain relies on.  ``simulate_ci``
steps it cycle by cycle for one invocation, with clk_en gaps, resets,
protocol checks and a trace.

Only the testbench side comes from the ``MappedDesign``: which operands the
driver puts on dataa and datab in each load cycle (the order the C header
sends them in) and the done cycle the latency contract promises.  Neither is
read back from the design, so a design that loads the wrong port or finishes
late disagrees with the reference instead of driving itself to agree.

The clock model: every loop iteration of ``simulate_ci`` is one rising edge.
A trace row shows the values visible during the cycle before that edge.
Registers update on the edge only when clk_en is high; a high reset clears
them on any edge, enabled or not.  The batched run is the same chain with
clk_en always high and no reset.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from . import vhdl_ast as ast
from .errors import (
    DivideByZero,
    InputOutOfRange,
    InternalCheckError,
    ProtocolViolation,
    WidthMismatch,
)
from .frontend import CiSpec, Dfg, OpKind
from .hdl import build_design
from .lpm import (
    COMPONENT_DECLS,
    KERNELS,
    MAX_INTERNAL_WIDTH,
    BitVec,
    Column,
    low_bits,
    mod_correct,
    port_widths,
    resize,
)
from .mapper import (
    MappedDesign,
    adapt_root,
    done_cycle_enabled,
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
    the node.  ``dfg`` defaults to ``spec.dfg``.
    """
    validate_inputs(spec, inputs)
    if dfg is None:
        dfg = spec.dfg
    value = {leaf.id: inputs[leaf.decl.name] for leaf in dfg.leaf_nodes()}
    for node_id in dfg.order:
        node = dfg.nodes[node_id]
        left, right = value[node.left], value[node.right]
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
        value[node_id] = BitVec.from_int(raw, dfg.width[node_id]) \
            .interpret(dfg.signed[node_id])

    root = dfg.root
    root_bits = BitVec.from_int(value[root], dfg.width[root])
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


PORT_MASK = (1 << 32) - 1  # dataa and datab are 32 bits wide

# Computes one driver's wires from the signal values, adding the vectors
# whose dividers meet a zero divisor to the fault set.
Op = Callable[[dict[str, Column], set[int]], None]


def _reads(expr: ast.Expr) -> tuple[str, ...]:
    """The signals an expression reads."""
    if isinstance(expr, (ast.Ref, ast.Slice)):
        return (expr.name,)
    if isinstance(expr, ast.Resize):
        return _reads(expr.operand)
    return (expr.remainder, expr.divisor)


class IndexedDesign:
    """An HdlDesign lowered once for execution over columns of vectors.

    Registers and their widths come from the control process and the signal
    declarations; dataa and datab are set by the driver.  Every other signal
    read is a wire computed by its single driver, an instance through
    ``lpm.KERNELS`` or a concurrent assignment, each compiled once into an
    op over plain-int columns.  Every step the control chain reaches from
    step 0 to the done cycle is planned at index time: per register load,
    the driver ops it needs that no earlier load of the step computed, in
    dependency order.  A column holds one entry per vector, so the same plan
    runs a whole batch (``run``) or one invocation cycle by cycle
    (``simulate_ci``).

    Faults of the design itself raise InternalCheckError while indexing:
    a component or load whose widths break their contract, a wire without a
    driver, a combinational loop, a missing control step, or a chain that
    never sets done.
    """

    def __init__(self, design: ast.HdlDesign):
        arch = design.architecture
        self.name = design.entity.name
        self.widths = {p.name: p.width for p in design.entity.ports}
        self.widths.update((s.name, s.width) for s in arch.signals)
        for name, width in self.widths.items():
            self._check_width(width, name)
        self.registers = arch.process.registers
        self.steps = {step.index: step for step in arch.process.steps}
        self._register_set = frozenset(self.registers)
        self._sources = self._register_set | {"dataa", "datab"}
        # wire -> (signals read, wires written, op)
        self._drivers: dict[str, tuple[tuple[str, ...], tuple[str, ...], Op]] = {}
        for assign in arch.assigns:
            self._drive((assign.target,), _reads(assign.expr),
                        self._assign_op(assign.target, assign.expr))
        for inst in arch.instances:
            self._drive(*self._instance_op(inst))
        self._plans: dict[int, tuple[tuple[str, list[Op], Callable], ...]] = {}
        self.chain = self._walk()
        self._result_ops = self._ops(("result",), set())

    def _check_width(self, width: int, what: str) -> None:
        if not 1 <= width <= MAX_INTERNAL_WIDTH:
            raise WidthMismatch(f"{self.name}: {width}-bit {what}")

    def _width(self, name: str) -> int:
        width = self.widths.get(name)
        if width is None:
            raise InternalCheckError(f"{self.name}: {name} is not declared")
        return width

    def _drive(self, wires: tuple[str, ...], reads: tuple[str, ...], op: Op) -> None:
        for wire in wires:
            if wire in self._sources:
                raise InternalCheckError(f"{self.name}: {wire} is driven "
                                         "combinationally but is not a wire")
            self._drivers[wire] = (reads, wires, op)

    def _instance_op(self, inst: ast.Instance):
        bound = dict(inst.port_map)
        ports = COMPONENT_DECLS[inst.kind].ports
        ins = tuple(bound[p.name] for p in ports if p.direction == "in")
        outs = tuple(bound[p.name] for p in ports if p.direction == "out")
        in_widths, out_widths = port_widths(inst.kind, inst.generics)
        for wire, width in zip(ins + outs, in_widths + out_widths):
            if self._width(wire) != width:
                raise WidthMismatch(f"{self.name}: {inst.label} needs {width} bits "
                                    f"on {wire}, declared {self._width(wire)}")
        kernel, generics = KERNELS[inst.kind], inst.generics

        def op(values: dict[str, Column], faults: set[int]) -> None:
            values.update(zip(outs, kernel(generics, faults,
                                           *[values[wire] for wire in ins])))
        return outs, ins, op

    def _assign_op(self, target: str, expr: ast.Expr) -> Op:
        read = self._compile(expr, target)

        def op(values: dict[str, Column], faults: set[int]) -> None:
            values[target] = read(values)
        return op

    def _compile(self, expr: ast.Expr, target: str) -> Callable[[dict], Column]:
        """expr as a function of the signal values, once its width is
        checked against target's."""
        read, width = self._expr(expr)
        if width != self._width(target):
            raise InternalCheckError(f"{self.name}: {width}-bit value on "
                                     f"{target}, declared {self._width(target)}")
        return read

    def _expr(self, expr: ast.Expr) -> tuple[Callable[[dict], Column], int]:
        if isinstance(expr, ast.Ref):
            name = expr.name
            return (lambda values: values[name]), self._width(name)
        if isinstance(expr, ast.Slice):
            name, width, whole = expr.name, expr.width, self._width(expr.name)
            if not 1 <= width <= whole:
                raise InternalCheckError(f"{self.name}: slice of {width} "
                                         f"bits from {whole}-bit {name}")
            return (lambda values: low_bits(values[name], width)), width
        if isinstance(expr, ast.Resize):
            inner, from_width = self._expr(expr.operand)
            signed, width = expr.signed, expr.width
            self._check_width(width, "resize")
            return (lambda values: resize(inner(values), from_width, signed,
                                          width)), width
        r, d, width = expr.remainder, expr.divisor, self._width(expr.remainder)
        if self._width(d) != width:
            raise WidthMismatch(f"{self.name}: mod correction of {width}-bit "
                                f"{r} by {self._width(d)}-bit {d}")
        return (lambda values: mod_correct(values[r], values[d], width)), width

    def _ops(self, names: tuple[str, ...], done: set[str]) -> list[Op]:
        """The driver ops computing the wires among names that done lacks,
        each after the ops it reads from; their outputs join done."""
        ops: list[Op] = []
        for name in names:
            self._need(name, frozenset(), done, ops)
        return ops

    def _need(self, name: str, pending: frozenset[str], done: set[str],
              ops: list[Op]) -> None:
        if name in self._sources or name in done:
            return
        driver = self._drivers.get(name)
        if driver is None:
            raise InternalCheckError(f"{self.name}: {name} has no driver")
        if name in pending:
            raise InternalCheckError(f"{self.name}: combinational loop through {name}")
        reads, outputs, op = driver
        for read in reads:
            self._need(read, pending | {name}, done, ops)
        ops.append(op)
        done.update(outputs)

    def _plan(self, index: int) -> tuple[tuple[str, list[Op], Callable], ...]:
        """Per load of step index: its target, the driver ops it needs that
        no earlier load of the step computed, and its compiled expression."""
        plan = self._plans.get(index)
        if plan is None:
            step, done, plan = self.step(index), set(), []
            for load in step.loads:
                if load.target not in self._register_set:
                    raise InternalCheckError(f"{self.name}: step {index} loads "
                                             f"{load.target}, which is no register")
                read = self._compile(load.expr, load.target)
                plan.append((load.target, self._ops(_reads(load.expr), done), read))
            plan = self._plans[index] = tuple(plan)
        return plan

    def _walk(self) -> tuple[int, ...]:
        """The steps the counter runs through from start to done."""
        chain: list[int] = []
        index = 0
        while len(chain) <= len(self.steps):   # longer chains revisit a step
            chain.append(index)
            self._plan(index)
            if self.steps[index].set_done:
                return tuple(chain)
            index = self.steps[index].next_index
        raise InternalCheckError(f"{self.name}: done is never set after start")

    def step(self, index: int) -> ast.ControlStep:
        step = self.steps.get(index)
        if step is None:
            raise InternalCheckError(f"{self.name}: no control step {index}")
        return step

    def loads(self, index: int, values: dict[str, Column],
              faults: set[int]) -> Iterator[tuple[str, Column]]:
        """Each register step index loads, with the column it latches from
        values; wires computed on the way join values and zero divisors join
        faults.  Apply the loads only after the last one is read."""
        for target, ops, read in self._plan(index):
            for op in ops:
                op(values, faults)
            yield target, read(values)

    def result(self, values: dict[str, Column], faults: set[int]) -> Column:
        """The result port's column under values."""
        for op in self._result_ops:
            op(values, faults)
        return values["result"]

    def run(self, pairs: list[tuple[Column, Column]],
            count: int) -> tuple[Column, set[int], int]:
        """Run count vectors at once from start to the done cycle, with
        pairs[c] on dataa/datab in enabled cycle c (the last pair held).
        Returns the result column, the vectors whose dividers met a zero
        divisor, and the enabled cycle on which done is high."""
        values: dict[str, Column] = {name: [0] * count for name in self.registers}
        faults: set[int] = set()
        for cycle, index in enumerate(self.chain):
            values["dataa"], values["datab"] = pairs[min(cycle, len(pairs) - 1)]
            values.update(list(self.loads(index, values, faults)))
        done = len(self.chain)
        values["dataa"], values["datab"] = pairs[min(done, len(pairs) - 1)]
        return self.result(values, faults), faults, done


def operand_columns(mapped: MappedDesign,
                   vectors: list[dict[str, int]]) -> list[tuple[Column, Column]]:
    """The dataa and datab columns of each load cycle: the operand order the
    C header sends, taken from the mapping and never from the design."""
    def column(name: str | None) -> Column:
        if name is None:
            return [0] * len(vectors)
        return [vec[name] & PORT_MASK for vec in vectors]
    return [(column(first), column(second))
            for first, second in mapped.loading.cycles]


def simulate_ci(spec: CiSpec, inputs: dict[str, int],
                mapped: MappedDesign | None = None,
                stimulus: Stimulus | None = None,
                record: bool = True,
                design: IndexedDesign | None = None) -> SimResult:
    """Drive one invocation through the design cycle by cycle and return its
    result.

    design defaults to build_design(spec, mapped), indexed; every cycle runs
    its plans on one-element columns.  The driver issues start with the
    first operand pair, streams the rest on the following enabled cycles,
    holds every line through clk_en-low cycles, and reissues from scratch
    after a reset pulse.  DivideByZero surfaces at the enabled cycle whose
    register latch (or done-cycle result read) consumes the bad output, with
    that cycle index attached.
    """
    if mapped is None:
        mapped = map_design(spec)
    validate_inputs(spec, inputs)
    if design is None:
        design = IndexedDesign(build_design(spec, mapped))
    stim = stimulus or Stimulus()
    loads = load_cycle_count(mapped)
    done_target = done_cycle_enabled(mapped)
    pair_lines = operand_columns(mapped, [inputs])

    limit = stim.max_cycles
    if limit is None:
        limit = stim.start_cycle + 4 * (done_target + 2) + \
            len(stim.clk_en_low) + len(stim.reset_cycles) + 8

    cleared = {name: [0] for name in design.registers}
    values = dict(cleared)   # registers, ports and this cycle's wires
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
        values["dataa"], values["datab"] = pair_lines[pair_index]

        if stim.strict and wants_start and clk_en and not reset and cnt != 0:
            raise ProtocolViolation(
                f"start asserted at cycle {cycle} while busy (cnt={cnt})")

        if rows is not None:
            faults: set[int] = set()
            row_result = design.result(values, faults)[0]
            row_regs = {"cnt": cnt}
            row_regs.update((name, values[name][0]) for name in design.registers)
            rows.append({
                "cycle": cycle, "clk_en": int(clk_en),
                "start": int(wants_start), "dataa": values["dataa"][0],
                "datab": values["datab"][0], "regs": row_regs, "done": int(done),
                "result": None if faults else row_result,
            })

        if observed is not None:
            if cycle >= observed.done_cycle + drain:
                observed.rows = rows or []
                return observed
        elif done and clk_en and not reset:
            faults = set()
            final = design.result(values, faults)[0]
            if faults:
                raise DivideByZero("zero divisor reached the result port: "
                                   "divide by zero", cycle=enabled_count)
            observed = SimResult(BitVec(design.widths["result"], final), cycle,
                                 enabled_count)
            if drain == 0:
                observed.rows = rows or []
                return observed

        # clock edge
        if reset:
            values.update(cleared)
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
        step = design.step(cnt)
        latched = []
        faults = set()
        for target, column in design.loads(cnt, values, faults):
            if faults:
                node = next((n for n in mapped.analysis.operation_sequence
                             if node_reg(n) == target), None)
                raise DivideByZero(
                    f"zero divisor latched on enabled cycle {enabled_count}: "
                    "divide by zero", cycle=enabled_count, node=node)
            latched.append((target, column))
        values.update(latched)
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
                      design: ast.HdlDesign | None = None) -> list[dict]:
    """Compare the design against the reference evaluator.

    design defaults to build_design(spec, mapped).  It is lowered once and
    every vector runs through it together, one column entry per vector.
    Returns one record per disagreement: differing result bits, a division
    fault on one side only, or a done pulse off its scheduled cycle.  An
    empty list means every vector matched bit for bit.
    """
    if mapped is None:
        mapped = map_design(spec)
    if not vectors:
        return []
    wants: list[int | None] = []
    for vec in vectors:
        try:
            wants.append(eval_reference(spec, vec).bits)
        except DivideByZero:
            wants.append(None)
    indexed = IndexedDesign(design if design is not None
                            else build_design(spec, mapped))
    results, faults, done = indexed.run(operand_columns(mapped, vectors),
                                        len(vectors))
    expected_done = done_cycle_enabled(mapped)
    mismatches = []
    for index, (vec, want) in enumerate(zip(vectors, wants)):
        got = None if index in faults else results[index]
        if want is not None and got is not None:
            if want != got:
                mismatches.append({"inputs": dict(vec),
                                   "reference": want, "simulated": got})
            elif done != expected_done:
                mismatches.append({"inputs": dict(vec), "done_cycle": done,
                                   "expected_done_cycle": expected_done})
        elif (want is None) != (got is None):
            mismatches.append({
                "inputs": dict(vec),
                "reference": "divide-by-zero" if want is None else want,
                "simulated": "divide-by-zero" if got is None else got})
    return mismatches
