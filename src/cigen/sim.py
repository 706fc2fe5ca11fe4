"""Simulation of a generated design, plus its reference oracle.

Two evaluators live here on purpose.  The oracle, ``reference_columns``,
evaluates the spec's dataflow graph over columns of plain ints, one entry
per vector: one pass over ``Dfg.order``, each node computed exactly and
cut to its width and signedness, and the root adapted to the 32-bit result
port.  It reads only the DFG and the width rules, never component
instances, adapters or the control schedule.  ``eval_reference`` is its
one-vector wrapper.  The other evaluator executes the ``HdlDesign`` that
``emit_vhdl`` prints.
``IndexedDesign`` lowers it once: the registers and widths it declares, each
wire's single driver (an instance through the component library's column
kernels, or a concurrent assignment) and, for every step of its control
process, the drivers and register loads that step needs.  That lowering
is the design's only connectivity check; ``hdl.validate_structure`` keeps
the rules of VHDL naming.  ``IndexedDesign.execute``, the one interpreter
of the control process, runs it over columns of plain ints, one entry per
vector.  ``check_equivalence`` runs every vector through it and through
the oracle together and compares each 32-bit result: that is the
bit-exactness check the rest of the toolchain relies on.  ``simulate_ci``
replays one invocation under clk_en gaps, resets and a late start.

Only the testbench side comes from the ``MappedDesign``: which operands the
driver puts on dataa and datab in each load cycle (the order the C header
sends them in) and the done cycle the latency contract promises.  Neither is
read back from the design, so a design that loads the wrong port or finishes
late disagrees with the reference instead of driving itself to agree.

The clock model: each attempt after a reset replays the same invocation,
so ``execute`` computes the state of each enabled cycle k since start once
and the stimulus only picks the k whose values each wall cycle shows
before its rising edge.  A reset edge sets k to 0, a clk_en-low edge holds
it and any other edge advances it, but k leaves 0 only under start: from
the start cycle on, without reset.  The result is read on the first
enabled cycle without reset that shows done.  Past the last disturbance
every edge advances k, so any finite stimulus completes.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator
from operator import itemgetter
from typing import NamedTuple

from . import vhdl_ast as ast
from .errors import (
    DivideByZero,
    InputOutOfRange,
    InternalCheckError,
    WidthMismatch,
)
from .frontend import CiSpec, Dfg, OperandDecl, OpKind
from .hdl import build_design
from .lpm import (
    MAX_INTERNAL_WIDTH,
    BitVec,
    Column,
    Component,
    LpmGenerics,
    low_bits,
    mod_correct,
    resize,
)
from .mapper import (
    MappedDesign,
    done_cycle_enabled,
    map_design,
    node_reg,
)

PORT_MASK = (1 << 32) - 1  # dataa, datab and result are 32 bits wide


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
        lo, hi = decl.bounds
        if not lo <= value <= hi:
            kind = "signed" if decl.signed else "unsigned"
            raise InputOutOfRange(
                f"input '{decl.name}' = {value} does not fit {kind}<{decl.width}>")


def input_columns(spec: CiSpec, vectors: list[dict[str, int]]) -> dict[str, Column]:
    """The vectors as one column per declared input, each column
    range-checked once.  When a vector is missing an input, names an unknown
    one or holds an out-of-range value, raises what validate_inputs raises
    for the first such vector."""
    names = [decl.name for decl in spec.inputs]
    try:
        if all(len(vec) == len(names) for vec in vectors):
            columns = {name: [vec[name] for vec in vectors] for name in names}
            bounds = (decl.bounds for decl in spec.inputs)
            if all(lo <= min(column, default=lo) and max(column, default=hi) <= hi
                   for (lo, hi), column in zip(bounds, columns.values())):
                return columns
    except KeyError:   # a vector lacks an input
        pass
    for vec in vectors:
        validate_inputs(spec, vec)
    raise AssertionError("unreachable: validate_inputs accepted every vector")


class Reference(NamedTuple):
    """The oracle's values for a batch of vectors, one entry per vector."""
    result: Column                  # the 32-bit result port
    zero_divisor: list[int | None]  # first node in Dfg.order with a zero divisor
    nodes: dict[int, Column]        # every node, read with its signedness


def reference_columns(spec: CiSpec, columns: dict[str, Column],
                      count: int) -> Reference:
    """Evaluate the spec's dataflow graph over count vectors at once.

    columns holds one in-range column per input.  Each node is one pass over
    plain ints: the exact result of its operator, reduced to the node's
    width and read with its signedness.  Division truncates toward zero;
    remainder takes the dividend's sign and modulus the divisor's sign.  A
    zero divisor is recorded for its vector and then replaced by 1, so later
    nodes cannot raise; that vector's later values mean nothing.
    """
    dfg = spec.dfg
    values = {leaf.id: columns[leaf.decl.name] for leaf in dfg.leaf_nodes()}
    zero_divisor: list[int | None] = [None] * count
    for node_id in dfg.order:
        node = dfg.nodes[node_id]
        kind, left, right = node.kind, values[node.left], values[node.right]
        # ((x + half) & mask) - half is x cut to the node's width and read
        # with its signedness: half is the sign bit's weight, or 0
        mask = (1 << dfg.width[node_id]) - 1
        half = (mask + 1) >> 1 if dfg.signed[node_id] else 0
        if kind is OpKind.ADD:
            column = [((a + b + half) & mask) - half for a, b in zip(left, right)]
        elif kind is OpKind.SUB:
            column = [((a - b + half) & mask) - half for a, b in zip(left, right)]
        elif kind is OpKind.MUL:
            column = [((a * b + half) & mask) - half for a, b in zip(left, right)]
        else:
            if 0 in right:
                for index, b in enumerate(right):
                    if b == 0 and zero_divisor[index] is None:
                        zero_divisor[index] = node_id
                right = [b or 1 for b in right]
            pairs = zip(left, right)
            if kind is OpKind.DIVS:
                raw = [-(-a // b) if (a < 0) != (b < 0) else a // b
                       for a, b in pairs]
            elif kind is OpKind.REMS:
                raw = [-(-a % b) if (a < 0) != (b < 0) else a % b
                       for a, b in pairs]
            elif kind is OpKind.DIVU:
                raw = [a // b for a, b in pairs]
            else:   # REMU, MODU and MODS: the flooring remainder
                raw = [a % b for a, b in pairs]
            column = [((x + half) & mask) - half for x in raw]
        values[node_id] = column
    return Reference(adapt_root(values[dfg.root], spec.output), zero_divisor,
                     values)


def adapt_root(root: Column, out: OperandDecl) -> Column:
    """The root column on the 32-bit result port: each value cut to the
    output's width, read with the output's signedness, then taken as 32
    bits.  As no node is wider than 32 bits, this is the same as cutting or
    extending the root to the output width with the root's signedness and
    then extending that to 32 bits with the output's."""
    mask = (1 << out.width) - 1
    half = (mask + 1) >> 1 if out.signed else 0
    return [(((value + half) & mask) - half) & PORT_MASK for value in root]


def eval_reference(spec: CiSpec, inputs: dict[str, int],
                   dfg: Dfg | None = None) -> BitVec:
    """The reference oracle on one vector: reference_columns over columns
    of one entry, giving the result port's 32 bits.

    A zero divisor raises DivideByZero naming the first node in Dfg.order
    that meets one.  ``dfg`` defaults to ``spec.dfg``.
    """
    if dfg is not None:
        spec = spec._replace(dfg=dfg)
    reference = reference_columns(spec, input_columns(spec, [inputs]), 1)
    node = reference.zero_divisor[0]
    if node is not None:
        raise DivideByZero(f"zero divisor at node {node}", node=node)
    return BitVec(32, reference.result[0])


class _StimulusFields(NamedTuple):
    clk_en_low: frozenset[int]
    reset_cycles: frozenset[int]
    start_cycle: int


class Stimulus(_StimulusFields):
    """Clock-level disturbances applied around the normal driver sequence.

    All cycle numbers are absolute (counting every clock edge from 0, enabled
    or not).  Cycle sets of any iterable type are stored as frozensets.
    """
    __slots__ = ()

    def __new__(cls, clk_en_low=frozenset(), reset_cycles=frozenset(),
                start_cycle: int = 0):
        return super().__new__(cls, frozenset(clk_en_low),
                               frozenset(reset_cycles), start_cycle)


class SimResult(NamedTuple):
    """Outcome of one simulated invocation.

    done_cycle counts every clock edge; done_cycle_enabled counts only
    enabled cycles, with the start cycle as 0, and must always equal the
    scheduled value regardless of clk_en gaps.
    """
    result: BitVec
    done_cycle: int
    done_cycle_enabled: int
    rows: list[dict]


# Computes one driver's wires from the signal values, adding the vectors
# whose dividers meet a zero divisor to the fault set.
Op = Callable[[dict[str, Column], set[int]], None]


def _assign_op(target: str, read: Callable[[dict], Column]) -> Op:
    def op(values: dict[str, Column], faults: set[int]) -> None:
        values[target] = read(values)
    return op


def _instance_op(kernel: Callable[..., tuple[Column, ...]],
                 generics: LpmGenerics, ins: tuple[str, ...],
                 outs: tuple[str, ...]) -> Op:
    """An op running kernel from the input wires to the output wires.  The
    one-output kinds are spelled out, and their names bound as defaults,
    which are cheaper to make and to read than closure cells: a wide design
    has thousands of them."""
    if len(outs) == 1 and len(ins) == 2:
        (a, b), (out,) = ins, outs

        def op(values, faults, kernel=kernel, generics=generics, a=a, b=b,
               out=out) -> None:
            values[out], = kernel(generics, faults, values[a], values[b])
    elif len(outs) == 1 and len(ins) == 1:
        (a,), (out,) = ins, outs

        def op(values, faults, kernel=kernel, generics=generics, a=a,
               out=out) -> None:
            values[out], = kernel(generics, faults, values[a])
    else:
        def op(values: dict[str, Column], faults: set[int]) -> None:
            values.update(zip(outs, kernel(generics, faults,
                                           *[values[wire] for wire in ins])))
    return op


class IndexedDesign:
    """An HdlDesign lowered once for execution over columns of vectors.

    Registers and their widths come from the control process and the signal
    declarations; dataa and datab are set by the driver.  Every other signal
    read is a wire computed by its single driver, an instance through its
    generics' ``component.kernel`` or a concurrent assignment, each compiled
    once into an op over plain-int columns.  A step's number, the counter
    value that selects it, is its position in the process's steps.  Every
    step is planned at index time: per register load, the driver ops it
    needs that no earlier load of the step computed, in dependency order.
    ``execute`` runs those plans edge by edge, over one column entry per
    vector: a whole batch for ``run``, one invocation for ``simulate_ci``.

    Indexing is the design's only connectivity check.  It raises
    InternalCheckError for widths that break a component's or a load's
    contract, a component port unbound, undeclared or bound twice, an
    undeclared name, a wire with no driver or two, a driver on a register or
    an entity port other than result, an undeclared register, a load of a
    non-register, a combinational loop, a next step number out of range, or
    a chain that never sets done.
    """

    def __init__(self, design: ast.HdlDesign):
        arch = design.architecture
        self.name = design.entity.name
        signals = {s.name: s.width for s in arch.signals}
        self.widths = {p.name: p.width for p in design.entity.ports}
        self.widths.update(signals)
        widths = self.widths.values()
        if min(widths, default=1) < 1 or max(widths, default=1) > MAX_INTERNAL_WIDTH:
            for name, width in self.widths.items():
                self._check_width(width, name)
        self.registers = arch.process.registers
        undeclared = set(self.registers).difference(signals)
        if undeclared:
            raise InternalCheckError(f"{self.name}: register {min(undeclared)} "
                                     "is not a declared signal")
        self.steps = arch.process.steps
        for index in {0}.union(step.next_index for step in self.steps):
            if not 0 <= index < len(self.steps):
                raise InternalCheckError(f"{self.name}: no control step {index}")
        self._register_set = frozenset(self.registers)
        self._sources = self._register_set | {"dataa", "datab"}
        # of the entity ports, only result is a wire
        self._undrivable = self._register_set | \
            {p.name for p in design.entity.ports} - {"result"}
        # wire -> (signals read, wires written, op)
        self._drivers: dict[str, tuple[tuple[str, ...], tuple[str, ...], Op]] = {}
        for target, expr in arch.assigns:
            read, reads = self._compile(expr, target)
            self._drive((target,), reads, _assign_op(target, read))
        for inst in arch.instances:
            self._lower_instance(inst)
        self._plans = [self._plan(index, step)
                       for index, step in enumerate(self.steps)]
        self._result_ops = self._ops(("result",), {})
        self.done_cycle = self._done_cycle()

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
            if wire in self._undrivable:
                raise InternalCheckError(f"{self.name}: {wire} is driven "
                                         "combinationally but is not a wire")
            if wire in self._drivers:
                raise InternalCheckError(f"{self.name}: {wire} has a second driver")
            self._drivers[wire] = (reads, wires, op)

    def _lower_instance(self, inst: ast.Instance) -> None:
        """Check inst's port map and wire widths against its kind, then
        drive its output wires through the kind's kernel."""
        label, generics, port_map = inst
        component = generics.component
        ports, wires = zip(*port_map) if port_map else ((), ())
        if ports != component.ports:
            wires = self._bind_by_name(inst, component)
        in_widths, out_widths = generics.port_widths()
        widths = in_widths + out_widths
        if tuple(map(self.widths.get, wires)) != widths:
            for wire, width in zip(wires, widths):
                if self._width(wire) != width:
                    raise WidthMismatch(f"{self.name}: {label} needs {width} "
                                        f"bits on {wire}, declared "
                                        f"{self._width(wire)}")
        ins, outs = wires[:len(in_widths)], wires[len(in_widths):]
        self._drive(outs, ins, _instance_op(component.kernel, generics, ins, outs))

    def _bind_by_name(self, inst: ast.Instance,
                      component: Component) -> tuple[str, ...]:
        """The wires inst binds to component's ports, in declaration order,
        once every port is bound exactly once and nothing else is."""
        bound: dict[str, str] = {}
        for port, wire in inst.port_map:
            if port not in component.ports:
                raise InternalCheckError(
                    f"{self.name}: {inst.label} binds port {port}, which "
                    f"{component.decl.name} does not declare")
            if port in bound:
                raise InternalCheckError(f"{self.name}: {inst.label} binds "
                                         f"port {port} twice")
            bound[port] = wire
        for port in component.ports:
            if port not in bound:
                raise InternalCheckError(f"{self.name}: {inst.label} leaves "
                                         f"port {port} unbound")
        return tuple(bound[port] for port in component.ports)

    def _compile(self, expr: ast.Expr,
                 target: str) -> tuple[Callable[[dict], Column], tuple[str, ...]]:
        """expr as a function of the signal values, with the signals it
        reads, once its width is checked against target's."""
        read, width, reads = self._expr(expr)
        if width != self._width(target):
            raise InternalCheckError(f"{self.name}: {width}-bit value on "
                                     f"{target}, declared {self._width(target)}")
        return read, reads

    def _expr(self, expr: ast.Expr) -> tuple[Callable[[dict], Column], int,
                                              tuple[str, ...]]:
        if isinstance(expr, ast.Ref):
            name = expr.name
            return itemgetter(name), self._width(name), (name,)
        if isinstance(expr, ast.Slice):
            name, width, whole = expr.name, expr.width, self._width(expr.name)
            if not 1 <= width <= whole:
                raise InternalCheckError(f"{self.name}: slice of {width} "
                                         f"bits from {whole}-bit {name}")
            return (lambda values, name=name, width=width:
                    low_bits(values[name], width)), width, (name,)
        if isinstance(expr, ast.Resize):
            inner, from_width, reads = self._expr(expr.operand)
            signed, width = expr.signed, expr.width
            self._check_width(width, "resize")
            return (lambda values: resize(inner(values), from_width, signed,
                                          width)), width, reads
        r, d, width = expr.remainder, expr.divisor, self._width(expr.remainder)
        if self._width(d) != width:
            raise WidthMismatch(f"{self.name}: mod correction of {width}-bit "
                                f"{r} by {self._width(d)}-bit {d}")
        return (lambda values: mod_correct(values[r], values[d], width)), \
            width, (r, d)

    def _ops(self, names: tuple[str, ...], done: dict[str, bool]) -> tuple[Op, ...]:
        """The driver ops computing the wires among names that done lacks,
        each after the ops it reads from.  done maps the wires met so far
        to True once computed, False while their reads are resolved."""
        ops: list[Op] = []
        for name in names:
            if name not in self._sources:
                self._need(name, done, ops)
        return tuple(ops)

    def _need(self, name: str, done: dict[str, bool], ops: list[Op]) -> None:
        state = done.get(name)
        if state:
            return
        if state is False:
            raise InternalCheckError(f"{self.name}: combinational loop through {name}")
        driver = self._drivers.get(name)
        if driver is None:
            raise InternalCheckError(f"{self.name}: {name} has no driver")
        done[name] = False
        reads, outputs, op = driver
        for read in reads:
            if read not in self._sources:
                self._need(read, done, ops)
        ops.append(op)
        for wire in outputs:
            done[wire] = True

    def _plan(self, index: int,
              step: ast.ControlStep) -> list[tuple[str, tuple[Op, ...], Callable]]:
        """Per load of step number index: its target, the driver ops it needs
        that no earlier load of the step computed, and its compiled expression."""
        done: dict[str, bool] = {}
        plan = []
        for target, expr in step.loads:
            if target not in self._register_set:
                raise InternalCheckError(f"{self.name}: step {index} loads "
                                         f"{target}, which is no register")
            read, reads = self._compile(expr, target)
            plan.append((target, self._ops(reads, done), read))
        return plan

    def _done_cycle(self) -> int:
        """The enabled cycle on which done is high: the number of steps from
        start through the first that sets done, each reached once."""
        index = 0
        for cycle in range(1, len(self.steps) + 1):
            if self.steps[index].set_done:
                return cycle
            index = self.steps[index].next_index
        raise InternalCheckError(f"{self.name}: done is never set after start")

    def execute(self, pairs: list[tuple[Column, Column]], count: int,
                faults: set[int]) -> Iterator[tuple[int, bool, dict[str, Column],
                                                     str | None]]:
        """Run count vectors from start with pairs[k] on dataa and datab in
        enabled cycle k (the last pair held).  Yields for k = 0, 1, 2, ...
        the counter, done and values of enabled cycle k, and the first
        register whose load on the edge into it met a zero divisor (such
        vectors join faults), or None.  Past done the counter runs on to 0,
        where edges only lower done.  Each yield updates one values dict,
        replacing columns, never writing into one."""
        values: dict[str, Column] = dict.fromkeys(self.registers, [0] * count)
        values["dataa"], values["datab"] = pairs[0]
        index, done, fault, last = 0, False, None, len(pairs) - 1
        steps, plans = self.steps, self._plans
        for k in itertools.count(1):   # then the edge into enabled cycle k
            yield index, done, values, fault
            fault, done = None, False
            if index or k == 1:
                step, latched = steps[index], []
                for target, ops, read in plans[index]:
                    seen = len(faults)
                    for op in ops:
                        op(values, faults)
                    if fault is None and len(faults) > seen:
                        fault = target
                    latched.append((target, read(values)))
                values.update(latched)
                done, index = step.set_done, step.next_index
            values["dataa"], values["datab"] = pairs[min(k, last)]

    def result(self, values: dict[str, Column], faults: set[int]) -> Column:
        """The result port's column under values."""
        for op in self._result_ops:
            op(values, faults)
        return values["result"]

    def run(self, pairs: list[tuple[Column, Column]],
            count: int) -> tuple[Column, set[int], int]:
        """Run count vectors at once from start to the done cycle.  Returns
        the result column, the vectors whose dividers met a zero divisor,
        and the enabled cycle on which done is high."""
        faults: set[int] = set()
        execution = self.execute(pairs, count, faults)
        _, _, values, _ = next(itertools.islice(execution, self.done_cycle, None))
        return self.result(values, faults), faults, self.done_cycle


def operand_columns(mapped: MappedDesign,
                   vectors: list[dict[str, int]]) -> list[tuple[Column, Column]]:
    """The dataa and datab columns of each load cycle: the operand order the
    C header sends, taken from the mapping and never from the design."""
    def column(name: str | None) -> Column:
        if name is None:
            return [0] * len(vectors)
        return [vec[name] & PORT_MASK for vec in vectors]
    return [(column(first), column(second))
            for first, second in mapped.loading]


def simulate_ci(spec: CiSpec, inputs: dict[str, int],
                mapped: MappedDesign | None = None,
                stimulus: Stimulus | None = None,
                record: bool = True) -> SimResult:
    """Drive one invocation through build_design(spec, mapped) under the
    stimulus.

    The design executes once, on one-element columns, and the stimulus
    timeline picks which of its enabled cycles each wall cycle shows (see
    the module docstring).
    DivideByZero carries the enabled cycle whose register latch (or
    done-cycle result read) consumes the bad output."""
    if mapped is None:
        mapped = map_design(spec)
    validate_inputs(spec, inputs)
    design = IndexedDesign(build_design(spec, mapped))
    clk_en_low, reset_cycles, start_cycle = stimulus or Stimulus()
    execution = design.execute(operand_columns(mapped, [inputs]), 1, set())

    def port(values: dict[str, Column]) -> int | None:
        faults: set[int] = set()
        value = design.result(values, faults)[0]
        return None if faults else value

    # enabled cycle k's done, values and trace fields, reached so far
    states: list[tuple[bool, dict[str, Column], dict | None]] = []
    rows: list[dict] = []
    observed: SimResult | None = None
    k = 0
    # before start_cycle the unit is idle whatever the stimulus
    for cycle in itertools.count(0 if record else start_cycle):
        if k == len(states):
            cnt, done, values, fault = next(execution)
            if fault is not None:
                node = next((n for n in mapped.analysis.operation_sequence
                             if node_reg(n) == fault), None)
                raise DivideByZero("divide by zero: zero divisor latched on "
                                   f"enabled cycle {k - 1}", cycle=k - 1,
                                   node=node)
            values, shown = dict(values), None
            if record:
                regs = {"cnt": cnt}
                regs.update((name, values[name][0]) for name in design.registers)
                shown = {"dataa": values["dataa"][0], "datab": values["datab"][0],
                         "regs": regs, "done": int(done), "result": port(values)}
            states.append((done, values, shown))
        done, values, shown = states[k]
        reset = cycle in reset_cycles
        clk_en = cycle not in clk_en_low
        start = k == 0 and not reset and cycle >= start_cycle
        if record:
            rows.append({"cycle": cycle, "clk_en": int(clk_en),
                         "start": int(start), **shown})
        if observed is None and done and clk_en and not reset:
            final = port(values)
            if final is None:
                raise DivideByZero("divide by zero: zero divisor reached the "
                                   f"result port on enabled cycle {k}", cycle=k)
            observed = SimResult(BitVec(design.widths["result"], final),
                                 cycle, k, rows)
        # a trace keeps the two cycles after done
        if observed is not None and cycle >= observed.done_cycle + 2 * record:
            return observed
        if reset:
            k = 0
        elif clk_en and (k or start):
            k += 1


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
    reference = reference_columns(spec, input_columns(spec, vectors),
                                  len(vectors))
    indexed = IndexedDesign(design if design is not None
                            else build_design(spec, mapped))
    results, faults, done = indexed.run(operand_columns(mapped, vectors),
                                        len(vectors))
    expected_done = done_cycle_enabled(mapped)
    zero_divisor, expected = reference.zero_divisor, reference.result
    mismatches = []
    for index, vec in enumerate(vectors):
        want = None if zero_divisor[index] is not None else expected[index]
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
