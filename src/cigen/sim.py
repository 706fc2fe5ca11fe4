"""Simulation of a generated design, plus its reference oracle.

Two evaluators live here on purpose.  The oracle, ``reference_columns``,
evaluates the spec's dataflow graph over columns of plain ints, one entry
per vector: one pass over ``Dfg.order``, each node computed exactly and
cut to its width and signedness, and the root adapted to the 32-bit result
port.  It reads only the DFG and the width rules, never component
instances, adapters or the control schedule.  ``eval_reference`` is its
one-vector wrapper.  The other evaluator executes the ``HdlDesign`` that
``emit_vhdl`` prints.  ``IndexedDesign`` lowers it once: the registers and
widths it declares, each wire's single driver as a plain record (an
instance's kernel from the component library, its generics, input wires
and output wires, bound to the component's ports in declaration order;
each node of an expression, assigned or loaded, over ``low_bits``,
``resize`` or ``mod_correct``) and one flat program for each step of its
control process and for the result port, ordered by one depth-first walk:
the records its loads read through, in dependency order, and the loads,
each the record of its expression's top node.  Each step leads to the one
``ControlProcess.successor`` names, as the VHDL text prints it.  That
lowering is the design's only connectivity check;
``hdl.validate_structure`` keeps the rules of VHDL naming.
``IndexedDesign.execute``, the one interpreter of the control process,
runs the programs in one loop over columns of plain ints, one entry per
vector.  ``check_equivalence`` compares the design's done cycle with the
latency contract's once, before any vector runs, then runs every vector
through the design and the oracle together and compares each 32-bit
result: that is the bit-exactness check the rest of the toolchain relies
on.  It takes the vectors as ``fuzz.random_vectors`` draws them, one
column per input, checks each column with one ``min``/``max`` pass and
makes a vector's dict only for a record of a disagreement; dict vectors
become columns through ``input_columns``.  ``simulate_ci`` replays one
invocation under clk_en gaps, resets and a late start.

Only the testbench side comes from the ``MappedDesign``: which operands the
driver puts on dataa and datab in each load cycle (the order the C header
sends them in) and the done cycle the latency contract promises.  Neither is
read back from the design, so a design that loads the wrong port disagrees
with the reference, and one that finishes late is refused, instead of
driving itself to agree.

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
from typing import NamedTuple

from . import vhdl_ast as ast
from .errors import CigenError, DivideByZero, InternalCheckError
from .frontend import CiSpec, Dfg, OperandDecl, OpKind
from .hdl import ENTITY_PORTS, build_design, node_reg
from .lpm import (
    MAX_INTERNAL_WIDTH,
    BitVec,
    Column,
    LpmGenerics,
    low_bits,
    mod_correct,
    resize,
)
from .mapper import MappedDesign, done_cycle_enabled, map_design

PORT_MASK = (1 << 32) - 1  # dataa, datab and result are 32 bits wide


def input_count(spec: CiSpec, columns: dict[str, Column]) -> int:
    """The number of vectors in columns, once they hold one column per
    declared input, all of one length and every value in range.  Else raises
    CigenError for the first fault: an unknown name, then per declared
    input in order a missing column, a length unlike the first column's or
    the column's first out-of-range value."""
    declared = {decl.name for decl in spec.inputs}
    for name in columns:
        if name not in declared:
            raise CigenError(f"'{name}' is not an input of {spec.name}")
    count = None
    for decl in spec.inputs:
        column = columns.get(decl.name)
        if column is None:
            raise CigenError(f"missing value for input '{decl.name}'")
        if count is None:
            first, count = decl.name, len(column)
        elif len(column) != count:
            raise CigenError(f"input '{decl.name}' has {len(column)} "
                             f"values, input '{first}' has {count}")
        lo, hi = decl.bounds
        if column and not lo <= min(column) <= max(column) <= hi:
            value = next(v for v in column if not lo <= v <= hi)
            kind = "signed" if decl.signed else "unsigned"
            raise CigenError(
                f"input '{decl.name}' = {value} does not fit {kind}<{decl.width}>")
    return count


def input_columns(spec: CiSpec, vectors: list[dict[str, int]]) -> dict[str, Column]:
    """The vectors as one column per declared input.  For the first vector
    that misses an input, names an unknown one or holds an out-of-range
    value, raises CigenError as input_count does for it alone."""
    for vec in vectors:
        input_count(spec, {name: [value] for name, value in vec.items()})
    return {decl.name: [vec[decl.name] for vec in vectors]
            for decl in spec.inputs}


class Reference(NamedTuple):
    """The oracle's values for a batch of vectors, one entry per vector."""
    result: Column                  # the 32-bit result port
    # the first node in Dfg.order with a zero divisor, the first the hardware latches
    zero_divisor: list[int | None]


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
    values = {leaf.id: columns[leaf.decl.name] for leaf in dfg.leaves}
    zero_divisor: list[int | None] = [None] * count
    for node_id in dfg.order:
        node = dfg.nodes[node_id]
        kind, left, right = node.kind, values[node.left], values[node.right]
        # ((x + half) & mask) - half is x cut to the node's width and read
        # with its signedness: half is the sign bit's weight, or 0
        mask = (1 << dfg.width[node_id]) - 1
        half = (mask + 1) >> 1 if dfg.signed[node_id] else 0
        if kind == OpKind.ADD:
            column = [((a + b + half) & mask) - half for a, b in zip(left, right)]
        elif kind == OpKind.SUB:
            column = [((a - b + half) & mask) - half for a, b in zip(left, right)]
        elif kind == OpKind.MUL:
            column = [((a * b + half) & mask) - half for a, b in zip(left, right)]
        else:
            if 0 in right:
                for index, b in enumerate(right):
                    if b == 0 and zero_divisor[index] is None:
                        zero_divisor[index] = node_id
                right = [b or 1 for b in right]
            pairs = zip(left, right)
            if kind == OpKind.DIVS:
                raw = [-(-a // b) if (a < 0) != (b < 0) else a // b
                       for a, b in pairs]
            elif kind == OpKind.REMS:
                raw = [-(-a % b) if (a < 0) != (b < 0) else a % b
                       for a, b in pairs]
            elif kind == OpKind.DIVU:
                raw = [a // b for a, b in pairs]
            else:   # REMU, MODU and MODS: the flooring remainder
                raw = [a % b for a, b in pairs]
            column = [((x + half) & mask) - half for x in raw]
        values[node_id] = column
    return Reference(adapt_root(values[dfg.root], spec.output), zero_divisor)


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
    that meets one, the node simulate_ci names.  ``dfg`` defaults to
    ``spec.dfg``.
    """
    if dfg is not None:
        spec = spec._replace(dfg=dfg)
    reference = reference_columns(spec, input_columns(spec, [inputs]), 1)
    node = reference.zero_divisor[0]
    if node is not None:
        raise DivideByZero(f"zero divisor at node {node}", node=node)
    return BitVec(32, reference.result[0])


class Stimulus(NamedTuple):
    """Clock-level disturbances applied around the normal driver sequence.

    All cycle numbers are absolute (counting every clock edge from 0, enabled
    or not): the cycles on which clk_en is low, the cycles on which reset is
    high, and the first cycle on which start is high.
    """
    clk_en_low: frozenset[int] = frozenset()
    reset_cycles: frozenset[int] = frozenset()
    start_cycle: int = 0


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


# A driver record (kernel, params, keys read, keys written): an lpm
# kernel(params, faults, *columns read) returns the columns of the keys
# written, in order, adding the vectors whose dividers meet a zero divisor
# to faults; kernel None is a signal's value as it is, its one key read.  A
# key is a signal name, or an int naming the value of an expression node
# that no signal holds.
Record = tuple[Callable[..., tuple[Column, ...]] | None, object,
               tuple[str | int, ...], tuple[str | int, ...]]
# A load (kernel, params, keys read, target): the record of an assigned
# expression's top node, with the name that takes its one column in place
# of the keys written.  A step's loads are its registers' loads, and the
# result port's program ends in a load of result as it is.
Load = tuple[Callable[..., tuple[Column]] | None, object,
             tuple[str | int, ...], str]


def _run(program: list[Record | Load], values: dict,
         faults: set[int]) -> tuple[list[tuple[str, Column]], str | None]:
    """Run program's records over values, in order.  Returns its loads as
    (target, column) pairs, and the first target whose load's records met
    a zero divisor, or None."""
    seen, latched, fault = len(faults), [], None
    for kernel, params, reads, writes in program:
        if kernel is None:   # a signal's value as it is
            columns = (values[reads[0]],)
        elif len(reads) == 2:
            a, b = reads
            columns = kernel(params, faults, values[a], values[b])
        else:   # every kernel reads one column or two
            columns = kernel(params, faults, values[reads[0]])
        if type(writes) is str:   # a Load of target writes
            if fault is None and len(faults) > seen:
                fault = writes
            latched.append((writes, columns[0]))
        elif len(writes) == 1:
            values[writes[0]], = columns
        else:
            values.update(zip(writes, columns))
    return latched, fault


class IndexedDesign:
    """An HdlDesign lowered once for execution over columns of vectors.

    Registers and their widths come from the control process and the signal
    declarations; dataa and datab are set by the driver.  Every other value
    read is computed by its single driver, a plain record (kernel,
    parameters, keys read, keys written): an instance is (its generics'
    ``component.kernel``, the generics, its input wires, its output wires),
    and each node of an expression is a record over an lpm expression
    kernel as it is (kernel None for a signal's value), writing an int key
    when no signal holds its value; an ``Assign`` in the architecture's
    assigns drives its target.  A step's number, the counter value that
    selects it, is its position in the process's steps, and its successor
    is ``ControlProcess.successor``'s.  Each ``Assign`` of a step's loads
    is lowered to a load and walked at once: one depth-first walk
    (``_walk``) appends the records its reads go through that no earlier
    load of the step computed, in dependency order, then the load.  The
    result port's program is one walk from a load of result.  ``execute``
    runs the programs edge by edge, over one column entry per vector: a
    whole batch for ``run``, one invocation for ``simulate_ci``.

    Indexing is the design's only connectivity check.  It raises
    InternalCheckError for widths that break a component's or a load's
    contract, an instance with more or fewer wires than its component has
    ports, an undeclared name, a wire with no driver or two, a driver on a
    register or an entity port other than result, an undeclared register
    (a load's target), a register no record and no load reads, a
    combinational loop, or a done step that is none of the steps.
    """

    def __init__(self, design: ast.HdlDesign):
        arch = design.architecture
        self.name = design.name
        signals = {s.name: s.width for s in arch.signals}
        self.widths = widths = {p.name: p.width for p in ENTITY_PORTS}
        widths.update(signals)
        for name, width in widths.items():
            if not 1 <= width <= MAX_INTERNAL_WIDTH:
                raise InternalCheckError(f"{self.name}: {width}-bit {name}")
        process = arch.process
        # the steps run in sequence from start, so done is high one enabled
        # cycle past the step that sets it
        if not 0 <= process.done_step < len(process.steps):
            raise InternalCheckError(f"{self.name}: done is never set after start")
        self.done_cycle = process.done_step + 1
        self.registers = process.registers()
        registers = frozenset(self.registers)
        undeclared = registers.difference(signals)
        if undeclared:
            raise InternalCheckError(f"{self.name}: register {min(undeclared)} "
                                     "is not a declared signal")
        self._sources = registers | {"dataa", "datab"}
        # of the entity ports, only result is a wire
        self._undrivable = registers | {p.name for p in ENTITY_PORTS} - {"result"}
        self._drivers: dict[str | int, Record] = {}
        for target, expr in arch.assigns:
            kernel, params, reads, width = self._expr(expr)
            if width != self._width(target):
                raise self._mismatch(width, target)
            self._drive((kernel, params, reads, (target,)))
        self._lower_instances(arch.instances)
        self._programs = []
        for index, loads in enumerate(process.steps):
            program: list[Record | Load] = []
            done: dict[str | int, bool] = {}
            for target, expr in loads:
                kernel, params, reads, width = self._expr(expr)
                if width != widths[target]:
                    raise self._mismatch(width, target)
                self._walk((kernel, params, reads, target), done, program)
            self._programs.append((program, index == process.done_step,
                                   process.successor(index)))
        # the result port's program ends in a load of its value as it is
        self._result_program = self._walk((None, None, ("result",), "result"), {}, [])
        unread = registers.difference(itertools.chain.from_iterable(
            record[2] for record in itertools.chain(
                self._drivers.values(), *(program for program, _, _ in self._programs))))
        if unread:
            raise InternalCheckError(f"{self.name}: register {min(unread)} is never read")

    def _width(self, name: str) -> int:
        width = self.widths.get(name)
        if width is None:
            raise InternalCheckError(f"{self.name}: {name} is not declared")
        return width

    def _mismatch(self, width: int, target: str) -> InternalCheckError:
        """The error for a width-bit value put on the declared target."""
        return InternalCheckError(f"{self.name}: {width}-bit value on "
                                  f"{target}, declared {self.widths[target]}")

    def _drive(self, record: Record) -> None:
        for wire in record[3]:
            if wire in self._undrivable:
                raise InternalCheckError(f"{self.name}: {wire} is driven "
                                         "combinationally but is not a wire")
            if wire in self._drivers:
                raise InternalCheckError(f"{self.name}: {wire} has a second driver")
            self._drivers[wire] = record

    def _lower_instances(self, instances: tuple[ast.Instance, ...]) -> None:
        """Check each instance's wire count and wire widths against its
        kind, then drive its output wires through the kind's kernel."""
        # generics -> the kernel, every port's width and the input count;
        # records of two kinds never compare equal (test_records.py)
        kinds: dict[LpmGenerics, tuple[Callable, tuple[int, ...], int]] = {}
        declared, drive = self.widths.get, self._drive
        for label, generics, wires in instances:
            kind = kinds.get(generics)
            if kind is None:
                in_widths, out_widths = generics.port_widths()
                kind = kinds[generics] = (generics.component.kernel,
                                          in_widths + out_widths, len(in_widths))
            kernel, widths, split = kind
            if tuple(map(declared, wires)) != widths:
                if len(wires) != len(widths):
                    raise InternalCheckError(
                        f"{self.name}: {label} binds {len(wires)} wires to the "
                        f"{len(widths)} ports of {generics.component.decl.name}")
                for wire, width in zip(wires, widths):
                    if self._width(wire) != width:
                        raise InternalCheckError(f"{self.name}: {label} needs {width} "
                                                 f"bits on {wire}, declared "
                                                 f"{self._width(wire)}")
            drive((kernel, generics, wires[:split], wires[split:]))

    def _expr(self, expr: ast.Expr) -> tuple[Callable[..., tuple[Column, ...]] | None,
                                              object, tuple[str | int, ...], int]:
        """The kernel, parameters and keys read of expr's top node, and its
        width; each inner node but a Ref becomes the driver of a new int
        key."""
        if isinstance(expr, ast.Ref):
            return None, None, (expr.name,), self._width(expr.name)
        if isinstance(expr, ast.Slice):
            name, width, whole = expr.name, expr.width, self._width(expr.name)
            if not 1 <= width <= whole:
                raise InternalCheckError(f"{self.name}: slice of {width} "
                                         f"bits from {whole}-bit {name}")
            return low_bits, width, (name,), width
        if isinstance(expr, ast.Resize):
            kernel, params, reads, from_width = self._expr(expr.operand)
            key = reads[0]
            if kernel is not None:   # no signal holds the operand's value
                key = len(self._drivers)
                self._drivers[key] = (kernel, params, reads, (key,))
            signed, width = expr.signed, expr.width
            if not 1 <= width <= MAX_INTERNAL_WIDTH:
                raise InternalCheckError(f"{self.name}: {width}-bit resize")
            return resize, (from_width, signed, width), (key,), width
        r, d, width = expr.remainder, expr.divisor, self._width(expr.remainder)
        if self._width(d) != width:
            raise InternalCheckError(f"{self.name}: mod correction of {width}-bit "
                                     f"{r} by {self._width(d)}-bit {d}")
        return mod_correct, width, (r, d), width

    def _walk(self, record: Record | Load, done: dict[str | int, bool],
              program: list[Record | Load]) -> list[Record | Load]:
        """Append to program the records that record reads through and done
        lacks, each after the records it reads from, in the order a
        depth-first walk of the reads completes them, then record itself;
        return program.  done maps the keys met so far to True once
        computed, False while their reads are resolved.  The walk keeps its
        own stack of the keys being resolved, so no chain of wires is too
        deep for it."""
        drivers, sources = self._drivers, self._sources
        for key in record[2]:
            if key in sources or key in done:   # done by an earlier load
                continue
            stack = [key]
            while stack:
                key = stack[-1]
                driver = drivers.get(key)
                if key not in done:
                    if driver is None:
                        raise InternalCheckError(f"{self.name}: {key} has no driver")
                    done[key] = False
                for read in driver[2]:   # the first read not yet computed
                    if read not in sources and not done.get(read):
                        if read in done:
                            raise InternalCheckError(f"{self.name}: combinational "
                                                     f"loop through {read}")
                        stack.append(read)
                        break
                else:
                    stack.pop()
                    program.append(driver)
                    for wire in driver[3]:
                        done[wire] = True
        program.append(record)
        return program

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
        values: dict = dict.fromkeys(self.registers, [0] * count)
        values["dataa"], values["datab"] = pairs[0]
        index, done, fault, last = 0, False, None, len(pairs) - 1
        programs = self._programs
        for k in itertools.count(1):   # then the edge into enabled cycle k
            yield index, done, values, fault
            fault, done = None, False
            if index or k == 1:
                program, set_done, successor = programs[index]
                latched, fault = _run(program, values, faults)
                values.update(latched)
                done, index = set_done, successor
            if k <= last:
                values["dataa"], values["datab"] = pairs[k]

    def result(self, values: dict[str, Column], faults: set[int]) -> Column:
        """The result port's column under values."""
        _run(self._result_program, values, faults)
        return values["result"]

    def run(self, pairs: list[tuple[Column, Column]],
            count: int) -> tuple[Column, set[int]]:
        """Run count vectors at once from start to the done cycle.  Returns
        the result column read on that cycle and the vectors whose dividers
        met a zero divisor."""
        faults: set[int] = set()
        execution = self.execute(pairs, count, faults)
        _, _, values, _ = next(itertools.islice(execution, self.done_cycle, None))
        return self.result(values, faults), faults


def operand_columns(spec: CiSpec, mapped: MappedDesign, columns: dict[str, Column],
                    count: int) -> list[tuple[Column, Column]]:
    """The dataa and datab columns of each load cycle, from input_columns'
    count-vector columns: the operand order the C header sends, taken from
    the mapping and never from the design.  A signed input's column is cut
    to 32-bit patterns; an unsigned input's, in range, is its own and is
    shared, as columns are never written into."""
    ports: dict[str | None, Column] = {None: [0] * count}
    for leaf in spec.dfg.leaves:
        name, signed = leaf.decl.name, leaf.decl.signed
        ports[name] = [value & PORT_MASK for value in columns[name]] if signed \
            else columns[name]
    return [(ports[first], ports[second]) for first, second in mapped.loading]


def simulate_ci(spec: CiSpec, inputs: dict[str, int],
                stimulus: Stimulus = Stimulus(),
                record: bool = True) -> SimResult:
    """Drive one invocation through the design build_design makes of spec
    and its mapping, under the stimulus.

    The design executes once, on one-element columns, and the stimulus
    timeline picks which of its enabled cycles each wall cycle shows (see
    the module docstring).
    DivideByZero carries the enabled cycle whose register latch (or
    done-cycle result read) consumes the bad output, and that register's
    node (or the root)."""
    mapped = map_design(spec)
    columns = input_columns(spec, [inputs])
    design = IndexedDesign(build_design(spec, mapped))
    clk_en_low, reset_cycles, start_cycle = stimulus
    execution = design.execute(operand_columns(spec, mapped, columns, 1), 1, set())

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
                node = next((n for n in spec.dfg.order if node_reg(n) == fault), None)
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
                                   f"result port on enabled cycle {k}", cycle=k,
                                   node=spec.dfg.root)
            observed = SimResult(BitVec(design.widths["result"], final),
                                 cycle, k, rows)
        # a trace keeps the two cycles after done
        if observed is not None and cycle >= observed.done_cycle + 2 * record:
            return observed
        if reset:
            k = 0
        elif clk_en and (k or start):
            k += 1


def check_equivalence(spec: CiSpec, mapped: MappedDesign,
                      columns: dict[str, Column],
                      design: ast.HdlDesign) -> list[dict]:
    """Compare design, built from spec's mapping, with the reference oracle.

    The design is lowered first, and its done cycle is compared with the
    one mapped's latency contract promises, once and before any vector
    runs: a mismatch raises InternalCheckError, whatever the vectors.  Then
    columns, one per declared input as random_vectors draws them, are
    checked as input_count checks them, and every vector runs through the
    design together, one column entry per vector.  Returns one record per
    disagreement: the vector's inputs, and the differing result bits or a
    division fault on one side only.  An empty list means every vector
    matched bit for bit.
    """
    indexed = IndexedDesign(design)
    expected_done = done_cycle_enabled(mapped)
    if indexed.done_cycle != expected_done:
        raise InternalCheckError(
            f"{indexed.name}: done is high on enabled cycle "
            f"{indexed.done_cycle}, the latency contract says {expected_done}")
    count = input_count(spec, columns)
    reference = reference_columns(spec, columns, count)
    results, faults = indexed.run(operand_columns(spec, mapped, columns, count), count)
    zero_divisor, expected = reference.zero_divisor, reference.result
    mismatches = []
    for index in range(count):
        want = None if zero_divisor[index] is not None else expected[index]
        got = None if index in faults else results[index]
        if want != got:
            mismatches.append({
                "inputs": {decl.name: columns[decl.name][index]
                           for decl in spec.inputs},
                "reference": "divide-by-zero" if want is None else want,
                "simulated": "divide-by-zero" if got is None else got})
    return mismatches
