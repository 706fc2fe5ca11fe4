"""Map an analyzed DFG onto parameterized components.

The parser has already set every node's width (``frontend.op_result_width``)
and signedness; the mapper picks one component per op node and the
adapters that bring its inputs to the widths the component expects.

Signedness
    Extension adapters sign-extend signed values and zero-extend unsigned
    ones.  Multipliers and dividers with mixed-signedness children get the
    unsigned child zero-extended by one bit so a single signed
    representation is exact; a mixed multiply whose signed child is already
    32 bits wide instead runs unsigned on raw patterns, which agrees on the
    low 32 result bits and keeps the full product within 64 bits.

The divider natively produces a truncating quotient and a dividend-sign
remainder.  Flooring modulus nodes add a correction stage on the remainder;
an unsigned modulus needs none because the remainder is already the modulus.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .frontend import (
    AnalysisResult,
    CiSpec,
    Dfg,
    OpKind,
    OpNode,
    analyze,
)
from .lpm import (
    AddSubGenerics,
    ComponentKind,
    ConcatExtendGenerics,
    Direction,
    DivideGenerics,
    Extension,
    LpmGenerics,
    MultGenerics,
    Representation,
)

OP_COMPONENT: dict[OpKind, ComponentKind] = {
    OpKind.ADD: ComponentKind.ADD_SUB,
    OpKind.SUB: ComponentKind.ADD_SUB,
    OpKind.MUL: ComponentKind.MULT,
    OpKind.DIVS: ComponentKind.DIVIDE,
    OpKind.DIVU: ComponentKind.DIVIDE,
    OpKind.MODS: ComponentKind.DIVIDE,
    OpKind.MODU: ComponentKind.DIVIDE,
    OpKind.REMS: ComponentKind.DIVIDE,
    OpKind.REMU: ComponentKind.DIVIDE,
}


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


class DivOutput(enum.Enum):
    QUOTIENT = "quotient"
    REMAINDER = "remainder"


class AdapterPlan(NamedTuple):
    """Widen one input of one op node before it reaches the component.
    The lowering refuses one that does not widen (``lpm.port_widths``)."""
    node: int
    side: Side
    from_width: int
    to_width: int
    extension: Extension


class InstancePlan(NamedTuple):
    """One component instance for one op node.

    div_output says which divider output feeds the consumer; mod_correct
    marks a flooring-modulus correction on the remainder.
    """
    node: int
    kind: ComponentKind
    generics: LpmGenerics
    div_output: DivOutput | None = None
    mod_correct: bool = False


class LoadingPlan(NamedTuple):
    """Operand delivery order: two operands per enabled cycle over
    (dataa, datab); an odd count leaves the final datab slot unused."""
    cycles: tuple[tuple[str, str | None], ...]


class MappedDesign(NamedTuple):
    """A DFG mapped onto components: one instance per op node, in
    ``analysis.operation_sequence`` order, and the adapters its inputs need."""
    dfg: Dfg
    analysis: AnalysisResult
    instances: tuple[InstancePlan, ...]
    adapters: tuple[AdapterPlan, ...]
    loading: LoadingPlan


def input_reg(name: str) -> str:
    return f"r_{name}"


def node_reg(node_id: int) -> str:
    return f"s_{node_id}"


def _plan_add_sub(node: OpNode, dfg: Dfg) -> tuple[InstancePlan, list[AdapterPlan]]:
    w = dfg.width[node.id]
    adapters = []
    for side, child in ((Side.LEFT, node.left), (Side.RIGHT, node.right)):
        cw = dfg.width[child]
        if cw < w:
            extension = Extension.SIGN if dfg.signed[child] else Extension.ZERO
            adapters.append(AdapterPlan(node.id, side, cw, w, extension))
    direction = Direction.ADD if node.kind is OpKind.ADD else Direction.SUB
    inst = InstancePlan(node.id, ComponentKind.ADD_SUB, AddSubGenerics(w, direction))
    return inst, adapters


def _operand_ports(node: OpNode, dfg: Dfg) -> tuple[
        int, int, Representation, list[AdapterPlan]]:
    """Port widths, representation and adapters of a multiply or divide
    node: with mixed signedness the unsigned child is zero-extended by one
    bit, so a single signed representation is exact."""
    wl, wr = dfg.width[node.left], dfg.width[node.right]
    sl, sr = dfg.signed[node.left], dfg.signed[node.right]
    if sl == sr:
        rep = Representation.SIGNED if sl else Representation.UNSIGNED
        return wl, wr, rep, []
    if sl:
        return wl, wr + 1, Representation.SIGNED, [
            AdapterPlan(node.id, Side.RIGHT, wr, wr + 1, Extension.ZERO)]
    return wl + 1, wr, Representation.SIGNED, [
        AdapterPlan(node.id, Side.LEFT, wl, wl + 1, Extension.ZERO)]


def _plan_mult(node: OpNode, dfg: Dfg) -> tuple[InstancePlan, list[AdapterPlan]]:
    wl, wr = dfg.width[node.left], dfg.width[node.right]
    sl, sr = dfg.signed[node.left], dfg.signed[node.right]
    if sl != sr and (wl if sl else wr) == 32:
        # raw patterns agree on the low 32 bits of the product
        pa, pb, rep, adapters = wl, wr, Representation.UNSIGNED, []
    else:
        pa, pb, rep, adapters = _operand_ports(node, dfg)
    inst = InstancePlan(node.id, ComponentKind.MULT,
                        MultGenerics(pa, pb, min(32, pa + pb), rep))
    return inst, adapters


def _plan_divide(node: OpNode, dfg: Dfg) -> tuple[InstancePlan, list[AdapterPlan]]:
    pn, pd, rep, adapters = _operand_ports(node, dfg)
    if node.kind in (OpKind.DIVS, OpKind.DIVU):
        div_output = DivOutput.QUOTIENT
    else:
        div_output = DivOutput.REMAINDER
    inst = InstancePlan(node.id, ComponentKind.DIVIDE,
                        DivideGenerics(pn, pd, rep, rep),
                        div_output=div_output,
                        mod_correct=node.kind is OpKind.MODS)
    return inst, adapters


def plan_components(dfg: Dfg, analysis: AnalysisResult) -> tuple[
        tuple[InstancePlan, ...], tuple[AdapterPlan, ...]]:
    """One instance per op node plus the adapters its inputs need."""
    instances: list[InstancePlan] = []
    adapters: list[AdapterPlan] = []
    for node_id in analysis.operation_sequence:
        node = dfg.nodes[node_id]
        assert isinstance(node, OpNode)
        kind = OP_COMPONENT[node.kind]
        if kind is ComponentKind.ADD_SUB:
            inst, extra = _plan_add_sub(node, dfg)
        elif kind is ComponentKind.MULT:
            inst, extra = _plan_mult(node, dfg)
        else:
            inst, extra = _plan_divide(node, dfg)
        instances.append(inst)
        adapters.extend(extra)
    return tuple(instances), tuple(adapters)


def plan_loading(analysis: AnalysisResult) -> LoadingPlan:
    """Pair operands two per cycle in operand-sequence order."""
    seq = analysis.operand_sequence
    cycles = []
    for i in range(0, len(seq), 2):
        second = seq[i + 1] if i + 1 < len(seq) else None
        cycles.append((seq[i], second))
    return LoadingPlan(tuple(cycles))


def map_design(spec: CiSpec) -> MappedDesign:
    """Run the full mapping pipeline for a parsed spec."""
    analysis = analyze(spec.dfg)
    instances, adapters = plan_components(spec.dfg, analysis)
    loading = plan_loading(analysis)
    return MappedDesign(spec.dfg, analysis, instances, adapters, loading)


def load_cycle_count(mapped: MappedDesign) -> int:
    return len(mapped.loading.cycles)


def done_cycle_enabled(mapped: MappedDesign) -> int:
    """The 0-based enabled-cycle index at which done is high, counting the
    start cycle as cycle 0."""
    return load_cycle_count(mapped) + max(mapped.analysis.max_level, 1) - 1
