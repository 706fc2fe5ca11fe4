"""Map an analyzed DFG onto parameterized components.

The parser has already set every node's width (``frontend.op_result_width``)
and signedness; the mapper picks one component per op node, by the node's
kind, and the adapters that bring its inputs to the widths the component
expects.

Signedness
    Extension adapters sign-extend signed values and zero-extend unsigned
    ones.  Multipliers and dividers with mixed-signedness children get the
    unsigned child zero-extended by one bit so a single signed
    representation is exact; a mixed multiply whose signed child is already
    32 bits wide instead runs unsigned on raw patterns, which agrees on the
    low 32 result bits and keeps the full product within 64 bits.

One divider serves every division kind; which of its outputs a node reads
is ``hdl.build_design``'s to pick from the node's kind.
"""

from __future__ import annotations

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
    ConcatExtendGenerics,
    Direction,
    DivideGenerics,
    Extension,
    LpmGenerics,
    MultGenerics,
    Representation,
)

_Adapters = tuple[ConcatExtendGenerics | None, ConcatExtendGenerics | None]


class InstancePlan(NamedTuple):
    """One component instance for one op node.

    The generics record's class is the component kind.  adapters are the
    extension adapters of its left and right input, None for an input that
    reaches the component at its own width; the lowering refuses one that
    does not widen (``ConcatExtendGenerics.port_widths``).
    """
    node: int
    generics: LpmGenerics
    adapters: _Adapters


class MappedDesign(NamedTuple):
    """A DFG mapped onto components: one instance per op node, in
    ``analysis.operation_sequence`` order, and the operand delivery order.
    loading holds the (dataa, datab) input names of each load cycle, two
    operands per enabled cycle; an odd count leaves the final datab slot
    None."""
    dfg: Dfg
    analysis: AnalysisResult
    instances: tuple[InstancePlan, ...]
    loading: tuple[tuple[str, str | None], ...]


def _plan_add_sub(node: OpNode, dfg: Dfg) -> InstancePlan:
    width, signed, w = dfg.width, dfg.signed, dfg.width[node.id]
    adapters = tuple([
        ConcatExtendGenerics(width[child], w,
                             Extension.SIGN if signed[child] else Extension.ZERO)
        if width[child] < w else None
        for child in (node.left, node.right)])
    direction = Direction.ADD if node.kind == OpKind.ADD else Direction.SUB
    return InstancePlan(node.id, AddSubGenerics(w, direction), adapters)


def _operand_ports(node: OpNode, dfg: Dfg) -> tuple[
        int, int, str, _Adapters]:
    """Port widths, representation and adapters of a multiply or divide
    node: with mixed signedness the unsigned child is zero-extended by one
    bit, so a single signed representation is exact."""
    wl, wr = dfg.width[node.left], dfg.width[node.right]
    sl, sr = dfg.signed[node.left], dfg.signed[node.right]
    if sl == sr:
        rep = Representation.SIGNED if sl else Representation.UNSIGNED
        return wl, wr, rep, (None, None)
    if sl:
        return wl, wr + 1, Representation.SIGNED, (
            None, ConcatExtendGenerics(wr, wr + 1, Extension.ZERO))
    return wl + 1, wr, Representation.SIGNED, (
        ConcatExtendGenerics(wl, wl + 1, Extension.ZERO), None)


def _plan_mult(node: OpNode, dfg: Dfg) -> InstancePlan:
    wl, wr = dfg.width[node.left], dfg.width[node.right]
    sl, sr = dfg.signed[node.left], dfg.signed[node.right]
    if sl != sr and (wl if sl else wr) == 32:
        # raw patterns agree on the low 32 bits of the product
        pa, pb, rep, adapters = wl, wr, Representation.UNSIGNED, (None, None)
    else:
        pa, pb, rep, adapters = _operand_ports(node, dfg)
    return InstancePlan(node.id, MultGenerics(pa, pb, min(32, pa + pb), rep),
                        adapters)


def _plan_divide(node: OpNode, dfg: Dfg) -> InstancePlan:
    pn, pd, rep, adapters = _operand_ports(node, dfg)
    return InstancePlan(node.id, DivideGenerics(pn, pd, rep, rep), adapters)


# each op kind's planner; every other kind is a division
_PLANS = {OpKind.ADD: _plan_add_sub, OpKind.SUB: _plan_add_sub, OpKind.MUL: _plan_mult}


def map_design(spec: CiSpec) -> MappedDesign:
    """Map a parsed spec: one instance per op node, planned by the node's
    kind, and the used operands paired two per load cycle in
    operand-sequence order."""
    dfg = spec.dfg
    analysis = analyze(dfg)
    instances = []
    for node_id in analysis.operation_sequence:
        node = dfg.nodes[node_id]
        assert isinstance(node, OpNode)
        instances.append(_PLANS.get(node.kind, _plan_divide)(node, dfg))
    seq = analysis.operand_sequence
    loading = tuple((seq[i], seq[i + 1] if i + 1 < len(seq) else None)
                    for i in range(0, len(seq), 2))
    return MappedDesign(dfg, analysis, tuple(instances), loading)


def done_cycle_enabled(mapped: MappedDesign) -> int:
    """The 0-based enabled-cycle index at which done is high, counting the
    start cycle as cycle 0."""
    return len(mapped.loading) + max(mapped.analysis.max_level, 1) - 1
