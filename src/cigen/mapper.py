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

# read once for the per-node planners: a class attribute read of an enum
# goes through the slow EnumType.__getattr__ hook
_ADDITIVE, _ADD, _MUL = (OpKind.ADD, OpKind.SUB), OpKind.ADD, OpKind.MUL
_DIR_ADD, _DIR_SUB = Direction.ADD, Direction.SUB
_SIGNED, _UNSIGNED = Representation.SIGNED, Representation.UNSIGNED
_SIGN, _ZERO = Extension.SIGN, Extension.ZERO

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


def input_reg(name: str) -> str:
    return f"r_{name}"


def node_reg(node_id: int) -> str:
    return f"s_{node_id}"


def _plan_add_sub(node: OpNode, dfg: Dfg) -> InstancePlan:
    w = dfg.width[node.id]
    adapters = tuple(
        ConcatExtendGenerics(dfg.width[child], w,
                             _SIGN if dfg.signed[child] else _ZERO)
        if dfg.width[child] < w else None
        for child in (node.left, node.right))
    direction = _DIR_ADD if node.kind is _ADD else _DIR_SUB
    return InstancePlan(node.id, AddSubGenerics(w, direction), adapters)


def _operand_ports(node: OpNode, dfg: Dfg) -> tuple[
        int, int, Representation, _Adapters]:
    """Port widths, representation and adapters of a multiply or divide
    node: with mixed signedness the unsigned child is zero-extended by one
    bit, so a single signed representation is exact."""
    wl, wr = dfg.width[node.left], dfg.width[node.right]
    sl, sr = dfg.signed[node.left], dfg.signed[node.right]
    if sl == sr:
        rep = _SIGNED if sl else _UNSIGNED
        return wl, wr, rep, (None, None)
    if sl:
        return wl, wr + 1, _SIGNED, (
            None, ConcatExtendGenerics(wr, wr + 1, _ZERO))
    return wl + 1, wr, _SIGNED, (
        ConcatExtendGenerics(wl, wl + 1, _ZERO), None)


def _plan_mult(node: OpNode, dfg: Dfg) -> InstancePlan:
    wl, wr = dfg.width[node.left], dfg.width[node.right]
    sl, sr = dfg.signed[node.left], dfg.signed[node.right]
    if sl != sr and (wl if sl else wr) == 32:
        # raw patterns agree on the low 32 bits of the product
        pa, pb, rep, adapters = wl, wr, _UNSIGNED, (None, None)
    else:
        pa, pb, rep, adapters = _operand_ports(node, dfg)
    return InstancePlan(node.id, MultGenerics(pa, pb, min(32, pa + pb), rep),
                        adapters)


def _plan_divide(node: OpNode, dfg: Dfg) -> InstancePlan:
    pn, pd, rep, adapters = _operand_ports(node, dfg)
    return InstancePlan(node.id, DivideGenerics(pn, pd, rep, rep), adapters)


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
        if node.kind in _ADDITIVE:
            instances.append(_plan_add_sub(node, dfg))
        elif node.kind is _MUL:
            instances.append(_plan_mult(node, dfg))
        else:
            instances.append(_plan_divide(node, dfg))
    seq = analysis.operand_sequence
    loading = tuple((seq[i], seq[i + 1] if i + 1 < len(seq) else None)
                    for i in range(0, len(seq), 2))
    return MappedDesign(dfg, analysis, tuple(instances), loading)


def done_cycle_enabled(mapped: MappedDesign) -> int:
    """The 0-based enabled-cycle index at which done is high, counting the
    start cycle as cycle 0."""
    return len(mapped.loading) + max(mapped.analysis.max_level, 1) - 1
