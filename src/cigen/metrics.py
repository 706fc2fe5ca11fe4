"""Latency, speedup and energy accounting for a mapped design.

Hardware latency counts enabled cycles from start through done inclusive,
so it is the done cycle index plus one.  The software baseline charges a
configurable per-operation cycle cost and sums over the DFG; speedup is the
ratio of the two.  Energy is the usual product of average power and runtime,
reported in microjoules when power is in milliwatts and time in
milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CigenError
from .frontend import CiSpec, OpKind, OpNode
from .lpm import ComponentKind
from .mapper import MappedDesign, done_cycle_enabled, load_cycle_count

DEFAULT_COSTS: dict[OpKind, int] = {
    OpKind.ADD: 1, OpKind.SUB: 1, OpKind.MUL: 3,
    OpKind.DIVS: 35, OpKind.DIVU: 35,
    OpKind.MODS: 35, OpKind.MODU: 35,
    OpKind.REMS: 35, OpKind.REMU: 35,
}


@dataclass(frozen=True)
class CostModel:
    """Per-operation software cycle costs."""
    cycles: dict[OpKind, int]

    @classmethod
    def default(cls) -> "CostModel":
        return cls(dict(DEFAULT_COSTS))

    @classmethod
    def from_dict(cls, overrides: dict[str, int]) -> "CostModel":
        """Defaults with overrides keyed by lowercase operation name."""
        by_name = {kind.name.lower(): kind for kind in OpKind}
        cycles = dict(DEFAULT_COSTS)
        for key, value in overrides.items():
            kind = by_name.get(key.lower())
            if kind is None:
                raise CigenError(f"unknown operation '{key}' in cost model")
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise CigenError(
                    f"cost for '{key}' must be a positive integer, got {value!r}")
            cycles[kind] = value
        return cls(cycles)

    def cost(self, kind: OpKind) -> int:
        return self.cycles[kind]


def ci_cycles(mapped: MappedDesign) -> int:
    """Enabled cycles from start through done, inclusive."""
    return done_cycle_enabled(mapped) + 1


def sw_cycles(mapped: MappedDesign, costs: CostModel | None = None) -> int:
    """Software baseline cycle count, never below one instruction."""
    costs = costs or CostModel.default()
    total = 0
    for node_id in mapped.analysis.operation_sequence:
        node = mapped.dfg.node(node_id)
        assert isinstance(node, OpNode)
        total += costs.cost(node.kind)
    return max(1, total)


def energy_microjoules(power_mw: float, time_ms: float) -> float:
    """Average power times runtime; mW times ms gives microjoules."""
    if power_mw < 0 or time_ms < 0:
        raise CigenError("power and time must be non-negative")
    return power_mw * time_ms


@dataclass(frozen=True)
class MetricsReport:
    name: str
    opcode: int
    operands: int
    operations: int
    levels: int
    load_cycles: int
    done_cycle: int
    ci_cycles: int
    sw_cycles: int
    speedup_estimate: float
    components: dict[str, int]
    adapters: int
    energy: dict[str, float] | None = None

    def to_dict(self) -> dict:
        out = {
            "name": self.name, "opcode": self.opcode,
            "operands": self.operands, "operations": self.operations,
            "levels": self.levels, "load_cycles": self.load_cycles,
            "done_cycle": self.done_cycle, "ci_cycles": self.ci_cycles,
            "sw_cycles": self.sw_cycles,
            "speedup_estimate": self.speedup_estimate,
            "components": dict(self.components), "adapters": self.adapters,
        }
        if self.energy is not None:
            out["energy"] = dict(self.energy)
        return out


def estimate_metrics(spec: CiSpec, mapped: MappedDesign,
                     costs: CostModel | None = None,
                     power_mw: float | None = None,
                     time_ms: float | None = None) -> MetricsReport:
    """Assemble the full report; the energy block appears only when both a
    power and a time figure are supplied."""
    hw = ci_cycles(mapped)
    sw = sw_cycles(mapped, costs)
    counts: dict[str, int] = {}
    for inst in mapped.instances:
        counts[inst.kind.name] = counts.get(inst.kind.name, 0) + 1
    if mapped.adapters:
        counts[ComponentKind.CONCAT_EXTEND.name] = \
            counts.get(ComponentKind.CONCAT_EXTEND.name, 0) + len(mapped.adapters)
    energy = None
    if power_mw is not None and time_ms is not None:
        energy = {"P": float(power_mw), "T": float(time_ms),
                  "E": energy_microjoules(power_mw, time_ms)}
    return MetricsReport(
        name=spec.name, opcode=spec.opcode,
        operands=len(mapped.analysis.operand_sequence),
        operations=len(mapped.analysis.operation_sequence),
        levels=mapped.analysis.max_level,
        load_cycles=load_cycle_count(mapped),
        done_cycle=done_cycle_enabled(mapped),
        ci_cycles=hw, sw_cycles=sw, speedup_estimate=sw / hw,
        components=counts, adapters=len(mapped.adapters), energy=energy)

