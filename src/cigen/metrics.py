"""Latency, speedup and energy accounting for a mapped design.

Hardware latency counts enabled cycles from start through done inclusive,
so it is the done cycle index plus one.  The software baseline charges a
configurable per-operation cycle cost and sums over the DFG; speedup is the
ratio of the two.  Energy is the usual product of average power and runtime,
reported in microjoules when power is in milliwatts and time in
milliseconds.  A figure a float cannot hold is refused, so the report
is always valid JSON.
"""

from __future__ import annotations

import math

from .errors import CigenError
from .frontend import CiSpec, OpKind
from .lpm import ConcatExtendGenerics
from .mapper import MappedDesign, done_cycle_enabled

DEFAULT_COSTS: dict[OpKind, int] = {
    OpKind.ADD: 1, OpKind.SUB: 1, OpKind.MUL: 3,
    OpKind.DIVS: 35, OpKind.DIVU: 35,
    OpKind.MODS: 35, OpKind.MODU: 35,
    OpKind.REMS: 35, OpKind.REMU: 35,
}


def cost_table(overrides: dict[str, int]) -> dict[OpKind, int]:
    """Per-operation software cycle costs: DEFAULT_COSTS with overrides
    keyed by lowercase operation name, each a positive integer."""
    by_name = {kind.name.lower(): kind for kind in OpKind}
    costs = dict(DEFAULT_COSTS)
    for key, value in overrides.items():
        kind = by_name.get(key.lower())
        if kind is None:
            raise CigenError(f"unknown operation {key!r} in cost model")
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise CigenError(
                f"cost for {key!r} must be a positive integer, got {value!r}")
        costs[kind] = value
    return costs


def ci_cycles(mapped: MappedDesign) -> int:
    """Enabled cycles from start through done, inclusive."""
    return done_cycle_enabled(mapped) + 1


def sw_cycles(mapped: MappedDesign,
              costs: dict[OpKind, int] = DEFAULT_COSTS) -> int:
    """Software baseline cycle count, never below one instruction."""
    return max(1, sum(costs[mapped.dfg.nodes[node_id].kind]
                      for node_id in mapped.analysis.operation_sequence))


def energy_microjoules(power_mw: float, time_ms: float) -> float:
    """Average power times runtime; mW times ms gives microjoules."""
    if power_mw < 0 or time_ms < 0:
        raise CigenError("power and time must be non-negative")
    energy = power_mw * time_ms
    if not math.isfinite(energy):
        raise CigenError(f"energy {power_mw} mW x {time_ms} ms is too large to report")
    return energy


def estimate_metrics(spec: CiSpec, mapped: MappedDesign,
                     costs: dict[OpKind, int] = DEFAULT_COSTS,
                     power_mw: float | None = None,
                     time_ms: float | None = None) -> dict:
    """The report, as the object report.json holds; the energy block
    appears only when both a power and a time figure are supplied."""
    hw = ci_cycles(mapped)
    sw = sw_cycles(mapped, costs)
    try:
        speedup = sw / hw
    except OverflowError:
        raise CigenError("software cycle count is too large to report") from None
    counts: dict[str, int] = {}
    for inst in mapped.instances:
        name = inst.generics.component.name
        counts[name] = counts.get(name, 0) + 1
    adapters = sum(a is not None for inst in mapped.instances for a in inst.adapters)
    if adapters:
        counts[ConcatExtendGenerics.component.name] = adapters
    report = {
        "name": spec.name, "opcode": spec.opcode,
        "operands": len(mapped.analysis.operand_sequence),
        "operations": len(mapped.analysis.operation_sequence),
        "levels": mapped.analysis.max_level,
        "load_cycles": len(mapped.loading),
        "done_cycle": done_cycle_enabled(mapped),
        "ci_cycles": hw, "sw_cycles": sw, "speedup_estimate": speedup,
        "components": counts, "adapters": adapters,
    }
    if power_mw is not None and time_ms is not None:
        report["energy"] = {"P": float(power_mw), "T": float(time_ms),
                            "E": energy_microjoules(power_mw, time_ms)}
    return report
