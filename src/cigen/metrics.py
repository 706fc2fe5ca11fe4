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
from collections import Counter

from .errors import CigenError
from .frontend import CiSpec, OpKind
from .lpm import ConcatExtendGenerics
from .mapper import MappedDesign, done_cycle_enabled

DEFAULT_COSTS: dict[str, int] = {   # keyed by OpKind
    OpKind.ADD: 1, OpKind.SUB: 1, OpKind.MUL: 3,
    OpKind.DIVS: 35, OpKind.DIVU: 35,
    OpKind.MODS: 35, OpKind.MODU: 35,
    OpKind.REMS: 35, OpKind.REMU: 35,
}


def cost_table(overrides: dict[str, int]) -> dict[str, int]:
    """Per-operation software cycle costs: DEFAULT_COSTS with overrides by
    operation name in any case, each named once and a positive integer."""
    named: dict[str, int] = {}
    for key, value in overrides.items():
        kind = key.lower()
        if kind not in DEFAULT_COSTS:
            raise CigenError(f"unknown operation {key!r} in cost model")
        if kind in named:
            raise CigenError(f"config costs name {kind!r} twice")
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise CigenError(
                f"cost for {key!r} must be a positive integer, got {value!r}")
        named[kind] = value
    return {**DEFAULT_COSTS, **named}


def ci_cycles(mapped: MappedDesign) -> int:
    """Enabled cycles from start through done, inclusive."""
    return done_cycle_enabled(mapped) + 1


def sw_cycles(spec: CiSpec, costs: dict[str, int] = DEFAULT_COSTS) -> int:
    """Software baseline cycle count, never below one instruction."""
    dfg = spec.dfg
    return max(1, sum(costs[dfg.nodes[node_id].kind] for node_id in dfg.order))


def energy_microjoules(power_mw: float, time_ms: float) -> float:
    """Average power times runtime; mW times ms gives microjoules."""
    if power_mw < 0 or time_ms < 0:
        raise CigenError("power and time must be non-negative")
    energy = power_mw * time_ms
    if not math.isfinite(energy):
        raise CigenError(f"energy {power_mw} mW x {time_ms} ms is too large to report")
    return energy


def estimate_metrics(spec: CiSpec, mapped: MappedDesign,
                     costs: dict[str, int] = DEFAULT_COSTS,
                     power_mw: float | None = None,
                     time_ms: float | None = None) -> dict:
    """The report, as the object report.json holds; the energy block
    appears only when both a power and a time figure are supplied."""
    hw = ci_cycles(mapped)
    sw = sw_cycles(spec, costs)
    try:
        speedup = sw / hw
    except OverflowError:
        raise CigenError("software cycle count is too large to report") from None
    counts = dict(Counter(inst.generics.component.name for inst in mapped.instances))
    adapters = sum(a is not None for inst in mapped.instances for a in inst.adapters)
    if adapters:
        counts[ConcatExtendGenerics.component.name] = adapters
    report = {
        "name": spec.name, "opcode": spec.opcode,
        "operands": len(spec.dfg.leaves), "operations": len(mapped.instances),
        "levels": mapped.analysis.max_level,
        "load_cycles": len(mapped.loading),
        "done_cycle": done_cycle_enabled(mapped),
        "ci_cycles": hw, "sw_cycles": sw, "speedup_estimate": speedup,
        "components": counts, "adapters": adapters,
    }
    if power_mw is not None and time_ms is not None:
        # + 0.0 makes each figure a float and a negative zero 0.0
        report["energy"] = {"P": power_mw + 0.0, "T": time_ms + 0.0,
                            "E": energy_microjoules(power_mw, time_ms) + 0.0}
    return report
