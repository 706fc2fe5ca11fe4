"""Span recording around the layers' public functions.

A traced run replaces module attributes of ``cigen.cli``, ``cigen.sim`` and
``cigen.cpatch`` with wrappers that record one span per call: its name,
start, end, parent span and the id of the CLI operation it belongs to.
This reaches every layer call the CLI makes because ``cigen.cli`` binds its
imports at import time and the checker, the matcher and the rewriter call
``eval_reference``, ``simulate_ci``, ``lex_c`` and ``find_call_sites``
through their module globals.  Spans stay in memory until ``write``.

A span's self time is its duration minus the durations of its children;
summed over all spans it equals the time of the root spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path

import cigen.cli
import cigen.cpatch
import cigen.sim
from cigen.errors import DivideByZero


def _sim_span(args, kwargs) -> str:
    return "sim.trace" if kwargs.get("record", True) else "sim.simulate"


def _sim_counts(result, exc) -> dict:
    if isinstance(exc, DivideByZero):
        cycles = exc.cycle + 1 if exc.cycle is not None else 0
        return {"cycles": cycles, "vectors": 1, "divide_by_zero": 1}
    if result is None:
        return {}
    return {"cycles": result.done_cycle_enabled + 1, "vectors": 1}


def _map_counts(result, exc) -> dict:
    if result is None:
        return {}
    return {"ops": len(result.instances), "levels": result.analysis.max_level}


# (module, attribute, span name or namer, counter or None)
_WRAPPED = (
    (cigen.cli, "parse_ci_spec", "frontend.parse", None),
    (cigen.cli, "map_design", "mapper.map", _map_counts),
    (cigen.sim, "map_design", "mapper.map", _map_counts),
    (cigen.cli, "build_design", "hdl.build_design", None),
    (cigen.cli, "validate_structure", "hdl.validate", None),
    (cigen.cli, "emit_vhdl", "hdl.emit",
     lambda r, e: {"lines": r.count("\n")} if r is not None else {}),
    (cigen.cli, "random_vectors", "fuzz.random_vectors", None),
    (cigen.cli, "check_equivalence", "sim.check", None),
    (cigen.cli, "simulate_ci", _sim_span, _sim_counts),
    (cigen.sim, "simulate_ci", _sim_span, _sim_counts),
    (cigen.sim, "eval_reference", "sim.reference", None),
    (cigen.cli, "estimate_metrics", "metrics.estimate", None),
    (cigen.cli, "emit_header", "cpatch.header", None),
    (cigen.cli, "rewrite", "cpatch.rewrite", None),
    (cigen.cpatch, "find_call_sites", "cpatch.match",
     lambda r, e: {"sites": len(r)} if r is not None else {}),
    (cigen.cpatch, "lex_c", "cpatch.lex",
     lambda r, e: {"tokens": len(r)} if r is not None else {}),
)


class Recorder:
    """Records spans while installed; ``uninstall`` restores the modules."""

    def __init__(self):
        # one tuple per span: (name, start, end, parent index, op id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._self: list[float] = []
        self._counts: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op_id = -1

    def _open(self, name: str) -> tuple[int, int, float]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op_id))
        self._self.append(0.0)
        self._counts.append({})
        self._stack.append(index)
        return index, parent, time.perf_counter()

    def _close(self, index: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, _, _, _, op = self.spans[index]
        self.spans[index] = (name, start, end, parent, op)
        duration = end - start
        self._self[index] += duration
        if parent >= 0:
            self._self[parent] -= duration

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            index, parent, start = self._open(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                self._close(index, parent, start)
                if counter is not None:
                    self._counts[index] = counter(result, exc)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, attr, name, counter in _WRAPPED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def root(self, op_id: int, fn, *args):
        """Run ``fn`` (the CLI entry point) as the root span ``cli``."""
        self.op_id = op_id
        return self._wrap(fn, "cli", None)(*args)

    def summary(self, since: int = 0) -> dict[str, float]:
        """Self time in ms per span name and summed counts, over the spans
        from index ``since`` on."""
        totals: dict[str, float] = defaultdict(float)
        for index in range(since, len(self.spans)):
            name = self.spans[index][0]
            totals[f"{name}.self_ms"] += self._self[index] * 1000
            totals[f"{name}.calls"] += 1
            for key, value in self._counts[index].items():
                if key == "levels":
                    totals[f"{name}.levels_max"] = max(
                        totals[f"{name}.levels_max"], value)
                else:
                    totals[f"{name}.{key}"] += value
        return dict(totals)

    def write(self, path: Path) -> None:
        """All spans as tab-separated lines: name, start and end in µs
        from the first span, parent index, op id."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            handle.write("name\tstart_us\tend_us\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                handle.write(f"{name}\t{(start - origin) * 1e6:.1f}\t"
                             f"{(end - origin) * 1e6:.1f}\t{parent}\t{op}\n")
