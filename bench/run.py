#!/usr/bin/env python3
"""The cigen benchmark.

    python3 bench/run.py --workload fuzz-build --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, one process each
    python3 bench/run.py --write-manifest            # regenerate BENCHMARK.json
    python3 bench/selftest.py                        # fast self-test, tiny inputs

One run builds its inputs from the seed, measures set-up (a fresh process
importing ``cigen.cli``), runs one untimed warm-up pass over the workload's
commands and then timed passes until ``--seconds`` have gone.  Every command
goes through ``cigen.cli.main`` in this process, one at a time, and every
output is checked.  A wrong output, a traceback or an artifact that differs
between passes counts as a failed operation and makes the exit code 1.

Times are host wall times scaled to a reference host speed (see
``HostSpeed``); the unscaled pass time and the scale are printed beside
them.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and prints the per-layer self
times and counts, and the tracing overhead.  The last line of the output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Inputs and outputs live under ``.bench_work/`` in the checkout; the spans
of a traced run are written there as ``spans-<workload>.tsv``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MANIFEST = ROOT / "BENCHMARK.json"
RUN_SECONDS = 30
SETUP_REPEATS = 7
# Seconds of host-speed kernel run after each command, as a share of the
# command's own time.
KERNEL_SHARE = 0.1
# The kernel's time per call on the host the baseline was recorded on
# (2-vCPU Intel Xeon VM, Python 3.11.7) when it was not slowed by other load.
REFERENCE_KERNEL_US = 150.0

# Why each workload is in the benchmark: the layer it loads and the ones
# it bypasses.
WORKLOADS = {
    "fuzz-build":
        "102 small fuzz specs built at 256 vectors, each then simulated with "
        "a trace: loads the sim checker and interpreter; mapper and hdl are a "
        "few percent; cpatch matching is bypassed",
    "wide-build":
        "five 127-959 op designs built at 4 vectors: loads frontend, mapper "
        "and hdl per design and sim per cycle on long schedules; the traced "
        "simulate path and cpatch matching are bypassed",
    "patch-c":
        "three 30-60 KiB C files with planted sites and near-misses: loads "
        "the cpatch lexer and matcher; sim, hdl and fuzz are bypassed",
}

# name, unit, better, bound (share of the parent's median), meaning
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "fresh-process import of cigen.cli, median of 7"),
    ("op_ms_p50", "ms", "lower", 0.25,
     "median time of one primary command: build on the build workloads, "
     "patch on patch-c"),
    ("pass_ms", "ms", "lower", 0.25,
     "time of every command of one pass over the corpus, median over "
     "passes"),
    ("peak_rss_mib", "MiB", "lower", 0.1,
     "ru_maxrss of the workload process"),
)

# name, unit, better, meaning (per pass, median over traced passes)
PER_LAYER = (
    ("cli.self_ms", "ms", "lower", "argparse, file IO and printing"),
    ("frontend.parse_ms", "ms", "lower", "parse_ci_spec"),
    ("mapper.map_ms", "ms", "lower", "map_design"),
    ("mapper.ops", "count", "lower", "operations mapped"),
    ("mapper.levels_max", "count", "lower", "deepest DFG mapped"),
    ("hdl.build_design_ms", "ms", "lower", "build_design"),
    ("hdl.validate_ms", "ms", "lower", "validate_structure"),
    ("hdl.emit_ms", "ms", "lower", "emit_vhdl"),
    ("hdl.vhdl_lines", "count", "lower", "lines of VHDL emitted"),
    ("fuzz.random_vectors_ms", "ms", "lower", "random_vectors"),
    ("sim.check_ms", "ms", "lower", "check_equivalence, self"),
    ("sim.simulate_ms", "ms", "lower", "simulate_ci with record=False"),
    ("sim.reference_ms", "ms", "lower", "eval_reference"),
    ("sim.trace_ms", "ms", "lower", "simulate_ci with record=True"),
    ("sim.host_us_per_cycle", "us", "lower",
     "sim.simulate_ms per enabled cycle simulated"),
    ("sim.cycles", "count", "lower", "enabled cycles in record=False calls"),
    ("sim.vectors", "count", "higher", "record=False simulate calls"),
    ("sim.useful_ratio", "ratio", "higher",
     "vectors without divide-by-zero / sim.vectors"),
    ("metrics.estimate_ms", "ms", "lower", "estimate_metrics"),
    ("cpatch.header_ms", "ms", "lower", "emit_header"),
    ("cpatch.lex_ms", "ms", "lower", "lex_c"),
    ("cpatch.match_ms", "ms", "lower", "find_call_sites, self"),
    ("cpatch.rewrite_ms", "ms", "lower", "rewrite, self"),
    ("cpatch.tokens", "count", "lower", "C tokens lexed"),
    ("cpatch.sites", "count", "higher", "call sites found"),
    ("done_cycle_mean", "cycle", "lower",
     "mean scheduled done cycle of the built designs"),
    ("vhdl_bytes_total", "B", "lower", "bytes of VHDL written per pass"),
    ("trace.overhead_pct", "%", "lower",
     "traced minus untraced pass time, share of untraced"),
)

# span name -> per-layer metric (self times) and count keys
_SPAN_METRICS = {
    "cli": "cli.self_ms",
    "frontend.parse": "frontend.parse_ms",
    "mapper.map": "mapper.map_ms",
    "hdl.build_design": "hdl.build_design_ms",
    "hdl.validate": "hdl.validate_ms",
    "hdl.emit": "hdl.emit_ms",
    "fuzz.random_vectors": "fuzz.random_vectors_ms",
    "sim.check": "sim.check_ms",
    "sim.simulate": "sim.simulate_ms",
    "sim.reference": "sim.reference_ms",
    "sim.trace": "sim.trace_ms",
    "metrics.estimate": "metrics.estimate_ms",
    "cpatch.header": "cpatch.header_ms",
    "cpatch.lex": "cpatch.lex_ms",
    "cpatch.match": "cpatch.match_ms",
    "cpatch.rewrite": "cpatch.rewrite_ms",
}
_COUNT_METRICS = {
    "mapper.ops": "mapper.map.ops",
    "mapper.levels_max": "mapper.map.levels_max",
    "hdl.vhdl_lines": "hdl.emit.lines",
    "sim.cycles": "sim.simulate.cycles",
    "sim.vectors": "sim.simulate.vectors",
    "cpatch.tokens": "cpatch.lex.tokens",
    "cpatch.sites": "cpatch.match.sites",
}
# metrics that must repeat exactly from pass to pass
DETERMINISTIC = ("done_cycle_mean", "vhdl_bytes_total", "mapper.ops",
                 "mapper.levels_max", "hdl.vhdl_lines", "sim.cycles",
                 "sim.vectors", "sim.useful_ratio", "cpatch.tokens",
                 "cpatch.sites")


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }


def _mix(bits: int, i: int) -> int:
    return (bits >> 3) ^ len(f"{i}:{bits:08x}")


def _kernel() -> int:
    """A fixed slice of interpreter work (calls, ints, strings, a dict) that
    runs no cigen code and allocates nothing the garbage collector tracks,
    so its time follows the host's speed and not the program's heap."""
    table = {}
    for i in range(200):
        table[i & 63] = _mix((i * 2654435761) & 0xFFFFFFFF, i)
    return len(table)


class HostSpeed:
    """Times the kernel between commands.

    On a shared host the speed of Python code drifts, on the 2-vCPU VM the
    baseline was recorded on by a third over tens of seconds, and all of it
    slows together.  A pass's times are multiplied by its ``scale``, the
    reference kernel time over the kernel time measured after each of its
    commands, which reports them at the reference speed.  On that VM this
    cut the pass-to-pass coefficient of variation of fuzz-build from 12-17%
    to 2-4%, and of patch-c, whose commands last up to a second, from 17-19%
    to 12-13%.  A kernel run in a separate process gave the same scales, so
    the program's heap does not move them.
    """

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0

    def sample(self, budget: float) -> None:
        start = now = time.perf_counter()
        while now - start < budget or not self.calls:
            _kernel()
            self.calls += 1
            now = time.perf_counter()
        self.seconds += now - start

    @property
    def kernel_us(self) -> float:
        return self.seconds / self.calls * 1e6

    @property
    def scale(self) -> float:
        return REFERENCE_KERNEL_US / self.kernel_us


def measure_setup(repeats: int) -> tuple[float, float]:
    """Median seconds a fresh interpreter spends importing cigen.cli, at
    reference speed and as measured."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import time; t = time.perf_counter(); import cigen.cli; "
            "print(time.perf_counter() - t)")
    scaled, raw = [], []
    for attempt in range(repeats + 1):   # the first one fills the bytecode cache
        speed = HostSpeed()
        speed.sample(0.02)
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"importing cigen.cli failed: {done.stderr}")
        speed.sample(0.02)
        if attempt:
            raw.append(float(done.stdout))
            scaled.append(raw[-1] * speed.scale)
    return statistics.median(scaled), statistics.median(raw)


@dataclass
class Pass:
    times: list[float] = field(default_factory=list)
    facts: list[dict | None] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    layers: dict[str, float] = field(default_factory=dict)
    scale: float = 1.0

    @property
    def wall(self) -> float:
        return sum(self.times)

    @property
    def total(self) -> float:
        """Seconds of all commands at reference speed."""
        return sum(self.times) * self.scale


def run_pass(ops, main, recorder=None) -> Pass:
    result = Pass()
    speed = HostSpeed()
    digest = hashlib.sha256()
    mark = len(recorder.spans) if recorder else 0
    for index, op in enumerate(ops):
        if op.before is not None:
            op.before()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                if recorder is None:
                    rc = main(op.argv)
                else:
                    rc = recorder.root(index, main, op.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:   # a traceback is a failed operation
                rc = f"uncaught {type(exc).__name__}: {exc}"
            result.times.append(time.perf_counter() - start)
        speed.sample(KERNEL_SHARE * result.times[-1])
        try:
            result.facts.append(op.check(rc, out.getvalue(), err.getvalue()))
        except Exception as exc:   # CheckFailed, or output too broken to read
            result.facts.append(None)
            result.problems.append(f"{op.label}: {exc}")
        for path in op.outputs:
            digest.update(path.name.encode() + b"\0")
            digest.update(path.read_bytes() if path.exists() else b"<missing>")
    result.digest = digest.hexdigest()
    result.scale = speed.scale
    if recorder is not None:
        result.layers = layer_metrics(recorder.summary(mark), result)
    return result


def design_facts(run: Pass) -> dict[str, float]:
    builds = [f for f in run.facts if f and "done_cycle" in f]
    if not builds:
        return {"done_cycle_mean": 0.0, "vhdl_bytes_total": 0.0}
    return {"done_cycle_mean": statistics.fmean(f["done_cycle"] for f in builds),
            "vhdl_bytes_total": float(sum(f["vhdl_bytes"] for f in builds))}


def layer_metrics(summary: dict[str, float], run: Pass) -> dict[str, float]:
    values = {metric: summary.get(f"{span}.self_ms", 0.0) * run.scale
              for span, metric in _SPAN_METRICS.items()}
    for metric, key in _COUNT_METRICS.items():
        values[metric] = summary.get(key, 0.0)
    vectors, cycles = values["sim.vectors"], values["sim.cycles"]
    values["sim.host_us_per_cycle"] = (
        values["sim.simulate_ms"] * 1000 / cycles if cycles else 0.0)
    values["sim.useful_ratio"] = (
        (vectors - summary.get("sim.simulate.divide_by_zero", 0.0)) / vectors
        if vectors else 0.0)
    values.update(design_facts(run))
    return values


def p90(values: list[float]) -> float | None:
    """The 90th percentile when at least ten samples lie beyond it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[-1]


def median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000 if values else 0.0


def workload_report(passes: list[Pass], ops, primary: str) -> dict:
    """End-to-end figures of the timed passes, by name: (value, unit, note)."""
    by_kind: dict[str, list[float]] = {}
    amount: dict[str, float] = {}
    for run in passes:
        for op, seconds, facts in zip(ops, run.times, run.facts):
            by_kind.setdefault(op.kind, []).append(seconds * run.scale)
            for key in ("vectors", "kib"):
                if facts and key in facts:
                    amount[key] = amount.get(key, 0.0) + facts[key]
    figures = {}
    for kind in ("build", "simulate", "patch"):
        samples = by_kind.get(kind)
        if not samples:
            continue
        figures[f"{kind}_ms_p50"] = (median_ms(samples), "ms",
                                     f"n={len(samples)}")
        tail = p90(samples)
        figures[f"{kind}_ms_p90"] = (
            None if tail is None else tail * 1000, "ms",
            f"n={len(samples)}" + ("" if tail is not None else
                                   ", fewer than 10 samples beyond p90"))
    if "build" in by_kind:
        figures["build_vectors_per_s"] = (
            amount.get("vectors", 0.0) / sum(by_kind["build"]), "1/s",
            "vectors checked / build time")
        figures.update((k, (v, unit, "deterministic")) for (k, v), unit in
                       zip(design_facts(passes[0]).items(), ("cycle", "B")))
    if "patch" in by_kind:
        figures["patch_kib_per_s"] = (
            amount.get("kib", 0.0) / sum(by_kind["patch"]), "KiB/s",
            "KiB of C source / patch time")
    figures["op_ms_p50"] = (median_ms(by_kind[primary]), "ms",
                            f"{primary}, n={len(by_kind[primary])}")
    figures["pass_ms"] = (median_ms([run.total for run in passes]), "ms",
                          f"n={len(passes)} passes of {len(ops)} commands")
    figures["pass_wall_ms"] = (median_ms([run.wall for run in passes]), "ms",
                               "as measured, not scaled")
    figures["host_scale"] = (statistics.median(run.scale for run in passes),
                             "ratio", f"{REFERENCE_KERNEL_US:.0f} us reference "
                             "kernel / kernel time measured")
    return figures


def drift(reference: Pass, run: Pass, label: str) -> list[str]:
    """Differences between two passes over the same inputs."""
    problems = []
    if run.digest != reference.digest:
        problems.append(f"{label}: artifact digest {run.digest[:12]} differs "
                        f"from the warm-up pass {reference.digest[:12]}")
    if run.facts != reference.facts:
        problems.append(f"{label}: output facts differ from the warm-up pass")
    return problems


def layer_table(name: str, traced: list[Pass], untraced: list[Pass]) -> dict:
    """Print the per-layer table and return the per-layer metrics."""
    metrics = {key: statistics.median(run.layers[key] for run in traced)
               for key in traced[0].layers}
    plain = statistics.median(run.total for run in untraced) * 1000
    with_spans = statistics.median(run.total for run in traced) * 1000
    metrics["trace.overhead_pct"] = (with_spans - plain) / plain * 100
    self_sum = statistics.median(
        sum(run.layers[m] for m in _SPAN_METRICS.values()) for run in traced)
    print(f"per-layer table, {name}: medians over {len(traced)} traced passes")
    print(f"  {'metric':24} {'value':>12}  unit   base")
    for metric, unit, _, meaning in PER_LAYER:
        value = metrics[metric]
        if unit == "ms":
            base = f"{value / self_sum * 100:5.1f}% of {self_sum:.1f} ms self total"
        elif metric == "sim.useful_ratio":
            base = (f"{metrics['sim.vectors'] * value:.0f} / "
                    f"{metrics['sim.vectors']:.0f} vectors")
        elif metric == "sim.host_us_per_cycle":
            base = (f"{metrics['sim.simulate_ms']:.1f} ms / "
                    f"{metrics['sim.cycles']:.0f} cycles")
        elif metric == "trace.overhead_pct":
            base = f"{with_spans:.1f} ms traced vs {plain:.1f} ms untraced"
        else:
            base = meaning
        print(f"  {metric:24} {value:12.4f}  {unit:6} {base}")
    totals = [run.total * 1000 for run in untraced]
    q1, _, q3 = statistics.quantiles(totals, n=4)
    gap = plain - self_sum
    within = abs(gap) <= abs(with_spans - plain) + (q3 - q1)
    print(f"  accounting: untraced pass {plain:.1f} ms, summed self times "
          f"{self_sum:.1f} ms, difference {gap:+.1f} ms; tracing overhead "
          f"{with_spans - plain:+.1f} ms, untraced quartile spread "
          f"{q3 - q1:.1f} ms: {'within' if within else 'OUTSIDE'} "
          "overhead plus spread")
    return metrics


def run_workload(args) -> int:
    if not (SRC / "cigen" / "__init__.py").is_file():
        print(f"error: no cigen sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cigen.cli
    from workloads import PREPARE
    if Path(cigen.cli.__file__).resolve().parent.parent != SRC:
        print(f"error: imported cigen from {cigen.cli.__file__}", file=sys.stderr)
        return 2
    name = args.workload

    setup_s, setup_wall_s = measure_setup(SETUP_REPEATS)
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ops = PREPARE[name](work, args.seed)
        # the input files and the command lines, without the work directory
        inputs = hashlib.sha256()
        for path in sorted(work.iterdir()):
            if path.is_file():
                inputs.update(path.name.encode() + b"\0" + path.read_bytes())
        for op in ops:
            inputs.update(" ".join(op.argv).replace(str(work), "").encode())
        main = cigen.cli.main
        warm = run_pass(ops, main)
        passes, traced = [], []
        recorder = None
        if args.trace:
            from spans import Recorder
            recorder = Recorder()
        def traced_pass() -> None:
            recorder.install()
            try:
                traced.append(run_pass(ops, main, recorder))
            finally:
                recorder.uninstall()

        deadline = time.perf_counter() + args.seconds
        while True:
            # traced and untraced passes take turns going first
            if recorder is not None and len(passes) % 2:
                traced_pass()
            passes.append(run_pass(ops, main))
            if recorder is not None and len(traced) < len(passes):
                traced_pass()
            if time.perf_counter() >= deadline and len(passes) >= 2:
                break
        if recorder is not None:
            recorder.write(WORK / f"spans-{name}.tsv")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(warm.problems)
    for index, run in enumerate(passes + traced):
        problems += run.problems
        problems += drift(warm, run, f"pass {index + 1}")
    for key in DETERMINISTIC:
        if len({run.layers[key] for run in traced}) > 1:
            problems.append(f"{key} differs between traced passes")
    attempted = len(ops) * (1 + len(passes) + len(traced))
    failed = min(len(problems), attempted)

    print(f"workload {name}: seed {args.seed}, {len(ops)} commands "
          f"per pass, {len(passes)} timed passes"
          + (f" + {len(traced)} traced" if traced else ""))
    print(f"  inputs sha256 {inputs.hexdigest()}")
    print(f"  outputs sha256 {warm.digest}")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is None:
        figures = workload_report(passes, ops, ops[0].kind)
        figures["setup_s"] = (setup_s, "s", f"median of {SETUP_REPEATS}, "
                              f"{setup_wall_s:.4f} s as measured")
        figures["peak_rss_mib"] = (rss, "MiB", "ru_maxrss")
        figures["failed_ratio"] = (failed / attempted, "ratio",
                                   f"{failed} / {attempted} operations")
        for label, (value, unit, note) in figures.items():
            shown = "n/a" if value is None else f"{value:.4f}"
            print(f"  {label:22} {shown:>14} {unit:6} {note}")
        metrics = {n: {"value": figures[n][0], "unit": u}
                   for n, u, *_ in END_TO_END}
    else:
        layers = layer_table(name, traced, passes)
        metrics = {n: {"value": layers[n], "unit": u}
                   for n, u, *_ in PER_LAYER}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so set-up and memory are its own."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, timeout=900)
        status = status or done.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from the definitions here")
    args = parser.parse_args(argv)
    if args.write_manifest:
        MANIFEST.write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
