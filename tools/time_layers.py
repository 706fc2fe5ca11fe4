"""Time each layer of `cigen build` in-process on the wide-build designs.

Builds the five designs of the benchmark's wide-build workload with the
generators of ``bench/workloads.py`` (imported, not changed), then times
each layer of the build pipeline on each design: parse, map,
``build_design``, ``validate_structure``, ``emit_vhdl``, the draw of the
check vectors (``random_vectors``, one column per input), lowering
(``IndexedDesign``), ``run`` over the check vectors, and
``check_equivalence`` on the drawn columns as ``build`` calls it
(column check, lowering, run and oracle together).  Each layer starts
after a full garbage collection, so it pays for the collections its own
allocations set off, not for those of the layers before it; a
``gc.callbacks`` hook counts those collections and times them.  Prints the
median of each over the repeats, per design and summed, then the
collections and their time per layer, summed over the designs, then one
line comparing the median of ``IndexedDesign`` plus ``run`` with the
median of ``build_design`` on the 960-term chain, and last the top
``cProfile`` entries of lowering that chain.  Run from the
repository root:

    python3 tools/time_layers.py [--repeats 9] [--top 15] [--json out.json]
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402  (bench/workloads.py, read only)
from cigen.frontend import parse_ci_spec  # noqa: E402
from cigen.fuzz import random_vectors  # noqa: E402
from cigen.hdl import build_design, emit_vhdl, validate_structure  # noqa: E402
from cigen.mapper import map_design  # noqa: E402
from cigen.sim import IndexedDesign, check_equivalence, operand_columns  # noqa: E402

LAYERS = ("parse", "map", "build_design", "validate_structure", "emit_vhdl",
          "random_vectors", "IndexedDesign", "run", "check_equivalence")


def wide_texts() -> list[tuple[str, str]]:
    """The wide-build workload's spec texts, drawn as ``wide_build`` does."""
    rng = random.Random(workloads.WIDE_SPEC_SEED)
    texts = []
    for taps in workloads.WIDE_TAPS:
        for shape, tree in (("c", False), ("t", True)):
            name = f"sop{taps}{shape}"
            texts.append((name, workloads.sum_of_products(name, taps, tree, rng)))
    name = f"add{workloads.WIDE_CHAIN_TERMS}"
    texts.append((name, workloads.add_chain(name, workloads.WIDE_CHAIN_TERMS, rng)))
    return texts


class _Collections:
    """Counts the garbage collections that run while installed, and the
    milliseconds they take."""

    def __init__(self):
        self.count, self.ms, self._start = 0, 0.0, 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.count += 1
            self.ms += (time.perf_counter() - self._start) * 1e3


def time_once(text: str, vectors_seed: int) -> dict[str, tuple[float, int, float]]:
    """Per layer of one build of text: its milliseconds, and the garbage
    collections that ran in it with their milliseconds."""
    times: dict[str, tuple[float, int, float]] = {}
    collections = _Collections()

    def timed(layer: str, call, *args, **kwargs):
        gc.collect()
        collections.count, collections.ms = 0, 0.0
        gc.callbacks.append(collections)
        try:
            start = time.perf_counter()
            value = call(*args, **kwargs)
            ms = (time.perf_counter() - start) * 1e3
        finally:
            gc.callbacks.remove(collections)
        times[layer] = ms, collections.count, collections.ms
        return value

    spec = timed("parse", parse_ci_spec, text)
    mapped = timed("map", map_design, spec)
    design = timed("build_design", build_design, spec, mapped)
    timed("validate_structure", validate_structure, design)
    timed("emit_vhdl", emit_vhdl, design)
    count = workloads.WIDE_VECTORS
    columns = timed("random_vectors", random_vectors,
                    random.Random(vectors_seed), spec, count)
    indexed = timed("IndexedDesign", IndexedDesign, design)
    pairs = operand_columns(mapped, columns, count)
    timed("run", indexed.run, pairs, count)
    timed("check_equivalence", check_equivalence, spec, mapped, columns,
          design=design)
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--top", type=int, default=15,
                        help="cProfile entries to print for the chain's lowering")
    parser.add_argument("--json", help="also write the medians to this file")
    args = parser.parse_args(argv)

    texts = wide_texts()
    samples = {name: {layer: [] for layer in LAYERS} for name, _ in texts}
    for repeat in range(args.repeats):
        for name, text in texts:
            for layer, sample in time_once(text, repeat).items():
                samples[name][layer].append(sample)
    medians = {name: {layer: statistics.median(ms for ms, _, _ in values)
                      for layer, values in layers.items()}
               for name, layers in samples.items()}
    medians["total"] = {layer: sum(medians[name][layer] for name, _ in texts)
                        for layer in LAYERS}
    # per layer, over the designs: median collections and their ms per build
    collected = {layer: {
        "collections": sum(statistics.median(n for _, n, _ in samples[name][layer])
                           for name, _ in texts),
        "ms": sum(statistics.median(ms for _, _, ms in samples[name][layer])
                  for name, _ in texts)} for layer in LAYERS}

    width = max(len(layer) for layer in LAYERS)
    print(f"median ms over {args.repeats} repeats, "
          f"{workloads.WIDE_VECTORS} vectors per check")
    print(" " * width + "".join(f"{name:>10}" for name in medians))
    for layer in LAYERS:
        print(f"{layer:<{width}}" + "".join(
            f"{medians[name][layer]:>10.2f}" for name in medians))
    print("\ngarbage collections in each layer, median per build summed "
          "over the designs")
    print(" " * width + f"{'count':>10}{'ms':>10}")
    for layer in LAYERS:
        print(f"{layer:<{width}}{collected[layer]['collections']:>10.1f}"
              f"{collected[layer]['ms']:>10.2f}")

    chain_name = texts[-1][0]
    runs = samples[chain_name]
    lowered = statistics.median(lower + run for (lower, _, _), (run, _, _)
                                in zip(runs["IndexedDesign"], runs["run"]))
    built = medians[chain_name]["build_design"]
    print(f"\n{chain_name}: IndexedDesign + run {lowered:.2f} ms against "
          f"build_design {built:.2f} ms (medians; ratio {lowered / built:.2f})")

    chain = texts[-1][1]
    design = build_design(parse_ci_spec(chain),
                          map_design(parse_ci_spec(chain)))
    profile = cProfile.Profile()
    profile.runcall(IndexedDesign, design)
    print(f"\ncProfile of IndexedDesign on {texts[-1][0]}, by own time:")
    pstats.Stats(profile, stream=sys.stdout).strip_dirs().sort_stats("tottime") \
        .print_stats(args.top)

    if args.json:
        Path(args.json).write_text(json.dumps(
            {"repeats": args.repeats, "vectors": workloads.WIDE_VECTORS,
             "median_ms": medians, "gc": collected,
             "chain": {"design": chain_name, "lowering_and_run_ms": lowered,
                       "build_design_ms": built}}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
