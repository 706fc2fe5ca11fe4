"""Time each layer of `cigen build` in-process on the wide-build designs.

Builds the five designs of the benchmark's wide-build workload with the
generators of ``bench/workloads.py`` (imported, not changed), then times
each layer of the build pipeline on each design: parse, map,
``build_design``, ``validate_structure``, ``emit_vhdl``, lowering
(``IndexedDesign``), ``run`` over the check vectors, and
``check_equivalence`` as ``build`` calls it (lowering, run and oracle
together).  Each layer starts after a full garbage collection, so it pays
for the collections its own allocations set off, not for those of the
layers before it.  Prints the median of each over the repeats, per design
and summed, and then the top ``cProfile`` entries of lowering the
960-term chain.  Run from the repository root:

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
          "IndexedDesign", "run", "check_equivalence")


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


def time_once(text: str, vectors_seed: int) -> dict[str, float]:
    """Milliseconds spent in each layer on one build of text."""
    times: dict[str, float] = {}

    def timed(layer: str, call, *args, **kwargs):
        gc.collect()
        start = time.perf_counter()
        value = call(*args, **kwargs)
        times[layer] = (time.perf_counter() - start) * 1e3
        return value

    spec = timed("parse", parse_ci_spec, text)
    mapped = timed("map", map_design, spec)
    design = timed("build_design", build_design, spec, mapped)
    timed("validate_structure", validate_structure, design)
    timed("emit_vhdl", emit_vhdl, design)
    vectors = random_vectors(random.Random(vectors_seed), spec,
                             workloads.WIDE_VECTORS)
    indexed = timed("IndexedDesign", IndexedDesign, design)
    pairs = operand_columns(mapped, vectors)
    timed("run", indexed.run, pairs, len(vectors))
    timed("check_equivalence", check_equivalence, spec, mapped, vectors,
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
            for layer, ms in time_once(text, repeat).items():
                samples[name][layer].append(ms)
    medians = {name: {layer: statistics.median(values)
                      for layer, values in layers.items()}
               for name, layers in samples.items()}
    medians["total"] = {layer: sum(medians[name][layer] for name, _ in texts)
                        for layer in LAYERS}

    width = max(len(layer) for layer in LAYERS)
    print(f"median ms over {args.repeats} repeats, "
          f"{workloads.WIDE_VECTORS} vectors per check")
    print(" " * width + "".join(f"{name:>10}" for name in medians))
    for layer in LAYERS:
        print(f"{layer:<{width}}" + "".join(
            f"{medians[name][layer]:>10.2f}" for name in medians))

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
             "median_ms": medians}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
