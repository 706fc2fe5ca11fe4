"""The committed layer timer still runs against the wide-build designs.

``tools/time_layers.py`` imports ``bench/workloads.py``'s generators and
times the build layers through their public functions, so a renamed
generator, constant or layer function would otherwise show only when
someone next runs it.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layer_timer_times_every_layer_of_every_wide_design(tmp_path):
    out = tmp_path / "layers.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "time_layers.py"),
         "--repeats", "1", "--top", "3", "--json", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text())
    medians = record["median_ms"]
    assert list(medians) == ["sop64c", "sop64t", "sop128c", "sop128t",
                             "add960", "total"]
    layers = ["parse", "map", "build_design", "validate_structure",
              "emit_vhdl", "random_vectors", "IndexedDesign", "run",
              "check_equivalence"]
    for design in medians.values():
        assert list(design) == layers
        assert all(ms > 0 for ms in design.values())
    assert "cProfile of IndexedDesign on add960" in done.stdout

    assert list(record["gc"]) == layers
    for counted in record["gc"].values():
        assert counted["collections"] >= 0 and counted["ms"] >= 0
    assert "garbage collections in each layer" in done.stdout
    chain = record["chain"]
    assert chain["design"] == "add960"
    assert chain["lowering_and_run_ms"] > 0 and chain["build_design_ms"] > 0
    assert (f"add960: IndexedDesign + run {chain['lowering_and_run_ms']:.2f} ms "
            f"against build_design {chain['build_design_ms']:.2f} ms") in done.stdout
