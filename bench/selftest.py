#!/usr/bin/env python3
"""Fast self-test of the benchmark on tiny inputs.

    python3 bench/selftest.py

Checks that every end-to-end and per-layer metric is printed with its unit,
that the manifest matches BENCHMARK.json, that the same seed reproduces the
same digests, and that a wrong expectation (a planted site count, an oracle
value) or missing sources make a run fail.
"""

from __future__ import annotations

import io
import json
import random
import re
import shutil
import subprocess
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from cigen.lpm import BitVec  # noqa: E402

TINY = {
    "FUZZ_SPECS": 3, "FUZZ_VECTORS": 16,
    "WIDE_TAPS": (4,), "WIDE_CHAIN_TERMS": 40, "WIDE_VECTORS": 2,
    "PATCH_SIZES_KIB": (1, 2, 3), "LONG_LINE_TERMS": 20,
}

# The end-to-end figures each workload prints, with their units.
PRINTED = {
    "fuzz-build": {"build_ms_p50": "ms", "build_ms_p90": "ms",
                   "build_vectors_per_s": "1/s", "simulate_ms_p50": "ms",
                   "simulate_ms_p90": "ms", "done_cycle_mean": "cycle",
                   "vhdl_bytes_total": "B"},
    "wide-build": {"build_ms_p50": "ms", "build_vectors_per_s": "1/s",
                   "done_cycle_mean": "cycle", "vhdl_bytes_total": "B"},
    "patch-c": {"patch_ms_p50": "ms", "patch_kib_per_s": "KiB/s"},
}
COMMON = {"setup_s": "s", "peak_rss_mib": "MiB", "failed_ratio": "ratio",
          "op_ms_p50": "ms", "pass_ms": "ms"}


def bench(workload: str, seed: int = 3, trace: int = 0) -> tuple[int, str, dict]:
    """One in-process run on tiny inputs: exit code, output, result line."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0", "--trace", str(trace)])
    text = out.getvalue()
    return code, text, json.loads(text.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        saved = {name: getattr(workloads, name) for name in TINY}
        saved_repeats = run.SETUP_REPEATS

        def restore():
            for name, value in saved.items():
                setattr(workloads, name, value)
            run.SETUP_REPEATS = saved_repeats

        self.addCleanup(restore)
        for name, value in TINY.items():
            setattr(workloads, name, value)
        run.SETUP_REPEATS = 1

    def test_manifest_is_current_and_within_limits(self):
        manifest = json.loads(run.MANIFEST.read_text())
        self.assertEqual(manifest, run.manifest())
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in manifest[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for metric in manifest["end_to_end"] + manifest["per_layer"]:
            self.assertRegex(metric["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
        for workload in manifest["workloads"]:
            self.assertLessEqual(len(workload["why"]), 200)
        self.assertTrue(all(m["bound"] <= 0.25 for m in manifest["end_to_end"]))

    def test_every_end_to_end_metric_is_printed_with_its_unit(self):
        for workload, figures in PRINTED.items():
            code, text, result = bench(workload)
            self.assertEqual(code, 0, text)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            for name, unit in {**figures, **COMMON}.items():
                self.assertRegex(
                    text, rf"(?m)^  {re.escape(name)} +\S+ {re.escape(unit)} ",
                    f"{workload}: {name}")
            self.assertEqual(set(result["metrics"]),
                             {m[0] for m in run.END_TO_END})
            for name, unit, *_ in run.END_TO_END:
                self.assertEqual(result["metrics"][name]["unit"], unit)
                self.assertGreater(result["metrics"][name]["value"], 0)

    def test_traced_run_reports_every_per_layer_metric(self):
        code, text, result = bench("patch-c", trace=1)
        self.assertEqual(code, 0, text)
        self.assertEqual(set(result["metrics"]), {m[0] for m in run.PER_LAYER})
        for name, unit, *_ in run.PER_LAYER:
            self.assertEqual(result["metrics"][name]["unit"], unit)
            self.assertRegex(text, rf"(?m)^  {re.escape(name)} +\S+  {re.escape(unit)} ")
        self.assertIn("accounting: untraced pass", text)
        self.assertGreater(result["metrics"]["cpatch.sites"]["value"], 0)
        self.assertGreater(result["metrics"]["cpatch.lex_ms"]["value"], 0)
        self.assertEqual(result["metrics"]["sim.simulate_ms"]["value"], 0)

    def test_same_seed_gives_same_digests(self):
        digests = []
        for seed in (5, 5, 6):
            _, text, _ = bench("fuzz-build", seed=seed)
            digests.append(re.findall(r"(?m)^  (?:inputs|outputs) sha256 (\w+)$", text))
        self.assertEqual(len(digests[0]), 2)
        self.assertEqual(digests[0], digests[1])
        self.assertNotEqual(digests[0][0], digests[2][0])

    def test_wrong_planted_site_count_fails_the_run(self):
        real = workloads.c_source

        def one_site_too_many(size_kib: int, long_terms: int,
                              rng: random.Random):
            source, expected, sites = real(size_kib, long_terms, rng)
            return source, expected, sites + 1

        workloads.c_source = one_site_too_many
        try:
            code, text, result = bench("patch-c")
        finally:
            workloads.c_source = real
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("planted", text)

    def test_wrong_oracle_value_fails_the_run(self):
        real = workloads.eval_reference

        def off_by_one(spec, inputs, dfg=None):
            value = real(spec, inputs, dfg)
            return BitVec(32, value.bits ^ 1)

        workloads.eval_reference = off_by_one
        try:
            code, text, result = bench("fuzz-build")
        finally:
            workloads.eval_reference = real
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertIn("reference 0x", text)

    def test_run_without_sources_fails(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.MANIFEST, bare / "BENCHMARK.json")
        try:
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "fuzz-build",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
