"""The names the benchmark reaches into cigen by still resolve.

``bench/`` changes only with the benchmark itself, and a traced run
replaces each ``(module, attribute)`` of ``spans._WRAPPED`` with a
recording wrapper, so a layer function renamed or deleted in ``src/cigen``
would otherwise show only when a traced bench run fails.  These tests
import both bench modules the way ``bench/run.py`` does, which resolves
their imports from ``cigen``, and look up every wrapped name and every
module global the runner and the workloads call or patch.  The span hooks
on ``simulate_ci`` also read its call and its outcome: ``record`` as a
keyword, ``SimResult.done_cycle_enabled`` and ``DivideByZero.cycle``.
Names alone do not show that the workloads still run, so one test also
runs the first operation of each workload and its own check, and another
runs the benchmark's self-test.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import cigen.cli
import cigen.fuzz
import cigen.sim
from cigen.errors import DivideByZero
from cigen.frontend import parse_ci_spec
from cigen.sim import simulate_ci

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench(monkeypatch):
    """Imports a module of bench/ by its bare name, as bench/run.py does."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module


def test_every_wrapped_name_resolves(bench):
    spans = bench("spans")
    missing = [f"{module.__name__}.{attr}"
               for module, attr, _, _ in spans._WRAPPED
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_workloads_import_and_match_the_manifest(bench):
    workloads = bench("workloads")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(workloads.PREPARE) == \
        sorted(w["name"] for w in manifest["workloads"])
    # run.py calls cli.main; fuzz_texts swaps fuzz.parse_ci_spec
    assert callable(cigen.cli.main)
    assert callable(cigen.fuzz.parse_ci_spec)


def test_simulate_resolves_in_cli_and_sim():
    # spans._WRAPPED patches simulate_ci in both modules: cli calls it by
    # its import, and callers inside sim through the module global
    assert callable(cigen.cli.simulate_ci)
    assert callable(cigen.sim.simulate_ci)


@pytest.mark.parametrize("trace, span", [(False, "sim.simulate"),
                                         (True, "sim.trace")])
def test_simulate_command_passes_record_by_keyword(bench, monkeypatch,
                                                   tmp_path, capsys,
                                                   trace, span):
    # spans._sim_span reads record from the keywords; passed by position,
    # every call would be labelled sim.trace
    spans = bench("spans")
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return simulate_ci(*args, **kwargs)
    monkeypatch.setattr(cigen.cli, "simulate_ci", recording)
    argv = ["simulate", str(ROOT / "tests" / "golden" / "f.ci"),
            "--inputs", "a=2,b=3,c=4"]
    if trace:
        argv += ["--trace", str(tmp_path / "trace.jsonl")]
    assert cigen.cli.main(argv) == 0
    [(args, kwargs)] = calls
    assert kwargs["record"] is trace
    assert spans._sim_span(args, kwargs) == span


def test_sim_counts_read_the_simulation_outcome(bench):
    # spans._sim_counts reads SimResult.done_cycle_enabled and
    # DivideByZero.cycle
    spans = bench("spans")
    mac = parse_ci_spec((ROOT / "tests" / "golden" / "f.ci").read_text())
    outcome = simulate_ci(mac, {"a": 2, "b": 3, "c": 4}, record=False)
    assert spans._sim_counts(outcome, None) == {"cycles": 4, "vectors": 1}
    div = parse_ci_spec("ci d(opcode=0) { input a: signed<8>; "
                        "input b: signed<8>; output q: signed<8>; q = a / b; }")
    with pytest.raises(DivideByZero) as info:
        simulate_ci(div, {"a": 1, "b": 0}, record=False)
    assert spans._sim_counts(None, info.value) == \
        {"cycles": 2, "vectors": 1, "divide_by_zero": 1}


@pytest.mark.parametrize("workload", ["fuzz-build", "wide-build", "patch-c"])
def test_first_op_of_each_workload_passes_its_check(bench, tmp_path, capsys,
                                                    workload):
    # run.py's loop for one operation, so a cigen feature that bench/
    # relies on and that is deleted fails here, not first in a bench run.
    # Preparing wide-build recurses once per level of its 960-term chain,
    # which run.py can afford at the bottom of its stack but pytest cannot
    # at the default limit.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2000)
    try:
        op = bench("workloads").PREPARE[workload](tmp_path, 1)[0]
    finally:
        sys.setrecursionlimit(limit)
    if op.before is not None:
        op.before()
    rc = cigen.cli.main(op.argv)
    out, err = capsys.readouterr()
    facts = op.check(rc, out, err)
    assert facts and all(path.exists() for path in op.outputs)


def test_bench_selftest_passes():
    # the benchmark's own self-test imports cigen too (cigen.lpm among
    # others), so a refactor that breaks it fails here
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
