"""The names the benchmark reaches into cigen by still resolve.

``bench/`` changes only with the benchmark itself, and a traced run
replaces each ``(module, attribute)`` of ``spans._WRAPPED`` with a
recording wrapper, so a layer function renamed or deleted in ``src/cigen``
would otherwise show only when a traced bench run fails.  These tests
import both bench modules the way ``bench/run.py`` does, which resolves
their imports from ``cigen``, and look up every wrapped name and every
module global the runner and the workloads call or patch.
"""

import importlib
import json
from pathlib import Path

import pytest

import cigen.cli
import cigen.fuzz

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
