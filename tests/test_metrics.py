"""Cycle, speedup and energy accounting."""

import json
import random

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_DIR, REPORT_SCHEMA
from cigen.errors import CigenError
from cigen.frontend import OpKind, parse_ci_spec
from cigen.fuzz import FuzzConfig, random_spec
from cigen.mapper import map_design
from cigen.metrics import (
    DEFAULT_COSTS,
    ci_cycles,
    cost_table,
    energy_microjoules,
    estimate_metrics,
    sw_cycles,
)


def _mapped(body: str):
    spec = parse_ci_spec(f"ci t(opcode=0) {{ {body} }}")
    return spec, map_design(spec)


class TestCostModel:
    def test_defaults(self):
        model = cost_table({})
        assert model == DEFAULT_COSTS and model is not DEFAULT_COSTS
        assert model[OpKind.ADD] == 1
        assert model[OpKind.SUB] == 1
        assert model[OpKind.MUL] == 3
        for kind in (OpKind.DIVS, OpKind.DIVU, OpKind.MODS, OpKind.MODU,
                     OpKind.REMS, OpKind.REMU):
            assert model[kind] == 35

    def test_overrides_by_name(self):
        model = cost_table({"mul": 5, "DIVS": 40})
        assert model[OpKind.MUL] == 5
        assert model[OpKind.DIVS] == 40
        assert model[OpKind.ADD] == 1   # untouched default
        assert DEFAULT_COSTS[OpKind.MUL] == 3

    @pytest.mark.parametrize("overrides", [
        {"shift": 2},
        {"mul": 0},
        {"mul": -3},
        {"mul": 2.5},
        {"mul": True},
    ])
    def test_rejects_bad_overrides(self, overrides):
        with pytest.raises(CigenError):
            cost_table(overrides)


class TestCycleCounts:
    def test_worked_example(self, mac_spec, mac_mapped):
        assert ci_cycles(mac_mapped) == 4
        assert sw_cycles(mac_spec) == 4   # one multiply plus one add

    def test_identity_floors_at_one_instruction(self):
        spec, mapped = _mapped("input a: signed<8>; output x: signed<8>; x = a;")
        assert ci_cycles(mapped) == 2
        assert sw_cycles(spec) == 1

    def test_divide_dominates_software_cost(self):
        spec, _ = _mapped("input a: signed<8>; input b: signed<8>;"
                          "output x: signed<8>; x = (a / b) + a;")
        assert sw_cycles(spec) == 36

    def test_custom_costs_change_the_baseline(self, mac_spec):
        model = cost_table({"mul": 10})
        assert sw_cycles(mac_spec, model) == 11


class TestEnergy:
    def test_milliwatts_times_milliseconds(self):
        assert energy_microjoules(298, 10) == 2980.0

    def test_zero_is_fine(self):
        assert energy_microjoules(0, 5) == 0.0

    @pytest.mark.parametrize("p,t", [(-1, 5), (5, -1)])
    def test_negative_rejected(self, p, t):
        with pytest.raises(CigenError):
            energy_microjoules(p, t)

    @pytest.mark.parametrize("p,t", [(1e308, 1e308), (1e308, 1e10),
                                     (float("inf"), 0)])
    def test_beyond_a_float_rejected(self, p, t):
        with pytest.raises(CigenError, match="too large to report"):
            energy_microjoules(p, t)


class TestReport:
    def test_speedup_beyond_a_float_is_refused(self, mac_spec, mac_mapped):
        costs = cost_table({"add": 10**400})
        with pytest.raises(CigenError, match="too large to report"):
            estimate_metrics(mac_spec, mac_mapped, costs)

    def test_energy_beyond_a_float_is_refused(self, mac_spec, mac_mapped):
        with pytest.raises(CigenError, match="too large to report"):
            estimate_metrics(mac_spec, mac_mapped, power_mw=1e308, time_ms=1e10)

    def test_worked_example_dict(self, mac_spec, mac_mapped):
        report = estimate_metrics(mac_spec, mac_mapped)
        assert report == {
            "name": "f", "opcode": 0, "operands": 3, "operations": 2,
            "levels": 2, "load_cycles": 2, "done_cycle": 3,
            "ci_cycles": 4, "sw_cycles": 4, "speedup_estimate": 1.0,
            "components": {"MULT": 1, "ADD_SUB": 1}, "adapters": 0,
        }

    def test_matches_golden(self, mac_spec, mac_mapped):
        golden = json.loads((GOLDEN_DIR / "report.json").read_text())
        report = estimate_metrics(mac_spec, mac_mapped)
        assert json.dumps(report, indent=2) + "\n" == \
            (GOLDEN_DIR / "report.json").read_text()
        assert report == golden

    def test_energy_block_only_when_both_figures_given(self, mac_spec,
                                                       mac_mapped):
        plain = estimate_metrics(mac_spec, mac_mapped)
        assert "energy" not in plain
        for kwargs in ({"power_mw": 298}, {"time_ms": 10}):
            assert "energy" not in estimate_metrics(mac_spec, mac_mapped,
                                                    **kwargs)
        full = estimate_metrics(mac_spec, mac_mapped, power_mw=298,
                                time_ms=10)
        assert full["energy"] == {"P": 298.0, "T": 10.0, "E": 2980.0}
        assert list(full)[-1] == "energy"

    def test_negative_zero_figures_are_zero(self, mac_spec, mac_mapped):
        for power, time in ((-0.0, 10), (298, -0.0), (-0.0, -0.0)):
            energy = estimate_metrics(mac_spec, mac_mapped, power_mw=power,
                                      time_ms=time)["energy"]
            assert [str(value) for value in energy.values()] == \
                [str(float(abs(power))), str(float(abs(time))), "0.0"]

    def test_adapters_count_as_components(self, narrow_spec, narrow_mapped):
        report = estimate_metrics(narrow_spec, narrow_mapped)
        assert report["adapters"] == sum(
            a is not None for i in narrow_mapped.instances for a in i.adapters) > 0
        assert report["components"]["CONCAT_EXTEND"] == report["adapters"]

    def test_schema_accepts_worked_example(self, mac_spec, mac_mapped):
        report = estimate_metrics(mac_spec, mac_mapped, power_mw=298,
                                  time_ms=10)
        jsonschema.validate(report, REPORT_SCHEMA)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("speedup_estimate"),
        lambda d: d.update(extra=1),
        lambda d: d.update(energy={"P": 1.0, "T": 2.0}),
        lambda d: d.update(opcode=-1),
        lambda d: d.update(ci_cycles=1),
    ])
    def test_schema_rejects_malformed(self, mac_spec, mac_mapped, mutate):
        report = estimate_metrics(mac_spec, mac_mapped)
        mutate(report)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, REPORT_SCHEMA)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_fuzzed_reports_validate_and_add_up(self, seed):
        rng = random.Random(seed)
        spec = random_spec(rng, "p", FuzzConfig(max_inputs=6, max_depth=4))
        mapped = map_design(spec)
        report = estimate_metrics(spec, mapped)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["ci_cycles"] == report["done_cycle"] + 1
        assert report["speedup_estimate"] == \
            report["sw_cycles"] / report["ci_cycles"]
        assert report["sw_cycles"] >= max(
            1, sum(1 for _ in mapped.instances))
        op_instances = sum(count for name, count
                           in report["components"].items()
                           if name != "CONCAT_EXTEND")
        assert op_instances == report["operations"]
        assert report["components"].get("CONCAT_EXTEND", 0) == \
            report["adapters"]
        assert json.loads(json.dumps(report)) == report

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_sw_cycles_equals_sum_of_costs(self, seed):
        rng = random.Random(seed)
        spec = random_spec(rng, "p", FuzzConfig(max_inputs=5, max_depth=3))
        mapped = map_design(spec)
        total = sum(DEFAULT_COSTS[spec.dfg.nodes[inst.node].kind]
                    for inst in mapped.instances)
        assert sw_cycles(spec) == max(1, total)
