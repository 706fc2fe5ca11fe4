"""Top-level acceptance checks for the whole toolchain.

Each class exercises one external guarantee end to end: the worked example,
differential equivalence against the reference evaluator, signed division
semantics, component deduplication, the latency formula, byte-determinism
of builds, C source patching, and the energy estimate.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import MAC_TEXT, GOLDEN_DIR
from cigen import cli
from cigen.cpatch import find_call_sites, rewrite
from cigen.errors import DivideByZero, NoMatchFound
from cigen.frontend import OpKind, parse_ci_spec
from cigen.fuzz import FuzzConfig, random_spec, random_vectors
from cigen.hdl import build_design, validate_structure
from cigen.lpm import (
    COMPONENT_DECLS,
    BitVec,
    ComponentKind,
    DivideGenerics,
    Representation,
    divide_eval,
    mod_correct_eval,
)
from cigen.mapper import map_design
from cigen.sim import Stimulus, check_equivalence, simulate_ci


class TestWorkedExample:
    def test_spec_to_entity_in_under_a_second(self):
        begin = time.perf_counter()
        spec = parse_ci_spec(MAC_TEXT)
        mapped = map_design(spec)
        kinds = [mapped.dfg.node(i).kind
                 for i in mapped.analysis.operation_sequence]
        assert kinds == [OpKind.MUL, OpKind.ADD]
        assert mapped.analysis.operand_sequence == ("a", "b", "c")

        design = build_design(spec, mapped)
        ports = [(p.name, p.direction, p.width)
                 for p in design.entity.ports]
        assert ports == [
            ("clk", "in", 1), ("clk_en", "in", 1), ("reset", "in", 1),
            ("start", "in", 1), ("dataa", "in", 32), ("datab", "in", 32),
            ("done", "out", 1), ("result", "out", 32),
        ]
        assert time.perf_counter() - begin < 1.0


class TestDifferentialEquivalence:
    def test_five_hundred_specs_against_the_reference(self):
        begin = time.perf_counter()
        rng = random.Random(20260814)
        config = FuzzConfig(max_inputs=6, max_depth=6,
                            widths=(4, 8, 16, 32))
        kinds_seen = set()
        for index in range(500):
            spec = random_spec(rng, f"fz{index}", config)
            mapped = map_design(spec)
            for node_id in mapped.analysis.operation_sequence:
                kinds_seen.add(mapped.dfg.node(node_id).kind)
            vectors = random_vectors(rng, spec, 200)
            assert check_equivalence(spec, mapped, vectors) == []
        assert kinds_seen == set(OpKind)
        assert time.perf_counter() - begin < 60.0


class TestSignedDivisionSemantics:
    def test_exhaustive_eight_bit_sweep(self):
        generics = DivideGenerics(8, 8, Representation.SIGNED,
                                  Representation.SIGNED)
        wrapped = 0
        for n in range(-128, 128):
            nv = BitVec.from_int(n, 8)
            for d in range(-128, 128):
                if d == 0:
                    continue
                dv = BitVec.from_int(d, 8)
                quotient, remainder = divide_eval(nv, dv, generics)
                q, r = quotient.signed, remainder.signed
                m = mod_correct_eval(remainder, dv).signed

                assert r == 0 or (r < 0) == (n < 0)
                assert abs(r) < abs(d)
                assert m == 0 or (m < 0) == (d < 0)
                assert abs(m) < abs(d)
                assert m == n % d   # floored modulus, divisor's sign
                assert (q * d + r - n) % 256 == 0
                if q * d + r != n:
                    wrapped += 1
                    assert (n, d) == (-128, -1)
                    assert q == -128   # exact quotient 128 wraps mod 2^8
        assert wrapped == 1


class TestComponentDeduplication:
    def test_hundred_specs_declare_each_kind_once(self):
        rng = random.Random(41)
        for index in range(100):
            spec = random_spec(rng, f"dd{index}",
                               FuzzConfig(max_inputs=6, max_depth=4))
            mapped = map_design(spec)
            design = build_design(spec, mapped)
            assert validate_structure(design) == []

            decl_names = [c.name for c in design.architecture.components]
            assert len(decl_names) == len(set(decl_names))
            kinds = {i.kind for i in mapped.instances}
            if mapped.adapters:
                kinds.add(ComponentKind.CONCAT_EXTEND)
            expected = {COMPONENT_DECLS[k].name for k in kinds}
            assert set(decl_names) == expected

            by_component = {}
            for inst in design.architecture.instances:
                component = COMPONENT_DECLS[inst.kind].name
                by_component[component] = by_component.get(component, 0) + 1
            op_instances = sum(count for name, count in by_component.items()
                               if name != "ci_concat_extend")
            assert op_instances == len(mapped.analysis.operation_sequence)
            assert by_component.get("ci_concat_extend", 0) == \
                len(mapped.adapters)


class TestLatencyContract:
    def test_formula_holds_under_arbitrary_gating(self):
        rng = random.Random(97)
        tested = 0
        for index in range(25):
            spec = random_spec(rng, f"lt{index}",
                               FuzzConfig(max_inputs=6, max_depth=4))
            mapped = map_design(spec)
            k = len(mapped.analysis.operand_sequence)
            expected = math.ceil(k / 2) + max(mapped.analysis.max_level, 1) - 1

            plain = None
            for vec in random_vectors(rng, spec, 20):
                try:
                    plain = simulate_ci(spec, vec, mapped, record=False)
                except DivideByZero:
                    continue
                break
            if plain is None:
                continue
            tested += 1
            assert plain.done_cycle_enabled == expected

            for _ in range(10):
                gaps = frozenset(rng.sample(range(40), rng.randint(0, 10)))
                gated = simulate_ci(spec, vec, mapped,
                                    Stimulus(clk_en_low=gaps), record=False)
                assert gated.done_cycle_enabled == expected
                assert gated.result.bits == plain.result.bits
        assert tested >= 20


class TestBuildDeterminism:
    def test_two_builds_byte_identical_and_match_goldens(self, tmp_path,
                                                         capsys):
        spec_path = tmp_path / "f.ci"
        spec_path.write_text((GOLDEN_DIR / "f.ci").read_text())
        for name in ("first", "second"):
            assert cli.main(["build", str(spec_path), "-o",
                             str(tmp_path / name)]) == 0
        capsys.readouterr()
        for artifact in ("f.vhd", "ci_f.h", "report.json"):
            first = (tmp_path / "first" / artifact).read_bytes()
            assert first == (tmp_path / "second" / artifact).read_bytes()
        assert (tmp_path / "first" / "f.vhd").read_text() == \
            (GOLDEN_DIR / "f.vhd").read_text()
        assert (tmp_path / "first" / "ci_f.h").read_text() == \
            (GOLDEN_DIR / "ci_f.h").read_text()
        assert (tmp_path / "first" / "report.json").read_text() == \
            (GOLDEN_DIR / "report.json").read_text()


class TestSourcePatching:
    def test_golden_rewrite_is_idempotent(self):
        spec = parse_ci_spec(MAC_TEXT)
        mapped = map_design(spec)
        source = (GOLDEN_DIR / "fixture.c").read_text()
        plan = rewrite(source, spec, mapped)
        assert plan.output == (GOLDEN_DIR / "fixture_patched.c").read_text()
        assert plan.output.count('#include "ci_f.h"') == 1
        with pytest.raises(NoMatchFound):
            rewrite(plan.output, spec, mapped)

    def test_strings_comments_directives_never_match(self):
        spec = parse_ci_spec(MAC_TEXT)
        mapped = map_design(spec)
        rng = random.Random(5)
        shells = [
            'const char *s{i} = "{expr}";',
            '/* {expr} */',
            '// {expr}',
            '#define D{i} ({expr})',
            'const char *t{i} = "x = {expr};";',
        ]
        for round_index in range(30):
            decoys = [shells[rng.randrange(len(shells))]
                      .format(i=i, expr="(a * b) + c")
                      for i in range(rng.randint(1, 6))]
            body = ["int live(int a, int b, int c) {"]
            live = rng.random() < 0.5
            if live:
                body.append("  return (a * b) + c;")
            else:
                body.append("  return a - c;")
            body.append("}")
            source = "\n".join(decoys + body) + "\n"
            sites = find_call_sites(source, spec)
            if live:
                assert [s.text for s in sites] == ["(a * b) + c"]
                plan = rewrite(source, spec, mapped)
                assert plan.output.count("CI_F(a, b, c)") == 1
                for decoy in decoys:
                    assert decoy in plan.output
            else:
                assert sites == []


class TestEnergyEstimate:
    def test_power_times_time(self, tmp_path, capsys):
        spec_path = tmp_path / "f.ci"
        spec_path.write_text(MAC_TEXT)
        assert cli.main(["report", str(spec_path),
                         "--power", "298", "--time", "10"]) == 0
        human = capsys.readouterr().out
        assert "E = 2980.000 uJ (298.0 mW x 10.0 ms)" in human

        assert cli.main(["report", str(spec_path), "--json",
                         "--power", "298", "--time", "10"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["energy"] == {"P": 298.0, "T": 10.0, "E": 2980.0}
