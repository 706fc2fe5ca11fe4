"""Top-level acceptance checks for the whole toolchain.

Each class exercises one external guarantee end to end: the worked example,
differential equivalence against the reference evaluator, signed division
semantics, component deduplication, the latency formula, byte-determinism
of builds, C source patching, and the energy estimate.
"""

import hashlib
import importlib
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    CORPUS_CONFIG,
    CORPUS_SEED,
    CORPUS_VECTORS,
    GOLDEN_DIR,
    MAC_TEXT,
    MOD_TEXT,
    NARROW_TEXT,
    declared_components,
    mod_corrected,
    rows,
    run_component,
    wrapped,
)
from cigen import cli
from cigen.cpatch import (
    DEFAULT_INTRINSIC,
    emit_header,
    find_call_sites,
    lex_c,
    rewrite,
)
from cigen.errors import DivideByZero, NoMatchFound
from cigen.frontend import OpKind, parse_ci_spec
from cigen.fuzz import FuzzConfig, random_spec, random_vectors
from cigen.hdl import ENTITY_PORTS, build_design, emit_vhdl, validate_structure
from cigen.lpm import ConcatExtendGenerics, DivideGenerics, Representation
from cigen.mapper import map_design
from cigen.metrics import estimate_metrics
from cigen.sim import Stimulus, check_equivalence, simulate_ci

ROOT = Path(__file__).resolve().parent.parent


class TestWorkedExample:
    def test_spec_to_entity_in_under_a_second(self):
        begin = time.perf_counter()
        spec = parse_ci_spec(MAC_TEXT)
        mapped = map_design(spec)
        kinds = [mapped.dfg.nodes[i].kind
                 for i in mapped.analysis.operation_sequence]
        assert kinds == [OpKind.MUL, OpKind.ADD]
        assert mapped.analysis.operand_sequence == ("a", "b", "c")

        design = build_design(spec, mapped)
        assert design.name == "f"
        ports = [(p.name, p.direction, p.width) for p in ENTITY_PORTS]
        assert ports == [
            ("clk", "in", 1), ("clk_en", "in", 1), ("reset", "in", 1),
            ("start", "in", 1), ("dataa", "in", 32), ("datab", "in", 32),
            ("done", "out", 1), ("result", "out", 32),
        ]
        assert time.perf_counter() - begin < 1.0


class TestDifferentialEquivalence:
    def test_five_hundred_specs_against_the_reference(self):
        begin = time.perf_counter()
        rng = random.Random(CORPUS_SEED)
        kinds_seen = set()
        for index in range(500):
            spec = random_spec(rng, f"fz{index}", CORPUS_CONFIG)
            mapped = map_design(spec)
            for node_id in mapped.analysis.operation_sequence:
                kinds_seen.add(mapped.dfg.nodes[node_id].kind)
            vectors = random_vectors(rng, spec, CORPUS_VECTORS)
            assert check_equivalence(spec, mapped, vectors,
                                     build_design(spec, mapped)) == []
        assert kinds_seen == set(OpKind)
        assert time.perf_counter() - begin < 60.0


class TestSignedDivisionSemantics:
    def test_exhaustive_eight_bit_sweep(self):
        generics = DivideGenerics(8, 8, Representation.SIGNED,
                                  Representation.SIGNED)
        wraps = 0
        for n in range(-128, 128):
            nv = wrapped(n, 8)
            for d in range(-128, 128):
                if d == 0:
                    continue
                dv = wrapped(d, 8)
                quotient, remainder = run_component(generics, nv, dv)
                q, r = quotient.signed, remainder.signed
                m = mod_corrected(remainder, dv).signed

                assert r == 0 or (r < 0) == (n < 0)
                assert abs(r) < abs(d)
                assert m == 0 or (m < 0) == (d < 0)
                assert abs(m) < abs(d)
                assert m == n % d   # floored modulus, divisor's sign
                assert (q * d + r - n) % 256 == 0
                if q * d + r != n:
                    wraps += 1
                    assert (n, d) == (-128, -1)
                    assert q == -128   # exact quotient 128 wraps mod 2^8
        assert wraps == 1


class TestComponentDeduplication:
    def test_hundred_specs_declare_each_kind_once(self):
        rng = random.Random(41)
        for index in range(100):
            spec = random_spec(rng, f"dd{index}",
                               FuzzConfig(max_inputs=6, max_depth=4))
            mapped = map_design(spec)
            design = build_design(spec, mapped)
            assert validate_structure(design) == []

            decl_names = declared_components(emit_vhdl(design))
            assert len(decl_names) == len(set(decl_names))
            kinds = {type(i.generics) for i in mapped.instances}
            adapters = [a for i in mapped.instances for a in i.adapters
                        if a is not None]
            if adapters:
                kinds.add(ConcatExtendGenerics)
            expected = {k.component.decl.name for k in kinds}
            assert set(decl_names) == expected

            by_component = {}
            for inst in design.architecture.instances:
                component = inst.generics.component.decl.name
                by_component[component] = by_component.get(component, 0) + 1
            op_instances = sum(count for name, count in by_component.items()
                               if name != "ci_concat_extend")
            assert op_instances == len(mapped.analysis.operation_sequence)
            assert by_component.get("ci_concat_extend", 0) == \
                len(adapters)


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
            for vec in rows(random_vectors(rng, spec, 20)):
                try:
                    plain = simulate_ci(spec, vec, record=False)
                except DivideByZero:
                    continue
                break
            if plain is None:
                continue
            tested += 1
            assert plain.done_cycle_enabled == expected

            for _ in range(10):
                gaps = frozenset(rng.sample(range(40), rng.randint(0, 10)))
                gated = simulate_ci(spec, vec, Stimulus(clk_en_low=gaps),
                                    record=False)
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


# The .vhd, header and report.json text of g, h and the first 100 specs of
# the acceptance corpus, as build writes them.
ARTIFACTS_SHA256 = \
    "e4a090edeacc800be72c1294c4b88116be01c6bb7168ab3876b08d062af71615"


class TestPinnedArtifacts:
    """Every artifact text of designs with adapters, dividers and mixed
    signedness is pinned, so a renumbered adapter or a reordered instance
    shows in any of them, not only in the three goldens."""

    def test_build_artifacts_hash_to_the_recorded_digest(self):
        specs = [parse_ci_spec(NARROW_TEXT), parse_ci_spec(MOD_TEXT)]
        rng = random.Random(CORPUS_SEED)
        for index in range(100):
            specs.append(random_spec(rng, f"fz{index}", CORPUS_CONFIG))
            random_vectors(rng, specs[-1], CORPUS_VECTORS)
        digest = hashlib.sha256()
        for spec in specs:
            mapped = map_design(spec)
            for text in (emit_vhdl(build_design(spec, mapped)),
                         emit_header(spec, mapped, DEFAULT_INTRINSIC),
                         json.dumps(estimate_metrics(spec, mapped), indent=2) + "\n"):
                digest.update(text.encode() + b"\0")
        assert digest.hexdigest() == ARTIFACTS_SHA256


# The .vhd text of the benchmark's five wide-build designs, the longest
# with a 1439-step control chain.
WIDE_VHDL_SHA256 = \
    "5188e7c3cd09f245a7733f9240e14f58127a7dab02a85a57fdca05885bba06f9"


class TestPinnedWideDesigns:
    """The wide designs' VHDL is pinned too: their long control chains are
    where each step's printed successor shows a change of succession."""

    def test_wide_vhdl_hashes_to_the_recorded_digest(self, monkeypatch,
                                                     tmp_path):
        # the benchmark's generators, imported as bench/run.py imports them
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        workloads = importlib.import_module("workloads")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + 2000)
        try:
            ops = workloads.wide_build(tmp_path, 1)
        finally:
            sys.setrecursionlimit(limit)
        digest = hashlib.sha256()
        for op in ops:
            spec = parse_ci_spec(Path(op.argv[1]).read_text())
            digest.update(emit_vhdl(build_design(spec, map_design(spec)))
                          .encode() + b"\0")
        assert len(ops) == 5
        assert digest.hexdigest() == WIDE_VHDL_SHA256


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
            sites = find_call_sites(lex_c(source), spec)
            if live:
                assert [source[s.start:s.end] for s in sites] == \
                    ["(a * b) + c"]
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


class TestPaper3d:
    """The paper's 3D sample application: one row of an affine point
    transform, r = m0*px + m1*py + m2*pz + tt, as a spec and a C loop that
    loads the row's operands into locals (tests/golden/t3d.ci and t3d.c).
    Each command runs once on them and its figures are pinned."""

    @pytest.fixture
    def paths(self, tmp_path):
        for name in ("t3d.ci", "t3d.c"):
            (tmp_path / name).write_text((GOLDEN_DIR / name).read_text())
        return tmp_path / "t3d.ci", tmp_path / "t3d.c"

    def test_build(self, paths, tmp_path, capsys):
        spec, _ = paths
        assert cli.main(["build", str(spec), "-o", str(tmp_path / "out")]) == 0
        stdout = capsys.readouterr().out
        assert "6 operations, 4 levels, done cycle 7" in stdout
        assert "t3d.vhd (208 lines), structure clean" in stdout
        vhdl = (tmp_path / "out" / "t3d.vhd").read_text()
        assert vhdl.count("\n") == 208

    def test_report(self, paths, capsys):
        spec, _ = paths
        assert cli.main(["report", str(spec)]) == 0
        human = capsys.readouterr().out
        assert "latency:     8 cycles (software 12)" in human
        assert "speedup:     1.500x" in human
        assert cli.main(["report", str(spec), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["operations"], report["levels"], report["done_cycle"],
                report["ci_cycles"], report["sw_cycles"]) == (6, 4, 7, 8, 12)
        assert report["components"] == {"MULT": 3, "ADD_SUB": 3}

    def test_patch_rewrites_the_one_site(self, paths, tmp_path, capsys):
        spec, source = paths
        assert cli.main(["patch", str(spec), str(source)]) == 0
        call = "CI_T3D(m0, px, m1, py, m2, pz, tt)"
        assert f"patched 1 call site(s) with {call}" in capsys.readouterr().out
        original = source.read_text()
        assert (tmp_path / "t3d.ci.c").read_text() == original.replace(
            "#include <stdint.h>\n", '#include <stdint.h>\n#include "ci_t3d.h"\n'
        ).replace("m0*px + m1*py + m2*pz + tt", call)

    def test_indexed_operands_are_not_a_site(self, paths, capsys):
        spec, source = paths
        source.write_text(source.read_text().replace(
            "m0*px + m1*py + m2*pz + tt",
            "m[0][0] * p[i].x + m[0][1] * p[i].y + m[0][2] * p[i].z + t[0]"))
        assert cli.main(["patch", str(spec), str(source)]) == 1
        assert "no occurrence of the t3d expression found" in \
            capsys.readouterr().err
