"""Top-level acceptance checks for the whole toolchain.

Each class exercises one external guarantee end to end: the worked example,
differential equivalence against the reference evaluator, signed division
semantics, component deduplication, the latency formula, byte-determinism
of builds, C source patching, and the energy estimate.
"""

import hashlib
import json
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    GOLDEN_DIR,
    MAC_TEXT,
    MOD_TEXT,
    NARROW_TEXT,
    declared_components,
    load_kinds,
    mod_corrected,
    rows,
    run_component,
    unread_registers,
    corpus,
    wide_specs,
    wrapped,
)
from cigen import cli
from cigen import vhdl_ast as ast
from cigen.cpatch import (
    DEFAULT_INTRINSIC,
    emit_header,
    find_call_sites,
    lex_c,
    rewrite,
)
from cigen.errors import CigenError, DivideByZero
from cigen.frontend import OpKind, parse_ci_spec
from cigen.fuzz import FuzzConfig, random_spec, random_vectors
from cigen.hdl import ENTITY_PORTS, build_design, emit_vhdl, validate_structure
from cigen.lpm import ConcatExtendGenerics, DivideGenerics, Representation
from cigen.mapper import map_design
from cigen.metrics import DEFAULT_COSTS, estimate_metrics
from cigen.sim import Stimulus, check_equivalence, simulate_ci


class TestWorkedExample:
    def test_spec_to_entity_in_under_a_second(self):
        begin = time.perf_counter()
        spec = parse_ci_spec(MAC_TEXT)
        mapped = map_design(spec)
        kinds = [spec.dfg.nodes[inst.node].kind for inst in mapped.instances]
        assert kinds == [OpKind.MUL, OpKind.ADD]
        assert tuple(leaf.decl.name for leaf in spec.dfg.leaves) == ("a", "b", "c")

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
        kinds_seen = set()
        for spec, vectors in corpus():
            mapped = map_design(spec)
            for node_id in spec.dfg.order:
                kinds_seen.add(spec.dfg.nodes[node_id].kind)
            design = build_design(spec, mapped)
            assert unread_registers(design) == set()
            assert check_equivalence(spec, mapped, vectors, design) == []
        assert kinds_seen == set(DEFAULT_COSTS)
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
            validate_structure(design)   # raises on a violation

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
            assert op_instances == len(spec.dfg.order)
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
            k = len(spec.dfg.leaves)
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


# The .vhd text, then the header and report.json text, of g, h and the
# first 100 specs of the acceptance corpus, as build writes them: two
# digests, so a change of the design alone moves only the first.
ARTIFACTS_VHDL_SHA256 = \
    "0d6eeeaf242e3db6249a5c3417948e0acd72b671c8381b0536cb7227b7b145c6"
ARTIFACTS_HEADER_REPORT_SHA256 = \
    "b7c33921fa729203f0e8643a7c25ab30c499fb15605b3a3c539705b6fb9b2fe2"


class TestPinnedArtifacts:
    """Every artifact text of designs with adapters, dividers and mixed
    signedness is pinned, so a renumbered adapter or a reordered instance
    shows in any of them, not only in the three goldens."""

    def test_build_artifacts_hash_to_the_recorded_digest(self):
        specs = [parse_ci_spec(NARROW_TEXT), parse_ci_spec(MOD_TEXT),
                 *(spec for spec, _ in corpus()[:100])]
        vhdl, rest = hashlib.sha256(), hashlib.sha256()
        for spec in specs:
            mapped = map_design(spec)
            vhdl.update(emit_vhdl(build_design(spec, mapped)).encode() + b"\0")
            for text in (emit_header(spec, mapped, DEFAULT_INTRINSIC),
                         json.dumps(estimate_metrics(spec, mapped), indent=2) + "\n"):
                rest.update(text.encode() + b"\0")
        assert (vhdl.hexdigest(), rest.hexdigest()) == \
            (ARTIFACTS_VHDL_SHA256, ARTIFACTS_HEADER_REPORT_SHA256)


# The .vhd text of the benchmark's five wide-build designs, the longest
# with a 1439-step control chain.
WIDE_VHDL_SHA256 = \
    "f8b61be9f5c122bb26083d12a4aec01ffe6c20c1204269c5d7a9f6e8ead3eb90"


class TestPinnedWideDesigns:
    """The wide designs' VHDL is pinned too: their long control chains are
    where each step's printed successor shows a change of succession.
    Each declares no register that nothing reads, and loads only a Ref or
    a Slice of a signal."""

    def test_wide_vhdl_hashes_to_the_recorded_digest(self):
        digest = hashlib.sha256()
        for spec in wide_specs():
            design = build_design(spec, map_design(spec))
            assert unread_registers(design) == set()
            assert load_kinds(design) <= {ast.Ref, ast.Slice}
            digest.update(emit_vhdl(design).encode() + b"\0")
        assert len(wide_specs()) == 5
        assert digest.hexdigest() == WIDE_VHDL_SHA256


def _wide_spec(name: str, decls: list[str], body: str) -> str:
    return "\n".join([f"ci {name}(opcode=2) {{", *decls,
                      "  output y: signed<32>;", f"  y = {body};", "}"]) + "\n"


def _wide_decl(name: str, rng: random.Random, widths: tuple[int, ...]) -> str:
    return f"  input {name}: {rng.choice(('signed', 'unsigned'))}<{rng.choice(widths)}>;"


def _wide_texts(rng: random.Random) -> dict[str, str]:
    """A 128-tap sum of products as a chain and as a balanced tree, and a
    960-term add chain, over inputs of drawn widths and signedness."""
    texts = {}
    for shape in ("chain", "tree"):
        decls = [_wide_decl(f"{v}{i}", rng, (8, 12, 16))
                 for i in range(128) for v in "xh"]
        terms = [f"(x{i} * h{i})" for i in range(128)]
        while shape == "tree" and len(terms) > 1:   # 128 terms: 7 levels
            terms = [f"({a} + {b})" for a, b in zip(terms[::2], terms[1::2])]
        texts[f"sop_{shape}"] = _wide_spec(f"sop_{shape}", decls, " + ".join(terms))
    decls = [_wide_decl(f"a{i}", rng, (8, 16, 32)) for i in range(960)]
    texts["add_chain"] = _wide_spec("add_chain", decls,
                                    " + ".join(f"a{i}" for i in range(960)))
    return texts


# The sha256 of each wide design's VHDL, header and report.json and of
# its check line, as build writes them at seed 3 with 4 vectors.
WIDE_BUILD_SHA256 = {
    "sop_chain": [
        "66845682bc4375578fe1e44458626849c7333046f947d4fa5d34ce3ebb558344",
        "ab88649dc7d2a5c97aa03bf202e7ba1e9e73fec50f4bbcd775d2ef25e52832f1",
        "231392eac09a7f0f71e5dceed8c6ad7dc653d49b413b67c2af916e958ee80fd0",
        "62dded042a0866cf486d44a858a148300cdf12d8de72838841a7450a3e800486",
    ],
    "sop_tree": [
        "9efcf75b20adff7c986392d8a7dbf8339818b2a363d91a59a947b440ec4fb45d",
        "3831cff0a48d6bd127592e3442045ea2c241e026d15e63af30bd45bd90634da1",
        "438657ea58ac7e58ca548a3ed013e2b02a3403234baf66fa712fd817b926d8f1",
        "62dded042a0866cf486d44a858a148300cdf12d8de72838841a7450a3e800486",
    ],
    "add_chain": [
        "9e06d3a8b87a66d140b89b2ca73df17c03dfb5ffd9d7ba86502f19a18a38637b",
        "00d9e154e2ab2adc0ca1685678f49ea5c259106c470b90e89cf871ca11279c13",
        "bb01a715817db5ccfc824220c5ff72b99d31eac6c4bc7cb94067931e88ae4421",
        "62dded042a0866cf486d44a858a148300cdf12d8de72838841a7450a3e800486",
    ],
}


class TestPinnedWideBuilds:
    """Three wide designs, drawn here, pin every artifact build writes and
    the check line it prints: each stage's work per node shows in them."""

    def test_wide_builds_hash_to_the_recorded_digests(self, tmp_path, capsys):
        digests = {}
        for name, text in _wide_texts(random.Random(2013)).items():
            spec = tmp_path / f"{name}.ci"
            spec.write_text(text)
            out = tmp_path / name
            assert cli.main(["build", str(spec), "-o", str(out),
                             "--vectors", "4", "--seed", "3"]) == 0
            check = next(line for line in capsys.readouterr().out.splitlines()
                         if line.startswith("[4/5] check:"))
            digests[name] = [hashlib.sha256(data).hexdigest() for data in (
                (out / f"{name}.vhd").read_bytes(),
                (out / f"ci_{name}.h").read_bytes(),
                (out / "report.json").read_bytes(), check.encode())]
        assert digests == WIDE_BUILD_SHA256


class TestSourcePatching:
    def test_golden_rewrite_is_idempotent(self):
        spec = parse_ci_spec(MAC_TEXT)
        source = (GOLDEN_DIR / "fixture.c").read_text()
        plan = rewrite(source, spec)
        assert plan.output == (GOLDEN_DIR / "fixture_patched.c").read_text()
        assert plan.output.count('#include "ci_f.h"') == 1
        with pytest.raises(CigenError, match="^no occurrence of the f expression found$"):
            rewrite(plan.output, spec)

    def test_strings_comments_directives_never_match(self):
        spec = parse_ci_spec(MAC_TEXT)
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
                plan = rewrite(source, spec)
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
        assert "t3d.vhd (205 lines), structure clean" in stdout
        vhdl = (tmp_path / "out" / "t3d.vhd").read_text()
        assert vhdl.count("\n") == 205
        t3d = parse_ci_spec(spec.read_text())
        assert unread_registers(build_design(t3d, map_design(t3d))) == set()

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
