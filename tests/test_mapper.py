"""Component selection, width inference, loading and latency planning."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import wrapped
from cigen.frontend import OpKind, analyze, op_result_width, parse_ci_spec
from cigen.fuzz import FuzzConfig, random_spec
from cigen.lpm import (
    AddSubGenerics,
    Direction,
    Extension,
    MultGenerics,
    Representation,
)
from cigen.frontend import OperandDecl
from cigen.mapper import done_cycle_enabled, map_design
from cigen.sim import adapt_root


def _mapped(body: str, name: str = "t"):
    return map_design(parse_ci_spec(f"ci {name}(opcode=0) {{ {body} }}"))


def _only_instance(mapped):
    assert len(mapped.instances) == 1
    return mapped.instances[0]


class TestWidthRules:
    @pytest.mark.parametrize("kind,wl,wr,expect", [
        (OpKind.ADD, 8, 16, 16),
        (OpKind.SUB, 32, 4, 32),
        (OpKind.MUL, 8, 8, 16),
        (OpKind.MUL, 24, 24, 32),
        (OpKind.MUL, 32, 32, 32),
        (OpKind.DIVS, 16, 8, 16),
        (OpKind.DIVU, 8, 16, 8),
        (OpKind.REMS, 16, 8, 8),
        (OpKind.MODU, 8, 16, 16),
    ])
    def test_op_result_width(self, kind, wl, wr, expect):
        assert op_result_width(kind, wl, wr) == expect

    def test_infer_widths_bottom_up(self):
        spec = parse_ci_spec(
            "ci t(opcode=0) { input a: signed<8>; input b: signed<8>;"
            "input c: signed<4>; output x: signed<32>;"
            "x = (a * b) + c; }")
        dfg = spec.dfg
        widths = {i: dfg.width[i] for i in dfg.order}
        # mul at 16, add at max(16, 4) = 16
        assert sorted(widths.values()) == [16, 16]


class TestWorkedExample:
    def test_generics(self, mac_mapped):
        kinds = {type(inst.generics) for inst in mac_mapped.instances}
        assert kinds == {MultGenerics, AddSubGenerics}
        mul = next(i for i in mac_mapped.instances
                   if type(i.generics) is MultGenerics)
        add = next(i for i in mac_mapped.instances
                   if type(i.generics) is AddSubGenerics)
        assert (mul.generics.width_a, mul.generics.width_b,
                mul.generics.width_p) == (32, 32, 32)
        assert mul.generics.representation == Representation.SIGNED
        assert add.generics.width == 32
        assert add.generics.direction == Direction.ADD
        assert [i.adapters for i in mac_mapped.instances] == [(None, None)] * 2

    def test_loading_and_latency(self, mac_mapped):
        assert mac_mapped.loading == (("a", "b"), ("c", None))
        assert len(mac_mapped.loading) == 2
        assert done_cycle_enabled(mac_mapped) == 3


class TestAdapters:
    def test_add_widens_narrow_side(self):
        mapped = _mapped("input a: signed<8>; input b: signed<16>;"
                         "output x: signed<16>; x = a + b;")
        adapter, right = _only_instance(mapped).adapters
        assert right is None
        assert (adapter.from_width, adapter.to_width) == (8, 16)
        assert adapter.extension == Extension.SIGN
        assert _only_instance(mapped).generics.width == 16

    def test_add_zero_extends_unsigned_narrow_side(self):
        mapped = _mapped("input a: unsigned<4>; input b: signed<12>;"
                         "output x: signed<12>; x = b - a;")
        left, adapter = _only_instance(mapped).adapters
        assert left is None
        assert adapter.extension == Extension.ZERO
        assert (adapter.from_width, adapter.to_width) == (4, 12)

    def test_mult_same_sign_needs_no_adapter(self):
        mapped = _mapped("input a: unsigned<8>; input b: unsigned<4>;"
                         "output x: unsigned<12>; x = a * b;")
        assert _only_instance(mapped).adapters == (None, None)
        gen = _only_instance(mapped).generics
        assert (gen.width_a, gen.width_b, gen.width_p) == (8, 4, 12)
        assert gen.representation == Representation.UNSIGNED

    def test_mult_mixed_zero_extends_unsigned_side(self):
        mapped = _mapped("input a: signed<4>; input b: unsigned<4>;"
                         "output x: signed<8>; x = a * b;")
        left, adapter = _only_instance(mapped).adapters
        assert left is None
        assert (adapter.from_width, adapter.to_width) == (4, 5)
        assert adapter.extension == Extension.ZERO
        gen = _only_instance(mapped).generics
        assert (gen.width_a, gen.width_b, gen.width_p) == (4, 5, 9)
        assert gen.representation == Representation.SIGNED

    def test_mult_mixed_with_full_width_signed_side_goes_raw(self):
        # Zero-extending past 32 is impossible; raw patterns multiplied
        # unsigned are exact modulo 2^32, which is all that survives.
        mapped = _mapped("input a: signed<32>; input b: unsigned<8>;"
                         "output x: signed<32>; x = a * b;")
        assert _only_instance(mapped).adapters == (None, None)
        gen = _only_instance(mapped).generics
        assert gen.representation == Representation.UNSIGNED
        assert (gen.width_a, gen.width_b, gen.width_p) == (32, 8, 32)

    def test_mult_product_width_capped(self):
        mapped = _mapped("input a: signed<24>; input b: signed<24>;"
                         "output x: signed<32>; x = a * b;")
        gen = _only_instance(mapped).generics
        assert gen.width_p == 32

    def test_divide_mixed_zero_extends_unsigned_side(self):
        mapped = _mapped("input a: unsigned<8>; input b: signed<8>;"
                         "output x: signed<8>; x = a / b;")
        adapter, right = _only_instance(mapped).adapters
        assert right is None
        assert (adapter.from_width, adapter.to_width) == (8, 9)
        assert adapter.extension == Extension.ZERO
        gen = _only_instance(mapped).generics
        assert (gen.width_n, gen.width_d) == (9, 8)
        assert gen.n_representation == Representation.SIGNED
        assert gen.d_representation == Representation.SIGNED


class TestLoadingPlan:
    @pytest.mark.parametrize("names,cycles", [
        (("a",), (("a", None),)),
        (("a", "b"), (("a", "b"),)),
        (("a", "b", "c"), (("a", "b"), ("c", None))),
        (("a", "b", "c", "d", "e"),
         (("a", "b"), ("c", "d"), ("e", None))),
    ])
    def test_pairs(self, names, cycles):
        decls = "".join(f"input {n}: signed<8>;" for n in names)
        expr = " + ".join(names)
        mapped = _mapped(f"{decls} output x: signed<8>; x = {expr};")
        assert mapped.loading == cycles

    def test_only_used_operands_load(self):
        mapped = _mapped("input a: signed<8>; input unused: signed<8>;"
                         "output x: signed<8>; x = a;")
        assert mapped.loading == (("a", None),)


class TestLatencyFormula:
    @pytest.mark.parametrize("body,loads,levels,done", [
        ("input a: signed<8>; output x: signed<8>; x = a;", 1, 0, 1),
        ("input a: signed<8>; output x: signed<16>; x = a * a;", 1, 1, 1),
        ("input a: signed<8>; input b: signed<8>;"
         "output x: signed<8>; x = a + b;", 1, 1, 1),
        ("input a: signed<8>; input b: signed<8>; input c: signed<8>;"
         "output x: signed<8>; x = (a + b) + c;", 2, 2, 3),
        ("input a: signed<8>; input b: signed<8>; input c: signed<8>;"
         "input d: signed<8>; output x: signed<8>;"
         "x = ((a + b) + c) + d;", 2, 3, 4),
        ("input a: signed<8>; input b: signed<8>; input c: signed<8>;"
         "input d: signed<8>; output x: signed<8>;"
         "x = (a + b) + (c + d);", 2, 2, 3),
    ])
    def test_done_cycle(self, body, loads, levels, done):
        mapped = _mapped(body)
        assert len(mapped.loading) == loads
        assert mapped.analysis.max_level == levels
        assert done_cycle_enabled(mapped) == done


class TestAdaptRoot:
    """The root-to-port rule, which the reference oracle applies as a
    column step: the root arrives as its value read with the root's
    signedness."""

    @pytest.mark.parametrize(
        "value,width,root_signed,out_signed,out_width,expect", [
            # same width: only the final 32-bit extension applies
            (-1, 8, True, True, 8, 0xFFFFFFFF),
            (0xFF, 8, False, False, 8, 0x000000FF),
            # narrowing keeps low bits
            (-1, 16, True, True, 8, 0xFFFFFFFF),
            (0x1FF, 16, False, False, 8, 0x000000FF),
            (0x180, 16, False, True, 8, 0xFFFFFF80),
            # widening follows the root signedness...
            (-1, 8, True, False, 16, 0x0000FFFF),
            (0xFF, 8, False, True, 16, 0x000000FF),
            # ...then the port extension follows the output signedness
            (-2, 8, True, True, 16, 0xFFFFFFFE),
            (32, 8, True, True, 32, 0x00000020),
        ])
    def test_matrix(self, value, width, root_signed, out_signed, out_width,
                    expect):
        out_decl = OperandDecl("x", out_signed, out_width)
        pattern = wrapped(value, width)
        root = pattern.signed if root_signed else pattern.unsigned
        [got] = adapt_root([root], out_decl)
        assert 0 <= got < 1 << 32
        assert got == expect


class TestMappedInvariants:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_fuzzed_designs_are_coherent(self, seed):
        spec = random_spec(random.Random(seed), "p",
                           FuzzConfig(max_inputs=6, max_depth=4))
        mapped = map_design(spec)
        dfg = mapped.dfg

        # one instance per op node, in execution order
        assert tuple(i.node for i in mapped.instances) \
            == mapped.analysis.operation_sequence

        for inst in mapped.instances:
            node = dfg.nodes[inst.node]
            # at most one adapter per input; adapters strictly widen
            for adapter, child in zip(inst.adapters, (node.left, node.right),
                                      strict=True):
                if adapter is not None:
                    assert adapter.to_width > adapter.from_width == dfg.width[child]
            width = dfg.width[inst.node]
            assert 1 <= width <= 32
            if type(inst.generics) is MultGenerics:
                gen = inst.generics
                assert gen.width_p == min(32, gen.width_a + gen.width_b)
                assert width <= gen.width_p

        # loading covers each used operand exactly once, two per cycle
        flat = [n for pair in mapped.loading for n in pair
                if n is not None]
        assert tuple(flat) == mapped.analysis.operand_sequence
        assert all(pair[0] is not None for pair in mapped.loading)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_latency_formula_from_analysis(self, seed):
        spec = random_spec(random.Random(seed), "p")
        mapped = map_design(spec)
        analysis = analyze(mapped.dfg)
        k = len(analysis.operand_sequence)
        expect = (k + 1) // 2 + max(analysis.max_level, 1) - 1
        assert done_cycle_enabled(mapped) == expect
