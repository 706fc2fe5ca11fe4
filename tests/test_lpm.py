"""Arithmetic component semantics, checked against independent oracles.

The division oracles below are built from exact rational truncation and
Python's floor modulus, not from the library's own formulas, so agreement is
meaningful.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cigen.errors import DivideByZero, NotWidening, WidthMismatch
from cigen.lpm import (
    COMPONENT_DECLS,
    KERNELS,
    AddSubGenerics,
    BitVec,
    ComponentKind,
    ConcatExtendGenerics,
    Direction,
    DivideGenerics,
    Extension,
    MultGenerics,
    Representation,
    add_sub_eval,
    concat_extend_eval,
    divide_eval,
    mod_correct_eval,
    mod_correct,
    mult_eval,
    render_instance,
    resize,
)
from cigen.hdl import emit_instance


def trunc_quotient(n: int, d: int) -> int:
    """Round-toward-zero quotient via exact rationals."""
    return math.trunc(Fraction(n, d))


def sdiv8(n: int, d: int) -> tuple[BitVec, BitVec]:
    gen = DivideGenerics(8, 8, Representation.SIGNED, Representation.SIGNED)
    return divide_eval(BitVec.from_int(n, 8), BitVec.from_int(d, 8), gen)


class TestBitVec:
    @pytest.mark.parametrize("value,width,bits,signed", [
        (0, 1, 0, 0), (1, 1, 1, -1), (-1, 8, 0xFF, -1),
        (255, 8, 0xFF, -1), (127, 8, 0x7F, 127), (-128, 8, 0x80, -128),
        (256, 8, 0x00, 0), (2**32 - 1, 32, 2**32 - 1, -1),
    ])
    def test_from_int_wraps(self, value, width, bits, signed):
        v = BitVec.from_int(value, width)
        assert v.bits == bits
        assert v.signed == signed
        assert v.unsigned == bits
        assert v.interpret(True) == signed
        assert v.interpret(False) == bits

    @pytest.mark.parametrize("width", [0, -1, 65])
    def test_width_bounds(self, width):
        with pytest.raises(WidthMismatch):
            BitVec(width, 0)

    def test_pattern_must_fit(self):
        with pytest.raises(WidthMismatch):
            BitVec(4, 16)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 64), st.integers(-2**70, 2**70))
    def test_interpretations_are_congruent(self, width, value):
        v = BitVec.from_int(value, width)
        mod = 1 << width
        assert v.unsigned % mod == value % mod
        assert v.signed % mod == value % mod
        assert 0 <= v.unsigned < mod
        assert -(mod // 2) <= v.signed < mod // 2
        assert v.msb() == (v.bits >> (width - 1))


class TestAddSub:
    @pytest.mark.parametrize("a,b,direction,expect", [
        (0xFF, 0x01, Direction.ADD, 0x00),
        (0x7F, 0x01, Direction.ADD, 0x80),
        (5, 5, Direction.SUB, 0),
        (2, 3, Direction.ADD, 5),
        (0, 1, Direction.SUB, 0xFF),
    ])
    def test_examples_8bit(self, a, b, direction, expect):
        out = add_sub_eval(BitVec(8, a), BitVec(8, b), direction)
        assert out.bits == expect
        assert out.width == 8

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatch):
            add_sub_eval(BitVec(8, 1), BitVec(9, 1), Direction.ADD)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_add_then_sub_roundtrips(self, data):
        width = data.draw(st.integers(1, 64))
        a = data.draw(st.integers(0, 2**width - 1))
        b = data.draw(st.integers(0, 2**width - 1))
        total = add_sub_eval(BitVec(width, a), BitVec(width, b), Direction.ADD)
        assert total.bits == (a + b) % (1 << width)
        back = add_sub_eval(total, BitVec(width, b), Direction.SUB)
        assert back.bits == a


class TestMult:
    def test_small_product(self):
        gen = MultGenerics(32, 32, 32, Representation.SIGNED)
        out = mult_eval(BitVec(32, 2), BitVec(32, 3), gen)
        assert out.bits == 6

    def test_signed_negatives_at_double_width(self):
        gen = MultGenerics(8, 8, 16, Representation.SIGNED)
        out = mult_eval(BitVec.from_int(-1, 8), BitVec.from_int(-1, 8), gen)
        assert out.bits == 1 and out.width == 16

    def test_low_bit_truncation(self):
        # 0x8000 * 2 overflows 16 bits; the low half is all zero.
        gen = MultGenerics(16, 16, 16, Representation.UNSIGNED)
        out = mult_eval(BitVec(16, 0x8000), BitVec(16, 2), gen)
        assert out.bits == 0x0000

    def test_rejects_product_wider_than_full(self):
        with pytest.raises(WidthMismatch):
            mult_eval(BitVec(4, 1), BitVec(4, 1),
                      MultGenerics(4, 4, 9, Representation.UNSIGNED))

    def test_rejects_input_width_mismatch(self):
        with pytest.raises(WidthMismatch):
            mult_eval(BitVec(4, 1), BitVec(8, 1),
                      MultGenerics(4, 4, 8, Representation.UNSIGNED))

    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_against_full_product_oracle(self, data):
        wa = data.draw(st.integers(1, 32))
        wb = data.draw(st.integers(1, 32))
        wp = data.draw(st.integers(1, min(64, wa + wb)))
        rep = data.draw(st.sampled_from(list(Representation)))
        a = BitVec(wa, data.draw(st.integers(0, 2**wa - 1)))
        b = BitVec(wb, data.draw(st.integers(0, 2**wb - 1)))
        signed = rep is Representation.SIGNED
        exact = a.interpret(signed) * b.interpret(signed)
        out = mult_eval(a, b, MultGenerics(wa, wb, wp, rep))
        assert out.width == wp
        assert out.bits == exact % (1 << wp)


class TestDivide:
    @pytest.mark.parametrize("n,d,q,r,m", [
        (-7, 2, -3, -1, 1),
        (7, -2, -3, 1, -1),
        (7, 2, 3, 1, 1),
        (-7, -2, 3, -1, -1),
        (0, 5, 0, 0, 0),
        (0, -5, 0, 0, 0),
        (6, 3, 2, 0, 0),
        (-6, 3, -2, 0, 0),
    ])
    def test_signed_examples(self, n, d, q, r, m):
        quotient, remainder = sdiv8(n, d)
        assert quotient.signed == q
        assert remainder.signed == r
        corrected = mod_correct_eval(remainder, BitVec.from_int(d, 8))
        assert corrected.signed == m

    def test_divide_by_zero(self):
        with pytest.raises(DivideByZero):
            sdiv8(5, 0)

    def test_min_over_minus_one_wraps(self):
        # +128 is not representable at 8 bits; the pattern wraps to -128 and
        # the reconstruction identity holds modulo 2^8.
        quotient, remainder = sdiv8(-128, -1)
        assert quotient.bits == 0x80
        assert remainder.signed == 0
        assert (quotient.signed * -1 + remainder.signed) % 256 == (-128) % 256

    def test_small_range_exhaustive(self):
        for n in range(-16, 17):
            for d in range(-16, 17):
                if d == 0:
                    continue
                q_expect = trunc_quotient(n, d)
                r_expect = n - q_expect * d
                quotient, remainder = sdiv8(n, d)
                assert quotient.signed == q_expect, (n, d)
                assert remainder.signed == r_expect, (n, d)
                m = mod_correct_eval(remainder, BitVec.from_int(d, 8))
                assert m.signed == n % d, (n, d)

    def test_unsigned_exhaustive_4bit(self):
        # Unsigned remainder and modulus coincide, so no correction step.
        gen = DivideGenerics(4, 4, Representation.UNSIGNED,
                             Representation.UNSIGNED)
        for n in range(16):
            for d in range(1, 16):
                quotient, remainder = divide_eval(BitVec(4, n), BitVec(4, d), gen)
                assert quotient.unsigned == n // d
                assert remainder.unsigned == n % d

    def test_mixed_representation(self):
        # Signed numerator over an unsigned denominator pattern.
        gen = DivideGenerics(8, 8, Representation.SIGNED,
                             Representation.UNSIGNED)
        quotient, remainder = divide_eval(
            BitVec.from_int(-9, 8), BitVec(8, 4), gen)
        assert quotient.signed == -2
        assert remainder.signed == -1

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 32), st.data())
    def test_signed_properties(self, width, data):
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        n = data.draw(st.integers(lo, hi))
        d = data.draw(st.integers(lo, hi).filter(lambda v: v != 0))
        gen = DivideGenerics(width, width, Representation.SIGNED,
                             Representation.SIGNED)
        quotient, remainder = divide_eval(
            BitVec.from_int(n, width), BitVec.from_int(d, width), gen)
        r = remainder.signed
        assert abs(r) < abs(d)
        assert r == 0 or (r < 0) == (n < 0)
        if not (n == lo and d == -1):
            assert quotient.signed * d + r == n
        m = mod_correct_eval(remainder, BitVec.from_int(d, width)).signed
        assert abs(m) < abs(d)
        assert m == 0 or (m < 0) == (d < 0)
        assert (m - n) % d == 0


class TestConcatExtend:
    @pytest.mark.parametrize("bits,mode,expect", [
        (0xFF, Extension.ZERO, 0x00FF),
        (0xFF, Extension.SIGN, 0xFFFF),
        (0x7F, Extension.SIGN, 0x007F),
        (0x00, Extension.SIGN, 0x0000),
    ])
    def test_examples_8_to_16(self, bits, mode, expect):
        out = concat_extend_eval(BitVec(8, bits),
                                 ConcatExtendGenerics(8, 16, mode))
        assert out.bits == expect and out.width == 16

    @pytest.mark.parametrize("frm,to", [(8, 8), (8, 4)])
    def test_must_widen(self, frm, to):
        with pytest.raises(NotWidening):
            concat_extend_eval(BitVec(frm, 0),
                               ConcatExtendGenerics(frm, to, Extension.ZERO))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_value_preservation(self, data):
        frm = data.draw(st.integers(1, 32))
        to = data.draw(st.integers(frm + 1, 64))
        bits = data.draw(st.integers(0, 2**frm - 1))
        v = BitVec(frm, bits)
        zero = concat_extend_eval(v, ConcatExtendGenerics(frm, to, Extension.ZERO))
        sign = concat_extend_eval(v, ConcatExtendGenerics(frm, to, Extension.SIGN))
        assert zero.unsigned == v.unsigned
        assert sign.signed == v.signed


def _all_pairs(width_a: int, width_b: int) -> tuple[list[int], list[int]]:
    """Two columns holding every pair of width_a- and width_b-bit patterns."""
    pairs = list(itertools.product(range(1 << width_a), range(1 << width_b)))
    return [a for a, _ in pairs], [b for _, b in pairs]


def _kernel(kind, generics, *columns):
    faults = set()
    return KERNELS[kind](generics, faults, *columns), faults


WIDTHS = range(1, 5)


class TestColumnKernels:
    """Each kernel runs every operand pattern as one column and must give,
    entry by entry, what the BitVec evaluators pinned above give for that
    pattern alone."""

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("direction", list(Direction))
    def test_add_sub(self, width, direction):
        a, b = _all_pairs(width, width)
        (out,), faults = _kernel(ComponentKind.ADD_SUB,
                                 AddSubGenerics(width, direction), a, b)
        assert not faults
        assert out == [add_sub_eval(BitVec(width, x), BitVec(width, y),
                                    direction).bits for x, y in zip(a, b)]

    @pytest.mark.parametrize("wa,wb", itertools.product(WIDTHS, WIDTHS))
    @pytest.mark.parametrize("rep", list(Representation))
    def test_mult(self, wa, wb, rep):
        a, b = _all_pairs(wa, wb)
        for wp in range(1, wa + wb + 1):
            generics = MultGenerics(wa, wb, wp, rep)
            (out,), faults = _kernel(ComponentKind.MULT, generics, a, b)
            assert not faults
            assert out == [mult_eval(BitVec(wa, x), BitVec(wb, y), generics).bits
                           for x, y in zip(a, b)]

    @pytest.mark.parametrize("wn,wd", itertools.product(WIDTHS, WIDTHS))
    @pytest.mark.parametrize("n_rep,d_rep",
                             itertools.product(Representation, Representation))
    def test_divide(self, wn, wd, n_rep, d_rep):
        generics = DivideGenerics(wn, wd, n_rep, d_rep)
        n, d = _all_pairs(wn, wd)
        (quotients, remainders), faults = _kernel(ComponentKind.DIVIDE,
                                                  generics, n, d)
        assert faults == {i for i, y in enumerate(d) if y == 0}
        for i, (x, y) in enumerate(zip(n, d)):
            if y == 0:
                with pytest.raises(DivideByZero):
                    divide_eval(BitVec(wn, x), BitVec(wd, y), generics)
                continue
            q, r = divide_eval(BitVec(wn, x), BitVec(wd, y), generics)
            assert (quotients[i], remainders[i]) == (q.bits, r.bits)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_mod_correct(self, width):
        r, d = _all_pairs(width, width)
        assert mod_correct(r, d, width) == [
            mod_correct_eval(BitVec(width, x), BitVec(width, y)).bits
            for x, y in zip(r, d)]

    @pytest.mark.parametrize("frm", WIDTHS)
    @pytest.mark.parametrize("extension", list(Extension))
    def test_concat_extend(self, frm, extension):
        a = list(range(1 << frm))
        for to in range(frm + 1, 9):
            generics = ConcatExtendGenerics(frm, to, extension)
            (out,), faults = _kernel(ComponentKind.CONCAT_EXTEND, generics, a)
            assert not faults
            assert out == [concat_extend_eval(BitVec(frm, x), generics).bits
                           for x in a]

    @pytest.mark.parametrize("frm,to", itertools.product(WIDTHS, WIDTHS))
    @pytest.mark.parametrize("signed", [False, True])
    def test_resize(self, frm, to, signed):
        a = list(range(1 << frm))
        assert resize(a, frm, signed, to) == [
            BitVec.from_int(BitVec(frm, x).interpret(signed), to).bits
            for x in a]


def rendered_generic_map(inst) -> dict[str, str]:
    """Name/value pairs of the instance's emitted generic map."""
    block = emit_instance(inst).split("generic map (")[1].split(")")[0]
    return dict(line.strip().rstrip(",").split(" => ")
                for line in block.strip().splitlines())


class TestRenderInstance:
    def test_add_sub_generic_map(self):
        decl, inst = render_instance(
            ComponentKind.ADD_SUB, AddSubGenerics(32, Direction.ADD), "u_add_0",
            {"dataa": "r_a", "datab": "r_b", "result": "w_1"})
        assert decl.name == "lpm_add_sub"
        pairs = rendered_generic_map(inst)
        assert ("LPM_WIDTH", "32") in pairs.items()
        assert ("LPM_DIRECTION", '"ADD"') in pairs.items()
        assert COMPONENT_DECLS[inst.kind].name == "lpm_add_sub"
        assert inst.label == "u_add_0"

    def test_divide_generic_map_both_signed(self):
        gen = DivideGenerics(8, 4, Representation.SIGNED, Representation.SIGNED)
        _, inst = render_instance(
            ComponentKind.DIVIDE, gen, "u_divs_0",
            {"numer": "r_a", "denom": "r_b",
             "quotient": "w_1_q", "remain": "w_1_r"})
        pairs = rendered_generic_map(inst)
        assert pairs["LPM_WIDTHN"] == "8"
        assert pairs["LPM_WIDTHD"] == "4"
        assert pairs["LPM_NREPRESENTATION"] == '"SIGNED"'
        assert pairs["LPM_DREPRESENTATION"] == '"SIGNED"'

    def test_concat_extend_generic_map(self):
        gen = ConcatExtendGenerics(8, 32, Extension.SIGN)
        _, inst = render_instance(
            ComponentKind.CONCAT_EXTEND, gen, "x_0",
            {"a": "r_a", "result": "w_x_0"})
        pairs = rendered_generic_map(inst)
        assert pairs == {"FROM_WIDTH": "8", "TO_WIDTH": "32",
                         "EXTEND_MODE": '"SIGN"'}

    def test_declaration_identical_across_generics(self):
        decl_a, _ = render_instance(
            ComponentKind.ADD_SUB, AddSubGenerics(8, Direction.SUB), "u_0",
            {"dataa": "x", "datab": "y", "result": "z"})
        decl_b, _ = render_instance(
            ComponentKind.ADD_SUB, AddSubGenerics(16, Direction.ADD), "u_1",
            {"dataa": "p", "datab": "q", "result": "r"})
        assert decl_a is decl_b is COMPONENT_DECLS[ComponentKind.ADD_SUB]

    def test_bindings_must_cover_ports(self):
        with pytest.raises(WidthMismatch):
            render_instance(ComponentKind.ADD_SUB,
                            AddSubGenerics(8, Direction.ADD), "u_0",
                            {"dataa": "x", "result": "z"})
        with pytest.raises(WidthMismatch):
            render_instance(ComponentKind.ADD_SUB,
                            AddSubGenerics(8, Direction.ADD), "u_0",
                            {"dataa": "x", "datab": "y", "result": "z",
                             "carry": "c"})
