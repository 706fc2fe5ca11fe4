"""Arithmetic component semantics, checked against independent oracles.

Every component runs through its generics' ``component.kernel``, on one-element
columns (``run_component``) or on columns holding every operand pattern.
The division oracles below are built from exact rational truncation and
Python's floor modulus, not from the library's own formulas, so agreement is
meaningful.
"""

import itertools
import math
import typing
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mod_corrected, run_component, wrapped
from cigen import vhdl_ast as ast
from cigen.errors import DivideByZero, NotWidening, WidthMismatch
from cigen.lpm import (
    AddSubGenerics,
    BitVec,
    ConcatExtendGenerics,
    Direction,
    DivideGenerics,
    Extension,
    LpmGenerics,
    MultGenerics,
    Representation,
    mod_correct,
    resize,
)
from cigen.hdl import emit_instance


def trunc_quotient(n: int, d: int) -> int:
    """Round-toward-zero quotient via exact rationals."""
    return math.trunc(Fraction(n, d))


def add_sub(a: BitVec, b: BitVec, direction: Direction) -> BitVec:
    return run_component(AddSubGenerics(a.width, direction), a, b)[0]


def mult(a: BitVec, b: BitVec, generics: MultGenerics) -> BitVec:
    return run_component(generics, a, b)[0]


def divide(n: BitVec, d: BitVec, generics: DivideGenerics) -> tuple[BitVec, ...]:
    return run_component(generics, n, d)


def concat_extend(a: BitVec, generics: ConcatExtendGenerics) -> BitVec:
    return run_component(generics, a)[0]


def sdiv8(n: int, d: int) -> tuple[BitVec, ...]:
    gen = DivideGenerics(8, 8, Representation.SIGNED, Representation.SIGNED)
    return divide(wrapped(n, 8), wrapped(d, 8), gen)


class TestBitVec:
    """The (width, bits) constructor's bounds, and the signed and unsigned
    readings of the patterns ``wrapped`` builds from ints."""

    @pytest.mark.parametrize("value,width,bits,signed", [
        (0, 1, 0, 0), (1, 1, 1, -1), (-1, 8, 0xFF, -1),
        (255, 8, 0xFF, -1), (127, 8, 0x7F, 127), (-128, 8, 0x80, -128),
        (256, 8, 0x00, 0), (2**32 - 1, 32, 2**32 - 1, -1),
    ])
    def test_from_int_wraps(self, value, width, bits, signed):
        v = wrapped(value, width)
        assert v.bits == bits
        assert v.signed == signed
        assert v.unsigned == bits

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
        v = wrapped(value, width)
        mod = 1 << width
        assert v.unsigned % mod == value % mod
        assert v.signed % mod == value % mod
        assert 0 <= v.unsigned < mod
        assert -(mod // 2) <= v.signed < mod // 2


class TestAddSub:
    @pytest.mark.parametrize("a,b,direction,expect", [
        (0xFF, 0x01, Direction.ADD, 0x00),
        (0x7F, 0x01, Direction.ADD, 0x80),
        (5, 5, Direction.SUB, 0),
        (2, 3, Direction.ADD, 5),
        (0, 1, Direction.SUB, 0xFF),
    ])
    def test_examples_8bit(self, a, b, direction, expect):
        out = add_sub(BitVec(8, a), BitVec(8, b), direction)
        assert out.bits == expect
        assert out.width == 8

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_add_then_sub_roundtrips(self, data):
        width = data.draw(st.integers(1, 64))
        a = data.draw(st.integers(0, 2**width - 1))
        b = data.draw(st.integers(0, 2**width - 1))
        total = add_sub(BitVec(width, a), BitVec(width, b), Direction.ADD)
        assert total.bits == (a + b) % (1 << width)
        back = add_sub(total, BitVec(width, b), Direction.SUB)
        assert back.bits == a


class TestMult:
    def test_small_product(self):
        gen = MultGenerics(32, 32, 32, Representation.SIGNED)
        out = mult(BitVec(32, 2), BitVec(32, 3), gen)
        assert out.bits == 6

    def test_signed_negatives_at_double_width(self):
        gen = MultGenerics(8, 8, 16, Representation.SIGNED)
        out = mult(wrapped(-1, 8), wrapped(-1, 8), gen)
        assert out.bits == 1 and out.width == 16

    def test_low_bit_truncation(self):
        # 0x8000 * 2 overflows 16 bits; the low half is all zero.
        gen = MultGenerics(16, 16, 16, Representation.UNSIGNED)
        out = mult(BitVec(16, 0x8000), BitVec(16, 2), gen)
        assert out.bits == 0x0000

    def test_rejects_product_wider_than_full(self):
        with pytest.raises(WidthMismatch):
            MultGenerics(4, 4, 9, Representation.UNSIGNED).port_widths()

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
        exact = a.signed * b.signed if signed else a.unsigned * b.unsigned
        out = mult(a, b, MultGenerics(wa, wb, wp, rep))
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
        corrected = mod_corrected(remainder, wrapped(d, 8))
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
                m = mod_corrected(remainder, wrapped(d, 8))
                assert m.signed == n % d, (n, d)

    def test_unsigned_exhaustive_4bit(self):
        # Unsigned remainder and modulus coincide, so no correction step.
        gen = DivideGenerics(4, 4, Representation.UNSIGNED,
                             Representation.UNSIGNED)
        for n in range(16):
            for d in range(1, 16):
                quotient, remainder = divide(BitVec(4, n), BitVec(4, d), gen)
                assert quotient.unsigned == n // d
                assert remainder.unsigned == n % d

    def test_mixed_representation(self):
        # Signed numerator over an unsigned denominator pattern.
        gen = DivideGenerics(8, 8, Representation.SIGNED,
                             Representation.UNSIGNED)
        quotient, remainder = divide(wrapped(-9, 8), BitVec(8, 4), gen)
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
        quotient, remainder = divide(wrapped(n, width), wrapped(d, width), gen)
        r = remainder.signed
        assert abs(r) < abs(d)
        assert r == 0 or (r < 0) == (n < 0)
        if not (n == lo and d == -1):
            assert quotient.signed * d + r == n
        m = mod_corrected(remainder, wrapped(d, width)).signed
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
        out = concat_extend(BitVec(8, bits), ConcatExtendGenerics(8, 16, mode))
        assert out.bits == expect and out.width == 16

    @pytest.mark.parametrize("frm,to", [(8, 8), (8, 4)])
    def test_must_widen(self, frm, to):
        with pytest.raises(NotWidening):
            ConcatExtendGenerics(frm, to, Extension.ZERO).port_widths()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_value_preservation(self, data):
        frm = data.draw(st.integers(1, 32))
        to = data.draw(st.integers(frm + 1, 64))
        bits = data.draw(st.integers(0, 2**frm - 1))
        v = BitVec(frm, bits)
        zero = concat_extend(v, ConcatExtendGenerics(frm, to, Extension.ZERO))
        sign = concat_extend(v, ConcatExtendGenerics(frm, to, Extension.SIGN))
        assert zero.unsigned == v.unsigned
        assert sign.signed == v.signed


def _all_pairs(width_a: int, width_b: int) -> tuple[list[int], list[int]]:
    """Two columns holding every pair of width_a- and width_b-bit patterns."""
    pairs = list(itertools.product(range(1 << width_a), range(1 << width_b)))
    return [a for a, _ in pairs], [b for _, b in pairs]


def _kernel(generics, *columns):
    faults = set()
    return generics.component.kernel(generics, faults, *columns), faults


def _value(bits: int, width: int, signed: bool) -> int:
    return BitVec(width, bits).signed if signed else bits


WIDTHS = range(1, 5)


class TestColumnKernels:
    """Each kernel runs every operand pattern as one column and must give,
    entry by entry, the exact integer result of that pattern alone, reduced
    to the output width."""

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("direction", list(Direction))
    def test_add_sub(self, width, direction):
        a, b = _all_pairs(width, width)
        (out,), faults = _kernel(AddSubGenerics(width, direction), a, b)
        assert not faults
        sign = 1 if direction is Direction.ADD else -1
        assert out == [(x + sign * y) % (1 << width) for x, y in zip(a, b)]

    @pytest.mark.parametrize("wa,wb", itertools.product(WIDTHS, WIDTHS))
    @pytest.mark.parametrize("rep", list(Representation))
    def test_mult(self, wa, wb, rep):
        a, b = _all_pairs(wa, wb)
        signed = rep is Representation.SIGNED
        for wp in range(1, wa + wb + 1):
            generics = MultGenerics(wa, wb, wp, rep)
            (out,), faults = _kernel(generics, a, b)
            assert not faults
            assert out == [_value(x, wa, signed) * _value(y, wb, signed) % (1 << wp)
                           for x, y in zip(a, b)]

    @pytest.mark.parametrize("wn,wd", itertools.product(WIDTHS, WIDTHS))
    @pytest.mark.parametrize("n_rep,d_rep",
                             itertools.product(Representation, Representation))
    def test_divide(self, wn, wd, n_rep, d_rep):
        generics = DivideGenerics(wn, wd, n_rep, d_rep)
        n, d = _all_pairs(wn, wd)
        (quotients, remainders), faults = _kernel(generics, n, d)
        assert faults == {i for i, y in enumerate(d) if y == 0}
        for i, (x, y) in enumerate(zip(n, d)):
            nv = _value(x, wn, n_rep is Representation.SIGNED)
            dv = _value(y, wd, d_rep is Representation.SIGNED)
            if dv == 0:
                assert (quotients[i], remainders[i]) == (0, 0)
                continue
            q = trunc_quotient(nv, dv)
            assert (quotients[i], remainders[i]) \
                == (q % (1 << wn), (nv - q * dv) % (1 << wd))

    @pytest.mark.parametrize("n_rep,d_rep",
                             itertools.product(Representation, Representation))
    def test_divide_as_one_vector_at_a_time(self, n_rep, d_rep):
        # every 4-bit by 4-bit pair, zero divisors included, against the
        # division of one vector at a time through abs
        n, d = _all_pairs(4, 4)
        (quotients, remainders), faults = _kernel(
            DivideGenerics(4, 4, n_rep, d_rep), n, d)
        expected, expected_faults = [], set()
        for index, (x, y) in enumerate(zip(n, d)):
            x = _value(x, 4, n_rep is Representation.SIGNED)
            y = _value(y, 4, d_rep is Representation.SIGNED)
            if y == 0:
                expected_faults.add(index)
                expected.append((0, 0))
                continue
            q = abs(x) // abs(y)
            if (x < 0) != (y < 0):
                q = -q
            expected.append((q & 15, (x - q * y) & 15))
        assert faults == expected_faults
        assert list(zip(quotients, remainders)) == expected

    @pytest.mark.parametrize("width", WIDTHS)
    def test_mod_correct(self, width):
        r, d = _all_pairs(width, width)
        expect = []
        for x, y in zip(r, d):
            rv, dv = _value(x, width, True), _value(y, width, True)
            m = rv + dv if rv and (rv < 0) != (dv < 0) else rv
            expect.append(m % (1 << width))
        assert mod_correct(r, d, width) == expect

    @pytest.mark.parametrize("frm", WIDTHS)
    @pytest.mark.parametrize("extension", list(Extension))
    def test_concat_extend(self, frm, extension):
        a = list(range(1 << frm))
        signed = extension is Extension.SIGN
        for to in range(frm + 1, 9):
            generics = ConcatExtendGenerics(frm, to, extension)
            (out,), faults = _kernel(generics, a)
            assert not faults
            assert out == [_value(x, frm, signed) % (1 << to) for x in a]

    @pytest.mark.parametrize("frm,to", itertools.product(WIDTHS, WIDTHS))
    @pytest.mark.parametrize("signed", [False, True])
    def test_resize(self, frm, to, signed):
        a = list(range(1 << frm))
        assert resize(a, frm, signed, to) == [_value(x, frm, signed) % (1 << to)
                                              for x in a]


def rendered_generic_map(generics) -> dict[str, str]:
    """Name/value pairs of the generic map emitted for one instance."""
    inst = ast.Instance("u_0", generics, ())
    block = emit_instance(inst).split("generic map (")[1].split(")")[0]
    return dict(line.strip().rstrip(",").split(" => ")
                for line in block.strip().splitlines())


class TestRenderInstance:
    def test_add_sub_generic_map(self):
        pairs = rendered_generic_map(AddSubGenerics(32, Direction.ADD))
        assert ("LPM_WIDTH", "32") in pairs.items()
        assert ("LPM_DIRECTION", '"ADD"') in pairs.items()
        assert AddSubGenerics.component.decl.name == "lpm_add_sub"

    def test_divide_generic_map_both_signed(self):
        gen = DivideGenerics(8, 4, Representation.SIGNED, Representation.SIGNED)
        pairs = rendered_generic_map(gen)
        assert pairs["LPM_WIDTHN"] == "8"
        assert pairs["LPM_WIDTHD"] == "4"
        assert pairs["LPM_NREPRESENTATION"] == '"SIGNED"'
        assert pairs["LPM_DREPRESENTATION"] == '"SIGNED"'

    def test_concat_extend_generic_map(self):
        gen = ConcatExtendGenerics(8, 32, Extension.SIGN)
        pairs = rendered_generic_map(gen)
        assert pairs == {"FROM_WIDTH": "8", "TO_WIDTH": "32",
                         "EXTEND_MODE": '"SIGN"'}


class TestComponentTable:
    """Each generics class and its component record agree: hdl pairs the
    record's fields with the declared generics in order, the lowering splits
    the port map by the widths port_widths() gives, and the kernel yields
    one column per output port."""

    @staticmethod
    def _record(kind):
        # widths 8, 16, 24, ... in field order: legal for every kind
        widths = itertools.count(8, 8)
        return kind(*(next(widths) if hint is int else list(hint)[0]
                      for hint in typing.get_type_hints(kind).values()))

    @pytest.mark.parametrize("kind", typing.get_args(LpmGenerics),
                             ids=lambda kind: kind.__name__)
    def test_generics_ports_and_kernel_agree(self, kind):
        decl = kind.component.decl
        hints = typing.get_type_hints(kind)
        assert list(hints) == list(kind._fields)
        assert [g.vhdl_type for g in decl.generics] == \
            ["natural" if hint is int else "string" for hint in hints.values()]
        record = self._record(kind)
        ins, outs = record.port_widths()
        assert [p.direction for p in decl.ports] == \
            ["in"] * len(ins) + ["out"] * len(outs)
        assert kind.component.ports == tuple(p.name for p in decl.ports)
        assert len(kind.component.wire_suffixes) == len(outs)
        columns = kind.component.kernel(record, set(), *([1] for _ in ins))
        assert len(columns) == len(outs)
