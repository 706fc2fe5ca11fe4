"""Parameterized arithmetic component library.

Each generated datapath is assembled from four component kinds: a shared
add/subtract unit, a multiplier, a divider producing quotient and remainder,
and a concat/extend unit that widens vectors.  A kind is its generics
record, one class of ``LpmGenerics``.  Its class attribute ``component``
holds the kind's bit-exact semantics, written once as a kernel over columns
of plain-int two's-complement patterns (one entry per vector), and its VHDL
component declaration; its method ``port_widths()`` is the width contract,
raising WidthMismatch or NotWidening for generics that describe no
buildable component.  The range of a width is not its concern: every port
width must equal the declared width of the wire bound to it, and the
simulator's lowering range-checks every declared width.  The expression
forms of a design (slice, resize, mod correction) have their column
kernels here too.  The simulator runs every
instance and expression through these kernels, over a whole batch of
vectors or over one-element columns.  The emitter renders every instance
from the declaration, so each component's behaviour and interface are
written once.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from typing import NamedTuple

from . import vhdl_ast as ast
from .errors import NotWidening, WidthMismatch

MAX_INTERNAL_WIDTH = 64  # widest internal vector: a 32x32 full product


class Direction(enum.Enum):
    ADD = "ADD"
    SUB = "SUB"


class Representation(enum.Enum):
    SIGNED = "SIGNED"
    UNSIGNED = "UNSIGNED"


class Extension(enum.Enum):
    ZERO = "ZERO"
    SIGN = "SIGN"


# the members the kernels test for, read once: an enum class attribute
# read goes through the enum's slow attribute lookup
_ADD, _SIGNED, _SIGN = Direction.ADD, Representation.SIGNED, Extension.SIGN


class _BitVecFields(NamedTuple):
    width: int
    bits: int


class BitVec(_BitVecFields):
    """A two's-complement bit pattern of a fixed width.

    bits always holds the masked pattern; interpretation as a signed or
    unsigned value is up to the consumer.
    """
    __slots__ = ()

    def __new__(cls, width: int, bits: int):
        if not 1 <= width <= MAX_INTERNAL_WIDTH:
            raise WidthMismatch(f"BitVec width {width} outside 1..{MAX_INTERNAL_WIDTH}")
        if not 0 <= bits < (1 << width):
            raise WidthMismatch(f"pattern {bits:#x} does not fit {width} bits")
        return super().__new__(cls, width, bits)

    @property
    def unsigned(self) -> int:
        return self.bits

    @property
    def signed(self) -> int:
        if self.bits & (1 << (self.width - 1)):
            return self.bits - (1 << self.width)
        return self.bits


Column = list[int]  # one bit pattern per vector of a batch


def _signed_values(column: Column, width: int) -> list[int]:
    """The patterns of a width-bit column read as two's-complement values."""
    top = 1 << (width - 1)
    return [(x ^ top) - top for x in column]


def low_bits(column: Column, width: int) -> Column:
    """The low width bits of every pattern."""
    mask = (1 << width) - 1
    return [x & mask for x in column]


def resize(column: Column, from_width: int, signed: bool, width: int) -> Column:
    """from_width-bit patterns read as signed or unsigned values, then
    extended or cut to width bits."""
    if signed and width > from_width:
        top, mask = 1 << (from_width - 1), (1 << width) - 1
        return [((x ^ top) - top) & mask for x in column]
    return column if width >= from_width else low_bits(column, width)


def mod_correct(remainder: Column, divisor: Column, width: int) -> Column:
    """Turn dividend-sign remainders into divisor-sign moduli.

    Both columns must be at a width where the exact values are representable
    in two's complement (the mapper arranges this), so the top bits are the
    true signs.  m = r when r is zero or the signs agree, else r + d."""
    top, mask = 1 << (width - 1), (1 << width) - 1
    return [(r + d) & mask if r and (r ^ d) & top else r
            for r, d in zip(remainder, divisor)]


def _add_sub(generics: AddSubGenerics, faults: set[int],
             a: Column, b: Column) -> tuple[Column]:
    """Sum or difference modulo 2^width."""
    mask = (1 << generics.width) - 1
    if generics.direction is _ADD:
        return ([(x + y) & mask for x, y in zip(a, b)],)
    return ([(x - y) & mask for x, y in zip(a, b)],)


def _mult(generics: MultGenerics, faults: set[int],
          a: Column, b: Column) -> tuple[Column]:
    """Full product under the configured representation, then the low
    width_p bits of its two's-complement pattern."""
    mask = (1 << generics.width_p) - 1
    if generics.representation is _SIGNED:
        top_a, top_b = 1 << (generics.width_a - 1), 1 << (generics.width_b - 1)
        return ([((x ^ top_a) - top_a) * ((y ^ top_b) - top_b) & mask
                 for x, y in zip(a, b)],)
    return ([(x * y) & mask for x, y in zip(a, b)],)


def _divide(generics: DivideGenerics, faults: set[int],
            n: Column, d: Column) -> tuple[Column, Column]:
    """Truncating division: quotient toward zero, remainder with the
    dividend's sign, n = q*d + r over the integers.  The quotient pattern is
    the exact quotient modulo 2^width_n (only -2^(w-1)/-1 wraps); the
    remainder pattern is the exact remainder modulo 2^width_d.  A zero
    divisor adds its vector's index to faults and yields zero patterns."""
    if generics.n_representation is _SIGNED:
        n = _signed_values(n, generics.width_n)
    if generics.d_representation is _SIGNED:
        d = _signed_values(d, generics.width_d)
    q_mask, r_mask = (1 << generics.width_n) - 1, (1 << generics.width_d) - 1
    quotients, remainders = [], []
    for index, (x, y) in enumerate(zip(n, d)):
        if y == 0:
            faults.add(index)
            quotients.append(0)
            remainders.append(0)
            continue
        q = abs(x) // abs(y)
        if (x < 0) != (y < 0):
            q = -q
        quotients.append(q & q_mask)
        remainders.append((x - q * y) & r_mask)
    return quotients, remainders


def _concat_extend(generics: ConcatExtendGenerics, faults: set[int],
                   a: Column) -> tuple[Column]:
    """Widen by concatenating replicated sign bits or zeros on top."""
    return (resize(a, generics.from_width, generics.extension is _SIGN,
                   generics.to_width),)


class Component(NamedTuple):
    """What every instance of one kind shares: ``hdl.build_design`` and the
    simulator's lowering read it per instance, and ``hdl`` derives the
    kind's instance text from decl.  The kernel maps generics, a fault set
    and the input ports' columns in declaration order to the output ports'
    columns in declaration order; it expects inputs at the widths
    ``port_widths()`` gives, in the same order, and masks its outputs."""
    name: str                       # the kind, as the report counts it
    decl: ast.ComponentDecl
    ports: tuple[str, ...]          # in declaration order, inputs first
    kernel: Callable[..., tuple[Column, ...]]
    wire_suffixes: tuple[str, ...]  # per output: build_design's w_<node><suffix>


def _component(name: str, kernel: Callable[..., tuple[Column, ...]],
               wire_suffixes: tuple[str, ...],
               decl: ast.ComponentDecl) -> Component:
    return Component(name, decl, tuple(p.name for p in decl.ports), kernel,
                     wire_suffixes)


_Widths = tuple[tuple[int, ...], tuple[int, ...]]


class AddSubGenerics(NamedTuple):
    width: int
    direction: Direction

    component = _component("ADD_SUB", _add_sub, ("",), ast.ComponentDecl(
        "lpm_add_sub",
        (ast.GenericDecl("LPM_WIDTH", "natural"),
         ast.GenericDecl("LPM_DIRECTION", "string")),
        (ast.PortDecl("dataa", "in", "std_logic_vector(LPM_WIDTH - 1 downto 0)"),
         ast.PortDecl("datab", "in", "std_logic_vector(LPM_WIDTH - 1 downto 0)"),
         ast.PortDecl("result", "out", "std_logic_vector(LPM_WIDTH - 1 downto 0)"))))

    def port_widths(self) -> _Widths:
        return (self.width, self.width), (self.width,)


class MultGenerics(NamedTuple):
    width_a: int
    width_b: int
    width_p: int
    representation: Representation

    component = _component("MULT", _mult, ("_p",), ast.ComponentDecl(
        "lpm_mult",
        (ast.GenericDecl("LPM_WIDTHA", "natural"),
         ast.GenericDecl("LPM_WIDTHB", "natural"),
         ast.GenericDecl("LPM_WIDTHP", "natural"),
         ast.GenericDecl("LPM_REPRESENTATION", "string")),
        (ast.PortDecl("dataa", "in", "std_logic_vector(LPM_WIDTHA - 1 downto 0)"),
         ast.PortDecl("datab", "in", "std_logic_vector(LPM_WIDTHB - 1 downto 0)"),
         ast.PortDecl("result", "out", "std_logic_vector(LPM_WIDTHP - 1 downto 0)"))))

    def port_widths(self) -> _Widths:
        if self.width_p > self.width_a + self.width_b:
            raise WidthMismatch("mult product width exceeds full product")
        return (self.width_a, self.width_b), (self.width_p,)


class DivideGenerics(NamedTuple):
    width_n: int
    width_d: int
    n_representation: Representation
    d_representation: Representation

    component = _component("DIVIDE", _divide, ("_q", "_r"), ast.ComponentDecl(
        "lpm_divide",
        (ast.GenericDecl("LPM_WIDTHN", "natural"),
         ast.GenericDecl("LPM_WIDTHD", "natural"),
         ast.GenericDecl("LPM_NREPRESENTATION", "string"),
         ast.GenericDecl("LPM_DREPRESENTATION", "string")),
        (ast.PortDecl("numer", "in", "std_logic_vector(LPM_WIDTHN - 1 downto 0)"),
         ast.PortDecl("denom", "in", "std_logic_vector(LPM_WIDTHD - 1 downto 0)"),
         ast.PortDecl("quotient", "out", "std_logic_vector(LPM_WIDTHN - 1 downto 0)"),
         ast.PortDecl("remain", "out", "std_logic_vector(LPM_WIDTHD - 1 downto 0)"))))

    def port_widths(self) -> _Widths:
        widths = (self.width_n, self.width_d)
        return widths, widths


class ConcatExtendGenerics(NamedTuple):
    from_width: int
    to_width: int
    extension: Extension

    component = _component("CONCAT_EXTEND", _concat_extend, ("",), ast.ComponentDecl(
        "ci_concat_extend",
        (ast.GenericDecl("FROM_WIDTH", "natural"),
         ast.GenericDecl("TO_WIDTH", "natural"),
         ast.GenericDecl("EXTEND_MODE", "string")),
        (ast.PortDecl("a", "in", "std_logic_vector(FROM_WIDTH - 1 downto 0)"),
         ast.PortDecl("result", "out", "std_logic_vector(TO_WIDTH - 1 downto 0)"))))

    def port_widths(self) -> _Widths:
        if self.to_width <= self.from_width:
            raise NotWidening(
                f"extension {self.from_width}->{self.to_width} does not widen")
        return (self.from_width,), (self.to_width,)


LpmGenerics = AddSubGenerics | MultGenerics | DivideGenerics | ConcatExtendGenerics
