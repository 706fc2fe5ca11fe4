"""Parameterized arithmetic component library.

Each generated datapath is assembled from four component kinds: a shared
add/subtract unit, a multiplier, a divider producing quotient and remainder,
and a concat/extend unit that widens vectors.  This module gives each kind
its bit-exact evaluation semantics on two's-complement bit vectors, one
entry per kind in ``EVALUATORS``, and its VHDL component declaration.  The
simulator evaluates every instance of a design through that table, and the
emitter renders every instance from the declaration, so each component's
behaviour and interface are written once.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass

from . import vhdl_ast as ast
from .errors import DivideByZero, NotWidening, WidthMismatch

MAX_INTERNAL_WIDTH = 64  # widest internal vector: a 32x32 full product


class ComponentKind(enum.Enum):
    ADD_SUB = enum.auto()
    MULT = enum.auto()
    DIVIDE = enum.auto()
    CONCAT_EXTEND = enum.auto()


class Direction(enum.Enum):
    ADD = "ADD"
    SUB = "SUB"


class Representation(enum.Enum):
    SIGNED = "SIGNED"
    UNSIGNED = "UNSIGNED"


class Extension(enum.Enum):
    ZERO = "ZERO"
    SIGN = "SIGN"


@dataclass(frozen=True, slots=True)
class BitVec:
    """A two's-complement bit pattern of a fixed width.

    bits always holds the masked pattern; interpretation as a signed or
    unsigned value is up to the consumer.
    """
    width: int
    bits: int

    def __post_init__(self):
        if not 1 <= self.width <= MAX_INTERNAL_WIDTH:
            raise WidthMismatch(f"BitVec width {self.width} outside 1..{MAX_INTERNAL_WIDTH}")
        if not 0 <= self.bits < (1 << self.width):
            raise WidthMismatch(f"pattern {self.bits:#x} does not fit {self.width} bits")

    @staticmethod
    def from_int(value: int, width: int) -> "BitVec":
        return BitVec(width, value & ((1 << width) - 1))

    @property
    def unsigned(self) -> int:
        return self.bits

    @property
    def signed(self) -> int:
        if self.bits & (1 << (self.width - 1)):
            return self.bits - (1 << self.width)
        return self.bits

    def interpret(self, signed: bool) -> int:
        return self.signed if signed else self.unsigned

    def msb(self) -> int:
        return (self.bits >> (self.width - 1)) & 1


@dataclass(frozen=True)
class AddSubGenerics:
    width: int
    direction: Direction


@dataclass(frozen=True)
class MultGenerics:
    width_a: int
    width_b: int
    width_p: int
    representation: Representation


@dataclass(frozen=True)
class DivideGenerics:
    width_n: int
    width_d: int
    n_representation: Representation
    d_representation: Representation


@dataclass(frozen=True)
class ConcatExtendGenerics:
    from_width: int
    to_width: int
    extension: Extension


LpmGenerics = AddSubGenerics | MultGenerics | DivideGenerics | ConcatExtendGenerics


def add_sub_eval(a: BitVec, b: BitVec, direction: Direction) -> BitVec:
    """Sum or difference modulo 2^width.  Inputs must share one width."""
    if a.width != b.width:
        raise WidthMismatch(f"add_sub inputs {a.width} and {b.width} bits")
    if direction is Direction.ADD:
        return BitVec.from_int(a.bits + b.bits, a.width)
    return BitVec.from_int(a.bits - b.bits, a.width)


def mult_eval(a: BitVec, b: BitVec, generics: MultGenerics) -> BitVec:
    """Full product under the configured representation, then the low
    width_p bits of its two's-complement pattern."""
    if a.width != generics.width_a or b.width != generics.width_b:
        raise WidthMismatch(
            f"mult inputs {a.width}x{b.width} vs generics "
            f"{generics.width_a}x{generics.width_b}")
    if generics.width_p > generics.width_a + generics.width_b:
        raise WidthMismatch("mult product width exceeds full product")
    signed = generics.representation is Representation.SIGNED
    product = a.interpret(signed) * b.interpret(signed)
    return BitVec.from_int(product, generics.width_p)


def divide_eval(n: BitVec, d: BitVec, generics: DivideGenerics) -> tuple[BitVec, BitVec]:
    """Truncating division: quotient toward zero, remainder with the
    dividend's sign, n = q*d + r over the integers.  The quotient pattern is
    the exact quotient modulo 2^width_n (only -2^(w-1)/-1 wraps); the
    remainder pattern is the exact remainder modulo 2^width_d."""
    if n.width != generics.width_n or d.width != generics.width_d:
        raise WidthMismatch(
            f"divide inputs {n.width}/{d.width} vs generics "
            f"{generics.width_n}/{generics.width_d}")
    n_val = n.interpret(generics.n_representation is Representation.SIGNED)
    d_val = d.interpret(generics.d_representation is Representation.SIGNED)
    if d_val == 0:
        raise DivideByZero()
    q = abs(n_val) // abs(d_val)
    if (n_val < 0) != (d_val < 0):
        q = -q
    r = n_val - q * d_val
    return BitVec.from_int(q, generics.width_n), BitVec.from_int(r, generics.width_d)


def mod_correct_eval(r: BitVec, d: BitVec) -> BitVec:
    """Turn a dividend-sign remainder into a divisor-sign modulus.

    Both vectors must be at a width where the exact values are representable
    in two's complement (the mapper arranges this), so the top bits are the
    true signs.  m = r when r is zero or the signs agree, else r + d."""
    if r.width != d.width:
        raise WidthMismatch(f"mod correction inputs {r.width} and {d.width} bits")
    if r.bits == 0 or r.msb() == d.msb():
        return r
    return BitVec.from_int(r.bits + d.bits, r.width)


def concat_extend_eval(a: BitVec, generics: ConcatExtendGenerics) -> BitVec:
    """Widen by concatenating replicated sign bits or zeros on top."""
    if a.width != generics.from_width:
        raise WidthMismatch(f"extend input {a.width} bits vs generic {generics.from_width}")
    if generics.to_width <= generics.from_width:
        raise NotWidening(
            f"extension {generics.from_width}->{generics.to_width} does not widen")
    if generics.extension is Extension.SIGN:
        return BitVec.from_int(a.signed, generics.to_width)
    return BitVec(generics.to_width, a.bits)


_ADD_SUB_DECL = ast.ComponentDecl(
    "lpm_add_sub",
    (ast.GenericDecl("LPM_WIDTH", "natural"),
     ast.GenericDecl("LPM_DIRECTION", "string")),
    (ast.PortDecl("dataa", "in", "std_logic_vector(LPM_WIDTH - 1 downto 0)"),
     ast.PortDecl("datab", "in", "std_logic_vector(LPM_WIDTH - 1 downto 0)"),
     ast.PortDecl("result", "out", "std_logic_vector(LPM_WIDTH - 1 downto 0)")),
)

_MULT_DECL = ast.ComponentDecl(
    "lpm_mult",
    (ast.GenericDecl("LPM_WIDTHA", "natural"),
     ast.GenericDecl("LPM_WIDTHB", "natural"),
     ast.GenericDecl("LPM_WIDTHP", "natural"),
     ast.GenericDecl("LPM_REPRESENTATION", "string")),
    (ast.PortDecl("dataa", "in", "std_logic_vector(LPM_WIDTHA - 1 downto 0)"),
     ast.PortDecl("datab", "in", "std_logic_vector(LPM_WIDTHB - 1 downto 0)"),
     ast.PortDecl("result", "out", "std_logic_vector(LPM_WIDTHP - 1 downto 0)")),
)

_DIVIDE_DECL = ast.ComponentDecl(
    "lpm_divide",
    (ast.GenericDecl("LPM_WIDTHN", "natural"),
     ast.GenericDecl("LPM_WIDTHD", "natural"),
     ast.GenericDecl("LPM_NREPRESENTATION", "string"),
     ast.GenericDecl("LPM_DREPRESENTATION", "string")),
    (ast.PortDecl("numer", "in", "std_logic_vector(LPM_WIDTHN - 1 downto 0)"),
     ast.PortDecl("denom", "in", "std_logic_vector(LPM_WIDTHD - 1 downto 0)"),
     ast.PortDecl("quotient", "out", "std_logic_vector(LPM_WIDTHN - 1 downto 0)"),
     ast.PortDecl("remain", "out", "std_logic_vector(LPM_WIDTHD - 1 downto 0)")),
)

_CONCAT_EXTEND_DECL = ast.ComponentDecl(
    "ci_concat_extend",
    (ast.GenericDecl("FROM_WIDTH", "natural"),
     ast.GenericDecl("TO_WIDTH", "natural"),
     ast.GenericDecl("EXTEND_MODE", "string")),
    (ast.PortDecl("a", "in", "std_logic_vector(FROM_WIDTH - 1 downto 0)"),
     ast.PortDecl("result", "out", "std_logic_vector(TO_WIDTH - 1 downto 0)")),
)

COMPONENT_DECLS: dict[ComponentKind, ast.ComponentDecl] = {
    ComponentKind.ADD_SUB: _ADD_SUB_DECL,
    ComponentKind.MULT: _MULT_DECL,
    ComponentKind.DIVIDE: _DIVIDE_DECL,
    ComponentKind.CONCAT_EXTEND: _CONCAT_EXTEND_DECL,
}


def _add_sub(generics: AddSubGenerics, a: BitVec, b: BitVec) -> tuple[BitVec]:
    if a.width != generics.width:
        raise WidthMismatch(f"add_sub input {a.width} bits vs generic {generics.width}")
    return (add_sub_eval(a, b, generics.direction),)


# Per kind: generics and the input ports' values in declaration order to the
# output ports' values in declaration order.
EVALUATORS: dict[ComponentKind, Callable[..., tuple[BitVec, ...]]] = {
    ComponentKind.ADD_SUB: _add_sub,
    ComponentKind.MULT: lambda generics, a, b: (mult_eval(a, b, generics),),
    ComponentKind.DIVIDE: lambda generics, n, d: divide_eval(n, d, generics),
    ComponentKind.CONCAT_EXTEND:
        lambda generics, a: (concat_extend_eval(a, generics),),
}


def render_instance(kind: ComponentKind, generics: LpmGenerics, instance_name: str,
                    port_bindings: dict[str, str]) -> tuple[ast.ComponentDecl, ast.Instance]:
    """Build the declaration and instantiation nodes for one component use.

    The declaration node is identical for every use of a kind, so callers can
    deduplicate by kind.  port_bindings must name every declared port once.
    """
    decl = COMPONENT_DECLS[kind]
    declared = [p.name for p in decl.ports]
    if sorted(port_bindings) != sorted(declared):
        missing = set(declared) - set(port_bindings)
        extra = set(port_bindings) - set(declared)
        raise WidthMismatch(
            f"port bindings for {decl.name}: missing {sorted(missing)}, extra {sorted(extra)}")
    port_map = tuple((name, port_bindings[name]) for name in declared)
    return decl, ast.Instance(instance_name, kind, generics, port_map)
