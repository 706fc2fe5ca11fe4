"""Shared fixtures: the worked-example spec in two width flavors, plus a
mixed-signedness divide/modulus spec; and helpers that run one component
on single bit patterns."""

from pathlib import Path

import pytest

from cigen.errors import DivideByZero
from cigen.frontend import parse_ci_spec
from cigen.lpm import (
    KERNELS,
    BitVec,
    ComponentKind,
    LpmGenerics,
    mod_correct,
    port_widths,
)
from cigen.mapper import map_design

GOLDEN_DIR = Path(__file__).parent / "golden"

# Three 32-bit signed operands, multiply-accumulate.  All widths equal, so
# the mapped design needs no width adapters and the emitted file has no
# support entity.  Golden artifacts are frozen from this exact text.
MAC_TEXT = """\
ci f(opcode=0) {
  input a: signed<32>;
  input b: signed<32>;
  input c: signed<32>;
  output X: signed<32>;
  X = (a * b) + c;
}
"""

# Same expression at 8 bits with a 16-bit product, so the adder needs one
# widening adapter and the output path truncates.
NARROW_TEXT = """\
ci g(opcode=1) {
  input a: signed<8>;
  input b: signed<8>;
  input c: signed<8>;
  output y: signed<16>;
  y = (a * b) + c;
}
"""

# Flooring modulus of a signed dividend by an unsigned divisor (one 1-bit
# zero-extend adapter, a divider and the mod-correct select), a quotient
# and an unsigned output wider than the signed root, so the result path
# resizes twice.
MOD_TEXT = """\
ci h(opcode=2) {
  input a: signed<8>;
  input b: unsigned<8>;
  input c: signed<4>;
  output m: unsigned<16>;
  m = (a mod b) - (a / c);
}
"""


def chain_text(terms: int) -> str:
    """A spec summing terms 8-bit inputs left to right: terms - 1 levels."""
    decls = "".join(f"  input a{i}: signed<8>;\n" for i in range(terms))
    body = " + ".join(f"a{i}" for i in range(terms))
    return f"ci w(opcode=0) {{\n{decls}  output y: signed<32>;\n  y = {body};\n}}\n"


def nested_text(depth: int, inner: str) -> str:
    """A spec whose expression is inner wrapped in depth parentheses."""
    return ("ci p(opcode=0) { input a: signed<8>; input b: signed<8>; "
            f"output y: signed<8>; y = {'(' * depth}{inner}{')' * depth}; }}")


def wrapped(value: int, width: int) -> BitVec:
    """value's two's-complement pattern at width bits."""
    return BitVec(width, value & ((1 << width) - 1))


def run_component(kind: ComponentKind, generics: LpmGenerics,
                  *inputs: BitVec) -> tuple[BitVec, ...]:
    """One component evaluation: its lpm.KERNELS entry on one-element
    columns, after lpm.port_widths has checked the generics.  The outputs
    carry the port widths; a zero divisor raises DivideByZero."""
    _, out_widths = port_widths(kind, generics)
    faults: set[int] = set()
    columns = KERNELS[kind](generics, faults, *([value.bits] for value in inputs))
    if faults:
        raise DivideByZero()
    return tuple(BitVec(width, column[0]) for width, column in zip(out_widths, columns))


def mod_corrected(remainder: BitVec, divisor: BitVec) -> BitVec:
    """The divisor-sign modulus from a remainder and divisor of one width."""
    width = remainder.width
    return BitVec(width, mod_correct([remainder.bits], [divisor.bits], width)[0])


@pytest.fixture
def mac_spec():
    return parse_ci_spec(MAC_TEXT)


@pytest.fixture
def mac_mapped(mac_spec):
    return map_design(mac_spec)


@pytest.fixture
def narrow_spec():
    return parse_ci_spec(NARROW_TEXT)


@pytest.fixture
def narrow_mapped(narrow_spec):
    return map_design(narrow_spec)


@pytest.fixture
def golden_dir():
    return GOLDEN_DIR
