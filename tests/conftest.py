"""Shared fixtures: the worked-example spec in two width flavors, plus a
mixed-signedness divide/modulus spec; a helper that turns drawn columns
into one dict per vector; helpers that run one component on single bit
patterns; the wiring faults of the worked example's design; and
the JSON schema of report.json."""

import re
from pathlib import Path

import pytest

from cigen import vhdl_ast as ast
from cigen.errors import DivideByZero
from cigen.frontend import parse_ci_spec
from cigen.fuzz import FuzzConfig
from cigen.lpm import BitVec, LpmGenerics, mod_correct
from cigen.mapper import map_design

GOLDEN_DIR = Path(__file__).parent / "golden"

# The acceptance corpus (test_acceptance and the benchmark's fuzz-build):
# its seed, its generator settings and the vectors drawn after each spec.
CORPUS_SEED = 20260814
CORPUS_CONFIG = FuzzConfig(max_inputs=6, max_depth=6, widths=(4, 8, 16, 32))
CORPUS_VECTORS = 200

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


# Every vector meets a zero divisor: a mod a is 0 for any a, so the check
# compares no result value on this spec.
UNDEFINED_TEXT = """\
ci u(opcode=0) {
  input a: unsigned<7>;
  input b: unsigned<7>;
  output y: unsigned<8>;
  y = (a % a) % (a mod a) + b;
}
"""


def nested_text(depth: int, inner: str) -> str:
    """A spec whose expression is inner wrapped in depth parentheses."""
    return ("ci p(opcode=0) { input a: signed<8>; input b: signed<8>; "
            f"output y: signed<8>; y = {'(' * depth}{inner}{')' * depth}; }}")


def rows(columns: dict[str, list[int]]) -> list[dict[str, int]]:
    """The vectors of columns as random_vectors draws them, one dict per
    vector, in the columns' order."""
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def wrapped(value: int, width: int) -> BitVec:
    """value's two's-complement pattern at width bits."""
    return BitVec(width, value & ((1 << width) - 1))


def run_component(generics: LpmGenerics, *inputs: BitVec) -> tuple[BitVec, ...]:
    """One component evaluation: its kernel on one-element columns, after
    generics.port_widths() has checked the generics.  The outputs carry the
    port widths; a zero divisor raises DivideByZero."""
    _, out_widths = generics.port_widths()
    faults: set[int] = set()
    columns = generics.component.kernel(generics, faults,
                                        *([value.bits] for value in inputs))
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


def declared_components(vhdl: str) -> list[str]:
    """The names of the components emitted VHDL declares, in order."""
    return re.findall(r"^  component (\w+)$", vhdl, re.MULTILINE)


def with_arch(design: ast.HdlDesign, **changes) -> ast.HdlDesign:
    """design with the given architecture fields replaced."""
    return design._replace(architecture=design.architecture._replace(**changes))


def _with_process(design: ast.HdlDesign, **changes) -> ast.HdlDesign:
    return with_arch(design,
                     process=design.architecture.process._replace(**changes))


def done_one_step_late(design: ast.HdlDesign) -> ast.HdlDesign:
    """design with done set by the step after the one that sets it."""
    process = design.architecture.process
    steps = list(process.steps)
    index = next(i for i, step in enumerate(steps) if step.set_done)
    later = process.successor(index)
    steps[index] = steps[index]._replace(set_done=False)
    steps[later] = steps[later]._replace(set_done=True)
    return _with_process(design, steps=tuple(steps))


# --- wiring faults of the worked example's design (u_mul_0 drives w_1_p,
# u_add_1 drives w_3) ---------------------------------------------------------

def _unbound_result(design: ast.HdlDesign) -> ast.HdlDesign:
    # one wire too few: the adder's result port is left without one
    mul, add = design.architecture.instances
    add = add._replace(wires=add.wires[:-1])
    return with_arch(design, instances=(mul, add))


def _unknown_port(design: ast.HdlDesign) -> ast.HdlDesign:
    # one wire too many: emit_vhdl would bind it to no port
    mul, add = design.architecture.instances
    add = add._replace(wires=add.wires + ("r_a",))
    return with_arch(design, instances=(mul, add))


def _undeclared_bound_wire(design: ast.HdlDesign) -> ast.HdlDesign:
    # the multiplier's result port bound to an undeclared wire
    mul, add = design.architecture.instances
    mul = mul._replace(wires=(*mul.wires[:-1], "w_ghost"))
    return with_arch(design, instances=(mul, add))


def _second_driver(design: ast.HdlDesign) -> ast.HdlDesign:
    # the multiplier already drives w_1_p
    return with_arch(design, assigns=design.architecture.assigns + (
        ast.ConcurrentAssign("w_1_p", ast.Ref("r_a")),))


def _undeclared_assign_target(design: ast.HdlDesign) -> ast.HdlDesign:
    return with_arch(design, assigns=design.architecture.assigns + (
        ast.ConcurrentAssign("w_ghost", ast.Ref("r_a")),))


def _undeclared_load_target(design: ast.HdlDesign) -> ast.HdlDesign:
    first, step, *rest = design.architecture.process.steps
    step = step._replace(loads=step.loads + (
        ast.RegisterLoad("s_ghost", ast.Ref("r_a")),))
    return _with_process(design, steps=(first, step, *rest))


def _driven_start(design: ast.HdlDesign) -> ast.HdlDesign:
    return with_arch(design, assigns=design.architecture.assigns + (
        ast.ConcurrentAssign("start", ast.Slice("r_a", 1)),))


def _undeclared_reset_register(design: ast.HdlDesign) -> ast.HdlDesign:
    registers = design.architecture.process.registers
    return _with_process(design, registers=registers + ("s_ghost",))


def _off_chain_load(design: ast.HdlDesign) -> ast.HdlDesign:
    # the appended step 4 runs only after done, on the way back to idle
    steps = design.architecture.process.steps
    return _with_process(design, steps=steps + (ast.ControlStep(
        (ast.RegisterLoad("s_ghost", ast.Ref("r_a")),), False),))


# Each wiring fault with the message sim.IndexedDesign refuses it with.
# The ids name the validate_structure rule that once caught the fault; the
# three other rows keep the ids they had when only the lowering checked
# them, the first two from when it bound ports by name.
WIRING_FAULTS = [
    pytest.param(_unbound_result,
                 "u_add_1 binds 2 wires to the 3 ports of lpm_add_sub",
                 id="_unbound_result-u_add_1 leaves port result unbound"),
    pytest.param(_unknown_port,
                 "u_add_1 binds 4 wires to the 3 ports of lpm_add_sub",
                 id="_unknown_port-u_add_1 binds port carry, which "
                    "lpm_add_sub does not declare"),
    pytest.param(_undeclared_bound_wire, "w_ghost is not declared",
                 id="undeclared-signal"),
    pytest.param(_second_driver, "w_1_p has a second driver"),
    pytest.param(_undeclared_assign_target, "w_ghost is not declared",
                 id="assign-target"),
    pytest.param(_undeclared_load_target,
                 "step 1 loads s_ghost, which is no register", id="load-target"),
    pytest.param(_driven_start, "start is driven combinationally",
                 id="assign-target-start"),
    pytest.param(_undeclared_reset_register,
                 "register s_ghost is not a declared signal",
                 id="load-target-reset"),
    pytest.param(_off_chain_load, "step 4 loads s_ghost, which is no register",
                 id="load-target-off-chain"),
]


# What every report.json (and `cigen report --json`) must look like.
REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["name", "opcode", "operands", "operations", "levels",
                 "load_cycles", "done_cycle", "ci_cycles", "sw_cycles",
                 "speedup_estimate", "components", "adapters"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "opcode": {"type": "integer", "minimum": 0},
        "operands": {"type": "integer", "minimum": 1},
        "operations": {"type": "integer", "minimum": 0},
        "levels": {"type": "integer", "minimum": 0},
        "load_cycles": {"type": "integer", "minimum": 1},
        "done_cycle": {"type": "integer", "minimum": 1},
        "ci_cycles": {"type": "integer", "minimum": 2},
        "sw_cycles": {"type": "integer", "minimum": 1},
        "speedup_estimate": {"type": "number", "exclusiveMinimum": 0},
        "components": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 1},
        },
        "adapters": {"type": "integer", "minimum": 0},
        "energy": {
            "type": "object",
            "required": ["P", "T", "E"],
            "additionalProperties": False,
            "properties": {
                "P": {"type": "number", "minimum": 0},
                "T": {"type": "number", "minimum": 0},
                "E": {"type": "number", "minimum": 0},
            },
        },
    },
}
