"""Reference evaluator and cycle-accurate netlist simulation."""

import inspect
import itertools
import json
import random
import shutil
import subprocess
import textwrap

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    GOLDEN_DIR,
    MAC_TEXT,
    MOD_TEXT,
    NARROW_TEXT,
    UNDEFINED_TEXT,
    WIRING_FAULTS,
    corpus,
    done_past_the_last_step,
    done_one_step_late,
    load_kinds,
    rows,
    with_arch,
    wide_specs,
    with_unread_register,
    wrapped,
)
from cigen.errors import CigenError, DivideByZero, InternalCheckError
from cigen import sim
from cigen import vhdl_ast as ast
from cigen.frontend import (
    OPERATORS,
    CiSpec,
    Dfg,
    LeafNode,
    OperandDecl,
    OpKind,
    parse_ci_spec,
)
from cigen.fuzz import FuzzConfig, random_spec, random_vector, random_vectors
from cigen.hdl import ENTITY_PORTS, build_design, emit_instance, node_reg
from cigen.lpm import (
    AddSubGenerics,
    BitVec,
    Direction,
    MultGenerics,
    low_bits,
    mod_correct,
    resize,
)
from cigen.mapper import done_cycle_enabled, map_design
from cigen.sim import (
    IndexedDesign,
    SimResult,
    Stimulus,
    input_columns,
    operand_columns,
    check_equivalence,
    eval_reference,
    reference_columns,
    simulate_ci,
)

MAC_INPUTS = {"a": 2, "b": 3, "c": 4}

# A pattern that only the messages of input bindings that do not fit
# their declarations match.
INPUT_FAULT = (r"^('\w+' is not an input of \w+|missing value for input '\w+'"
               r"|input '\w+' has \d+ values, input '\w+' has \d+"
               r"|input '\w+' = -?\d+ does not fit (un)?signed<\d+>)$")

# Kinds whose result carries the sign of a division-family operation.
DIV_FAMILY = frozenset({OpKind.DIVS, OpKind.DIVU, OpKind.MODS, OpKind.MODU,
                        OpKind.REMS, OpKind.REMU})


def _spec(body: str):
    return parse_ci_spec(f"ci t(opcode=0) {{ {body} }}")


class TestValidateInputs:
    @pytest.fixture
    def spec(self):
        return _spec("input s: signed<8>; input u: unsigned<8>;"
                     "output x: signed<8>; x = s + u;")

    def test_accepts_full_ranges(self, spec):
        input_columns(spec, [{"s": -128, "u": 255}])
        input_columns(spec, [{"s": 127, "u": 0}])

    @pytest.mark.parametrize("inputs", [
        {"s": 128, "u": 0},
        {"s": -129, "u": 0},
        {"s": 0, "u": 256},
        {"s": 0, "u": -1},
        {"s": 0},
        {"s": 0, "u": 0, "ghost": 1},
    ])
    def test_rejects(self, spec, inputs):
        with pytest.raises(CigenError, match=INPUT_FAULT):
            input_columns(spec, [inputs])


class TestReference:
    def test_worked_example(self, mac_spec):
        assert eval_reference(mac_spec, MAC_INPUTS).bits == 10

    def test_negative_product_widens(self):
        spec = _spec("input a: signed<8>; input b: signed<8>;"
                     "output x: signed<16>; x = a * b;")
        assert eval_reference(spec, {"a": -1, "b": -1}).bits == 1

    def test_divide_by_zero_names_the_node(self):
        spec = _spec("input a: signed<8>; input b: signed<8>;"
                     "output x: signed<8>; x = a / b;")
        with pytest.raises(DivideByZero) as info:
            eval_reference(spec, {"a": 5, "b": 0})
        assert info.value.node is not None

    def test_truncation_to_output_width(self):
        spec = _spec("input a: unsigned<8>; input b: unsigned<8>;"
                     "output x: unsigned<4>; x = a * b;")
        # 20 * 13 = 260 = 0x104 at 16 bits; output keeps the low 4.
        assert eval_reference(spec, {"a": 20, "b": 13}).bits == 0x4


def _leaf_divisors(spec) -> list[str]:
    dfg = spec.dfg
    ops = [dfg.nodes[i] for i in dfg.order]
    return sorted({dfg.nodes[n.right].decl.name for n in ops
                   if n.kind in DIV_FAMILY
                   and isinstance(dfg.nodes[n.right], LeafNode)})


def _outcome(oracle, spec, vec):
    try:
        return oracle(spec, vec).bits
    except DivideByZero as exc:
        return ("divide-by-zero", exc.node, str(exc))


class TestOracleSameAsTheScalarReference:
    """reference_columns and its one-vector wrapper eval_reference agree
    with the scalar oracle kept at the bottom of this file, on specs with
    1- to 3-bit operands and with zero divisors: the same result bits, or a
    zero divisor at the same node with the same message."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([FuzzConfig(max_inputs=4, max_depth=4,
                                       widths=(1, 2, 3)),
                            FuzzConfig(max_inputs=6, max_depth=5)]),
           st.data())
    def test_results_and_zero_divisors(self, seed, config, data):
        rng = random.Random(seed)
        spec = random_spec(rng, "p", config)
        vectors = rows(random_vectors(rng, spec, 24))
        for vec in vectors[::2]:
            for name in _leaf_divisors(spec):
                if data.draw(st.booleans()):
                    vec[name] = 0
        expected = [_outcome(scalar_eval_reference, spec, vec)
                    for vec in vectors]
        assert [_outcome(eval_reference, spec, vec) for vec in vectors] \
            == expected
        reference = reference_columns(spec, input_columns(spec, vectors),
                                      len(vectors))
        assert [bits if node is None else
                ("divide-by-zero", node, f"zero divisor at node {node}")
                for bits, node in zip(reference.result,
                                      reference.zero_divisor)] == expected

    def test_node_columns(self):
        # a is node 0, a * b (6 bits) node 1, b node 2, the difference
        # (6 bits) node 3; the 4-bit output keeps the low bits of the root
        inputs = "input a: signed<4>; input b: unsigned<2>;"
        columns = {"a": [-8, 7], "b": [3, 0]}
        reference = reference_columns(
            _spec(inputs + "output x: signed<4>; x = (a * b) - a;"), columns, 2)
        assert reference.zero_divisor == [None, None]
        assert reference.result == [0, 0xFFFFFFF9]
        # each node, read with its signedness, is the root of a spec whose
        # 32-bit signed output keeps all of it
        for expr, node in [("a", [-8, 7]), ("a * b", [-24, 0]), ("b", [3, 0]),
                           ("(a * b) - a", [-16, -7])]:
            spec = _spec(inputs + f"output x: signed<32>; x = {expr};")
            assert reference_columns(spec, columns, 2).result == \
                [value & 0xFFFFFFFF for value in node]

    def test_first_zero_divisor_in_order_wins(self):
        spec = _spec("input a: signed<8>; input b: signed<8>;"
                     "input c: unsigned<8>; output x: signed<8>;"
                     "x = (a / b) % c;")
        reference = reference_columns(
            spec, {"a": [1, 1, 1, 1], "b": [0, 1, 0, 1], "c": [0, 0, 1, 1]}, 4)
        assert reference.zero_divisor == [1, 3, 1, None]
        assert reference.result[3] == 0


# The C model of a spec: helpers, then one function per spec (c_function)
# and a main that reads "<function> <count> <inputs...>" lines.
C_PRELUDE = """\
#include <inttypes.h>
#include <stdio.h>

/* the low w bits of x (1 <= w <= 32), read as signed when s */
static int64_t cut(uint64_t x, int w, int s)
{
    uint64_t high = x << (64 - w);
    return s ? (int64_t)high >> (64 - w) : (int64_t)(high >> (64 - w));
}

/* the flooring modulus: the remainder with the divisor's sign */
static int64_t floor_mod(int64_t a, int64_t b)
{
    int64_t r = a % b;
    return r != 0 && (r < 0) != (b < 0) ? r + b : r;
}
"""

C_MAIN = """
int main(void)
{
    int k, n;
    int64_t in[1024];
    while (scanf("%d %d", &k, &n) == 2) {
        for (int i = 0; i < n; i++)
            if (scanf("%" SCNd64, &in[i]) != 1)
                return 1;
        functions[k](in);
    }
    return 0;
}
"""

# Each operation as C evaluates it on int64_t operands: +, - and * in
# uint64_t, whose low bits are exact; / and % truncating (C99 6.5.5).
C_OPERATIONS = {
    OpKind.ADD: "(uint64_t){a} + (uint64_t){b}",
    OpKind.SUB: "(uint64_t){a} - (uint64_t){b}",
    OpKind.MUL: "(uint64_t){a} * (uint64_t){b}",
    OpKind.DIVS: "(uint64_t)({a} / {b})", OpKind.DIVU: "(uint64_t)({a} / {b})",
    OpKind.REMS: "(uint64_t)({a} % {b})", OpKind.REMU: "(uint64_t)({a} % {b})",
    OpKind.MODS: "(uint64_t)floor_mod({a}, {b})",
    OpKind.MODU: "(uint64_t)floor_mod({a}, {b})",
}


def c_function(spec: CiSpec, name: str) -> str:
    """spec.dfg as a C function of the inputs in declaration order.  It
    prints "r <result port>" or, at the first node in Dfg.order that meets
    a zero divisor, "z <node>"."""
    dfg = spec.dfg
    slot = {decl.name: k for k, decl in enumerate(spec.inputs)}
    lines = [f"static void {name}(const int64_t *in)", "{"]
    lines += [f"    int64_t v{leaf.id} = in[{slot[leaf.decl.name]}];"
              for leaf in dfg.leaves]
    for node_id in dfg.order:
        node = dfg.nodes[node_id]
        a, b = f"v{node.left}", f"v{node.right}"
        if node.kind in DIV_FAMILY:
            lines.append(f'    if ({b} == 0) {{ printf("z {node_id}\\n"); return; }}')
        value = C_OPERATIONS[node.kind].format(a=a, b=b)
        lines.append(f"    int64_t v{node_id} = cut({value}, {dfg.width[node_id]}, "
                     f"{int(dfg.signed[node_id])});")
    out = spec.output
    lines += [f'    printf("r %" PRIu32 "\\n", (uint32_t)cut((uint64_t)v{dfg.root}, '
              f"{out.width}, {int(out.signed)}));", "}"]
    return "\n".join(lines) + "\n"


def gcc_cases() -> list[tuple[CiSpec, dict[str, list[int]], int]]:
    """y = a OP b for every operator and signedness pair of two 4-bit
    inputs, to an output narrower than the node and to one wider with the
    other signedness, on all 256 vectors; then the worked examples and the
    paper's 3D transform on 256 drawn vectors."""
    sweep = [dict(zip("ab", pair)) for pair in
             itertools.product(range(-8, 16), repeat=2)]
    cases = []
    for symbol, sign_a, sign_b in itertools.product(
            OPERATORS, ("signed", "unsigned"), ("signed", "unsigned")):
        decls = f"input a: {sign_a}<4>; input b: {sign_b}<4>;"
        node = _spec(f"{decls} output y: signed<32>; y = a {symbol} b;").dfg
        width, signed = node.width[node.root], node.signed[node.root]
        for out_width, out_signed in ((width - 1, signed), (width + 1, not signed)):
            kind = "signed" if out_signed else "unsigned"
            spec = _spec(f"{decls} output y: {kind}<{out_width}>; y = a {symbol} b;")
            bounds = [decl.bounds for decl in spec.inputs]
            vectors = [vec for vec in sweep
                       if all(lo <= vec[d.name] <= hi
                              for d, (lo, hi) in zip(spec.inputs, bounds))]
            assert len(vectors) == 256
            cases.append((spec, input_columns(spec, vectors), 256))
    rng = random.Random(27)
    for text in (MAC_TEXT, NARROW_TEXT, MOD_TEXT,
                 (GOLDEN_DIR / "t3d.ci").read_text()):
        spec = parse_ci_spec(text)
        cases.append((spec, random_vectors(rng, spec, 256), 256))
    return cases


def oracle_differences(cases, printed: list[str]) -> list[tuple]:
    """(spec, vector, oracle, gcc) for each vector on which
    sim.reference_columns and the printed lines disagree."""
    lines = iter(printed)
    differences = []
    for spec, columns, count in cases:
        reference = sim.reference_columns(spec, columns, count)
        for k, (bits, node) in enumerate(zip(reference.result,
                                             reference.zero_divisor)):
            expected = f"r {bits}" if node is None else f"z {node}"
            line = next(lines)
            if line != expected:
                differences.append((spec.name, {n: c[k] for n, c in columns.items()},
                                    expected, line))
    return differences


def oracle_mutant(old: str, new: str):
    """sim.reference_columns with the one occurrence of old replaced."""
    source = textwrap.dedent(inspect.getsource(sim.reference_columns))
    assert source.count(old) == 1
    namespace = dict(vars(sim))
    exec(source.replace(old, new), namespace)
    return namespace["reference_columns"]


_GCC = shutil.which("gcc")


@pytest.mark.skipif(_GCC is None, reason="gcc is not installed")
class TestOracleSameAsGcc:
    """reference_columns agrees with gcc running each spec's dataflow graph
    as C (differential testing, after McKeeman 1998): the same result port,
    or a zero divisor at the same node.  One program holds the chosen specs,
    a second the acceptance corpus and the wide designs."""

    @staticmethod
    def _run(cases, directory, optimize):
        """cases compiled into one program at the optimize level and run:
        the cases and the lines it prints."""
        names = [f"f{k}" for k in range(len(cases))]
        program = directory / "oracle"
        source = C_PRELUDE + "".join(
            c_function(spec, name) for (spec, _, _), name in zip(cases, names)) \
            + f"static void (*const functions[])(const int64_t *) = {{{', '.join(names)}}};\n" \
            + C_MAIN
        subprocess.run([_GCC, "-std=c99", optimize, "-Wall", "-Wextra", "-Werror",
                        "-x", "c", "-", "-o", str(program)], input=source.encode(),
                       check=True, timeout=60)
        stdin = "".join(
            f"{k} {len(spec.inputs)} {' '.join(str(columns[d.name][v]) for d in spec.inputs)}\n"
            for k, (spec, columns, count) in enumerate(cases) for v in range(count))
        done = subprocess.run([str(program)], input=stdin.encode(),
                              capture_output=True, check=True, timeout=60)
        return cases, done.stdout.decode().splitlines()

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        return self._run(gcc_cases(), tmp_path_factory.mktemp("oracle"), "-O1")

    @pytest.fixture(scope="class")
    def corpus_run(self, tmp_path_factory):
        # the acceptance corpus at 256 vectors, the wide designs at 4
        rng = random.Random(31)
        cases = [(spec, random_vectors(rng, spec, count), count)
                 for specs, count in (([s for s, _ in corpus()], 256),
                                      (wide_specs(), 4))
                 for spec in specs]
        # its 11 000 lines of C compile about four times faster at -O0
        return self._run(cases, tmp_path_factory.mktemp("corpus"), "-O0")

    def test_no_difference(self, run):
        cases, printed = run
        assert len(printed) == sum(count for _, _, count in cases) == 52 * 256
        assert oracle_differences(cases, printed) == []

    def test_no_difference_over_the_corpus(self, corpus_run):
        cases, printed = corpus_run
        assert len(printed) == 500 * 256 + 5 * 4
        assert oracle_differences(cases, printed) == []

    @pytest.mark.parametrize("old, new", [
        ("-(-a % b) if (a < 0) != (b < 0) else a % b", "a % b"),
        ("-(-a // b) if (a < 0) != (b < 0) else a // b", "a // b"),
        ("adapt_root(values[dfg.root], spec.output)",
         "adapt_root(values[dfg.root], spec.output._replace(signed=dfg.signed[dfg.root]))"),
    ], ids=["rems-floored", "divs-floored", "root-cut-with-the-node-signedness"])
    def test_a_mutated_oracle_differs(self, run, monkeypatch, old, new):
        monkeypatch.setattr(sim, "reference_columns", oracle_mutant(old, new))
        assert oracle_differences(*run)


class TestCheckEquivalenceInputs:
    """Bad inputs are refused with one vector's messages: input_columns
    range-checks whole columns and names the first vector that it refuses
    alone as it refuses it alone, and check_equivalence refuses a missing,
    unknown, short or out-of-range column."""

    SPEC = ("input s: signed<8>; input u: unsigned<8>;"
            "output x: signed<8>; x = s + u;")

    @pytest.mark.parametrize("bad", [
        {"s": 0},
        {"s": 0, "ghost": 1},
        {"s": 0, "u": 0, "ghost": 1},
        {"s": 128, "u": 0},
        {"s": 0, "u": -1},
    ])
    @pytest.mark.parametrize("later", [
        [{"s": 1, "u": 1}],
        [{"s": 0, "u": 256}, {"ghost": 0}],
    ], ids=["then-good", "then-bad"])
    def test_same_error_as_one_vector(self, bad, later):
        spec = _spec(self.SPEC)
        vectors = [{"s": -128, "u": 255}, {"s": 127, "u": 0}, dict(bad),
                   *later]
        with pytest.raises(CigenError, match=INPUT_FAULT) as expected:
            input_columns(spec, [bad])
        with pytest.raises(CigenError, match=INPUT_FAULT) as info:
            input_columns(spec, vectors)
        assert str(info.value) == str(expected.value)

    @pytest.mark.parametrize("columns, message", [
        ({"s": [0, 1, 2]}, "missing value for input 'u'"),
        ({"s": [0, 1, 2], "u": [0, 1, 2], "ghost": [0, 0, 0]},
         "'ghost' is not an input of t"),
        ({"s": [0, 1, 2], "u": [0, 1]}, "input 'u' has 2 values, input 's' has 3"),
        ({"s": [0, 1, 2], "u": [0, 1, 2, 3]},
         "input 'u' has 4 values, input 's' has 3"),
        ({"s": [0, -129, 2], "u": [0, 1, 2]},
         "input 's' = -129 does not fit signed<8>"),
        ({"s": [0, 1, 2], "u": [255, 0, 256]},
         "input 'u' = 256 does not fit unsigned<8>"),
    ], ids=["missing", "unknown", "short", "long", "below", "above"])
    def test_bad_columns(self, columns, message):
        spec = _spec(self.SPEC)
        mapped = map_design(spec)
        with pytest.raises(CigenError, match=INPUT_FAULT) as info:
            check_equivalence(spec, mapped, columns, build_design(spec, mapped))
        assert str(info.value) == message

    def test_out_of_range_column_names_what_one_vector_names(self):
        spec = _spec(self.SPEC)
        mapped = map_design(spec)
        vector = {"s": 5, "u": 300}
        with pytest.raises(CigenError, match=INPUT_FAULT) as expected:
            input_columns(spec, [vector])
        with pytest.raises(CigenError, match=INPUT_FAULT) as info:
            check_equivalence(spec, mapped, {"s": [1, 5], "u": [2, 300]},
                              build_design(spec, mapped))
        assert str(info.value) == str(expected.value)


class TestSimulateWorkedExample:
    def test_result_and_done(self, mac_spec):
        out = simulate_ci(mac_spec, MAC_INPUTS)
        assert out.result.bits == 10
        assert out.done_cycle == 3
        assert out.done_cycle_enabled == 3

    def test_trace_rows(self, mac_spec):
        out = simulate_ci(mac_spec, MAC_INPUTS)
        assert [row["cycle"] for row in out.rows] == [0, 1, 2, 3, 4, 5]
        for row in out.rows:
            assert set(row) == {"cycle", "clk_en", "start", "dataa", "datab",
                                "regs", "done", "result"}
            assert "cnt" in row["regs"]
        done_rows = [r for r in out.rows if r["done"]]
        assert len(done_rows) == 1
        assert done_rows[0]["cycle"] == 3
        assert done_rows[0]["result"] == 10
        # start only on the first cycle; counter wraps after done
        assert [r["start"] for r in out.rows] == [1, 0, 0, 0, 0, 0]
        assert out.rows[4]["regs"]["cnt"] == 0

    def test_register_timeline(self, mac_spec):
        rows = simulate_ci(mac_spec, MAC_INPUTS).rows
        # pair (a,b) latches at the end of cycle 0, c one cycle later,
        # the product at the end of cycle 2
        assert rows[0]["regs"]["r_a"] == 0
        assert rows[1]["regs"]["r_a"] == 2
        assert rows[1]["regs"]["r_b"] == 3
        assert rows[1]["regs"]["r_c"] == 0
        assert rows[2]["regs"]["r_c"] == 4
        assert rows[2]["regs"]["s_1"] == 0
        assert rows[3]["regs"]["s_1"] == 6

    def test_record_flag_controls_rows(self, mac_spec):
        assert simulate_ci(mac_spec, MAC_INPUTS, record=False).rows == []


class TestStimulus:
    def test_clk_en_gaps_shift_only_absolute_time(self, mac_spec):
        stim = Stimulus(clk_en_low=frozenset({1, 2, 5}))
        out = simulate_ci(mac_spec, MAC_INPUTS, stim)
        assert out.result.bits == 10
        assert out.done_cycle_enabled == 3
        assert out.done_cycle == 6

    def test_registers_hold_through_gaps(self, mac_spec):
        stim = Stimulus(clk_en_low=frozenset({1, 2, 5}))
        rows = simulate_ci(mac_spec, MAC_INPUTS, stim).rows
        for i, row in enumerate(rows[:-1]):
            if not row["clk_en"]:
                assert rows[i + 1]["regs"] == row["regs"]

    def test_reset_mid_flight_restarts(self, mac_spec):
        stim = Stimulus(reset_cycles=frozenset({2}))
        out = simulate_ci(mac_spec, MAC_INPUTS, stim)
        assert out.result.bits == 10
        assert out.done_cycle == 6  # 2 wasted cycles + reset cycle itself
        after_reset = out.rows[3]["regs"]
        assert all(v == 0 for v in after_reset.values())

    def test_delayed_start(self, mac_spec):
        out = simulate_ci(mac_spec, MAC_INPUTS, Stimulus(start_cycle=4))
        assert out.done_cycle == 7
        assert out.done_cycle_enabled == 3

    def test_frequent_resets_still_finish(self, mac_spec):
        # a reset every third cycle restarts the unit two cycles into its
        # three, as `cigen simulate --reset-at 2,5,8,...` would; the last
        # one, at cycle 998, leaves it three enabled cycles to finish
        stim = Stimulus(reset_cycles=frozenset(range(2, 1000, 3)))
        out = simulate_ci(mac_spec, MAC_INPUTS, stim)
        assert out.result.bits == 10
        assert out.done_cycle == 1002
        assert out.done_cycle_enabled == 3
        assert len(out.rows) == 1005


class TestSimulatedFaults:
    def test_interior_divide_fault_carries_stage_cycle(self):
        spec = _spec("input a: signed<8>; input b: signed<8>;"
                     "input c: signed<8>; output x: signed<8>;"
                     "x = (a / b) + c;")
        with pytest.raises(DivideByZero) as info:
            simulate_ci(spec, {"a": 5, "b": 0, "c": 1})
        # k=3 loads twice, the divider latches at enabled cycle 2
        assert info.value.cycle == 2
        assert info.value.node is not None

    def test_root_divide_fault_at_done_cycle(self):
        spec = _spec("input a: signed<8>; input b: signed<8>;"
                     "output x: signed<8>; x = a / b;")
        with pytest.raises(DivideByZero) as info:
            simulate_ci(spec, {"a": 5, "b": 0})
        assert info.value.cycle == 1

    def test_fault_matches_reference(self):
        spec = _spec("input a: signed<8>; input b: signed<8>;"
                     "output x: signed<8>; x = a % b;")
        mapped = map_design(spec)
        assert check_equivalence(spec, mapped,
                                 input_columns(spec, [{"a": 5, "b": 0}]),
                                 build_design(spec, mapped)) == []


class TestIdentity:
    def test_done_one_cycle_after_single_load(self):
        spec = _spec("input a: signed<8>; output x: signed<32>; x = a;")
        out = simulate_ci(spec, {"a": -3})
        assert out.done_cycle_enabled == 1
        assert out.result.bits == 0xFFFFFFFD
        done_rows = [r for r in out.rows if r["done"]]
        assert [r["cycle"] for r in done_rows] == [1]


class TestEquivalence:
    def test_worked_example_vectors(self, mac_spec, mac_mapped):
        rng = random.Random(7)
        vectors = random_vectors(rng, mac_spec, 100)
        assert check_equivalence(mac_spec, mac_mapped, vectors,
                                 build_design(mac_spec, mac_mapped)) == []

    def test_corrupted_direction_is_caught(self, mac_spec, mac_mapped):
        add = next(i for i in mac_mapped.instances
                   if isinstance(i.generics, AddSubGenerics))
        flipped = add._replace(
            generics=AddSubGenerics(add.generics.width, Direction.SUB))
        corrupted = mac_mapped._replace(
            instances=tuple(flipped if i is add else i
                            for i in mac_mapped.instances))
        vectors = [dict(MAC_INPUTS), {"a": 1, "b": 1, "c": 1}]
        mismatches = check_equivalence(mac_spec, corrupted,
                                       input_columns(mac_spec, vectors),
                                       build_design(mac_spec, corrupted))
        assert mismatches
        assert {"inputs", "reference", "simulated"} <= set(mismatches[0])
        assert [record["inputs"] for record in mismatches] == vectors

    def test_divide_fault_on_one_side_only_is_caught(self, mac_spec,
                                                     mac_mapped):
        # Same shape as the corrupted-direction case but for fault parity:
        # the reference sees a zero divisor, the corrupted netlist does not.
        spec = _spec("input a: signed<8>; input b: signed<8>;"
                     "output x: signed<8>; x = a / b;")
        mapped = map_design(spec)
        records = check_equivalence(
            spec, mapped, input_columns(spec, [{"a": 1, "b": 0}, {"a": 1, "b": 1}]),
            build_design(spec, mapped))
        assert records == []


class TestExecutesTheDesign:
    """The simulator runs the HdlDesign it is given, and faults of that
    design are internal check failures."""

    def test_undriven_wire(self, mac_spec, mac_mapped):
        design = build_design(mac_spec, mac_mapped)
        design = with_arch(design,
                            instances=design.architecture.instances[1:])
        with pytest.raises(InternalCheckError, match="no driver"):
            check_equivalence(mac_spec, mac_mapped,
                              input_columns(mac_spec, [MAC_INPUTS]), design=design)

    def test_component_contract_breach(self, mac_spec, mac_mapped):
        design = build_design(mac_spec, mac_mapped)
        mul, add = design.architecture.instances
        narrow = add._replace(generics=AddSubGenerics(16, Direction.ADD))
        design = with_arch(design, instances=(mul, narrow))
        with pytest.raises(InternalCheckError):
            check_equivalence(mac_spec, mac_mapped,
                              input_columns(mac_spec, [MAC_INPUTS]), design=design)

    def test_chain_deeper_than_the_recursion_limit(self, mac_spec, mac_mapped):
        # 1200 assignments on one load's path: more than Python's default
        # recursion limit of 1000 frames
        design = _chained_operand(build_design(mac_spec, mac_mapped), 1200)
        vectors = random_vectors(random.Random(5), mac_spec, 16)
        assert check_equivalence(mac_spec, mac_mapped, vectors, design) == []


def _chained_operand(design: ast.HdlDesign, length: int) -> ast.HdlDesign:
    """design with the multiplier reading r_a through a chain of length
    concurrent assignments: w_c0 <= r_a, w_c1 <= w_c0, and so on."""
    arch = design.architecture
    chain = [f"w_c{i}" for i in range(length)]
    mul, add = arch.instances
    mul = mul._replace(wires=tuple(chain[-1] if wire == "r_a" else wire
                                   for wire in mul.wires))
    return with_arch(
        design, instances=(mul, add),
        signals=arch.signals + tuple(ast.SignalDecl(name, 32) for name in chain),
        assigns=arch.assigns + tuple(ast.Assign(name, ast.Ref(source))
                                     for name, source in zip(chain, ["r_a", *chain])))


class TestDoneContract:
    """check_equivalence compares the lowered design's done cycle with the
    latency contract once per design, before any vector runs, so a late
    done is refused even where no vector compares a result."""

    def test_late_done_is_refused_when_every_vector_faults(self):
        spec = parse_ci_spec(UNDEFINED_TEXT)
        mapped = map_design(spec)
        design = build_design(spec, mapped)
        vectors = random_vectors(random.Random(15), spec, 256)
        reference = reference_columns(spec, vectors, 256)
        assert None not in reference.zero_divisor
        assert check_equivalence(spec, mapped, vectors, design) == []
        late = done_one_step_late(design)
        for batch in (vectors, input_columns(spec, [])):
            with pytest.raises(InternalCheckError, match=(
                    "u: done is high on enabled cycle 4, the latency "
                    "contract says 3")):
                check_equivalence(spec, mapped, batch, late)


def _cut_steps(design: ast.HdlDesign) -> ast.HdlDesign:
    process = design.architecture.process
    return with_arch(design, process=process._replace(steps=process.steps[:2]))


def _result_reads_itself(design: ast.HdlDesign) -> ast.HdlDesign:
    return with_arch(design, assigns=(ast.Assign("result", ast.Ref("result")),))


def _signal_of_65_bits(design: ast.HdlDesign) -> ast.HdlDesign:
    return with_arch(design, signals=design.architecture.signals + (
        ast.SignalDecl("w_wide", 65),))


def _result_of(expr: ast.Expr):
    """The mutation that puts expr on the result port."""
    def mutate(design: ast.HdlDesign) -> ast.HdlDesign:
        return with_arch(design, assigns=(ast.Assign("result", expr),))
    return mutate


def _mod_correct_by_narrower(design: ast.HdlDesign) -> ast.HdlDesign:
    # a 32-bit remainder corrected by a 16-bit divisor
    arch = design.architecture
    return with_arch(
        design,
        signals=arch.signals + (ast.SignalDecl("w_n", 16), ast.SignalDecl("w_m", 32)),
        assigns=arch.assigns + (ast.Assign(
            "w_m", ast.ModCorrect("w_3", "w_n")),))


def _with_load_in_step_2(design: ast.HdlDesign, expr: ast.Expr,
                          width: int) -> ast.HdlDesign:
    """The worked example's design with s_x, a width-bit register that w_x
    reads, loaded from expr on step 2 after s_1 <= w_1_p."""
    arch = design.architecture
    first, second, third, *rest = arch.process.steps
    third = (*third, ast.Assign("s_x", expr))
    return with_arch(
        design,
        signals=arch.signals + (ast.SignalDecl("s_x", width), ast.SignalDecl("w_x", width)),
        assigns=arch.assigns + (ast.Assign("w_x", ast.Ref("s_x")),),
        process=arch.process._replace(steps=(first, second, third, *rest)))


class TestLoweringChecks:
    """Faults of the control chain or the wiring are refused when the
    design is lowered, before any vector runs.  The lowering is the only
    connectivity gate: validate_structure checks naming alone."""

    @pytest.mark.parametrize("mutate, message", [
        (_cut_steps, "done is never set"),
        pytest.param(done_past_the_last_step, "done is never set",
                     id="_never_done-done is never set"),
        (_result_reads_itself, "combinational loop"),
        *WIRING_FAULTS,
        (_signal_of_65_bits, "f: 65-bit w_wide"),
        (_result_of(ast.Slice("w_3", 16)), "f: 16-bit value on result, declared 32"),
        (_result_of(ast.Slice("w_3", 0)), "f: slice of 0 bits from 32-bit w_3"),
        (_result_of(ast.Slice("w_3", 33)), "f: slice of 33 bits from 32-bit w_3"),
        (_result_of(ast.Resize(ast.Ref("w_3"), True, 0)), "f: 0-bit resize"),
        (_result_of(ast.Resize(ast.Ref("w_3"), False, 65)), "f: 65-bit resize"),
        (_mod_correct_by_narrower,
         "f: mod correction of 32-bit w_3 by 16-bit w_n"),
        (with_unread_register, "f: register s_3 is never read"),
    ])
    def test_refused(self, mac_spec, mac_mapped, mutate, message):
        design = mutate(build_design(mac_spec, mac_mapped))
        with pytest.raises(InternalCheckError, match=message):
            IndexedDesign(design)

    def test_a_nested_load_runs_to_its_kernels_value(self, mac_spec, mac_mapped):
        # the Slice is a node no signal holds: its record drives an int key
        expr = ast.Resize(ast.Slice("w_1_p", 16), True, 32)
        design = IndexedDesign(_with_load_in_step_2(
            build_design(mac_spec, mac_mapped), expr, 32))
        columns = input_columns(mac_spec, [{"a": 300, "b": 200, "c": 1},
                                           {"a": -3, "b": 5, "c": 0}])
        execution = design.execute(operand_columns(mac_mapped, columns, 2), 2, set())
        _, _, values, _ = next(itertools.islice(execution, 3, None))
        assert values["w_1_p"] == [60000, -15 & 0xFFFFFFFF]
        low, = low_bits(16, set(), values["w_1_p"])
        assert values["s_x"] == list(resize((16, True, 32), set(), low)[0]) \
            == [0xFFFFEA60, 0xFFFFFFF1]
        assert [kernel for kernel, *_ in design._programs[2][0]] == \
            [MultGenerics.component.kernel, None, low_bits, resize]

    def test_two_loads_of_one_wire_run_its_driver_once(self, mac_spec, mac_mapped):
        design = IndexedDesign(_with_load_in_step_2(
            build_design(mac_spec, mac_mapped), ast.Slice("w_1_p", 8), 8))
        program, _, _ = design._programs[2]
        assert [(reads, writes) for _, _, reads, writes in program] == [
            (("r_a", "r_b"), ("w_1_p",)), (("w_1_p",), "s_1"), (("w_1_p",), "s_x")]

    @pytest.mark.parametrize("text", [MAC_TEXT, NARROW_TEXT, MOD_TEXT,
                                      (GOLDEN_DIR / "t3d.ci").read_text()],
                             ids=["f", "g", "h", "t3d"])
    def test_every_golden_load_is_a_ref_or_a_slice(self, text):
        # no load reads through an inner node, so a cache of the lowering's
        # int keys would never hit (the wide designs: test_acceptance)
        spec = parse_ci_spec(text)
        assert load_kinds(build_design(spec, map_design(spec))) <= {ast.Ref, ast.Slice}

    def test_port_wider_than_any_declared_width(self, mac_spec, mac_mapped):
        # port_widths() leaves the 1..64 range to the lowering, which
        # declares no signal wider than 64 bits
        design = build_design(mac_spec, mac_mapped)
        mul, add = design.architecture.instances
        wide = add._replace(generics=AddSubGenerics(65, Direction.ADD))
        assert wide.generics.port_widths() == ((65, 65), (65,))
        with pytest.raises(InternalCheckError,
                           match="u_add_1 needs 65 bits on s_1, declared 32"):
            IndexedDesign(with_arch(design, instances=(mul, wide)))


class TestPortsInOrder:
    """An instance's wires bind to its component's ports in declaration
    order: emit_instance prints them so, and a reordered wire list is
    another wiring, which the lowering or the check refuses."""

    SPEC = ("input a: signed<8>; input b: unsigned<12>; output x: signed<16>;"
            "x = (a % b) * a + b / a;")

    def test_port_map_pairs_each_port_with_its_wire(self):
        spec = _spec(self.SPEC)
        for inst in build_design(spec, map_design(spec)).architecture.instances:
            ports = emit_instance(inst).split("port map (\n")[1]
            assert [tuple(line.strip().rstrip(",").split(" => "))
                    for line in ports.splitlines()[:-1]] == \
                [(port.name, wire) for port, wire in
                 zip(inst.generics.component.decl.ports, inst.wires)]

    def test_rotated_wires_are_refused(self):
        spec = _spec(self.SPEC)
        mapped = map_design(spec)
        design = build_design(spec, mapped)
        instances = design.architecture.instances
        kinds = {inst.generics.component.name for inst in instances}
        assert kinds == {"ADD_SUB", "MULT", "DIVIDE", "CONCAT_EXTEND"}
        vectors = random_vectors(random.Random(11), spec, 200)
        for index, inst in enumerate(instances):
            # rotated by one: no wire left on the port it was built for
            rotated = inst._replace(wires=inst.wires[1:] + inst.wires[:1])
            broken = with_arch(design, instances=(
                *instances[:index], rotated, *instances[index + 1:]))
            try:
                mismatches = check_equivalence(spec, mapped, vectors, broken)
            except InternalCheckError:
                continue
            assert mismatches, inst.label


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_simulation_matches_reference(self, seed):
        rng = random.Random(seed)
        spec = random_spec(rng, "p", FuzzConfig(max_inputs=5, max_depth=3))
        mapped = map_design(spec)
        vectors = random_vectors(rng, spec, 12)
        assert check_equivalence(spec, mapped, vectors,
                                 build_design(spec, mapped)) == []

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sets(st.integers(0, 20), max_size=6))
    def test_gating_never_changes_the_result(self, seed, gaps):
        rng = random.Random(seed)
        spec = random_spec(rng, "p", FuzzConfig(max_inputs=4, max_depth=3))
        mapped = map_design(spec)
        vec = random_vector(rng, spec)
        try:
            plain = simulate_ci(spec, vec, record=False)
        except DivideByZero:
            return
        gated = simulate_ci(spec, vec, Stimulus(clk_en_low=frozenset(gaps)),
                            record=False)
        assert gated.result.bits == plain.result.bits
        assert gated.done_cycle_enabled == plain.done_cycle_enabled \
            == done_cycle_enabled(mapped)
        assert gated.done_cycle >= plain.done_cycle


class TestBatchMatchesStepper:
    """The batched run and simulate_ci execute one lowered design through
    one interpreter, so they agree vector by vector, divide-by-zero
    included."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_batch_agrees_with_simulate(self, seed, data):
        rng = random.Random(seed)
        spec = random_spec(rng, "p", FuzzConfig(max_inputs=5, max_depth=4))
        mapped = map_design(spec)
        dfg = mapped.dfg
        assume(any(dfg.nodes[i].kind in DIV_FAMILY for i in dfg.order))
        divisors = _leaf_divisors(spec)
        vectors = rows(random_vectors(rng, spec, 16))
        for vec in vectors[::2]:
            for name in divisors:
                if data.draw(st.booleans()):
                    vec[name] = 0
        design = IndexedDesign(build_design(spec, mapped))
        results, faults = design.run(
            operand_columns(mapped, input_columns(spec, vectors), len(vectors)),
            len(vectors))
        for index, vec in enumerate(vectors):
            try:
                one = simulate_ci(spec, vec, record=False)
            except DivideByZero:
                assert index in faults
                continue
            assert index not in faults
            assert results[index] == one.result.bits
            assert design.done_cycle == one.done_cycle_enabled


def _simulated(simulate, *args):
    """An invocation's outcome: its trace as `cigen simulate --trace` writes
    it, result and both done cycles, or the cycle and node at which a zero
    divisor was met."""
    try:
        out = simulate(*args)
    except DivideByZero as exc:
        return ("divide-by-zero", exc.cycle, exc.node)
    trace = "".join(json.dumps(row) + "\n" for row in out.rows)
    return (trace, out.result, out.done_cycle, out.done_cycle_enabled)


class TestTimelineMatchesStepper:
    """simulate_ci replays one execution of the design on the stimulus
    timeline, and agrees with the cycle stepper kept at the bottom of this
    file wherever that stepper finishes: the same trace bytes, result and
    done cycles, or a zero divisor on the same cycle at the same node."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data(),
           st.sets(st.integers(0, 40), max_size=8),
           st.sets(st.integers(0, 40), max_size=5),
           st.integers(0, 12), st.booleans())
    def test_same_outcome(self, seed, data, gaps, resets, start, record):
        rng = random.Random(seed)
        spec = random_spec(rng, "p", FuzzConfig(max_inputs=5, max_depth=4))
        mapped = map_design(spec)
        vec = random_vector(rng, spec)
        for name in _leaf_divisors(spec):
            if data.draw(st.booleans()):
                vec[name] = 0
        design = build_design(spec, mapped)
        stim = Stimulus(clk_en_low=frozenset(gaps),
                        reset_cycles=frozenset(resets), start_cycle=start)
        try:
            expected = _simulated(stepper_simulate_ci, spec, vec, mapped,
                                  stim, record, design)
        except NeverDone:
            return
        assert _simulated(simulate_ci, spec, vec, stim, record) == expected

    @pytest.mark.parametrize("stim", [
        Stimulus(),
        Stimulus(clk_en_low=frozenset({0, 3, 4, 9})),
        Stimulus(reset_cycles=frozenset({1, 4, 6}), start_cycle=2),
        Stimulus(clk_en_low=frozenset({2, 5}), reset_cycles=frozenset({5}),
             start_cycle=1),
    ])
    @pytest.mark.parametrize("inputs", [MAC_INPUTS, {"a": -1, "b": 7, "c": -9}])
    def test_worked_example(self, mac_spec, mac_mapped, stim, inputs):
        design = build_design(mac_spec, mac_mapped)
        for record in (True, False):
            assert _simulated(simulate_ci, mac_spec, inputs, stim, record) == \
                _simulated(stepper_simulate_ci, mac_spec, inputs, mac_mapped,
                           stim, record, design)


# --- the reference: eval_reference and mapper.adapt_root as they were
# before the oracle became columnar, kept (renamed), with BitVec.from_int
# and BitVec.interpret spelled out as wrapped and _interpret ---------------


def _trunc_div(n: int, d: int) -> int:
    q = abs(n) // abs(d)
    return -q if (n < 0) != (d < 0) else q


def scalar_eval_reference(spec: CiSpec, inputs: dict[str, int],
                          dfg: Dfg | None = None) -> BitVec:
    """Evaluate the expression over exact integers, reducing each node to its
    width, and adapt the root to the 32-bit result port.

    Division truncates toward zero; remainder takes the dividend's sign and
    modulus the divisor's sign.  A zero divisor raises DivideByZero naming
    the node.  ``dfg`` defaults to ``spec.dfg``.
    """
    input_columns(spec, [inputs])   # raises for a bad input
    if dfg is None:
        dfg = spec.dfg
    value = {leaf.id: inputs[leaf.decl.name] for leaf in dfg.leaves}
    for node_id in dfg.order:
        node = dfg.nodes[node_id]
        left, right = value[node.left], value[node.right]
        if node.kind == OpKind.ADD:
            raw = left + right
        elif node.kind == OpKind.SUB:
            raw = left - right
        elif node.kind == OpKind.MUL:
            raw = left * right
        else:
            if right == 0:
                raise DivideByZero(f"zero divisor at node {node_id}", node=node_id)
            if node.kind in (OpKind.DIVS, OpKind.DIVU):
                raw = _trunc_div(left, right)
            elif node.kind in (OpKind.REMS, OpKind.REMU):
                raw = left - _trunc_div(left, right) * right
            else:
                raw = left % right
        value[node_id] = _interpret(wrapped(raw, dfg.width[node_id]),
                                    dfg.signed[node_id])

    root = dfg.root
    root_bits = wrapped(value[root], dfg.width[root])
    return scalar_adapt_root(root_bits, dfg.signed[root], spec.output)


def scalar_adapt_root(value: BitVec, root_signed: bool,
                      out: OperandDecl) -> BitVec:
    """Adapt the root value to the declared output width, then to the 32-bit
    result port.  Widening follows the signedness of the value being widened;
    narrowing keeps the low bits."""
    if out.width < value.width:
        value = BitVec(out.width, value.bits & ((1 << out.width) - 1))
    elif out.width > value.width:
        value = wrapped(_interpret(value, root_signed), out.width)
    if value.width < 32:
        value = wrapped(_interpret(value, out.signed), 32)
    return value


def _interpret(value: BitVec, signed: bool) -> int:
    return value.signed if signed else value.unsigned


# --- the reference: simulate_ci as it was before it replayed
# IndexedDesign.execute on a stimulus timeline, kept (renamed) with its own
# cnt/started/done/enabled_count bookkeeping and its cycle limit.  It reads
# the HdlDesign itself, never the lowering: DesignWires computes each wire
# on demand from its driver, an instance through its generics'
# component.kernel or a concurrent assignment through lpm's low_bits,
# resize and mod_correct ---------------------------------------------------


class NeverDone(Exception):
    """The reference stepper gave up at its cycle limit."""


class DesignWires:
    """The wires of an HdlDesign, each computed when first read in a cycle
    from the registers, dataa and datab."""

    def __init__(self, design: ast.HdlDesign):
        arch = design.architecture
        self.widths = {p.name: p.width for p in ENTITY_PORTS}
        self.widths.update((s.name, s.width) for s in arch.signals)
        self.drivers: dict[str, object] = dict(arch.assigns)
        for inst in arch.instances:
            ins = len(inst.generics.port_widths()[0])
            for wire in inst.wires[ins:]:
                self.drivers[wire] = inst

    def width(self, expr) -> int:
        if isinstance(expr, ast.Ref):
            return self.widths[expr.name]
        if isinstance(expr, ast.ModCorrect):
            return self.widths[expr.remainder]
        return expr.width

    def value(self, expr, values: dict, faults: set[int], cycle: dict) -> list[int]:
        """expr's column under the register values, adding zero-divisor
        vectors to faults; cycle holds the wires computed so far."""
        if isinstance(expr, ast.Ref):
            return self.wire(expr.name, values, faults, cycle)
        if isinstance(expr, ast.Slice):
            return low_bits(expr.width, faults,
                            self.wire(expr.name, values, faults, cycle))[0]
        if isinstance(expr, ast.Resize):
            return resize((self.width(expr.operand), expr.signed, expr.width),
                          faults, self.value(expr.operand, values, faults, cycle))[0]
        return mod_correct(self.widths[expr.remainder], faults,
                           self.wire(expr.remainder, values, faults, cycle),
                           self.wire(expr.divisor, values, faults, cycle))[0]

    def wire(self, name: str, values: dict, faults: set[int], cycle: dict) -> list[int]:
        if name in values:
            return values[name]
        if name not in cycle:
            driver = self.drivers[name]
            if isinstance(driver, ast.Instance):
                ins = len(driver.generics.port_widths()[0])
                outs = driver.generics.component.kernel(
                    driver.generics, faults,
                    *[self.wire(wire, values, faults, cycle)
                      for wire in driver.wires[:ins]])
                cycle.update(zip(driver.wires[ins:], outs))
            else:
                cycle[name] = self.value(driver, values, faults, cycle)
        return cycle[name]


def stepper_simulate_ci(spec: CiSpec, inputs: dict[str, int], mapped,
                        stimulus: Stimulus, record: bool,
                        design: ast.HdlDesign):
    """Drive one invocation through the design cycle by cycle."""
    stim = stimulus
    loads = len(mapped.loading)
    done_target = done_cycle_enabled(mapped)
    pair_lines = operand_columns(mapped, input_columns(spec, [inputs]), 1)
    wires = DesignWires(design)
    process = design.architecture.process

    limit = stim.start_cycle + 4 * (done_target + 2) + \
        len(stim.clk_en_low) + len(stim.reset_cycles) + 8

    cleared = {name: [0] for name in process.registers()}
    values = dict(cleared)   # registers and ports
    cnt = 0
    done = False
    started = False      # a start pulse was consumed at an earlier edge
    enabled_count = 0    # enabled cycles completed since the start cycle
    rows = [] if record else None
    observed = None
    drain = 2 if record else 0   # post-done cycles kept in the trace

    for cycle in range(limit + 1):
        reset = cycle in stim.reset_cycles
        clk_en = cycle not in stim.clk_en_low
        wants_start = not started and not reset and cycle >= stim.start_cycle
        pair_index = min(enabled_count, loads - 1) if started else 0
        values["dataa"], values["datab"] = pair_lines[pair_index]

        if rows is not None:
            faults: set[int] = set()
            row_result = wires.wire("result", values, faults, {})[0]
            row_regs = {"cnt": cnt}
            row_regs.update((name, values[name][0]) for name in process.registers())
            rows.append({
                "cycle": cycle, "clk_en": int(clk_en),
                "start": int(wants_start), "dataa": values["dataa"][0],
                "datab": values["datab"][0], "regs": row_regs, "done": int(done),
                "result": None if faults else row_result,
            })

        if observed is not None:
            if cycle >= observed.done_cycle + drain:
                return observed._replace(rows=rows or [])
        elif done and clk_en and not reset:
            faults = set()
            final = wires.wire("result", values, faults, {})[0]
            if faults:
                raise DivideByZero("zero divisor reached the result port",
                                   cycle=enabled_count)
            observed = SimResult(BitVec(wires.widths["result"], final), cycle,
                                 enabled_count, [])
            if drain == 0:
                return observed._replace(rows=rows or [])

        # clock edge
        if reset:
            values.update(cleared)
            cnt = 0
            done = False
            started = False
            enabled_count = 0
            continue
        if not clk_en:
            continue
        if cnt == 0:
            if not wants_start:
                done = False
                continue
            started = True
            enabled_count = 0
        latched = []
        faults = set()
        computed: dict = {}
        for target, expr in process.steps[cnt]:
            latched.append((target, wires.value(expr, values, faults, computed)))
            if faults:
                node = next((n for n in mapped.analysis.operation_sequence
                             if node_reg(n) == target), None)
                raise DivideByZero("zero divisor latched",
                                   cycle=enabled_count, node=node)
        values.update(latched)
        done = cnt == process.done_step
        cnt = process.successor(cnt)
        enabled_count += 1

    if observed is not None:
        return observed._replace(rows=rows or [])
    raise NeverDone(f"done never observed within {limit} cycles")
