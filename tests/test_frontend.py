"""Parser and dataflow-graph construction tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_text, nested_text
from cigen.cpatch import spec_match_tree
from cigen.errors import (
    DuplicateDeclaration,
    OpcodeOutOfRange,
    SpecSyntaxError,
    UndeclaredIdentifier,
    WidthOutOfRange,
)
from cigen.frontend import (
    MAX_EXPR_DEPTH,
    BinOp,
    Leaf,
    OpKind,
    OpNode,
    analyze,
    parse_ci_spec,
)
from cigen.fuzz import FuzzConfig, random_spec
from cigen.mapper import map_design
from cigen.sim import eval_reference

import random


def _spec(body: str, name: str = "t", opcode: int = 0) -> str:
    return f"ci {name}(opcode={opcode}) {{\n{body}\n}}"


def _kinds(spec_text: str) -> list[OpKind]:
    dfg = parse_ci_spec(spec_text).dfg
    order = analyze(dfg).operation_sequence
    return [dfg.node(i).kind for i in order]


_SYMBOLS = {
    OpKind.ADD: "+", OpKind.SUB: "-", OpKind.MUL: "*",
    OpKind.DIVS: "/", OpKind.DIVU: "/",
    OpKind.REMS: "%", OpKind.REMU: "%",
    OpKind.MODS: "mod", OpKind.MODU: "mod",
}


def _render(expr) -> str:
    """Independent fully-parenthesized serialization of an expression tree."""
    if isinstance(expr, Leaf):
        return expr.name
    return f"({_render(expr.left)} {_SYMBOLS[expr.kind]} {_render(expr.right)})"


class TestParse:
    def test_worked_example_shape(self, mac_spec):
        assert mac_spec.name == "f"
        assert mac_spec.opcode == 0
        assert [d.name for d in mac_spec.inputs] == ["a", "b", "c"]
        assert all(d.signed and d.width == 32 for d in mac_spec.inputs)
        assert mac_spec.output.name == "X"
        expr = mac_spec.expr
        assert isinstance(expr, BinOp) and expr.kind is OpKind.ADD
        assert isinstance(expr.left, BinOp) and expr.left.kind is OpKind.MUL
        assert isinstance(expr.left.left, Leaf) and expr.left.left.name == "a"
        assert isinstance(expr.right, Leaf) and expr.right.name == "c"

    def test_comments_and_whitespace_are_noise(self, mac_spec):
        text = ("ci f(opcode=0){  # header\n"
                "input a:signed<32>;input b:signed<32>;\n"
                "# mid comment\n"
                "input c:signed<32>;output X:signed<32>;\n"
                "X=(a*b)+c;}")
        spec = parse_ci_spec(text)
        assert spec.dfg.canonical() == mac_spec.dfg.canonical()

    @pytest.mark.parametrize("source,expected", [
        ("x = a + b * c;", [OpKind.MUL, OpKind.ADD]),
        ("x = (a + b) * c;", [OpKind.ADD, OpKind.MUL]),
        ("x = a - b - c;", [OpKind.SUB, OpKind.SUB]),
        ("x = a + b - c;", [OpKind.ADD, OpKind.SUB]),
        ("x = a * b / c;", [OpKind.MUL, OpKind.DIVS]),
    ])
    def test_precedence_and_associativity(self, source, expected):
        text = _spec("input a: signed<8>; input b: signed<8>;"
                     "input c: signed<8>; output x: signed<8>;" + source)
        assert _kinds(text) == expected

    @pytest.mark.parametrize("sign_a,sign_b,symbol,kind", [
        ("signed", "signed", "/", OpKind.DIVS),
        ("unsigned", "unsigned", "/", OpKind.DIVU),
        ("signed", "unsigned", "/", OpKind.DIVS),
        ("signed", "signed", "%", OpKind.REMS),
        ("unsigned", "unsigned", "%", OpKind.REMU),
        ("unsigned", "signed", "%", OpKind.REMS),
        ("signed", "signed", "mod", OpKind.MODS),
        ("unsigned", "unsigned", "mod", OpKind.MODU),
        ("signed", "unsigned", "mod", OpKind.MODS),
    ])
    def test_division_flavor_follows_signedness(self, sign_a, sign_b, symbol, kind):
        text = _spec(f"input a: {sign_a}<8>; input b: {sign_b}<8>;"
                     f"output x: signed<8>; x = a {symbol} b;")
        assert _kinds(text) == [kind]


class TestParseErrors:
    @pytest.mark.parametrize("text,exc", [
        (_spec("input a: signed<8>; output x: signed<8>; x = x;"),
         UndeclaredIdentifier),
        (_spec("input a: signed<8>; output x: signed<8>; x = a + q;"),
         UndeclaredIdentifier),
        (_spec("output x: signed<8>; x = x;"), SpecSyntaxError),
        (_spec("input a: signed<8>; input a: unsigned<4>;"
               "output x: signed<8>; x = a;"), DuplicateDeclaration),
        (_spec("input a: signed<8>; output a: signed<8>; a = a;"),
         DuplicateDeclaration),
        (_spec("input a: signed<0>; output x: signed<8>; x = a;"),
         WidthOutOfRange),
        (_spec("input a: signed<33>; output x: signed<8>; x = a;"),
         WidthOutOfRange),
        (_spec("input a: signed<8>; output x: signed<8>; x = a;", opcode=5),
         OpcodeOutOfRange),
        (_spec("input a: signed<8>; output x: signed<8>; x = a;", opcode=-1),
         SpecSyntaxError),
        (_spec("input a: signed<8>; x = a;"), SpecSyntaxError),
        (_spec("input a: signed<8>; output x: signed<8>;"
               "output y: signed<8>; x = a;"), SpecSyntaxError),
        (_spec("input a: signed<8>; output x: signed<8>; y = a;"),
         SpecSyntaxError),
        (_spec("input a: signed<8>; output x: signed<8>; x = a + ;"),
         SpecSyntaxError),
        (_spec("input a: signed<8>; output x: signed<8>; x = a $ a;"),
         SpecSyntaxError),
        (_spec("input a__b: signed<8>; output x: signed<8>; x = a__b;"),
         SpecSyntaxError),
        (_spec("input a_: signed<8>; output x: signed<8>; x = a_;"),
         SpecSyntaxError),
        (_spec("input signal: signed<8>; output x: signed<8>; x = signal;"),
         SpecSyntaxError),
        (_spec("input a: signed<8>; output x: signed<8>; x = a;",
               name="dataa"), SpecSyntaxError),
        ("ci t { input a: signed<8>; output x: signed<8>; x = a; }",
         SpecSyntaxError),
        ("", SpecSyntaxError),
    ])
    def test_rejects(self, text, exc):
        with pytest.raises(exc):
            parse_ci_spec(text)

    def test_error_carries_location(self):
        with pytest.raises(SpecSyntaxError) as info:
            parse_ci_spec("ci t(opcode=0) {\n  input a: signed<8>\n}")
        assert info.value.line >= 2


class TestDepthLimit:
    def test_deeper_chain_is_refused_at_its_operator(self):
        text = chain_text(1500)
        with pytest.raises(SpecSyntaxError, match="deeper than") as info:
            parse_ci_spec(text)
        # the operator that makes the tree one level too deep
        plus = text.index(f" + a{MAX_EXPR_DEPTH + 1} ") + 1
        line = text.count("\n", 0, plus) + 1
        assert (info.value.line, info.value.col) == \
            (line, plus - text.rfind("\n", 0, plus))

    def test_parentheses_alone_add_no_depth(self):
        spec = parse_ci_spec(nested_text(1200, "a + b"))
        assert spec.expr == BinOp(OpKind.ADD, Leaf("a"), Leaf("b"))

    def test_walks_at_the_limit_need_no_stack(self):
        # called 400 frames deep, so a walk that recursed once per level
        # would pass Python's default limit of 1000 frames
        spec = parse_ci_spec(chain_text(MAX_EXPR_DEPTH + 1))
        vector = {d.name: 0 for d in spec.inputs} | {"a0": 5}

        def deep(frames, call):
            return deep(frames - 1, call) if frames else call()

        mapped = deep(400, lambda: map_design(spec))
        assert mapped.analysis.max_level == MAX_EXPR_DEPTH
        assert deep(400, lambda: eval_reference(spec, vector)).signed == 5
        tree = deep(400, lambda: spec_match_tree(spec))
        assert tree[0] == "+" and tree[2] == ("leaf", f"a{MAX_EXPR_DEPTH}")


class TestDfg:
    def test_leaves_dedup_ops_do_not(self):
        text = _spec("input a: signed<8>; input b: signed<8>;"
                     "output x: signed<8>; x = (a + b) - (a + b);")
        dfg = parse_ci_spec(text).dfg
        assert len(dfg.leaf_nodes()) == 2
        adds = [n for n in dfg.op_nodes() if n.kind is OpKind.ADD]
        assert len(adds) == 2
        assert adds[0].id != adds[1].id

    def test_repeated_operand_is_one_node(self):
        dfg = parse_ci_spec(_spec(
            "input a: signed<8>; output x: signed<8>; x = a * a;")).dfg
        assert len(dfg.leaf_nodes()) == 1
        (op,) = dfg.op_nodes()
        assert op.left == op.right

    def test_levels_and_execution_order(self):
        text = _spec("input a: signed<8>; input b: signed<8>;"
                     "input c: signed<8>; input d: signed<8>;"
                     "output x: signed<8>; x = (a - b) * (c - d);")
        dfg = parse_ci_spec(text).dfg
        analysis = analyze(dfg)
        kinds = [dfg.node(i).kind for i in analysis.operation_sequence]
        assert kinds == [OpKind.SUB, OpKind.SUB, OpKind.MUL]
        levels = [dfg.level[i] for i in analysis.operation_sequence]
        assert levels == [1, 1, 2]
        assert analysis.max_level == 2

    def test_operands_listed_by_first_use(self):
        text = _spec("input a: signed<8>; input b: signed<8>;"
                     "input c: signed<8>;"
                     "output x: signed<8>; x = c + a * c;")
        analysis = analyze(parse_ci_spec(text).dfg)
        assert analysis.operand_sequence == ("c", "a")

    def test_identity_has_no_operations(self):
        dfg = parse_ci_spec(_spec(
            "input a: unsigned<4>; output x: unsigned<4>; x = a;")).dfg
        analysis = analyze(dfg)
        assert analysis.operation_sequence == ()
        assert analysis.max_level == 0
        assert analysis.operand_sequence == ("a",)

    def test_node_ids_are_in_order_walk(self, mac_spec):
        # a=0, mul=1, b=2, add=3, c=4: left subtree, self, right subtree.
        dfg = mac_spec.dfg
        ids = {n.decl.name: n.id for n in dfg.leaf_nodes()}
        assert ids == {"a": 0, "b": 2, "c": 4}
        kinds = {n.id: n.kind for n in dfg.op_nodes()}
        assert kinds == {1: OpKind.MUL, 3: OpKind.ADD}


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_fuzzed_specs_analyze_cleanly(self, seed):
        spec = random_spec(random.Random(seed), "p",
                           FuzzConfig(max_inputs=6, max_depth=4))
        dfg = spec.dfg
        analysis = analyze(dfg)
        declared = {d.name for d in spec.inputs}
        assert set(analysis.operand_sequence) <= declared
        assert len(set(analysis.operand_sequence)) == len(analysis.operand_sequence)
        levels = [dfg.level[i] for i in analysis.operation_sequence]
        assert levels == sorted(levels)
        if analysis.operation_sequence:
            assert analysis.max_level == levels[-1]
            assert dfg.root == analysis.operation_sequence[-1]
        for node in dfg.op_nodes():
            assert dfg.level[node.id] == 1 + max(dfg.level[node.left],
                                                 dfg.level[node.right])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 7))
    def test_canonical_stable_under_reparse(self, seed, pad):
        spec = random_spec(random.Random(seed), "p")
        dfg = spec.dfg
        # Re-render the same structure with different spacing and reparse.
        gap = " " * pad
        decls = "".join(
            f"input {d.name} :{gap}{'signed' if d.signed else 'unsigned'}"
            f" < {d.width} > ;\n" for d in spec.inputs)
        out = spec.output
        text = (f"ci {spec.name} ( opcode = {spec.opcode} ) {{ {decls}"
                f"output {out.name}: {'signed' if out.signed else 'unsigned'}"
                f"<{out.width}>; {out.name} = {_render(spec.expr)}; }}")
        again = parse_ci_spec(text)
        assert again.dfg.canonical() == dfg.canonical()
