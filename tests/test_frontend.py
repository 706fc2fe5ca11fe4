"""Parser and dataflow-graph construction tests."""

import itertools
import re
import string
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_text, nested_text
from cigen.cpatch import find_call_sites, lex_c
from cigen.errors import SpecSyntaxError
from cigen.frontend import (
    DSL_KEYWORDS,
    MAX_EXPR_DEPTH,
    VHDL_IDENTIFIER,
    BinOp,
    Leaf,
    OpKind,
    OpNode,
    _position,
    _tokenize,
    analyze,
    parse_ci_spec,
)
from cigen.fuzz import FuzzConfig, random_spec
from cigen.mapper import map_design
from cigen.sim import eval_reference

import random


def _spec(body: str, name: str = "t", opcode: int = 0) -> str:
    return f"ci {name}(opcode={opcode}) {{\n{body}\n}}"


def _kinds(spec_text: str) -> list[str]:
    dfg = parse_ci_spec(spec_text).dfg
    order = analyze(dfg).operation_sequence
    return [dfg.nodes[i].kind for i in order]


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


@dataclass(frozen=True)
class _Token:
    kind: str  # 'ident', 'int', 'kw', symbol text, or 'eof'
    text: str
    line: int
    col: int


_LETTERS = frozenset(string.ascii_letters)
_DIGITS = frozenset(string.digits)
_WORD = _LETTERS | _DIGITS | {"_"}


def _reference_tokenize(text: str) -> list[_Token]:
    """The spec lexer as it was written first, one character at a time,
    with each token's line and column counted as it goes."""
    tokens: list[_Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    symbols = "(){}<>;:=+-*/%"
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _LETTERS:
            start = i
            start_col = col
            while i < n and text[i] in _WORD:
                i += 1
                col += 1
            word = text[start:i]
            kind = "kw" if word in DSL_KEYWORDS else "ident"
            tokens.append(_Token(kind, word, line, start_col))
            continue
        if ch in _DIGITS:
            start = i
            start_col = col
            while i < n and text[i] in _DIGITS:
                i += 1
                col += 1
            tokens.append(_Token("int", text[start:i], line, start_col))
            continue
        if ch in symbols:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise SpecSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# The DSL's characters and words, and the white space and the characters
# it refuses.
_LEXER_PIECES = (list("aZx_09(){}<>;:=+-*/%") + sorted(DSL_KEYWORDS)
                 + ["#", " ", "\t", "\r", "\n", "\f", "\u00e9"])


class TestLexer:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_LEXER_PIECES), max_size=40).map("".join))
    def test_agrees_with_the_reference_lexer(self, text):
        try:
            reference = _reference_tokenize(text)
        except SpecSyntaxError as exc:
            with pytest.raises(SpecSyntaxError) as info:
                _tokenize(text)
            assert str(info.value) == str(exc)
            return
        kinds, texts = _tokenize(text)
        # the lexer gives a keyword its own text as its kind
        assert list(zip(kinds, texts)) == [
            (t.text if t.kind == "kw" else t.kind, t.text) for t in reference]
        assert [_position(text, k) for k in range(len(texts))] == \
            [(t.line, t.col) for t in reference]


class TestParse:
    def test_worked_example_shape(self, mac_spec):
        assert mac_spec.name == "f"
        assert mac_spec.opcode == 0
        assert [d.name for d in mac_spec.inputs] == ["a", "b", "c"]
        assert all(d.signed and d.width == 32 for d in mac_spec.inputs)
        assert mac_spec.output.name == "X"
        expr = mac_spec.expr
        assert isinstance(expr, BinOp) and expr.kind == OpKind.ADD
        assert isinstance(expr.left, BinOp) and expr.left.kind == OpKind.MUL
        assert isinstance(expr.left.left, Leaf) and expr.left.left.name == "a"
        assert isinstance(expr.right, Leaf) and expr.right.name == "c"

    def test_comments_and_whitespace_are_noise(self, mac_spec):
        text = ("ci f(opcode=0){  # header\n"
                "input a:signed<32>;input b:signed<32>;\n"
                "# mid comment\n"
                "input c:signed<32>;output X:signed<32>;\n"
                "X=(a*b)+c;}")
        spec = parse_ci_spec(text)
        assert spec.dfg == mac_spec.dfg

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


# The faults of spec text that name one token, each with a pattern that
# only its messages match.
FAULT_MESSAGES = {
    "UndeclaredIdentifier": r"^\d+:\d+: undeclared input '\w+'$",
    "DuplicateDeclaration": r"^\d+:\d+: duplicate declaration of '\w+'$",
    "WidthOutOfRange": r"^\d+:\d+: width \d+ out of range 1\.\.32$",
    "OpcodeOutOfRange": r"^\d+:\d+: opcode \d+ out of range 0\.\.4$",
}


class TestParseErrors:
    # fault: a key of FAULT_MESSAGES, or SpecSyntaxError for any other
    @pytest.mark.parametrize("text,fault", [
        (_spec("input a: signed<8>; output x: signed<8>; x = x;"),
         "UndeclaredIdentifier"),
        (_spec("input a: signed<8>; output x: signed<8>; x = a + q;"),
         "UndeclaredIdentifier"),
        (_spec("output x: signed<8>; x = x;"), SpecSyntaxError),
        (_spec("input a: signed<8>; input a: unsigned<4>;"
               "output x: signed<8>; x = a;"), "DuplicateDeclaration"),
        (_spec("input a: signed<8>; output a: signed<8>; a = a;"),
         "DuplicateDeclaration"),
        (_spec("input a: signed<0>; output x: signed<8>; x = a;"),
         "WidthOutOfRange"),
        (_spec("input a: signed<33>; output x: signed<8>; x = a;"),
         "WidthOutOfRange"),
        (_spec("input a: signed<8>; output x: signed<8>; x = a;", opcode=5),
         "OpcodeOutOfRange"),
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
        (_spec("input b\u00e4: signed<8>; output x: signed<8>; x = b\u00e4;"),
         SpecSyntaxError),
        (_spec("input a: signed<\u0663>; output x: signed<8>; x = a;"),
         SpecSyntaxError),
    ])
    def test_rejects(self, text, fault):
        with pytest.raises(SpecSyntaxError, match=FAULT_MESSAGES.get(fault)):
            parse_ci_spec(text)

    @pytest.mark.parametrize("decl,col", [
        ("input b\u00e4: signed<8>;", 8),   # a non-ASCII letter
        ("input a: signed<\u0663>;", 17),   # ARABIC-INDIC DIGIT THREE
    ])
    def test_identifiers_and_integers_are_ascii(self, decl, col):
        with pytest.raises(SpecSyntaxError, match="unexpected character") as info:
            parse_ci_spec(_spec(f"{decl} output x: signed<8>; x = a;"))
        assert (info.value.line, info.value.col) == (2, col)

    @pytest.mark.parametrize("text,fault,where", [
        (_spec(f"input a: signed<{'9' * 5000}>; output x: signed<8>; x = a;"),
         "WidthOutOfRange", (2, 17)),
        (f"ci t(opcode={'9' * 5000}) {{ input a: signed<8>;"
         " output x: signed<8>; x = a; }", "OpcodeOutOfRange", (1, 13)),
        (_spec(f"input a: signed<1{'0' * 5000}>; output x: signed<8>; x = a;"),
         "WidthOutOfRange", (2, 17)),
    ], ids=["width", "opcode", "width-1e5000"])
    def test_integer_too_long_to_convert(self, text, fault, where):
        # int() refuses a digit string longer than 4300 digits
        with pytest.raises(SpecSyntaxError, match=FAULT_MESSAGES[fault]) as info:
            parse_ci_spec(text)
        assert str(info.value).startswith("%d:%d: " % where)

    def test_leading_zeros_add_no_digits(self):
        spec = parse_ci_spec(
            f"ci t(opcode={'0' * 5000}4) {{ input a: signed<{'0' * 5000}8>;"
            " output x: signed<8>; x = a; }")
        assert (spec.opcode, spec.inputs[0].width) == (4, 8)

    def test_error_carries_location(self):
        rows = [
            ("ci t(opcode=0) {\n  input a: signed<8>\n}",
             "3:1: found '}' (expected ';')"),
            # after a comment
            ("ci t(opcode=0) { # open\n  input a: signed<8> }",
             "2:22: found '}' (expected ';')"),
            # after a tab: a tab is one column
            ("ci t(opcode=0) {\n\tinput a:\tsigned<8>\t}",
             "2:21: found '}' (expected ';')"),
            # on a \r\n line: \r is one column, only \n ends a line
            ("ci t(opcode=0) {\r\n  input a: signed<8>;\r\n"
             "  output x: signed<8>; x = a $ a;\r\n}",
             "3:30: unexpected character '$'"),
            # at end of input, which lies where a trailing comment begins
            ("ci t(opcode=0) {\n  input a: signed<8>;\n",
             "3:1: missing output declaration (expected 'output' declaration)"),
            ("ci t(opcode=0) {\n  input a: signed<8>; # no output",
             "2:23: missing output declaration (expected 'output' declaration)"),
            ("ci t(opcode=0) { input a:",
             "1:26: found 'end of input' (expected 'signed' or 'unsigned')"),
            # the errors that name what is wrong with one token
            ("ci t(opcode=0) {\n  input a: signed<8>;\n  output x: signed<8>;"
             "\n  x = a + q;\n}", "4:11: undeclared input 'q'"),
            ("ci t(opcode=0) {\n  input a: signed<8>;\n  input A: signed<8>;",
             "3:9: duplicate declaration of 'A'"),
            ("ci t(opcode=0) {\n  input a: signed<033>;",
             "2:19: width 33 out of range 1..32"),
            ("ci t(opcode=7) {", "1:13: opcode 7 out of range 0..4"),
            # a group left open
            ("ci t(opcode=0) {\n  input a: signed<8>;\n  input b: signed<8>;\n"
             "  output y: signed<8>;\n  y = (a + b;\n}",
             "5:13: found ';' (expected ')')"),
        ]
        for text, message in rows:
            with pytest.raises(SpecSyntaxError) as info:
                parse_ci_spec(text)
            assert str(info.value) == message, text
            line, col = message.split(":")[:2]
            assert (info.value.line, info.value.col) == (int(line), int(col))

    @pytest.mark.parametrize("decl, message", [
        ("input signal signed<8>;", "2:9: identifier 'signal' is reserved"),
        ("input a__b: x", "2:9: identifier 'a__b' may not contain '__' or end in '_'"),
        ("input a: signed<8>; input A signed", "2:29: duplicate declaration of 'A'"),
        ("input a signed<8>;", "2:11: found 'signed' (expected ':')"),
        ("input a: int<8>;", "2:12: found 'int' (expected 'signed' or 'unsigned')"),
        ("input a: signed 8>;", "2:19: found '8' (expected '<')"),
        ("input a: signed<x>;", "2:19: found 'x' (expected bit width)"),
        ("input a: signed<40;", "2:19: width 40 out of range 1..32"),
        ("input a: signed<8 ;", "2:21: found ';' (expected '>')"),
    ])
    def test_a_declaration_is_checked_in_token_order(self, decl, message):
        """The name's checks, then the width's, come before the syntax
        error of any later token of the declaration."""
        with pytest.raises(SpecSyntaxError) as info:
            parse_ci_spec(f"ci t(opcode=0) {{\n  {decl}\n  output y: signed<8>; y = a;\n}}")
        assert str(info.value) == message

    @pytest.mark.parametrize("error, text, where", [
        ("UndeclaredIdentifier", "ci t(opcode=0) {\n  input a: signed<8>;\n"
         "  output x: signed<8>;\n  x = a + q;\n}", (4, 11)),
        ("DuplicateDeclaration",
         "ci t(opcode=0) {\n  input a: signed<8>;\n  input A: signed<8>;", (3, 9)),
        ("WidthOutOfRange", "ci t(opcode=0) {\n  input a: signed<033>;", (2, 19)),
        ("OpcodeOutOfRange", "ci t(opcode=7) {", (1, 13)),
    ], ids=list(FAULT_MESSAGES))
    def test_positioned_errors_are_syntax_errors(self, error, text, where):
        # each is a SpecSyntaxError itself, positioned at the token it names
        with pytest.raises(SpecSyntaxError, match=FAULT_MESSAGES[error]) as info:
            parse_ci_spec(text)
        assert type(info.value) is SpecSyntaxError
        assert (info.value.line, info.value.col) == where


class TestVhdlIdentifier:
    def test_pattern_is_the_three_part_rule(self):
        """VHDL_IDENTIFIER, which the parser and validate_structure share,
        accepts what the three tests it replaced accepted: a letter, then
        letters, digits and underscores; no "__"; no trailing "_"."""
        start = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
        for length in range(6):
            for name in map("".join, itertools.product("aZ1_", repeat=length)):
                three_part = bool(start.match(name)) and "__" not in name \
                    and not name.endswith("_")
                assert bool(VHDL_IDENTIFIER.fullmatch(name)) == three_part, name


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
        body = " + ".join(f"a{i}" for i in range(MAX_EXPR_DEPTH + 1))
        tokens = lex_c(f"y = {body};\n")
        sites = deep(400, lambda: find_call_sites(tokens, spec))
        assert [(site.start, site.end) for site in sites] == [(4, 4 + len(body))]


class TestDfg:
    def test_leaves_dedup_ops_do_not(self):
        text = _spec("input a: signed<8>; input b: signed<8>;"
                     "output x: signed<8>; x = (a + b) - (a + b);")
        dfg = parse_ci_spec(text).dfg
        assert len(dfg.leaves) == 2
        adds = [n for n in (dfg.nodes[i] for i in dfg.order) if n.kind == OpKind.ADD]
        assert len(adds) == 2
        assert adds[0].id != adds[1].id

    def test_repeated_operand_is_one_node(self):
        dfg = parse_ci_spec(_spec(
            "input a: signed<8>; output x: signed<8>; x = a * a;")).dfg
        assert len(dfg.leaves) == 1
        (op,) = (dfg.nodes[i] for i in dfg.order)
        assert op.left == op.right

    def test_levels_and_execution_order(self):
        text = _spec("input a: signed<8>; input b: signed<8>;"
                     "input c: signed<8>; input d: signed<8>;"
                     "output x: signed<8>; x = (a - b) * (c - d);")
        dfg = parse_ci_spec(text).dfg
        analysis = analyze(dfg)
        kinds = [dfg.nodes[i].kind for i in analysis.operation_sequence]
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
        ids = {n.decl.name: n.id for n in dfg.leaves}
        assert ids == {"a": 0, "b": 2, "c": 4}
        assert dfg.leaves == (dfg.nodes[0], dfg.nodes[2], dfg.nodes[4])
        kinds = {i: dfg.nodes[i].kind for i in dfg.order}
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
        for node in (dfg.nodes[i] for i in dfg.order):
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
        assert again.dfg == dfg
