"""C tokenizing, expression matching, header emission, source rewriting."""

import dataclasses
import random
import re
from dataclasses import dataclass

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import MAC_TEXT, GOLDEN_DIR
from cigen import cpatch
from cigen.cpatch import (
    _OP_SYMBOL,
    _PUNCTS,
    _SAFE_LEFT_PUNCTS,
    _SYM_PREC,
    CTokens,
    PatchSite,
    TokKind,
    call_macro_name,
    emit_header,
    find_call_sites,
    header_filename,
    lex_c,
    rewrite,
)
from cigen.errors import LexError, NoMatchFound
from cigen.frontend import CiSpec, parse_ci_spec
from cigen.mapper import map_design

MAC = parse_ci_spec(MAC_TEXT)
MAC_MAPPED = map_design(MAC)

SUM = parse_ci_spec("ci s(opcode=0) { input a: signed<8>; input b: signed<8>;"
                    " output X: signed<16>; X = a + b; }")

MOD_TEXT = ("ci m(opcode=1) { input a: signed<8>; input b: signed<8>;"
            " output x: signed<8>; x = a mod b; }")


def _sites(source: str) -> list[str]:
    return [source[site.start:site.end]
            for site in find_call_sites(lex_c(source), MAC)]


def _columns(tokens) -> tuple[list, ...]:
    """kind, text, start and in_directive as lists, from lex_c's columns
    or from a reference's CToken list."""
    if isinstance(tokens, CTokens):
        columns = (tokens.kind, tokens.text, tokens.start,
                   list(tokens.in_directive))
        assert {len(column) for column in columns} == {len(tokens)}
        return columns
    assert all(tok.end == tok.start + len(tok.text) for tok in tokens)
    return ([tok.kind for tok in tokens], [tok.text for tok in tokens],
            [tok.start for tok in tokens],
            [tok.in_directive for tok in tokens])


class TestLexer:
    def test_kinds_and_spans(self):
        src = 'int x = a->b + 1.5e+3; char c = \'q\'; s = "hi /*";\n'
        tokens = lex_c(src)
        assert tokens.kind[:3] == [TokKind.IDENT, TokKind.IDENT,
                                   TokKind.PUNCT]
        for text, start in zip(tokens.text, tokens.start, strict=True):
            assert src[start:start + len(text)] == text
        pairs = list(zip(tokens.text, tokens.kind))
        assert ("->", TokKind.PUNCT) in pairs
        assert ("1.5e+3", TokKind.NUMBER) in pairs
        assert ("'q'", TokKind.CHAR) in pairs
        assert ('"hi /*"', TokKind.STRING) in pairs

    def test_comments_vanish(self):
        tokens = lex_c("a /* b */ c // d\ne\n")
        assert tokens.text == ["a", "c", "e"]

    def test_directive_lines_are_flagged(self):
        src = '#define F (a * b) + \\\n    c\nint a;\n'
        tokens = lex_c(src)
        flagged = [text for text, flag in zip(tokens.text, tokens.in_directive)
                   if flag]
        assert "c" in flagged and "b" in flagged
        assert not tokens.in_directive[-2]  # the declaration's "a"

    def test_a_line_that_only_ends_a_literal_flags_nothing(self):
        # the literal spliced onto a line opening with '#' starts before it
        tokens = lex_c('s = "a\\\n#"\n;\n#define X 1\nint y;\n')
        assert len(tokens.in_directive) == len(tokens)
        assert list(tokens.in_directive) == [0] * 4 + [2, 1, 1, 1] + [0] * 3

    def test_line_continuation_inside_a_literal_counts(self):
        with pytest.raises(LexError, match="stray character '@' on line 3"):
            lex_c('char *s = "a\\\nb";\n@')
        with pytest.raises(LexError, match="stray character '@' on line 4"):
            lex_c('s = "a\\\nb"; c = \'\\\n\';\n@')

    @pytest.mark.parametrize("bad", [
        '"never closed\n',
        "'a\n",
        "/* forever",
        "int @ x;",
        "int x = \u0663;",   # a digit outside ASCII starts no number
    ])
    def test_lex_errors(self, bad):
        with pytest.raises(LexError):
            lex_c(bad)


class TestMatchTree:
    def test_worked_example_tree(self):
        assert spec_match_tree(MAC) == (
            "+", ("*", ("leaf", "a"), ("leaf", "b")), ("leaf", "c"))

    def test_flooring_modulus_has_no_c_spelling(self):
        assert spec_match_tree(parse_ci_spec(MOD_TEXT)) is None


class TestFindCallSites:
    @pytest.mark.parametrize("stmt,expected", [
        ("x = (a * b) + c;", "(a * b) + c"),
        ("x = a * b + c;", "a * b + c"),
        ("x = ((a * b)) + c;", "((a * b)) + c"),
        ("x = ((a * b) + c);", "((a * b) + c)"),
        ("return (a * b) + c;", "(a * b) + c"),
        ("y = z * ((a * b) + c);", "((a * b) + c)"),
        ("y = foo((a * b) + c);", "(a * b) + c"),
        ("y = q ? (a * b) + c : 0;", "(a * b) + c"),
        ("x = ((a * b) + c) * 2;", "((a * b) + c)"),
    ])
    def test_single_hit(self, stmt, expected):
        assert _sites(f"void t(void) {{ {stmt} }}\n") == [expected]

    @pytest.mark.parametrize("stmt", [
        "x = (a + b) * c;",            # different tree
        "x = t + a * b + c;",          # leftmost leaf bound to t +
        "x = b - a * b + c;",          # same, lower-precedence left
        "x = c * (a * b) + c;",        # tighter operator owns the paren
        "x = -a * b + c;",             # unary owns the leftmost leaf
        "x = s.a * b + c;",            # member access on the left edge
        "x = foo(a * b) + c;",         # the paren is an argument list
        "x = sizeof (a * b) + c;",     # sizeof owns the parenthesis
        "x = sizeof a * b + c;",       # sizeof owns the leftmost leaf
        "x = (a * b) + c[0];",         # postfix index on the right edge
        "x = (a * b) + c(1);",         # postfix call on the right edge
        "x = (a * b) + c++;",          # postfix increment on the right edge
        "x = (a * b) + c.f;",          # member access on the right edge
        "x = a * b + c * (unsigned char)d;",   # * owns c; its cast operand
        "x = a * b + c * (d, e);",     # * owns c; its comma operand
        "x = a * b + c * 2;",          # * owns c; its number operand
    ])
    def test_context_guards_reject(self, stmt):
        assert _sites(f"void t(void) {{ {stmt} }}\n") == []

    @pytest.mark.parametrize("stmt", [
        "return a + b * (unsigned char)c;",
        "return a + b * (c, d);",
    ])
    def test_tighter_operator_owns_the_last_leaf(self, stmt):
        src = f"int t(int a, int b, int c, int d) {{ {stmt} }}\n"
        assert find_call_sites(lex_c(src), SUM) == []
        with pytest.raises(NoMatchFound):
            rewrite(src, SUM, map_design(SUM))

    def test_strings_comments_directives_are_immune(self):
        src = ('#define FORMULA ((a * b) + c)\n'
               '/* doc: x = (a * b) + c; */\n'
               'const char *s = "(a * b) + c";\n'
               '// x = (a * b) + c;\n'
               "int live(int a, int b, int c) { return (a * b) + c; }\n")
        assert _sites(src) == ["(a * b) + c"]

    @pytest.mark.parametrize("src, expected", [
        # the comment's newline is no line end: the directive runs on
        ("#define M /* the sum\n   */ x = a * b + c;", []),
        # a # that opens a line inside a comment opens no directive
        ("int y; /* c\n# */ int f(int a, int b, int c) "
         "{ return a * b + c; }", ["a * b + c"]),
        # a comment before the # is white space: this is a directive too
        ("/* c */ #define M a * b + c\n", []),
    ])
    def test_directives_as_c_sees_them_without_comments(self, src, expected):
        assert _sites(src) == expected

    def test_sites_in_source_order_and_disjoint(self):
        src = ("int t(int a, int b, int c) {\n"
               "  int x = (a * b) + c;\n"
               "  int y = a * b + c;\n"
               "  return x + y;\n}\n")
        sites = find_call_sites(lex_c(src), MAC)
        assert [src[s.start:s.end] for s in sites] == ["(a * b) + c",
                                                       "a * b + c"]
        assert sites[0].end <= sites[1].start

    def test_unmatchable_spec_finds_nothing(self):
        spec = parse_ci_spec(MOD_TEXT)
        assert find_call_sites(lex_c("int x = a % b;\n"), spec) == []


def _failed_groups(depth: int) -> str:
    """A return of depth nested "a + b * (" groups whose innermost one,
    "c, 1", is not an expression, so none of them parses."""
    return ("int t(int a, int b, int c) { return "
            + "a + b * (" * depth + "c, 1" + ")" * depth + "; }\n")


class TestLinearMatching:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Counts the calls of _Matcher.expr, memo hits included."""
        calls = [0]
        expr = cpatch._Matcher.expr

        def counting(self, *args):
            calls[0] += 1
            return expr(self, *args)

        monkeypatch.setattr(cpatch._Matcher, "expr", counting)
        return calls

    def test_failed_groups_nested_forty_deep(self, counted):
        # each level's group fails on "c, 1"; a parser without memoization
        # parses it twice per level, 2**40 times in all
        for depth in (20, 40):
            src = _failed_groups(depth)
            counted[0] = 0
            assert find_call_sites(lex_c(src), MAC) == []
            assert counted[0] <= 2 * len(lex_c(src))

    @pytest.mark.parametrize("src, sites", [
        (_failed_groups(1000), 0),
        ("int t(int a, int b, int c) { return "
         + "(" * 5000 + "a" + ")" * 5000 + " * b + c; }\n", 1),
    ], ids=["failed-groups-1000", "parentheses-5000"])
    def test_any_nesting_at_any_stack_depth(self, counted, src, sites):
        # called 900 frames deep, so a parse that recursed once per group
        # would pass Python's default limit of 1000 frames
        def deep(frames, call):
            return deep(frames - 1, call) if frames else call()

        tokens = lex_c(src)
        assert len(deep(900, lambda: find_call_sites(tokens, MAC))) == sites
        assert counted[0] <= 2 * len(lex_c(src))


def _spec_of(expr: str):
    names = sorted(set(re.findall(r"[a-z]", expr)))
    inputs = " ".join(f"input {name}: signed<8>;" for name in names)
    return parse_ci_spec(f"ci t(opcode=0) {{ {inputs} output x: signed<32>;"
                         f" x = {expr}; }}")


_TARGETS = ["a + b", "a * b", "a * b + c", "a - b - c", "a * (b + c)",
            "(a + b) % c", "a / b", "a"]
_TARGET_SPECS = {expr: _spec_of(expr) for expr in _TARGETS}
_SOUP_TOKENS = ["a", "b", "c", "(", ")", "*", "+", "-", "/", "%", ",", ";",
                "#", "\n", "sizeof", "return", "->", "[", "]", '"s"']
_DIRECTIVE_LINES = st.builds(
    lambda head, tail: ("\n# " + " ".join(head) + " \\\n "
                        + " ".join(tail) + "\n"),
    st.lists(st.sampled_from(_SOUP_TOKENS), max_size=6),
    st.lists(st.sampled_from(_SOUP_TOKENS), max_size=6))
_PLAIN_PIECES = st.sampled_from(_SOUP_TOKENS + _TARGETS)
_TOKEN_SOUPS = st.recursive(
    st.lists(st.tuples(st.sampled_from([" ", " ", "", "\n"]),
                       st.one_of(_PLAIN_PIECES, _PLAIN_PIECES, _PLAIN_PIECES,
                                 _DIRECTIVE_LINES)),
             max_size=6).map(lambda pieces: "".join(s + p for s, p in pieces)),
    lambda soups: st.lists(soups, min_size=1, max_size=3).map(
        lambda parts: "(" + " ".join(parts) + ")"),
    max_leaves=6)
# Expressions of the matcher's grammar, with operands it cannot parse
# ("2", a cast, a comma group) that end a parse mid-way, nested in groups
# that the matcher parses before the candidates around them.
_EXPR_SOUPS = st.recursive(
    st.sampled_from(["a", "b", "c", "2", "(int) c", "(c, 1)", "sizeof a",
                     "f(a)"] + _TARGETS),
    lambda exprs: st.one_of(
        st.tuples(exprs, st.sampled_from(["+", "-", "*", "/", "%", ","]),
                  exprs).map(" ".join),
        exprs.map(lambda inner: f"({inner})")),
    max_leaves=10)
_SOUPS = st.one_of(_TOKEN_SOUPS, _EXPR_SOUPS.map(lambda e: f"x = {e};"))


def _site_a_tighter_operator_follows(source: str, sites: list, target) -> bool:
    """Whether a site is followed by * / or % binding tighter than its top
    operator, without being wholly parenthesized: the reference patches
    these, which changes what the C computes, and find_call_sites refuses
    them."""
    tokens = reference_lex_c(source)
    first = {tok.start: k for k, tok in enumerate(tokens)}
    after = {tok.end: k + 1 for k, tok in enumerate(tokens)}
    for site in sites:
        i, j = first[site.start], after[site.end]
        if tokens[i].text == "(" and _paren_close(tokens, i) == j - 1:
            continue
        if j < len(tokens) and \
                _SYM_PREC.get(tokens[j].text, 0) > _top_prec(target):
            return True
    return False


class TestSameAsTheReference:
    """lex_c and find_call_sites agree with the quadratic reference below on
    token soups: the same tokens (in_directive included), the same lex
    errors and the same sites.  Examples where the reference patches a site
    that a tighter operator follows are filtered out, because there the
    right-edge guard rightly drops the site; test_context_guards_reject
    and test_tighter_operator_owns_the_last_leaf pin that difference."""

    @settings(max_examples=300, deadline=None)
    @given(_SOUPS, st.sampled_from(_TARGETS))
    @example("x = a * (a * ((b)));", "a * b")
    @example("x = ((a + b));", "a + b")
    @example('s = "a\\\n#"\n;\n#define X 1\na * b;\n', "a * b")
    def test_tokens_and_sites(self, source, expr):
        try:
            expected_tokens = reference_lex_c(source)
        except LexError as exc:
            with pytest.raises(LexError) as info:
                lex_c(source)
            assert str(info.value) == str(exc)
            return
        assert _columns(lex_c(source)) == _columns(expected_tokens)
        spec = _TARGET_SPECS[expr]
        expected = reference_find_call_sites(source, spec)
        assume(not _site_a_tighter_operator_follows(
            source, expected, spec_match_tree(spec)))
        assert find_call_sites(lex_c(source), spec) == expected


# Pieces of C over a wider alphabet than the matcher's soups: every token
# class, comments and literals that cross lines, every white-space character,
# and the pieces that make a lex error.
_WIDE_PIECES = [
    "a", "b_1", "_x", "sizeof", "0", "42", "1.5e+3", ".5", "0x1F", "3.",
    "1e", "0x1p-4",
    ".", "..", "...", "->", "<<=", ">>=", "##", "#", "+", "++", "-", "--",
    "/", "/=", "*", "%", "(", ")", "[", "]", "{", "}", ",", ";", "<", "==",
    "!", "&&", "|", "^", "~", "?", ":",
    "// a comment", "//", "/* a block */", "/* across\nlines */", "/**/",
    "/*/ x */",
    "'q'", "'\\n'", "'\\''", "'\\\\'", '"s"', '""', '"a\\"b"', '"x\\\ny"',
    "'\\\n'",
    " ", "\t", "\r", "\f", "\v", "\n", "\r\n", "\\\n", " \\\n\t",
]
_WIDE_FAULTS = ["\\", "@", "$", "`", "é", "٣", '"', "'", "/*"]
_WIDE_DIRECTIVES = st.builds(
    lambda lead, body: "\n" + lead + "#" + "".join(body) + "\n",
    st.sampled_from(["", " ", "\t", " \t "]),
    st.lists(st.sampled_from(_WIDE_PIECES), max_size=6))
_WIDE_SOUPS = st.one_of(
    st.lists(st.one_of(st.sampled_from(_WIDE_PIECES), _WIDE_DIRECTIVES),
             max_size=24).map("".join),
    st.lists(st.one_of(st.sampled_from(_WIDE_PIECES), _WIDE_DIRECTIVES,
                       st.sampled_from(_WIDE_FAULTS)),
             max_size=24).map("".join),
    st.text(st.sampled_from(sorted(set("".join(_WIDE_PIECES + _WIDE_FAULTS)))),
            max_size=40))


class TestSameAsTheNamedGroupLexer:
    """lex_c gives the same columns and the same lex errors as the lexer it
    replaced (one named-group match per token, one CToken each), on soups of
    every token class, white-space character and lex error."""

    @settings(max_examples=400, deadline=None)
    @given(_WIDE_SOUPS)
    @example('s = "a\\\nb"; c = \'\\\n\';\n@')
    @example("#define M(x) x * \\\n  2\nint y = .5 + 0x1F; /* open")
    @example("a\\ b")
    @example("x = 1.5e+3 ... -> <<= ## \t\r\f\v $")
    def test_same_columns_and_errors(self, source):
        try:
            expected = named_group_lex_c(source)
        except LexError as exc:
            with pytest.raises(LexError) as info:
                lex_c(source)
            assert str(info.value) == str(exc)
            return
        assert _columns(lex_c(source)) == _columns(expected)


class TestBenchContract:
    """What bench/spans.py relies on: it wraps cpatch.lex_c, so rewriting
    must lex through that module global once per call, and it counts
    tokens with len()."""

    def test_one_lex_per_call_through_the_module_global(self, monkeypatch):
        seen = []

        def counted(source):
            seen.append(source)
            return lex_c(source)

        monkeypatch.setattr(cpatch, "lex_c", counted)
        src = "int f(int a, int b, int c) { return (a * b) + c; }\n"
        # rewrite matches and places the include with the same tokens
        assert len(rewrite(src, MAC, MAC_MAPPED).sites) == 1
        assert seen == [src]
        with pytest.raises(NoMatchFound):
            rewrite("int x;\n", MAC, MAC_MAPPED)
        assert seen == [src, "int x;\n"]

    def test_len_is_the_token_count(self):
        tokens = lex_c("int f(int a) { return a; } /* c */ // d\n"
                       "#define X 1\n")
        assert len(tokens) == 15
        assert tokens.text[-4:] == ["#", "define", "X", "1"]
        assert list(tokens.in_directive) == [0] * 11 + [2, 1, 1, 1]


class TestHeader:
    def test_names(self):
        assert call_macro_name(MAC) == "CI_F"
        assert header_filename(MAC) == "ci_f.h"

    def test_worked_example_golden(self):
        golden = (GOLDEN_DIR / "ci_f.h").read_text()
        assert emit_header(MAC, MAC_MAPPED) == golden

    def test_two_operand_macro_is_one_call(self):
        spec = parse_ci_spec("ci s2(opcode=0) { input a: signed<32>;"
                             " input b: signed<32>; output x: signed<32>;"
                             " x = a + b; }")
        header = emit_header(spec, map_design(spec))
        assert header.count("__builtin_custom_inii") == 1
        assert ("#define CI_S2(p_a, p_b) ((int) __builtin_custom_inii("
                "CI_S2_OPCODE, (int) (p_a), (int) (p_b)))") in header

    def test_odd_operand_pads_with_zero(self):
        spec = parse_ci_spec("ci one(opcode=2) { input a: signed<32>;"
                             " output x: signed<32>; x = a; }")
        header = emit_header(spec, map_design(spec))
        assert "__builtin_custom_inii(CI_ONE_OPCODE, (int) (p_a), 0)" in header

    def test_unsigned_output_cast(self):
        spec = parse_ci_spec("ci u2(opcode=0) { input a: unsigned<16>;"
                             " input b: unsigned<16>; output x: unsigned<32>;"
                             " x = a * b; }")
        assert "(unsigned int) __builtin_custom_inii" in emit_header(
            spec, map_design(spec))

    def test_four_operands_two_calls(self):
        spec = parse_ci_spec("ci q(opcode=3) { input a: signed<8>;"
                             " input b: signed<8>; input c: signed<8>;"
                             " input d: signed<8>; output x: signed<16>;"
                             " x = (a + b) + (c + d); }")
        header = emit_header(spec, map_design(spec))
        assert header.count("__builtin_custom_inii") == 2
        assert header.count("(void) __builtin_custom_inii") == 1

    def test_intrinsic_override(self):
        header = emit_header(MAC, MAC_MAPPED, intrinsic="my_ci_call")
        assert "my_ci_call(CI_F_OPCODE" in header
        assert "__builtin_custom_inii" not in header

    def test_include_guard(self):
        header = emit_header(MAC, MAC_MAPPED)
        assert header.startswith("#ifndef CI_F_H\n#define CI_F_H\n")
        assert header.endswith("#endif /* CI_F_H */\n")


class TestRewrite:
    def test_fixture_golden(self):
        source = (GOLDEN_DIR / "fixture.c").read_text()
        plan = rewrite(source, MAC, MAC_MAPPED)
        assert plan.output == (GOLDEN_DIR / "fixture_patched.c").read_text()
        assert len(plan.sites) == 1
        assert plan.replacement == "CI_F(a, b, c)"
        assert plan.output.count('#include "ci_f.h"') == 1

    def test_second_pass_fails_loudly(self):
        source = (GOLDEN_DIR / "fixture.c").read_text()
        once = rewrite(source, MAC, MAC_MAPPED)
        with pytest.raises(NoMatchFound, match="no occurrence"):
            rewrite(once.output, MAC, MAC_MAPPED)

    def test_bytes_outside_sites_survive(self):
        src = "int f(int a, int b, int c) { return (a * b) + c; }\n"
        plan = rewrite(src, MAC, MAC_MAPPED)
        assert plan.output == ('#include "ci_f.h"\n\n'
                               + src.replace("(a * b) + c", "CI_F(a, b, c)"))

    def test_include_lands_after_the_last_include(self):
        src = ("#include <stdio.h>\n\n#include <math.h>\n"
               "int f(int a, int b, int c) { return (a * b) + c; }\n")
        plan = rewrite(src, MAC, MAC_MAPPED)
        lines = plan.output.splitlines()
        assert lines[:4] == ["#include <stdio.h>", "",
                             "#include <math.h>", '#include "ci_f.h"']

    def test_existing_include_is_kept_once(self):
        src = ('#include "ci_f.h"\n'
               "int f(int a, int b, int c) { return (a * b) + c; }\n")
        plan = rewrite(src, MAC, MAC_MAPPED)
        assert plan.output == src.replace("(a * b) + c", "CI_F(a, b, c)")

    @pytest.mark.parametrize("head, patched_head", [
        # an include inside a comment is no directive
        ("/* usage:\n#include <x.h>\n*/\n",
         '#include "ci_f.h"\n\n/* usage:\n#include <x.h>\n*/\n'),
        # nor is a comment or a directive body that mentions the header
        ('/* see #include "ci_f.h" */\n',
         '#include "ci_f.h"\n\n/* see #include "ci_f.h" */\n'),
        ('#include <a.h>\n#define H # include "ci_f.h"\n',
         '#include <a.h>\n#include "ci_f.h"\n#define H # include "ci_f.h"\n'),
        # the new include follows the whole line of the last one
        ("#include <a.h> // printf\n",
         '#include <a.h> // printf\n#include "ci_f.h"\n'),
        ("#include <a.h> /* x\n y */\n#define Q 1\n",
         '#include <a.h> /* x\n y */\n#include "ci_f.h"\n#define Q 1\n'),
        ("#include <a.h> /* x */ // y /* z\n",
         '#include <a.h> /* x */ // y /* z\n#include "ci_f.h"\n'),
        ("#include <a.h> /* x\n y */ int z;\n",
         '#include <a.h> /* x\n y */ int z;\n#include "ci_f.h"\n'),
        ("# include \\\n  <a.h>\n",
         '# include \\\n  <a.h>\n#include "ci_f.h"\n'),
        ('#  include  "ci_f.h"\n', '#  include  "ci_f.h"\n'),
        # a line that only ends a literal is no directive and moves no flag
        ('s = "a\\\n#"\n;\n#include <a.h>\n',
         's = "a\\\n#"\n;\n#include <a.h>\n#include "ci_f.h"\n'),
        ('s = "a\\\n#"\n;\n#include "ci_f.h"\n',
         's = "a\\\n#"\n;\n#include "ci_f.h"\n'),
    ])
    def test_include_goes_by_directives_alone(self, head, patched_head):
        body = "int f(int a, int b, int c) { return (a * b) + c; }\n"
        plan = rewrite(head + body, MAC, MAC_MAPPED)
        assert plan.output == patched_head + body.replace("(a * b) + c",
                                                          "CI_F(a, b, c)")

    def test_include_on_the_last_line_without_a_newline(self):
        src = ("int f(int a, int b, int c) { return (a * b) + c; }\n"
               "#include <a.h>")
        plan = rewrite(src, MAC, MAC_MAPPED)
        assert plan.output.endswith('#include <a.h>\n#include "ci_f.h"')

    def test_every_repeated_statement_is_replaced(self):
        src = ("int g(int a, int b, int c) {\n"
               "  int x = (a * b) + c;\n"
               "  int y = (a * b) + c;\n"
               "  return x + y;\n}\n")
        plan = rewrite(src, MAC, MAC_MAPPED)
        assert len(plan.sites) == 2
        assert plan.output.count("CI_F(a, b, c)") == 2
        assert plan.output.count('#include "ci_f.h"') == 1

    def test_unmatchable_modulus_says_so(self):
        spec = parse_ci_spec(MOD_TEXT)
        with pytest.raises(NoMatchFound, match="by hand"):
            rewrite("int x = a % b;\n", spec, map_design(spec))

    def test_no_occurrence_message_names_the_instruction(self):
        with pytest.raises(NoMatchFound, match="f expression"):
            rewrite("int x = a + b;\n", MAC, MAC_MAPPED)


class TestRewriteProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_every_planted_site_is_patched(self, planted, seed):
        rng = random.Random(seed)
        decoys = ["  t = (a + b) * c;", "  t = c * a * b;",
                  '  s = "(a * b) + c";', "  /* (a * b) + c */"]
        lines = ["int run(int a, int b, int c) {", "  int t = 0;",
                 "  const char *s;"]
        for _ in range(planted):
            lines.extend(rng.sample(decoys, rng.randrange(len(decoys))))
            lines.append("  t = (a * b) + c;")
        lines += ["  (void) s;", "  return t;", "}"]
        plan = rewrite("\n".join(lines) + "\n", MAC, MAC_MAPPED)
        assert len(plan.sites) == planted
        assert plan.output.count("CI_F(a, b, c)") == planted
        assert plan.output.count('#include "ci_f.h"') == 1


# --- the references: lex_c and find_call_sites as they were before the
# matcher was made linear, and lex_c as it was before it returned columns,
# kept verbatim (renamed) but for how they flag directive lines, which
# _flag_directives does for both; and spec_match_tree, the tree builder
# find_call_sites used before it matched the DFG itself -----------------------

@dataclass(frozen=True, slots=True)
class CToken:
    kind: TokKind
    text: str
    start: int
    end: int
    line: int
    in_directive: int = 0


_DIRECTIVE_RE = re.compile(r"(?m)^[ \t]*#(?:\\\n|[^\n])*")


def _flag_directives(source: str, tokens: list[CToken],
                     comments: list[tuple[int, int]]) -> list[CToken]:
    """tokens with in_directive set from the directive lines of source once
    each comment span is spaces of its length (no newline), 2 on the first
    token of each: the one step both references take differently from the
    code they were copied from."""
    for a, b in comments:
        source = source[:a] + " " * (b - a) + source[b:]
    flags = [0] * len(tokens)
    for m in _DIRECTIVE_RE.finditer(source):
        inside = [k for k, tok in enumerate(tokens)
                  if m.start() <= tok.start < m.end()]
        for k in inside:
            flags[k] = 2 if k == inside[0] else 1
    return [dataclasses.replace(tok, in_directive=flag)
            for tok, flag in zip(tokens, flags)]


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"\.?[0-9](?:[eEpP][+-]|[0-9A-Za-z_.])*")


def reference_lex_c(source: str) -> list[CToken]:
    """Tokenize C source, dropping comments but keeping byte offsets."""
    comments: list[tuple[int, int]] = []
    tokens: list[CToken] = []
    i, n, line = 0, len(source), 1

    def take_quoted(quote: str, what: str) -> int:
        j = i + 1
        while j < n:
            c = source[j]
            if c == "\\":
                j += 2
                continue
            if c == quote:
                return j + 1
            if c == "\n":
                raise LexError(f"unterminated {what} on line {line}")
            j += 1
        raise LexError(f"unterminated {what} on line {line}")

    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if source.startswith("\\\n", i):
            line += 1
            i += 2
            continue
        if source.startswith("//", i):
            nl = source.find("\n", i)
            comments.append((i, n if nl < 0 else nl))
            i = n if nl < 0 else nl
            continue
        if source.startswith("/*", i):
            close = source.find("*/", i + 2)
            if close < 0:
                raise LexError(f"unterminated block comment on line {line}")
            line += source.count("\n", i, close)
            comments.append((i, close + 2))
            i = close + 2
            continue
        if c == '"':
            end = take_quoted('"', "string literal")
            tokens.append(CToken(TokKind.STRING, source[i:end], i, end, line))
            i = end
            continue
        if c == "'":
            end = take_quoted("'", "character literal")
            tokens.append(CToken(TokKind.CHAR, source[i:end], i, end, line))
            i = end
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            tokens.append(CToken(TokKind.IDENT, m.group(), i, m.end(), line))
            i = m.end()
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            m = _NUMBER_RE.match(source, i)
            tokens.append(CToken(TokKind.NUMBER, m.group(), i, m.end(), line))
            i = m.end()
            continue
        for punct in _PUNCTS:
            if source.startswith(punct, i):
                tokens.append(CToken(TokKind.PUNCT, punct, i, i + len(punct),
                                     line))
                i += len(punct)
                break
        else:
            raise LexError(f"stray character {c!r} on line {line}")
    return _flag_directives(source, tokens, comments)


Tree = tuple  # ("leaf", name) | (symbol, left, right)


def spec_match_tree(spec: CiSpec) -> Tree | None:
    """The spec expression as an operator-symbol tree, or None when it uses
    an operator C cannot spell."""
    dfg = spec.dfg
    trees: dict[int, Tree] = {leaf.id: ("leaf", leaf.decl.name)
                              for leaf in dfg.leaf_nodes()}
    for node_id in dfg.order:
        node = dfg.nodes[node_id]
        symbol = _OP_SYMBOL.get(node.kind)
        if symbol is None:
            return None
        trees[node_id] = (symbol, trees[node.left], trees[node.right])
    return trees[dfg.root]


def _primary(tokens: list[CToken], i: int):
    if i >= len(tokens):
        return None
    tok = tokens[i]
    if tok.kind is TokKind.IDENT:
        return ("leaf", tok.text), i + 1
    if tok.kind is TokKind.PUNCT and tok.text == "(":
        inner = _expr(tokens, i + 1, 1)
        if inner is None:
            return None
        tree, j = inner
        if j < len(tokens) and tokens[j].kind is TokKind.PUNCT \
                and tokens[j].text == ")":
            return tree, j + 1
        return None
    return None


def _expr(tokens: list[CToken], i: int, min_prec: int,
          checkpoints: list | None = None):
    first = _primary(tokens, i)
    if first is None:
        return None
    tree, i = first
    if checkpoints is not None:
        checkpoints.append((tree, i))
    while i < len(tokens) and tokens[i].kind is TokKind.PUNCT \
            and _SYM_PREC.get(tokens[i].text, 0) >= min_prec:
        op = tokens[i].text
        right = _expr(tokens, i + 1, _SYM_PREC[op] + 1)
        if right is None:
            break
        rtree, i = right
        tree = (op, tree, rtree)
        if checkpoints is not None:
            checkpoints.append((tree, i))
    return tree, i


def _top_prec(tree: Tree) -> int:
    return 3 if tree[0] == "leaf" else _SYM_PREC[tree[0]]


def _paren_close(tokens: list[CToken], i: int) -> int | None:
    """Index of the ')' matching an '(' at i, or None."""
    depth = 0
    for j in range(i, len(tokens)):
        if tokens[j].kind is not TokKind.PUNCT:
            continue
        if tokens[j].text == "(":
            depth += 1
        elif tokens[j].text == ")":
            depth -= 1
            if depth == 0:
                return j
    return None


_VALUE_END_KINDS = (TokKind.IDENT, TokKind.NUMBER, TokKind.STRING, TokKind.CHAR)


def _ends_value(tok: CToken | None) -> bool:
    return tok is not None and (tok.kind in _VALUE_END_KINDS
                                or tok.text in (")", "]", "++", "--"))


def _left_context_ok(tokens: list[CToken], i: int, j: int, tree: Tree) -> bool:
    prev = tokens[i - 1] if i > 0 else None
    if prev is None:
        return True
    first = tokens[i]
    whole_paren = (first.kind is TokKind.PUNCT and first.text == "("
                   and _paren_close(tokens, i) == j - 1)
    if whole_paren:
        # safe after anything except a callee or index expression
        return not _ends_value(prev)
    if prev.kind is TokKind.IDENT:
        if prev.text == "sizeof":
            return False   # sizeof binds the leftmost leaf
        if first.kind is TokKind.PUNCT and first.text == "(":
            # ident '(' opens an argument list unless it is a keyword
            return prev.text in ("return", "else", "case")
        return True   # return, case, else and friends
    if prev.kind is not TokKind.PUNCT:
        return False
    text = prev.text
    if text in _SAFE_LEFT_PUNCTS:
        return True
    if text in ("+", "-", "*", "&"):
        before = tokens[i - 2] if i > 1 else None
        if not _ends_value(before):
            return False   # unary use binds to our leftmost leaf
        if text == "&":
            return True    # binary & binds looser than any operator of ours
        return _SYM_PREC[text] < _top_prec(tree)
    if text in ("/", "%"):
        return _SYM_PREC[text] < _top_prec(tree)
    return False   # ! ~ ++ -- . -> ) ] and anything exotic


def _right_context_ok(tokens: list[CToken], j: int) -> bool:
    nxt = tokens[j] if j < len(tokens) else None
    if nxt is None:
        return True
    if nxt.kind in _VALUE_END_KINDS:
        return False
    return nxt.text not in ("(", "[", ".", "->", "++", "--")


def reference_find_call_sites(source: str, spec: CiSpec) -> list[PatchSite]:
    """Every non-overlapping occurrence of the spec expression, outermost
    parenthesization included, in source order."""
    target = spec_match_tree(spec)
    if target is None:
        return []
    tokens = reference_lex_c(source)
    raw: list[tuple[int, int]] = []
    for i in range(len(tokens)):
        checkpoints: list = []
        _expr(tokens, i, 1, checkpoints)
        for tree, j in checkpoints:
            if tree != target:
                continue
            if any(tok.in_directive for tok in tokens[i:j]):
                continue
            if not _left_context_ok(tokens, i, j, tree):
                continue
            if not _right_context_ok(tokens, j):
                continue
            raw.append((tokens[i].start, tokens[j - 1].end))
    sites: list[PatchSite] = []
    last_end = -1
    for start, end in sorted(raw, key=lambda span: (span[0], -span[1])):
        if start >= last_end:
            sites.append(PatchSite(start, end))
            last_end = end
    return sites


# One alternative per token class, tried in this order at each position.
# Groups named after a TokKind make a token; "skip" and "comment" advance
# the line count; "unterminated" is an opening quote or comment that the
# complete forms before it could not close.
_NAMED_TOKEN_RE = re.compile("|".join([
    r"(?P<skip>(?:[ \t\r\f\v\n]|\\\n)+)",
    r"(?P<comment>//[^\n]*|/\*[\s\S]*?\*/)",
    r'(?P<STRING>"(?:\\[\s\S]|[^"\\\n])*")',
    r"(?P<CHAR>'(?:\\[\s\S]|[^'\\\n])*')",
    r"(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)",
    r"(?P<NUMBER>\.?[0-9](?:[eEpP][+-]|[0-9A-Za-z_.])*)",
    r"(?P<unterminated>/\*|[\"'])",
    "(?P<PUNCT>" + "|".join(map(re.escape, _PUNCTS)) + ")",
]))
_UNTERMINATED = {'"': "string literal", "'": "character literal",
                 "/*": "block comment"}


def named_group_lex_c(source: str) -> list[CToken]:
    """Tokenize C source, dropping comments but keeping byte offsets."""
    comments: list[tuple[int, int]] = []
    tokens: list[CToken] = []
    i, n, line = 0, len(source), 1
    while i < n:
        m = _NAMED_TOKEN_RE.match(source, i)
        if m is None:
            raise LexError(f"stray character {source[i]!r} on line {line}")
        kind, text, end = m.lastgroup, m.group(), m.end()
        if kind == "skip" or kind == "comment":
            line += text.count("\n")
            if kind == "comment":
                comments.append((i, end))
        elif kind == "unterminated":
            raise LexError(
                f"unterminated {_UNTERMINATED[text]} on line {line}")
        else:
            tokens.append(CToken(TokKind[kind], text, i, end, line))
            if "\n" in text:   # a literal continued by a backslash-newline
                line += text.count("\n")
        i = end
    return _flag_directives(source, tokens, comments)
