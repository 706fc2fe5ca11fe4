"""C tokenizing, expression matching, header emission, source rewriting."""

import dataclasses
import random
import re
import shutil
import subprocess
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

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
from cigen.errors import CigenError
from cigen.frontend import CiSpec, parse_ci_spec
from cigen.mapper import map_design

MAC = parse_ci_spec(MAC_TEXT)
MAC_MAPPED = map_design(MAC)

SUM = parse_ci_spec("ci s(opcode=0) { input a: signed<8>; input b: signed<8>;"
                    " output X: signed<16>; X = a + b; }")

MOD_TEXT = ("ci m(opcode=1) { input a: signed<8>; input b: signed<8>;"
            " output x: signed<8>; x = a mod b; }")

# Patterns that only a lex error's messages match, and only those of a
# source that holds nothing to patch.
LEX_ERROR = r"^(unterminated (string|character) literal|unterminated block comment" \
    r"|stray character .+) on line \d+$"
NO_MATCH = r"^(no occurrence of the \w+ expression found|\w+ uses flooring modulus, " \
    r"which no C operator computes; rewrite the C call site by hand)$"


def _sites(source: str) -> list[str]:
    return [source[site.start:site.end]
            for site in find_call_sites(lex_c(source), MAC)]


def _columns(tokens) -> tuple[list, ...]:
    """kind, text, start, end and in_directive as lists, from lex_c's
    columns or from a reference's CToken list."""
    if isinstance(tokens, CTokens):
        columns = (tokens.kind, tokens.text, tokens.start,
                   list(map(tokens.end, range(len(tokens)))),
                   list(tokens.in_directive))
        assert {len(column) for column in columns} == {len(tokens)}
        return columns
    return ([tok.kind for tok in tokens], [tok.text for tok in tokens],
            [tok.start for tok in tokens], [tok.end for tok in tokens],
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
        assert list(tokens.in_directive) == [0] * 4 + [1] * 4 + [0] * 3

    def test_line_continuation_inside_a_literal_counts(self):
        with pytest.raises(CigenError, match="stray character '@' on line 3"):
            lex_c('char *s = "a\\\nb";\n@')
        with pytest.raises(CigenError, match="stray character '@' on line 4"):
            lex_c('s = "a\\\nb"; c = \'\\\n\';\n@')

    def test_splices_may_end_in_cr_lf(self):
        # gcc splices a backslash and CR LF as it does a backslash and LF
        tokens = lex_c("#define A (1 + \\\r\n 2)\r\n")
        assert tokens.text == ["#", "define", "A", "(", "1", "+", "2", ")"]
        assert list(tokens.in_directive) == [1] * 8
        src = 's = "ab\\\r\ncd";\r\n'
        tokens = lex_c(src)
        assert tokens.text == ["s", "=", '"abcd"', ";"]
        assert tokens.kind[2] == TokKind.STRING
        assert src[tokens.start[2]:tokens.end(2)] == '"ab\\\r\ncd"'

    @pytest.mark.parametrize("bad", [
        '"never closed\n',
        "'a\n",
        "/* forever",
        "int @ x;",
        "int x = \u0663;",   # a digit outside ASCII starts no number
    ])
    def test_lex_errors(self, bad):
        with pytest.raises(CigenError, match=LEX_ERROR):
            lex_c(bad)


class TestALoneCrEndsALine:
    """gcc reads a lone CR as a line end, as C's translation phase 1 may:
    it ends a line comment, a directive and a counted line, and a backslash
    before it is a splice.  The output keeps the source's own line ends."""

    def test_a_line_comment_ends_at_a_lone_cr(self):
        plan = rewrite("int f(int a, int b, int c) { // note\r"
                       " return (a * b) + c; }\n", MAC)
        assert len(plan.sites) == 1
        assert plan.output == ('#include "ci_f.h"\r\rint f(int a, int b, int c)'
                               ' { // note\r return CI_F(a, b, c); }\n')

    def test_a_directive_ends_at_a_lone_cr(self):
        tokens = lex_c("#define X 1\rx = a * b;")
        assert list(tokens.in_directive) == [1] * 4 + [0] * 6

    def test_error_lines_count_a_lone_cr(self):
        with pytest.raises(CigenError, match="stray character '@' on line 4"):
            lex_c("a\rb\r\nc\r@")

    def test_a_backslash_and_a_lone_cr_splice(self):
        src = "ab\\\rc = d;\r"
        tokens = lex_c(src)
        assert tokens.text == ["abc", "=", "d", ";"]
        assert src[tokens.start[0]:tokens.end(0)] == "ab\\\rc"

    def test_an_added_include_ends_as_the_line_before_it(self):
        plan = rewrite('#include "m.h"\rint f(int a, int b, int c)'
                       " { return (a * b) + c; }\r", MAC)
        assert plan.output == ('#include "m.h"\r#include "ci_f.h"\rint f(int a,'
                               " int b, int c) { return CI_F(a, b, c); }\r")


class TestSplicesComeFirst:
    """A backslash-newline is removed before comments and tokens form, so
    it can open or continue a comment and join the halves of a token; each
    case here is read as gcc -E reads it."""

    def test_a_line_comment_continues_past_a_splice(self):
        src = ("int f(int a, int b, int c) {\n  // was: \\\n"
               "  w = (a * b) + c;\n  return (a * b) + c;\n}\n")
        plan = rewrite(src, MAC)
        assert [src[site.start:site.end] for site in plan.sites] == \
            ["(a * b) + c"]
        assert plan.output.count("CI_F(a, b, c)") == 1
        assert "  w = (a * b) + c;" in plan.output

    def test_a_split_slash_star_opens_a_block_comment(self):
        src = "int w = 2; /\\\n* old: w = (a * b) + c; */\n"
        assert lex_c(src).text == ["int", "w", "=", "2", ";"]
        with pytest.raises(CigenError, match=NO_MATCH):
            rewrite(src, MAC)

    def test_a_split_slash_slash_opens_a_line_comment(self):
        src = "x = 1 /\\\n/ (a * b) + c;\ny = 2;\n"
        assert lex_c(src).text == ["x", "=", "1", "y", "=", "2", ";"]
        assert _sites(src) == []

    def test_a_splice_joins_the_halves_of_an_identifier(self):
        spec = parse_ci_spec("ci g(opcode=2) { input ab: signed<8>; "
                             "input c: signed<8>; output y: signed<16>; "
                             "y = ab * c; }")
        src = "int g(int ab, int c) { return a\\\nb * c; }\n"
        tokens = lex_c(src)
        k = tokens.text.index("return") + 1
        assert tokens.text[k] == "ab"
        assert src[tokens.start[k]:tokens.end(k)] == "a\\\nb"
        plan = rewrite(src, spec)
        assert [src[site.start:site.end] for site in plan.sites] == \
            ["a\\\nb * c"]
        assert "return CI_G(ab, c); }" in plan.output

    def test_the_include_goes_after_a_spliced_comment(self):
        src = ('#include <stdio.h> // a comment \\\n that goes on\n'
               'int f(int a, int b, int c) { return (a * b) + c; }\n')
        assert rewrite(src, MAC).output.startswith(
            '#include <stdio.h> // a comment \\\n that goes on\n'
            '#include "ci_f.h"\n')


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
        ("r = x & a * b + c;", "a * b + c"),   # & binds looser than +
    ])
    def test_single_hit(self, stmt, expected):
        src = f"void t(void) {{ {stmt} }}\n"
        assert _sites(src) == [expected]
        assert rewrite(src, MAC).output == \
            '#include "ci_f.h"\n\n' + src.replace(expected, "CI_F(a, b, c)")

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
        "x = x / a * b + c;",          # / owns the leftmost leaf
        "x = x % a * b + c;",          # % owns the leftmost leaf
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
        with pytest.raises(CigenError, match=NO_MATCH):
            rewrite(src, SUM)

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

    @pytest.mark.parametrize("src, expected", [
        # the occurrence that starts in the directive overlaps the site
        ("#define M a\n+ (a + a);\n", ["(a + a)"]),
        # the directive's occurrence and the site share one statement
        ("#define M (a + a)\nx = a + a;\n", ["a + a"]),
    ])
    def test_a_directive_occurrence_hides_no_site(self, src, expected):
        spec = _spec_of("a + a")
        assert [src[site.start:site.end]
                for site in find_call_sites(lex_c(src), spec)] == expected

    def test_a_long_expression_is_matched_whole(self):
        # 39 tokens: the search reads the first 32, the parse the rest
        expr = " + ".join("abcdefghijklmnopqrsu")
        near_miss = expr[:-3] + "- u"
        src = f"void f(void) {{ x = {expr}; y = {near_miss}; }}\n"
        sites = find_call_sites(lex_c(src), _spec_of(expr))
        assert [src[site.start:site.end] for site in sites] == [expr]


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
        (_failed_groups(1000).replace("return", "return a * b + c -"), 1),
        ("int t(int a, int b, int c) { return "
         + "(" * 5000 + "a" + ")" * 5000 + " * b + c; }\n", 1),
    ], ids=["failed-groups-1000", "failed-groups-1000-beside-a-site",
            "parentheses-5000"])
    def test_any_nesting_at_any_stack_depth(self, counted, src, sites):
        # called 900 frames deep, so a parse that recursed once per group
        # would pass Python's default limit of 1000 frames
        def deep(frames, call):
            return deep(frames - 1, call) if frames else call()

        tokens = lex_c(src)
        assert len(deep(900, lambda: find_call_sites(tokens, MAC))) == sites
        assert counted[0] <= 2 * len(lex_c(src))

    def test_no_parse_where_the_tokens_occur_only_off_code(self, counted):
        # the target's tokens appear only in directives, comments and
        # strings; the code around them has groups and leftmost leaves,
        # which rewrite's scan leaves unlexed
        src = "".join(
            f"#define M_{k} ((a * b) + c)\n"
            f"/* x = (a * b) + c; */\n"
            f'const char *s_{k} = "(a * b) + c";\n'
            f"int f_{k}(int a, int b, int c) "
            f"{{ return (a - (b * c)) + g(a, (b), c) / a; }}\n"
            for k in range(300))
        tokens = lex_c(src)
        assert tokens.text.count("a") > 1000 and tokens.text.count("(") > 1000
        with pytest.raises(CigenError, match=NO_MATCH):
            rewrite(src, MAC)
        assert counted[0] == 0


def _spec_of(expr: str):
    names = sorted(set(re.findall(r"[a-z]", expr)))
    inputs = " ".join(f"input {name}: signed<8>;" for name in names)
    return parse_ci_spec(f"ci t(opcode=0) {{ {inputs} output x: signed<32>;"
                         f" x = {expr}; }}")


_TARGETS = ["a + b", "a * b", "a * b + c", "a - b - c", "a * (b + c)",
            "(a + b) % c", "a / b", "a", "a + a", "a * a + a",
            "(a + a) * (a - a)"]
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
    @example("#define M a\n+ (a + a);\n", "a + a")
    @example("x = ((a + b));", "a + b")
    @example('s = "a\\\n#"\n;\n#define X 1\na * b;\n', "a * b")
    @example("#define A (1 + \\\r\n 2)\r\nx = a * b;\r\n", "a * b")
    @example('s = "ab\\\r\ncd";\r\nx = a + b;\r\n', "a + b")
    def test_tokens_and_sites(self, source, expr):
        try:
            expected_tokens = reference_lex_c(source)
        except CigenError as exc:
            with pytest.raises(CigenError, match=LEX_ERROR) as info:
                lex_c(source)
            assert str(info.value) == str(exc)
            return
        tokens = lex_c(source)
        assert _columns(tokens) == _columns(expected_tokens)
        # no token text holds a line break: a literal ends at one, and
        # splices are cut first
        assert not any("\n" in text for text in tokens.text)
        spec = _TARGET_SPECS[expr]
        expected = reference_find_call_sites(source, spec)
        assume(not _site_a_tighter_operator_follows(
            source, expected, spec_match_tree(spec)))
        assert find_call_sites(tokens, spec) == expected


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
    "'\\\n'", '"x\\\r\ny"', "'\\\r\n'",
    " ", "\t", "\r", "\f", "\v", "\n", "\r\n", "\\\n", " \\\n\t",
    "\\\r\n",
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
    @example("#define A (1 + \\\r\n 2)\r\n")
    @example('s = "ab\\\r\ncd";\r\n@')
    def test_same_columns_and_errors(self, source):
        try:
            expected = named_group_lex_c(source)
        except CigenError as exc:
            with pytest.raises(CigenError, match=LEX_ERROR) as info:
                lex_c(source)
            assert str(info.value) == str(exc)
            return
        assert _columns(lex_c(source)) == _columns(expected)


# Pieces of directive-free C for gcc to read: identifiers without a letter
# that prefixes a literal (L, u, U, R), numbers, the five operators and
# what two of them spell, both comment forms, and literals with escapes.
# Each piece may be cut by a line end, and a line end or a space may follow
# it; a line end is LF, CR LF or a lone CR, or one of them spliced.
_GCC_PIECES = [
    "a", "b_1", "x9", "_t", "0", "42", "1.5e+3", ".5", "0x1F",
    "+", "-", "*", "/", "%", "++", "--",
    "// c", "//", "/* c */", "/**/", "/* a\n b */",
    '"s"', '""', '"a\\"b"', '"\\\\"', '"/*"', '"\'"',
    "'q'", "'\\n'", "'\\''", "'\\\\'", "'\"'",
]
_LINE_ENDS = ["\n", "\r\n", "\r", "\\\n", "\\\r\n", "\\\r"]
_GCC_SOURCES = st.lists(st.tuples(
    st.sampled_from(_GCC_PIECES), st.integers(0, 8),
    st.sampled_from(["", "", *_LINE_ENDS]),
    st.sampled_from(["", " ", *_LINE_ENDS])), max_size=12).map(
    lambda pieces: "".join(piece[:cut] + inside + piece[cut:] + after
                           for piece, cut, inside, after in pieces))
# gcc's output holds no comment or splice; \S is a character that starts
# no token, as an unterminated quote does
_OUTPUT_TOKEN_RE = re.compile("|".join([
    r'"(?:\\.|[^"\\\n])*"', r"'(?:\\.|[^'\\\n])*'", r"[A-Za-z_]\w*",
    r"\.?[0-9](?:[eEpP][+-]|[0-9A-Za-z_.])*", r"\+\+|--|[-+*/%]", r"\S"]))
_GCC = shutil.which("gcc")


def gcc_tokens(source: str) -> list[str] | None:
    """The tokens that gcc's preprocessor reads in directive-free source,
    or None when it finds a lex error: an unterminated comment or literal,
    or a character that starts no token."""
    run = subprocess.run([_GCC, "-E", "-P", "-undef", "-nostdinc", "-"],
                         input=source.encode(), capture_output=True,
                         check=False, timeout=60)
    if run.returncode or b"missing terminating" in run.stderr:
        return None
    tokens = _OUTPUT_TOKEN_RE.findall(run.stdout.decode())
    return None if {'"', "'", "\\"} & set(tokens) else tokens


@pytest.mark.skipif(_GCC is None, reason="gcc is not installed")
class TestSameAsGcc:
    """lex_c reads directive-free C as gcc -E does (differential testing,
    after McKeeman 1998): the same token texts, a lex error exactly where
    gcc finds one, and each token's span in the source spliced to its
    text."""

    @settings(max_examples=300, deadline=None)
    @given(_GCC_SOURCES)
    @example("a // c \\\n b\nx9\n")
    @example("a /\\\n* c */ b\n")
    @example("a /\\\n/ c\nb\n")
    @example("a\\\r\nb * c\n")
    @example("a // c\rb\n")
    @example("a\\\rb * c\n")
    @example('"a\\\\\\\n\nb"\n')
    def test_tokens_and_errors(self, source):
        expected = gcc_tokens(source)
        if expected is None:
            with pytest.raises(CigenError, match=LEX_ERROR):
                lex_c(source)
            return
        tokens = lex_c(source)
        assert tokens.text == expected
        for k, text in enumerate(tokens.text):
            span = source[tokens.start[k]:tokens.end(k)]
            assert re.sub(r"\\(?:\r\n?|\n)", "", span) == text


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
        # one call per rewrite, of the source blanked at its offsets but for
        # the runs of code that can hold a site, with their bounds
        run = "{ return (a * b) + c;"
        src = f"int x;\nint f(int a, int b, int c) {run} }}\n"
        assert len(rewrite(src, MAC).sites) == 1
        at = src.index(run)
        assert seen == [" " * at + run + " " * (len(src) - at - len(run))]
        # none when nothing can hold a site, and the whole source, which
        # raises, when it holds a lex error
        with pytest.raises(CigenError, match=NO_MATCH):
            rewrite("int x;\n", MAC)
        with pytest.raises(CigenError, match=LEX_ERROR):
            rewrite("int @;\n", MAC)
        assert seen[1:] == [" " * 7, "int @;\n"]

    def test_len_is_the_token_count(self):
        tokens = lex_c("int f(int a) { return a; } /* c */ // d\n"
                       "#define X 1\n")
        assert len(tokens) == 15
        assert tokens.text[-4:] == ["#", "define", "X", "1"]
        assert list(tokens.in_directive) == [0] * 11 + [1] * 4


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
        plan = rewrite(source, MAC)
        assert plan.output == (GOLDEN_DIR / "fixture_patched.c").read_text()
        assert len(plan.sites) == 1
        assert plan.replacement == "CI_F(a, b, c)"
        assert plan.output.count('#include "ci_f.h"') == 1

    def test_second_pass_fails_loudly(self):
        source = (GOLDEN_DIR / "fixture.c").read_text()
        once = rewrite(source, MAC)
        with pytest.raises(CigenError, match="no occurrence"):
            rewrite(once.output, MAC)

    def test_bytes_outside_sites_survive(self):
        src = "int f(int a, int b, int c) { return (a * b) + c; }\n"
        plan = rewrite(src, MAC)
        assert plan.output == ('#include "ci_f.h"\n\n'
                               + src.replace("(a * b) + c", "CI_F(a, b, c)"))

    def test_include_lands_after_the_last_include(self):
        src = ("#include <stdio.h>\n\n#include <math.h>\n"
               "int f(int a, int b, int c) { return (a * b) + c; }\n")
        plan = rewrite(src, MAC)
        lines = plan.output.splitlines()
        assert lines[:4] == ["#include <stdio.h>", "",
                             "#include <math.h>", '#include "ci_f.h"']

    def test_existing_include_is_kept_once(self):
        src = ('#include "ci_f.h"\n'
               "int f(int a, int b, int c) { return (a * b) + c; }\n")
        plan = rewrite(src, MAC)
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
        plan = rewrite(head + body, MAC)
        assert plan.output == patched_head + body.replace("(a * b) + c",
                                                          "CI_F(a, b, c)")

    def test_include_on_the_last_line_without_a_newline(self):
        src = ("int f(int a, int b, int c) { return (a * b) + c; }\n"
               "#include <a.h>")
        plan = rewrite(src, MAC)
        assert plan.output.endswith('#include <a.h>\n#include "ci_f.h"')

    def test_added_include_ends_as_the_line_before_it(self):
        body = "int f(int a, int b, int c) { return (a * b) + c; }\r\n"
        plan = rewrite('#include "m.h" // m\r\n' + body, MAC)
        assert plan.output == ('#include "m.h" // m\r\n#include "ci_f.h"\r\n'
                               + body.replace("(a * b) + c", "CI_F(a, b, c)"))

    def test_include_at_the_top_ends_as_the_first_line(self):
        body = "int f(int a, int b, int c) { return (a * b) + c; }\r\n\n"
        plan = rewrite(body, MAC)
        assert plan.output == ('#include "ci_f.h"\r\n\r\n'
                               + body.replace("(a * b) + c", "CI_F(a, b, c)"))

    def test_every_repeated_statement_is_replaced(self):
        src = ("int g(int a, int b, int c) {\n"
               "  int x = (a * b) + c;\n"
               "  int y = (a * b) + c;\n"
               "  return x + y;\n}\n")
        plan = rewrite(src, MAC)
        assert len(plan.sites) == 2
        assert plan.output.count("CI_F(a, b, c)") == 2
        assert plan.output.count('#include "ci_f.h"') == 1

    def test_unmatchable_modulus_says_so(self):
        spec = parse_ci_spec(MOD_TEXT)
        with pytest.raises(CigenError, match="by hand"):
            rewrite("int x = a % b;\n", spec)

    def test_no_occurrence_message_names_the_instruction(self):
        with pytest.raises(CigenError, match="f expression"):
            rewrite("int x = a + b;\n", MAC)


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
        plan = rewrite("\n".join(lines) + "\n", MAC)
        assert len(plan.sites) == planted
        assert plan.output.count("CI_F(a, b, c)") == planted
        assert plan.output.count('#include "ci_f.h"') == 1


# Pieces of C for the differential of rewrite: comments and literals that
# hold ';', '{', '}' or a target, splices, lone CRs, stray characters and
# unterminated openers, and directive lines, #include ones among them, that
# may fall inside a statement.
_RUN_PIECES = [
    "a", "b", "c", "ab", "(", ")", "*", "+", "-", "/", "%", ",", ";", "{", "}",
    "=", "return", "sizeof", "->", "[", "]", "&", "!", "++", "1", ".5", "f(",
    "#", "##", " ", "\t", "\f", "\n", "\r\n", "\r", "\\\n", "\\\r\n", "\\\r",
    "/* ; { } a * b + c */", "/*\n;}*/", "// a + b ; }", '"a * b; {"', '"}"',
    "'{'", "';'", "'\\''", '"a\\\nb"', "a\\\n+ b", "a /* x */ * b",
]
_RUN_DIRECTIVES = [
    "#define M a * b;", "#define M ; a + b", "#x { a * b + c", "#x } a",
    "#if 1", "#endif", "#", '#include "ci_t.h"', "#include <x.h> /* c\n */",
    ' # include "y.h" // c', '##include "ci_t.h"', '#/**/include "z.h"',
    '#\tinclude"ci_t.h"', '#includes "q.h"', "#define include x",
    '/* c */ #include "w.h"', '#include "ci_t.h" x', '#include \\\n"ci_t.h"',
    '#inc\\\nlude "v.h"', '# # include "u.h"', '#include "ci_t.h.x"',
]
_RUN_SOUPS = st.lists(st.one_of(
    st.sampled_from(_RUN_PIECES),
    st.tuples(st.sampled_from(["x = ", "return ", "(", ""]),
              st.sampled_from(_TARGETS),
              st.sampled_from([";", " }", ")", ""])).map("".join),
    st.tuples(st.sampled_from(["\n", "\r\n", "\r"]),
              st.sampled_from(_RUN_DIRECTIVES),
              st.sampled_from(["\n", "\r\n", "\r", ""])).map("".join),
    st.sampled_from(_WIDE_FAULTS)), max_size=30).map("".join)


class TestOnlyTheRunsThatCanHoldASite:
    """rewrite, which lexes only the runs of code that can hold a site and
    reads the #include lines from its scan, gives the sites, the patched
    source and the lex error that lexing the whole file gives
    (whole_file_rewrite)."""

    @settings(max_examples=400, deadline=None)
    @given(_RUN_SOUPS, st.sampled_from(_TARGETS))
    @example('#x { a\n+ b;\n', "a + b")
    @example("x } # a a + b;", "a + b")
    @example('##include "h.h"\nx = a;', "a")
    @example('#include "ci_t.h" \\\r\n\r\nx = a;', "a")
    @example('#include "a.h" // c\r\n#includes "b.h"\nx = a;', "a")
    @example('x = a /*', "a")
    @example('x = "a;\n@ a;', "a")
    def test_same_as_the_whole_file(self, source, expr):
        spec = _TARGET_SPECS[expr]
        try:
            sites, output = whole_file_rewrite(source, spec)
        except CigenError as exc:
            with pytest.raises(CigenError, match=LEX_ERROR) as info:
                rewrite(source, spec)
            assert str(info.value) == str(exc)
            return
        if not sites:
            with pytest.raises(CigenError, match=NO_MATCH):
                rewrite(source, spec)
            return
        plan = rewrite(source, spec)
        assert (list(plan.sites), plan.output) == (sites, output)

    def test_a_lex_error_comes_before_an_unmatchable_spec(self):
        spec = parse_ci_spec(MOD_TEXT)
        with pytest.raises(CigenError, match="stray character '@' on line 2"):
            rewrite("x = a % b;\n@\n", spec)

    def test_the_matcher_gets_the_runs_the_scan_found(self):
        # rewrite searches the source once: find_call_sites parses the
        # tokens of the scan's runs; the other sources have runs that hold
        # directive tokens, one with a ';', and one a tree equal to the
        # target from inside a directive
        sources = [(GOLDEN_DIR / "fixture.c").read_text(),
                   "x = a * b + c;\n#define M ;\n{ y = (a\n#if 1\n* b) + c +\n"
                   "#endif\na * b + c; }\n",
                   "x = a * b + c +\n#define M a\n* b + c;\n"]
        expected = [whole_file_rewrite(src, MAC) for src in sources]
        plans = [rewrite(src, MAC) for src in sources]
        assert [(list(plan.sites), plan.output) for plan in plans] == expected
        assert plans[0].output == (GOLDEN_DIR / "fixture_patched.c").read_text()
        assert [len(plan.sites) for plan in plans] == [1, 2, 1]


class TestSplicedOffsetsMapByOneTable:
    """The map back from a spliced text, one table lookup per offset, maps
    each offset as bisecting the cut offsets did, and an offset past a
    character past that character (_unspliced), on the soups above."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_RUN_PIECES), max_size=30).map("".join))
    @example("\\\n\\\n")
    @example("a\\\r\nb\\\n")
    def test_same_as_bisecting_the_cuts(self, source):
        spliced, table = cpatch._splice(source)
        pieces = re.split(r"(\\\r?\n)", source)
        assert spliced == "".join(pieces[::2])
        cuts = list(accumulate(map(len, pieces[:-1:2])))
        shifts = list(accumulate(map(len, pieces[1::2]), initial=0))

        def back(offset: int) -> int:
            return offset + shifts[bisect_right(cuts, offset)]

        offsets = list(range(-1, len(spliced) + 1))
        assert (table is None) == (spliced == source)
        assert cpatch._unspliced(table, offsets) == list(map(back, offsets))
        assert cpatch._unspliced(table, offsets[2:], past=True) == \
            [back(offset - 1) + 1 for offset in offsets[2:]]


# --- the references: lex_c and find_call_sites as they were before the
# matcher was made linear, and lex_c as it was before it returned columns,
# kept verbatim (renamed) but for how they flag directive lines, which
# _flag_directives does for both, and for lone CRs and splices, which
# _in_source reads as LFs and removes before either lexes, as C does; and
# spec_match_tree, the tree builder find_call_sites used before it matched
# the DFG itself --------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CToken:
    kind: str
    text: str
    start: int
    end: int
    in_directive: int = 0


_DIRECTIVE_RE = re.compile(r"(?m)^[ \t]*#[^\n]*")


def _flag_directives(source: str, tokens: list[CToken],
                     comments: list[tuple[int, int]]) -> list[CToken]:
    """tokens with in_directive 1 on the directive lines of source once
    each comment span is spaces of its length (no newline): the one step
    both references take differently from the code they were copied from."""
    for a, b in comments:
        source = source[:a] + " " * (b - a) + source[b:]
    flags = [0] * len(tokens)
    for m in _DIRECTIVE_RE.finditer(source):
        for k, tok in enumerate(tokens):
            if m.start() <= tok.start < m.end():
                flags[k] = 1
    return [dataclasses.replace(tok, in_directive=flag)
            for tok, flag in zip(tokens, flags)]


def _in_source(lex, source: str) -> list[CToken]:
    """lex(spliced, line) run on source with every lone CR read as LF and
    then every backslash-newline removed, as C's translation phases 1 and 2
    do, its tokens moved back to source's offsets; line(i) is the line of
    source holding spliced[i]."""
    source = re.sub(r"\r(?!\n)", "\n", source)   # of the same length
    kept = []   # the source offset of each character of spliced
    i = 0
    while i < len(source):
        if source.startswith(("\\\n", "\\\r\n"), i):
            i = source.index("\n", i) + 1
        else:
            kept.append(i)
            i += 1
    spliced = "".join(map(source.__getitem__, kept))
    kept.append(len(source))
    tokens = lex(spliced, lambda i: source.count("\n", 0, kept[i]) + 1)
    return [dataclasses.replace(tok, start=kept[tok.start],
                                end=kept[tok.end - 1] + 1) for tok in tokens]


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"\.?[0-9](?:[eEpP][+-]|[0-9A-Za-z_.])*")


def reference_lex_c(source: str) -> list[CToken]:
    """Tokenize C source, dropping comments but keeping byte offsets."""
    return _in_source(_reference_lex_spliced, source)


def _reference_lex_spliced(source: str, line) -> list[CToken]:
    comments: list[tuple[int, int]] = []
    tokens: list[CToken] = []
    i, n = 0, len(source)

    def take_quoted(quote: str, what: str) -> int:
        j = i + 1
        while j < n:
            c = source[j]
            if c == "\\" and not source.startswith("\\\n", j):
                j += 2   # an escape
                continue
            if c == quote:
                return j + 1
            if c == "\n":
                raise CigenError(f"unterminated {what} on line {line(i)}")
            j += 1
        raise CigenError(f"unterminated {what} on line {line(i)}")

    while i < n:
        c = source[i]
        if c in " \t\r\f\v\n":
            i += 1
            continue
        if source.startswith("//", i):
            nl = source.find("\n", i)
            comments.append((i, n if nl < 0 else nl))
            i = n if nl < 0 else nl
            continue
        if source.startswith("/*", i):
            close = source.find("*/", i + 2)
            if close < 0:
                raise CigenError(f"unterminated block comment on line {line(i)}")
            comments.append((i, close + 2))
            i = close + 2
            continue
        if c == '"':
            end = take_quoted('"', "string literal")
            tokens.append(CToken(TokKind.STRING, source[i:end], i, end))
            i = end
            continue
        if c == "'":
            end = take_quoted("'", "character literal")
            tokens.append(CToken(TokKind.CHAR, source[i:end], i, end))
            i = end
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            tokens.append(CToken(TokKind.IDENT, m.group(), i, m.end()))
            i = m.end()
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            m = _NUMBER_RE.match(source, i)
            tokens.append(CToken(TokKind.NUMBER, m.group(), i, m.end()))
            i = m.end()
            continue
        for punct in _PUNCTS:
            if source.startswith(punct, i):
                tokens.append(CToken(TokKind.PUNCT, punct, i, i + len(punct)))
                i += len(punct)
                break
        else:
            raise CigenError(f"stray character {c!r} on line {line(i)}")
    return _flag_directives(source, tokens, comments)


Tree = tuple  # ("leaf", name) | (symbol, left, right)


def spec_match_tree(spec: CiSpec) -> Tree | None:
    """The spec expression as an operator-symbol tree, or None when it uses
    an operator C cannot spell."""
    dfg = spec.dfg
    trees: dict[int, Tree] = {leaf.id: ("leaf", leaf.decl.name)
                              for leaf in dfg.leaves}
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
    if tok.kind == TokKind.IDENT:
        return ("leaf", tok.text), i + 1
    if tok.kind == TokKind.PUNCT and tok.text == "(":
        inner = _expr(tokens, i + 1, 1)
        if inner is None:
            return None
        tree, j = inner
        if j < len(tokens) and tokens[j].kind == TokKind.PUNCT \
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
    while i < len(tokens) and tokens[i].kind == TokKind.PUNCT \
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
        if tokens[j].kind != TokKind.PUNCT:
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
    whole_paren = (first.kind == TokKind.PUNCT and first.text == "("
                   and _paren_close(tokens, i) == j - 1)
    if whole_paren:
        # safe after anything except a callee or index expression
        return not _ends_value(prev)
    if prev.kind == TokKind.IDENT:
        if prev.text == "sizeof":
            return False   # sizeof binds the leftmost leaf
        if first.kind == TokKind.PUNCT and first.text == "(":
            # ident '(' opens an argument list unless it is a keyword
            return prev.text in ("return", "else", "case")
        return True   # return, case, else and friends
    if prev.kind != TokKind.PUNCT:
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
    r"(?P<skip>[ \t\r\f\v\n]+)",
    r"(?P<comment>//[^\n]*|/\*[\s\S]*?\*/)",
    r'(?P<STRING>"(?:\\.|[^"\\\n])*")',
    r"(?P<CHAR>'(?:\\.|[^'\\\n])*')",
    r"(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)",
    r"(?P<NUMBER>\.?[0-9](?:[eEpP][+-]|[0-9A-Za-z_.])*)",
    r"(?P<unterminated>/\*|[\"'])",
    "(?P<PUNCT>" + "|".join(map(re.escape, _PUNCTS)) + ")",
]))
_UNTERMINATED = {'"': "string literal", "'": "character literal",
                 "/*": "block comment"}


def named_group_lex_c(source: str) -> list[CToken]:
    """Tokenize C source, dropping comments but keeping byte offsets."""
    return _in_source(_named_group_lex_spliced, source)


def _named_group_lex_spliced(source: str, line) -> list[CToken]:
    comments: list[tuple[int, int]] = []
    tokens: list[CToken] = []
    i, n = 0, len(source)
    while i < n:
        m = _NAMED_TOKEN_RE.match(source, i)
        if m is None:
            raise CigenError(f"stray character {source[i]!r} on line {line(i)}")
        kind, text, end = m.lastgroup, m.group(), m.end()
        if kind == "comment":
            comments.append((i, end))
        elif kind == "unterminated":
            raise CigenError(
                f"unterminated {_UNTERMINATED[text]} on line {line(i)}")
        elif kind != "skip":
            tokens.append(CToken(getattr(TokKind, kind), text, i, end))
        i = end
    return _flag_directives(source, tokens, comments)


# --- rewrite as it was when it lexed the whole file: sites from
# find_call_sites(lex_c(source)), and the include placed by the directive
# flags of the whole file's tokens ---------------------------------------------

_REST_OF_LINE_RE = re.compile(r"(?://[^\r\n]*|/\*[\s\S]*?\*/|[^\r\n])*")


def _same_line(source: str, tokens: CTokens, k: int) -> bool:
    """Whether token k lies on token k - 1's line once lone CRs are LFs,
    splices are cut and comments are white space."""
    gap = re.sub(r"\r(?!\n)", "\n", source[tokens.end(k - 1):tokens.start[k]])
    return _REST_OF_LINE_RE.fullmatch(cpatch._splice(gap)[0]) is not None


def whole_file_rewrite(source: str, spec: CiSpec) -> tuple[list, str]:
    """The sites and the patched source; no source when there is no site."""
    tokens = lex_c(source)
    sites = find_call_sites(tokens, spec)
    if not sites:
        return sites, None
    # 2 on a directive's first token (a flagged one not on the line of the
    # token before it), 1 on the rest of the directive
    header, text = header_filename(spec), tokens.text
    flags = [flag and (2 if k == 0 or not _same_line(source, tokens, k) else 1)
             for k, flag in enumerate(tokens.in_directive)]
    includes = [k for k in range(1, len(text)) if text[k] == "include"
                and flags[k - 1] == 2 and flags[k] == 1]
    at, include = 0, ""
    if not includes:
        eol = re.search(r"\r\n?|\n", source)
        eol = eol[0] if eol else "\n"
        include = f'#include "{header}"{eol}{eol}'
    elif not any(text[k + 1:k + 2] == [f'"{header}"'] and flags[k + 1] == 1
                 for k in includes):
        end = includes[-1] + 1
        while end < len(text) and flags[end] == 1:
            end += 1
        at = tokens.end(end - 1)
        rest, table = cpatch._splice(re.sub(r"\r(?!\n)", "\n", source[at:]))
        at += cpatch._unspliced(table, [_REST_OF_LINE_RE.match(rest).end()])[0]
        eol = re.compile(r"\r\n?|\n").match(source, at)
        include = (eol[0] if eol else "\n") + f'#include "{header}"'
    names = ", ".join(leaf.decl.name for leaf in spec.dfg.leaves)
    replacement = f"{call_macro_name(spec)}({names})"
    pieces, last = [], 0
    for start, end, new in sorted([(site.start, site.end, replacement)
                                   for site in sites] + [(at, at, include)]):
        pieces += source[last:start], new
        last = end
    return sites, "".join(pieces + [source[last:]])
