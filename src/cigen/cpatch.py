"""Patch C sources to call the generated custom instruction.

The matcher works on tokens, not text.  The lexer splices lines first, as
C's translation phase 2 does, then tiles the spliced text with one regular
expression and classifies each match by its first character; the tokens
keep their spliced texts at the original source's offsets.
rewrite searches once, and that scan is the only prefilter: one scan of the
spliced source finds lex errors, blanks comments, makes literals and
directive lines opaque and records the #include lines, and one search of the
code left finds the instruction's first 32 tokens with only white space and
parentheses between, as any equal tree prints.  Only the runs between ';',
'{' and '}' that hold a hit are lexed, since no parse crosses one
(tests/test_cpatch.py::TestOnlyTheRunsThatCanHoldASite).  find_call_sites
parses the tokens it is given from right to left at each '(' and each
identifier equal to the leftmost leaf: the longest expression of the
instruction's grammar (identifiers, parentheses and the five binary
operators, with C precedence) and every prefix of its left spine are
compared with the instruction's dataflow graph.  One memo serves every
candidate, so each subexpression is parsed once; a parse stops once its tree
has more leaves than the target; one prefix count of the directive tokens,
made when there is one, tests each prefix.  So patching takes time linear in
the source, at any nesting and with any number of sites, directives,
splices, literals or comments (tests/test_growth.py::test_patching_is_linear).
A hit is then screened by context guards so the replacement keeps the
parse of the surrounding expression:

* a candidate preceded by a tighter-binding operator, a unary operator, a
  cast, or a member access is dropped, because its leftmost leaf belongs to
  that construct rather than to a standalone occurrence;
* a candidate followed by a call, index, member, or postfix token, or by an
  operator binding tighter than its top operator, is dropped for the mirror
  reason on the right edge;
* fully parenthesized candidates are exempt from the operator checks on
  both edges, and from the rest of the left-context screening unless the
  parenthesis is actually a call argument list.

The guards read tokens, never C types, so a patched site can compute
something else: C adds two signed char operands as int, so 100 + 100 is
200, while a signed<8> instruction wraps the sum to -56.  Flooring modulus
has no C operator, so a spec using it is reported as unmatchable instead of
guessed at; directive lines are never patched.
"""

from __future__ import annotations

import re
import string
from bisect import bisect_left
from itertools import accumulate, chain, compress, repeat
from operator import add, itemgetter, sub
from typing import NamedTuple

from .errors import CigenError
from .frontend import DEFAULT_INTRINSIC, OPERATORS, CiSpec, Dfg, OpNode
from .mapper import MappedDesign

# C spells each operator of the instruction grammar but the flooring "mod"
# the same way, at the same precedence.
_SYM_PREC = {symbol: prec for symbol, (prec, _, _) in OPERATORS.items()
             if symbol != "mod"}
_OP_SYMBOL: dict[str, str] = {kind: symbol for symbol in _SYM_PREC
                              for kind in OPERATORS[symbol][1:]}

_PUNCTS = sorted([
    "<<=", ">>=", "...", "->", "++", "--", "<<", ">>", "<=", ">=", "==",
    "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "##",
    "(", ")", "[", "]", "{", "}", ".", ",", ";", ":", "?", "~", "!", "%",
    "^", "&", "*", "-", "+", "=", "<", ">", "|", "/", "#",
], key=len, reverse=True)

# left contexts that always leave a following expression intact
_SAFE_LEFT_PUNCTS = frozenset({
    "(", "[", "{", "}", ",", ";", ":", "?", "=",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
    "|", "^", "<<", ">>", "==", "!=", "<", ">", "<=", ">=", "&&", "||",
})


class TokKind:
    IDENT, NUMBER, STRING, CHAR, PUNCT = "ident", "number", "string", "char", "punct"


class CTokens(NamedTuple):
    """The tokens of one C source, one list per field: token k is kind[k]
    with text[k] at offset start[k], and in_directive[k] is 1 when it lies
    on a preprocessor directive, else 0.  Token k ends at end(k), ends[k]
    when a splice was cut from a text.  Its len() is the token count, not
    the field count."""
    kind: list[str]
    text: list[str]
    start: list[int]
    in_directive: bytearray
    ends: list[int] | None = None

    def __len__(self) -> int:
        return len(self.text)

    def end(self, k: int) -> int:
        return self.ends[k] if self.ends else self.start[k] + len(self.text[k])


_LONE_CR_RE = re.compile(r"\r(?!\n)")
_LINE_END_RE = re.compile(r"\r\n?|\n")
_SPLICE_RE = re.compile(r"(\\\r?\n)")
_DIRECTIVE_RE = re.compile(r"\n[ \t]*#[^\r\n]*")   # in text after a "\n"

# A comment, a string or character literal, or an opening quote or comment
# that the complete forms before it could not close.
_SKELETON_RE = re.compile("|".join([
    r"//[^\r\n]*|/\*[\s\S]*?\*/",
    r'"[^"\\\n]*(?:\\.[^"\\\n]*)*"',
    r"'[^'\\\n]*(?:\\.[^'\\\n]*)*'",
    r"""/\*|"|'""",
]))
# One alternative per token class, tried in this order at each position, and
# a catch-all for a stray character, so the matches tile the spliced source:
# white space, the skeleton's, an identifier, a punctuator that starts no
# longer token (common, so tried early), a number, a punctuator.  No other
# token holds a skeleton match's first character: a scan finds them.
_TOKEN_RE = re.compile("|".join([
    r"[ \t\r\f\v\n]+",
    _SKELETON_RE.pattern,
    r"[A-Za-z_][A-Za-z0-9_]*",
    r"[()[\]{};,?~:]",
    r"\.?[0-9](?:[eEpP][+-]|[0-9A-Za-z_.])*",
    *map(re.escape, _PUNCTS),
    r"[\s\S]",
]))
_UNTERMINATED = {'"': "string literal", "'": "character literal",
                 "/*": "block comment"}

# What a match is, by its first character: a token kind, _SPACE (falsy,
# where every TokKind is truthy) for white space, or _LOOK for a character
# that starts matches of several classes, a stray one included.
_SPACE = None
_LOOK = "look"
_FIRST_CHAR: dict[str, object] = {
    **dict.fromkeys(" \t\r\f\v\n", _SPACE),
    **dict.fromkeys(string.ascii_letters + "_", TokKind.IDENT),
    **dict.fromkeys(string.digits, TokKind.NUMBER),
    **dict.fromkeys("".join(_PUNCTS), TokKind.PUNCT),
    **dict.fromkeys("/\"'.", _LOOK),
}
# A character that starts no token; a directive line whose first token is
# followed by "include", up to the token after it, after a "\n".
_STRAY_RE = re.compile("[^" + re.escape("".join(_FIRST_CHAR)) + "]")
_INCLUDE_RE = re.compile(r"\n[ \t]*##?[ \t\f\v]*include(?![A-Za-z0-9_])[ \t\f\v]*")


def _look_closer(text: str, source: str, offset: int, table):
    """The kind of a _LOOK match at offset (source's through table), or
    _SPACE for a comment; raises CigenError for an unterminated or stray one."""
    first = text[0]
    if text in _UNTERMINATED:
        problem = f"unterminated {_UNTERMINATED[text]}"
    elif first == "/":
        return _SPACE if text[1:2] in ("/", "*") else TokKind.PUNCT
    elif first in "\"'":
        return TokKind.STRING if first == '"' else TokKind.CHAR
    elif first == ".":
        return TokKind.PUNCT if text in (".", "...") else TokKind.NUMBER
    else:
        problem = f"stray character {first!r}"
    line = source.count("\n", 0, _unspliced(table, [offset])[0]) + 1
    raise CigenError(f"{problem} on line {line}")


def _splice(source: str):
    """source spliced as C's phase 2 does, and the table back to its offsets,
    or None when source has no splice: offset x of the spliced text, from -1
    to its size, lies at x + table[x + 1] of source (see _unspliced)."""
    pieces = _SPLICE_RE.split(source)   # text, splice, text, ..., text
    if len(pieces) == 1:
        return source, None
    cuts = list(accumulate(map(len, pieces[:-1:2])))
    shifts = list(accumulate(map(len, pieces[1::2]), initial=0))
    spliced = "".join(pieces[::2])
    return spliced, [0, *chain.from_iterable(map(repeat, shifts, map(
        sub, cuts + [len(spliced) + 1], [0] + cuts)))]


def _unspliced(table: list[int] | None, offsets: list[int],
               past: bool = False) -> list[int]:
    """offsets of a spliced text at its source's, through _splice's table;
    past: each is past a character, and stays past that character."""
    if table is None:
        return offsets
    keys = offsets if past else map((1).__add__, offsets)
    return list(map(add, offsets, map(table.__getitem__, keys)))


def lex_c(source: str) -> CTokens:
    """Tokenize C source, dropping comments, once each lone CR is read as
    LF, as gcc reads it, and its lines are spliced as C splices them: texts
    are spliced, offsets and error lines source's."""
    source = _LONE_CR_RE.sub("\n", source)   # C's phase 1: no offset moves
    spliced, table = _splice(source)
    parts = _TOKEN_RE.findall(spliced)
    offsets = list(accumulate(map(len, parts), initial=0))
    kinds = list(map(_FIRST_CHAR.get, map(itemgetter(0), parts), repeat(_LOOK)))
    # directives, in a text that holds a '#', are found as C finds them once
    # each comment is white space: here spaces of its length, so offsets hold
    uncommented = parts.copy()
    for k in [k for k, kind in enumerate(kinds) if kind is _LOOK]:
        kinds[k] = _look_closer(parts[k], source, offsets[k], table)
        if kinds[k] is _SPACE:
            uncommented[k] = " " * len(parts[k])
    start = list(compress(offsets, kinds))   # the tokens' entries
    in_directive = bytearray(len(start))
    lines = "\n" + "".join(uncommented) if "#" in spliced else ""
    for m in _DIRECTIVE_RE.finditer(lines):
        lo = bisect_left(start, m.start())   # the line's offset, past "\n"
        hi = bisect_left(start, m.end() - 1, lo)
        if hi > lo:   # none when the line holds the end of a literal only
            in_directive[lo:hi] = b"\1" * (hi - lo)
    text, ends = list(compress(parts, kinds)), None
    if table:
        ends = _unspliced(table, list(map(add, start, map(len, text))), past=True)
        start = _unspliced(table, start)
    return CTokens(list(filter(None, kinds)), text, start, in_directive, ends)


# --- expression matching ----------------------------------------------------

def _spelled_in_c(dfg: Dfg) -> bool:
    """Whether C has an operator for every operation of dfg."""
    return all(dfg.nodes[node_id].kind in _OP_SYMBOL for node_id in dfg.order)


# A parse outcome that ends the candidate it occurs in, besides a
# (node, end) pair and None (no expression here): a tree with more leaves
# than the target.
_BIG = "big"


class _Matcher:
    """Expression parses over one token list, shared by every candidate
    start of one find_call_sites call.  Trees are hash-consed into integer
    node ids, so comparing a candidate with the target costs one integer
    comparison at any depth.  expr results are memoized per (token index,
    minimum precedence): once a group's contents are in the memo, reading
    the group costs one lookup, so parsing the starts from right to left
    keeps the recursion within the three precedence levels."""

    def __init__(self, tokens: CTokens, dfg: Dfg):
        self.kind, self.text = tokens.kind, tokens.text
        self.ids: dict[tuple, int] = {}
        self.leaves: list[int] = []   # leaf count per node id
        self.memo: dict[tuple[int, int], object] = {}
        nodes = {leaf.id: self.node(("leaf", leaf.decl.name))
                 for leaf in dfg.leaves}   # DFG id -> node id
        for node_id in dfg.order:
            node = dfg.nodes[node_id]
            nodes[node_id] = self.node(
                (_OP_SYMBOL[node.kind], nodes[node.left], nodes[node.right]))
        self.target = nodes[dfg.root]

    def node(self, key: tuple) -> int:
        """The id of ("leaf", name) or (symbol, left id, right id)."""
        node = self.ids.get(key)
        if node is None:
            node = self.ids[key] = len(self.leaves)
            self.leaves.append(1 if key[0] == "leaf" else
                               self.leaves[key[1]] + self.leaves[key[2]])
        return node

    def expr(self, i: int, min_prec: int, spine: list | None = None):
        """The longest expression at token i whose operators bind at least
        min_prec, as (node, end); None when none starts there; _BIG when the
        parse stopped.  With spine, the tree after the first primary and
        after each operator of this level is appended to it as (node, end)."""
        key = (i, min_prec)
        if spine is None and key in self.memo:
            return self.memo[key]
        text = self.text
        result = None
        if i < len(text):
            if self.kind[i] == TokKind.IDENT:
                result = self.node(("leaf", text[i])), i + 1
            elif text[i] == "(":
                result = self.expr(i + 1, 1)
                if isinstance(result, tuple):
                    node, j = result
                    closed = j < len(text) and text[j] == ")"
                    result = (node, j + 1) if closed else None
        if isinstance(result, tuple):
            node, j = result
            if spine is not None:
                spine.append(result)
            stop = None
            while j < len(text) and _SYM_PREC.get(text[j], 0) >= min_prec:
                op = text[j]
                right = self.expr(j + 1, _SYM_PREC[op] + 1)
                if right is None or right is _BIG:
                    stop = right   # None: the expression ends before op
                    break
                node, j = self.node((op, node, right[0])), right[1]
                if self.leaves[node] > self.leaves[self.target]:
                    # every later prefix holds this tree; one cut short by
                    # a failed group ends before an operator binding
                    # tighter than its top one, which the right-edge guard
                    # refuses
                    stop = _BIG
                    break
                if spine is not None:
                    spine.append((node, j))
            result = (node, j) if stop is None else stop
        self.memo[key] = result
        return result


def _spelling(dfg: Dfg) -> list[str]:
    """The first 32 tokens of dfg as C would spell it, without parentheses."""
    nodes, spelling, stack = dfg.nodes, [], [dfg.nodes[dfg.root]]
    while stack and len(spelling) < 32:   # a short prefix keeps every hit
        node = stack.pop()
        if isinstance(node, OpNode):
            symbol = _OP_SYMBOL.get(node.kind, "mod")   # mod: rewrite finds none
            stack += nodes[node.right], symbol, nodes[node.left]
        else:
            spelling.append(node if isinstance(node, str) else node.decl.name)
    return spelling


_VALUE_END_KINDS = (TokKind.IDENT, TokKind.NUMBER, TokKind.STRING, TokKind.CHAR)


def _ends_value(kind: list[str], text: list[str], k: int) -> bool:
    return k >= 0 and (kind[k] in _VALUE_END_KINDS
                       or text[k] in (")", "]", "++", "--"))


def _left_context_ok(kind: list[str], text: list[str], i: int, prec: int,
                     whole_paren: bool) -> bool:
    if i == 0:
        return True
    if whole_paren:
        # safe after anything except a callee or index expression
        return not _ends_value(kind, text, i - 1)
    left_kind, left = kind[i - 1], text[i - 1]
    if left_kind == TokKind.IDENT:
        if left == "sizeof":
            return False   # sizeof binds the leftmost leaf
        if kind[i] == TokKind.PUNCT and text[i] == "(":
            # ident '(' opens an argument list unless it is a keyword
            return left in ("return", "else", "case")
        return True   # return, case, else and friends
    if left_kind != TokKind.PUNCT:
        return False
    if left in _SAFE_LEFT_PUNCTS:
        return True
    if left in ("+", "-", "*", "&"):
        if not _ends_value(kind, text, i - 2):
            return False   # unary use binds to our leftmost leaf
        if left == "&":
            return True    # binary & binds looser than any operator of ours
        return _SYM_PREC[left] < prec
    if left in ("/", "%"):
        return _SYM_PREC[left] < prec
    return False   # ! ~ ++ -- . -> ) ] and anything exotic


def _right_context_ok(kind: list[str], text: list[str], j: int, prec: int,
                      whole_paren: bool) -> bool:
    if j >= len(text):
        return True
    if kind[j] in _VALUE_END_KINDS:
        return False
    right = text[j]
    if not whole_paren and _SYM_PREC.get(right, 0) > prec:
        return False   # a tighter operator owns the rightmost leaf
    return right not in ("(", "[", ".", "->", "++", "--")


class PatchSite(NamedTuple):
    """One byte span to replace: source[start:end]."""
    start: int
    end: int


def find_call_sites(tokens: CTokens, spec: CiSpec) -> list[PatchSite]:
    """Every non-overlapping occurrence of the spec expression in the
    lex_c tokens of a source, outermost parenthesization included, in
    source order.  It parses at every '(' and leftmost leaf it is given,
    so rewrite gives it only the tokens of the runs its scan kept."""
    dfg = spec.dfg
    if not _spelled_in_c(dfg):
        return []
    # every accepted candidate equals the target, so shares its top operator
    prec = _SYM_PREC[_OP_SYMBOL[dfg.nodes[dfg.root].kind]] if dfg.order else 3
    kind, text = tokens.kind, tokens.text
    matcher = _Matcher(tokens, dfg)
    raw: list[tuple[int, int]] = []
    # no tree equal to the target starts elsewhere; its leftmost leaf is node 0
    leftmost = dfg.nodes[0].decl.name
    # flags[k] > 0: a directive token before token k (built if there is one)
    flags = any(tokens.in_directive) and \
        list(accumulate(tokens.in_directive, initial=0))
    # right to left, so every group a parse reaches is in the memo already
    for i in range(len(text) - 1, -1, -1):
        if text[i] != leftmost and text[i] != "(":
            continue
        matcher.expr(i, 1, spine := [])
        for node, j in spine:
            if node != matcher.target or flags and flags[j] != flags[i]:
                continue
            whole_paren = text[i] == "(" and j == spine[0][1]
            if _left_context_ok(kind, text, i, prec, whole_paren) and \
                    _right_context_ok(kind, text, j, prec, whole_paren):
                raw.append((tokens.start[i], tokens.end(j - 1)))
    sites: list[PatchSite] = []
    for start, end in sorted(raw, key=lambda span: (span[0], -span[1])):
        if not sites or start >= sites[-1].end:
            sites.append(PatchSite(start, end))
    return sites


# --- header and source emission ---------------------------------------------

def call_macro_name(spec: CiSpec) -> str:
    return f"CI_{spec.name.upper()}"


def header_filename(spec: CiSpec) -> str:
    return f"ci_{spec.name}.h"


# The keywords of C11 (6.4.1)
C_KEYWORDS = frozenset("""
auto break case char const continue default do double else enum extern float
for goto if inline int long register restrict return short signed sizeof
static struct switch typedef union unsigned void volatile while _Alignas
_Alignof _Atomic _Bool _Complex _Generic _Imaginary _Noreturn _Static_assert
_Thread_local
""".split())


def header_conflict(spec: CiSpec, intrinsic: str) -> str | None:
    """Why spec's header cannot call the C identifier intrinsic, or None:
    it is a C keyword, a name the header defines (emit_header's guard,
    opcode and macro) or a parameter of the macro, which would capture
    it."""
    macro = call_macro_name(spec)
    if intrinsic in C_KEYWORDS:
        return "a C keyword"
    if intrinsic in (macro, f"{macro}_OPCODE", f"{macro}_H"):
        return f"a name {header_filename(spec)} defines"
    if intrinsic in {f"p_{leaf.decl.name}" for leaf in spec.dfg.leaves}:
        return f"a parameter of {macro}"
    return None


def emit_header(spec: CiSpec, mapped: MappedDesign,
                intrinsic: str = DEFAULT_INTRINSIC) -> str:
    """The C header defining the invocation macro for a mapped design.

    One intrinsic call per operand pair; with several pairs the macro is a
    comma expression whose final call carries the last pair and yields the
    result.  Every macro parameter is cast to int so narrow and unsigned
    arguments pass through the 32-bit operand registers unchanged.
    """
    macro = call_macro_name(spec)
    params = ", ".join(f"p_{leaf.decl.name}" for leaf in spec.dfg.leaves)
    cast = "int" if spec.output.signed else "unsigned int"
    calls = [f"{intrinsic}({macro}_OPCODE, (int) (p_{first}), "
             + (f"(int) (p_{second}))" if second is not None else "0)")
             for first, second in mapped.loading]
    if len(calls) == 1:
        body = [f"#define {macro}({params}) (({cast}) {calls[0]})"]
    else:
        body = [f"#define {macro}({params}) \\", f"  ((void) {calls[0]}, \\",
                *(f"   (void) {call}, \\" for call in calls[1:-1]),
                f"   ({cast}) {calls[-1]})"]
    return "\n".join([
        f"#ifndef {macro}_H", f"#define {macro}_H", "",
        f"/* Invocation macro for the {spec.name} custom instruction. */", "",
        f"#define {macro}_OPCODE {spec.opcode}", "", *body, "",
        f"#endif /* {macro}_H */", ""])


class PatchPlan(NamedTuple):
    """Everything a rewrite did: the spans replaced, the call text that
    replaced them, and the patched source."""
    sites: tuple[PatchSite, ...]
    replacement: str
    output: str


def _skeleton(source: str, spec: CiSpec):
    """source blanked but for each run of code between ';', '{' and '}' that
    holds a hit (see the module docstring) and its bounds, and the header's
    include (see _include); raises lex_c(source)'s first error.  This
    scan is rewrite's one prefilter: find_call_sites parses what it keeps."""
    spliced, table = _splice(_LONE_CR_RE.sub("\n", source))
    # code: comments blanked, literals and directives opaque, openers stray
    code = "\n" + _SKELETON_RE.sub(lambda m: (
        "@" if m[0] in _UNTERMINATED else " " if m[0][0] == "/" else '"')
        * len(m[0]), spliced)
    if _STRAY_RE.search(code):
        lex_c(source)   # raises the first
    includes = []   # offsets past "include" and of the line break

    def opaque(line: re.Match) -> str:
        if include := _INCLUDE_RE.match(code, line.start()):
            includes.append((include.end() - 1, line.end() - 1))
        return "\n" + "#" * (line.end() - line.start() - 1)

    # every ';', '{' and '}' of the code a ';', and one past its end
    code = _DIRECTIVE_RE.sub(opaque, code)[1:].replace(
        "{", ";").replace("}", ";") + ";"
    hits = re.compile(r"[\s()]*".join(map(re.escape, _spelling(spec.dfg))))
    bounds, end = [], 0   # end: the last run's closing ';'
    while hit := hits.search(code, end):
        lo = code.rfind(";", end, hit.start())
        end = code.find(";", hit.end())
        bounds += lo, end
    bounds = _unspliced(table, bounds)
    pieces, last = [], 0
    for lo, end in zip(bounds[::2], bounds[1::2]):
        lo = max(lo, last)
        pieces += " " * (lo - last), source[lo:end + 1]
        last = end + 1
    return ("".join(pieces) + " " * (len(source) - last),
            _include(source, spliced, table, includes, header_filename(spec)))


def _include(source: str, spliced: str, table, includes,
             header: str) -> tuple[int, str]:
    """The offset and the text to insert there so that the source includes
    header once: after the last of the #include lines, or at the top."""
    if any(spliced.startswith(f'"{header}"', past) for past, _ in includes):
        return 0, ""
    if not includes:   # the added lines end as the first line ends
        eol = (_LINE_END_RE.search(source) or ["\n"])[0]
        return 0, f'#include "{header}"{eol}{eol}'
    # a line of its own after the directive's spliced one, which keeps its
    # comments and its line break, and ends as that line ends
    last = _unspliced(table, [includes[-1][1]])[0]   # at the line break, if any
    return last, (_LINE_END_RE.match(source, last) or ["\n"])[0] + \
        f'#include "{header}"'


def rewrite(source: str, spec: CiSpec) -> PatchPlan:
    """Replace every occurrence of the spec expression with the invocation
    macro and make sure the header is included once; raise CigenError
    when nothing is left to patch, so that a second rewrite of a patched
    source fails loudly instead of nesting calls."""
    runs, (offset, include) = _skeleton(source, spec)
    sites = find_call_sites(lex_c(runs), spec)
    if not sites:
        raise CigenError(
            f"no occurrence of the {spec.name} expression found"
            if _spelled_in_c(spec.dfg) else f"{spec.name} uses flooring "
            "modulus, which no C operator computes; rewrite the C call site by hand")
    args = ", ".join(leaf.decl.name for leaf in spec.dfg.leaves)
    replacement = f"{call_macro_name(spec)}({args})"
    edits = [(site.start, site.end, replacement) for site in sites]
    pieces, last = [], 0
    # the include sorts before a site starting where it goes
    for start, end, text in sorted(edits + [(offset, offset, include)]):
        pieces += source[last:start], text
        last = end
    pieces.append(source[last:])
    return PatchPlan(tuple(sites), replacement, "".join(pieces))
