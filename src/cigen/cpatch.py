"""Patch C sources to call the generated custom instruction.

The matcher works on tokens, not text.  The lexer splits the source with
one regular expression whose matches tile it, classifies each match by its
first character and returns the tokens as parallel lists (kind, text,
offset), plus one flag per token that marks the tokens of preprocessor
directives and the '#' opening each.
A candidate starts only at a token that can open the instruction's
expression: an identifier equal to its leftmost leaf, or an opening
parenthesis.  From there it parses the longest expression the
instruction's grammar can produce (identifiers, parentheses, and the five
binary operators with C precedence) and compares the parse tree, plus every
prefix of its left spine, against the instruction's dataflow graph.  All
candidates of one file share one memo, so each subexpression is parsed
once, and a parse stops once its tree has more leaves than the target, so
matching is linear in the number of tokens.  Candidates run from the last
token to the first; every opening parenthesis is one, so a parse that
reaches a group finds its contents already in the memo, and the parser
recurses no deeper than the operator precedence levels at any nesting.
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
200, while a signed<8> instruction wraps the sum to -56.

Flooring modulus exists in the instruction grammar but has no C operator,
so expressions using it are reported as unmatchable instead of guessed at.
Preprocessor directive lines are never patched.
"""

from __future__ import annotations

import enum
import re
import string
from array import array
from bisect import bisect_left
from itertools import accumulate, compress, count, repeat
from operator import itemgetter
from typing import NamedTuple

from .errors import LexError, NoMatchFound
from .frontend import OPERATORS, CiSpec, Dfg, OpKind
from .mapper import MappedDesign

DEFAULT_INTRINSIC = "__builtin_custom_inii"

# C spells each operator of the instruction grammar but the flooring "mod"
# the same way, at the same precedence.
_SYM_PREC = {symbol: prec for symbol, (prec, _, _) in OPERATORS.items()
             if symbol != "mod"}
_OP_SYMBOL: dict[OpKind, str] = {kind: symbol for symbol in _SYM_PREC
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


class TokKind(enum.Enum):
    IDENT = enum.auto()
    NUMBER = enum.auto()
    STRING = enum.auto()
    CHAR = enum.auto()
    PUNCT = enum.auto()


# for the matcher's inner loop: reading a member through its enum class
# costs a metaclass lookup
_IDENT = TokKind.IDENT


class CTokens(NamedTuple):
    """The tokens of one C source, one list per field: token k is kind[k]
    with text[k] at offset start[k], and in_directive[k] is 2 when it is
    the '#' that opens a preprocessor directive, 1 when it lies on the rest
    of one, else 0.  Token k ends at start[k] + len(text[k]).  Its len()
    is the token count, not the field count."""
    kind: list[TokKind]
    text: list[str]
    start: list[int]
    in_directive: bytearray

    def __len__(self) -> int:
        return len(self.text)


_DIRECTIVE_RE = re.compile(r"(?m)^[ \t]*#(?:\\\n|[^\n])*")

# One alternative per token class, tried in this order at each position, and
# a catch-all for a stray character, so the matches tile the source: white
# space (and backslash-newlines), a comment, a string or character literal,
# an identifier, a number, an opening quote or comment that the complete
# forms before it could not close, a punctuator.
_TOKEN_RE = re.compile("|".join([
    r"(?:[ \t\r\f\v\n]|\\\n)+",
    r"//[^\n]*|/\*[\s\S]*?\*/",
    r'"(?:\\[\s\S]|[^"\\\n])*"',
    r"'(?:\\[\s\S]|[^'\\\n])*'",
    r"[A-Za-z_][A-Za-z0-9_]*",
    r"\.?[0-9](?:[eEpP][+-]|[0-9A-Za-z_.])*",
    r"/\*|[\"']",
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
    **dict.fromkeys("/\"'.\\", _LOOK),
}


def _look_closer(text: str, source: str, offset: int):
    """The kind of a _LOOK match at offset, or _SPACE for a comment or a
    backslash-newline; raises LexError for an unterminated or stray one."""
    first = text[0]
    if text in _UNTERMINATED:
        problem = f"unterminated {_UNTERMINATED[text]}"
    elif first == "/":
        return _SPACE if text[1:2] in ("/", "*") else TokKind.PUNCT
    elif first == '"':
        return TokKind.STRING
    elif first == "'":
        return TokKind.CHAR
    elif first == ".":
        return TokKind.PUNCT if text in (".", "...") else TokKind.NUMBER
    elif first == "\\" and len(text) > 1:
        return _SPACE
    else:
        problem = f"stray character {first!r}"
    line = source.count("\n", 0, offset) + 1
    raise LexError(f"{problem} on line {line}")


def lex_c(source: str) -> CTokens:
    """Tokenize C source, dropping comments but keeping offsets."""
    parts = _TOKEN_RE.findall(source)
    offsets = list(accumulate(map(len, parts), initial=0))
    kinds = list(map(_FIRST_CHAR.get, map(itemgetter(0), parts), repeat(_LOOK)))
    # directives are found as C finds them, once each comment is white
    # space: here spaces of the comment's length, so offsets hold
    uncommented = parts.copy()
    for k in [k for k, kind in enumerate(kinds) if kind is _LOOK]:
        kinds[k] = _look_closer(parts[k], source, offsets[k])
        if kinds[k] is _SPACE and parts[k][0] == "/":
            uncommented[k] = " " * len(parts[k])
    start = list(compress(offsets, kinds))   # the tokens' entries
    in_directive = bytearray(len(start))
    for m in _DIRECTIVE_RE.finditer("".join(uncommented)):
        lo = bisect_left(start, m.start())
        hi = bisect_left(start, m.end(), lo)
        if hi > lo:   # none when the line holds the end of a literal only
            in_directive[lo:hi] = b"\2" + b"\1" * (hi - lo - 1)
    return CTokens(list(filter(None, kinds)), list(compress(parts, kinds)),
                   start, in_directive)


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
    start of one find_call_sites call.

    Trees are hash-consed into integer node ids, so equal trees have equal
    ids and comparing a candidate with the target costs one integer
    comparison at any depth.  expr results are memoized per (token index,
    minimum precedence).  Once a group's contents are in the memo, reading
    the group costs one lookup, so parsing the starts from right to left
    keeps the recursion within the three precedence levels.
    """

    def __init__(self, tokens: CTokens, dfg: Dfg):
        self.kind = tokens.kind
        self.text = tokens.text
        self.ids: dict[tuple, int] = {}
        self.leaves: list[int] = []   # leaf count per node id
        self.memo: dict[tuple[int, int], object] = {}
        nodes = {leaf.id: self.node(("leaf", leaf.decl.name))
                 for leaf in dfg.leaf_nodes()}   # DFG id -> node id
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
            if self.kind[i] is _IDENT:
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
                if right is None:
                    break
                if right is _BIG:
                    stop = _BIG
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


_VALUE_END_KINDS = (TokKind.IDENT, TokKind.NUMBER, TokKind.STRING, TokKind.CHAR)


def _ends_value(kind: list[TokKind], text: list[str], k: int) -> bool:
    return k >= 0 and (kind[k] in _VALUE_END_KINDS
                       or text[k] in (")", "]", "++", "--"))


def _left_context_ok(kind: list[TokKind], text: list[str], i: int, prec: int,
                     whole_paren: bool) -> bool:
    if i == 0:
        return True
    if whole_paren:
        # safe after anything except a callee or index expression
        return not _ends_value(kind, text, i - 1)
    left_kind, left = kind[i - 1], text[i - 1]
    if left_kind is TokKind.IDENT:
        if left == "sizeof":
            return False   # sizeof binds the leftmost leaf
        if kind[i] is TokKind.PUNCT and text[i] == "(":
            # ident '(' opens an argument list unless it is a keyword
            return left in ("return", "else", "case")
        return True   # return, case, else and friends
    if left_kind is not TokKind.PUNCT:
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


def _right_context_ok(kind: list[TokKind], text: list[str], j: int, prec: int,
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
    source order."""
    dfg = spec.dfg
    if not _spelled_in_c(dfg):
        return []
    # every accepted candidate equals the target, so shares its top operator
    prec = _SYM_PREC[_OP_SYMBOL[dfg.nodes[dfg.root].kind]] if dfg.order else 3
    kind, text = tokens.kind, tokens.text
    directives_before = array("I", accumulate(tokens.in_directive, initial=0))
    matcher = _Matcher(tokens, dfg)
    raw: list[tuple[int, int]] = []
    # no tree equal to the target starts elsewhere; its leftmost leaf is node 0
    leftmost = dfg.nodes[0].decl.name
    starts = [i for i, t in enumerate(text) if t == leftmost or t == "("]
    # right to left, so every group a parse reaches is in the memo already
    for i in reversed(starts):
        spine: list = []
        matcher.expr(i, 1, spine)
        for node, j in spine:
            if node != matcher.target:
                continue
            if directives_before[j] != directives_before[i]:
                continue
            whole_paren = text[i] == "(" and j == spine[0][1]
            if not _left_context_ok(kind, text, i, prec, whole_paren):
                continue
            if not _right_context_ok(kind, text, j, prec, whole_paren):
                continue
            raw.append((tokens.start[i],
                        tokens.start[j - 1] + len(text[j - 1])))
    sites: list[PatchSite] = []
    last_end = -1
    for start, end in sorted(raw, key=lambda span: (span[0], -span[1])):
        if start >= last_end:
            sites.append(PatchSite(start, end))
            last_end = end
    return sites


# --- header and source emission ---------------------------------------------

def call_macro_name(spec: CiSpec) -> str:
    return f"CI_{spec.name.upper()}"


def header_filename(spec: CiSpec) -> str:
    return f"ci_{spec.name}.h"


def emit_header(spec: CiSpec, mapped: MappedDesign,
                intrinsic: str = DEFAULT_INTRINSIC) -> str:
    """The C header defining the invocation macro for a mapped design.

    One intrinsic call per operand pair; with several pairs the macro is a
    comma expression whose final call carries the last pair and yields the
    result.  Every macro parameter is cast to int so narrow and unsigned
    arguments pass through the 32-bit operand registers unchanged.
    """
    macro = call_macro_name(spec)
    guard = f"{macro}_H"
    opcode_name = f"{macro}_OPCODE"
    params = [f"p_{name}" for name in mapped.analysis.operand_sequence]
    result_cast = "int" if spec.output.signed else "unsigned int"

    def one_call(pair: tuple[str, str | None]) -> str:
        first, second = pair
        a = f"(int) (p_{first})"
        b = f"(int) (p_{second})" if second is not None else "0"
        return f"{intrinsic}({opcode_name}, {a}, {b})"

    pairs = mapped.loading
    if len(pairs) == 1:
        body = f"(({result_cast}) {one_call(pairs[0])})"
        macro_lines = [f"#define {macro}({', '.join(params)}) {body}"]
    else:
        macro_lines = [f"#define {macro}({', '.join(params)}) \\"]
        macro_lines.append("  (" + f"(void) {one_call(pairs[0])}, \\")
        for pair in pairs[1:-1]:
            macro_lines.append(f"   (void) {one_call(pair)}, \\")
        macro_lines.append(f"   ({result_cast}) {one_call(pairs[-1])})")

    lines = [
        f"#ifndef {guard}",
        f"#define {guard}",
        "",
        f"/* Invocation macro for the {spec.name} custom instruction. */",
        "",
        f"#define {opcode_name} {spec.opcode}",
        "",
        *macro_lines,
        "",
        f"#endif /* {guard} */",
    ]
    return "\n".join(lines) + "\n"


class PatchPlan(NamedTuple):
    """Everything a rewrite did: the spans replaced, the call text that
    replaced them, and the patched source."""
    sites: tuple[PatchSite, ...]
    replacement: str
    output: str


# the rest of a directive's logical line: its comments and splices too
_REST_OF_LINE_RE = re.compile(r"(?://[^\n]*|/\*[\s\S]*?\*/|\\\n|[^\n])*")


def _include(source: str, tokens: CTokens, header: str) -> tuple[int, str]:
    """The offset and the text to insert there so that the source includes
    header once: after the last #include directive, or at the top when
    there is none.  Comments and the bodies of other directives hold no
    directive."""
    text, flags = tokens.text, tokens.in_directive
    includes = [k for k in compress(count(), map("include".__eq__, text))
                if k and flags[k - 1] == 2 and flags[k] == 1]
    if any(text[k + 1:k + 2] == [f'"{header}"'] and flags[k + 1] == 1
           for k in includes):
        return 0, ""
    if not includes:
        return 0, f'#include "{header}"\n\n'
    end = includes[-1] + 1   # then past the directive's last token
    while end < len(text) and flags[end] == 1:
        end += 1
    last = tokens.start[end - 1] + len(text[end - 1])
    # a line of its own after the directive's, which keeps its comments
    return (_REST_OF_LINE_RE.match(source, last).end(),
            f'\n#include "{header}"')


def rewrite(source: str, spec: CiSpec, mapped: MappedDesign) -> PatchPlan:
    """Replace every occurrence of the spec expression with the invocation
    macro and make sure the header is included once.

    Raises NoMatchFound when nothing is left to patch, which also makes a
    second rewrite of already patched source fail loudly instead of nesting
    calls.
    """
    tokens = lex_c(source)
    sites = find_call_sites(tokens, spec)
    if not sites:
        if not _spelled_in_c(spec.dfg):
            raise NoMatchFound(
                f"{spec.name} uses flooring modulus, which no C operator "
                "computes; rewrite the C call site by hand")
        raise NoMatchFound(
            f"no occurrence of the {spec.name} expression found")

    args = ", ".join(mapped.analysis.operand_sequence)
    replacement = f"{call_macro_name(spec)}({args})"
    at, include = _include(source, tokens, header_filename(spec))
    edits = [(site.start, site.end, replacement) for site in sites]
    pieces = []
    last = 0
    # the include sorts before a site starting where it goes
    for start, end, text in sorted(edits + [(at, at, include)]):
        pieces += source[last:start], text
        last = end
    pieces.append(source[last:])
    return PatchPlan(tuple(sites), replacement, "".join(pieces))
