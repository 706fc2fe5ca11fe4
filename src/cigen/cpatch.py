"""Patch C sources to call the generated custom instruction.

The matcher works on tokens, not text; the lexer flags preprocessor tokens
as it goes.  A candidate starts only at a token that can open the
instruction's expression: an identifier equal to its leftmost leaf, or an
opening parenthesis.  From there it parses the longest expression the
instruction's grammar can produce (identifiers, parentheses, and the five
binary operators with C precedence) and compares the parse tree, plus every
prefix of its left spine, against the instruction's expression tree.  All
candidates of one file share one memo, so each subexpression is parsed
once, and a parse stops once its tree has more leaves than the target, so
matching is linear in the number of tokens.  (Only groups nested deeper
than MAX_PAREN_DEPTH are parsed again by candidates at each level, up to
MAX_PAREN_DEPTH levels each.)  A hit is then screened by context guards so
the replacement can never change what the surrounding expression means:

* a candidate preceded by a tighter-binding operator, a unary operator, a
  cast, or a member access is dropped, because its leftmost leaf belongs to
  that construct rather than to a standalone occurrence;
* a candidate followed by a call, index, member, or postfix token, or by an
  operator binding tighter than its top operator, is dropped for the mirror
  reason on the right edge;
* fully parenthesized candidates are exempt from the operator checks on
  both edges, and from the rest of the left-context screening unless the
  parenthesis is actually a call argument list.

Parentheses nested deeper than MAX_PAREN_DEPTH are not parsed: the parse of a
candidate stops at such a group, and only what it read before it is matched.

Flooring modulus exists in the instruction grammar but has no C operator,
so expressions using it are reported as unmatchable instead of guessed at.
Preprocessor directive lines are never patched.
"""

from __future__ import annotations

import enum
import re
from array import array
from dataclasses import dataclass
from itertools import accumulate

from .errors import LexError, NoMatchFound
from .frontend import CiSpec, OpKind
from .mapper import MappedDesign

DEFAULT_INTRINSIC = "__builtin_custom_inii"

_OP_SYMBOL: dict[OpKind, str | None] = {
    OpKind.ADD: "+", OpKind.SUB: "-", OpKind.MUL: "*",
    OpKind.DIVS: "/", OpKind.DIVU: "/",
    OpKind.REMS: "%", OpKind.REMU: "%",
    OpKind.MODS: None, OpKind.MODU: None,
}

_SYM_PREC = {"*": 2, "/": 2, "%": 2, "+": 1, "-": 1}

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


@dataclass(frozen=True, slots=True)
class CToken:
    kind: TokKind
    text: str
    start: int
    end: int
    line: int
    in_directive: bool = False


_DIRECTIVE_RE = re.compile(r"(?m)^[ \t]*#(?:\\\n|[^\n])*")

# One alternative per token class, tried in this order at each position.
# Groups named after a TokKind make a token; "skip" and "comment" advance
# the line count; "unterminated" is an opening quote or comment that the
# complete forms before it could not close.
_TOKEN_RE = re.compile("|".join([
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


def lex_c(source: str) -> list[CToken]:
    """Tokenize C source, dropping comments but keeping byte offsets."""
    directive_spans = [m.span() for m in _DIRECTIVE_RE.finditer(source)]
    directive = 0   # the first directive span not wholly before i
    tokens: list[CToken] = []
    i, n, line = 0, len(source), 1
    while i < n:
        m = _TOKEN_RE.match(source, i)
        if m is None:
            raise LexError(f"stray character {source[i]!r} on line {line}")
        kind, text, end = m.lastgroup, m.group(), m.end()
        if kind == "skip" or kind == "comment":
            line += text.count("\n")
        elif kind == "unterminated":
            raise LexError(
                f"unterminated {_UNTERMINATED[text]} on line {line}")
        else:
            while (directive < len(directive_spans)
                   and directive_spans[directive][1] <= i):
                directive += 1
            in_directive = (directive < len(directive_spans)
                            and directive_spans[directive][0] <= i)
            tokens.append(CToken(TokKind[kind], text, i, end, line,
                                 in_directive))
            if "\n" in text:   # a literal continued by a backslash-newline
                line += text.count("\n")
        i = end
    return tokens


# --- expression matching ----------------------------------------------------

Tree = tuple  # ("leaf", name) | (symbol, left, right)


def spec_match_tree(spec: CiSpec) -> Tree | None:
    """The spec expression as an operator-symbol tree, or None when it uses
    an operator C cannot spell."""
    dfg = spec.dfg
    trees: dict[int, Tree] = {leaf.id: ("leaf", leaf.decl.name)
                              for leaf in dfg.leaf_nodes()}
    for node_id in dfg.order:
        node = dfg.nodes[node_id]
        symbol = _OP_SYMBOL[node.kind]
        if symbol is None:
            return None
        trees[node_id] = (symbol, trees[node.left], trees[node.right])
    return trees[dfg.root]


# Deepest parenthesis nesting the matcher parses, counted from the token a
# candidate starts at.  Its recursive descent spends up to three Python
# frames per level, so this keeps it well inside the default recursion
# limit of 1000.  A parse that reaches a deeper group stops there; the
# prefixes it recorded before the group are still screened, and the rest of
# the file is matched as usual.
MAX_PAREN_DEPTH = 200

# Parse outcomes that end the candidate they occur in, besides a
# (node, end) pair and None (no expression here):
_DEEP = "deep"   # a group nested deeper than the parse had room for
_BIG = "big"     # a tree with more leaves than the target


class _Matcher:
    """Expression parses over one token list, shared by every candidate
    start of one find_call_sites call.

    Trees are hash-consed into integer node ids, so equal trees have equal
    ids and comparing a candidate with the target costs one integer
    comparison at any depth.  expr results are memoized per (token index,
    minimum precedence) together with the room (groups the parse may still
    open) they were computed with: a result that stayed inside its room
    holds for any larger room, and one that ran out of room holds for any
    smaller room.
    """

    def __init__(self, tokens: list[CToken], target: Tree):
        self.tokens = tokens
        self.ids: dict[tuple, int] = {}
        self.leaves: list[int] = []   # leaf count per node id
        self.memo: dict[tuple[int, int], tuple[object, int]] = {}
        subtrees = [target]
        for tree in subtrees:         # parents before children
            if tree[0] != "leaf":
                subtrees.extend(tree[1:])
        nodes: dict[int, int] = {}    # id() of a subtree -> node id
        for tree in reversed(subtrees):
            nodes[id(tree)] = self.node(tree if tree[0] == "leaf" else (
                tree[0], nodes[id(tree[1])], nodes[id(tree[2])]))
        self.target = nodes[id(target)]

    def node(self, key: tuple) -> int:
        """The id of ("leaf", name) or (symbol, left id, right id)."""
        node = self.ids.get(key)
        if node is None:
            node = self.ids[key] = len(self.leaves)
            self.leaves.append(1 if key[0] == "leaf" else
                               self.leaves[key[1]] + self.leaves[key[2]])
        return node

    def expr(self, i: int, min_prec: int, room: int,
             spine: list | None = None):
        """The longest expression at token i whose operators bind at least
        min_prec, opening at most room nested groups, as (node, end); None
        when none starts there; _DEEP or _BIG when the parse stopped.  With
        spine, the tree after the first primary and after each operator of
        this level is appended to it as (node, end)."""
        key = (i, min_prec)
        if spine is None and key in self.memo:
            result, at = self.memo[key]
            if room <= at if result is _DEEP else room >= at:
                return result
        tokens = self.tokens
        result = None
        if i < len(tokens):
            tok = tokens[i]
            if tok.kind is TokKind.IDENT:
                result = self.node(("leaf", tok.text)), i + 1
            elif tok.text == "(":
                result = _DEEP if room == 0 else self.expr(i + 1, 1, room - 1)
                if isinstance(result, tuple):
                    node, j = result
                    closed = j < len(tokens) and tokens[j].text == ")"
                    result = (node, j + 1) if closed else None
        if isinstance(result, tuple):
            node, j = result
            if spine is not None:
                spine.append(result)
            stop = None
            while (j < len(tokens)
                   and _SYM_PREC.get(tokens[j].text, 0) >= min_prec):
                op = tokens[j].text
                right = self.expr(j + 1, _SYM_PREC[op] + 1, room)
                if right is None:
                    break
                if not isinstance(right, tuple):
                    stop = right
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
        if spine is None:
            self.memo[key] = (result, room)
        return result


def _paren_closes(tokens: list[CToken]) -> list[int]:
    """Per token, the index of the ')' matching it if it is a matched '(',
    else -1."""
    closes = [-1] * len(tokens)
    open_at: list[int] = []
    for j, tok in enumerate(tokens):
        if tok.text == "(":
            open_at.append(j)
        elif tok.text == ")" and open_at:
            closes[open_at.pop()] = j
    return closes


_VALUE_END_KINDS = (TokKind.IDENT, TokKind.NUMBER, TokKind.STRING, TokKind.CHAR)


def _ends_value(tok: CToken | None) -> bool:
    return tok is not None and (tok.kind in _VALUE_END_KINDS
                                or tok.text in (")", "]", "++", "--"))


def _left_context_ok(tokens: list[CToken], i: int, prec: int,
                     whole_paren: bool) -> bool:
    prev = tokens[i - 1] if i > 0 else None
    if prev is None:
        return True
    if whole_paren:
        # safe after anything except a callee or index expression
        return not _ends_value(prev)
    first = tokens[i]
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
        return _SYM_PREC[text] < prec
    if text in ("/", "%"):
        return _SYM_PREC[text] < prec
    return False   # ! ~ ++ -- . -> ) ] and anything exotic


def _right_context_ok(tokens: list[CToken], j: int, prec: int,
                      whole_paren: bool) -> bool:
    nxt = tokens[j] if j < len(tokens) else None
    if nxt is None:
        return True
    if nxt.kind in _VALUE_END_KINDS:
        return False
    if not whole_paren and _SYM_PREC.get(nxt.text, 0) > prec:
        return False   # a tighter operator owns the rightmost leaf
    return nxt.text not in ("(", "[", ".", "->", "++", "--")


@dataclass(frozen=True)
class PatchSite:
    """One byte span to replace, with the text it currently holds."""
    start: int
    end: int
    text: str


def find_call_sites(source: str, spec: CiSpec) -> list[PatchSite]:
    """Every non-overlapping occurrence of the spec expression, outermost
    parenthesization included, in source order."""
    target = spec_match_tree(spec)
    if target is None:
        return []
    tokens = lex_c(source)
    leftmost = target
    while leftmost[0] != "leaf":
        leftmost = leftmost[1]
    # every accepted candidate equals the target, so shares its top operator
    prec = 3 if target[0] == "leaf" else _SYM_PREC[target[0]]
    closes = _paren_closes(tokens)
    directives_before = array("I", accumulate(
        (tok.in_directive for tok in tokens), initial=0))
    matcher = _Matcher(tokens, target)
    raw: list[tuple[int, int]] = []
    for i, tok in enumerate(tokens):
        if tok.text != leftmost[1] and tok.text != "(":
            continue   # no tree equal to the target starts here
        spine: list = []
        matcher.expr(i, 1, MAX_PAREN_DEPTH, spine)
        for node, j in spine:
            if node != matcher.target:
                continue
            if directives_before[j] != directives_before[i]:
                continue
            whole_paren = closes[i] == j - 1
            if not _left_context_ok(tokens, i, prec, whole_paren):
                continue
            if not _right_context_ok(tokens, j, prec, whole_paren):
                continue
            raw.append((tokens[i].start, tokens[j - 1].end))
    sites: list[PatchSite] = []
    last_end = -1
    for start, end in sorted(raw, key=lambda span: (span[0], -span[1])):
        if start >= last_end:
            sites.append(PatchSite(start, end, source[start:end]))
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

    pairs = mapped.loading.cycles
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


@dataclass(frozen=True)
class PatchPlan:
    """Everything a rewrite did: the spans replaced, the call text that
    replaced them, and where the include line landed (-1 if it was already
    present)."""
    sites: tuple[PatchSite, ...]
    replacement: str
    include_line: str
    include_offset: int
    output: str


_INCLUDE_RE = re.compile(r"(?m)^[ \t]*#[ \t]*include\b.*$")


def rewrite(source: str, spec: CiSpec, mapped: MappedDesign) -> PatchPlan:
    """Replace every occurrence of the spec expression with the invocation
    macro and make sure the header is included once.

    Raises NoMatchFound when nothing is left to patch, which also makes a
    second rewrite of already patched source fail loudly instead of nesting
    calls.
    """
    sites = find_call_sites(source, spec)
    if not sites:
        if spec_match_tree(spec) is None:
            raise NoMatchFound(
                f"{spec.name} uses flooring modulus, which no C operator "
                "computes; rewrite the C call site by hand")
        raise NoMatchFound(
            f"no occurrence of the {spec.name} expression found")

    args = ", ".join(mapped.analysis.operand_sequence)
    replacement = f"{call_macro_name(spec)}({args})"
    text = source
    for site in reversed(sites):
        text = text[:site.start] + replacement + text[site.end:]

    include_line = f'#include "{header_filename(spec)}"'
    include_offset = -1
    if include_line not in text:
        matches = list(_INCLUDE_RE.finditer(text))
        if matches:
            include_offset = matches[-1].end() + 1
            insert = include_line + "\n"
        else:
            include_offset = 0
            insert = include_line + "\n\n"
        text = text[:include_offset] + insert + text[include_offset:]

    return PatchPlan(tuple(sites), replacement, include_line,
                     include_offset, text)
