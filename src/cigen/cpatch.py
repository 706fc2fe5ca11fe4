"""Patch C sources to call the generated custom instruction.

The matcher works on tokens, not text.  At every token position it parses
the longest expression the instruction's grammar can produce (identifiers,
parentheses, and the five binary operators with C precedence) and compares
the parse tree, plus every prefix of its left spine, against the
instruction's expression tree.  A hit is then screened by context guards so
the replacement can never change what the surrounding expression means:

* a candidate preceded by a tighter-binding operator, a unary operator, a
  cast, or a member access is dropped, because its leftmost leaf belongs to
  that construct rather than to a standalone occurrence;
* a candidate followed by a call, index, member, or postfix token is
  dropped for the mirror reason on the right edge;
* fully parenthesized candidates are exempt from left-context screening
  unless the parenthesis is actually a call argument list.

Parentheses nested deeper than MAX_PAREN_DEPTH are not parsed: the parse of a
candidate stops at such a group, and only what it read before it is matched.

Flooring modulus exists in the instruction grammar but has no C operator,
so expressions using it are reported as unmatchable instead of guessed at.
Preprocessor directive lines are never patched.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

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


@dataclass(frozen=True)
class CToken:
    kind: TokKind
    text: str
    start: int
    end: int
    line: int
    in_directive: bool = False


_DIRECTIVE_RE = re.compile(r"(?m)^[ \t]*#(?:\\\n|[^\n])*")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"\.?[0-9](?:[eEpP][+-]|[0-9A-Za-z_.])*")


def lex_c(source: str) -> list[CToken]:
    """Tokenize C source, dropping comments but keeping byte offsets."""
    directive_spans = [m.span() for m in _DIRECTIVE_RE.finditer(source)]

    def in_directive(pos: int) -> bool:
        return any(a <= pos < b for a, b in directive_spans)

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
            i = n if nl < 0 else nl
            continue
        if source.startswith("/*", i):
            close = source.find("*/", i + 2)
            if close < 0:
                raise LexError(f"unterminated block comment on line {line}")
            line += source.count("\n", i, close)
            i = close + 2
            continue
        if c == '"':
            end = take_quoted('"', "string literal")
            tokens.append(CToken(TokKind.STRING, source[i:end], i, end, line,
                                 in_directive(i)))
            i = end
            continue
        if c == "'":
            end = take_quoted("'", "character literal")
            tokens.append(CToken(TokKind.CHAR, source[i:end], i, end, line,
                                 in_directive(i)))
            i = end
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            tokens.append(CToken(TokKind.IDENT, m.group(), i, m.end(), line,
                                 in_directive(i)))
            i = m.end()
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            m = _NUMBER_RE.match(source, i)
            tokens.append(CToken(TokKind.NUMBER, m.group(), i, m.end(), line,
                                 in_directive(i)))
            i = m.end()
            continue
        for punct in _PUNCTS:
            if source.startswith(punct, i):
                tokens.append(CToken(TokKind.PUNCT, punct, i, i + len(punct),
                                     line, in_directive(i)))
                i += len(punct)
                break
        else:
            raise LexError(f"stray character {c!r} on line {line}")
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


# Deepest parenthesis nesting the matcher parses.  Its recursive descent
# spends up to four Python frames per level, so this keeps it well inside
# the default recursion limit of 1000.  A parse that reaches a deeper group
# stops there, so it is not retried along other operator paths; the
# prefixes it recorded before the group are still screened, and the rest
# of the file is matched as usual.
MAX_PAREN_DEPTH = 200


class _TooDeep(Exception):
    """The parse reached a group nested deeper than MAX_PAREN_DEPTH."""


def _primary(tokens: list[CToken], i: int, depth: int):
    if i >= len(tokens):
        return None
    tok = tokens[i]
    if tok.kind is TokKind.IDENT:
        return ("leaf", tok.text), i + 1
    if tok.kind is TokKind.PUNCT and tok.text == "(":
        if depth == MAX_PAREN_DEPTH:
            raise _TooDeep
        inner = _expr(tokens, i + 1, 1, depth=depth + 1)
        if inner is None:
            return None
        tree, j = inner
        if j < len(tokens) and tokens[j].kind is TokKind.PUNCT \
                and tokens[j].text == ")":
            return tree, j + 1
        return None
    return None


def _expr(tokens: list[CToken], i: int, min_prec: int,
          checkpoints: list | None = None, depth: int = 0):
    first = _primary(tokens, i, depth)
    if first is None:
        return None
    tree, i = first
    if checkpoints is not None:
        checkpoints.append((tree, i))
    while i < len(tokens) and tokens[i].kind is TokKind.PUNCT \
            and _SYM_PREC.get(tokens[i].text, 0) >= min_prec:
        op = tokens[i].text
        right = _expr(tokens, i + 1, _SYM_PREC[op] + 1, depth=depth)
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
    raw: list[tuple[int, int]] = []
    for i in range(len(tokens)):
        checkpoints: list = []
        try:
            _expr(tokens, i, 1, checkpoints)
        except _TooDeep:
            pass   # the prefixes read before the deep group still count
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
