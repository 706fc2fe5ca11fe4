"""CI spec frontend: parse the spec DSL into its dataflow graph, analyze it.

The DSL describes one custom instruction as declared operands plus a single
arithmetic assignment:

    ci f(opcode=0) {
      input a: signed<32>;
      input b: signed<32>;
      input c: signed<32>;
      output X: signed<32>;
      X = (a * b) + c;
    }

Grammar (whitespace-insensitive, '#' starts a line comment):

    spec   := "ci" ident "(" "opcode" "=" int ")" "{" decl+ assign "}"
    decl   := ("input" | "output") ident ":" ("signed" | "unsigned") "<" int ">" ";"
    assign := ident "=" expr ";"
    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/" | "%" | "mod") factor)*
    factor := ident | "(" expr ")"
    ident  := [A-Za-z][A-Za-z0-9_]*
    int    := [0-9]+

An expression may nest at most MAX_EXPR_DEPTH (960) operators deep; parentheses
alone add no depth.

The parser builds the finished dataflow graph in the same pass as the tree:
every node's id, level, width and signedness is set when the node is read.

OPERATORS is the one table of the operators, which the C patcher and the
fuzz generator read too: each spelling's precedence and the operation it
denotes on unsigned and on signed operands (signed when either side is).
"/" is a truncating division, "%" the matching remainder (sign of the
dividend), and the "mod" keyword the flooring modulus (sign of the divisor).

Identifiers must be usable verbatim in generated VHDL and C, so beyond the
ASCII ident rule above they may not contain "__", end in "_", collide
case-insensitively, or be a reserved word of the DSL or of VHDL.  The CI
name must not collide with a name of the generated VHDL either.
"""

from __future__ import annotations

import enum
import re
import string
from itertools import islice
from typing import NamedTuple

from .errors import (
    DuplicateDeclaration,
    OpcodeOutOfRange,
    SpecSyntaxError,
    UndeclaredIdentifier,
    WidthOutOfRange,
)

MIN_WIDTH = 1
MAX_WIDTH = 32
MIN_OPCODE = 0
MAX_OPCODE = 4
# Deepest operator nesting an expression may have.  No walk over the tree
# or the DFG recurses, and cpatch compares hash-consed node ids rather than
# nested trees, so no stage spends a level of the interpreter's recursion
# limit per level of nesting.  The 960-term chain a + b + ... nests 959
# deep.
MAX_EXPR_DEPTH = 960

DSL_KEYWORDS = frozenset({"ci", "input", "output", "signed", "unsigned", "opcode", "mod"})

# VHDL-93 reserved words, plus the name of the generated extension entity.
# Any of these as a CI or operand name would produce illegal or colliding HDL.
VHDL_RESERVED = frozenset("""
abs access after alias all and architecture array assert attribute begin block
body buffer bus case component configuration constant disconnect downto else
elsif end entity exit file for function generate generic group guarded if
impure in inertial inout is label library linkage literal loop map mod nand
new next nor not null of on open or others out package port postponed
procedure process pure range record register reject rem report return rol ror
select severity shared signal sla sll sra srl subtype then to transport type
unaffected units until use variable wait when while with xnor xor
""".split()) | {"ci_concat_extend"}

# Additional reservations for the CI name itself: it becomes the entity name,
# so it must not shadow the fixed port names, internal control names, the
# LPM components or any name with a prefix the generated VHDL uses for its
# registers, wires, adapters and instances (r_a, s_3, w_3_p, x_0, u_mult_1).
CI_NAME_RESERVED = VHDL_RESERVED | frozenset(
    {"clk", "clk_en", "reset", "start", "dataa", "datab", "done", "result",
     "cnt", "control", "rtl", "lpm_add_sub", "lpm_mult", "lpm_divide"})
CI_NAME_PREFIXES = ("r_", "s_", "w_", "x_", "u_")


class OpKind(enum.Enum):
    ADD = enum.auto()
    SUB = enum.auto()
    MUL = enum.auto()
    DIVS = enum.auto()
    DIVU = enum.auto()
    MODS = enum.auto()
    MODU = enum.auto()
    REMS = enum.auto()
    REMU = enum.auto()


# spelling -> (precedence, kind on unsigned operands, kind on signed ones)
OPERATORS: dict[str, tuple[int, OpKind, OpKind]] = {
    "+": (1, OpKind.ADD, OpKind.ADD),
    "-": (1, OpKind.SUB, OpKind.SUB),
    "*": (2, OpKind.MUL, OpKind.MUL),
    "/": (2, OpKind.DIVU, OpKind.DIVS),
    "%": (2, OpKind.REMU, OpKind.REMS),
    "mod": (2, OpKind.MODU, OpKind.MODS),
}
# read once for op_result_width, which runs per node: a class attribute
# read of an enum goes through the slow EnumType.__getattr__ hook
_ADDITIVE, _MUL = (OpKind.ADD, OpKind.SUB), OpKind.MUL
_QUOTIENTS = (OpKind.DIVS, OpKind.DIVU)


class OperandDecl(NamedTuple):
    name: str
    signed: bool
    width: int

    @property
    def bounds(self) -> tuple[int, int]:
        """The least and the greatest value the operand holds."""
        if self.signed:
            return -(1 << (self.width - 1)), (1 << (self.width - 1)) - 1
        return 0, (1 << self.width) - 1


class Leaf(NamedTuple):
    name: str


class BinOp(NamedTuple):
    kind: OpKind
    left: ExprTree
    right: ExprTree


ExprTree = Leaf | BinOp


class CiSpec(NamedTuple):
    name: str
    opcode: int
    inputs: tuple[OperandDecl, ...]
    output: OperandDecl
    expr: ExprTree
    dfg: Dfg   # derived from expr


class LeafNode(NamedTuple):
    """DFG leaf: one per distinct operand used in the expression."""
    id: int
    decl: OperandDecl


class OpNode(NamedTuple):
    id: int
    kind: OpKind
    left: int
    right: int


DfgNode = LeafNode | OpNode


class Dfg(NamedTuple):
    """Dataflow graph with per-node level, width and signedness annotations.

    Node ids follow source position: a leaf takes the next id where its
    operand first appears, an operation where its operator appears, which is
    the in-order position in the expression tree.  Leaves are deduplicated;
    operation nodes are not.  level(leaf) = 0 and
    level(op) = 1 + max(level(children)); widths follow op_result_width, and
    a node is signed when either child is.  order lists the op ids children
    first, so a single loop over it evaluates the graph.
    """
    nodes: tuple[DfgNode, ...]
    root: int
    level: dict[int, int]
    width: dict[int, int]
    signed: dict[int, bool]
    order: tuple[int, ...]

    def leaf_nodes(self) -> tuple[LeafNode, ...]:
        return tuple(n for n in self.nodes if isinstance(n, LeafNode))


class AnalysisResult(NamedTuple):
    """Level-priority schedule extracted from a DFG.

    operand_sequence lists used inputs by first appearance left to right.
    operation_sequence lists op node ids by ascending level, ties broken by
    source position, so it is a valid execution order.
    """
    operand_sequence: tuple[str, ...]
    operation_sequence: tuple[int, ...]
    max_level: int


# One token per match: the white space and comments before it, then the
# token itself, or "" at the end of the text.  A character that starts no
# token is matched alone, and the lexer refuses it.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*)*([A-Za-z][A-Za-z0-9_]*|[0-9]+|[^ \t\r\n#]|\Z)")
# A keyword's, an operator's or a punctuator's kind is its text; other
# tokens go by their first character.
_KINDS = {"": "eof"} | {text: text for text in (*DSL_KEYWORDS, *OPERATORS, *"(){}<>;:=")}
_FIRST_KINDS = dict.fromkeys(string.ascii_letters, "ident") \
    | dict.fromkeys(string.digits, "int")


def _tokenize(source: str) -> tuple[list[str], list[str]]:
    """The kinds and the texts of the spec's tokens, as parallel lists that
    end in one "eof" token with empty text."""
    texts = _TOKEN_RE.findall(source)
    if texts[-2:] == ["", ""]:   # white space or a comment ends the text
        texts.pop()              # and the end matches once after it
    kinds = [_KINDS.get(text) or _FIRST_KINDS.get(text[0]) for text in texts]
    if None in kinds:
        bad = kinds.index(None)
        raise SpecSyntaxError(f"unexpected character {texts[bad]!r}",
                              *_position(source, bad))
    return kinds, texts


def _position(source: str, index: int) -> tuple[int, int]:
    """The line and the column, from 1, of the token at index.  The end of
    input lies where a comment that runs to it begins."""
    match = next(islice(_TOKEN_RE.finditer(source), index, None))
    offset = match.start(1)
    if offset == len(source):
        comment = source.find("#", source.rfind("\n") + 1)
        offset = comment if comment >= 0 else offset
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


class _Parser:
    """A cursor over the spec's tokens.  Positions are counted from the
    source only for a token that an error names."""

    def __init__(self, source: str):
        self.source = source
        self.kinds, self.texts = _tokenize(source)
        self.pos = 0

    def where(self, index: int) -> tuple[int, int]:
        return _position(self.source, index)

    def peek(self) -> str:
        return self.kinds[self.pos]

    def advance(self) -> int:
        self.pos += 1
        return self.pos - 1

    def expect(self, kind: str, what: str) -> int:
        if self.peek() != kind:
            raise self.found(self.pos, what)
        return self.advance()

    def found(self, index: int, expected: str) -> SpecSyntaxError:
        return SpecSyntaxError(f"found {self.texts[index] or 'end of input'!r}",
                               *self.where(index), expected=expected)


def _check_name(p: _Parser, index: int, reserved: frozenset[str] = VHDL_RESERVED,
                prefixes: tuple[str, ...] = ()) -> str:
    name = p.texts[index]
    if "__" in name or name.endswith("_"):
        raise SpecSyntaxError(f"identifier {name!r} may not contain '__' or end in '_'",
                              *p.where(index))
    if name.lower() in reserved or name.lower().startswith(prefixes):
        raise SpecSyntaxError(f"identifier {name!r} is reserved", *p.where(index))
    return name


def _in_range(p: _Parser, index: int, what: str, low: int, high: int,
              error: type[SpecSyntaxError]) -> int:
    """The value of the int token at index; error, naming what and its
    digits, when it lies outside low..high.  The digits are counted before
    int() reads them, as int() refuses more than 4300."""
    digits = p.texts[index].lstrip("0") or "0"
    if len(digits) > len(str(high)) or not low <= int(digits) <= high:
        raise error(f"{what} {digits} out of range {low}..{high}",
                    *p.where(index))
    return int(digits)


def parse_ci_spec(text: str) -> CiSpec:
    """Parse CI spec text into a CiSpec, raising on the first error."""
    p = _Parser(text)
    p.expect("ci", "'ci'")
    ci_name = _check_name(p, p.expect("ident", "instruction name"),
                          CI_NAME_RESERVED, CI_NAME_PREFIXES)
    p.expect("(", "'('")
    p.expect("opcode", "'opcode'")
    p.expect("=", "'='")
    opcode = _in_range(p, p.expect("int", "opcode value"), "opcode",
                       MIN_OPCODE, MAX_OPCODE, OpcodeOutOfRange)
    p.expect(")", "')'")
    p.expect("{", "'{'")

    inputs: list[OperandDecl] = []
    output: OperandDecl | None = None
    seen_lower: dict[str, str] = {}
    while p.peek() in ("input", "output"):
        role = p.texts[p.advance()]
        ident_at = p.expect("ident", "operand name")
        op_name = _check_name(p, ident_at)
        if op_name.lower() in seen_lower or op_name.lower() == ci_name.lower():
            raise DuplicateDeclaration(
                f"duplicate declaration of '{op_name}'", *p.where(ident_at))
        seen_lower[op_name.lower()] = op_name
        p.expect(":", "':'")
        if p.peek() not in ("signed", "unsigned"):
            raise p.found(p.pos, "'signed' or 'unsigned'")
        sign = p.texts[p.advance()]
        p.expect("<", "'<'")
        width = _in_range(p, p.expect("int", "bit width"), "width",
                          MIN_WIDTH, MAX_WIDTH, WidthOutOfRange)
        p.expect(">", "'>'")
        p.expect(";", "';'")
        decl = OperandDecl(op_name, sign == "signed", width)
        if role == "input":
            inputs.append(decl)
        else:
            if output is not None:
                raise SpecSyntaxError("only one output declaration is allowed",
                                      *p.where(ident_at))
            output = decl

    if output is None:
        raise SpecSyntaxError("missing output declaration", *p.where(p.pos),
                              expected="'output' declaration")
    if not inputs:
        raise SpecSyntaxError("missing input declaration", *p.where(p.pos),
                              expected="'input' declaration")

    decls = {d.name: d for d in inputs}

    target_at = p.expect("ident", "assignment target")
    if p.texts[target_at] != output.name:
        raise SpecSyntaxError(
            f"assignment target {p.texts[target_at]!r} is not the output",
            *p.where(target_at), expected=f"'{output.name}'")
    p.expect("=", "'='")
    expr, dfg = _parse_expr(p, decls)
    p.expect(";", "';'")
    p.expect("}", "'}'")
    p.expect("eof", "end of input")
    return CiSpec(ci_name, opcode, tuple(inputs), output, expr, dfg)


def op_result_width(kind: OpKind, w_left: int, w_right: int) -> int:
    """Width rules
        add/sub    result width = max(input widths); the narrower side is
                   widened by an extension adapter so the unit sees equal
                   widths
        multiply   result width = min(32, wa + wb); the unit computes the
                   full product and the consumer keeps the low result-width
                   bits
        divide     quotient width = numerator width
        mod/rem    result width = denominator width
    """
    if kind in _ADDITIVE:
        return max(w_left, w_right)
    if kind is _MUL:
        return min(32, w_left + w_right)
    if kind in _QUOTIENTS:
        return w_left
    return w_right


def _parse_expr(p: _Parser, decls: dict[str, OperandDecl]) -> tuple[ExprTree, Dfg]:
    """An expr of the grammar and its DFG, parsed without recursion.
    Operands wait on one stack with their node ids, pending operators with
    the ids they reserved and open parentheses (None) on another, so nesting
    costs no Python frames."""
    nodes: list[DfgNode | None] = []
    leaf_ids: dict[str, int] = {}
    level: dict[int, int] = {}
    width: dict[int, int] = {}
    signed: dict[int, bool] = {}
    order: list[int] = []
    operands: list[tuple[ExprTree, int]] = []
    pending: list[tuple[int, int] | None] = []   # (token index, node id)
    open_parens = 0
    kinds, texts = p.kinds, p.texts

    def reduce() -> None:
        at, node_id = pending.pop()
        right, right_id = operands.pop()
        left, left_id = operands.pop()
        depth = 1 + max(level[left_id], level[right_id])
        if depth > MAX_EXPR_DEPTH:
            raise SpecSyntaxError(
                f"expression nests operators deeper than {MAX_EXPR_DEPTH}",
                *p.where(at))
        is_signed = signed[left_id] or signed[right_id]
        _, unsigned_kind, signed_kind = OPERATORS[kinds[at]]
        kind = signed_kind if is_signed else unsigned_kind
        nodes[node_id] = OpNode(node_id, kind, left_id, right_id)
        level[node_id] = depth
        width[node_id] = op_result_width(kind, width[left_id], width[right_id])
        signed[node_id] = is_signed
        order.append(node_id)
        operands.append((BinOp(kind, left, right), node_id))

    while True:
        at = p.advance()
        if kinds[at] == "(":
            pending.append(None)
            open_parens += 1
            continue
        if kinds[at] != "ident":
            raise p.found(at, "operand or '('")
        name = texts[at]
        if name not in decls:
            raise UndeclaredIdentifier(f"undeclared input '{name}'", *p.where(at))
        if name not in leaf_ids:
            leaf_id = leaf_ids[name] = len(nodes)
            decl = decls[name]
            nodes.append(LeafNode(leaf_id, decl))
            level[leaf_id] = 0
            width[leaf_id] = decl.width
            signed[leaf_id] = decl.signed
        operands.append((Leaf(name), leaf_ids[name]))
        while open_parens and p.peek() == ")":
            p.advance()
            while pending[-1] is not None:
                reduce()
            pending.pop()
            open_parens -= 1
        operator = OPERATORS.get(p.peek())
        if operator is None:
            break
        while pending and pending[-1] is not None \
                and OPERATORS[kinds[pending[-1][0]]][0] >= operator[0]:
            reduce()
        pending.append((p.advance(), len(nodes)))
        nodes.append(None)  # the operator's in-order slot
    if open_parens:
        p.expect(")", "')'")
    while pending:
        reduce()
    expr, root = operands[0]
    return expr, Dfg(tuple(nodes), root, level, width, signed, tuple(order))


def analyze(dfg: Dfg) -> AnalysisResult:
    """Derive load order and level-priority execution order from a DFG."""
    operands = tuple(n.decl.name for n in dfg.leaf_nodes())
    ordered = sorted(dfg.order, key=lambda i: (dfg.level[i], i))
    return AnalysisResult(operands, tuple(ordered), dfg.level[dfg.root])
