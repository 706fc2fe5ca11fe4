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

An expression may nest at most MAX_EXPR_DEPTH (960) operators deep; parentheses
alone add no depth.

The parser builds the finished dataflow graph in the same pass as the tree:
every node's id, level, width and signedness is set when the node is read.

Operator spellings map to operation kinds by operand signedness: "/" is a
truncating division (DIVS when either side is signed, else DIVU), "%" is the
matching remainder (sign of the dividend), and the "mod" keyword is the
flooring modulus (sign of the divisor).

Identifiers must be usable verbatim in generated VHDL and C, so beyond the
letter-then-alphanumeric rule they may not contain "__", end in "_", collide
case-insensitively, or be a reserved word of the DSL or of VHDL.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

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
# or the DFG recurses, but cpatch compares nested tuple trees, and the
# interpreter spends one level of its recursion limit (1000 by default) on
# each level of nesting it compares.  The 960-term chain a + b + ...
# nests 959 deep.
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
# so it must not shadow the fixed port names or internal control names.
CI_NAME_RESERVED = VHDL_RESERVED | frozenset(
    {"clk", "clk_en", "reset", "start", "dataa", "datab", "done", "result",
     "cnt", "control", "rtl"})


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


# Kinds whose result carries the sign of a division-family operation.
DIV_FAMILY = frozenset({OpKind.DIVS, OpKind.DIVU, OpKind.MODS, OpKind.MODU,
                        OpKind.REMS, OpKind.REMU})


@dataclass(frozen=True)
class OperandDecl:
    name: str
    signed: bool
    width: int


@dataclass(frozen=True)
class Leaf:
    name: str


@dataclass(frozen=True)
class BinOp:
    kind: OpKind
    left: "ExprTree"
    right: "ExprTree"


ExprTree = Leaf | BinOp


@dataclass(frozen=True)
class CiSpec:
    name: str
    opcode: int
    inputs: tuple[OperandDecl, ...]
    output: OperandDecl
    expr: ExprTree
    dfg: Dfg = field(compare=False, repr=False)   # derived from expr

    def input_by_name(self, name: str) -> OperandDecl:
        for decl in self.inputs:
            if decl.name == name:
                return decl
        raise KeyError(name)


@dataclass(frozen=True)
class LeafNode:
    """DFG leaf: one per distinct operand used in the expression."""
    id: int
    decl: OperandDecl


@dataclass(frozen=True)
class OpNode:
    id: int
    kind: OpKind
    left: int
    right: int


DfgNode = LeafNode | OpNode


@dataclass(frozen=True)
class Dfg:
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

    def node(self, node_id: int) -> DfgNode:
        return self.nodes[node_id]

    def op_nodes(self) -> tuple[OpNode, ...]:
        return tuple(n for n in self.nodes if isinstance(n, OpNode))

    def leaf_nodes(self) -> tuple[LeafNode, ...]:
        return tuple(n for n in self.nodes if isinstance(n, LeafNode))

    def canonical(self) -> str:
        """Deterministic serialization used by determinism checks."""
        parts = []
        for n in self.nodes:
            if isinstance(n, LeafNode):
                parts.append(f"L{n.id}:{n.decl.name}:{'s' if n.decl.signed else 'u'}"
                             f"{n.decl.width}:lvl{self.level[n.id]}")
            else:
                parts.append(f"O{n.id}:{n.kind.name}({n.left},{n.right})"
                             f":lvl{self.level[n.id]}")
        return f"root={self.root};" + ";".join(parts)


@dataclass(frozen=True)
class AnalysisResult:
    """Level-priority schedule extracted from a DFG.

    operand_sequence lists used inputs by first appearance left to right.
    operation_sequence lists op node ids by ascending level, ties broken by
    source position, so it is a valid execution order.
    """
    operand_sequence: tuple[str, ...]
    operation_sequence: tuple[int, ...]
    max_level: int


@dataclass(frozen=True)
class _Token:
    kind: str  # 'ident', 'int', 'kw', symbol text, or 'eof'
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
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
        if ch.isalpha():
            start = i
            start_col = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            word = text[start:i]
            kind = "kw" if word in DSL_KEYWORDS else "ident"
            tokens.append(_Token(kind, word, line, start_col))
            continue
        if ch.isdigit():
            start = i
            start_col = col
            while i < n and text[i].isdigit():
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


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise SpecSyntaxError(f"found {tok.text or 'end of input'!r}",
                                  tok.line, tok.col, expected=what)
        return self.advance()

    def expect_kw(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind != "kw" or tok.text != word:
            raise SpecSyntaxError(f"found {tok.text or 'end of input'!r}",
                                  tok.line, tok.col, expected=f"'{word}'")
        return self.advance()


def _check_name(tok: _Token, reserved: frozenset[str] = VHDL_RESERVED) -> str:
    name = tok.text
    if "__" in name or name.endswith("_"):
        raise SpecSyntaxError(f"identifier {name!r} may not contain '__' or end in '_'",
                              tok.line, tok.col)
    if name.lower() in reserved:
        raise SpecSyntaxError(f"identifier {name!r} is reserved", tok.line, tok.col)
    return name


def _resolve_div_kind(symbol: str, signed: bool) -> OpKind:
    if symbol == "/":
        return OpKind.DIVS if signed else OpKind.DIVU
    if symbol == "%":
        return OpKind.REMS if signed else OpKind.REMU
    if symbol == "mod":
        return OpKind.MODS if signed else OpKind.MODU
    raise AssertionError(symbol)


def parse_ci_spec(text: str) -> CiSpec:
    """Parse CI spec text into a CiSpec, raising on the first error."""
    p = _Parser(_tokenize(text))
    p.expect_kw("ci")
    name_tok = p.expect("ident", "instruction name")
    ci_name = _check_name(name_tok, CI_NAME_RESERVED)
    p.expect("(", "'('")
    p.expect_kw("opcode")
    p.expect("=", "'='")
    opcode_tok = p.expect("int", "opcode value")
    opcode = int(opcode_tok.text)
    if not MIN_OPCODE <= opcode <= MAX_OPCODE:
        raise OpcodeOutOfRange(opcode, opcode_tok.line, opcode_tok.col)
    p.expect(")", "')'")
    p.expect("{", "'{'")

    inputs: list[OperandDecl] = []
    output: OperandDecl | None = None
    seen_lower: dict[str, str] = {}
    while p.peek().kind == "kw" and p.peek().text in ("input", "output"):
        role = p.advance().text
        ident_tok = p.expect("ident", "operand name")
        op_name = _check_name(ident_tok)
        if op_name.lower() in seen_lower or op_name.lower() == ci_name.lower():
            raise DuplicateDeclaration(op_name, ident_tok.line, ident_tok.col)
        seen_lower[op_name.lower()] = op_name
        p.expect(":", "':'")
        sign_tok = p.peek()
        if sign_tok.kind != "kw" or sign_tok.text not in ("signed", "unsigned"):
            raise SpecSyntaxError(f"found {sign_tok.text!r}", sign_tok.line,
                                  sign_tok.col, expected="'signed' or 'unsigned'")
        p.advance()
        p.expect("<", "'<'")
        width_tok = p.expect("int", "bit width")
        width = int(width_tok.text)
        if not MIN_WIDTH <= width <= MAX_WIDTH:
            raise WidthOutOfRange(width, width_tok.line, width_tok.col)
        p.expect(">", "'>'")
        p.expect(";", "';'")
        decl = OperandDecl(op_name, sign_tok.text == "signed", width)
        if role == "input":
            inputs.append(decl)
        else:
            if output is not None:
                raise SpecSyntaxError("only one output declaration is allowed",
                                      ident_tok.line, ident_tok.col)
            output = decl

    if output is None:
        tok = p.peek()
        raise SpecSyntaxError("missing output declaration", tok.line, tok.col,
                              expected="'output' declaration")
    if not inputs:
        tok = p.peek()
        raise SpecSyntaxError("missing input declaration", tok.line, tok.col,
                              expected="'input' declaration")

    decls = {d.name: d for d in inputs}

    target_tok = p.expect("ident", "assignment target")
    if target_tok.text != output.name:
        raise SpecSyntaxError(f"assignment target {target_tok.text!r} is not the output",
                              target_tok.line, target_tok.col,
                              expected=f"'{output.name}'")
    p.expect("=", "'='")
    expr, dfg = _parse_expr(p, decls)
    p.expect(";", "';'")
    p.expect("}", "'}'")
    p.expect("eof", "end of input")
    return CiSpec(ci_name, opcode, tuple(inputs), output, expr, dfg)


def _binary_precedence(tok: _Token) -> int | None:
    """2 for a term operator, 1 for an expression operator, else None."""
    if tok.kind in ("*", "/", "%") or (tok.kind == "kw" and tok.text == "mod"):
        return 2
    if tok.kind in ("+", "-"):
        return 1
    return None


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
    if kind in (OpKind.ADD, OpKind.SUB):
        return max(w_left, w_right)
    if kind is OpKind.MUL:
        return min(32, w_left + w_right)
    if kind in (OpKind.DIVS, OpKind.DIVU):
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
    pending: list[tuple[_Token, int] | None] = []
    open_parens = 0

    def reduce() -> None:
        tok, node_id = pending.pop()
        right, right_id = operands.pop()
        left, left_id = operands.pop()
        depth = 1 + max(level[left_id], level[right_id])
        if depth > MAX_EXPR_DEPTH:
            raise SpecSyntaxError(
                f"expression nests operators deeper than {MAX_EXPR_DEPTH}",
                tok.line, tok.col)
        is_signed = signed[left_id] or signed[right_id]
        if tok.kind in ("+", "-"):
            kind = OpKind.ADD if tok.kind == "+" else OpKind.SUB
        elif tok.kind == "*":
            kind = OpKind.MUL
        else:
            kind = _resolve_div_kind(tok.text, is_signed)
        nodes[node_id] = OpNode(node_id, kind, left_id, right_id)
        level[node_id] = depth
        width[node_id] = op_result_width(kind, width[left_id], width[right_id])
        signed[node_id] = is_signed
        order.append(node_id)
        operands.append((BinOp(kind, left, right), node_id))

    while True:
        tok = p.advance()
        if tok.kind == "(":
            pending.append(None)
            open_parens += 1
            continue
        if tok.kind != "ident":
            raise SpecSyntaxError(f"found {tok.text or 'end of input'!r}", tok.line,
                                  tok.col, expected="operand or '('")
        if tok.text not in decls:
            raise UndeclaredIdentifier(tok.text, tok.line, tok.col)
        if tok.text not in leaf_ids:
            leaf_id = leaf_ids[tok.text] = len(nodes)
            decl = decls[tok.text]
            nodes.append(LeafNode(leaf_id, decl))
            level[leaf_id] = 0
            width[leaf_id] = decl.width
            signed[leaf_id] = decl.signed
        operands.append((Leaf(tok.text), leaf_ids[tok.text]))
        while open_parens and p.peek().kind == ")":
            p.advance()
            while pending[-1] is not None:
                reduce()
            pending.pop()
            open_parens -= 1
        precedence = _binary_precedence(p.peek())
        if precedence is None:
            break
        while pending and pending[-1] is not None \
                and _binary_precedence(pending[-1][0]) >= precedence:
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
