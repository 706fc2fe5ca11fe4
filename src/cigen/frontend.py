"""CI spec frontend: parse the spec DSL into its dataflow graph and schedule.

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
ASCII ident rule above they must match VHDL_IDENTIFIER (no "__", no
trailing "_"), and may not collide case-insensitively or be a reserved
word of the DSL or of VHDL.  The CI name must not collide with a name of
the generated VHDL either.
"""

from __future__ import annotations

import re
import string
from itertools import islice
from typing import NamedTuple

from .errors import SpecSyntaxError

MIN_WIDTH = 1
MAX_WIDTH = 32
MIN_OPCODE = 0
MAX_OPCODE = 4
# The builtin a generated header calls unless a config names another one
DEFAULT_INTRINSIC = "__builtin_custom_inii"
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

# The one rule of a legal VHDL identifier, which hdl reads too: a letter
# first, then letters, digits and single underscores, no trailing "_".
VHDL_IDENTIFIER = re.compile(r"[A-Za-z][A-Za-z0-9]*(?:_[A-Za-z0-9]+)*")


class OpKind:
    """The operations, each spelled as its lowercase name: the infix of its
    instances' labels and its key in the cost model."""
    ADD, SUB, MUL = "add", "sub", "mul"
    DIVS, DIVU, MODS, MODU, REMS, REMU = "divs", "divu", "mods", "modu", "rems", "remu"


# spelling -> (precedence, kind on unsigned operands, kind on signed ones)
OPERATORS: dict[str, tuple[int, str, str]] = {
    "+": (1, OpKind.ADD, OpKind.ADD),
    "-": (1, OpKind.SUB, OpKind.SUB),
    "*": (2, OpKind.MUL, OpKind.MUL),
    "/": (2, OpKind.DIVU, OpKind.DIVS),
    "%": (2, OpKind.REMU, OpKind.REMS),
    "mod": (2, OpKind.MODU, OpKind.MODS),
}


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
    kind: str
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
    kind: str
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
    a node is signed when either child is.  order lists the op ids by
    ascending level, ties broken by id: the ASAP schedule, in which the
    mapper makes the instances and the hardware latches the nodes.  It is
    children first, so a single loop over it evaluates the graph.  leaves
    lists the leaf nodes by id, the order the operands are loaded in.
    """
    nodes: tuple[DfgNode, ...]
    root: int
    level: dict[int, int]
    width: dict[int, int]
    signed: dict[int, bool]
    order: tuple[int, ...]
    leaves: tuple[LeafNode, ...]


# One token per match: the white space and comments before it, then the
# token itself, or "" at the end of the text.  A character that starts no
# token is matched alone, and the lexer refuses it.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*([A-Za-z][A-Za-z0-9_]*|[0-9]+|[^ \t\r\n#]|\Z)")
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

    def expect(self, kind: str, what: str) -> int:
        """The index of the next token, which must be of kind, passed."""
        if self.kinds[self.pos] != kind:
            raise self.found(self.pos, what)
        self.pos += 1
        return self.pos - 1

    def found(self, index: int, expected: str) -> SpecSyntaxError:
        return SpecSyntaxError(f"found {self.texts[index] or 'end of input'!r}",
                               *self.where(index), expected=expected)


def _check_name(p: _Parser, index: int, reserved: frozenset[str] = VHDL_RESERVED,
                prefixes: tuple[str, ...] = ()) -> str:
    """The lowercase form of the ident token at index, which collisions
    compare; an error unless the name is a legal VHDL identifier outside
    reserved and the prefixes."""
    name = p.texts[index]
    if not VHDL_IDENTIFIER.fullmatch(name):
        raise SpecSyntaxError(f"identifier {name!r} may not contain '__' or end in '_'",
                              *p.where(index))
    lower = name.lower()
    if lower in reserved or lower.startswith(prefixes):
        raise SpecSyntaxError(f"identifier {name!r} is reserved", *p.where(index))
    return lower


def _in_range(p: _Parser, index: int, what: str, low: int, high: int) -> int:
    """The value of the int token at index; an error, naming what and its
    digits, when it lies outside low..high.  The digits are counted before
    int() reads them, as int() refuses more than 4300."""
    digits = p.texts[index].lstrip("0") or "0"
    if len(digits) > len(str(high)) or not low <= int(digits) <= high:
        raise SpecSyntaxError(f"{what} {digits} out of range {low}..{high}",
                              *p.where(index))
    return int(digits)


# The kinds of a declaration's seven tokens after its role, in its two
# well-formed shapes, and what an error names for each token.
_DECL_FORMS = (["ident", ":", "signed", "<", "int", ">", ";"],
               ["ident", ":", "unsigned", "<", "int", ">", ";"])
_DECL_EXPECTED = ("operand name", "':'", "'signed' or 'unsigned'", "'<'",
                  "bit width", "'>'", "';'")


def parse_ci_spec(text: str) -> CiSpec:
    """Parse CI spec text into a CiSpec, raising on the first error.

    A declaration is read as one slice of seven token kinds after its role.
    Its checks run in token order up to the first token of a wrong kind:
    the name's, then the width's, then that token's syntax error."""
    p = _Parser(text)
    p.expect("ci", "'ci'")
    ci_at = p.expect("ident", "instruction name")
    seen = {_check_name(p, ci_at, CI_NAME_RESERVED, CI_NAME_PREFIXES)}
    p.expect("(", "'('")
    p.expect("opcode", "'opcode'")
    p.expect("=", "'='")
    opcode = _in_range(p, p.expect("int", "opcode value"), "opcode",
                       MIN_OPCODE, MAX_OPCODE)
    p.expect(")", "')'")
    p.expect("{", "'{'")

    inputs: list[OperandDecl] = []
    output: OperandDecl | None = None
    kinds, texts, pos = p.kinds, p.texts, p.pos
    while kinds[pos] in ("input", "output"):
        form = kinds[pos + 1:pos + 8]
        # the number of well-formed tokens: the form ends in "eof" if short
        good = 7 if form in _DECL_FORMS else next(
            i for i, slot in enumerate(zip(form, *_DECL_FORMS))
            if slot[0] not in slot[1:])
        ident_at = pos + 1
        if good:
            lower = _check_name(p, ident_at)
            if lower in seen:
                raise SpecSyntaxError(f"duplicate declaration of "
                                      f"'{texts[ident_at]}'", *p.where(ident_at))
            seen.add(lower)
        if good > 4:
            width = _in_range(p, pos + 5, "width", MIN_WIDTH, MAX_WIDTH)
        if good < 7:
            raise p.found(ident_at + good, _DECL_EXPECTED[good])
        decl = OperandDecl(texts[ident_at], kinds[pos + 3] == "signed", width)
        if kinds[pos] == "input":
            inputs.append(decl)
        elif output is None:
            output = decl
        else:
            raise SpecSyntaxError("only one output declaration is allowed",
                                  *p.where(ident_at))
        pos += 8
    p.pos = pos

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
    return CiSpec(texts[ci_at], opcode, tuple(inputs), output, expr, dfg)


def op_result_width(kind: str, w_left: int, w_right: int) -> int:
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
    if kind == OpKind.MUL:
        return min(32, w_left + w_right)
    if kind in (OpKind.DIVS, OpKind.DIVU):
        return w_left
    return w_right


def _parse_expr(p: _Parser, decls: dict[str, OperandDecl]) -> tuple[ExprTree, Dfg]:
    """An expr of the grammar and its DFG, parsed without recursion.
    Operands wait on one stack with their node ids, pending operators with
    their OPERATORS entry, token index and reserved id, and open
    parentheses (None) on another, so nesting costs no Python frames."""
    nodes: list[DfgNode | None] = []
    leaves: dict[str, tuple[Leaf, int]] = {}
    level: dict[int, int] = {}
    width: dict[int, int] = {}
    signed: dict[int, bool] = {}
    operands: list[tuple[ExprTree, int]] = []
    pending: list[tuple[tuple[int, str, str], int, int] | None] = []
    open_parens = 0
    kinds, texts, pos = p.kinds, p.texts, p.pos

    def reduce() -> None:
        (_, unsigned_kind, signed_kind), at, node_id = pending.pop()
        right, right_id = operands.pop()
        left, left_id = operands.pop()
        depth = 1 + max(level[left_id], level[right_id])
        if depth > MAX_EXPR_DEPTH:
            raise SpecSyntaxError(
                f"expression nests operators deeper than {MAX_EXPR_DEPTH}",
                *p.where(at))
        is_signed = signed[left_id] or signed[right_id]
        kind = signed_kind if is_signed else unsigned_kind
        nodes[node_id] = OpNode(node_id, kind, left_id, right_id)
        level[node_id] = depth
        width[node_id] = op_result_width(kind, width[left_id], width[right_id])
        signed[node_id] = is_signed
        operands.append((BinOp(kind, left, right), node_id))

    while True:
        kind = kinds[pos]
        if kind == "(":
            pending.append(None)
            open_parens += 1
            pos += 1
            continue
        if kind != "ident":
            raise p.found(pos, "operand or '('")
        name = texts[pos]
        leaf = leaves.get(name)
        if leaf is None:
            decl = decls.get(name)
            if decl is None:
                raise SpecSyntaxError(f"undeclared input '{name}'", *p.where(pos))
            leaf_id = len(nodes)
            leaf = leaves[name] = Leaf(name), leaf_id
            nodes.append(LeafNode(leaf_id, decl))
            level[leaf_id] = 0
            width[leaf_id] = decl.width
            signed[leaf_id] = decl.signed
        operands.append(leaf)
        pos += 1
        while open_parens and kinds[pos] == ")":
            pos += 1
            while pending[-1] is not None:
                reduce()
            pending.pop()
            open_parens -= 1
        operator = OPERATORS.get(kinds[pos])
        if operator is None:
            break
        while pending and pending[-1] is not None \
                and pending[-1][0][0] >= operator[0]:
            reduce()
        pending.append((operator, pos, len(nodes)))
        nodes.append(None)  # the operator's in-order slot
        pos += 1
    p.pos = pos
    if open_parens:
        p.expect(")", "')'")
    while pending:
        reduce()
    expr, root = operands[0]
    # the op ids by level, ties by id; the leaves, at level 0, sort first
    order = sorted(range(len(nodes)), key=level.__getitem__)[len(leaves):]
    return expr, Dfg(tuple(nodes), root, level, width, signed, tuple(order),
                     tuple([nodes[leaf_id] for _, leaf_id in leaves.values()]))

