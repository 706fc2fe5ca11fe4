"""``NamedTuple`` records describing the structure of a generated VHDL design.

The emitter renders these to text, holding all VHDL spelling.  Two checks
read them directly, so neither parses emitted VHDL back in:
``hdl.validate_structure`` owns the naming rules, and ``sim.IndexedDesign``,
which lowers them to execute, owns connectivity.  A record holds only what
a check reads; ``emit_vhdl`` derives the rest of the text from it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .lpm import LpmGenerics


class Port(NamedTuple):
    """Entity port.  width == 1 renders as std_logic, wider as a vector."""
    name: str
    direction: str  # 'in' or 'out'
    width: int


class Entity(NamedTuple):
    name: str
    ports: tuple[Port, ...]


class GenericDecl(NamedTuple):
    name: str
    vhdl_type: str  # 'natural' or 'string'


class PortDecl(NamedTuple):
    """Component port with its type spelled out (ranges may use generics)."""
    name: str
    direction: str
    type_text: str


class ComponentDecl(NamedTuple):
    name: str
    generics: tuple[GenericDecl, ...]
    ports: tuple[PortDecl, ...]


class SignalDecl(NamedTuple):
    name: str
    width: int


class Instance(NamedTuple):
    """Component instantiation.  The generics record's class is the
    component kind (``lpm.LpmGenerics``).  Port map values must be signal or
    port names."""
    label: str
    generics: LpmGenerics
    port_map: tuple[tuple[str, str], ...]


class Ref(NamedTuple):
    """The value of a signal or port."""
    name: str


class Slice(NamedTuple):
    """The low width bits of a signal or port."""
    name: str
    width: int


class Resize(NamedTuple):
    """operand read as signed or unsigned, extended or cut to width."""
    operand: Expr
    signed: bool
    width: int


class ModCorrect(NamedTuple):
    """A dividend-sign remainder turned into a divisor-sign modulus: the
    remainder plus the divisor when it is non-zero and the top bits of the
    two differ, else the remainder.  Both signals share one width."""
    remainder: str
    divisor: str


Expr = Ref | Slice | Resize | ModCorrect


class ConcurrentAssign(NamedTuple):
    target: str
    expr: Expr


class RegisterLoad(NamedTuple):
    target: str
    expr: Expr


class ControlStep(NamedTuple):
    """One branch of the clocked control chain, guarded by the counter value
    that is its position in ``ControlProcess.steps``.

    Step 0 is additionally guarded by start.  set_done drives the done
    register high for the following enabled cycle.
    """
    loads: tuple[RegisterLoad, ...]
    set_done: bool
    next_index: int


class ControlProcess(NamedTuple):
    """The clocked process.  Reset clears the counter, done and registers."""
    steps: tuple[ControlStep, ...]
    registers: tuple[str, ...]


class Architecture(NamedTuple):
    signals: tuple[SignalDecl, ...]
    instances: tuple[Instance, ...]
    assigns: tuple[ConcurrentAssign, ...]
    process: ControlProcess


class HdlDesign(NamedTuple):
    """A complete design: one entity and its architecture."""
    header_comment: tuple[str, ...]
    entity: Entity
    architecture: Architecture
