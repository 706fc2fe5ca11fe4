"""``NamedTuple`` records describing the structure of a generated VHDL design.

The emitter renders these to text, holding all VHDL spelling.  Two checks
read them directly, so neither parses emitted VHDL back in:
``hdl.validate_structure`` owns the naming rules, and ``sim.IndexedDesign``,
which lowers them to execute, owns connectivity.  A record holds only what
a check reads; ``emit_vhdl`` derives the rest of the text from it: the
entity's ports, the port name each wire binds to and each step's
successor.
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
    component kind (``lpm.LpmGenerics``).  wires holds the signal or port
    name bound to each of the component's ports, in declaration order."""
    label: str
    generics: LpmGenerics
    wires: tuple[str, ...]


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


class ControlProcess(NamedTuple):
    """The clocked process.  Reset clears the counter, done and registers."""
    steps: tuple[ControlStep, ...]
    registers: tuple[str, ...]

    def successor(self, index: int) -> int:
        """The counter value step index sets: the next step, or 0 after the
        last."""
        return (index + 1) % len(self.steps)


class Architecture(NamedTuple):
    signals: tuple[SignalDecl, ...]
    instances: tuple[Instance, ...]
    assigns: tuple[ConcurrentAssign, ...]
    process: ControlProcess


class HdlDesign(NamedTuple):
    """A complete design: the architecture of the entity name, whose ports
    are always ``hdl.ENTITY_PORTS``."""
    header_comment: tuple[str, ...]
    name: str
    architecture: Architecture
