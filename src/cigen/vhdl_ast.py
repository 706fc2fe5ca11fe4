"""``NamedTuple`` records describing the structure of a generated VHDL design.

The emitter renders these to text, holding all VHDL spelling.  Two checks
read them directly, so neither parses emitted VHDL back in:
``hdl.validate_structure`` owns the naming rules, and ``sim.IndexedDesign``,
which lowers them to execute, owns connectivity.  A record holds only what
a check reads and not what its place says: an ``Assign`` is a concurrent
assignment in ``Architecture.assigns`` and a register load in a step of
``ControlProcess.steps``.  ``emit_vhdl`` derives the rest of the text from
the records: the entity's ports, the port name each wire binds to, the
registers reset (``ControlProcess.registers``) and each step's successor.
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


class Assign(NamedTuple):
    target: str
    expr: Expr


class ControlProcess(NamedTuple):
    """The clocked process.  Each step is one branch of the control chain,
    the register loads guarded by the counter value that is its position
    in steps; step 0 is additionally guarded by start.  done_step drives
    the done register high for the following enabled cycle.  Reset clears
    the counter, done and registers."""
    steps: tuple[tuple[Assign, ...], ...]
    done_step: int

    def registers(self) -> tuple[str, ...]:
        """The load targets in step order, each once."""
        return tuple(dict.fromkeys(
            target for loads in self.steps for target, _ in loads))

    def successor(self, index: int) -> int:
        """The counter value step index sets: the next step, or 0 after the
        last."""
        return (index + 1) % len(self.steps)


class Architecture(NamedTuple):
    signals: tuple[SignalDecl, ...]
    instances: tuple[Instance, ...]
    assigns: tuple[Assign, ...]
    process: ControlProcess


class HdlDesign(NamedTuple):
    """A complete design: the architecture of the entity name, whose ports
    are always ``hdl.ENTITY_PORTS``."""
    header_comment: tuple[str, ...]
    name: str
    architecture: Architecture
