"""Error types shared across the toolchain.

Every user-visible failure derives from CigenError so the CLI can map it to
exit code 1; every error in spec text is a SpecSyntaxError, positioned.
InternalCheckError marks failures of the tool's own validation and
equivalence gates, including a component used against its width contract,
which only a faulty generated design can cause; it maps to exit code 2.
"""

from __future__ import annotations


class CigenError(Exception):
    """Base class for all tool errors caused by user input."""


class InternalCheckError(Exception):
    """Structural validation or equivalence failed on tool-generated output."""


class SpecSyntaxError(CigenError):
    """Malformed CI spec text.  Carries position and the expected token."""

    def __init__(self, message: str, line: int, col: int, expected: str | None = None):
        self.line = line
        self.col = col
        self.expected = expected
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{suffix}")


class UndeclaredIdentifier(SpecSyntaxError):
    """An expression identifier that is not a declared input."""


class DuplicateDeclaration(SpecSyntaxError):
    """An operand name taken, in any case, by another operand or the CI."""


class WidthOutOfRange(SpecSyntaxError):
    """A declared width outside frontend.MIN_WIDTH..MAX_WIDTH."""


class OpcodeOutOfRange(SpecSyntaxError):
    """An opcode outside frontend.MIN_OPCODE..MAX_OPCODE."""


class WidthMismatch(InternalCheckError):
    """Component inputs whose widths disagree with the component contract."""


class NotWidening(InternalCheckError):
    """An extension whose target width does not exceed the source width."""


class DivideByZero(CigenError):
    """Division with a zero divisor.  Carries the node that met it and, in
    simulation, the enabled cycle, which the message names."""

    def __init__(self, message: str = "divide by zero", cycle: int | None = None,
                 node: int | None = None):
        self.cycle = cycle
        self.node = node
        super().__init__(message)


class InputOutOfRange(CigenError):
    """An input binding that does not fit its declared width and signedness."""


class LexError(CigenError):
    """Unterminated string, character or comment while scanning C source."""


class NoMatchFound(CigenError):
    """No rewritable occurrence of the CI expression in the C source."""
