"""Error types shared across the toolchain: two ways to fail, four classes.

CigenError: a failure caused by user input (spec, config, C source, input
values, flags, paths); the CLI maps it to exit code 1.  SpecSyntaxError
and DivideByZero are CigenErrors, so they exit 1 too.
InternalCheckError: a failure of the tool's own gates on a design it
generated, including a component used against its width contract, which
only a faulty generated design can cause; the CLI maps it to exit code 2.
"""

from __future__ import annotations


class CigenError(Exception):
    """Base class for all tool errors caused by user input."""


class InternalCheckError(Exception):
    """Structural validation or equivalence failed on tool-generated output."""


class SpecSyntaxError(CigenError):
    """Any error in CI spec text.  Carries position and the expected token."""

    def __init__(self, message: str, line: int, col: int, expected: str | None = None):
        self.line = line
        self.col = col
        self.expected = expected
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{suffix}")


class DivideByZero(CigenError):
    """Division with a zero divisor.  Carries the node that met it and, in
    simulation, the enabled cycle, which the message names."""

    def __init__(self, message: str = "divide by zero", cycle: int | None = None,
                 node: int | None = None):
        self.cycle = cycle
        self.node = node
        super().__init__(message)
