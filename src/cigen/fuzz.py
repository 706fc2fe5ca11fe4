"""Seeded random specs and input vectors for differential testing.

Specs are produced as DSL text and fed back through the parser, so fuzzing
exercises the frontend as well as the mapper and both evaluators.  Vectors
lean on boundary values often enough to hit overflow, sign and zero-divisor
corners without giving up uniform coverage.

Vectors are drawn column-major: ``random_vectors`` appends each value
straight to its input's column, the form ``sim.check_equivalence`` takes,
so ``build`` makes no per-vector dict between the draw and the check.  The
draw mirrors CPython's ``randint`` and ``choice``, inlining their rejection
over ``getrandbits``, so it consumes the generator exactly as those calls
do; ``tests/test_fuzz.py`` pins the draws (``TestPinnedDraws``) and holds
them to those calls on the running Python.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from typing import NamedTuple

from .frontend import OPERATORS, CiSpec, parse_ci_spec
from .lpm import Column

_WIDTH_POOL = (1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 24, 31, 32, 32)


class FuzzConfig(NamedTuple):
    max_inputs: int = 5
    max_depth: int = 3
    widths: tuple[int, ...] = _WIDTH_POOL


def random_spec(rng: random.Random, name: str = "fz",
                config: FuzzConfig | None = None) -> CiSpec:
    """One random but always well-formed spec."""
    cfg = config or FuzzConfig()
    count = rng.randint(1, cfg.max_inputs)
    names = [f"v{i}" for i in range(count)]
    decls = []
    for ident in names:
        sign = rng.choice(("signed", "unsigned"))
        width = rng.choice(cfg.widths)
        decls.append(f"  input {ident}: {sign}<{width}>;")

    ops = tuple(OPERATORS)

    def expr(depth: int) -> str:
        if depth >= cfg.max_depth or rng.random() < 0.4:
            return rng.choice(names)
        op = rng.choice(ops)
        left, right = expr(depth + 1), expr(depth + 1)
        return f"({left} {op} {right})"

    body = expr(0)
    if body in names:
        body = f"({body} + {rng.choice(names)})"   # keep at least one operation
    out_sign = rng.choice(("signed", "unsigned"))
    out_width = rng.choice(cfg.widths)
    text = "\n".join([
        f"ci {name}(opcode={rng.randint(0, 4)}) {{",
        *decls,
        f"  output y: {out_sign}<{out_width}>;",
        f"  y = {body};",
        "}",
    ])
    return parse_ci_spec(text)


# Per input: its lower bound, the size of its range and the bits drawn for
# it, its corner values, their count and the bits drawn for them, and the
# append of its column.
_Plan = list[tuple[int, int, int, list[int], int, int, Callable[[int], None]]]


def _draw_plan(spec: CiSpec, columns: dict[str, Column]) -> _Plan:
    """The plan of spec's inputs, appending to one new column each in
    columns; inputs with equal bounds share one corner pool."""
    pools: dict[tuple[int, int], list[int]] = {}
    plan = []
    for decl in spec.inputs:
        lo, hi = bounds = decl.bounds
        pool = pools.get(bounds)
        if pool is None:
            corners = {lo, hi, 0, 1, lo + 1, hi - 1, -1, 2}
            pool = pools[bounds] = [v for v in corners if lo <= v <= hi]
        span, size = hi - lo + 1, len(pool)
        column = columns[decl.name] = []
        plan.append((lo, span, span.bit_length(), pool, size,
                     size.bit_length(), column.append))
    return plan


def random_vectors(rng: random.Random, spec: CiSpec,
                   count: int) -> dict[str, Column]:
    """count vectors as one column per declared input, in declaration
    order, drawn vector by vector and input by input: rng.random(), then a
    quarter of the time a corner as rng.choice picks one, else a value as
    rng.randint(lo, hi) draws it (k = n.bit_length() bits, redrawn while
    >= n)."""
    columns: dict[str, Column] = {}
    plan = _draw_plan(spec, columns)
    uniform, getrandbits = rng.random, rng.getrandbits
    for _ in range(count):
        for lo, span, k, pool, size, j, append in plan:
            if uniform() < 0.25:
                r = getrandbits(j)
                while r >= size:
                    r = getrandbits(j)
                append(pool[r])
            else:
                r = getrandbits(k)
                while r >= span:
                    r = getrandbits(k)
                append(lo + r)
    return columns


def random_vector(rng: random.Random, spec: CiSpec) -> dict[str, int]:
    """One assignment of in-range values to every declared input: the one
    row of a one-vector draw."""
    return {name: column[0]
            for name, column in random_vectors(rng, spec, 1).items()}
