"""Seeded random specs and input vectors for differential testing.

Specs are produced as DSL text and fed back through the parser, so fuzzing
exercises the frontend as well as the mapper and both evaluators.  Vectors
lean on boundary values often enough to hit overflow, sign and zero-divisor
corners without giving up uniform coverage.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .frontend import OPERATORS, CiSpec, parse_ci_spec

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


# Per input: its name, its bounds and the in-range corner values.
_Plan = list[tuple[str, int, int, list[int]]]


def _draw_plan(spec: CiSpec) -> _Plan:
    """The plan of spec's inputs; inputs with equal bounds share one pool."""
    pools: dict[tuple[int, int], list[int]] = {}
    plan = []
    for decl in spec.inputs:
        lo, hi = bounds = decl.bounds
        pool = pools.get(bounds)
        if pool is None:
            corners = {lo, hi, 0, 1, lo + 1, hi - 1, -1, 2}
            pool = pools[bounds] = [v for v in corners if lo <= v <= hi]
        plan.append((decl.name, lo, hi, pool))
    return plan


def _draw(rng: random.Random, plan: _Plan) -> dict[str, int]:
    """A quarter of the values come from the corners."""
    return {name: rng.choice(pool) if rng.random() < 0.25
            else rng.randint(lo, hi) for name, lo, hi, pool in plan}


def random_vector(rng: random.Random, spec: CiSpec) -> dict[str, int]:
    """One assignment of in-range values to every declared input."""
    return _draw(rng, _draw_plan(spec))


def random_vectors(rng: random.Random, spec: CiSpec,
                   count: int) -> list[dict[str, int]]:
    """count vectors, drawn as count random_vector calls would draw them."""
    plan = _draw_plan(spec)
    return [_draw(rng, plan) for _ in range(count)]
