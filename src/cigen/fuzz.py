"""Seeded random specs and input vectors for differential testing.

Specs are produced as DSL text and fed back through the parser, so fuzzing
exercises the frontend as well as the mapper and both evaluators.  Vectors
lean on boundary values often enough to hit overflow, sign and zero-divisor
corners without giving up uniform coverage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .frontend import CiSpec, parse_ci_spec

_WIDTH_POOL = (1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 24, 31, 32, 32)


@dataclass(frozen=True)
class FuzzConfig:
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

    ops = ["+", "-", "*", "/", "%", "mod"]

    def expr(depth: int) -> str:
        if depth >= cfg.max_depth or rng.random() < 0.4:
            return rng.choice(names)
        op = rng.choice(ops)
        left, right = expr(depth + 1), expr(depth + 1)
        if op == "mod":
            return f"({left} mod {right})"
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


def random_vector(rng: random.Random, spec: CiSpec,
                  corner_bias: float = 0.25) -> dict[str, int]:
    """One assignment of in-range values to every declared input."""
    vector = {}
    for decl in spec.inputs:
        if decl.signed:
            lo, hi = -(1 << (decl.width - 1)), (1 << (decl.width - 1)) - 1
        else:
            lo, hi = 0, (1 << decl.width) - 1
        if rng.random() < corner_bias:
            corners = {lo, hi, 0, 1, lo + 1, hi - 1, -1, 2}
            pool = [v for v in corners if lo <= v <= hi]
            vector[decl.name] = rng.choice(pool)
        else:
            vector[decl.name] = rng.randint(lo, hi)
    return vector


def random_vectors(rng: random.Random, spec: CiSpec, count: int,
                   corner_bias: float = 0.25) -> list[dict[str, int]]:
    return [random_vector(rng, spec, corner_bias) for _ in range(count)]
