"""Growth rates of `patch` and `build`: each bound the docs state, pinned
on the shapes that would break it.

Each family builds an input of size n and one of size 8n and runs the
stages on both: `rewrite` for a C source, and for a spec everything `build`
does before it writes (parse, map, build, validate, emit, and the check at
4 vectors).  A linear stage takes about 8 times as long on the larger one
and a quadratic one about 64 times, so the test asserts a ratio below 16.
Times are thread CPU times with the garbage collector off, the least of
five runs at each size (the larger size stops at the first under the
bound, which keeps the verdict of the least of five), so that a burst of
load on the host reads as a slow run, not a slow size.  After empirical
computational complexity (Goldsmith, Aiken and Wilkerson, FSE 2007).
"""

import gc
import random
import time

import pytest

from conftest import MAC_TEXT
from cigen.cpatch import rewrite
from cigen.frontend import parse_ci_spec
from cigen.fuzz import random_vectors
from cigen.hdl import build_design, emit_vhdl, validate_structure
from cigen.mapper import map_design
from cigen.sim import check_equivalence

MAC = parse_ci_spec(MAC_TEXT)
HEAD = "int f(int a, int b, int c, int t, int u)\n{\n"


def _nested(n: int) -> str:
    return HEAD + "  return " + "(" * n + "a * b + c" + ")" * n + ";\n}\n"


def _nested_in_a_conditional(n: int) -> str:
    return (HEAD + "#if 1\n  return " + "(" * n + "a * b + c" + ")" * n
            + ";\n#endif\n}\n")


def _sites_in_one_statement(n: int) -> str:
    return HEAD + "  g(" + ", ".join(["a * b + c"] * n) + ");\n}\n"


def _flat_sum(n: int) -> str:
    return HEAD + "  return a * b + c + " + " + ".join(["t * u"] * n) + ";\n}\n"


def _directives(n: int) -> str:
    return "".join(f"#define M{k} (a * b + c)\n" for k in range(n)) + \
        HEAD + "  return a * b + c;\n}\n"


def _spliced_line(n: int) -> str:
    return HEAD + "  return a * b + c" + " \\\n + t * u" * n + ";\n}\n"


def _literals_and_comments(n: int) -> str:
    return (HEAD + '  s = "' + "a * b + c; " * n + '";\n  /* '
            + "a * b + c; } " * n + "*/ return a * b + c;\n}\n")


# (family, base size, call sites)
FAMILIES = [
    (_nested, 6000, 1),
    (_nested_in_a_conditional, 6000, 1),
    (_sites_in_one_statement, 2000, None),
    (_flat_sum, 4000, 1),
    (_directives, 12000, 1),
    (_spliced_line, 2000, 1),
    (_literals_and_comments, 20000, 1),
]


def _least_time(run, enough: float = 0.0) -> float:
    """The least thread time of five calls of run, or the first one under
    enough."""
    best = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            start = time.thread_time()
            run()
            best = min(best, time.thread_time() - start)
            if best < enough:
                break
    finally:
        gc.enable()
    return best


def _assert_linear(run, small_input, large_input) -> None:
    small = _least_time(lambda: run(small_input))
    large = _least_time(lambda: run(large_input), enough=16 * small)
    assert large < 16 * small, \
        f"{large / small:.1f} times the time for 8 times the size"


@pytest.mark.parametrize("family, n, sites", FAMILIES,
                         ids=[family.__name__[1:] for family, _, _ in FAMILIES])
def test_patching_is_linear(family, n, sites):
    sources = {size: family(size) for size in (n, 8 * n)}

    def patch(size: int) -> None:
        plan = rewrite(sources[size], MAC)
        assert len(plan.sites) == (sites or size)

    _assert_linear(patch, n, 8 * n)


def _spec(inputs: list[str], expr: str) -> str:
    decls = "".join(f"input {name}: signed<8>; " for name in inputs)
    return f"ci g(opcode=0) {{ {decls}output y: signed<32>; y = {expr}; }}"


def _many_inputs(n: int) -> str:
    names = [f"a{k}" for k in range(n)]
    terms = names
    while len(terms) > 1:   # a balanced sum: about log2(n) levels
        terms = [f"({' + '.join(terms[k:k + 2])})"
                 for k in range(0, len(terms), 2)]
    return _spec(names, terms[0])


def _long_chain(n: int) -> str:   # n terms of depth 3 nest n + 2 deep
    term = "(a * b - c / d + (a - b) * (c + d))"
    return _spec(["a", "b", "c", "d"], " + ".join([term] * n))


def _deep_parentheses(n: int) -> str:
    return _spec(["a", "b"], "(" * n + "a * b" + ")" * n + " + a")


# the chain nests 8 * 118 + 2 = 946 deep at 8n, within MAX_EXPR_DEPTH
SPEC_FAMILIES = [(_many_inputs, 400), (_long_chain, 118),
                 (_deep_parentheses, 20000)]


def _build(text: str) -> None:
    spec = parse_ci_spec(text)
    mapped = map_design(spec)
    design = build_design(spec, mapped)
    validate_structure(design)   # raises on a violation
    emit_vhdl(design)
    columns = random_vectors(random.Random(1), spec, 4)
    assert check_equivalence(spec, mapped, columns, design=design) == []


@pytest.mark.parametrize("family, n", SPEC_FAMILIES,
                         ids=[family.__name__[1:] for family, _ in SPEC_FAMILIES])
def test_building_is_linear(family, n):
    _assert_linear(_build, family(n), family(8 * n))
