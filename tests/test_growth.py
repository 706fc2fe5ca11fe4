"""Growth rates of `patch`: each bound the docs state, pinned on the shapes
that would break it.

Each family builds a C source of size n and one of size 8n and patches
both with `rewrite`.  A linear stage takes about 8 times as long on the
larger one and a quadratic one about 64 times, so the test asserts a ratio
below 16.  Times are thread CPU times with the garbage collector off, the
least of three runs (the larger size stops at the first under the bound),
and the base sizes make the small run take tens of milliseconds, well above
the clock's noise.  After empirical computational complexity (Goldsmith,
Aiken and Wilkerson, FSE 2007).
"""

import gc
import time

import pytest

from conftest import MAC_TEXT
from cigen.cpatch import rewrite
from cigen.frontend import parse_ci_spec
from cigen.mapper import map_design

MAC = parse_ci_spec(MAC_TEXT)
MAC_MAPPED = map_design(MAC)
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


def _least_time(source: str, sites: int, enough: float = 0.0) -> float:
    """The least thread time of three rewrites of source, or the first one
    under enough."""
    best = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            start = time.thread_time()
            plan = rewrite(source, MAC, MAC_MAPPED)
            best = min(best, time.thread_time() - start)
            if best < enough:
                break
    finally:
        gc.enable()
    assert len(plan.sites) == sites
    return best


@pytest.mark.parametrize("family, n, sites", FAMILIES,
                         ids=[family.__name__[1:] for family, _, _ in FAMILIES])
def test_patching_is_linear(family, n, sites):
    small = _least_time(family(n), sites or n)
    large = _least_time(family(8 * n), sites or 8 * n, enough=16 * small)
    assert large < 16 * small, \
        f"{large / small:.1f} times the time for 8 times the size"
