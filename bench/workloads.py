"""The benchmark's three workloads: their inputs, operations and checks.

Each workload writes its inputs (``.ci`` specs and ``.c`` sources) into a
work directory and returns a list of operations.  An operation is one
``cigen`` command line, run in-process through ``cigen.cli.main``, plus a
check that decides from the exit code, the printed text and the written
files whether the command's output is right.  Checks never trust the code
under test for the expected answer: build artifacts of ``f`` are compared
with the golden files, ``simulate`` results with ``eval_reference`` (the
independent oracle), done cycles with the latency formula recomputed here
from the expression tree, and patch outputs with a copy patched by
construction.
"""

from __future__ import annotations

import random
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import cigen.fuzz
from cigen.errors import DivideByZero
from cigen.frontend import BinOp, CiSpec, Leaf, parse_ci_spec
from cigen.fuzz import FuzzConfig, random_spec, random_vector, random_vectors
from cigen.sim import eval_reference

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"


class CheckFailed(Exception):
    """An operation's output disagrees with what the benchmark expected."""


@dataclass
class Op:
    """One CLI invocation of a workload.

    ``before`` runs untimed ahead of each invocation (patch-c uses it to
    restore a fresh copy of the source).  ``check`` raises CheckFailed on a
    wrong output and otherwise returns the facts the metrics are built
    from.  ``outputs`` are digested after every run for the determinism
    check.
    """
    kind: str
    label: str
    argv: list[str]
    check: Callable[[object, str, str], dict]
    outputs: list[Path] = field(default_factory=list)
    before: Callable[[], None] | None = None


def _expect_exit(rc: object, want: int, err: str) -> None:
    if rc != want:
        tail = err.strip().splitlines()[-1:] or ["(no message)"]
        raise CheckFailed(f"exit {rc!r}, expected {want}: {tail[0]}")


def _latency(spec: CiSpec) -> int:
    """Scheduled done cycle, ceil(k/2) + max(M, 1) - 1, from the expression
    tree: k distinct operands and an operation depth of M."""
    names: set[str] = set()

    def depth(expr) -> int:
        if isinstance(expr, Leaf):
            names.add(expr.name)
            return 0
        assert isinstance(expr, BinOp)
        return 1 + max(depth(expr.left), depth(expr.right))

    levels = depth(spec.expr)
    return (len(names) + 1) // 2 + max(levels, 1) - 1


_DONE_RE = re.compile(r"^\[2/5\] map: .*done cycle (\d+)$", re.M)
_CHECK_RE = re.compile(r"^\[4/5\] check: (\d+)/(\d+) vectors bit-exact$", re.M)


def _build_op(label: str, spec_path: Path, text: str, out_dir: Path,
              vectors: int, seed: int, golden: bool = False) -> Op:
    spec = parse_ci_spec(text)
    want_done = _latency(spec)
    vhd = out_dir / f"{spec.name}.vhd"
    outputs = [vhd, out_dir / f"ci_{spec.name}.h", out_dir / "report.json"]

    def check(rc: object, out: str, err: str) -> dict:
        _expect_exit(rc, 0, err)
        done = _DONE_RE.search(out)
        if done is None or int(done.group(1)) != want_done:
            raise CheckFailed(f"done cycle {done and done.group(1)}, "
                              f"expected {want_done}")
        checked = _CHECK_RE.search(out)
        if checked is None or checked.groups() != (str(vectors), str(vectors)):
            raise CheckFailed("check line missing or not all vectors exact")
        if golden:
            for path in outputs:
                if path.read_bytes() != (GOLDEN_DIR / path.name).read_bytes():
                    raise CheckFailed(f"{path.name} differs from the golden file")
        return {"done_cycle": want_done, "vhdl_bytes": vhd.stat().st_size,
                "vectors": vectors}

    return Op("build", label,
              ["build", str(spec_path), "-o", str(out_dir),
               "--vectors", str(vectors), "--seed", str(seed)],
              check, outputs)


_RESULT_RE = re.compile(r"^result = (-?\d+) \(0x([0-9A-F]{8})\)$", re.M)
_SIM_DONE_RE = re.compile(r"^done cycle (\d+) \(\d+ with stalls\)", re.M)
_ROWS_RE = re.compile(r"^trace: (\d+) rows ->", re.M)


def _simulate_op(label: str, spec_path: Path, text: str, trace_path: Path,
                 rng: random.Random) -> Op:
    spec = parse_ci_spec(text)
    vector = random_vector(rng, spec)
    try:
        want: int | None = eval_reference(spec, vector).bits
    except DivideByZero:
        want = None
    want_done = _latency(spec)
    gaps = sorted(rng.sample(range(1, want_done + 4), 2))
    reset = rng.randrange(1, 4)

    def check(rc: object, out: str, err: str) -> dict:
        if want is None:
            _expect_exit(rc, 1, err)
            if "zero divisor" not in err:
                raise CheckFailed("exit 1 without a divide-by-zero message")
            return {"divide_by_zero": True}
        _expect_exit(rc, 0, err)
        result = _RESULT_RE.search(out)
        if result is None or int(result.group(2), 16) != want:
            raise CheckFailed(f"result {result and result.group(2)}, "
                              f"reference 0x{want:08X}")
        done = _SIM_DONE_RE.search(out)
        if done is None or int(done.group(1)) != want_done:
            raise CheckFailed(f"done cycle {done and done.group(1)}, "
                              f"expected {want_done}")
        rows = _ROWS_RE.search(out)
        if rows is None or int(rows.group(1)) != \
                trace_path.read_text().count("\n"):
            raise CheckFailed("trace row count differs from the trace file")
        return {"divide_by_zero": False}

    inputs = ",".join(f"{name}={value}" for name, value in vector.items())
    return Op("simulate", label,
              ["simulate", str(spec_path), "--inputs", inputs,
               "--trace", str(trace_path),
               "--clk-en-gaps", ",".join(map(str, gaps)),
               "--reset-at", str(reset)],
              check, [trace_path])


# --- fuzz-build ----------------------------------------------------------------

# The acceptance test's corpus: its generator settings and seed.  The spec
# corpus is pinned so every run builds the same designs; the run's seed
# draws the check vectors, the simulated vector and its stimulus.
FUZZ_CONFIG = FuzzConfig(max_inputs=6, max_depth=6, widths=(4, 8, 16, 32))
FUZZ_CORPUS_SEED = 20260814
FUZZ_SPECS = 100
FUZZ_VECTORS = 256

# The narrow flavour of the worked example (tests/conftest.py): one
# widening adapter and a truncating output path.
NARROW_TEXT = """\
ci g(opcode=1) {
  input a: signed<8>;
  input b: signed<8>;
  input c: signed<8>;
  output y: signed<16>;
  y = (a * b) + c;
}
"""


def fuzz_texts(count: int, seed: int) -> list[str]:
    """DSL text of the first ``count`` specs of the acceptance corpus.

    ``random_spec`` builds text and parses it; the text is captured at its
    parse call.  The acceptance test draws 200 vectors after each spec from
    the same generator, so they are drawn here too to keep the specs equal.
    """
    texts: list[str] = []

    def capture(text: str) -> CiSpec:
        texts.append(text)
        return parse_ci_spec(text)

    rng = random.Random(seed)
    cigen.fuzz.parse_ci_spec = capture
    try:
        for index in range(count):
            spec = random_spec(rng, f"fz{index}", FUZZ_CONFIG)
            random_vectors(rng, spec, 200)
    finally:
        cigen.fuzz.parse_ci_spec = parse_ci_spec
    return texts


def fuzz_build(work: Path, seed: int) -> list[Op]:
    rng = random.Random(seed)
    texts = [("f", (GOLDEN_DIR / "f.ci").read_text()), ("g", NARROW_TEXT)]
    texts += [(f"fz{i}", text)
              for i, text in enumerate(fuzz_texts(FUZZ_SPECS, FUZZ_CORPUS_SEED))]
    ops = []
    for name, text in texts:
        spec_path = work / f"{name}.ci"
        spec_path.write_text(text)
        ops.append(_build_op(f"build {name}", spec_path, text, work / name,
                             FUZZ_VECTORS, rng.randrange(1 << 30),
                             golden=name == "f"))
        ops.append(_simulate_op(f"simulate {name}", spec_path, text,
                                work / f"{name}.trace.jsonl", rng))
    return ops


# --- wide-build ----------------------------------------------------------------

WIDE_TAPS = (64, 128)
# The longest chain `python -m cigen build` takes is 988 terms: deeper ones
# overflow the default recursion limit in eval_reference.  960 leaves room
# for the frames this harness and its span wrappers add.
WIDE_CHAIN_TERMS = 960
WIDE_VECTORS = 4
WIDE_SPEC_SEED = 1


def _decl(name: str, rng: random.Random, widths: tuple[int, ...]) -> str:
    sign = rng.choice(("signed", "unsigned"))
    return f"  input {name}: {sign}<{rng.choice(widths)}>;"


def _spec_text(name: str, decls: list[str], body: str) -> str:
    return "\n".join([f"ci {name}(opcode=2) {{", *decls,
                      "  output y: signed<32>;", f"  y = {body};", "}"]) + "\n"


def sum_of_products(name: str, taps: int, tree: bool,
                    rng: random.Random) -> str:
    """``x0*h0 + x1*h1 + ...`` over operands of mixed width and signedness,
    summed as a left-leaning chain or as a balanced tree."""
    decls = [_decl(f"{v}{i}", rng, (8, 12, 16))
             for i in range(taps) for v in "xh"]
    products = [f"(x{i} * h{i})" for i in range(taps)]

    def balanced(terms: list[str]) -> str:
        if len(terms) == 1:
            return terms[0]
        mid = len(terms) // 2
        return f"({balanced(terms[:mid])} + {balanced(terms[mid:])})"

    body = balanced(products) if tree else " + ".join(products)
    return _spec_text(name, decls, body)


def add_chain(name: str, terms: int, rng: random.Random) -> str:
    decls = [_decl(f"a{i}", rng, (8, 16, 32)) for i in range(terms)]
    return _spec_text(name, decls, " + ".join(f"a{i}" for i in range(terms)))


def wide_build(work: Path, seed: int) -> list[Op]:
    # Like the fuzz corpus, the designs are pinned; the seed draws the
    # check vectors.
    spec_rng, rng = random.Random(WIDE_SPEC_SEED), random.Random(seed)
    texts = []
    for taps in WIDE_TAPS:
        for shape, tree in (("c", False), ("t", True)):
            name = f"sop{taps}{shape}"
            texts.append((name, sum_of_products(name, taps, tree, spec_rng)))
    name = f"add{WIDE_CHAIN_TERMS}"
    texts.append((name, add_chain(name, WIDE_CHAIN_TERMS, spec_rng)))
    ops = []
    for name, text in texts:
        spec_path = work / f"{name}.ci"
        spec_path.write_text(text)
        ops.append(_build_op(f"build {name}", spec_path, text, work / name,
                             WIDE_VECTORS, rng.randrange(1 << 30)))
    return ops


# --- patch-c -------------------------------------------------------------------

# Statement bodies of the repeating unit, each with the number of call
# sites the patcher must find in it.  The first is the plain match; the
# others put the pattern where a guard must keep it, or vary it where it
# must still be found.  ``{id}`` is a seeded four-digit hex tag.
MATCH_BODY = ("return a * b + c;", 1)
VARIANT_BODIES = (
    ("return (a * b) + c;", 1),
    ("r_{id} = (a * b + c);\n    return r_{id};", 1),
    ("return g_{id}(a * b + c);", 1),
    ("return a * b + c - k_{id};", 1),
    ("/* a * b + c */ return 0;", 0),
    ("// a * b + c\n    return 0;", 0),
    ("return n_{id}(\"a * b + c\");", 0),
    ("return x_{id} * a * b + c;", 0),
    ("return -a * b + c;", 0),
    ("return (int) a * b + c;", 0),
    ("return s_{id}.a * b + c;", 0),
    ("return p_{id}->a * b + c;", 0),
    ("return sizeof a * b + c;", 0),
    ("return a * b + c(1);", 0),
    ("return a * b + c[1];", 0),
    ("return a * b + c->n;", 0),
    ("return a * b + c++;", 0),
    ("return a * b + c * d_{id};", 0),
)
# A directive holding the pattern, planted once per unit.
DIRECTIVE = "#define M_{id}(a, b, c) (a * b + c)"
PATCH_SIZES_KIB = (30, 45, 60)
LONG_LINE_TERMS = 300
REPLACEMENT = "CI_F(a, b, c)"
INCLUDE_LINE = '#include "ci_f.h"'


def c_source(size_kib: int, long_terms: int,
             rng: random.Random) -> tuple[str, str, int]:
    """A C file of about ``size_kib`` KiB: the source, its expected patched
    text and the number of call sites planted in it.

    Units alternate between the plain match and the variants, which the
    seed shuffles; tags have a fixed length, so sizes and token counts
    barely depend on the seed.
    """
    source: list[str] = []
    patched: list[str] = []
    sites = 0
    variants: list[tuple[str, int]] = []
    size = 0
    while size < size_kib * 1024:
        if not variants:
            variants = list(VARIANT_BODIES)
            rng.shuffle(variants)
        body, count = variants.pop() if len(source) % 2 else MATCH_BODY
        tag = f"{rng.randrange(1 << 16):04x}"
        head = (f'#include "m_{tag}.h"\n' + DIRECTIVE.format(id=tag) + "\n"
                f"static int f_{tag}(int a, int b, int c)\n{{\n    ")
        tail = "\n}\n\n"
        body = body.format(id=tag)
        source.append(head + body + tail)
        patched.append(head + _patch_by_hand(body, count) + tail)
        sites += count
        size += len(source[-1])
    if long_terms:
        terms = " + ".join(f"t{i} * u{i}" for i in range(long_terms))
        line = "int long_sum(void)\n{{\n    return {} + {};\n}}\n"
        source.append(line.format("a * b + c", terms))
        patched.append(line.format(REPLACEMENT, terms))
        sites += 1
    # The patcher adds its include after the last #include line, which
    # opens the last unit.
    text = "".join(patched)
    last = text.rfind('#include "m_')
    end = text.index("\n", last) + 1
    return "".join(source), text[:end] + INCLUDE_LINE + "\n" + text[end:], sites


def _patch_by_hand(body: str, count: int) -> str:
    if count == 0:
        return body
    if "(a * b + c)" in body and not body.startswith("return g_"):
        return body.replace("(a * b + c)", REPLACEMENT)
    if "(a * b) + c" in body:
        return body.replace("(a * b) + c", REPLACEMENT)
    return body.replace("a * b + c", REPLACEMENT)


_PATCHED_RE = re.compile(r"^patched (\d+) call site\(s\) with CI_F\(a, b, c\)$", re.M)


def _patch_op(label: str, spec_path: Path, c_path: Path, original: str,
              expected: str, sites: int) -> Op:
    out_path = c_path.with_suffix(".ci.c")
    header = c_path.parent / "ci_f.h"

    def before() -> None:
        c_path.write_text(original)
        out_path.unlink(missing_ok=True)

    def check(rc: object, out: str, err: str) -> dict:
        _expect_exit(rc, 0, err)
        found = _PATCHED_RE.search(out)
        if found is None or int(found.group(1)) != sites:
            raise CheckFailed(f"patched {found and found.group(1)} sites, "
                              f"planted {sites}")
        text = out_path.read_text()
        includes = sum(line == INCLUDE_LINE for line in text.splitlines())
        if includes != 1:
            raise CheckFailed(f"the include appears {includes} times")
        if text != expected:
            raise CheckFailed("patched source differs from the expected text")
        return {"kib": len(original.encode()) / 1024, "sites": sites}

    return Op("patch", label, ["patch", str(spec_path), str(c_path)],
              check, [out_path, header], before)


def patch_c(work: Path, seed: int) -> list[Op]:
    rng = random.Random(seed)
    spec_path = work / "f.ci"
    shutil.copyfile(GOLDEN_DIR / "f.ci", spec_path)
    ops = []
    for index, size in enumerate(PATCH_SIZES_KIB):
        original, expected, sites = c_source(
            size, LONG_LINE_TERMS if index == 0 else 0, rng)
        c_path = work / f"prog{size}k.c"
        c_path.write_text(original)
        ops.append(_patch_op(f"patch prog{size}k.c", spec_path, c_path,
                             original, expected, sites))
    return ops


# The operations of each workload; the first one's kind is the workload's
# primary command.
PREPARE = {"fuzz-build": fuzz_build, "wide-build": wide_build,
           "patch-c": patch_c}
