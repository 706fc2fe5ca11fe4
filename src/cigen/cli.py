"""Command line interface.

Four subcommands cover the toolchain: build compiles a spec into checked
artifacts, simulate runs one invocation cycle by cycle, patch rewrites a C
source to call the instruction, and report prints the latency and energy
estimates.  Exit codes: 0 on success, 1 for user errors (bad arguments,
unparsable specs or configs, unreadable or unwritable files, failed
matches), 2 when an internal consistency check caught a bad design before
it reached disk.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import shutil
import sys
from pathlib import Path

from .cpatch import DEFAULT_INTRINSIC, emit_header, header_filename, rewrite
from .errors import CigenError, InternalCheckError
from .frontend import CiSpec, parse_ci_spec
from .fuzz import random_vectors
from .hdl import build_design, emit_vhdl, validate_structure
from .mapper import MappedDesign, done_cycle_enabled, map_design
from .metrics import cost_table, estimate_metrics
from .sim import Stimulus, check_equivalence, simulate_ci

# The most vectors build checks, so a count typed by mistake cannot run
# without end.
MAX_VECTORS = 1 << 20


class _Parser(argparse.ArgumentParser):
    """argparse with user-error semantics (exit 1, not 2)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_text(path: str | Path, what: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CigenError(f"cannot read {what}: {exc}") from exc


def _file_id(path) -> object:
    """The file at path: its device and inode, or its absolute path if none."""
    try:
        info = os.stat(path)
    except OSError:
        return Path(path).absolute()
    return info.st_dev, info.st_ino


def _refuse_targets(paths, inputs) -> None:
    """Refuse, before anything is written, a target that is a directory, an
    input of the command (None for one not given) or another target."""
    taken = {_file_id(path): "an input" for path in inputs if path}
    for path in paths:
        if path.is_dir():
            raise CigenError(f"cannot write {path}: it is a directory")
        key = _file_id(path)
        if key in taken:
            raise CigenError(f"cannot write {path}: it is {taken[key]}")
        taken[key] = "another output"


def _write_all(files: list[tuple[Path, str]], inputs) -> None:
    """Write every file, or none when a write fails.

    What _refuse_targets refuses is refused first.  Each file is then
    written to a temporary name in its target's directory, and the targets
    are replaced only once every file is written; a replaced file keeps its
    permission bits."""
    _refuse_targets([path for path, _ in files], inputs)
    temps: list[Path] = []
    try:
        for path, content in files:
            path.parent.mkdir(parents=True, exist_ok=True)
            temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            temps.append(temp)
            temp.write_text(content)
            if path.exists():
                shutil.copymode(path, temp)
        for (path, _), temp in zip(files, temps):
            os.replace(temp, path)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def _load_spec(path: str) -> CiSpec:
    return parse_ci_spec(_read_text(path, "spec"))


def _non_negative(value, what: str) -> float:
    """value as a float, refused unless it is a finite number >= 0."""
    try:
        number = float(value)
    except OverflowError:   # an integer beyond the largest float
        number = math.inf if value > 0 else -math.inf
    except (TypeError, ValueError) as exc:
        raise CigenError(f"{what} must be a number") from exc
    if not 0 <= number < math.inf:
        raise CigenError(f"{what} must be finite and non-negative, got {number}")
    return number


def _load_config(path: str | None) -> dict:
    """The header intrinsic and the estimate_metrics keywords of a config
    file, all checked before any other work; power and time JSON numbers,
    finite, >= 0."""
    config = {}
    if path is not None:
        try:
            config = json.loads(_read_text(path, "config"))
        except (ValueError, RecursionError) as exc:
            # also an integer of over 4300 digits, or nesting too deep
            raise CigenError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise CigenError("config must be a JSON object")
    intrinsic = config.get("intrinsic", DEFAULT_INTRINSIC)
    if not isinstance(intrinsic, str) \
            or not re.fullmatch(r"[A-Za-z_]\w*", intrinsic, re.ASCII):
        raise CigenError(f"config intrinsic must be a C identifier, got {intrinsic!r}")
    metrics = {}
    if "costs" in config:
        if not isinstance(config["costs"], dict):
            raise CigenError("config costs must be a JSON object")
        metrics["costs"] = cost_table(config["costs"])
    for key in ("power_mw", "time_ms"):
        if key in config:
            if isinstance(config[key], (str, bool)):   # JSON numbers only
                raise CigenError(f"config {key} must be a number")
            metrics[key] = _non_negative(config[key], f"config {key}")
    return {"intrinsic": intrinsic, "metrics": metrics}


def _parse_inputs(text: str) -> dict[str, int]:
    values = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, eq, raw = part.partition("=")
        name = name.strip()
        if not eq:
            raise CigenError(f"bad input assignment '{part}', expected name=value")
        if name in values:
            raise CigenError(f"input '{name}' is given more than once")
        try:
            values[name] = int(raw.strip(), 0)
        except ValueError as exc:
            raise CigenError(f"bad value in '{part}'") from exc
    return values


def _parse_cycles(text: str | None) -> frozenset[int]:
    if not text:
        return frozenset()
    try:
        return frozenset(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise CigenError(f"bad cycle list '{text}'") from exc


def _cmd_build(args: argparse.Namespace) -> int:
    if not 1 <= args.vectors <= MAX_VECTORS:
        raise CigenError(f"--vectors must be between 1 and {MAX_VECTORS}, "
                         f"got {args.vectors}")
    config = _load_config(args.config)
    spec = _load_spec(args.spec)
    print(f"[1/5] parse: {spec.name} (opcode {spec.opcode}, "
          f"{len(spec.inputs)} inputs)")

    mapped = map_design(spec)
    print(f"[2/5] map: {len(mapped.instances)} operations, "
          f"{mapped.analysis.max_level} levels, "
          f"done cycle {done_cycle_enabled(mapped)}")

    design = build_design(spec, mapped)
    violations = validate_structure(design)
    if violations:
        lines = "; ".join(f"{v.rule}: {v.name} ({v.detail})"
                          for v in violations)
        raise InternalCheckError(f"generated design is malformed ({lines})")
    text = emit_vhdl(design)
    print(f"[3/5] hdl: {spec.name}.vhd ({text.count(chr(10))} lines), "
          "structure clean")

    rng = random.Random(args.seed)
    columns = random_vectors(rng, spec, args.vectors)
    mismatches = check_equivalence(spec, mapped, columns, design=design)
    if mismatches:
        raise InternalCheckError(
            f"simulation disagrees with the reference on "
            f"{len(mismatches)}/{args.vectors} vectors; first: {mismatches[0]}")
    print(f"[4/5] check: {args.vectors}/{args.vectors} vectors bit-exact")

    report = estimate_metrics(spec, mapped, **config["metrics"])
    artifacts = {
        f"{spec.name}.vhd": text,
        header_filename(spec): emit_header(spec, mapped, config["intrinsic"]),
        "report.json": json.dumps(report, indent=2) + "\n",
    }
    out = Path(args.out)
    _refuse_targets([out / name for name in artifacts], (args.spec, args.config))
    out.mkdir(parents=True, exist_ok=True)
    for name, content in artifacts.items():
        (out / name).write_text(content)
    print(f"[5/5] write: {' '.join(str(out / name) for name in artifacts)}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    inputs = _parse_inputs(args.inputs)
    stimulus = Stimulus(
        clk_en_low=_parse_cycles(args.clk_en_gaps),
        reset_cycles=_parse_cycles(args.reset_at),
        start_cycle=args.start_cycle)
    for flag, cycles in (("--clk-en-gaps", stimulus.clk_en_low),
                         ("--reset-at", stimulus.reset_cycles),
                         ("--start-cycle", {stimulus.start_cycle})):
        if min(cycles, default=0) < 0:
            raise CigenError(f"{flag}: cycle {min(cycles)} is negative")
    if args.trace is not None:
        _refuse_targets([Path(args.trace)], (args.spec,))
    outcome = simulate_ci(spec, inputs, stimulus=stimulus,
                          record=args.trace is not None)
    if args.trace is not None:
        with open(args.trace, "w") as handle:
            for row in outcome.rows:
                handle.write(json.dumps(row) + "\n")
        print(f"trace: {len(outcome.rows)} rows -> {args.trace}")
    value = outcome.result
    print(f"result = {value.signed if spec.output.signed else value.unsigned} "
          f"(0x{value.bits:08X})")
    print(f"done cycle {outcome.done_cycle_enabled} "
          f"({outcome.done_cycle} with stalls), "
          f"{outcome.done_cycle_enabled + 1} enabled cycles total")
    return 0


def _cmd_patch(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    spec = _load_spec(args.spec)
    mapped = map_design(spec)
    source_path = Path(args.source)
    source = _read_text(source_path, "C source")

    plan = rewrite(source, spec, mapped)
    header_dir = Path(args.header_dir) if args.header_dir else source_path.parent
    header_path = header_dir / header_filename(spec)
    out_path = source_path if args.in_place else source_path.with_suffix(".ci.c")
    # with --in-place the source is the output
    inputs = (args.spec, args.config, None if args.in_place else source_path)
    _write_all([(header_path, emit_header(spec, mapped, config["intrinsic"])),
                (out_path, plan.output)], inputs)
    print(f"patched {len(plan.sites)} call site(s) with {plan.replacement}")
    print(f"header: {header_path}")
    print(f"wrote {out_path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    kwargs = dict(config["metrics"])
    for key, flag in (("power_mw", "--power"), ("time_ms", "--time")):
        if getattr(args, key) is not None:
            kwargs[key] = _non_negative(getattr(args, key), flag)
    spec = _load_spec(args.spec)
    mapped = map_design(spec)
    d = estimate_metrics(spec, mapped, **kwargs)
    if args.json:
        print(json.dumps(d, indent=2))
        return 0
    print(f"{d['name']} (opcode {d['opcode']})")
    print(f"  operands:    {d['operands']} over {d['load_cycles']} load cycles")
    print(f"  operations:  {d['operations']} across {d['levels']} levels")
    print(f"  components:  " + (", ".join(
        f"{kind} x{count}" for kind, count in sorted(d["components"].items()))
        or "none"))
    print(f"  done cycle:  {d['done_cycle']}")
    print(f"  latency:     {d['ci_cycles']} cycles (software {d['sw_cycles']})")
    print(f"  speedup:     {d['speedup_estimate']:.3f}x")
    if "energy" in d:
        e = d["energy"]
        print(f"  energy:      E = {e['E']:.3f} uJ "
              f"({e['P']} mW x {e['T']} ms)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cigen",
                     description="Compile dataflow arithmetic specs into "
                                 "custom-instruction VHDL with a checked "
                                 "simulation model.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="compile a spec into artifacts")
    p_build.add_argument("spec", help="path to the .ci spec")
    p_build.add_argument("-o", "--out", required=True, help="output directory")
    p_build.add_argument("--vectors", type=int, default=256,
                         help="random vectors for the pre-write check "
                              f"(1 to {MAX_VECTORS})")
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("--config", help="JSON config (intrinsic, costs, power)")
    p_build.set_defaults(func=_cmd_build)

    p_sim = sub.add_parser("simulate", help="run one invocation cycle by cycle")
    p_sim.add_argument("spec")
    p_sim.add_argument("--inputs", required=True,
                       help="comma separated name=value pairs")
    p_sim.add_argument("--trace", help="write a JSONL trace here")
    p_sim.add_argument("--clk-en-gaps", help="cycles with clk_en low, e.g. 2,3")
    p_sim.add_argument("--reset-at", help="cycles with reset high")
    p_sim.add_argument("--start-cycle", type=int, default=0)
    p_sim.set_defaults(func=_cmd_simulate)

    p_patch = sub.add_parser("patch", help="rewrite a C source to call the CI")
    p_patch.add_argument("spec")
    p_patch.add_argument("source", help="C file to patch")
    p_patch.add_argument("--in-place", action="store_true",
                         help="rewrite the file itself instead of writing "
                              "a .ci.c copy beside it")
    p_patch.add_argument("--header-dir",
                         help="where to write the header (default: beside the source)")
    p_patch.add_argument("--config", help="JSON config (intrinsic spelling)")
    p_patch.set_defaults(func=_cmd_patch)

    p_report = sub.add_parser("report", help="print latency and energy estimates")
    p_report.add_argument("spec")
    p_report.add_argument("--power", dest="power_mw", type=float, metavar="MW",
                          help="average power in milliwatts")
    p_report.add_argument("--time", dest="time_ms", type=float, metavar="MS",
                          help="runtime in milliseconds")
    p_report.add_argument("--json", action="store_true")
    p_report.add_argument("--config", help="JSON config (costs, power, time)")
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CigenError, OSError) as exc:
        print(f"cigen: error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        # every command checks before it writes
        print(f"cigen: internal check failed: {exc}; no artifacts written",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
