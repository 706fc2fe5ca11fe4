"""Command line interface.

Four subcommands cover the toolchain: build compiles a spec into checked
artifacts, simulate runs one invocation cycle by cycle, patch rewrites a C
source to call the instruction, and report prints the latency and energy
estimates.  Exit codes: 0 on success, 1 for user errors (bad arguments,
unparsable specs or configs, unreadable or unwritable files, failed
matches, no memory left), 2 when an internal consistency check caught a bad
design before it reached disk.  A command builds its own parser alone
(help, usage and unknown-argument texts come from the full parser, as
pinned in tests/golden/cli/) and imports only its modules: report frontend,
mapper and metrics; patch those and cpatch; simulate frontend and sim (and
hdl); build all these and fuzz; -h none.  main binds a command's stage
names here through __getattr__, which keeps a name bound already, such as a
tracing wrapper.  BENCH_lazy_imports.json times each command's start-up.

While a command runs, CollectionPolicy raises the young generation's
collection threshold, then restores the caller's: its records die by
reference count, unwalked by the cyclic collector, so a build of the
960-term chain runs no collection.  _write_all writes each file to a new
temporary name, then renames each old plain file aside (for roll-back) and
the new one in, with the old one's mode bits; pipes, devices and links are
written through, last, and only they can be left part written.  A failure,
running out of memory included, puts every target back and removes the
temporaries and the directories made.  A plain file already holding the new
bytes is left untouched (same inode, mode and mtime: the "early cutoff" of
Mokhov, Mitchell and Peyton Jones, ICFP 2018): ninja's restat and make skip
its dependents, though make re-runs cigen while the spec is newer.  No
fsync: no power-loss safety.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import re
import stat
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import CigenError, InternalCheckError

if TYPE_CHECKING:
    from .frontend import CiSpec

# The most vectors build checks, so a count typed by mistake cannot run
# without end.
MAX_VECTORS = 1 << 20

_COMMANDS = {   # each command's help and the modules it calls
    "build": ("compile a spec into artifacts",
              "frontend mapper metrics hdl fuzz sim cpatch"),
    "simulate": ("run one invocation cycle by cycle", "frontend sim"),
    "patch": ("rewrite a C source to call the CI", "frontend mapper metrics cpatch"),
    "report": ("print latency and energy estimates", "frontend mapper metrics"),
}

# The names the commands call, by home module
_HOMES = {name: home for home, names in (
    ("frontend", "DEFAULT_INTRINSIC parse_ci_spec"),
    ("mapper", "done_cycle_enabled map_design"),
    ("metrics", "cost_table estimate_metrics"),
    ("hdl", "build_design emit_vhdl validate_structure"),
    ("fuzz", "random_vectors"),
    ("sim", "Stimulus check_equivalence simulate_ci"),
    ("cpatch", "emit_header header_conflict header_filename rewrite"),
) for name in names.split()}


def __getattr__(name: str):
    """name, bound here from its home module unless bound already (PEP 562)."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = __import__(f"{__package__}.{_HOMES[name]}", fromlist=[name])
    return globals().setdefault(name, getattr(home, name))


class _Parser(argparse.ArgumentParser):
    """argparse with user-error semantics (exit 1, not 2)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_text(path: str | Path, what: str, newline: str | None = None) -> str:
    try:
        with Path(path).open(newline=newline) as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CigenError(f"cannot read {what}: {exc}") from exc


def _free_name(path: Path, tag: str) -> Path:
    names = (path.with_name(f".{path.name}.{os.getpid()}.{n}.{tag}")
             for n in range(sys.maxsize))
    return next(name for name in names if not os.path.lexists(name))


def _write_all(files: list[tuple[Path, str]], inputs) -> None:
    """Write every file as the module docstring says, or none; refuse a
    directory, an input (None: not given) or a file named twice."""
    taken, fresh, through = {}, [], []   # (path, content, the target's stat or None)
    encoding = io.TextIOWrapper(io.BytesIO()).encoding   # open()'s, for text
    for path, content in [(Path(p), None) for p in inputs if p] + files:
        try:
            info = os.lstat(path)
        except OSError:   # nothing there yet, or no directory to hold it
            info = None
        plain = info is None or stat.S_ISREG(info.st_mode) and info.st_nlink == 1
        if not plain:   # follow a symlink; a dangling one stays as it is
            with contextlib.suppress(OSError):
                info = os.stat(path)
        key = (info.st_dev, info.st_ino) if info else path.absolute()
        if content is None:
            taken[key] = "an input"
        elif info and stat.S_ISDIR(info.st_mode):
            raise CigenError(f"cannot write {path}: it is a directory")
        elif key in taken:
            raise CigenError(f"cannot write {path}: it is {taken[key]}")
        else:
            taken[key] = "another output"
            data = content.encode(encoding)
            if plain and info and info.st_size == len(data):
                with contextlib.suppress(OSError), open(path, "rb") as handle:
                    if handle.read() == data:
                        continue   # it holds what open() would write: untouched
            (fresh if plain else through).append((path, content, info))
    temps, made, placed = [], [], []   # made: directories made here
    try:
        for path, content, info in fresh:
            if info is None and not path.parent.is_dir():
                for directory in reversed([d for d in (path.parent, *path.parent.parents)
                                           if not d.exists()]):
                    directory.mkdir()
                    made.append(directory)
            temps.append(_free_name(path, "tmp"))
            with open(temps[-1], "x") as handle:
                handle.write(content)
            if info:
                os.chmod(temps[-1], info.st_mode & 0o7777)
        for (path, _, info), temp in zip(fresh, temps):
            old = info and _free_name(path, "old")
            if old:
                os.rename(path, old)
            placed.append((path, old))
            os.rename(temp, path)
        for path, content, _ in through:
            with open(path, "w") as handle:
                handle.write(content)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        for path, old in placed:
            if old:
                os.rename(old, path)
            else:
                path.unlink(missing_ok=True)
        for directory in reversed(made):
            directory.rmdir()
        raise
    for _, old in placed:
        if old:
            os.unlink(old)


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


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members, refused when one key is named twice."""
    members = {}
    for key, value in pairs:
        if key in members:
            raise CigenError(f"config names the key {key!r} twice")
        members[key] = value
    return members


def _load_config(path: str | None, spec: CiSpec | None = None) -> dict:
    """The header intrinsic and the estimate_metrics keywords of a config
    file, all checked before any work but reading the spec; no key twice
    in one object; power and time JSON numbers, finite, >= 0.  Given the
    spec whose header a command writes, the intrinsic must be one that
    header can call."""
    config = {}
    if path is not None:
        try:
            config = json.loads(_read_text(path, "config"),
                                object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            # also an integer of over 4300 digits, or nesting too deep
            raise CigenError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise CigenError("config must be a JSON object")
    intrinsic = config.get("intrinsic", DEFAULT_INTRINSIC)
    if not isinstance(intrinsic, str) \
            or not re.fullmatch(r"[A-Za-z_]\w*", intrinsic, re.ASCII):
        raise CigenError(f"config intrinsic must be a C identifier, got {intrinsic!r}")
    if spec is not None:
        conflict = header_conflict(spec, intrinsic)
        if conflict:
            raise CigenError(f"config intrinsic {intrinsic!r} is {conflict}")
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
    try:
        return frozenset(int(part) for part in (text or "").split(",") if part.strip())
    except ValueError as exc:
        raise CigenError(f"bad cycle list '{text}'") from exc


def _cmd_build(args: argparse.Namespace) -> int:
    if not 1 <= args.vectors <= MAX_VECTORS:
        raise CigenError(f"--vectors must be between 1 and {MAX_VECTORS}, "
                         f"got {args.vectors}")
    spec = _load_spec(args.spec)
    config = _load_config(args.config, spec)
    print(f"[1/5] parse: {spec.name} (opcode {spec.opcode}, "
          f"{len(spec.inputs)} inputs)")

    mapped = map_design(spec)
    print(f"[2/5] map: {len(mapped.instances)} operations, "
          f"{mapped.analysis.max_level} levels, "
          f"done cycle {done_cycle_enabled(mapped)}")

    design = build_design(spec, mapped)
    validate_structure(design)
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
    _write_all([(out / name, content) for name, content in artifacts.items()],
               (args.spec, args.config))
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
    outcome = simulate_ci(spec, inputs, stimulus=stimulus,
                          record=args.trace is not None)
    if args.trace is not None:
        _write_all([(Path(args.trace), "".join(
            json.dumps(row) + "\n" for row in outcome.rows))], (args.spec,))
        print(f"trace: {len(outcome.rows)} rows -> {args.trace}")
    value = outcome.result
    print(f"result = {value.signed if spec.output.signed else value.unsigned} "
          f"(0x{value.bits:08X})")
    print(f"done cycle {outcome.done_cycle_enabled} "
          f"({outcome.done_cycle} with stalls), "
          f"{outcome.done_cycle_enabled + 1} enabled cycles total")
    return 0


def _cmd_patch(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    config = _load_config(args.config, spec)
    mapped = map_design(spec)
    source_path = Path(args.source)
    source = _read_text(source_path, "C source", newline="")   # its line ends kept

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


def _add_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    """Add command's arguments to its parser, standalone or a subparser."""
    if command == "build":
        parser.add_argument("spec", help="path to the .ci spec")
        parser.add_argument("-o", "--out", required=True, help="output directory")
        parser.add_argument("--vectors", type=int, default=256,
                            help="random vectors for the pre-write check "
                                 f"(1 to {MAX_VECTORS})")
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--config", help="JSON config (intrinsic, costs, power)")
        parser.set_defaults(func=_cmd_build)
    elif command == "simulate":
        parser.add_argument("spec")
        parser.add_argument("--inputs", required=True,
                            help="comma separated name=value pairs")
        parser.add_argument("--trace", help="write a JSONL trace here")
        parser.add_argument("--clk-en-gaps", help="cycles with clk_en low, e.g. 2,3")
        parser.add_argument("--reset-at", help="cycles with reset high")
        parser.add_argument("--start-cycle", type=int, default=0)
        parser.set_defaults(func=_cmd_simulate)
    elif command == "patch":
        parser.add_argument("spec")
        parser.add_argument("source", help="C file to patch")
        parser.add_argument("--in-place", action="store_true",
                            help="rewrite the file itself instead of writing "
                                 "a .ci.c copy beside it")
        parser.add_argument("--header-dir", help="where to write the header "
                                                 "(default: beside the source)")
        parser.add_argument("--config", help="JSON config (intrinsic spelling)")
        parser.set_defaults(func=_cmd_patch)
    else:   # report
        parser.add_argument("spec")
        parser.add_argument("--power", dest="power_mw", type=float, metavar="MW",
                            help="average power in milliwatts")
        parser.add_argument("--time", dest="time_ms", type=float, metavar="MS",
                            help="runtime in milliseconds")
        parser.add_argument("--json", action="store_true")
        parser.add_argument("--config", help="JSON config (costs, power, time)")
        parser.set_defaults(func=_cmd_report)


def build_parser() -> argparse.ArgumentParser:
    """The cigen parser with every subcommand."""
    parser = _Parser(prog="cigen",
                     description="Compile dataflow arithmetic specs into "
                                 "custom-instruction VHDL with a checked "
                                 "simulation model.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(command, help=summary), command)
    return parser


class CollectionPolicy:
    """The module docstring's collection policy; its exit allocates nothing."""

    def __enter__(self):
        self.saved = gc.get_threshold()
        gc.set_threshold(200_000)

    def __exit__(self, *exc):
        gc.set_threshold(*self.saved)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with CollectionPolicy():
        if argv and argv[0] in _COMMANDS:
            command = argv[0]
            parser = _Parser(prog=f"cigen {command}")
            _add_arguments(parser, command)
            args, extra = parser.parse_known_args(argv[1:])
            if extra:
                build_parser().parse_args(argv)   # exits with the full usage line
        else:   # help, usage, no command or an unknown one
            args = build_parser().parse_args(argv)
            command = args.command
        for name, home in _HOMES.items():   # a name bound already is kept
            if name not in globals() and home in _COMMANDS[command][1].split():
                __getattr__(name)
        try:
            return args.func(args)
        except (CigenError, OSError) as exc:
            print(f"cigen: error: {exc}", file=sys.stderr)
            return 1
        except MemoryError:   # _write_all has rolled back what it wrote
            print("cigen: error: out of memory; no files written", file=sys.stderr)
            return 1
        except InternalCheckError as exc:
            # every command checks before it writes
            print(f"cigen: internal check failed: {exc}; no artifacts written",
                  file=sys.stderr)
            return 2


if __name__ == "__main__":
    raise SystemExit(main())
