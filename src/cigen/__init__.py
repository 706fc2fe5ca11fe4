"""cigen: compile dataflow arithmetic specs into soft-core custom-instruction
VHDL, patch the calling C program, and prove bit-exactness in simulation.
A public name's home module is imported when the name is first read."""

__version__ = "0.1.0"

_HOMES = {name: home for home, names in (
    ("cpatch", "emit_header find_call_sites rewrite"),
    ("frontend", "CiSpec parse_ci_spec"),
    ("hdl", "build_design emit_vhdl validate_structure"),
    ("mapper", "MappedDesign done_cycle_enabled map_design"),
    ("metrics", "estimate_metrics"),
    ("sim", "Stimulus check_equivalence eval_reference simulate_ci"),
) for name in names.split()}

__all__ = [*sorted(_HOMES), "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = __import__(f"{__name__}.{_HOMES[name]}", fromlist=[name])
    return globals().setdefault(name, getattr(home, name))


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
