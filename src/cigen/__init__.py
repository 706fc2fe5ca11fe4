"""cigen: compile dataflow arithmetic specs into soft-core custom-instruction
VHDL, patch the calling C program, and prove bit-exactness in simulation."""

from .cpatch import emit_header, find_call_sites, rewrite
from .frontend import CiSpec, parse_ci_spec
from .hdl import build_design, emit_vhdl, validate_structure
from .mapper import MappedDesign, done_cycle_enabled, map_design
from .metrics import estimate_metrics
from .sim import Stimulus, check_equivalence, eval_reference, simulate_ci

__version__ = "0.1.0"

__all__ = [
    "CiSpec",
    "MappedDesign",
    "Stimulus",
    "build_design",
    "check_equivalence",
    "done_cycle_enabled",
    "emit_header",
    "emit_vhdl",
    "estimate_metrics",
    "eval_reference",
    "find_call_sites",
    "map_design",
    "parse_ci_spec",
    "rewrite",
    "simulate_ci",
    "validate_structure",
    "__version__",
]
