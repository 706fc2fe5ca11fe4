"""The tool's records are NamedTuples and its kinds plain strings:
importing cigen builds no record methods from source, no module defines an
Enum, and records of two classes never compare equal.

Tuple equality ignores the class, so two records of one union that held
equal values would be taken for each other wherever the tool compares
them.  Within each union below, the members differ in arity or in the type
of one field; the test builds each member from the closest values those
types allow (True and 1 compare equal, as do a str and itself) and checks
that every pair still compares unequal."""

import enum
import importlib
import itertools
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from cigen import frontend, lpm
from cigen import vhdl_ast as ast
from cigen.hdl import build_design
from cigen.mapper import map_design
from cigen.metrics import DEFAULT_COSTS

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_builds_no_dataclasses():
    # the set before the import is taken in the same interpreter, so a
    # module that site preloads is not mistaken for one cigen pulls in
    code = ("import json, sys; before = set(sys.modules); import cigen.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, cwd=SRC,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    added = set(json.loads(done.stdout))
    assert "cigen.cli" in added
    assert not added & {"dataclasses", "inspect"}


# every operation: a signed and an unsigned flavour of each division
ALL_KINDS_TEXT = """\
ci k(opcode=1) {
  input a: signed<8>; input b: signed<8>;
  input c: unsigned<8>; input d: unsigned<8>;
  output y: signed<32>;
  y = (a + b) - (a * b) + (a / b) + (a % b) + (a mod b)
      + (c / d) + (c % d) + (c mod d);
}
"""


def test_kinds_are_plain_strings():
    modules = [importlib.import_module(f"cigen.{path.stem}")
               for path in sorted((SRC / "cigen").glob("*.py"))
               if path.stem != "__main__"]
    assert [f"{module.__name__}.{name}" for module in modules
            for name, value in vars(module).items()
            if isinstance(value, type) and issubclass(value, enum.Enum)
            and value.__module__ == module.__name__] == []
    # an operation's text is its cost-model key and its instances' label infix
    kinds = {value for name, value in vars(frontend.OpKind).items()
             if name.isupper()}
    assert kinds == set(DEFAULT_COSTS)
    spec = frontend.parse_ci_spec(ALL_KINDS_TEXT)
    mapped = map_design(spec)
    instances = build_design(spec, mapped).architecture.instances
    labels = [inst.label for inst in instances if inst.label.startswith("u_")]
    node_kinds = [spec.dfg.nodes[plan.node].kind for plan in mapped.instances]
    assert set(node_kinds) == kinds
    assert labels == [f"u_{kind}_{index}" for index, kind in enumerate(node_kinds)]


# The closest value of each field type: every int field holds 1 and every
# bool field True, which compare equal.
_CLOSEST = {
    "str": "a",
    "int": 1,
    "bool": True,
    "Expr": ast.Ref("a"),
    "OperandDecl": frontend.OperandDecl("a", True, 1),
    "ExprTree": frontend.Leaf("a"),
}

_UNIONS = {
    "vhdl_ast.Expr": ast.Expr,
    "lpm.LpmGenerics": lpm.LpmGenerics,
    "frontend.DfgNode": frontend.DfgNode,
    "frontend.ExprTree": frontend.ExprTree,
}

_PAIRS = [pytest.param(a, b, id=f"{union}:{a.__name__}-{b.__name__}")
          for union, members in _UNIONS.items()
          for a, b in itertools.combinations(typing.get_args(members), 2)]


def _closest(cls):
    # the annotations are the unevaluated names of the field types
    return cls(*(_CLOSEST[cls.__annotations__[name].__forward_arg__]
                 for name in cls._fields))


@pytest.mark.parametrize("first,second", _PAIRS)
def test_members_of_one_union_compare_unequal(first, second):
    a, b = _closest(first), _closest(second)
    assert type(a) is first and type(b) is second
    assert a != b and b != a
