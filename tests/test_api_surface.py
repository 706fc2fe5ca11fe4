"""The package ships no test-only API.

Every function, method and class defined in ``src/cigen``, every name a
module assigns at its top level and every field a class body declares
(dunder names aside) must be referenced by name in ``src/cigen`` outside
its own definition, or in ``bench/*.py``.  A name that only the tests
reach belongs in the tests.  A method or a field counts as referenced only
through an attribute (``x.name``) or a string naming it, so a local
variable that happens to share its name does not hide it; a method that
overrides one of a base class (``argparse.ArgumentParser.error``, say) is
referenced by that base.

The check goes by name alone, not by type: a field is taken as read when
any attribute of that name is read anywhere.  It could not have seen that
nothing read ``CTokens.line``, say, because the spec parser's tokens had
a ``line`` that the parser read.

A narrower rule holds for the design record, because the build checks it
before it writes it: every field of a ``vhdl_ast`` record that
``HdlDesign`` reaches must be read by the checks, ``sim.py`` or
``hdl.validate_structure``, the header comment alone excepted.  A field
only ``emit_vhdl`` printed could make the written VHDL differ from the
checked design.  There a record unpacked into names counts as read under
those names.
"""

import ast
import importlib
import typing
from pathlib import Path

from cigen import lpm, vhdl_ast

ROOT = Path(__file__).resolve().parent.parent
SRC_FILES = sorted((ROOT / "src" / "cigen").glob("*.py"))
BENCH_FILES = sorted((ROOT / "bench").glob("*.py"))


def _assigned(body: list[ast.stmt], owner: str | None):
    """(name, node, owner) for every name a statement of body assigns,
    alone or in a tuple, whose node is its assignment."""
    return [(name.id, node, owner) for node in body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            for name in (target.elts if isinstance(target, ast.Tuple)
                         else [target])
            if isinstance(name, ast.Name)]


def _definitions(tree: ast.Module):
    """(name, node, owning class name or None) for every def and class,
    nested ones too, every name assigned at module level and every field
    of a class body, whose node is its assignment."""
    found = _assigned(tree.body, None)

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                found.append((child.name, child, owner))
            if isinstance(child, ast.ClassDef):
                found.extend(_assigned(child.body, child.name))
            visit(child, child.name if isinstance(child, ast.ClassDef) else None)
    visit(tree, None)
    return found


def _overrides(module: str, owner: str, name: str) -> bool:
    cls = getattr(importlib.import_module(f"cigen.{module}"), owner)
    return any(name in vars(base) for base in cls.__mro__[1:])


def _references(tree: ast.Module) -> list[tuple[str, int, bool]]:
    """(name, line, is_attribute_or_string) for every name the module reads:
    bare names, attribute names, imported names and identifier strings."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno, False))
        elif isinstance(node, ast.alias):
            refs.append((node.name.rsplit(".", 1)[-1], node.lineno, False))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno, True))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            refs.append((node.value, node.lineno, True))
    return refs


def _unreferenced() -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in SRC_FILES + BENCH_FILES}
    refs = {path: _references(tree) for path, tree in trees.items()}
    unused = []
    for path in SRC_FILES:
        for name, node, owner in _definitions(trees[path]):
            is_member = owner is not None
            if name.startswith("__") or \
                    is_member and _overrides(path.stem, owner, name):
                continue
            first = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])])

            def outside(ref_path: Path, line: int) -> bool:
                return ref_path != path or not first <= line <= node.end_lineno
            if not any(ref == name and (by_attribute or not is_member)
                       and outside(ref_path, line)
                       for ref_path, file_refs in refs.items()
                       for ref, line, by_attribute in file_refs):
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_every_definition_is_used_outside_the_tests():
    assert _unreferenced() == []


def _unused_imports(path: Path) -> list[str]:
    """Each name an import statement of the module at path binds that no
    bare name of the module reads (``from __future__`` aside)."""
    tree = ast.parse(path.read_text(), str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{node.lineno} {bound}" for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (bound := alias.asname or alias.name.split(".")[0]) not in read]


def test_every_import_is_read():
    assert [name for path in SRC_FILES for name in _unused_imports(path)] == []


def _design_fields() -> list[tuple[str, str]]:
    """(record, field) for every field of a vhdl_ast record that HdlDesign
    reaches through the annotations of its fields."""
    def records(hint):
        if isinstance(hint, type) and hint.__module__ == vhdl_ast.__name__:
            yield hint
        for arg in typing.get_args(hint):
            yield from records(arg)

    seen, fields, todo = set(), [], [vhdl_ast.HdlDesign]
    while todo:
        record = todo.pop()
        if record in seen:
            continue
        seen.add(record)
        hints = typing.get_type_hints(
            record, localns={"LpmGenerics": lpm.LpmGenerics})
        for name, hint in hints.items():
            fields.append((record.__name__, name))
            todo.extend(records(hint))
    return fields


def _checked_names() -> set[str]:
    """The attribute names sim.py and hdl.validate_structure read, and the
    names they bind by unpacking."""
    sim = ast.parse((ROOT / "src" / "cigen" / "sim.py").read_text())
    hdl = ast.parse((ROOT / "src" / "cigen" / "hdl.py").read_text())
    validate = next(node for node in hdl.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "validate_structure")
    names = set()
    for tree in (sim, validate):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Store):
                names.update(elt.id for elt in node.elts
                             if isinstance(elt, ast.Name))
    return names


def test_every_design_field_is_checked():
    checked = _checked_names()
    assert [f"{record}.{name}" for record, name in _design_fields()
            if name not in checked and name != "header_comment"] == []
