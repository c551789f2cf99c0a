"""No name in the package is there for the tests alone.

Every module-level function, class and constant of src/distdet must be used
somewhere in src/distdet apart from its own definition, unless it is public
API (`distdet.__all__`) or a module dunder the interpreter reads. A use is a
loaded name, an attribute, or a string constant equal to the name, which is
how a lookup by name such as getattr refers to it. Imports do not count, so a
name that is only imported and never used is flagged too.
"""

import ast
from pathlib import Path

import distdet

PACKAGE = Path(distdet.__file__).resolve().parent
EXEMPT = {"__all__", "__version__"} | set(distdet.__all__)


def _definitions(node: ast.stmt) -> list[str]:
    """The module-level names one top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [target.id for target in node.targets if isinstance(target, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _uses(statement: ast.stmt) -> set[str]:
    used = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_no_module_level_name_is_used_only_by_tests():
    statements = [
        (path.name, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    uses = [_uses(node) for _, node in statements]
    unused = [
        f"{module}:{name}"
        for i, (module, node) in enumerate(statements)
        for name in _definitions(node)
        if name not in EXEMPT and not any(name in used for j, used in enumerate(uses) if j != i)
    ]
    assert unused == []
