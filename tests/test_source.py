"""Checks on the package source itself."""

import ast
import importlib
import pkgutil
from pathlib import Path

import diffint


class _RandomUses(ast.NodeVisitor):
    """The enclosing function of every reference to numpy's or Python's
    random module, as "module.function" ("module" at module level)."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if node.attr == "random" and isinstance(node.value, ast.Name):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)

    def visit_Import(self, node):
        if any("random" in alias.name.split(".") for alias in node.names):
            self.found.append(".".join(self.scope))

    def visit_ImportFrom(self, node):
        names = (node.module or "").split(".") + [alias.name for alias in node.names]
        if "random" in names:
            self.found.append(".".join(self.scope))


def test_every_draw_comes_from_normals_and_every_export_resolves():
    uses = []
    for path in sorted(Path(diffint.__file__).parent.glob("*.py")):
        visitor = _RandomUses(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        uses += visitor.found
    assert uses and set(uses) == {"oracle.normals"}, uses
    for info in pkgutil.iter_modules(diffint.__path__):
        module = importlib.import_module(f"diffint.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)
