"""Names the package binds and never reads, found in its source with `ast`.

A module-level import that its module never names, and a module-level
private name (`_x`) that no module of `xpay` names again, are what removed
code leaves behind. The package's `__init__.py` imports only to re-export,
so its imports are exempt.
"""
from __future__ import annotations

import ast
from pathlib import Path

import xpay

SRC = Path(xpay.__file__).parent
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}


def _read(tree: ast.AST) -> set[str]:
    """The names `tree` reads: loaded names, attribute names, and the names
    a `from` import takes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined(tree: ast.Module) -> list[str]:
    """The names a module binds at its top level by def, class or assignment."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                out.extend(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return out


def test_every_module_level_import_is_used():
    assert {"core", "simnet", "explore", "cli"} <= set(TREES)
    unused = []
    for module, tree in TREES.items():
        if module == "__init__":
            continue
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded:
                        unused.append(f"{module}: {bound}")
    assert not unused, unused


def test_every_private_module_level_name_is_named_again():
    read = set().union(*map(_read, TREES.values()))
    unread = [f"{module}: {name}" for module, tree in TREES.items()
              for name in _defined(tree) if _private(name) and name not in read]
    assert not unread, unread
