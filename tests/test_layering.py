"""The package's layering, read from its source with `ast`.

A module of `xpay` imports, when it is loaded, only modules below it, so the
module-level imports between them form an acyclic graph (layering as in
Dijkstra's THE system, CACM 1968). An import inside a function binds late and
hides an edge from that graph; the one module allowed such imports is
`timing`, whose validator runs simulations from below the engine.
"""
from __future__ import annotations

import ast
from pathlib import Path

import xpay

SRC = Path(xpay.__file__).parent


def _relative_imports() -> dict[str, tuple[set[str], list[int]]]:
    """Per module of the package: the modules it imports at module level, and
    the lines of the relative imports it makes inside a function."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        top: set[str] = set()
        nested: list[int] = []

        def visit(node: ast.AST, in_function: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ImportFrom) and child.level > 0:
                    if in_function:
                        nested.append(child.lineno)
                    elif child.module:
                        top.add(child.module.split(".")[0])
                    else:
                        top.update(alias.name for alias in child.names)
                visit(child, in_function or isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

        visit(ast.parse(path.read_text(encoding="utf-8")), False)
        out[path.stem] = (top, nested)
    return out


def test_module_level_imports_form_layers():
    imports = _relative_imports()
    assert {"core", "timing", "simnet", "properties"} <= set(imports)
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]) -> None:
        assert module not in path, f"import cycle: {' -> '.join(path + (module,))}"
        if module in done:
            return
        for below in sorted(imports[module][0]):
            visit(below, path + (module,))
        done.add(module)

    for module in imports:
        visit(module, ())
    # the window algebra sits below the engine and the checkers
    assert "timing" in imports["simnet"][0] and "timing" in imports["properties"][0]


def test_only_the_timing_validator_imports_inside_a_function():
    late = {module: lines for module, (_, lines) in _relative_imports().items() if lines}
    assert set(late) <= {"timing"}, late
