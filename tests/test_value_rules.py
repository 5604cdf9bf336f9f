"""The three rules on input values are stated in `core` alone, read from the
package's source with `ast`.

A count, an exact quantity > 0 and an exact quantity >= 0 each have one
helper in `core` and one wording. A module that raises one of those wordings
itself has written the rule again, and a copy can drift from it: the copies
that skipped the bool test let True in as the count 1.
"""
from __future__ import annotations

import ast
from pathlib import Path

import xpay

SRC = Path(xpay.__file__).parent
RULE_WORDINGS = (" must be an integer", " must be at least 1", " must be strictly positive",
                 " must be non-negative")


def _raised_wordings(path: Path) -> list[tuple[int, str]]:
    """(line, wording) for each rule wording in a string a `raise` builds."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        for part in ast.walk(node.exc):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                found += [(node.lineno, w) for w in RULE_WORDINGS if w in part.value]
    return found


def test_only_core_raises_the_value_rule_wordings():
    assert {w for _, w in _raised_wordings(SRC / "core.py")} == set(RULE_WORDINGS)
    copies = [f"{path.name}:{line}: {wording.strip()}"
              for path in sorted(SRC.glob("*.py")) if path.name != "core.py"
              for line, wording in _raised_wordings(path)]
    assert not copies, copies
