"""Every name a library module imports is read in that module.

Checked with the standard library's ``ast`` module alone.  ``__init__.py``
is left out: its imports are the package's re-exports.  A name counts as
read when it appears as a loaded ``ast.Name``, which includes the base of an
attribute (``np`` in ``np.ndarray``) and annotations, which
``from __future__ import annotations`` leaves in the tree as expressions.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "corrspace"


def unread_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name bound by an import of ``source`` and never read."""
    tree = ast.parse(source)
    bound: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for line, name in bound if name not in read)


def unread_in_package() -> list[str]:
    return [f"{path.name}:{line}: {name}"
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
            for line, name in unread_imports(path.read_text(encoding="utf-8"))]


def test_every_imported_name_is_read():
    assert unread_in_package() == []


def test_an_unread_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from dataclasses import dataclass, field\n"
              "import numpy as np\n"
              "def f(x: np.ndarray) -> None:\n"
              "    return dataclass\n")
    assert unread_imports(source) == [(2, "os"), (3, "field")]
