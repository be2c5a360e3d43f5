"""The README's Python quick tour runs, and the values its comments state hold."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
TOL = 1e-12


def _quick_tour() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def _stated_value(comment: str):
    """The value a trailing comment states: ``0.375``, ``("1p", "3p")`` or
    ``prob == 8/81`` (a name and an expression); None for prose."""
    name, _, expr = comment.partition(" == ")
    try:
        return (name, eval(expr, {})) if expr else (None, ast.literal_eval(comment))
    except (SyntaxError, ValueError, NameError):
        return None


def test_readme_quick_tour_states_true_values():
    source = _quick_tour()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
        _, hash_, comment = lines[stmt.end_lineno - 1].partition("  # ")
        stated = _stated_value(comment.strip()) if hash_ else None
        if stated is None:
            continue
        name, want = stated
        got = namespace[name] if name else value
        if isinstance(want, float):
            assert abs(got - want) < TOL, (comment, got)
        else:
            assert got == want, (comment, got)
        checked.append(comment.strip())
    assert checked == ["0.375", "0.9375", '("1p", "3p")', "1.0", '"certificate"', "prob == 8/81"]
