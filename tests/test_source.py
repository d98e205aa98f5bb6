"""Checks on the source text itself, not on what it computes."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_top_level_definition_is_used_outside_itself():
    """A module-level function or class in src/geoaudit is referenced by name
    in src/ or in the benchmark's modules, outside its own definition; one
    that only tests reach is test-only code."""
    sources = sorted((ROOT / "src" / "geoaudit").glob("*.py"))
    defined: dict[str, str] = {}  # name -> module
    used: set[str] = set()
    for path in sources + sorted((ROOT / "geobench").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)  # a def or class, or None
            if own and path in sources:
                defined[own] = path.stem
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name and name != own:
                    used.add(name)
    assert defined
    assert sorted(f"{module}.{name}" for name, module in defined.items() if name not in used) == []
