"""Checks on the source text itself, not on what it computes."""

import ast
import importlib
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



def _type_names(node) -> list[str]:
    """The names in the type operand of an except clause or an isinstance."""
    types = node.elts if isinstance(node, ast.Tuple) else [node]
    return [t.id if isinstance(t, ast.Name) else getattr(t, "attr", "") for t in types]


def test_every_exception_class_is_caught_by_type():
    """An exception class defined in src/geoaudit is named by an except
    clause or an isinstance check in src/ or in the benchmark's modules; a
    class that nothing catches by type is one more spelling of
    GeoAuditError."""
    sources = sorted((ROOT / "src" / "geoaudit").glob("*.py"))
    defined: set[str] = set()
    for path in sources:
        module = importlib.import_module(
            "geoaudit" if path.stem == "__init__" else f"geoaudit.{path.stem}")
        defined.update(name for name, obj in vars(module).items()
                       if isinstance(obj, type) and issubclass(obj, BaseException)
                       and obj.__module__ == module.__name__)
    caught: set[str] = set()
    for path in sources + sorted((ROOT / "geobench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught.update(_type_names(node.type))
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                  and len(node.args) == 2):
                caught.update(_type_names(node.args[1]))
    assert {"GeoAuditError", "BackendUnavailable", "UnknownTarget"} <= defined
    assert sorted(defined - caught) == []
