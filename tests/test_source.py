"""Checks on the source text itself, not on what it computes."""

import ast
import importlib
import sys
from pathlib import Path

from geoaudit.classify import FilterReason

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


def _pair_shim_users(directory: str) -> list[str]:
    """file:definition for each top-level definition in directory that names
    run_plan, or an attribute measure or rtts, outside its own definition."""
    users = set()
    for path in sorted((ROOT / directory).glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Name) and node.id == "run_plan"
                        or isinstance(node, ast.alias) and node.name == "run_plan"
                        or isinstance(node, ast.Attribute)
                        and node.attr in ("run_plan", "measure", "rtts")):
                    users.add(f"{path.name}:{getattr(stmt, 'name', ast.unparse(stmt))}")
    return sorted(users)


def test_the_pair_by_pair_shims_serve_the_benchmark_alone():
    """Backend.measure, SyntheticWorld.rtts and run_plan measure pair by pair
    for the benchmark's replica and API stub. In src/ only run_plan calls one
    of them; in the tier-1 suite only the test that holds them to the audit's
    measure_targets path does. Deleting them takes nothing else along."""
    assert _pair_shim_users("src/geoaudit") == ["measure.py:run_plan"]
    assert _pair_shim_users("tests") == ["test_measure.py:test_every_backend_measures_a_plan_alike"]


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


def test_no_except_clause_names_attribute_error():
    """Bad input raises GeoAuditError where it is found, so an
    AttributeError is always a bug: no except clause in src/geoaudit
    catches it, and it leaves the command line with its traceback."""
    named = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "geoaudit").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ExceptHandler) and node.type is not None
             and "AttributeError" in _type_names(node.type)]
    assert named == []


def test_read_names_the_file_for_bad_input_alone():
    """cli._read turns exactly these into a GeoAuditError naming the file:
    bad input, a byte that is not UTF-8, a file that cannot be read or
    decompressed, and a CSV the csv module refuses. Anything else a loader
    raises is a bug."""
    tree = ast.parse((ROOT / "src" / "geoaudit" / "cli.py").read_text(encoding="utf-8"))
    read = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_read")
    handlers = [node for node in ast.walk(read) if isinstance(node, ast.ExceptHandler)]
    assert len(handlers) == 1
    caught = handlers[0].type.elts if isinstance(handlers[0].type, ast.Tuple) else [handlers[0].type]
    assert sorted(map(ast.unparse, caught)) == sorted(
        ["GeoAuditError", "OSError", "EOFError", "UnicodeDecodeError", "csv.Error", "zlib.error"])


def test_live_request_retries_a_failed_exchange_alone():
    """LiveBackend._request retries, or reports the backend unavailable,
    only for what a failed exchange raises; a bug in the session (a
    TypeError, say) leaves with its traceback."""
    tree = ast.parse((ROOT / "src" / "geoaudit" / "measure.py").read_text(encoding="utf-8"))
    backend = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "LiveBackend")
    request = next(node for node in backend.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_request")
    sends = [node for node in ast.walk(request) if isinstance(node, ast.Try)
             and "self.session.request" in ast.unparse(node.body[0])]
    assert len(sends) == 1 and len(sends[0].handlers) == 1
    names = _type_names(sends[0].handlers[0].type)
    assert not {"Exception", "BaseException"} & set(names)
    assert sorted(names) == ["HTTPException", "NeverConnected", "OSError"]


def test_live_request_reads_a_malformed_answer_alone():
    """LiveBackend._request turns only a GeoAuditError from parsing a 200
    answer into BackendUnavailable: the answer readers raise it where a
    value is not the documented shape, and a KeyError or TypeError from a
    bug in them leaves with its traceback."""
    tree = ast.parse((ROOT / "src" / "geoaudit" / "measure.py").read_text(encoding="utf-8"))
    backend = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "LiveBackend")
    request = next(node for node in backend.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_request")
    parses = [node for node in ast.walk(request) if isinstance(node, ast.Try)
              and any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "parse"
                      for stmt in node.body for call in ast.walk(stmt))]
    assert len(parses) == 1 and len(parses[0].handlers) == 1
    assert _type_names(parses[0].handlers[0].type) == ["GeoAuditError"]


def _imported_modules(tree) -> set[str]:
    """The top-level names of the modules an import statement in tree loads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_registry_imports_ipaddress():
    """registry.Addr and registry.Prefix are the one representation of an
    address and a prefix: ipaddress, which reads and prints them at the text
    edges, is imported by registry.py alone."""
    importing = [path.name for path in sorted((ROOT / "src" / "geoaudit").glob("*.py"))
                 if "ipaddress" in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))]
    assert importing == ["registry.py"]


def test_no_module_imports_dataclasses():
    """Records are NamedTuples and counters slotted classes: dataclasses, with
    the inspect and ast it imports, would cost every command ~10 ms to load
    and more to build its classes."""
    importing = [path.name for path in sorted((ROOT / "src" / "geoaudit").glob("*.py"))
                 if {"dataclasses", "inspect"} & _imported_modules(ast.parse(path.read_text(encoding="utf-8")))]
    assert importing == []


def _fallback_chain(stmt) -> list[ast.stmt] | None:
    """The import statements a fallback chain tries, in order: a try whose
    body is one import and whose one handler, except ImportError, is one more
    import or such a try; None for any other statement."""
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return [stmt]
    if not (isinstance(stmt, ast.Try) and len(stmt.body) == 1 and len(stmt.handlers) == 1
            and not stmt.orelse and not stmt.finalbody):
        return None
    handler = stmt.handlers[0]
    if getattr(handler.type, "id", None) != "ImportError" or len(handler.body) != 1:
        return None
    first, rest = _fallback_chain(stmt.body[0]), _fallback_chain(handler.body[0])
    return None if first is None or rest is None or len(first) != 1 else first + rest


def test_src_imports_only_the_standard_library():
    """geoaudit declares no dependency, so every absolute import in
    src/geoaudit is of a standard-library module. The dev extra installs
    requests and numpy, so an installed test run would not catch a stray
    import of either. A module this Python does not list (_sha2 before 3.12,
    _sha256 from 3.12) is allowed only as a try of a fallback chain whose
    last import is of a listed module."""
    third_party = []
    for path in sorted((ROOT / "src" / "geoaudit").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tried = set()  # the imports a chain ending in a listed module tries first
        for node in ast.walk(tree):
            chain = _fallback_chain(node) if isinstance(node, ast.Try) else None
            last = _imported_modules(chain[-1]) if chain else set()
            if last and last <= sys.stdlib_module_names:  # an absolute import of a listed module
                tried.update(map(id, chain[:-1]))
        third_party += [f"{path.name}: {name}" for node in ast.walk(tree)
                        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in tried
                        for name in sorted(_imported_modules(node))
                        if name not in sys.stdlib_module_names]
    assert third_party == []


def test_readme_names_every_record_flag_and_filter_reason():
    """Every flag src/geoaudit writes (a with_flag or flags.append argument,
    or an f-string's constant prefix) and every FilterReason value is named
    in backticks in README.md, so the record flags table keeps up."""
    names = [f"`{reason.value}`" for reason in FilterReason]
    for path in sorted((ROOT / "src" / "geoaudit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and ast.unparse(node.func).endswith(("with_flag", "flags.append"))):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant):
                names.append(f"`{arg.value}`")
            else:  # an f-string: its text up to the first placeholder
                names.append(f"`{arg.values[0].value}")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert len(names) > len(FilterReason) + 10
    assert sorted(name for name in names if name not in readme) == []


def _modules_where(found) -> list[str]:
    """The src/geoaudit modules with an AST node that found accepts."""
    return [path.name for path in sorted((ROOT / "src" / "geoaudit").glob("*.py"))
            if any(found(node) for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))]


def test_only_the_line_readers_know_the_comment_mark():
    """registry.read_tokens and registry.read_csv hold the one comment rule
    of list, RIB and CSV inputs, and whois keeps the RPSL dumps' own #/%
    rule: the string "#" appears in no other module, so no loader grows a
    comment rule of its own."""
    assert _modules_where(lambda node: isinstance(node, ast.Constant)
                          and node.value == "#") == ["registry.py", "whois.py"]


def test_the_winner_rule_for_a_shared_prefix_has_one_home():
    """registry.winners_by_prefix is the one rule for rows that share a
    prefix: duplicate_rank is named in registry.py alone, so no module keeps
    a ranking loop of its own, and the string "cross_rir_duplicate" appears
    in targets.py alone, where planning flags a winner after ranking."""
    names = ("id", "attr", "name")  # a Name, an Attribute, a def or an import
    assert _modules_where(lambda node: any(getattr(node, key, None) == "duplicate_rank"
                                           for key in names)) == ["registry.py"]
    assert _modules_where(lambda node: isinstance(node, ast.Constant)
                          and node.value == "cross_rir_duplicate") == ["targets.py"]


def test_a_broken_accounting_identity_is_reported_in_one_place():
    """cli._identity_broken is the one gate for every accounting identity:
    the text "accounting identity broken" appears in that function alone, so
    ingest, audit and any later identity report it, and exit 2, alike."""
    naming = [f"{path.name}:{getattr(stmt, 'name', None)}"
              for path in sorted((ROOT / "src" / "geoaudit").glob("*.py"))
              for stmt in ast.parse(path.read_text(encoding="utf-8")).body
              if any(isinstance(node, ast.Constant) and isinstance(node.value, str)
                     and "accounting identity broken" in node.value for node in ast.walk(stmt))]
    assert naming == ["cli.py:_identity_broken"]


def test_the_great_circle_formula_has_one_home():
    """geo.distance_from is the one haversine formula, which haversine_km,
    the per-vantage country tables and the simulator share: asin is named in
    geo.py alone, as a name, an attribute or an import, so no module keeps a
    copy of the formula of its own."""
    names = ("id", "attr", "name")
    assert _modules_where(lambda node: any(getattr(node, key, None) == "asin"
                                           for key in names)) == ["geo.py"]


# the codec error handlers that let a byte that is not UTF-8 through
_LENIENT = {"replace", "ignore", "surrogateescape", "surrogatepass", "backslashreplace",
            "xmlcharrefreplace", "namereplace"}


def test_only_the_dump_read_replaces_bytes():
    """Every input is strict UTF-8 but a WHOIS dump, whose RIPE exports are
    Latin-1: the string "replace" appears once, in cli.cmd_ingest's read of
    a dump, and no module names another lenient handler, so no reader grows
    a replacement of its own."""
    naming = [f"{path.name}:{getattr(stmt, 'name', None)}:{node.value}"
              for path in sorted((ROOT / "src" / "geoaudit").glob("*.py"))
              for stmt in ast.parse(path.read_text(encoding="utf-8")).body
              for node in ast.walk(stmt)
              if isinstance(node, ast.Constant) and node.value in _LENIENT]
    assert naming == ["cli.py:cmd_ingest:replace"]


def test_dates_are_read_by_one_grammar_without_strptime():
    """whois.parse_date reads every date spelling through its one compiled
    pattern: no file of the package, code or data, names strptime, so no
    fallback parser grows back beside it, and whois takes no date reader
    from registry."""
    naming = [path.relative_to(ROOT).as_posix()
              for path in sorted((ROOT / "src" / "geoaudit").rglob("*"))
              if path.is_file() and "__pycache__" not in path.parts and b"strptime" in path.read_bytes()]
    assert naming == []
    tree = ast.parse((ROOT / "src" / "geoaudit" / "whois.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "_date" not in imported
