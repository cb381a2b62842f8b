import ast
import inspect
from pathlib import Path

import mbsdej


def test_public_callables_take_no_var_keyword():
    # a **kwargs parameter forwards options nothing checks or documents
    offenders = []
    for name in mbsdej.__all__:
        obj = getattr(mbsdej, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:   # exception classes with the builtin constructor
            continue
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params):
            offenders.append(name)
    assert offenders == []


def _file_writes(source: str) -> list:
    """Lines that call open(...), x.open(...) or json.dump(...), or import csv."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            call = ast.unparse(node.func)
            hit = call in ("open", "json.dump") or call.endswith(".open")
        elif isinstance(node, ast.Import):
            hit = any(alias.name == "csv" for alias in node.names)
        else:
            hit = isinstance(node, ast.ImportFrom) and node.module == "csv"
        if hit:
            found.append(node.lineno)
    return sorted(found)


def test_only_the_artifact_module_writes_files():
    # mbsdej.artifacts owns the CSV and JSON formats; a second writer would
    # let the formats drift apart
    offenders = {}
    for path in sorted(Path(mbsdej.__file__).parent.glob("*.py")):
        if path.name != "artifacts.py":
            lines = _file_writes(path.read_text())
            if lines:
                offenders[path.name] = lines
    assert offenders == {}
    assert _file_writes("import csv\nwith Path('x').open('w') as fh:\n"
                        "    json.dump({}, fh)\nopen('y')\n") == [1, 2, 3, 4]
