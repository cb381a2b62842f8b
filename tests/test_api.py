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


def _boundary_readers(source: str) -> list:
    """Qualified names of the functions that call x.boundary(...)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif (isinstance(child, ast.Call)
                  and isinstance(child.func, ast.Attribute)
                  and child.func.attr == "boundary"):
                found.append(scope or "<module>")
            visit(child, inner)

    visit(ast.parse(source), "")
    return sorted(found)


def test_only_barriers_reads_the_boundary():
    # a_t has one reader, so every caller sees it through barriers(), and
    # whether it is attained through the declared ``closed``
    readers = {}
    for path in sorted(Path(mbsdej.__file__).parent.glob("*.py")):
        names = _boundary_readers(path.read_text())
        if names:
            readers[path.name] = names
    assert readers == {"monotone.py": ["MonotoneFamily.barriers"]}
    assert _boundary_readers("def f(fam):\n    return fam.boundary(0.0)\n"
                             "class C:\n    def g(self):\n"
                             "        return [self.boundary(t) for t in ()]\n"
                             "x = y.boundary(1)\n") == ["<module>", "C.g", "f"]


def _double_declarations(source: str) -> list:
    """Lines of the calls that pass ``pieces=`` together with ``body=`` or
    ``left_body=``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            names = {kw.arg for kw in node.keywords}
            if "pieces" in names and names & {"body", "left_body"}:
                found.append(node.lineno)
    return found


def test_registry_families_are_described_once():
    # a family with pieces is built from them (MonotoneFamily.piecewise);
    # a hand-written body beside them is a second description of k
    path = Path(mbsdej.__file__).parent / "registry.py"
    assert _double_declarations(path.read_text()) == []
    assert _double_declarations(
        "MonotoneFamily(body=f, pieces=p)\nMonotoneFamily.piecewise(p, a)\n"
        "f(left_body=g,\n  pieces=p)\nf(body=g)\n") == [1, 3]


_LEAF_FIELDS = ("Y", "Z", "psi", "K")


def _leaf_view_readers(source: str) -> list:
    """Qualified names of the scopes that read x.Y, x.Z, x.psi or x.K."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif (isinstance(child, ast.Attribute)
                  and child.attr in _LEAF_FIELDS
                  and isinstance(child.ctx, ast.Load)):
                found.add(scope or "<module>")
            visit(child, inner)

    visit(ast.parse(source), "")
    return sorted(found)


def test_only_the_csv_writer_reads_leaf_views():
    # a solution is read on its nodes (SolutionGrid.nodes); the leaf view,
    # which on a tree repeats each node onto every leaf path under it, is
    # built for the CSV file only
    readers = {}
    for path in sorted(Path(mbsdej.__file__).parent.glob("*.py")):
        names = _leaf_view_readers(path.read_text())
        if names:
            readers[path.name] = names
    assert readers == {"bsde.py": ["SolutionGrid.write_csv"]}
    assert _leaf_view_readers("def f(sol):\n    return sol.Y[:, 0]\n"
                              "class C:\n    def g(self, s):\n"
                              "        s.K = 0\n"
                              "        return [x.psi for x in s]\n"
                              "y = a.Z + b.W\n") == ["<module>", "C.g", "f"]


_NODE_READERS = ("on_nodes", "spread", "accumulate", "to_level", "node_map",
                 "node_view")


def _node_readers(source: str) -> list:
    """Qualified names of the scopes that name a node reader, as an
    attribute (x.to_level) or a bare name."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif (isinstance(child, ast.Attribute)
                  and child.attr in _NODE_READERS
                  or isinstance(child, ast.Name) and child.id in _NODE_READERS):
                found.add(scope or "<module>")
            visit(child, inner)

    visit(ast.parse(source), "")
    return sorted(found)


def test_verification_reads_the_states_only():
    # every check runs on the states of the solution's scenario; only the
    # independent tree oracle walks the tree node by node
    path = Path(mbsdej.__file__).parent / "verification.py"
    assert _node_readers(path.read_text()) == ["_oracle_dp"]
    assert _node_readers("def f(Y):\n    return Y.on_nodes(0)\n"
                         "class C:\n    def g(self, t):\n"
                         "        return t.node_view, [spread for _ in ()]\n"
                         "x = y.node_map(1) + z.accumulate\n") == [
                             "<module>", "C.g", "f"]
