"""Every name a package module imports at top level is used there, and
every top-level definition is read somewhere in the package or exported."""

import ast
from pathlib import Path

import photon_model

# perfbench/tracer.py rebinds these in mapper, which calls neither itself,
# analyze in evaluator, whose evaluate counts through reuse.count, and
# energy in experiments, whose breakdown re-weights priced energies.
REBOUND = {("mapper.py", "analyze"), ("mapper.py", "energy"),
           ("evaluator.py", "analyze"), ("experiments.py", "energy")}

# perfbench/make_reference.py reads it; the package does not.
UNREAD = {("albireo.py", "geometry_pins")}


def unused_imports(path: Path) -> set[tuple[str, str]]:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0]
                         for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return {(path.name, name) for name in imported - used}


def _modules():
    package = Path(photon_model.__file__).parent
    return [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]


def unread_definitions(paths: list[Path], exported: set[str]
                       ) -> set[tuple[str, str]]:
    """Top-level functions and classes whose name no module reads, as a
    name or an attribute, and that `exported` does not hold."""

    defined, read = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text())
        defined |= {(path.name, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {(f, name) for f, name in defined
            if name not in read and name not in exported}


def test_no_dead_imports():
    modules = _modules()
    assert len(modules) > 5
    unused = set().union(*(unused_imports(p) for p in modules))
    assert unused == REBOUND


def test_dead_import_is_caught(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import math\nfrom os import path, sep\n"
                    "x = path.join(sep, 'a')\n")
    assert unused_imports(path) == {("mod.py", "math")}


def test_no_dead_definitions():
    assert unread_definitions(_modules(), set(photon_model.__all__)) == UNREAD


def test_dead_definition_is_caught(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("def used():\n    pass\n\n\nclass Dead:\n    pass\n\n\n"
                 "def shown():\n    pass\n")
    b.write_text("from a import used\nused()\n")
    assert unread_definitions([a, b], {"shown"}) == {("a.py", "Dead")}
