"""Every name a package module imports at top level is used there."""

import ast
from pathlib import Path

import photon_model

# perfbench/tracer.py rebinds these in mapper, which calls neither itself,
# analyze in evaluator, whose evaluate counts through reuse.count, and
# energy in experiments, whose breakdown re-weights priced energies.
REBOUND = {("mapper.py", "analyze"), ("mapper.py", "energy"),
           ("evaluator.py", "analyze"), ("experiments.py", "energy")}


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


def test_no_dead_imports():
    package = Path(photon_model.__file__).parent
    modules = [p for p in sorted(package.glob("*.py"))
               if p.name != "__init__.py"]
    assert len(modules) > 5
    unused = set().union(*(unused_imports(p) for p in modules))
    assert unused == REBOUND


def test_dead_import_is_caught(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import math\nfrom os import path, sep\n"
                    "x = path.join(sep, 'a')\n")
    assert unused_imports(path) == {("mod.py", "math")}
