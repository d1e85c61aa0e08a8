"""Every name a package module imports at top level is used there, every
top-level definition is read somewhere in the package or exported, only
the validated types call their rule sets, only spec_model's capacity
rule and the counting engines compute tile footprints, and only
validation and the search's loop orders apply the refetch rule."""

import ast
from pathlib import Path

import photon_model

# perfbench/tracer.py rebinds these in mapper, which calls neither itself,
# analyze in evaluator, whose evaluate counts through reuse.count, and
# energy and analyze in experiments, whose breakdown re-weights priced
# energies and whose memory study checks its batch loops by evaluating them.
REBOUND = {("mapper.py", "analyze"), ("mapper.py", "energy"),
           ("evaluator.py", "analyze"), ("experiments.py", "analyze"),
           ("experiments.py", "energy")}

# perfbench/make_reference.py reads it; the package does not.
UNREAD = {("albireo.py", "geometry_pins")}

# Every type the model prices checks its own rules as it is built, and a
# library part is checked as it is read and as an architecture holds it:
# the definitions each rule set may be called from, so that a reader
# which grows a rule of its own fails here.
VALIDATORS = {"validate_architecture": {"__post_init__"},
              "validate_layer": {"__post_init__"},
              "_validate_component": {"parse_component",
                                      "validate_architecture"}}

# The definitions that compute a tile footprint: spec_model's capacity
# demand and validation, the search's pricer (_Pricer.count) and the
# oracle, so that a capacity sum written outside spec_model fails here.
FOOTPRINTS = {"tile_values": {"demand", "validate_mapping", "count",
                              "simulate"}}

# The definitions that apply spec_model's refetch rule: validation and the
# search's loop orders, so that a restated rule fails here.
REFETCH = {"leads": {"validate_mapping", "_valid_perms"}}


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


def callers(paths: list[Path], callees: set[str]
            ) -> dict[str, set[str]]:
    """The innermost function definitions that call each of `callees`,
    as a name or an attribute."""

    found = {name: set() for name in callees}

    def visit(node, within):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                if name in found:
                    found[name].add(within)
            visit(child, within)

    for path in paths:
        visit(ast.parse(path.read_text()), None)
    return found


def test_only_the_types_validate():
    assert callers(_modules(), set(VALIDATORS)) == VALIDATORS


def test_only_the_capacity_rule_and_the_counters_take_footprints():
    assert callers(_modules(), set(FOOTPRINTS)) == FOOTPRINTS


def test_one_refetch_rule_and_one_reading_of_a_loop_order():
    assert callers(_modules(), set(REFETCH)) == REFETCH
    # LoopNest.loops is the package's reading of a permutation; the oracle
    # reads one itself, in a function, to check it.
    assert not [(path.name, node.name) for path in _modules()
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ClassDef)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name == "loops"]


def test_a_reader_that_validates_is_caught(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("class Layer:\n    def __post_init__(self):\n"
                    "        validate_layer(self)\n\n\n"
                    "def parse_layer(doc):\n    layer = Layer()\n"
                    "    m.validate_layer(layer)\n    return layer\n")
    assert callers([path], {"validate_layer", "parse"}) == {
        "validate_layer": {"__post_init__", "parse_layer"}, "parse": set()}


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
