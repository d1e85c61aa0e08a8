"""Every name a package module imports at top level is used there, every
top-level definition is read somewhere in the package or exported, only
the validated types call their rule sets, only spec_model's capacity
rule and the counting engines compute tile footprints, only
validation and the search's loop orders apply the refetch rule, only the
oracle and the emitted text build count containers, only reuse's
emitter compiles code, whose text calls only the names it was handed, so
that the checks above see every rule, and whose two entry points sweep
the loops with one body; and reuse keeps one lookup per keep-override
set."""

import ast
import re
import textwrap
from pathlib import Path

import photon_model
import toys
from photon_model import albireo, reuse
from photon_model.spec_model import INPUTS, OUTPUTS, WEIGHTS

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
# demand and validation, the search's footprint memo
# (_Footprints.__missing__) and the oracle, so that a capacity sum written
# outside spec_model fails here.
FOOTPRINTS = {"tile_values": {"demand", "validate_mapping", "__missing__",
                              "simulate"}}

# The definitions that apply spec_model's refetch rule: validation and the
# search's loop orders, so that a restated rule fails here.
REFETCH = {"leads": {"validate_mapping", "_valid_perms"}}

# The one definition that turns text into code: reuse's emitter, which
# compiles and runs the source reuse.emit writes. The emitted text is no
# module, so the checks above cannot read it: it may call only the names
# reuse.HANDED gives it, none of them a rule.
EMITTER = {"compile": {"_binder"}, "exec": {"_binder"}}
RULES = set(VALIDATORS) | set(FOOTPRINTS) | set(REFETCH) | {
    "validate_mapping", "demand", "largest_extent", "merge_widths"}


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


def test_only_the_emitted_code_and_the_oracle_build_counts():
    # The emitted text is no module: evaluate's entry point builds the
    # engine's AccessCounts there, and the oracle builds its own.
    assert callers(_modules(), {"AccessCounts", "LevelCounts"}) == {
        "AccessCounts": {"simulate"}, "LevelCounts": {"simulate"}}


def test_only_the_emitter_compiles_code():
    assert callers(_modules(), set(EMITTER)) == EMITTER


def test_one_kept_lookup_per_keep_override_set():
    # reuse keeps one entry per keep-override set, the Counting, whose
    # build is the only way to its emitted and compiled code: a second
    # memo or a second binding of the code fails here.
    assert callers([Path(reuse.__file__)], {"derived", "emit", "_binder"}) == {
        "derived": {"counting"}, "emit": {"_counting"},
        "_binder": {"_counting"}}


def _emitted_sources() -> dict[str, str]:
    """The source of each entry point emitted for every shipped layout
    (both profiles, and each reuse_sweep axis widened, under no override
    and the fused pairs' keep overrides) and every toy plan (the refetch
    toy under the same overrides), keyed by a name for each."""

    shipped = {profile: albireo.architecture(profile)
               for profile in ("aggressive", "conservative")}
    shipped.update({axis: albireo.architecture(**{axis: 2})
                    for axis in albireo.AXES})
    fused = ({}, {0: (WEIGHTS, INPUTS)}, {0: (WEIGHTS, OUTPUTS)})
    plans = [(f"{name} {keep}", arch, keep)
             for name, arch in shipped.items() for keep in fused]
    plans += [(arch.name, arch, {})
              for arch in (toys.fc_direct(), toys.fc_weight_buffer(),
                           toys.fanout_converter_arch())]
    plans += [(f"refetch {keep}", toys.refetch_toy(96), keep)
              for keep in fused]
    out = {}
    for name, arch, keep in plans:
        kept = reuse.counting(arch, keep)
        for entry in ("count", "search"):
            out[f"{name} {entry}"] = reuse.emit(kept.plan, kept.program,
                                                entry)
    return out


def test_emitted_code_calls_only_the_names_it_was_handed():
    handed = set(reuse.HANDED)
    assert not handed & RULES
    sources = _emitted_sources()
    assert len(set(sources.values())) > 2
    for name, source in sources.items():
        tree = ast.parse(source)
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom,
                                         ast.Global, ast.Nonlocal))], name
        called = {f.id if isinstance(f, ast.Name) else getattr(f, "attr", f)
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  for f in (node.func,)}
        # Besides the handed names, only the functions the text defines.
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)}
        assert called <= handed, (name, called - handed)
        assert not called & defined, name


# Each level's loop header in an entry point's sweep: evaluate's reads the
# nest's loops, the search's its drawn orders and temporal rows.
SWEEP_HEADERS = {
    "count": re.compile(r"^for d, e in loops\[(\d+)\]:$", re.M),
    "search": re.compile(r"^for d in perms\[(\d+)\]:\n"
                         r"    e = time\[d\]\[\1\]$", re.M)}


def _sweep(source: str, entry: str) -> str:
    """An entry point's sweep of the loops, dedented, from its first line
    to the unpacking of the instances that follows it, each level's
    header replaced by the level's number; empty with no sweep."""

    start = source.find("weights = inputs = outputs = distinct = span = 1")
    if start < 0:
        return ""
    start = source.rindex("\n", 0, start) + 1
    end = source.rindex("\n", start, source.index("= instances", start))
    return SWEEP_HEADERS[entry].sub(r"level \1",
                                    textwrap.dedent(source[start:end]))


def test_both_entry_points_sweep_the_loops_alike():
    # evaluate's entry point sweeps LoopNest.loops and the search's its
    # drawn orders with one body: only each level's loop header differs.
    sources = _emitted_sources()
    swept = 0
    for name, source in sources.items():
        if name.endswith(" count"):
            plan = name[:-len(" count")]
            sweep = _sweep(source, "count")
            assert sweep == _sweep(sources[f"{plan} search"], "search"), plan
            swept += bool(sweep)
    assert swept > len(sources) // 4


def test_emitted_code_prices_no_literal_zero():
    # A counter no leg sets is the literal 0: its products, a level term
    # whose four counters are all 0, and a bandwidth bound over no
    # counter are left out of the text: no operation has an operand 0.
    # (A name may end in 0, as n0 * convert1 does, so the text is read
    # as code, not searched for "0 *".)
    for name, source in _emitted_sources().items():
        assert not [node for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.BinOp)
                    and any(isinstance(x, ast.Constant) and x.value == 0
                            for x in (node.left, node.right))], name


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
