"""The benchmark's tracer rebinds names in the package modules by
attribute. A module that stops importing a name the tracer rebinds breaks
`perfbench/run.py --trace 1`; this test catches it inside the suite."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = ("experiments", "mapper", "evaluator", "reuse", "workloads",
           "albireo")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_package_and_restores_every_name():
    mods = {n: importlib.import_module(f"photon_model.{n}") for n in MODULES}
    before = {n: dict(vars(m)) for n, m in mods.items()}
    tracer = _load_tracer().Tracer()
    tracer.install(mods)
    try:
        rebound = {(n, k) for n, m in mods.items()
                   for k, v in vars(m).items() if before[n].get(k) is not v}
        assert {("mapper", "analyze"), ("mapper", "energy"),
                ("mapper", "evaluate"), ("experiments", "search"),
                ("reuse", "validate_mapping"),
                ("workloads", "load_document"), ("workloads", "parse_spec"),
                ("albireo", "parse_architecture"),
                ("experiments", "parse_architecture")} <= rebound
    finally:
        tracer.uninstall()
    for n, m in mods.items():
        after = vars(m)
        assert after.keys() == before[n].keys()
        assert all(after[k] is v for k, v in before[n].items()), n
