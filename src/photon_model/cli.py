"""Command line front end.

Exit codes: 0 success, 2 malformed specs or invalid configuration,
3 feasibility failures (no valid mapping, an infeasible sweep, or an
exhaustive space past its bound).
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .components import PROFILES, CalibrationError, builtin_components
from .evaluator import evaluate
from .experiments import (
    EXPERIMENTS,
    SweepInfeasible,
    parse_experiment_config,
    run_experiment,
)
from .mapper import (
    OBJECTIVES,
    STRATEGIES,
    NoValidMapping,
    SearchConfig,
    SearchError,
    search,
)
from .oracle import OracleCapExceeded, simulate
from .reuse import analyze
from .spec_model import (
    DIMS,
    MappingError,
    SpecError,
    canonical_json,
    load_document,
    parse_mapping,
    serialize_component,
    serialize_mapping,
    serialize_spec,
    stencil_pins,
)
from .workloads import load_architecture, load_spec, load_workload


def _layer_for(args):
    source = args.workload or args.spec
    workload = load_workload(source)
    for layer in workload.layers:
        if layer.name == args.layer:
            return layer
    raise SpecError("MalformedDocument", source,
                    f"workload has no layer named {args.layer!r}")


def _mapping_for(args, arch):
    doc = load_document(args.mapping)
    return parse_mapping(doc, arch)


def _counts_doc(counts) -> dict:
    per_level = {}
    for (level, tensor), lc in sorted(counts.per_level.items()):
        per_level.setdefault(str(level), {})[tensor] = {
            "reads": lc.reads, "fills": lc.fills,
            "updates": lc.updates, "drains": lc.drains,
        }
    return {
        "macs": counts.macs,
        "real_macs": counts.real_macs,
        "compute_reads": dict(sorted(counts.compute_reads.items())),
        "per_level": per_level,
        "conversions": {f"{name}/{tensor}": n for (name, tensor), n
                        in sorted(counts.conversions.items())},
        **{field: {f"{edge}/{tensor}/{direction}": n
                   for (edge, tensor, direction), n in sorted(edges.items())}
           for field, edges in (("edge_crossings", counts.edge_crossings),
                                ("edge_demand", counts.edge_demand))},
    }


def cmd_spec(args) -> int:
    spec = load_spec(args.spec)
    if args.json:
        sys.stdout.write(canonical_json(serialize_spec(spec)))
        return 0
    print(f"spec: {args.spec}")
    if spec.architecture is not None:
        a = spec.architecture
        lv = " -> ".join(f"{l.name}[{l.component.name}]" for l in a.levels)
        print(f"  architecture {a.name}: {lv}")
        print(f"  clock {a.clock_ghz} GHz, {len(a.converters)} converter banks")
        for l in a.levels:
            if l.stencil:
                widths = " ".join(f"{d}{w}" for d, w in l.stencil)
                print(f"  stencil {l.name}: {widths} of fanout {l.fanout}")
    if spec.workload is not None:
        print(f"  workload {spec.workload.name}: {len(spec.workload.layers)} layers")
        for layer in spec.workload.layers:
            dims = " ".join(f"{d}{layer.dims[d]}" for d in DIMS
                            if layer.dims[d] > 1)
            print(f"    {layer.name:12s} {layer.kind:5s} {dims}")
    return 0


def cmd_components(args) -> int:
    lib = builtin_components(args.profile)
    if args.json:
        doc = {"profile": args.profile,
               "components": [serialize_component(lib[n]) for n in sorted(lib)]}
        sys.stdout.write(canonical_json(doc))
        return 0
    print(f"profile: {args.profile}")
    for name in sorted(lib):
        c = lib[name]
        epa = " ".join(f"{a}={e:g}" for a, e in sorted(c.energy_per_action.items()))
        print(f"  {name:20s} {c.cls:9s} {c.domain_in}->{c.domain_out} "
              f"{epa or 'static only'}"
              + (f" static={c.static_power_mw:g}mW" if c.static_power_mw else ""))
    return 0


def cmd_counts(args) -> int:
    arch = load_architecture(args.spec)
    layer = _layer_for(args)
    mapping = _mapping_for(args, arch)
    counts = analyze(arch, layer, mapping)
    doc = {"engine": _counts_doc(counts)}
    if args.oracle:
        sim = simulate(arch, layer, mapping)
        doc["oracle"] = _counts_doc(sim)
        doc["match"] = doc["oracle"] == doc["engine"]
    sys.stdout.write(canonical_json(doc))
    return 0


def cmd_map(args) -> int:
    arch = load_architecture(args.spec)
    layer = _layer_for(args)
    pins = stencil_pins(layer, arch)
    # The pins are array widths, not divisors of the layer: pad, as the
    # experiments do, so every layer maps.
    cfg = SearchConfig(objective=args.objective, budget=args.budget,
                       seed=args.seed, strategy=args.strategy,
                       pad_mode="pad" if pins else "strict",
                       batch_size=args.batch_size, fixed_spatial=pins)
    res = search(arch, layer, cfg)
    ev = res.evaluation
    print(f"{layer.name}: visited {res.visited}, pruned {res.pruned}, "
          f"invalid {res.invalid}, best {args.objective} after search:")
    print(f"  energy {ev.total_energy_pj:.1f} pJ, cycles {ev.cycles}, "
          f"latency {ev.latency_s*1e6:.3f} us, utilization {ev.utilization:.3f}")
    if args.emit_mapping:
        text = canonical_json(serialize_mapping(res.mapping, arch))
        if args.emit_mapping == "-":
            sys.stdout.write(text)
        else:
            Path(args.emit_mapping).write_text(text)
    return 0


def cmd_evaluate(args) -> int:
    arch = load_architecture(args.spec)
    layer = _layer_for(args)
    mapping = _mapping_for(args, arch)
    ev = evaluate(arch, layer, mapping)
    doc = {
        "energy_pj": {k: ev.energy_pj[k] for k in sorted(ev.energy_pj)},
        "total_energy_pj": ev.total_energy_pj,
        "cycles": ev.cycles,
        "compute_cycles": ev.compute_cycles,
        "latency_s": ev.latency_s,
        "macs_per_s": ev.macs_per_s,
        "utilization": ev.utilization,
        "area_um2": ev.area_um2,
        "mapping_digest": ev.mapping_digest,
    }
    sys.stdout.write(canonical_json(doc))
    return 0


def _write_tables(report: dict, outdir: Path) -> None:
    for name, rows in report.get("tables", {}).items():
        if not rows:
            continue
        with open(outdir / f"{name}.csv", "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)


def cmd_experiment(args) -> int:
    doc = {}
    if args.config:
        doc.update(load_document(args.config))
    for key in ("experiment", "arch", "workload", "profile", "budget",
                "seed", "output_dir"):
        val = getattr(args, key)
        if val is not None:
            doc[key] = val
    cfg = parse_experiment_config(doc)
    report = run_experiment(cfg)
    if cfg.output_dir:
        outdir = Path(cfg.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.json").write_text(canonical_json(report))
        _write_tables(report, outdir)
        print(f"{cfg.experiment}: report.json and "
              f"{len(report.get('tables', {}))} tables written to {outdir}")
    else:
        sys.stdout.write(canonical_json(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="photon-model",
        description="Analytical energy/throughput model for photonic "
                    "DNN accelerators.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_spec_args(sp, mapping=False):
        sp.add_argument("--spec", default="albireo",
                        help="bundled spec name or path (default: albireo)")
        sp.add_argument("--workload", default="vgg16",
                        help="bundled workload name or path (default: vgg16)")
        sp.add_argument("--layer", required=True, help="layer name")
        if mapping:
            sp.add_argument("--mapping", required=True,
                            help="mapping document path")

    sp = sub.add_parser("spec", help="validate and summarize a spec")
    sp.add_argument("spec", help="bundled spec name or path")
    sp.add_argument("--json", action="store_true",
                    help="emit the canonical serialized form")
    sp.set_defaults(func=cmd_spec)

    sp = sub.add_parser("components", help="list a component library")
    sp.add_argument("--profile", default="aggressive", choices=PROFILES)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_components)

    sp = sub.add_parser("counts", help="action counts for a mapping")
    add_spec_args(sp, mapping=True)
    sp.add_argument("--oracle", action="store_true",
                    help="also run the per-step simulator and compare")
    sp.set_defaults(func=cmd_counts)

    sp = sub.add_parser(
        "map", help="search a mapping for one layer",
        description="Search a mapping for one layer. An architecture whose "
                    "levels carry a stencil is searched with the stencil's "
                    "widths pinned, padding dims they do not divide; one "
                    "without is searched with exact factors.")
    add_spec_args(sp)
    sp.add_argument("--objective", default="energy", choices=OBJECTIVES)
    sp.add_argument("--budget", type=int, default=600)
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--strategy", default="pruned_random", choices=STRATEGIES)
    sp.add_argument("--batch-size", type=int, default=1)
    sp.add_argument("--emit-mapping", metavar="PATH",
                    help="write the found mapping ('-' for stdout)")
    sp.set_defaults(func=cmd_map)

    sp = sub.add_parser("evaluate", help="full evaluation of a mapping")
    add_spec_args(sp, mapping=True)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("experiment", help="run a bundled experiment")
    sp.add_argument("--config", help="experiment config document")
    sp.add_argument("--experiment", choices=EXPERIMENTS)
    sp.add_argument("--arch", help="architecture spec name or path "
                    "(default: albireo, the only one reuse_sweep sweeps)")
    sp.add_argument("--workload", help="workload spec name or path")
    sp.add_argument("--profile", choices=PROFILES,
                    help="the builtin library of every document that uses "
                         "one (default: aggressive)")
    sp.add_argument("--budget", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--output-dir", dest="output_dir",
                    help="write report.json and CSV tables here")
    sp.set_defaults(func=cmd_experiment)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NoValidMapping, SweepInfeasible, SearchError) as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return 3
    except (SpecError, MappingError, CalibrationError,
            OracleCapExceeded) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
