"""Where a study's layer searches spend their time, stage by stage.

    PYTHONPATH=src python3 tools/stage_split.py --experiment throughput \
        --seeds 7 8 --budget 200

Runs one `run_experiment` pass of the study per seed. Each pass builds its
own architecture, so it repeats no search of another pass; within a pass, a
repeated search returns the result kept on the architecture without running
`mapper._search` again. Each stage's function is rebound to a wrapper that
times every call with `perf_counter`; every name is restored when the
passes end, also when one fails. Prints one JSON object:
per stage its inclusive seconds and calls; `search_self_s`, the time inside
`mapper._search` spent outside every other stage (the per-search set-up,
drawing loop orders and keeping the best); `draw_filter_steps`, the filter
steps the draws take (`draw_step` calls), and `tree_hits`, those that
reached a prefix drawn before and so called no `feasible`; and
`limits_skipped`, the `feasible` calls that skipped `limits` because every
chain of the dim sits at its minimum row (each `feasible` call comes with a
`limits` call unless skipped; each `map_space_build` call calls `limits`
once). `map_space_build` builds one dim's menu for one search from its
chain table; `chain_table` enumerates a table, once per architecture and
menu key, and `menus_per_pass` and `tables_per_pass` count the two.
`order_table` builds one level's legal loop orders, once per process
and key (live dims, level, refetch-forbidden keepers); the searches ask
it once per architecture, keep-override set, level and live dims, and a
key built before returns its kept list.
Every candidate the search visits is priced (`candidate_pricing`): it is
counted (`candidate_counting`), and its energy (`pricing`) is summed unless
the objective is delay. A mapping is built (`build_mapping`) only to break
an exact tie and for the winner, which alone is evaluated (`evaluate`,
which validates and counts it through `counting`, whose `validate` is
`validate_mapping`, then runs `pricing` on the tally). `counting`,
`validate` and `pricing` also time the evaluations a study makes outside
its searches (the memory study's batched leg).
Stages nest (`limits` runs inside `map_space_build` as well as in the
draws), so inclusive seconds do not add up. Each wrapped call costs about a
microsecond more, which dilutes every ratio taken from these numbers.

    PYTHONPATH=src python3 tools/stage_split.py --experiment evaluate \
        --documents 2000 --passes 3

times instead `parse_mapping` plus `evaluate` over the valid documents of
perfbench's stored corpus (read, never written), on the bundled aggressive
accelerator, and prints each stage's own microseconds per document, the
best of the passes: `parse` (parse_mapping), `nest` (LoopNest.of, the first
read of mapping.nest), `validate` (validate_mapping, the nest aside; its
capacity check computes the tile footprints counting reads, and it
returns the real MAC count), `plan` (reuse.count aside from validate and
tally: the count plan, the padded MAC count and merge widths), `tally`
(reuse.tally, from validation's footprints), `pack` (reuse.pack),
`pricing` (price_program, PriceProgram.cycles and .energy), `result` (the
rest of evaluate: the EvaluationResult) and their `sum`.
"""

from __future__ import annotations

import argparse
import gzip
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from photon_model import (  # noqa: E402
    albireo,
    evaluator,
    experiments,
    mapper,
    reuse,
    spec_model,
    workloads,
)

CORPUS = ROOT / "perfbench" / "data" / "corpus.json.gz"

# Stage name -> (owner, attribute) of the function it times. Each owner is
# where the caller looks the name up at call time.
STAGES = {
    "search": (mapper, "_search"),
    "chain_table": (mapper._ChainTable, "__init__"),
    "map_space_build": (mapper, "_dim_chains"),
    "filter_build": (mapper._MenuFilter, "__init__"),
    "limits": (mapper._CapacityCheck, "limits"),
    "feasible": (mapper._MenuFilter, "feasible"),
    "draw_step": (mapper._Walk, "step"),
    "order_table": (mapper, "_valid_perms"),
    "candidate_pricing": (mapper._Pricer, "objective"),
    "candidate_counting": (mapper, "tally"),
    "build_mapping": (mapper, "_build_mapping"),
    "pricing": (evaluator.PriceProgram, "energy"),
    "evaluate": (mapper, "evaluate"),
    "counting": (evaluator, "count"),
    "validate": (reuse, "validate_mapping"),
}

# The stages of one corpus document's parse_mapping + evaluate, timed by
# their own time: `validate` returns the footprints `tally` reads and the
# real MAC count, `plan` is what reuse.count does itself, `result` what
# evaluate does itself.
# The tool calls parse_mapping and evaluate through their modules, so
# their wrappers see every call.
EVALUATE_STAGES = {
    "parse": (spec_model, "parse_mapping"),
    "nest": (spec_model.LoopNest, "of"),
    "validate": (reuse, "validate_mapping"),
    "plan": (evaluator, "count"),
    "tally": (reuse, "tally"),
    "pack": (evaluator, "pack"),
    "price_program": (evaluator, "price_program"),
    "cycles": (evaluator.PriceProgram, "cycles"),
    "energy": (evaluator.PriceProgram, "energy"),
    "result": (evaluator, "evaluate"),
}
PRICING = ("price_program", "cycles", "energy")


class StageTimer:
    """Rebinds every stage of `stages` to a timing wrapper until
    `restore`. A stage's self time is its inclusive time minus that of the
    stages it calls."""

    def __init__(self, stages: dict = STAGES):
        self.stages = stages
        self.seconds = dict.fromkeys(stages, 0.0)
        self.self_seconds = dict.fromkeys(stages, 0.0)
        self.calls = dict.fromkeys(stages, 0)
        self._inner: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        inner, clock = self._inner, time.perf_counter

        def timed(*args, **kwargs):
            inner.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                children = inner.pop()
                if inner:
                    inner[-1] += spent
                self.seconds[name] += spent
                self.self_seconds[name] += spent - children
                self.calls[name] += 1

        return timed

    def install(self) -> None:
        for name, (owner, attr) in self.stages.items():
            original = vars(owner)[attr]
            self._undo.append((owner, attr, original))
            if isinstance(original, classmethod):
                timed = classmethod(self._wrap(name, original.__func__))
            else:
                timed = self._wrap(name, original)
            setattr(owner, attr, timed)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def stage_split(experiment: str, seeds: list[int], budget: int) -> dict:
    timer = StageTimer()
    timer.install()
    try:
        for seed in seeds:
            experiments.run_experiment(experiments.ExperimentConfig(
                experiment=experiment, budget=budget, seed=seed))
    finally:
        timer.restore()
    calls = timer.calls
    return {
        "experiment": experiment,
        "seeds": seeds,
        "budget": budget,
        "stages": {name: {"seconds": round(timer.seconds[name], 4),
                          "calls": calls[name]} for name in STAGES},
        "search_self_s": round(timer.self_seconds["search"], 4),
        "draw_filter_steps": calls["draw_step"],
        # Every feasible call of a study's search is a draw's new prefix.
        "tree_hits": calls["draw_step"] - calls["feasible"],
        "limits_skipped": (calls["feasible"] - calls["limits"]
                           + calls["map_space_build"]),
        "menus_per_pass": calls["map_space_build"] / len(seeds),
        "tables_per_pass": calls["chain_table"] / len(seeds),
    }


def evaluate_split(documents: int | None, passes: int) -> dict:
    """The evaluate-path split over the first `documents` valid corpus
    documents (all when None), each stage's best of `passes` passes."""

    with gzip.open(CORPUS, "rt") as f:
        entries = json.load(f)["entries"]
    layers = {(net, layer.name): layer
              for net in {e["network"] for e in entries}
              for layer in workloads.load_workload(net).layers}
    corpus = [(layers[(e["network"], e["layer"])], e["mapping"])
              for e in entries if "digest" in e["expect"]][:documents]
    arch = albireo.architecture("aggressive")
    best = dict.fromkeys(EVALUATE_STAGES, float("inf"))
    for _ in range(passes):
        timer = StageTimer(EVALUATE_STAGES)
        timer.install()
        try:
            for layer, doc in corpus:
                evaluator.evaluate(arch, layer,
                                   spec_model.parse_mapping(doc, arch))
        finally:
            timer.restore()
        for name, spent in timer.self_seconds.items():
            best[name] = min(best[name], spent)
    us = {name: 1e6 * best[name] / len(corpus) for name in EVALUATE_STAGES}
    split = {name: us[name] for name in ("parse", "nest", "validate", "plan",
                                         "tally", "pack")}
    split["pricing"] = sum(us[name] for name in PRICING)
    split["result"] = us["result"]
    split["sum"] = sum(split.values())
    return {
        "experiment": "evaluate",
        "documents": len(corpus),
        "passes": passes,
        "us_per_document": {k: round(v, 2) for k, v in split.items()},
        "calls_per_pass": timer.calls,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--experiment", required=True,
                    choices=("throughput", "memory", "evaluate"),
                    help="a study's searches, or the evaluate path over "
                    "the stored corpus")
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 8])
    ap.add_argument("--budget", type=int, default=200)
    ap.add_argument("--documents", type=int, default=None,
                    help="evaluate: the first N valid documents (all)")
    ap.add_argument("--passes", type=int, default=3,
                    help="evaluate: passes, each stage's best kept")
    args = ap.parse_args(argv)
    if args.experiment == "evaluate":
        out = evaluate_split(args.documents, args.passes)
    else:
        out = stage_split(args.experiment, args.seeds, args.budget)
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
