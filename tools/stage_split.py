"""Where a study's layer searches spend their time, stage by stage.

    PYTHONPATH=src python3 tools/stage_split.py --experiment throughput \
        --seeds 7 8 --budget 200

Runs one `run_experiment` pass of the study per seed, with the search memo
cleared before each pass so that every search runs. Each stage's function is
rebound to a wrapper that times every call with `perf_counter`; every name
is restored when the passes end, also when one fails. Prints one JSON object:
per stage its inclusive seconds and calls; `search_self_s`, the time inside
`mapper._search` spent outside every other stage (the per-search set-up,
drawing loop orders and keeping the best); `draw_filter_steps`, the filter
steps the draws take (`draw_step` calls), and `tree_hits`, those that
reached a prefix drawn before and so called no `feasible`; and
`limits_skipped`, the `feasible` calls that skipped `limits` because every
chain of the dim sits at its minimum row (each `feasible` call comes with a
`limits` call unless skipped; each `map_space_build` call calls `limits`
once). `order_table` builds one level's legal loop orders, once per
architecture, keep-override set and live dims.
Every candidate the search visits is priced (`candidate_pricing`): it is
counted (`candidate_counting`), and its energy (`pricing`) is summed unless
the objective is delay. A mapping is built (`build_mapping`) only to break
an exact tie and for the winner, which alone is evaluated (`evaluate`,
which validates and counts it through `counting`, then runs `pricing`).
`counting` and `pricing` also time the evaluations a study makes outside
its searches (the memory study's batched leg).
Stages nest (`limits` runs inside `map_space_build` as well as in the
draws), so inclusive seconds do not add up. Each wrapped call costs about a
microsecond more, which dilutes every ratio taken from these numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from photon_model import evaluator, experiments, mapper  # noqa: E402

# Stage name -> (owner, attribute) of the function it times. Each owner is
# where the caller looks the name up at call time.
STAGES = {
    "search": (mapper, "_search"),
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
    "counting": (evaluator, "analyze"),
}


class StageTimer:
    """Rebinds every stage to a timing wrapper until `restore`. A stage's
    self time is its inclusive time minus that of the stages it calls."""

    def __init__(self):
        self.seconds = dict.fromkeys(STAGES, 0.0)
        self.self_seconds = dict.fromkeys(STAGES, 0.0)
        self.calls = dict.fromkeys(STAGES, 0)
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
        for name, (owner, attr) in STAGES.items():
            original = vars(owner)[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def stage_split(experiment: str, seeds: list[int], budget: int) -> dict:
    timer = StageTimer()
    timer.install()
    try:
        for seed in seeds:
            mapper._MEMO.clear()
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
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--experiment", required=True,
                    choices=("throughput", "memory"))
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 8])
    ap.add_argument("--budget", type=int, default=200)
    args = ap.parse_args(argv)
    print(json.dumps(stage_split(args.experiment, args.seeds, args.budget),
                     indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
