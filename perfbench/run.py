"""Benchmark of photon_model: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload {throughput,memory,evaluate} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. The package is imported from ``src/``; nothing
is installed. Everything runs in this one process and thread, and each
operation starts only after the previous one returned.

* ``throughput`` and ``memory`` run ``run_experiment`` passes of the bundled
  studies at a reduced search budget. An operation is one layer search.
  Pass k runs the study at experiment seed ``7 + k`` (7 is the studies'
  default), so no two passes repeat a search; the run seed shuffles the
  order of the passes. The number of passes is ``--seconds`` divided by the
  nominal pass time below, so the work a run does never depends on how fast
  the code is, and the search-quality metrics repeat exactly.
* ``evaluate`` runs ``parse_mapping`` plus ``evaluate`` over the stored
  corpus of distinct mapping documents; a pass is the whole corpus, in an
  order the seed picks. An operation is one document. Every pass imports
  the package afresh, so no document meets a package that has seen it.

Every pass starts with a set-up: a fresh import of the package and a parse
of every input. With ``--trace 0`` the run reports the end-to-end metrics;
``setup_s`` is the median of at least ``SETUPS`` set-ups. With
``--trace 1`` every pass runs once untraced and once under the outside-in
tracer of ``tracer.py``; the run reports the per-layer metrics, medians over
passes, and checks that both runs of a pass give the same report. Every
host time reported is corrected for the machine's speed (see ``Speed``); the
uncorrected ones are printed too.

Outputs are checked: every mapping a search returns is evaluated again
through the public ``evaluate`` and must give the identical result; every
corpus document must give its stored result, or raise ``MappingError`` if
it is stored as invalid. The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DATA = HERE / "data"
CORPUS = DATA / "corpus.json.gz"
DIGESTS = DATA / "report_digests.json"

import tracer as tracing  # noqa: E402  (sibling module of this script)

WORKLOADS = ("throughput", "memory", "evaluate")
SEARCH_WORKLOADS = ("throughput", "memory")
# Search budget per layer search. Lower than the studies' default of 600 so
# that a run holds several passes; every search still draws its budget.
BUDGET = {"throughput": 200, "memory": 120}
# Host seconds one pass took at the commit that defined the benchmark
# (2-core x86 container, Python 3.11). They fix how many passes a run of
# --seconds makes.
NOMINAL_PASS_S = {"throughput": 7.5, "memory": 10.0, "evaluate": 6.0}
FIRST_EXPERIMENT_SEED = 7
SETUPS = 5
PACKAGE_MODULES = ("experiments", "mapper", "evaluator", "reuse",
                   "spec_model", "workloads", "albireo")
NETWORKS = ("vgg16", "alexnet")
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
# Operations of the evaluate workload between two speed probes.
PROBE_EVERY = 128
# Nanoseconds the speed probe took on the defining machine at full speed.
PROBE_NOMINAL_NS = 2_100_000


# ----------------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------------


class Context:
    """The freshly imported package and the parsed inputs of one run."""

    def __init__(self, workload: str):
        self.pm = importlib.import_module("photon_model")
        self.mods = {n: importlib.import_module(f"photon_model.{n}")
                     for n in PACKAGE_MODULES}
        self.arch = self.mods["albireo"].architecture("aggressive")
        self.layers = {}
        for net in NETWORKS:
            for layer in self.pm.load_workload(net).layers:
                self.layers[(net, layer.name)] = layer
        self.corpus = None
        self.corpus_digest = None
        if workload == "evaluate":
            # The corpus is the benchmark's own input, not program work:
            # decode it without collector passes over its many small dicts.
            gc.disable()
            try:
                with gzip.open(CORPUS, "rt") as f:
                    doc = json.load(f)
            finally:
                gc.enable()
            self.corpus = [(self.layers[(e["network"], e["layer"])],
                            e["mapping"], e["expect"])
                           for e in doc["entries"]]
            self.corpus_digest = doc["report_digest"]


def setup(workload: str) -> tuple[float, Context]:
    """Import the package afresh and parse every input; returns the time
    taken and the context."""

    for name in [m for m in sys.modules
                 if m == "photon_model" or m.startswith("photon_model.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    ctx = Context(workload)
    return time.perf_counter() - t0, ctx


# ----------------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------------


def _probe_work() -> int:
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(8000):
        key = (i & 63, i & 7)
        table[key] = table.get(key, 0) + i
        acc += len(str(i))
    return acc


class Speed:
    """The speed of the machine, from a fixed pure-Python probe that uses no
    package code, timed between operations.

    On a shared host the same pass can run 40% slower for minutes at a
    time. Every host time the benchmark reports is multiplied by the
    probe's nominal time over the median of its last few timings, which
    makes it the time the operation would have taken at the speed the
    benchmark was defined at. The collector is off while the probe runs, so
    the program's heap cannot slow it."""

    def __init__(self):
        self.recent: list[int] = []
        self.spent_ns = 0

    def probe(self) -> None:
        gc.disable()
        try:
            t = time.perf_counter_ns()
            _probe_work()
            ns = time.perf_counter_ns() - t
        finally:
            gc.enable()
        self.recent = self.recent[-4:] + [ns]
        self.spent_ns += ns

    def factor(self) -> float:
        return PROBE_NOMINAL_NS / statistics.median(self.recent)


# ----------------------------------------------------------------------------
# Canonical results
# ----------------------------------------------------------------------------


def result_doc(ev) -> dict:
    """Every field of an EvaluationResult as a JSON object."""

    c = ev.counts
    return {
        "energy_pj": ev.energy_pj,
        "total_energy_pj": ev.total_energy_pj,
        "cycles": ev.cycles,
        "compute_cycles": ev.compute_cycles,
        "latency_s": ev.latency_s,
        "macs_per_s": ev.macs_per_s,
        "utilization": ev.utilization,
        "area_um2": ev.area_um2,
        "mapping_digest": ev.mapping_digest,
        "counts": {
            "per_level": {f"{lv}/{t}": [lc.reads, lc.fills, lc.updates,
                                        lc.drains]
                          for (lv, t), lc in c.per_level.items()},
            "conversions": {f"{n}/{t}": v
                            for (n, t), v in c.conversions.items()},
            "compute_reads": c.compute_reads,
            "macs": c.macs,
            "real_macs": c.real_macs,
            "edge_crossings": {"/".join(map(str, k)): v
                               for k, v in c.edge_crossings.items()},
            "edge_demand": {"/".join(map(str, k)): v
                            for k, v in c.edge_demand.items()},
        },
    }


def result_digest(ev) -> str:
    text = json.dumps(result_doc(ev), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def corpus_report_digest(outcomes: list[str]) -> str:
    """Digest of the outcomes of the whole corpus, in corpus order."""

    return hashlib.sha256("\n".join(outcomes).encode()).hexdigest()[:16]


def report_digest(ctx: Context, report: dict) -> str:
    text = ctx.pm.canonical_json(report)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------------


class Pass:
    """What one pass measured and checked."""

    def __init__(self):
        self.wall_s = 0.0      # host time, probes excluded
        self.factor = 1.0      # speed correction of wall_s
        self.latencies_ns: list[int] = []
        self.factors: list[float] = []   # speed correction per operation
        self.failed = 0
        self.work = 0          # candidate mappings drawn, or documents
        self.energy_pj = 0.0
        self.cycles = 0
        self.digest = ""
        self.layers: dict[str, float] | None = None


def _fail(what: str, err: BaseException | None = None) -> None:
    print(f"CHECK FAILED: {what}", file=sys.stderr)
    if err is not None:
        traceback.print_exception(err, file=sys.stderr)


class _SearchRecorder:
    """Times every layer search of a pass, after a speed probe, and keeps
    its inputs and result for the check."""

    def __init__(self, search, speed: Speed):
        self.search = search
        self.speed = speed
        self.ops: list[tuple] = []
        self.factors: list[float] = []

    def __call__(self, arch, layer, cfg):
        self.speed.probe()
        self.factors.append(self.speed.factor())
        t = time.perf_counter_ns()
        try:
            out = self.search(arch, layer, cfg)
        except Exception as err:
            self.ops.append((time.perf_counter_ns() - t, arch, layer, cfg, err))
            raise
        self.ops.append((time.perf_counter_ns() - t, arch, layer, cfg, out))
        return out


def _weighted_factor(p: Pass) -> float:
    raw = sum(p.latencies_ns)
    return (sum(ns * f for ns, f in zip(p.latencies_ns, p.factors)) / raw
            if raw else 1.0)


def search_pass(ctx: Context, workload: str, exp_seed: int, traced: bool,
                speed: Speed) -> Pass:
    ex = ctx.mods["experiments"]
    cfg = ex.ExperimentConfig(experiment=workload, budget=BUDGET[workload],
                              seed=exp_seed)
    tr = tracing.Tracer() if traced else None
    run = ex.run_experiment
    if tr is not None:
        tr.install(ctx.mods)
        run = tr.span(tracing.EXPERIMENT, run)
    rec = _SearchRecorder(ex.search, speed)
    ex.search = rec
    p = Pass()
    report = None
    probes_before = speed.spent_ns
    t0 = time.perf_counter()
    try:
        report = run(cfg)
    except Exception as err:
        p.failed += 1
        _fail(f"{workload} pass seed {exp_seed} raised", err)
    finally:
        p.wall_s = (time.perf_counter() - t0
                    - (speed.spent_ns - probes_before) / 1e9)
        ex.search = rec.search
        if tr is not None:
            tr.uninstall()

    evaluate = ctx.mods["evaluator"].evaluate
    SearchResult = ctx.mods["mapper"].SearchResult
    p.factors = rec.factors
    for lat, arch, layer, scfg, out in rec.ops:
        p.latencies_ns.append(lat)
        if not isinstance(out, SearchResult):
            p.failed += 1
            _fail(f"search of {layer.name} raised", out)
            continue
        try:
            again = evaluate(arch, layer, out.mapping)
        except Exception as err:
            p.failed += 1
            _fail(f"re-evaluating the mapping found for {layer.name}", err)
            continue
        if again != out.evaluation:
            p.failed += 1
            _fail(f"re-evaluating the mapping found for {layer.name} gave a "
                  "different result")
            continue
        p.work += out.visited + out.pruned + out.invalid
        p.energy_pj += out.evaluation.total_energy_pj
        p.cycles += out.evaluation.cycles
    p.factor = _weighted_factor(p)
    if report is not None:
        p.digest = report_digest(ctx, report)
    if tr is not None:
        p.layers = tr.layer_metrics()
        # The probes ran inside run_experiment, between searches.
        p.layers["experiments.self_s"] -= (speed.spent_ns
                                           - probes_before) / 1e9
    return p


def evaluate_pass(ctx: Context, order: list[int], traced: bool,
                  speed: Speed) -> Pass:
    """One pass over the corpus. Each result is checked between
    operations, outside the timed spans, and not kept; the pass's wall
    time is the sum of its operations' times."""

    sm = ctx.mods["spec_model"]
    parse, evaluate = sm.parse_mapping, ctx.mods["evaluator"].evaluate
    MappingError = sm.MappingError
    arch, corpus = ctx.arch, ctx.corpus
    tr = tracing.Tracer() if traced else None
    if tr is not None:
        tr.install(ctx.mods)
        parse = tr.span(tracing.PARSE, parse)
        evaluate = tr.span(tracing.EVALUATE, evaluate)
    p = Pass()
    outcomes = [""] * len(corpus)
    clock = time.perf_counter_ns
    try:
        for k, i in enumerate(order):
            if k % PROBE_EVERY == 0:
                speed.probe()
                factor = speed.factor()
            layer, doc, expect = corpus[i]
            t = clock()
            try:
                out = evaluate(arch, layer, parse(doc, arch))
            except Exception as err:  # checked below
                out = err
            p.latencies_ns.append(clock() - t)
            p.factors.append(factor)
            if "error" in expect:
                ok = (isinstance(out, MappingError)
                      and out.kind == expect["error"])
                outcome = f"error:{expect['error']}"
            elif isinstance(out, BaseException):
                ok, outcome = False, ""
            else:
                outcome = result_digest(out)
                ok = outcome == expect["digest"]
                if ok:
                    p.energy_pj += out.total_energy_pj
                    p.cycles += out.cycles
            if not ok:
                p.failed += 1
                _fail(f"corpus document {i} ({layer.name}): expected "
                      f"{expect}, got {out!r}"[:500],
                      out if isinstance(out, BaseException) else None)
            outcomes[i] = outcome
    finally:
        if tr is not None:
            tr.uninstall()
    p.wall_s = sum(p.latencies_ns) / 1e9
    p.factor = _weighted_factor(p)
    p.work = len(order)
    p.digest = corpus_report_digest(outcomes)
    if tr is not None:
        p.layers = tr.layer_metrics()
    return p


# ----------------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------------


def plan(ctx: Context, workload: str, seed: int, seconds: float) -> list:
    """The passes of one run: experiment seeds, or orders of the corpus.
    How many passes a run makes depends on --seconds alone, so every run
    of a length does the same work; the seed picks the order of the
    passes, or of the documents within each pass."""

    n = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    rng = random.Random(seed)
    if workload in SEARCH_WORKLOADS:
        seeds = [FIRST_EXPERIMENT_SEED + k for k in range(n)]
        rng.shuffle(seeds)
        return seeds
    orders = []
    for _ in range(n):
        order = list(range(len(ctx.corpus)))
        rng.shuffle(order)
        orders.append(order)
    return orders


def run_pass(ctx: Context, workload: str, item, traced: bool,
             speed: Speed) -> Pass:
    if workload in SEARCH_WORKLOADS:
        return search_pass(ctx, workload, item, traced, speed)
    return evaluate_pass(ctx, item, traced, speed)


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""

    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


def tail(ordered: list[float]) -> tuple[float, float]:
    """The highest percentile of TAIL_LADDER with at least ten samples
    beyond it; the maximum when there are too few samples."""

    n = len(ordered)
    for p in TAIL_LADDER:
        if n - math.ceil(p * n / 100) >= 10:
            return p, percentile(ordered, p)
    return 100.0, ordered[-1]


def stored_digests(ctx: Context, workload: str) -> dict:
    """Report digest per pass, as the benchmark's defining commit produced
    them."""

    if workload not in SEARCH_WORKLOADS:
        return {None: ctx.corpus_digest}
    if not DIGESTS.exists():
        return {}
    entry = json.loads(DIGESTS.read_text()).get(workload, {})
    if entry.get("budget") != BUDGET[workload]:
        return {}
    return {int(k): v for k, v in entry.get("digests", {}).items()}


def print_digests(ctx: Context, workload: str, items: list,
                  passes: list[Pass]) -> None:
    """Each pass's report digest, against the stored one (informational:
    search quality is gated by model_energy_pj and model_cycles)."""

    known = stored_digests(ctx, workload)
    for item, p in zip(items, passes):
        key = item if workload in SEARCH_WORKLOADS else None
        ref = known.get(key)
        state = ("none stored" if ref is None
                 else "equal" if ref == p.digest else "DIFFERENT")
        what = (f"experiment seed {item}" if key is not None
                else "whole corpus")
        print(f"report_digest {workload} {what}: {p.digest} "
              f"(stored digest: {state})")


def end_to_end(setups: list[float], passes: list[Pass],
               corrected: bool = True) -> tuple[dict, str]:
    """The end-to-end metrics; with corrected=False, the host times as
    measured."""

    def fix(f: float) -> float:
        return f if corrected else 1.0

    lat_ms = sorted(ns * fix(f) / 1e6 for p in passes
                    for ns, f in zip(p.latencies_ns, p.factors))
    total_s = sum(p.wall_s * fix(p.factor) for p in passes)
    pct, tail_ms = tail(lat_ms)
    metrics = {
        "setup_s": (statistics.median(s * fix(f) for s, f in setups), "s"),
        "wall_s": (total_s, "s"),
        "mappings_per_s": (sum(p.work for p in passes) / total_s, "1/s"),
        "op_p50_ms": (percentile(lat_ms, 50), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "model_energy_pj": (sum(p.energy_pj for p in passes), "pJ"),
        "model_cycles": (sum(p.cycles for p in passes), "cycles"),
    }
    note = f"op_tail_ms is p{pct:g} of {len(lat_ms)} operations"
    return metrics, note


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "fraction"
    return "count"


def per_layer(untraced: list[Pass], traced: list[Pass]) -> dict:
    metrics = {}
    for name in traced[0].layers:
        unit = layer_unit(name)
        metrics[name] = (statistics.median(
            p.layers[name] * (p.factor if unit == "s" else 1.0)
            for p in traced), unit)
    metrics["trace_overhead_s"] = (statistics.median(
        t.wall_s * t.factor - u.wall_s * u.factor
        for u, t in zip(untraced, traced)), "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "photon_model" / "__init__.py").is_file():
        print(f"error: no photon_model package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    w = args.workload
    speed = Speed()
    setups: list[tuple[float, float]] = []

    def fresh() -> Context:
        # Every pass starts from a freshly imported package, so no pass
        # inherits module state from another. What set-up left behind is
        # kept out of the collector's passes while measuring.
        gc.unfreeze()
        gc.collect()
        speed.probe()
        seconds, new = setup(w)
        setups.append((seconds, speed.factor()))
        gc.collect()
        gc.freeze()
        return new

    ctx = fresh()
    items = plan(ctx, w, args.seed, args.seconds)
    modes = (False, True) if args.trace else (False,)
    runs: dict[bool, list[Pass]] = {m: [] for m in modes}
    for k, (item, traced) in enumerate((i, m) for i in items for m in modes):
        if k:
            ctx = None  # release the previous package before importing anew
            ctx = fresh()
        runs[traced].append(run_pass(ctx, w, item, traced, speed))
    while not args.trace and len(setups) < SETUPS:
        ctx = None
        ctx = fresh()
    untraced, traced = runs[False], runs.get(True, [])
    passes = untraced + traced
    attempted = sum(len(p.latencies_ns) for p in passes)
    failed = sum(p.failed for p in passes)
    for u, t in zip(untraced, traced):
        if u.digest != t.digest:
            failed += 1
            _fail("the traced pass gave another report than the untraced one")

    print(f"workload {w}: seed {args.seed}, {len(items)} passes"
          + (f", search budget {BUDGET[w]}" if w in BUDGET else
             f" of {len(ctx.corpus)} documents"))
    print_digests(ctx, w, items, untraced)
    if args.trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics, note = end_to_end(setups, untraced)
        print(note)
        raw, _ = end_to_end(setups, untraced, corrected=False)
        print("uncorrected host times: " + ", ".join(
            f"{k} {raw[k][0]:.6g} {raw[k][1]}" for k in
            ("setup_s", "wall_s", "mappings_per_s", "op_p50_ms",
             "op_tail_ms")))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>18.6g} {unit}")
    error_rate = failed / attempted if attempted else 1.0
    print(f"check: attempted {attempted}, failed {failed}, "
          f"error_rate {error_rate:g} fraction")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
