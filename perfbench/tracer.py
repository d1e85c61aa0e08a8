"""Outside-in tracer for photon_model.

The tracer changes no file of the package. It rebinds the names that each
package module looks up at call time, most of them imported from another
module (``experiments.search``, ``mapper.analyze``, ``evaluator.analyze``,
``reuse.validate_mapping`` ...), to wrappers that record one span per call:
its name, start, end and the span that was open when it started. Spans stay
in memory until the run ends. A span's self time is its duration minus the
time its child spans cover.

Counters are recorded at the ``mapper.search`` boundary: the returned
``SearchResult`` statistics, the distinct mapping digests of the full
evaluations made inside the search, and whether an identical search was
already made in the same pass.
"""

from __future__ import annotations

import time

SEARCH = "mapper.search"
ANALYZE_FLOOR = "reuse.analyze_floor"
ANALYZE = "reuse.analyze"
EVALUATE = "evaluator.evaluate"
ENERGY = "evaluator.energy"
VALIDATE = "spec_model.validate_mapping"
PARSE = "spec_model.parse"
EXPERIMENT = "experiments.run_experiment"

SPAN_NAMES = (SEARCH, ANALYZE_FLOOR, ANALYZE, EVALUATE, ENERGY, VALIDATE,
              PARSE, EXPERIMENT)


def _analyze_name(args, kwargs) -> str:
    optimistic = kwargs.get("optimistic", args[3] if len(args) > 3 else False)
    return ANALYZE_FLOOR if optimistic else ANALYZE


def search_key(arch, layer, cfg) -> tuple:
    """What makes two searches identical: architecture, layer shape and
    value widths, and the whole search configuration."""

    return (repr(arch), tuple(sorted(layer.dims.items())), layer.stride,
            tuple(sorted(layer.bits.items())), repr(cfg))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        # One dict per mapper.search call.
        self.searches: list[dict] = []
        self._seen_searches: set[tuple] = set()

    # -- spans ---------------------------------------------------------------

    def span(self, name, fn, on_return=None):
        """Wrap fn so every call records a span. name is a span name or a
        function of (args, kwargs) that picks one."""

        names, starts, ends, parents, open_ = (
            self.names, self.starts, self.ends, self.parents, self._open)
        clock = time.perf_counter_ns
        pick = name if callable(name) else None

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(pick(args, kwargs) if pick else name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0)
            open_.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _search(self, fn):
        inner = self.span(SEARCH, fn)

        def traced(arch, layer, cfg):
            key = search_key(arch, layer, cfg)
            rec = {"repeat": key in self._seen_searches, "digests": set(),
                   "evaluations": 0, "result": None}
            self._seen_searches.add(key)
            self.searches.append(rec)
            rec["result"] = inner(arch, layer, cfg)
            return rec["result"]

        return traced

    def _count_evaluation(self, result) -> None:
        rec = self.searches[-1]
        rec["evaluations"] += 1
        rec["digests"].add(result.mapping_digest)

    # -- installation --------------------------------------------------------

    def _bind(self, module, attr: str, wrapper) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self, mods: dict) -> None:
        """Rebind the traced names in the package modules `mods` (keyed by
        module name). `uninstall` restores the originals."""

        ex, mp, ev, ru, wl, al = (mods["experiments"], mods["mapper"],
                                  mods["evaluator"], mods["reuse"],
                                  mods["workloads"], mods["albireo"])
        self._bind(ex, "search", self._search(ex.search))
        for m in (mp, ev, ex):
            self._bind(m, "analyze", self.span(_analyze_name, m.analyze))
        self._bind(mp, "evaluate", self.span(EVALUATE, mp.evaluate,
                                             self._count_evaluation))
        self._bind(ex, "evaluate", self.span(EVALUATE, ex.evaluate))
        # evaluator.evaluate looks `energy` up in its own module, so the
        # module attribute is rebound there too.
        for m in (mp, ev, ex):
            self._bind(m, "energy", self.span(ENERGY, m.energy))
        self._bind(ru, "validate_mapping",
                   self.span(VALIDATE, ru.validate_mapping))
        for m, attr in ((wl, "load_document"), (wl, "parse_spec"),
                        (al, "parse_architecture"),
                        (ex, "parse_architecture")):
            self._bind(m, attr, self.span(PARSE, getattr(m, attr)))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per span name, plus the search counters."""

        n = len(self.names)
        child = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_ns = dict.fromkeys(SPAN_NAMES, 0)
        for i in range(n):
            name = self.names[i]
            calls[name] += 1
            self_ns[name] += self.ends[i] - self.starts[i] - child[i]

        out: dict[str, float] = {}
        for name in (SEARCH, ANALYZE_FLOOR, ANALYZE, EVALUATE, ENERGY,
                     VALIDATE, PARSE):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        out["experiments.self_s"] = self_ns[EXPERIMENT] / 1e9

        results = [r["result"] for r in self.searches
                   if r["result"] is not None]
        visited = sum(r.visited for r in results)
        pruned = sum(r.pruned for r in results)
        invalid = sum(r.invalid for r in results)
        candidates = visited + pruned + invalid
        evaluations = sum(r["evaluations"] for r in self.searches)
        distinct = sum(len(r["digests"]) for r in self.searches)
        out["mapper.candidates"] = candidates
        out["mapper.visited"] = visited
        out["mapper.pruned"] = pruned
        out["mapper.invalid"] = invalid
        out["mapper.prune_ratio"] = pruned / candidates if candidates else 0.0
        out["mapper.unique_eval_ratio"] = (distinct / evaluations
                                           if evaluations else 0.0)
        out["mapper.repeat_search_share"] = (
            sum(r["repeat"] for r in self.searches) / len(self.searches)
            if self.searches else 0.0)
        return out
