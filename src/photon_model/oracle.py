"""Brute-force loop-nest interpreter used to verify the closed forms.

simulate() executes the mapped nest step by step: an odometer advances the
concatenated temporal loops, tile residencies begin and end exactly when
the loop indices that address them change, spatial sharing is measured by
enumerating instance coordinates and collapsing the components a mesh may
merge, refetch of partial outputs is detected with seen-before key sets,
and in-bounds MACs are counted coordinate by coordinate. It reads only
spec_model, never reuse: it pairs each tensor's keeper levels (read,
with its level counters, from validation_plan's keep table) into hops
itself, and no counting shortcut is reused; the two must agree exactly.
It reads each level's permutation itself too, the one reading besides
LoopNest.loops, so that each checks the other.
"""

from __future__ import annotations

import itertools
from math import prod
from typing import NamedTuple

from .spec_model import (
    DIMS,
    DOWN,
    INPUTS,
    OUTPUTS,
    REDUCED_DIMS,
    TENSOR_DIMS,
    TENSORS,
    UP,
    WEIGHTS,
    AccessCounts,
    Architecture,
    Layer,
    LevelCounts,
    LevelMapping,
    Mapping,
    effective_bounds,
    tile_values,
    validate_mapping,
    validation_plan,
)

DEFAULT_CAP = 10_000_000


class OracleCapExceeded(Exception):
    """The nest is too large to interpret exhaustively."""

    def __init__(self, macs: int, cap: int):
        self.macs = macs
        self.cap = cap
        super().__init__(f"{macs} MACs exceed the interpreter cap of {cap}")


class _Hop(NamedTuple):
    """A transfer between consecutive ends of a tensor's chain across
    `edges`, outermost first; inner is the compute level for the last hop
    of an operand and for the Outputs stream."""

    tensor: str
    outer: int
    inner: int
    edges: tuple[int, ...]


def _hops(tensor: str, ends: tuple[int, ...]) -> list[_Hop]:
    return [_Hop(tensor, outer, inner, tuple(range(outer + 1, inner + 1)))
            for outer, inner in zip(ends, ends[1:])]


class _PaddedDim:
    """Per-step in-bounds counting for one padded dim. The coordinate is the
    mixed-radix composition of the dim's loops, outermost first; the count
    of valid spatial combinations is cached per temporal index tuple."""

    def __init__(self, bound: int, chain: list[tuple[str, int, int]]):
        self.bound = bound
        self.chain = chain           # (kind "t"|"s", loop position | -1, extent)
        self.tpos = [pos for kind, pos, _ in chain if kind == "t"]
        self.scount = prod(e for kind, _, e in chain if kind == "s")
        self.cache: dict[tuple[int, ...], int] = {}

    def count(self, tkey: tuple[int, ...]) -> int:
        hit = self.cache.get(tkey)
        if hit is not None:
            return hit
        svals = [range(e) for kind, _, e in self.chain if kind == "s"]
        n = 0
        for combo in itertools.product(*svals):
            v = 0
            ti = si = 0
            for kind, _, e in self.chain:
                if kind == "t":
                    v = v * e + tkey[ti]
                    ti += 1
                else:
                    v = v * e + combo[si]
                    si += 1
            if v < self.bound:
                n += 1
        self.cache[tkey] = n
        return n


def _read_loops(levels: tuple[LevelMapping, ...]
                ) -> list[tuple[int, str, int]]:
    """The temporal loops as LoopNest.loops lists them, read from each
    level's permutation here, not from there (see the module docstring)."""

    return [(j, d, lm.t(d)) for j, lm in enumerate(levels)
            for d in dict.fromkeys((*lm.permutation, *DIMS)) if lm.t(d) > 1]


def simulate(arch: Architecture, layer: Layer, mapping: Mapping,
             cap: int = DEFAULT_CAP) -> AccessCounts:
    """Interpret the mapped loop nest and count every event."""

    validate_mapping(mapping, layer, arch)
    compute = len(arch.levels) - 1

    loops = _read_loops(mapping.levels)
    axes: list[tuple[int, str, int]] = []
    for j, lm in enumerate(mapping.levels):
        for d in DIMS:
            if lm.s(d) > 1:
                axes.append((j, d, lm.s(d)))

    steps = prod(e for _, _, e in loops)
    spatial = prod(e for _, _, e in axes)
    macs = steps * spatial
    if macs > cap:
        raise OracleCapExceeded(macs, cap)

    def inst(level: int) -> int:
        return prod(e for lv, _, e in axes if lv <= level)

    def masked_count(hop_inner: int, edge: int, tensor: str, direction: str) -> int:
        """Distinct signals at an edge: enumerate the inner level's instance
        coordinates and zero every component the meshes at this edge and
        deeper may merge for this tensor."""

        incl = [(lv, d, e) for lv, d, e in axes if lv <= hop_inner]
        drop = []
        for lv, d, _ in incl:
            if edge <= lv:
                if direction == DOWN:
                    drop.append(d not in TENSOR_DIMS[tensor]
                                and arch.mesh_into(lv).may_multicast)
                else:
                    drop.append(d in REDUCED_DIMS
                                and arch.mesh_into(lv).may_reduce)
            else:
                drop.append(False)
        distinct = set()
        for combo in itertools.product(*(range(e) for _, _, e in incl)):
            distinct.add(tuple(0 if drop[i] else combo[i]
                               for i in range(len(incl))))
        return len(distinct)

    sizes = {(i, t): tile_values(layer, mapping.nest.tiles[i], t)
             for i in range(compute) for t in TENSORS}

    def relevant_positions(level: int, tensor: str) -> list[int]:
        dims = TENSOR_DIMS[tensor]
        return [i for i, (lj, d, _) in enumerate(loops)
                if lj <= level and d in dims]

    # Monitors: count the steps on which a storage level's tile of a tensor
    # moves. A hop fires exactly when its inner end's coordinates change,
    # which happens iff the advanced loop is at or outside the innermost
    # loop addressing that tile.
    plan = validation_plan(arch, mapping.keep_overrides, mapping.keep_key)
    chains = plan.chains
    wi_hops = []                    # (hop, monitor index or None for compute)
    wi_pos = []
    wi_events = []
    for t in (WEIGHTS, INPUTS):
        for hop in _hops(t, chains[t] + (compute,)):
            if hop.inner == compute:
                wi_hops.append((hop, None))
            else:
                rel = relevant_positions(hop.inner, t)
                wi_pos.append(rel[-1] if rel else -1)
                wi_events.append(1)
                wi_hops.append((hop, len(wi_events) - 1))

    acc = chains[OUTPUTS][-1]       # the innermost keeper accumulates
    stream = _hops(OUTPUTS, (acc, compute))[0]
    o_monitors = []
    for hop in _hops(OUTPUTS, chains[OUTPUTS]):
        rel = relevant_positions(hop.inner, OUTPUTS)
        o_monitors.append({
            "hop": hop,
            "pos": rel[-1] if rel else -1,
            "rel": rel,
            "seen": set(),
            "fires": 0,
            "refetch": 0,
        })

    bounds = effective_bounds(layer, mapping.batch_size)
    loop_of = {(lj, d): i for i, (lj, d, _) in enumerate(loops)}
    const_valid = 1
    padded_dims: list[_PaddedDim] = []
    for d in DIMS:
        chain: list[tuple[str, int, int]] = []
        covered = 1
        for j, lm in enumerate(mapping.levels):
            if lm.s(d) > 1:
                chain.append(("s", -1, lm.s(d)))
                covered *= lm.s(d)
            if lm.t(d) > 1:
                chain.append(("t", loop_of[(j, d)], lm.t(d)))
                covered *= lm.t(d)
        if covered == bounds[d]:
            const_valid *= prod(e for kind, _, e in chain if kind == "s")
        else:
            padded_dims.append(_PaddedDim(bounds[d], chain))

    # ------------------------------------------------------------------
    # The walk.
    # ------------------------------------------------------------------
    n = len(loops)
    extents = [e for _, _, e in loops]
    idx = [0] * n
    real = 0

    for step in range(steps):
        if step:
            i = n - 1
            while idx[i] == extents[i] - 1:
                idx[i] = 0
                i -= 1
            idx[i] += 1
            p = i
            for mi, pos in enumerate(wi_pos):
                if p <= pos:
                    wi_events[mi] += 1
            for m in o_monitors:
                if p <= m["pos"]:
                    m["fires"] += 1
                    key = tuple(idx[q] for q in m["rel"])
                    if key in m["seen"]:
                        m["refetch"] += 1
                    else:
                        m["seen"].add(key)
        else:
            for m in o_monitors:
                m["seen"].add(tuple(idx[q] for q in m["rel"]))
        if padded_dims:
            v = const_valid
            for pd in padded_dims:
                v *= pd.count(tuple(idx[q] for q in pd.tpos))
            real += v
    if not padded_dims:
        real = steps * const_valid

    # ------------------------------------------------------------------
    # Assembly from observed event counts.
    # ------------------------------------------------------------------
    counts = AccessCounts(macs=macs, real_macs=real, per_level={
        (i, t): LevelCounts() for i, keeps, _, _ in plan.capacity
        for t in TENSORS if t in keeps})
    for cv in arch.converters:
        for t in cv.tensors:
            counts.conversions[(cv.name, t)] = 0
    counts.compute_reads = {t: macs for t in TENSORS}

    def cross(hop, events, size, direction):
        for k in hop.edges:
            cnt = (events * masked_count(hop.inner, k, hop.tensor, direction)
                   * size)
            key = (k, hop.tensor, direction)
            counts.edge_crossings[key] = counts.edge_crossings.get(key, 0) + cnt
            cv = arch.edge_converters.get(key)
            if cv is not None:
                counts.conversions[(cv.name, hop.tensor)] += cnt

    for tensor in (WEIGHTS, INPUTS):
        hops = [(h, mi) for h, mi in wi_hops if h.tensor == tensor]
        bases = []
        for hop, mi in hops:
            if mi is None:
                bases.append(macs)
            else:
                bases.append(wi_events[mi] * sizes[(hop.inner, tensor)]
                             * inst(hop.inner))
        for i, (hop, mi) in enumerate(hops):
            events = steps if mi is None else wi_events[mi]
            size = 1 if mi is None else sizes[(hop.inner, tensor)]
            hop_inner = compute if mi is None else hop.inner
            delivered = (events * size
                         * masked_count(hop_inner, hop.edges[0], tensor, DOWN))
            counts.per_level[(hop.outer, tensor)].reads += delivered
            if mi is not None:
                counts.per_level[(hop.inner, tensor)].fills += delivered
            cross(hop, events, size, DOWN)
            demand = bases[i + 1] if i + 1 < len(hops) else macs
            for k in hop.edges:
                key = (k, tensor, DOWN)
                counts.edge_demand[key] = counts.edge_demand.get(key, 0) + demand

    # MAC partials stream into the accumulation level every step.
    arrivals = steps * masked_count(compute, stream.edges[0], OUTPUTS, UP)
    counts.per_level[(acc, OUTPUTS)].updates += arrivals
    counts.per_level[(acc, OUTPUTS)].reads += arrivals
    cross(stream, steps, 1, UP)
    for k in stream.edges:
        counts.edge_demand[(k, OUTPUTS, UP)] = macs

    demand_into = arrivals
    for m in reversed(o_monitors):
        hop = m["hop"]
        inner, outer = hop.inner, hop.outer
        residencies = m["fires"] + 1
        size = sizes[(inner, OUTPUTS)]
        counts.per_level[(inner, OUTPUTS)].drains += residencies * size * inst(inner)
        merged = (residencies * size
                  * masked_count(inner, hop.edges[0], OUTPUTS, UP))
        counts.per_level[(outer, OUTPUTS)].updates += merged
        cross(hop, residencies, size, UP)
        for k in hop.edges:
            counts.edge_demand[(k, OUTPUTS, UP)] = demand_into
        if m["refetch"]:
            filled = (m["refetch"] * size
                      * masked_count(inner, hop.edges[0], OUTPUTS, DOWN))
            counts.per_level[(inner, OUTPUTS)].fills += filled
            counts.per_level[(outer, OUTPUTS)].reads += filled
            cross(hop, m["refetch"], size, DOWN)
            for k in hop.edges:
                counts.edge_demand[(k, OUTPUTS, DOWN)] = (
                    m["refetch"] * size * inst(inner))
        demand_into = merged

    return counts
