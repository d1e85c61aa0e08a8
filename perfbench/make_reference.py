"""Builds the benchmark's stored reference data. Deterministic: the same
code gives the same files.

    python3 perfbench/make_reference.py corpus
    python3 perfbench/make_reference.py digests COUNT

``corpus`` writes ``data/corpus.json.gz``, the documents of the ``evaluate``
workload. Valid documents are mappings drawn through the public ``search``
on the bundled Albireo architecture, for every layer of both bundled
networks, under the configurations the studies use: batch 1 and 16, the
keep overrides of a fused producer and a fused consumer, and a reduction
floor. Search seed and budget vary, so the documents differ. Invalid
documents are valid ones mutated so that ``evaluate`` must raise
``MappingError``: a spatial factor over the fanout, a temporal factor that
no longer covers its bound, or outer loops moved inward until a buffer
overflows. No two documents pair the same layer shape with the same
mapping. Each entry stores the digest of its full evaluation result, or the
``MappingError`` kind it must raise.

``digests`` writes ``data/report_digests.json``: the canonical report digest
of the ``throughput`` and ``memory`` passes at the first COUNT experiment
seeds, which ``run.py`` compares against.
"""

from __future__ import annotations

import gzip
import json
import random
import sys

import run

CORPUS_VALID = 10800
CORPUS_INVALID = 1200
SEEDS_PER_CONFIG = 140
BUDGETS = (2, 3, 4, 6, 8, 12)


# (batch size, keep overrides, reduction floor) of each configuration. A
# fused producer keeps its outputs off the backing store, a fused consumer
# its inputs, as the memory study's fused pairs do.
CONFIGS = ((1, None, None), (16, None, None),
           (1, "producer", None), (1, "consumer", None),
           (16, "producer", None), (1, None, 2))


def _search_config(ctx, layer, seed: int, batch: int, keep: str | None,
                   floor: int | None):
    sm = ctx.mods["spec_model"]
    keeps = {"producer": {0: (sm.WEIGHTS, sm.INPUTS)},
             "consumer": {0: (sm.WEIGHTS, sm.OUTPUTS)}}
    return ctx.mods["mapper"].SearchConfig(
        objective="energy" if seed % 2 else "delay",
        budget=BUDGETS[seed % len(BUDGETS)], seed=seed,
        strategy="pruned_random", pad_mode="pad", batch_size=batch,
        keep_overrides=keeps.get(keep, {}),
        fixed_spatial=ctx.mods["albireo"].geometry_pins(layer),
        reduction_floor=floor)


def _shape(layer) -> str:
    return json.dumps([sorted(layer.dims.items()), list(layer.stride),
                       sorted(layer.bits.items())])


def _mutations(doc: dict, arch, rng: random.Random):
    """Invalid variants of a valid mapping document, one per kind."""

    levels = doc["mapping"]["levels"]
    # A spatial factor beyond the level's fanout.
    j = rng.randrange(1, len(levels))
    d = rng.choice(("K", "C"))
    bad = json.loads(json.dumps(doc))
    sp = bad["mapping"]["levels"][j]["spatial"]
    sp[d] = sp.get(d, 1) * (arch.levels[j].fanout + 1)
    yield bad
    # A temporal factor dropped, so the dim's bound is no longer covered.
    factors = [(j, d) for j, lv in enumerate(levels)
               for d, f in lv["temporal"].items() if f > 1]
    if factors:
        j, d = rng.choice(factors)
        bad = json.loads(json.dumps(doc))
        lv = bad["mapping"]["levels"][j]
        del lv["temporal"][d]
        if d in lv["permutation"]:
            lv["permutation"].remove(d)
        yield bad
    # Every backing-store loop moved into the innermost temporal level, so
    # the buffers above it hold the whole tensor.
    if levels[0]["temporal"]:
        bad = json.loads(json.dumps(doc))
        outer, inner = bad["mapping"]["levels"][0], bad["mapping"]["levels"][-1]
        for d, f in outer["temporal"].items():
            inner["temporal"][d] = inner["temporal"].get(d, 1) * f
            if d not in inner["permutation"]:
                inner["permutation"].append(d)
        outer["temporal"], outer["permutation"] = {}, []
        yield bad


def make_corpus() -> None:
    _, ctx = run.setup("throughput")
    pm, arch = ctx.pm, ctx.arch
    rng = random.Random(2405_07266)
    seen: set[tuple[str, str]] = set()
    valid, invalid = [], []

    def add(pool, net, layer, doc, expect) -> bool:
        key = (_shape(layer), json.dumps(doc, sort_keys=True))
        if key in seen:
            return False
        seen.add(key)
        pool.append({"network": net, "layer": layer.name, "mapping": doc,
                     "expect": expect})
        return True

    for (net, _), layer in ctx.layers.items():
        for ci, config in enumerate(CONFIGS):
            found = 0
            for seed in range(SEEDS_PER_CONFIG):
                try:
                    res = pm.search(arch, layer,
                                    _search_config(ctx, layer, seed, *config))
                except pm.NoValidMapping:
                    continue
                doc = pm.serialize_mapping(res.mapping, arch)
                ev = pm.evaluate(arch, layer, pm.parse_mapping(doc, arch))
                if not add(valid, net, layer, doc,
                           {"digest": run.result_digest(ev)}):
                    continue
                found += 1
                for bad in _mutations(doc, arch, rng):
                    try:
                        pm.evaluate(arch, layer, pm.parse_mapping(bad, arch))
                    except pm.MappingError as err:
                        add(invalid, net, layer, bad, {"error": err.kind})
            print(f"{net} {layer.name} config {ci}: {found} distinct",
                  file=sys.stderr)

    rng.shuffle(valid)
    rng.shuffle(invalid)
    # Take invalid documents round-robin over MappingError kinds, so no kind
    # crowds out the rarer ones.
    by_kind: dict[str, list] = {}
    for e in invalid:
        by_kind.setdefault(e["expect"]["error"], []).append(e)
    picked = []
    while len(picked) < CORPUS_INVALID and any(by_kind.values()):
        for kind in sorted(by_kind):
            if by_kind[kind] and len(picked) < CORPUS_INVALID:
                picked.append(by_kind[kind].pop())
    entries = valid[:CORPUS_VALID] + picked
    rng.shuffle(entries)
    outcomes = [e["expect"].get("digest") or f"error:{e['expect']['error']}"
                for e in entries]
    keys = {(_shape(ctx.layers[(e["network"], e["layer"])]),
             json.dumps(e["mapping"], sort_keys=True)) for e in entries}
    n_invalid = sum("error" in e["expect"] for e in entries)
    kinds: dict[str, int] = {}
    for e in entries:
        if "error" in e["expect"]:
            kinds[e["expect"]["error"]] = kinds.get(e["expect"]["error"], 0) + 1
    meta = {
        "size": len(entries),
        "invalid": n_invalid,
        "invalid_share": n_invalid / len(entries),
        "invalid_kinds": dict(sorted(kinds.items())),
        "duplicate_share": 1 - len(keys) / len(entries),
        "valid_pool": len(valid),
        "invalid_pool": len(invalid),
        "networks": {net: sum(e["network"] == net for e in entries)
                     for net in run.NETWORKS},
        "batched": sum(e["mapping"]["mapping"]["batch_size"] > 1
                       for e in entries),
        "keep_overrides": sum(bool(e["mapping"]["mapping"]["keep_overrides"])
                              for e in entries),
    }
    doc = {"meta": meta, "report_digest": run.corpus_report_digest(outcomes),
           "entries": entries}
    run.DATA.mkdir(exist_ok=True)
    with gzip.GzipFile(run.CORPUS, "wb", mtime=0) as f:
        f.write(json.dumps(doc, separators=(",", ":")).encode())
    print(json.dumps(meta, indent=2))


def make_digests(count: int) -> None:
    out = {}
    for workload in run.SEARCH_WORKLOADS:
        digests = {}
        for k in range(count):
            exp_seed = run.FIRST_EXPERIMENT_SEED + k
            _, ctx = run.setup(workload)
            p = run.search_pass(ctx, workload, exp_seed, traced=False,
                                speed=run.Speed())
            if p.failed:
                raise SystemExit(f"{workload} seed {exp_seed}: check failed")
            digests[str(exp_seed)] = p.digest
            print(workload, exp_seed, p.digest, file=sys.stderr)
        out[workload] = {"budget": run.BUDGET[workload], "digests": digests}
    run.DIGESTS.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(run.SRC))
    if argv[:1] == ["corpus"] and len(argv) == 1:
        make_corpus()
    elif argv[:1] == ["digests"] and len(argv) == 2:
        make_digests(int(argv[1]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
