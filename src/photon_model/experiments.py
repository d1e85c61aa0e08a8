"""Experiment drivers for the bundled accelerator studies.

Each runner is a pure function of (spec files, config, seed) and returns a
schema-versioned report dict whose canonical JSON form is byte-stable, so
repeated runs can be diffed directly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from . import albireo
from .components import (
    DEFAULT_PROFILE,
    PROFILES,
    breakdown_error,
    calibration_factors,
)

# energy and analyze go unused here; perfbench/tracer.py rebinds them.
from .evaluator import energy, evaluate, peak_spatial_macs
from .mapper import NoValidMapping, SearchConfig, SearchResult, search
from .reuse import analyze
from .spec_model import (
    INPUTS,
    OUTPUTS,
    REDUCED_DIMS,
    TENSORS,
    WEIGHTS,
    Architecture,
    Layer,
    Mapping,
    MappingError,
    Spec,
    SpecError,
    Workload,
    dataclass_table,
    demand,
    effective_bounds,
    parse_architecture,
    serialize_architecture,
    stencil_pins,
)
from .workloads import load_reference_breakdown, load_spec, load_workload

EXPERIMENTS = ("breakdown", "throughput", "memory", "reuse_sweep")

SCHEMA_VERSION = 1


class SweepInfeasible(Exception):
    def __init__(self, axis: str, value: int, message: str):
        self.axis = axis
        self.value = value
        super().__init__(f"{axis}={value}: {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    arch: str | None = None
    workload: str | None = None
    profile: str = DEFAULT_PROFILE
    batch_sizes: tuple[int, ...] = (16,)
    fusion: str = "on"
    fusion_buffer: str = "fixed"
    buffer_energy_exponent: float = 0.5
    sweep_axis: str = "ao_per_ae_weight"
    sweep_values: tuple[int, ...] = (1, 2, 4, 8)
    budget: int = 600
    seed: int = 7
    output_dir: str | None = None

    def __post_init__(self):
        for name, value in _CONFIG.read(vars(self), "experiment").items():
            object.__setattr__(self, name, value)
        if self.experiment not in EXPERIMENTS:
            raise SpecError("MalformedDocument", "experiment.experiment",
                            f"unknown experiment {self.experiment!r}")
        if self.experiment == "memory" and not self.batch_sizes:
            raise SpecError("MalformedDocument", "experiment.batch_sizes",
                            "memory experiment needs at least one batch size")
        if any(b < 1 for b in self.batch_sizes):
            raise SpecError("MalformedDocument", "experiment.batch_sizes",
                            "batch sizes must be positive")
        if len(set(self.batch_sizes)) != len(self.batch_sizes):
            raise SpecError("MalformedDocument", "experiment.batch_sizes",
                            "batch sizes must not repeat")
        if self.profile not in PROFILES:
            raise SpecError("MalformedDocument", "experiment.profile",
                            f"unknown profile {self.profile!r}")
        if self.fusion not in ("on", "off"):
            raise SpecError("MalformedDocument", "experiment.fusion",
                            f"fusion must be on or off, got {self.fusion!r}")
        if self.fusion_buffer not in ("fixed", "auto"):
            raise SpecError("MalformedDocument", "experiment.fusion_buffer",
                            "fusion_buffer must be fixed or auto")
        if self.sweep_axis not in albireo.AXES:
            raise SpecError("MalformedDocument", "experiment.sweep_axis",
                            f"unknown sweep axis {self.sweep_axis!r}")
        if self.experiment == "reuse_sweep" and self.arch not in (
                None, albireo.NAME):
            raise SpecError("MalformedDocument", "experiment.arch",
                            "reuse_sweep varies the bundled geometry; it "
                            f"cannot sweep {self.arch!r}")
        if self.experiment == "reuse_sweep" and not self.sweep_values:
            raise SpecError("MalformedDocument", "experiment.sweep_values",
                            "reuse_sweep needs at least one sweep value")
        if any(v < 1 for v in self.sweep_values):
            raise SpecError("MalformedDocument", "experiment.sweep_values",
                            "sweep values must be positive")
        if len(set(self.sweep_values)) != len(self.sweep_values):
            raise SpecError("MalformedDocument", "experiment.sweep_values",
                            "sweep values must not repeat")
        if self.budget < 1:
            raise SpecError("MalformedDocument", "experiment.budget",
                            "budget must be positive")
        if self.seed < 0:
            raise SpecError("MalformedDocument", "experiment.seed",
                            "seed must be >= 0")


_CONFIG = dataclass_table(ExperimentConfig)


def parse_experiment_config(doc: dict) -> ExperimentConfig:
    return ExperimentConfig(**_CONFIG.read(doc, "experiment"))


# ----------------------------------------------------------------------------
# Shared machinery
# ----------------------------------------------------------------------------


def accelerator_scope(energies: dict[str, float],
                      arch: Architecture) -> dict[str, float]:
    """The accelerator's energies: all but the backing store's, which is
    the outermost level's part."""

    store = arch.levels[0].component.name
    return {k: v for k, v in energies.items() if k != store}


def _spec(cfg: ExperimentConfig) -> Spec:
    """The configured architecture and its parts, unrefined, under the
    configured profile."""

    return load_spec(cfg.arch or albireo.NAME, cfg.profile, "architecture")


def _workload(cfg: ExperimentConfig) -> Workload:
    return load_workload(cfg.workload or "vgg16")


def _search_layer(arch: Architecture, layer: Layer, cfg: ExperimentConfig,
                  objective: str, batch_size: int = 1,
                  keep_overrides: dict | None = None) -> SearchResult:
    sc = SearchConfig(
        objective=objective,
        budget=cfg.budget,
        seed=cfg.seed,
        strategy="pruned_random",
        pad_mode="pad",
        batch_size=batch_size,
        keep_overrides=keep_overrides or {},
        fixed_spatial=stencil_pins(layer, arch),
    )
    return search(arch, layer, sc)


def _sum_energy(maps: list[dict[str, float]]) -> dict[str, float]:
    out: dict[str, float] = {}
    for m in maps:
        for k in sorted(m):
            out[k] = out.get(k, 0.0) + m[k]
    return out


def _config_echo(cfg: ExperimentConfig) -> dict:
    doc = asdict(cfg)
    del doc["output_dir"]  # a report's bytes do not depend on where it goes
    doc["batch_sizes"] = list(cfg.batch_sizes)
    doc["sweep_values"] = list(cfg.sweep_values)
    return doc


# ----------------------------------------------------------------------------
# Energy breakdown and calibration
# ----------------------------------------------------------------------------


def run_breakdown(cfg: ExperimentConfig) -> dict:
    """Calibrate the architecture's own parts against the bundled reference
    breakdown, then report modeled-vs-reference energies. A part's priced
    energy is linear in its action energies and static power, so scaling
    them by its factor scales the searches' energies by it."""

    arch = _spec(cfg).architecture
    reference = load_reference_breakdown()
    ref_total = sum(reference.values())
    fractions = {c: v / ref_total for c, v in reference.items()}

    contributions = accelerator_scope(_sum_energy(
        [_search_layer(arch, layer, cfg, "energy").evaluation.energy_pj
         for layer in _workload(cfg).layers]), arch)
    factors = calibration_factors(fractions, contributions)
    modeled = {c: v * factors.get(c, 1.0) for c, v in contributions.items()}

    overall_pct, per_pp = breakdown_error(modeled, reference)
    mod_total = sum(modeled.values())

    rows = []
    for comp in sorted(set(reference) | set(modeled)):
        rows.append({
            "component": comp,
            "reference_pj": reference.get(comp, 0.0),
            "modeled_pj": modeled.get(comp, 0.0),
            "reference_fraction": reference.get(comp, 0.0) / ref_total,
            "modeled_fraction": (modeled.get(comp, 0.0) / mod_total
                                 if mod_total else 0.0),
            "error_pp": per_pp[comp],
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": "breakdown",
        "config": _config_echo(cfg),
        "reference_total_pj": ref_total,
        "modeled_total_pj": mod_total,
        "overall_error_pct": overall_pct,
        "max_component_error_pp": max(per_pp.values()) if per_pp else 0.0,
        "calibration_factors": {k: factors[k] for k in sorted(factors)},
        "tables": {"breakdown": rows},
    }


# ----------------------------------------------------------------------------
# Throughput
# ----------------------------------------------------------------------------


def run_throughput(cfg: ExperimentConfig) -> dict:
    """Modeled vs ideal throughput for the bundled workloads.

    Ideal assumes every spatial MAC busy every cycle; modeled divides real
    (unpadded) MACs by the stall-aware cycle count of the searched
    delay-optimal mappings."""

    arch = _spec(cfg).architecture
    peak = peak_spatial_macs(arch)
    clock_hz = arch.clock_ghz * 1e9
    names = [cfg.workload] if cfg.workload else ["vgg16", "alexnet"]

    rows = []
    summary = {}
    for name in names:
        total_real = 0
        total_cycles = 0
        for layer in load_workload(name).layers:
            res = _search_layer(arch, layer, cfg, "delay")
            ev = res.evaluation
            total_real += ev.counts.real_macs
            total_cycles += ev.cycles
            rows.append({
                "workload": name,
                "layer": layer.name,
                "real_macs": ev.counts.real_macs,
                "padded_macs": ev.counts.macs,
                "compute_cycles": ev.compute_cycles,
                "cycles": ev.cycles,
                "utilization": ev.utilization,
            })
        modeled = total_real * clock_hz / total_cycles
        ideal = peak * clock_hz
        summary[name] = {
            "real_macs": total_real,
            "cycles": total_cycles,
            "ideal_macs_per_s": ideal,
            "modeled_macs_per_s": modeled,
            "ratio": modeled / ideal,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": "throughput",
        "config": _config_echo(cfg),
        "peak_spatial_macs": peak,
        "workloads": summary,
        "tables": {"layers": rows},
    }


# ----------------------------------------------------------------------------
# Memory: batching and fusion
# ----------------------------------------------------------------------------


def _insert_batch_loop(mapping: Mapping, level: int, b: int) -> Mapping:
    """Multiply the batch loop at `level` by b, ordered before any reduced
    loop there so kept output tiles are never revisited. Leaves every tile
    at or inside `level` unchanged. Weight traffic from the backing store
    stays constant per batch only when no weight-dim loop at `level` runs
    inside the inserted N; otherwise each image walks the weight tiles
    again."""

    lm = mapping.levels[level]
    temporal = dict(lm.temporal)
    temporal["N"] = lm.t("N") * b
    order = [d for j, d, _ in mapping.nest.loops if j == level and d != "N"]
    cut = next((i for i, d in enumerate(order) if d in REDUCED_DIMS),
               len(order))
    perm = (*order[:cut], "N", *order[cut:])
    levels = list(mapping.levels)
    levels[level] = replace(lm, temporal=temporal, permutation=perm)
    return replace(mapping, levels=tuple(levels), batch_size=b)


def _buffer_level(arch: Architecture) -> int:
    """The outermost on-chip level that keeps every tensor: the buffer
    layers share, where fused intermediates live and the batch loop goes."""

    for j in range(1, len(arch.levels)):
        if set(arch.levels[j].keeps) == set(TENSORS):
            return j
    raise SpecError("MalformedDocument", "architecture",
                    "no on-chip level keeps all tensors")


def _resized_buffer_arch(cfg: ExperimentConfig, required_bits: int,
                         spec: Spec) -> Architecture:
    """`spec`'s architecture, its buffer's entry refined to `required_bits`
    and access energy scaled by (new/old)^exponent, read against its parts."""

    base_arch = spec.architecture
    level = _buffer_level(base_arch)
    doc = serialize_architecture(base_arch)
    entry = doc["levels"][level]
    factor = ((required_bits / base_arch.levels[level].component.capacity_bits)
              ** cfg.buffer_energy_exponent)
    entry.update(capacity_bits=required_bits,
                 energy_scale=entry.get("energy_scale", 1.0) * factor)
    return parse_architecture(doc, spec.library)


def _leg_row(leg: str, b: int, per_layer: list, baseline_total: float | None,
             store: str) -> tuple[dict, dict[str, float]]:
    """Aggregate per-layer evaluations into one report row (per inference);
    `store` names the backing store's part."""

    comps = _sum_energy([ev.energy_pj for ev in per_layer])
    comps = {k: v / b for k, v in comps.items()}
    total = sum(comps[k] for k in sorted(comps))
    dram = comps.get(store, 0.0)
    latency_s = sum(ev.latency_s for ev in per_layer)
    weight_reads = sum(ev.counts.per_level[(0, WEIGHTS)].reads
                       for ev in per_layer)
    row = {
        "leg": leg,
        "batch_size": b,
        "energy_per_inference_pj": total,
        "dram_pj": dram,
        "dram_share": dram / total if total else 0.0,
        "latency_per_batch_ms": latency_s * 1e3,
        "latency_per_inference_ms": latency_s * 1e3 / b,
        "dram_weight_reads_per_batch": weight_reads,
        "improvement_vs_baseline": (baseline_total / total
                                    if baseline_total else 1.0),
    }
    return row, comps


def run_memory_experiment(cfg: ExperimentConfig) -> dict:
    """Baseline, batched, fused, and batched+fused system energy.

    The baseline leg is each layer's unconstrained energy search. The
    batched leg inserts a batch loop at the shared buffer level into each
    baseline mapping and keeps that rewrite when its evaluation is valid
    and reads DRAM weights as often as the baseline's, i.e. once per batch;
    any other layer takes its batch-b search. Fused pairs are searched
    with the intermediate kept on chip, and every attempted pair is
    reported, with the reason for one that is not fused."""

    spec = _spec(cfg)
    arch = spec.architecture
    layers = list(_workload(cfg).layers)
    buffer_level = _buffer_level(arch)
    capacity = arch.levels[buffer_level].component.capacity_bits

    baseline = [
        _search_layer(arch, layer, cfg, "energy") for layer in layers
    ]
    base_evals = [r.evaluation for r in baseline]
    rows = []
    comp_rows = []

    def add_leg(leg: str, b: int, evs: list,
                baseline_total: float | None) -> dict:
        row, comps = _leg_row(leg, b, evs, baseline_total,
                              arch.levels[0].component.name)
        rows.append(row)
        comp_rows.extend({"leg": leg, "batch_size": b, "component": k,
                          "pj_per_inference": v}
                         for k, v in sorted(comps.items()))
        return row

    base_row = add_leg("baseline", 1, base_evals, None)
    baseline_total = base_row["energy_per_inference_pj"]

    def batched_eval(i: int, b: int):
        """The baseline mapping with the batch loop inserted, if it is valid
        and reads DRAM weights once per batch; else the batch-b search."""

        mapping = _insert_batch_loop(baseline[i].mapping, buffer_level, b)
        try:
            ev = evaluate(arch, layers[i], mapping)
            if (ev.counts.per_level[(0, WEIGHTS)].reads
                    == base_evals[i].counts.per_level[(0, WEIGHTS)].reads):
                return ev
        except MappingError:
            pass
        return _search_layer(arch, layers[i], cfg, "energy",
                             batch_size=b).evaluation

    for b in cfg.batch_sizes:
        add_leg("batched", b, [batched_eval(i, b) for i in range(len(layers))],
                baseline_total)

    pair_rows = []
    # The producer writes its intermediate only on chip; the consumer reads
    # it only from there.
    keep_p = {0: tuple(t for t in TENSORS if t != OUTPUTS)}
    keep_c = {0: tuple(t for t in TENSORS if t != INPUTS)}

    def fused_legs(b: int) -> list:
        """Greedy non-overlapping consecutive pairs that fit on chip at
        batch b, each attempted pair adding one row to pair_rows. Unfused
        layers ride along: at b=1 they reuse the baseline mappings, batched
        they are re-searched at b (the joint deployment, unlike the batched
        leg's fixed rewrite)."""

        evs = [None] * len(layers)
        i = 0
        while i < len(layers) - 1:
            producer, consumer = layers[i], layers[i + 1]
            required = demand(producer, effective_bounds(producer, b),
                              (OUTPUTS,))
            row = {"producer": producer.name, "consumer": consumer.name,
                   "batch_size": b, "required_bits": required,
                   "capacity_bits": capacity, "fused": False, "reason": ""}
            pair_rows.append(row)
            pair_arch = arch
            if required > capacity:
                if cfg.fusion_buffer != "auto":
                    row["reason"] = "exceeds_capacity"
                    i += 1
                    continue
                pair_arch = _resized_buffer_arch(cfg, required, spec)
                row["capacity_bits"] = required
            try:
                rp = _search_layer(pair_arch, producer, cfg, "energy",
                                   batch_size=b, keep_overrides=keep_p)
                rc = _search_layer(pair_arch, consumer, cfg, "energy",
                                   batch_size=b, keep_overrides=keep_c)
            except NoValidMapping as err:
                row["reason"] = type(err).__name__
                i += 1
                continue
            evs[i], evs[i + 1] = rp.evaluation, rc.evaluation
            row["fused"] = True
            i += 2
        for i, ev in enumerate(evs):
            if ev is None:
                evs[i] = (base_evals[i] if b == 1 else _search_layer(
                    arch, layers[i], cfg, "energy", batch_size=b).evaluation)
        return evs

    if cfg.fusion == "on":
        for leg, b in [("fused", 1)] + [("batched_fused", b)
                                         for b in cfg.batch_sizes]:
            add_leg(leg, b, fused_legs(b), baseline_total)

    best = max(rows, key=lambda r: r["improvement_vs_baseline"])
    fused_bits = [p["required_bits"] for p in pair_rows if p["fused"]]
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": "memory",
        "config": _config_echo(cfg),
        "baseline_dram_share": base_row["dram_share"],
        "best_leg": best["leg"],
        "best_batch_size": best["batch_size"],
        "best_improvement": best["improvement_vs_baseline"],
        "fusion_buffer_bits_required": max(fused_bits) if fused_bits else 0,
        "tables": {
            "legs": rows,
            "fusion_pairs": pair_rows,
            "components": comp_rows,
        },
    }


# ----------------------------------------------------------------------------
# Reuse sweep
# ----------------------------------------------------------------------------

def _sweep_layer(cfg: ExperimentConfig, widest: Architecture) -> Layer:
    """The busiest layer whose dims the widest swept geometry's stencil
    widths divide exactly: sweep deltas then measure reuse, not padding
    artifacts."""

    widths = [dw for lv in widest.levels for dw in lv.stencil]
    candidates = [layer for layer in _workload(cfg).layers
                  if all(layer.dims[d] % w == 0 for d, w in widths)]
    if not candidates:
        raise SweepInfeasible(cfg.sweep_axis, max(cfg.sweep_values),
                              "no workload layer admits the swept pins")
    return max(candidates, key=lambda l: l.macs())


def run_reuse_sweep(cfg: ExperimentConfig) -> dict:
    """Sweep one fanout axis, re-search the mapping per point, and report
    converter energy, accelerator energy, and the targeted conversion
    count."""

    library = _spec(cfg).library
    archs = {v: parse_architecture(
        albireo.architecture_doc(**{cfg.sweep_axis: v}), library)
        for v in cfg.sweep_values}
    layer = _sweep_layer(cfg, archs[max(cfg.sweep_values)])
    target = albireo.AXES[cfg.sweep_axis]
    rows = []
    for value, arch in archs.items():
        try:
            res = _search_layer(arch, layer, cfg, "energy")
        except NoValidMapping as err:
            raise SweepInfeasible(cfg.sweep_axis, value, str(err)) from err
        ev = res.evaluation
        accel = accelerator_scope(ev.energy_pj, arch)
        converter = sum(accel.get(c, 0.0) for c in dict.fromkeys(
            cv.component.name for cv in arch.converters))
        rows.append({
            "axis": cfg.sweep_axis,
            "value": value,
            "layer": layer.name,
            "converter_pj": converter,
            "accelerator_pj": sum(accel[k] for k in sorted(accel)),
            "total_pj": ev.total_energy_pj,
            "targeted_conversions": ev.counts.conversions.get(target, 0),
            "mapping_digest": ev.mapping_digest,
        })

    base = next((r for r in rows if r["value"] == 1), rows[0])
    best = min(rows, key=lambda r: r["converter_pj"])
    report = {
        "schema_version": SCHEMA_VERSION,
        "experiment": "reuse_sweep",
        "config": _config_echo(cfg),
        "layer": layer.name,
        "targeted_converter": list(target),
        "best_value": best["value"],
        "converter_reduction_pct": (
            (base["converter_pj"] - best["converter_pj"])
            / base["converter_pj"] * 100.0 if base["converter_pj"] else 0.0),
        "accelerator_reduction_pct": (
            (base["accelerator_pj"] - best["accelerator_pj"])
            / base["accelerator_pj"] * 100.0 if base["accelerator_pj"] else 0.0),
        "tables": {"sweep": rows},
    }
    return report


def run_experiment(cfg: ExperimentConfig) -> dict:
    runner = {
        "breakdown": run_breakdown,
        "throughput": run_throughput,
        "memory": run_memory_experiment,
        "reuse_sweep": run_reuse_sweep,
    }[cfg.experiment]
    return runner(cfg)
