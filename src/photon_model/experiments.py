"""Experiment drivers for the bundled accelerator studies.

Each runner is a pure function of (spec files, config, seed) and returns a
schema-versioned report dict whose canonical JSON form is byte-stable, so
repeated runs can be diffed directly.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass, replace

from . import albireo
from .components import PROFILES, calibration_factors, scale_library
from .evaluator import (
    breakdown_error,
    energy,
    evaluate,
    peak_spatial_macs,
)
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
    SpecError,
    Workload,
    dataclass_table,
    kept_bits,
    parse_architecture,
    serialize_architecture,
    stencil_pins,
)
from .workloads import (
    BUNDLED_ARCHITECTURE,
    load_architecture,
    load_reference_breakdown,
    load_workload,
)

EXPERIMENTS = ("breakdown", "throughput", "memory", "reuse_sweep")
SWEEP_AXES = ("ao_per_ae_weight", "ao_input_fanout", "ae_output_fanout")

SCHEMA_VERSION = 1


class FusionInfeasible(Exception):
    """A layer pair cannot keep its intermediate tensor on chip."""

    def __init__(self, layer_pair: tuple[str, str], required_bits: int,
                 capacity: int):
        self.layer_pair = layer_pair
        self.required_bits = required_bits
        self.capacity = capacity
        super().__init__(
            f"fusing {layer_pair[0]} -> {layer_pair[1]} needs "
            f"{required_bits} bits on chip, buffer holds {capacity}")


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
    profile: str = "aggressive"
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
        if self.profile not in PROFILES:
            raise SpecError("MalformedDocument", "experiment.profile",
                            f"unknown profile {self.profile!r}")
        if self.fusion not in ("on", "off"):
            raise SpecError("MalformedDocument", "experiment.fusion",
                            f"fusion must be on or off, got {self.fusion!r}")
        if self.fusion_buffer not in ("fixed", "auto"):
            raise SpecError("MalformedDocument", "experiment.fusion_buffer",
                            "fusion_buffer must be fixed or auto")
        if self.sweep_axis not in SWEEP_AXES:
            raise SpecError("MalformedDocument", "experiment.sweep_axis",
                            f"unknown sweep axis {self.sweep_axis!r}")
        if self.experiment == "reuse_sweep" and self.arch not in (
                None, BUNDLED_ARCHITECTURE):
            raise SpecError("MalformedDocument", "experiment.arch",
                            "reuse_sweep varies the bundled geometry; it "
                            f"cannot sweep {self.arch!r}")
        if self.experiment == "reuse_sweep" and not self.sweep_values:
            raise SpecError("MalformedDocument", "experiment.sweep_values",
                            "reuse_sweep needs at least one sweep value")
        if any(v < 1 for v in self.sweep_values):
            raise SpecError("MalformedDocument", "experiment.sweep_values",
                            "sweep values must be positive")
        if self.budget < 1:
            raise SpecError("MalformedDocument", "experiment.budget",
                            "budget must be positive")


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


def _architecture(cfg: ExperimentConfig,
                  axes: tuple[int, int, int] = (1, 1, 1)) -> Architecture:
    if cfg.arch not in (None, BUNDLED_ARCHITECTURE):
        return load_architecture(cfg.arch)
    return albireo.architecture(cfg.profile, *axes)


def _workload(cfg: ExperimentConfig, default: str) -> Workload:
    return load_workload(cfg.workload or default)


def _search_layer(arch: Architecture, layer: Layer, cfg: ExperimentConfig,
                  objective: str, batch_size: int = 1,
                  keep_overrides: dict | None = None,
                  reduction_floor: int | None = None) -> SearchResult:
    sc = SearchConfig(
        objective=objective,
        budget=cfg.budget,
        seed=cfg.seed,
        strategy="pruned_random",
        pad_mode="pad",
        batch_size=batch_size,
        keep_overrides=keep_overrides or {},
        fixed_spatial=stencil_pins(layer, arch),
        reduction_floor=reduction_floor,
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


def breakdown_contributions(cfg: ExperimentConfig, arch: Architecture
                            ) -> Callable[[dict], dict[str, float]]:
    """Search the breakdown workload on `arch` once and return a pricing
    function: given a component library, it binds the library into the
    architecture and gives the accelerator-scope energy per component of
    the searched counts. The search prices with the architecture's own
    parts, so one search serves every calibration round."""

    evals = [_search_layer(arch, layer, cfg, "energy").evaluation
             for layer in _workload(cfg, "vgg16").layers]

    def price(lib: dict) -> dict[str, float]:
        priced = parse_architecture(serialize_architecture(arch), lib)
        return accelerator_scope(_sum_energy(
            [energy(ev.counts, priced, ev.latency_s) for ev in evals]), arch)

    return price


def run_breakdown(cfg: ExperimentConfig) -> dict:
    """Calibrate the architecture's own parts against the bundled reference
    breakdown, then report modeled-vs-reference energies."""

    arch = _architecture(cfg)
    base = arch.components()
    reference = load_reference_breakdown()
    ref_total = sum(reference.values())
    fractions = {c: v / ref_total for c, v in reference.items()}

    price = breakdown_contributions(cfg, arch)
    factors = calibration_factors(fractions, price(base))
    calibrated = scale_library(base, factors)
    modeled = price(calibrated)

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

    arch = _architecture(cfg)
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
    at or inside `level` unchanged, so weight traffic from the backing
    store stays constant per batch."""

    lm = mapping.levels[level]
    temporal = dict(lm.temporal)
    temporal["N"] = lm.t("N") * b
    order = [d for d, _ in lm.loops() if d != "N"]
    cut = len(order)
    for i, d in enumerate(order):
        if d in REDUCED_DIMS:
            cut = i
            break
    perm = tuple(order[:cut]) + ("N",) + tuple(order[cut:])
    levels = list(mapping.levels)
    levels[level] = replace(lm, temporal=temporal, permutation=perm)
    return replace(mapping, levels=tuple(levels), batch_size=b)


def _intermediate_bits(producer: Layer) -> int:
    return kept_bits(producer, producer.dims, (OUTPUTS,))[OUTPUTS]


def check_fusible(producer: Layer, consumer: Layer, capacity_bits: int,
                  batch_size: int = 1) -> int:
    """Bits the fused intermediate occupies; raises when it cannot fit."""

    required = _intermediate_bits(producer) * batch_size
    if required > capacity_bits:
        raise FusionInfeasible((producer.name, consumer.name), required,
                               capacity_bits)
    return required


def _buffer_level(arch: Architecture) -> int:
    """The outermost on-chip level that keeps every tensor: the buffer
    layers share, where fused intermediates live and the batch loop goes."""

    for j in range(1, len(arch.levels)):
        if set(arch.levels[j].keeps) == set(TENSORS):
            return j
    raise SpecError("MalformedDocument", "architecture",
                    "no on-chip level keeps all tensors")


def _resized_buffer_arch(cfg: ExperimentConfig, required_bits: int,
                         base_arch: Architecture) -> Architecture:
    """`base_arch` with the shared buffer grown to `required_bits` and its
    access energy scaled by (new/old)^exponent, re-validated."""

    comp = base_arch.levels[_buffer_level(base_arch)].component
    factor = (required_bits / comp.capacity_bits) ** cfg.buffer_energy_exponent
    resized = replace(
        comp,
        capacity_bits=required_bits,
        energy_per_action={a: e * factor
                           for a, e in comp.energy_per_action.items()},
    )
    return parse_architecture(serialize_architecture(base_arch),
                              {**base_arch.components(), comp.name: resized})


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

    Batching rewrites the baseline mappings (batch loop at the shared
    buffer level), so weight amortization is exact by construction. Fused
    pairs are re-searched with the intermediate pinned on chip; pairs whose
    intermediate cannot fit are rejected and reported."""

    arch = _architecture(cfg)
    workload = _workload(cfg, "vgg16")
    layers = list(workload.layers)
    buffer_level = _buffer_level(arch)
    capacity = arch.levels[buffer_level].component.capacity_bits

    baseline = [
        _search_layer(arch, layer, cfg, "energy") for layer in layers
    ]
    # The batched leg reuses baseline schedules, so each baseline must host
    # a batch loop at the buffer with weights walked once per batch. A
    # schedule splitting a reduced dim at or outside the buffer cannot:
    # the batch loop either re-walks weight tiles per image or bounces
    # partial sums down a converter-less edge. Layers whose optimum does
    # that get re-searched with reduction kept strictly inside the buffer,
    # where the accumulation stage absorbs it.
    for i, layer in enumerate(layers):
        probe = _insert_batch_loop(baseline[i].mapping, buffer_level, 2)
        try:
            counts = analyze(arch, layer, probe)
            amortized = (counts.per_level[(0, WEIGHTS)].reads ==
                         baseline[i].evaluation.counts
                         .per_level[(0, WEIGHTS)].reads)
        except MappingError:
            amortized = False
        if not amortized:
            baseline[i] = _search_layer(arch, layer, cfg, "energy",
                                        reduction_floor=buffer_level + 1)
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
        mapping = _insert_batch_loop(baseline[i].mapping, buffer_level, b)
        return evaluate(arch, layers[i], mapping)

    for b in cfg.batch_sizes:
        add_leg("batched", b, [batched_eval(i, b) for i in range(len(layers))],
                baseline_total)

    pair_rows = []

    def fused_legs(b: int) -> tuple[list, list[dict]]:
        """Greedy non-overlapping consecutive pairs that fit on chip at
        batch b. Unfused layers ride along: at b=1 they reuse the baseline
        mappings, batched they are re-searched at b (the joint deployment,
        unlike the batched leg's fixed rewrite)."""

        evs = [None] * len(layers)
        pairs = []
        i = 0
        while i < len(layers) - 1:
            producer, consumer = layers[i], layers[i + 1]
            pair_arch = arch
            pair_capacity = capacity
            try:
                required = check_fusible(producer, consumer, capacity, b)
            except FusionInfeasible as err:
                if cfg.fusion_buffer == "auto":
                    required = err.required_bits
                    pair_arch = _resized_buffer_arch(cfg, required, arch)
                    pair_capacity = required
                else:
                    pairs.append({
                        "producer": producer.name, "consumer": consumer.name,
                        "batch_size": b, "required_bits": err.required_bits,
                        "capacity_bits": capacity, "fused": False,
                        "reason": "exceeds_capacity",
                    })
                    i += 1
                    continue
            keep_p = {0: tuple(t for t in TENSORS if t != OUTPUTS)}
            keep_c = {0: tuple(t for t in TENSORS if t != INPUTS)}
            try:
                rp = _search_layer(pair_arch, producer, cfg, "energy",
                                   batch_size=b, keep_overrides=keep_p)
                rc = _search_layer(pair_arch, consumer, cfg, "energy",
                                   batch_size=b, keep_overrides=keep_c)
            except NoValidMapping as err:
                pairs.append({
                    "producer": producer.name, "consumer": consumer.name,
                    "batch_size": b, "required_bits": required,
                    "capacity_bits": pair_capacity, "fused": False,
                    "reason": type(err).__name__,
                })
                i += 1
                continue
            evs[i], evs[i + 1] = rp.evaluation, rc.evaluation
            pairs.append({
                "producer": producer.name, "consumer": consumer.name,
                "batch_size": b, "required_bits": required,
                "capacity_bits": pair_capacity, "fused": True,
                "reason": "",
            })
            i += 2
        for i, ev in enumerate(evs):
            if ev is None:
                evs[i] = (base_evals[i] if b == 1 else _search_layer(
                    arch, layers[i], cfg, "energy", batch_size=b).evaluation)
        return evs, pairs

    if cfg.fusion == "on":
        for leg, b in [("fused", 1)] + [("batched_fused", b)
                                         for b in cfg.batch_sizes]:
            evs, pairs = fused_legs(b)
            pair_rows.extend(pairs)
            add_leg(leg, b, evs, baseline_total)

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

# Each axis widens one spatial reuse path, so one conversion stream should
# shrink as it grows.
AXIS_TARGETS = {
    "ao_per_ae_weight": ("mzm_bank", WEIGHTS),
    "ao_input_fanout": ("mzm_bank", INPUTS),
    "ae_output_fanout": ("pd_bank", OUTPUTS),
}


def _sweep_point(cfg: ExperimentConfig, value: int) -> tuple[int, int, int]:
    """Geometry axes with `value` on the swept axis and 1 elsewhere, in
    SWEEP_AXES order (the order albireo takes them in)."""

    return tuple(value if a == cfg.sweep_axis else 1 for a in SWEEP_AXES)


def _sweep_layer(cfg: ExperimentConfig) -> Layer:
    """The busiest layer whose dims the widest swept geometry's stencil
    widths divide exactly: sweep deltas then measure reuse, not padding
    artifacts."""

    vmax = max(cfg.sweep_values)
    widest = _architecture(cfg, _sweep_point(cfg, vmax))
    widths = [dw for lv in widest.levels for dw in lv.stencil]
    candidates = [layer for layer in _workload(cfg, "vgg16").layers
                  if all(layer.dims[d] % w == 0 for d, w in widths)]
    if not candidates:
        raise SweepInfeasible(cfg.sweep_axis, vmax,
                              "no workload layer admits the swept pins")
    return max(candidates, key=lambda l: l.macs())


def run_reuse_sweep(cfg: ExperimentConfig) -> dict:
    """Sweep one fanout axis, re-search the mapping per point, and report
    converter energy, accelerator energy, and the targeted conversion
    count."""

    layer = _sweep_layer(cfg)
    target = AXIS_TARGETS[cfg.sweep_axis]
    rows = []
    for value in cfg.sweep_values:
        arch = _architecture(cfg, _sweep_point(cfg, value))
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
