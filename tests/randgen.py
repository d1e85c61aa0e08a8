"""Random (architecture, layer, mapping) instances for property tests.

Capacities are sized generously so generated mappings only contend with
fanout limits; domain-crossing edges always get operand converters and an
ascending output converter, and sometimes a descending output converter.
Only mappings validate_mapping accepts are kept, so partial sums are
refetched across a domain-crossing edge only where that converter exists.
"""

from __future__ import annotations

import random

from photon_model.spec_model import (
    DIMS,
    TENSOR_DIMS,
    TENSORS,
    Architecture,
    ComponentSpec,
    Converter,
    Extra,
    Layer,
    Level,
    LevelMapping,
    Mapping,
    Mesh,
)


def _storage(name: str, domain: str, capacity: int) -> ComponentSpec:
    return ComponentSpec(
        name=name, cls="storage", domain_in=domain, domain_out=domain,
        energy_per_action={"read": 1.0, "write": 1.0, "update": 1.5},
        capacity_bits=capacity)


def _compute(name: str, domain: str) -> ComponentSpec:
    return ComponentSpec(
        name=name, cls="compute", domain_in=domain, domain_out=domain,
        energy_per_action={"compute": 0.5})


def _converter(name: str, din: str, dout: str) -> ComponentSpec:
    return ComponentSpec(
        name=name, cls="converter", domain_in=din, domain_out=dout,
        energy_per_action={"convert": 2.0})


def random_architecture(rng: random.Random) -> Architecture:
    n_storage = rng.randint(1, 3)
    domains = [rng.choice(["DE", "AE"]) for _ in range(n_storage + 1)]
    levels = []
    for i in range(n_storage):
        keeps = TENSORS if i == 0 else tuple(
            t for t in TENSORS if rng.random() < 0.7)
        levels.append(Level(
            name=f"mem{i}",
            component=_storage(f"sram{i}", domains[i], 1 << 28),
            fanout=1 if i == 0 else rng.choice([1, 1, 2, 3, 4]),
            keeps=keeps))
    levels.append(Level(
        name="pe",
        component=_compute("mac", domains[-1]),
        fanout=rng.choice([1, 2, 3, 4]),
        keeps=()))

    meshes = [Mesh(may_multicast=rng.random() < 0.5,
                   may_reduce=rng.random() < 0.5)
              for _ in range(n_storage)]

    converters = []
    for e in range(1, n_storage + 1):
        if domains[e - 1] == domains[e]:
            continue
        din, dout = domains[e - 1], domains[e]
        converters.append(Converter(
            name=f"down{e}", component=_converter(f"cd{e}", din, dout),
            edge=e, tensors=("Weights", "Inputs"), instances=1))
        converters.append(Converter(
            name=f"up{e}", component=_converter(f"cu{e}", dout, din),
            edge=e, tensors=("Outputs",), instances=1))
        if rng.random() < 0.5:
            converters.append(Converter(
                name=f"odown{e}", component=_converter(f"cod{e}", din, dout),
                edge=e, tensors=("Outputs",), instances=1))

    return Architecture(
        name="rand", clock_ghz=1.0, levels=tuple(levels),
        meshes=tuple(meshes), converters=tuple(converters),
        extras=())


def random_layer(rng: random.Random, max_dim: int = 6) -> Layer:
    if rng.random() < 0.25:
        dims = {d: 1 for d in DIMS}
        dims["N"] = rng.randint(1, max_dim)
        dims["K"] = rng.randint(1, max_dim)
        dims["C"] = rng.randint(1, max_dim)
        kind = "fully_connected"
    else:
        dims = {d: rng.randint(1, max_dim) for d in DIMS}
        kind = "conv"
    stride = (rng.randint(1, 2), rng.randint(1, 2)) if kind == "conv" else (1, 1)
    return Layer(name="layer", kind=kind, dims=dims, stride=stride)


def _random_split(rng: random.Random, bound: int, slots: int) -> list[int]:
    out = [1] * slots
    rest = bound
    for i in range(slots - 1):
        divs = [d for d in range(1, rest + 1) if rest % d == 0]
        out[i] = rng.choice(divs)
        rest //= out[i]
    out[slots - 1] = rest
    rng.shuffle(out)
    return out


def random_mapping(rng: random.Random, arch: Architecture, layer: Layer,
                   tries: int = 60) -> Mapping | None:
    from photon_model.spec_model import MappingError, validate_mapping

    m = len(arch.levels)
    batch = rng.choice([1, 1, 1, 2])
    pad = rng.random() < 0.3
    for _ in range(tries):
        per_level_t: list[dict[str, int]] = [dict() for _ in range(m)]
        per_level_s: list[dict[str, int]] = [dict() for _ in range(m)]
        for d in DIMS:
            bound = layer.dims[d] * (batch if d == "N" else 1)
            if pad and rng.random() < 0.4:
                bound += rng.randint(1, 2)
            split = _random_split(rng, bound, 2 * m - 1)
            per_level_t[0][d] = split[0]
            for j in range(1, m):
                per_level_s[j][d] = split[2 * j - 1]
                per_level_t[j][d] = split[2 * j]
        lms = []
        for j in range(m):
            perm = [d for d in DIMS if per_level_t[j].get(d, 1) > 1]
            rng.shuffle(perm)
            lms.append(LevelMapping(
                temporal=per_level_t[j], spatial=per_level_s[j],
                permutation=tuple(perm)))
        overrides = {}
        for j in range(1, m - 1):
            if rng.random() < 0.2 and arch.levels[j].keeps:
                keep = tuple(t for t in arch.levels[j].keeps
                             if rng.random() < 0.5)
                overrides[j] = keep

        # Occasionally hoist one tensor's origin off the backing store, the
        # fused-intermediate shape: level 0 drops it and every factor of its
        # dims moves into the origin keeper's own temporal slot or deeper.
        if m >= 3 and rng.random() < 0.25:
            t_drop = rng.choice(TENSORS)
            origins = [j for j in range(1, m - 1)
                       if t_drop in (overrides.get(j) or arch.levels[j].keeps)]
            if origins:
                origin = rng.choice(origins)
                overrides[0] = tuple(t for t in TENSORS if t != t_drop)
                inner_slots = [2 * origin] + [k for j in range(origin + 1, m)
                                              for k in (2 * j - 1, 2 * j)]
                for d in sorted(TENSOR_DIMS[t_drop]):
                    bound = per_level_t[0][d]
                    for j in range(1, m):
                        bound *= per_level_s[j][d] * per_level_t[j][d]
                    sub = _random_split(rng, bound, len(inner_slots))
                    flat = {k: 1 for k in range(2 * m - 1)}
                    for k, f in zip(inner_slots, sub):
                        flat[k] = f
                    per_level_t[0][d] = flat[0]
                    for j in range(1, m):
                        per_level_s[j][d] = flat[2 * j - 1]
                        per_level_t[j][d] = flat[2 * j]
                lms = []
                for j in range(m):
                    perm = [d for d in DIMS if per_level_t[j].get(d, 1) > 1]
                    rng.shuffle(perm)
                    lms.append(LevelMapping(
                        temporal=per_level_t[j], spatial=per_level_s[j],
                        permutation=tuple(perm)))

        cand = Mapping(levels=tuple(lms), batch_size=batch,
                       keep_overrides=overrides, pad=pad)
        try:
            validate_mapping(cand, layer, arch)
        except MappingError:
            continue
        return cand
    return None


def random_instance(rng: random.Random, max_dim: int = 6):
    while True:
        arch = random_architecture(rng)
        layer = random_layer(rng, max_dim)
        mapping = random_mapping(rng, arch, layer)
        if mapping is not None:
            return arch, layer, mapping
