"""Analytical energy, throughput, and area model for photonic and analog
compute-in-memory DNN accelerators, built on action counting over mapped
loop nests."""

from .components import (
    CalibrationError,
    breakdown_error,
    builtin_components,
    calibration_factors,
)
from .evaluator import EvaluationResult, evaluate
from .experiments import (
    ExperimentConfig,
    SweepInfeasible,
    parse_experiment_config,
    run_experiment,
)
from .mapper import (
    NoValidMapping,
    SearchConfig,
    SearchError,
    SearchResult,
    search,
)
from .oracle import OracleCapExceeded, simulate
from .reuse import analyze, reuse_factors
from .spec_model import (
    AccessCounts,
    Architecture,
    ComponentSpec,
    Layer,
    Mapping,
    MappingError,
    SpecError,
    Workload,
    canonical_json,
    load_document,
    parse_mapping,
    parse_spec,
    serialize_mapping,
    serialize_spec,
)
from .workloads import load_spec, load_workload

__all__ = [
    "AccessCounts",
    "Architecture",
    "CalibrationError",
    "ComponentSpec",
    "EvaluationResult",
    "ExperimentConfig",
    "Layer",
    "Mapping",
    "MappingError",
    "NoValidMapping",
    "OracleCapExceeded",
    "SearchConfig",
    "SearchError",
    "SearchResult",
    "SpecError",
    "SweepInfeasible",
    "Workload",
    "analyze",
    "breakdown_error",
    "builtin_components",
    "calibration_factors",
    "canonical_json",
    "evaluate",
    "load_document",
    "load_spec",
    "load_workload",
    "parse_experiment_config",
    "parse_mapping",
    "parse_spec",
    "reuse_factors",
    "run_experiment",
    "search",
    "serialize_mapping",
    "serialize_spec",
    "simulate",
]
