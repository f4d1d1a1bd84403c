"""Deterministic techno-economic evaluation of heterogeneous RAN deployments.

Builds immutable deployment scenarios (station kinds, X-Haul links, edge
caches, daily demand), computes spectral, energy, cost, and cost-weighted
energy efficiency, and sweeps configuration knobs for optimal operating
points.

Each export is imported from its home module on first use (PEP 562), so
building a scenario loads only ``document``, ``model``, ``scenario`` and
``rng``; the evaluation and sweep modules load when a name of theirs is read.
"""

__version__ = "0.1.0"

import importlib

#: The home module of each export.
_HOMES = {
    "cache": ("hit_ratio",),
    "document": ("build_scenario", "scenario_to_document"),
    "energy_cost": ("cost_coefficient", "effective_cost_per_area", "resolve_benchmark_cost"),
    "metrics": ("SECONDS_PER_YEAR", "MetricReport", "evaluate", "evaluate_daily", "validate_scenario"),
    "model": (
        "BsKind",
        "CacheConfig",
        "CostBreakdown",
        "InvariantError",
        "ScenarioError",
        "SchemaError",
        "TrafficProfile",
        "UnknownKindError",
        "XHaulSolution",
    ),
    "scenario": ("NetworkScenario", "StationLayout", "UePopulation"),
    "sweep": ("Argmax", "ParameterPathError", "SweepRow", "SweepSpec", "open_sweep", "set_parameter"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return __all__
