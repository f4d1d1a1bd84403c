"""Shared fixture paths and small scenario factories for the test suite."""

import json
from pathlib import Path

from e3sim import (
    BaseStation,
    BsKind,
    CacheConfig,
    NetworkScenario,
    TrafficProfile,
    UserEquipment,
    XHaulSolution,
    build_scenario,
    scenario_to_document,
    set_parameter,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def scenario_path(name: str) -> Path:
    return SCENARIO_DIR / name


def load_document(name: str) -> dict:
    return json.loads(scenario_path(name).read_text())


def with_parameter(scenario, path, value):
    """``scenario`` rebuilt from its document with the value at ``path`` set."""
    return build_scenario(set_parameter(scenario_to_document(scenario), path, value))


def make_xhaul(capacity_bps=5e7, medium="wired", factor=None, solution_id="xh"):
    if factor is None:
        factor = 0.0 if medium == "wired" else 3.0
    return XHaulSolution(solution_id, capacity_bps, medium, factor)


def make_kind(
    kind_id="pico",
    static_power_w=6.0,
    max_tx_dynamic_power_w=8.0,
    radio_capacity_bps=2e7,
    bandwidth_hz=1e7,
    coverage_area_m2=1000.0,
    cost_per_area=50.0,
    xhaul=None,
    tx_power_w=0.13,
    cache_size=0,
    cache_item_cost_per_area=0.0,
    cost_breakdown=None,
):
    return BsKind(
        kind_id=kind_id,
        static_power_w=static_power_w,
        max_tx_dynamic_power_w=max_tx_dynamic_power_w,
        radio_capacity_bps=radio_capacity_bps,
        bandwidth_hz=bandwidth_hz,
        coverage_area_m2=coverage_area_m2,
        cost_per_area=cost_per_area,
        xhaul=xhaul or make_xhaul(),
        tx_power_w=tx_power_w,
        cache_size=cache_size,
        cache_item_cost_per_area=cache_item_cost_per_area,
        cost_breakdown=cost_breakdown,
    )


def make_scenario(
    kinds=None,
    base_stations=None,
    ues=None,
    cache=None,
    traffic=None,
    benchmark_cost=100.0,
    radio_mode="abstract",
    rng_seed=0,
):
    """Single pico at the origin serving one 10 Mbit/s UE unless overridden."""
    if kinds is None:
        kinds = (make_kind(),)
    if base_stations is None:
        base_stations = (BaseStation("bs000", kinds[0], (0.0, 0.0)),)
    if ues is None:
        ues = (UserEquipment("ue000", (10.0, 0.0), 1e7, 1.0),)
    return NetworkScenario(
        kinds=tuple(kinds),
        base_stations=tuple(base_stations),
        ues=tuple(ues),
        cache=cache or CacheConfig(),
        traffic=traffic or TrafficProfile(1.0),
        benchmark_cost=benchmark_cost,
        radio_mode=radio_mode,
        rng_seed=rng_seed,
    )
