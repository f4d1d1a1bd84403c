"""Shared fixture paths and small scenario factories for the test suite."""

import json
from pathlib import Path

import numpy as np

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
from e3sim.allocation import fill, plan_allocation
from e3sim.radio import demand_factor, nearest_stations

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def scenario_path(name: str) -> Path:
    return SCENARIO_DIR / name


def load_document(name: str) -> dict:
    return json.loads(scenario_path(name).read_text())


def with_parameter(scenario, path, value):
    """``scenario`` rebuilt from its document with the value at ``path`` set."""
    return build_scenario(set_parameter(scenario_to_document(scenario), path, value))


def allocation_at(s, t_hours):
    """Granted rate of each UE and radio load of each station at ``t_hours``.

    The one-sample case of what the evaluation runs: ``plan_allocation``
    then ``fill``. Arrays in ``s.ues`` and ``s.base_stations`` order.
    """
    rates, load = fill(plan_allocation(s, 1), np.array([demand_factor(t_hours, s.traffic)]))
    return rates[0], load[0]


def serving_ids(s):
    """The bs_id serving each UE, in ``s.ues`` order."""
    return [s.base_stations[i].bs_id for i in nearest_stations(s).tolist()]


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
