"""Shared fixture paths and small scenario factories for the test suite."""

import contextlib
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from e3sim import (
    BsKind,
    CacheConfig,
    NetworkScenario,
    StationLayout,
    TrafficProfile,
    UePopulation,
    XHaulSolution,
    build_scenario,
    open_sweep,
    scenario_to_document,
    set_parameter,
)
import e3sim.cli  # noqa: F401 (every engine module, for ENGINE_CACHES)
from e3sim import sweep
from e3sim.allocation import fill, plan_geometry, station_capacities, water_levels
from e3sim.radio import demand_factor, nearest_stations

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

#: The process-wide function caches of the engine's modules.
ENGINE_CACHES = tuple({
    id(value): value
    for name, module in sorted(sys.modules.items()) if name.startswith("e3sim.")
    for value in vars(module).values() if callable(getattr(value, "cache_clear", None))
}.values())


@pytest.fixture(autouse=True)
def cold_caches():
    """Start every test with every engine cache empty, so that no test's
    outcome depends on the tests run before it."""
    for function in ENGINE_CACHES:
        function.cache_clear()


def scenario_path(name: str) -> Path:
    return SCENARIO_DIR / name


def load_document(name: str) -> dict:
    return json.loads(scenario_path(name).read_text())


def with_parameter(scenario, path, value):
    """``scenario`` rebuilt from its document with the value at ``path`` set."""
    return build_scenario(set_parameter(scenario_to_document(scenario), path, value))


def sweep_rows(document, spec):
    """Every row of the sweep ``spec`` of ``document``, in grid order."""
    return tuple(open_sweep(document, spec)[2])


@contextlib.contextmanager
def recorded_points(points):
    """Append (the scenario it is read on, its scenario or error) of every
    point a sweep reads to ``points``, as each path's compiled reader
    (``document._makers``) reads it."""
    real = sweep._makers

    def makers(base, *args):
        make = real(base, *args)

        def recorded(value):
            try:
                points.append((base, make(value)))
            except Exception as exc:
                points.append((base, exc))
                raise
            return points[-1][1]

        return recorded

    with mock.patch.object(sweep, "_makers", makers):
        yield


def allocation_at(s, t_hours):
    """Granted rate of each UE and radio load of each station at ``t_hours``.

    The one-row case of what the evaluation runs: ``plan_geometry``,
    ``station_capacities``, then ``fill``. Arrays in ``s.ues`` and
    ``s.base_stations`` order.
    """
    geometry = plan_geometry(s)
    radio_cap, capacity = station_capacities(s, geometry)
    factors = np.array([demand_factor(t_hours, s.traffic)])
    rates, load = fill(geometry, factors, np.array([capacity]), np.array([radio_cap]))
    return rates[0], load[0]


def water_rates(demands, capacity):
    """The rates ``allocation.water_levels`` grants one station's ``demands``, in their order."""
    d = np.asarray(demands, dtype=float)
    level = water_levels(np.sort(d)[None, :], np.array([len(d)]), np.array([float(capacity)]))
    return np.minimum(d, level[0]).tolist()


def radio_capacities(s):
    """Radio capacity of every station as the evaluation computes it."""
    return station_capacities(s, plan_geometry(s))[0]


def serving_ids(s):
    """The bs_id serving each UE, in ``s.ues`` order."""
    ids = s.base_stations.ids()
    return [ids[i] for i in nearest_stations(s).tolist()]


def make_xhaul(capacity_bps=5e7, medium="wired", factor=None, solution_id="xh"):
    """An X-Haul solution; ``factor`` None takes the medium's default."""
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


def make_stations(positions, kinds, ids=None):
    """A ``StationLayout`` of one station at each of ``positions``, of the
    kind at the same index of ``kinds``, named ``ids`` (None: ``bs000``,
    ``bs001``, ...). The layout names the distinct kind_ids in order of
    first use, as a document's station list does."""
    placed = {}
    index = [placed.setdefault(k.kind_id, len(placed)) for k in kinds]
    return StationLayout(ids, np.array(index, dtype=np.intp), positions, tuple(placed))


def make_ues(positions, demand=1e6, weight=1.0, ids=None):
    """A ``UePopulation`` of one UE at each of ``positions``; ``demand`` and
    ``weight`` are one value for every UE or one per UE, and ``ids`` None
    names them ``ue000``, ``ue001``, ..."""
    count = len(positions)
    return UePopulation(ids, positions, np.broadcast_to(demand, count), np.broadcast_to(weight, count))


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
        base_stations = make_stations([(0.0, 0.0)], kinds[:1], ids=("bs000",))
    if ues is None:
        ues = make_ues([(10.0, 0.0)], 1e7, ids=("ue000",))
    return NetworkScenario(
        kinds=tuple(kinds),
        base_stations=base_stations,
        ues=ues,
        cache=cache or CacheConfig(),
        traffic=traffic or TrafficProfile(),
        benchmark_cost=benchmark_cost,
        radio_mode=radio_mode,
        rng_seed=rng_seed,
    )
