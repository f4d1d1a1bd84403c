"""Reference implementations the array evaluation core is checked against.

Plain scalar loops, one UE and one station at a time: nearest-station
association, physical-mode capacity, per-station max-min filling, and the
per-hour and daily metric evaluation built from them. Also the brute-force
oracles of the max-min allocation and of the random-fill hit ratio. Slow
by design; use on small scenarios only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from e3sim import (
    SECONDS_PER_YEAR,
    MetricReport,
    NetworkScenario,
    Popularity,
    cost_coefficient,
    effective_bs_capacity,
    hit_ratio,
    resolve_benchmark_cost,
    total_cost_rate,
    zipf_popularity,
)
from e3sim.radio import (
    _NOISE_W_PER_HZ,
    PATHLOSS_EXPONENT,
    PATHLOSS_REF_DB,
    PATHLOSS_REF_DISTANCE_M,
    demand_factor,
)

_BRUTEFORCE_MAX_UES = 4
_BRUTEFORCE_GRID_STEPS = 1000
_ORACLE_MAX_CATALOG = 20


@dataclass(frozen=True)
class Association:
    """Serving bs_id of each ue_id, and the ue_ids attached to each bs_id."""

    serving: dict[str, str]
    attached: dict[str, tuple[str, ...]]


@dataclass(frozen=True)
class Allocation:
    """Granted rate of each ue_id and radio load of each bs_id at one hour."""

    rates_bps: dict[str, float]
    radio_load: dict[str, float]


def _distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def associate(s: NetworkScenario) -> Association:
    """Nearest station per UE by ``(distance, bs_id)``, one UE at a time."""
    serving: dict[str, str] = {}
    attached: dict[str, list[str]] = {b.bs_id: [] for b in s.base_stations}
    for ue in s.ues:
        best = min(s.base_stations, key=lambda b: (_distance(b.position_m, ue.position_m), b.bs_id))
        serving[ue.ue_id] = best.bs_id
        attached[best.bs_id].append(ue.ue_id)
    return Association(serving=serving, attached={k: tuple(v) for k, v in attached.items()})


def _path_loss_db(distance_m: float) -> float:
    d = max(distance_m, PATHLOSS_REF_DISTANCE_M)
    return PATHLOSS_REF_DB + 10.0 * PATHLOSS_EXPONENT * math.log10(d / PATHLOSS_REF_DISTANCE_M)


def _received_power_w(tx_power_w: float, distance_m: float) -> float:
    return tx_power_w / 10.0 ** (_path_loss_db(distance_m) / 10.0)


def radio_capacity(bs, assoc: Association, s: NetworkScenario) -> float:
    """Station capacity with every interferer summed per UE in Python."""
    if s.radio_mode == "abstract":
        return bs.kind.radio_capacity_bps
    ue_ids = assoc.attached[bs.bs_id]
    m = len(ue_ids)
    if m == 0:
        return 0.0
    ues_by_id = {u.ue_id: u for u in s.ues}
    bandwidth = bs.kind.bandwidth_hz
    noise_w = _NOISE_W_PER_HZ * bandwidth
    total = 0.0
    for ue_id in ue_ids:
        ue = ues_by_id[ue_id]
        signal = _received_power_w(bs.kind.tx_power_w, _distance(bs.position_m, ue.position_m))
        interference = sum(
            _received_power_w(other.kind.tx_power_w, _distance(other.position_m, ue.position_m))
            for other in s.base_stations
            if other.bs_id != bs.bs_id
        )
        sinr = signal / (interference + noise_w)
        total += (bandwidth / m) * math.log2(1.0 + sinr)
    return total


def max_min_rates(demands: Sequence[float], capacity: float) -> list[float]:
    """Progressive filling over the sorted demands, one demand at a time."""
    n = len(demands)
    if n == 0:
        return []
    if capacity <= 0:
        return [0.0] * n
    level = float("inf")
    remaining = capacity
    for k, d in enumerate(sorted(demands)):
        share = remaining / (n - k)
        if d > share:
            level = share
            break
        remaining -= d
    return [min(float(d), level) for d in demands]


def allocate(s: NetworkScenario, assoc: Association, t_hours: float) -> Allocation:
    """Station-by-station allocation at one hour, every input recomputed."""
    popularity = zipf_popularity(s.cache.catalog_size, s.cache.zipf_exponent)
    peaks = {u.ue_id: u.demand_peak_bps for u in s.ues}
    factor = demand_factor(t_hours, s.traffic)
    rates: dict[str, float] = {}
    load: dict[str, float] = {}
    for bs in s.base_stations:
        ue_ids = assoc.attached[bs.bs_id]
        demands = [peaks[u] * factor for u in ue_ids]
        h = hit_ratio(s.cache.strategy, bs.kind.cache_size, popularity)
        radio_cap = radio_capacity(bs, assoc, s)
        cap = effective_bs_capacity(radio_cap, bs.kind.xhaul.capacity_bps, h)
        granted = max_min_rates(demands, cap)
        rates.update(zip(ue_ids, granted))
        total = sum(granted)
        load[bs.bs_id] = min(total / radio_cap, 1.0) if radio_cap > 0 else 0.0
    return Allocation(rates_bps=rates, radio_load=load)


def evaluate(s: NetworkScenario, t_hours: float) -> MetricReport:
    """All metrics at one hour from the scalar association and allocation."""
    assoc = associate(s)
    alloc = allocate(s, assoc, t_hours)
    throughput = sum(alloc.rates_bps.values())
    weighted_throughput = sum(u.weight * alloc.rates_bps[u.ue_id] for u in s.ues)
    c0 = resolve_benchmark_cost(s)
    total_power = 0.0
    weighted_power = 0.0
    per_item_w = s.cache.cache_power_per_item_w
    for bs in s.base_stations:
        transceiver = bs.kind.max_tx_dynamic_power_w * alloc.radio_load[bs.bs_id]
        dynamic = transceiver + bs.kind.xhaul.xhaul_power_factor * transceiver
        static = bs.kind.static_power_w + per_item_w * bs.kind.cache_size
        cn = cost_coefficient(bs.kind, c0)
        total_power += dynamic + static
        weighted_power += dynamic + static * cn
    if total_power <= 0 or weighted_power <= 0:
        raise ValueError("total power is zero; refusing to report infinite efficiency")
    total_bandwidth = sum(b.kind.bandwidth_hz for b in s.base_stations)
    return MetricReport(
        throughput_bps=throughput,
        weighted_throughput_bps=weighted_throughput,
        total_power_w=total_power,
        weighted_power_w=weighted_power,
        se=throughput / total_bandwidth,
        ee=weighted_throughput / total_power,
        ce=throughput * SECONDS_PER_YEAR / total_cost_rate(s),
        e3=weighted_throughput / weighted_power,
        time_hours=t_hours,
        cost_rate=total_cost_rate(s),
    )


def evaluate_daily(s: NetworkScenario) -> MetricReport:
    """Ratio of daily averages, one full ``evaluate`` per sample."""
    samples = s.traffic.samples_per_day
    reports = [evaluate(s, 24.0 * i / samples) for i in range(samples)]
    throughput = sum(r.throughput_bps for r in reports) / samples
    weighted_throughput = sum(r.weighted_throughput_bps for r in reports) / samples
    total_power = sum(r.total_power_w for r in reports) / samples
    weighted_power = sum(r.weighted_power_w for r in reports) / samples
    total_bandwidth = sum(b.kind.bandwidth_hz for b in s.base_stations)
    return MetricReport(
        throughput_bps=throughput,
        weighted_throughput_bps=weighted_throughput,
        total_power_w=total_power,
        weighted_power_w=weighted_power,
        se=throughput / total_bandwidth,
        ee=weighted_throughput / total_power,
        ce=throughput * SECONDS_PER_YEAR / total_cost_rate(s),
        e3=weighted_throughput / weighted_power,
        time_hours=None,
        cost_rate=total_cost_rate(s),
    )


def allocate_bruteforce(demands: Sequence[float], capacity: float) -> list[float]:
    """Grid-search oracle for the max-min fair allocation.

    Scans common rate caps on a grid of ``capacity / 1000`` steps and keeps
    the largest feasible one; every demand is then granted ``min(demand,
    cap)``. Among grid-feasible allocations this sorted rate vector is
    lexicographically maximal up to one grid step per UE. Unconstrained
    instances return the demands exactly.
    """
    n = len(demands)
    if n > _BRUTEFORCE_MAX_UES:
        raise ValueError(f"instance too large: {n} demands, oracle handles <= {_BRUTEFORCE_MAX_UES}")
    if n == 0:
        return []
    if capacity <= 0:
        return [0.0] * n
    d = np.asarray(demands, dtype=float)
    if d.sum() <= capacity:
        return [float(x) for x in d]
    levels = np.linspace(0.0, capacity, _BRUTEFORCE_GRID_STEPS + 1)
    totals = np.minimum(d[:, None], levels[None, :]).sum(axis=0)
    feasible = totals <= capacity * (1.0 + 1e-12)
    level = levels[feasible][-1]
    return [float(min(x, level)) for x in d]


def expected_random_hit_exact(cache_size: int, popularity: Popularity) -> float:
    """Exact expected hit ratio of a uniformly random cache fill.

    Enumerates every C(F, M) equally likely cached subset and averages the
    probability mass it covers. Limited to small catalogs.
    """
    catalog = len(popularity)
    if catalog > _ORACLE_MAX_CATALOG:
        raise ValueError(f"oracle instance too large: catalog {catalog} > {_ORACLE_MAX_CATALOG}")
    if not 0 <= cache_size <= catalog:
        raise ValueError(
            f"cache larger than catalog: cache_size {cache_size}, catalog {catalog}"
        )
    if cache_size == 0:
        return 0.0
    subsets = list(combinations(popularity.probabilities, cache_size))
    return math.fsum(math.fsum(subset) for subset in subsets) / len(subsets)
