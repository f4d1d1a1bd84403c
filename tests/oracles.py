"""Reference implementations the array evaluation core is checked against.

Plain scalar loops, one UE and one station at a time: nearest-station
association, physical-mode capacity, per-station max-min filling, and the
per-hour and daily metric evaluation built from them. They read a
scenario's station and UE columns through ``stations`` and ``ues``, small
read-only records of one entity each. The closed forms the evaluation
rests on are written out here too, not imported: the Zipf table and hit
ratios, the effective capacity, the demand factor, per-area costs, the
cost coefficient and the yearly cost rate. Each keeps the engine's order
of operations, so the abstract-mode checks can be bitwise. From ``e3sim``
this module imports only records, errors, constants and ``MetricReport``.
Also the brute-force oracles of the max-min allocation and of the
random-fill hit ratio. Slow by design; use on small scenarios only. The
UE generator's oracle is NumPy's own random generator, whose stream
``e3sim.rng`` reproduces without importing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from e3sim import SECONDS_PER_YEAR, BsKind, CacheConfig, MetricReport, NetworkScenario, TrafficProfile
from e3sim.model import MAX_KIND
from e3sim.radio import _NOISE_W_PER_HZ, PATHLOSS_EXPONENT, PATHLOSS_REF_DB, PATHLOSS_REF_DISTANCE_M

_BRUTEFORCE_MAX_UES = 4
_BRUTEFORCE_GRID_STEPS = 1000
_ORACLE_MAX_CATALOG = 20


@dataclass(frozen=True)
class Station:
    """One station of a scenario, read from its layout's columns."""

    bs_id: str
    kind: BsKind
    position_m: tuple[float, float]


@dataclass(frozen=True)
class Ue:
    """One UE of a scenario, read from its population's columns."""

    ue_id: str
    position_m: tuple[float, float]
    demand_peak_bps: float
    weight: float


def stations(s: NetworkScenario) -> list[Station]:
    """Every station of ``s``, in layout order, with the kind of its catalog
    that its kind_id names."""
    layout = s.base_stations
    by_id = {k.kind_id: k for k in s.kinds}
    kinds = [by_id[layout.kind_ids[j]] for j in layout.kind.tolist()]
    return [Station(i, k, (x, y)) for i, k, (x, y) in zip(layout.ids(), kinds, layout.position_m.tolist())]


def ues(s: NetworkScenario) -> list[Ue]:
    """Every UE of ``s``, in population order."""
    p = s.ues
    columns = (p.position_m.tolist(), p.demand_peak_bps.tolist(), p.weight.tolist())
    return [Ue(i, (x, y), d, w) for i, (x, y), d, w in zip(p.ids(), *columns)]


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


def zipf_probabilities(catalog_size: int, exponent: float) -> tuple[float, ...]:
    """p_i = i^(-exponent) / sum_j j^(-exponent), most popular first."""
    weights = [i ** -float(exponent) for i in range(1, catalog_size + 1)]
    total = math.fsum(weights)
    return tuple(w / total for w in weights)


def hit_ratio(cache: CacheConfig, cache_size: int) -> float:
    """Expected hit ratio of ``cache.strategy`` with ``cache_size`` items."""
    catalog = cache.catalog_size
    if not 0 <= cache_size <= catalog:
        raise ValueError(f"cache larger than catalog: cache_size {cache_size}, catalog {catalog}")
    if cache.strategy == "none":
        return 0.0
    if cache.strategy == "random_fill":
        return cache_size / catalog
    return min(1.0, math.fsum(zipf_probabilities(catalog, cache.zipf_exponent)[:cache_size]))


def effective_capacity(radio_cap_bps: float, xhaul_cap_bps: float, hit: float) -> float:
    """The radio capacity, or the X-Haul capacity over the miss share if smaller."""
    if hit == 1.0:
        return radio_cap_bps
    return min(radio_cap_bps, xhaul_cap_bps / (1.0 - hit))


def demand_factor(t_hours: float, profile: TrafficProfile) -> float:
    """Sinusoidal share of the peak demand: 1 at the peak hour, 1 / ratio at the trough."""
    if not math.isfinite(t_hours):
        raise ValueError(f"t_hours must be finite, got {t_hours}")
    rho = profile.peak_to_min_ratio
    phase = (1.0 + math.cos(2.0 * math.pi * math.fmod(t_hours - profile.peak_hour, 24.0) / 24.0)) / 2.0
    return 1.0 / rho + (1.0 - 1.0 / rho) * phase


def effective_cost_per_area(kind: BsKind) -> float:
    """Per-area cost, the capital items discounted when broken down, plus the cache items."""
    b = kind.cost_breakdown
    if b is None:
        base = kind.cost_per_area
    else:
        components = (
            b.infrastructure,
            b.site_installation,
            b.site_operation,
            b.optimization_maintenance,
            b.cache_placement,
            b.xhaul_configuration,
            b.content_delivery,
        )
        base = math.fsum(components) - (b.infrastructure + b.site_installation) * b.inherited_discount
    return base + kind.cache_size * kind.cache_item_cost_per_area


def resolve_benchmark_cost(s: NetworkScenario) -> float:
    """The pinned benchmark cost, or under ``max-kind`` the costliest kind's per-area cost."""
    if s.benchmark_cost == MAX_KIND:
        c0 = max(effective_cost_per_area(k) for k in s.kinds)
        if c0 <= 0:
            raise ValueError("max-kind benchmark resolved to a non-positive cost")
        return c0
    return float(s.benchmark_cost)


def cost_coefficient(kind: BsKind, benchmark_cost: float) -> float:
    """C_n: the kind's per-area cost over the benchmark cost."""
    if benchmark_cost <= 0:
        raise ValueError(f"benchmark cost must be positive, got {benchmark_cost}")
    return effective_cost_per_area(kind) / benchmark_cost


def total_cost_rate(s: NetworkScenario) -> float:
    """Yearly deployment cost: per-area cost times coverage, summed station by station."""
    return sum(effective_cost_per_area(b.kind) * b.kind.coverage_area_m2 for b in stations(s))


def _distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def associate(s: NetworkScenario) -> Association:
    """Nearest station per UE by ``(distance, bs_id)``, one UE at a time."""
    serving: dict[str, str] = {}
    all_stations = stations(s)
    attached: dict[str, list[str]] = {b.bs_id: [] for b in all_stations}
    for ue in ues(s):
        best = min(all_stations, key=lambda b: (_distance(b.position_m, ue.position_m), b.bs_id))
        serving[ue.ue_id] = best.bs_id
        attached[best.bs_id].append(ue.ue_id)
    return Association(serving=serving, attached={k: tuple(v) for k, v in attached.items()})


def _path_loss_db(distance_m: float) -> float:
    d = max(distance_m, PATHLOSS_REF_DISTANCE_M)
    return PATHLOSS_REF_DB + 10.0 * PATHLOSS_EXPONENT * math.log10(d / PATHLOSS_REF_DISTANCE_M)


def _received_power_w(tx_power_w: float, distance_m: float) -> float:
    return tx_power_w / 10.0 ** (_path_loss_db(distance_m) / 10.0)


def radio_capacity(bs: Station, assoc: Association, s: NetworkScenario) -> float:
    """Station capacity with every interferer summed per UE in Python."""
    if s.radio_mode == "abstract":
        return bs.kind.radio_capacity_bps
    ue_ids = assoc.attached[bs.bs_id]
    m = len(ue_ids)
    if m == 0:
        return 0.0
    ues_by_id = {u.ue_id: u for u in ues(s)}
    others = [other for other in stations(s) if other.bs_id != bs.bs_id]
    bandwidth = bs.kind.bandwidth_hz
    noise_w = _NOISE_W_PER_HZ * bandwidth
    total = 0.0
    for ue_id in ue_ids:
        ue = ues_by_id[ue_id]
        signal = _received_power_w(bs.kind.tx_power_w, _distance(bs.position_m, ue.position_m))
        interference = sum(
            _received_power_w(other.kind.tx_power_w, _distance(other.position_m, ue.position_m)) for other in others
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
    peaks = {u.ue_id: u.demand_peak_bps for u in ues(s)}
    factor = demand_factor(t_hours, s.traffic)
    rates: dict[str, float] = {}
    load: dict[str, float] = {}
    for bs in stations(s):
        ue_ids = assoc.attached[bs.bs_id]
        demands = [peaks[u] * factor for u in ue_ids]
        h = hit_ratio(s.cache, bs.kind.cache_size)
        radio_cap = radio_capacity(bs, assoc, s)
        cap = effective_capacity(radio_cap, bs.kind.xhaul.capacity_bps, h)
        granted = max_min_rates(demands, cap)
        rates.update(zip(ue_ids, granted))
        total = sum(granted)
        load[bs.bs_id] = min(total / radio_cap, 1.0) if radio_cap > 0 else 0.0
    return Allocation(rates_bps=rates, radio_load=load)


def _hour_sums(s: NetworkScenario, t_hours: float) -> tuple[float, float, float, float]:
    """Throughput, weighted throughput, total and weighted power at one hour."""
    assoc = associate(s)
    alloc = allocate(s, assoc, t_hours)
    throughput = sum(alloc.rates_bps.values())
    weighted_throughput = sum(u.weight * alloc.rates_bps[u.ue_id] for u in ues(s))
    c0 = resolve_benchmark_cost(s)
    total_power = 0.0
    weighted_power = 0.0
    per_item_w = s.cache.cache_power_per_item_w
    for bs in stations(s):
        transceiver = bs.kind.max_tx_dynamic_power_w * alloc.radio_load[bs.bs_id]
        dynamic = transceiver + bs.kind.xhaul.xhaul_power_factor * transceiver
        static = bs.kind.static_power_w + per_item_w * bs.kind.cache_size
        cn = cost_coefficient(bs.kind, c0)
        total_power += dynamic + static
        weighted_power += dynamic + static * cn
    return throughput, weighted_throughput, total_power, weighted_power


def _report(s: NetworkScenario, sums: Sequence[float], t_hours: float | None) -> MetricReport:
    """The report made of the four ``sums``, or the ValueError of the first
    check it fails: every sum finite, both powers > 0, the cost rate > 0,
    every ratio finite."""
    throughput, weighted_throughput, total_power, weighted_power = sums
    total_bandwidth = sum(b.kind.bandwidth_hz for b in stations(s))
    cost_rate = total_cost_rate(s)
    names = ("throughput_bps", "weighted_throughput_bps", "total_power_w", "weighted_power_w", "total_bandwidth_hz",
             "cost_rate")
    for name, value in zip(names, (*sums, total_bandwidth, cost_rate)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if total_power <= 0 or weighted_power <= 0:
        raise ValueError("total power is zero; refusing to report infinite efficiency")
    if cost_rate <= 0:
        raise ValueError(f"cost_rate must be > 0, got {cost_rate}")
    ratios = {
        "se": throughput / total_bandwidth,
        "ee": weighted_throughput / total_power,
        "ce": throughput * SECONDS_PER_YEAR / cost_rate,
        "e3": weighted_throughput / weighted_power,
    }
    for name, value in ratios.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    return MetricReport(
        throughput_bps=throughput,
        weighted_throughput_bps=weighted_throughput,
        total_power_w=total_power,
        weighted_power_w=weighted_power,
        **ratios,
        time_hours=t_hours,
        cost_rate=cost_rate,
    )


def evaluate(s: NetworkScenario, t_hours: float) -> MetricReport:
    """All metrics at one hour from the scalar association and allocation."""
    return _report(s, _hour_sums(s, t_hours), t_hours)


def evaluate_daily(s: NetworkScenario) -> MetricReport:
    """Ratio of daily averages, the sums of each sample from the scalar loops."""
    samples = s.traffic.samples_per_day
    hours = [_hour_sums(s, 24.0 * i / samples) for i in range(samples)]
    return _report(s, [sum(column) / samples for column in zip(*hours)], None)


def uniform_positions(seed: int, width: float, height: float, count: int) -> np.ndarray:
    """``count`` points uniform over [0, width] x [0, height], as NumPy draws them."""
    return np.random.default_rng(seed).uniform((0.0, 0.0), (width, height), size=(count, 2))


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


def expected_random_hit_exact(cache_size: int, probabilities: tuple[float, ...]) -> float:
    """Exact expected hit ratio of a uniformly random cache fill.

    ``probabilities`` are the request probabilities of the F catalog items.
    Enumerates every C(F, M) equally likely cached subset and averages the
    probability mass it covers. Limited to small catalogs.
    """
    catalog = len(probabilities)
    if catalog > _ORACLE_MAX_CATALOG:
        raise ValueError(f"oracle instance too large: catalog {catalog} > {_ORACLE_MAX_CATALOG}")
    if not 0 <= cache_size <= catalog:
        raise ValueError(
            f"cache larger than catalog: cache_size {cache_size}, catalog {catalog}"
        )
    if cache_size == 0:
        return 0.0
    subsets = list(combinations(probabilities, cache_size))
    return math.fsum(math.fsum(subset) for subset in subsets) / len(subsets)
