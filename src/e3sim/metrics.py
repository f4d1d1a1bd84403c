"""Scenario metrics: SE, EE, CE, and cost-weighted energy efficiency (E3).

E3 divides the priority-weighted system throughput by the cost-weighted
power sum over stations, static power scaled by each kind's cost
coefficient: sum(alpha_k R_k) / sum(P_dyn_n + P_static_n * C_n), in
bit/Joule. With every coefficient at 1 it reduces to plain EE. SE divides
unweighted throughput by total deployed bandwidth; CE divides the bits
moved in a sustained year by the yearly deployment cost.

``validate_scenario`` lists the advisory warnings of a legal scenario; it
runs the evaluation's input checks, so it lives beside them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .allocation import Geometry, fill, plan_geometry, xhaul_limits
from .energy_cost import cost_coefficient, dynamic_parts, effective_cost_per_area, resolve_benchmark_cost
from .model import TrafficProfile, _is_real
from .radio import demand_factor

if TYPE_CHECKING:
    from .scenario import NetworkScenario

SECONDS_PER_YEAR = 365 * 24 * 3600


@dataclass(frozen=True)
class MetricReport:
    """All four metrics plus their raw numerators and denominators.

    ``time_hours`` is the evaluated hour of day, or None for a daily
    average (ratio of time-averaged numerators and denominators).
    ``cost_rate`` is the yearly deployment cost, the denominator of CE: the
    per-area cost (``energy_cost.effective_cost_per_area``) times coverage
    of every station, summed in station order.
    """

    throughput_bps: float
    weighted_throughput_bps: float
    total_power_w: float
    weighted_power_w: float
    se: float
    ee: float
    ce: float
    e3: float
    time_hours: float | None
    cost_rate: float

    @property
    def is_daily_average(self) -> bool:
        return self.time_hours is None


def _sequential_sum(x: np.ndarray) -> np.ndarray:
    """Sums along the last axis, adding one element at a time from the left.

    Bitwise equal to a Python ``sum`` over the same order; ``np.sum`` adds
    pairwise and rounds differently.
    """
    return np.cumsum(x, axis=-1)[..., -1]


@functools.lru_cache(maxsize=1)
def _demand_factors(t_hours: float | None, peak_to_min_ratio: float, peak_hour: float, samples: int) -> np.ndarray:
    """The demand factors at ``t_hours``, or at each of ``samples`` equispaced
    hours when that is None, read-only; the last array is kept."""
    profile = TrafficProfile(peak_to_min_ratio, peak_hour, samples)
    times = [24.0 * i / samples for i in range(samples)] if t_hours is None else [t_hours]
    factors = np.array([demand_factor(t, profile) for t in times])
    factors.flags.writeable = False
    return factors


def point_inputs(s: NetworkScenario, t_hours: float | None) -> tuple[np.ndarray, np.ndarray, tuple[float, ...]]:
    """What the report of ``s`` at ``t_hours`` (None: the daily average)
    depends on besides its geometry: the demand factor of each sample and
    each station's index into ``s.placed_kinds``, two arrays, and a flat
    tuple of eight numbers per such kind, its table: radio capacity,
    effective capacity (in physical mode, where the geometry gives radio
    capacity, the X-Haul limit on it), static power, static power times
    C_n, maximum transceiver power, X-Haul factor, bandwidth and the cost
    rate of one station. Two points of one geometry whose arrays have equal
    bytes and whose tables compare equal, number by number, have equal
    reports: a NaN compares unequal, and the one -0.0 a table may hold, an
    X-Haul factor, gives the bits 0.0 gives, as its product with the
    transceiver power is added to that power, which is >= 0. Points of
    equal traffic values in a row share one factors array
    (``_demand_factors``).
    """
    traffic = s.traffic
    factors = _demand_factors(t_hours, traffic.peak_to_min_ratio, traffic.peak_hour, traffic.samples_per_day)
    limits = xhaul_limits(s)
    c0 = resolve_benchmark_cost(s)
    if c0 <= 0:
        raise ValueError(f"benchmark cost must be positive, got {c0}")
    per_item_w = s.cache.cache_power_per_item_w
    physical = s.radio_mode == "physical"
    flat = []
    for kind, limit in zip(s.placed_kinds, limits):
        static = kind.static_power_w + per_item_w * kind.cache_size
        radio = kind.radio_capacity_bps
        # C_n as ``cost_coefficient`` computes it, and the yearly cost of one station
        area_cost = effective_cost_per_area(kind)
        flat += (
            radio,
            limit if physical else min(radio, limit),
            static,
            static * (area_cost / c0),
            kind.max_tx_dynamic_power_w,
            kind.xhaul.xhaul_power_factor,
            kind.bandwidth_hz,
            area_cost * kind.coverage_area_m2,
        )
    return factors, s.base_stations.kind, tuple(flat)


#: The six sums of a report and its four ratios, the metrics, in the order ``evaluate_block`` checks them.
_SUMS = (
    "throughput_bps", "weighted_throughput_bps", "total_power_w", "weighted_power_w", "total_bandwidth_hz", "cost_rate"
)
METRICS = ("se", "ee", "ce", "e3")


def _sample_means(geometry: Geometry, inputs: Sequence[tuple]) -> np.ndarray:
    """Throughput, weighted throughput, total and weighted power of each point,
    averaged over its samples, then its total bandwidth and cost rate.

    ``inputs`` are the ``point_inputs`` of points that share ``geometry``.
    Returns those six sums, one row each, with a column for each point. The
    per-kind tables of the block become one array, and one gather by each
    point's station kinds gives the per-station scalars of the whole block;
    demand factors are stacked on a leading point axis.
    Max-min fill, load, dynamic power and the sums then run once over rows
    that are (point, sample) pairs, in chunks of ``geometry.rows_per_chunk``
    rows, and the means once over the block. Every sum keeps the order of
    the per-hour definition: UEs station by station for throughput, UEs in
    scenario order for weighted throughput, stations in order for power,
    bandwidth and cost, and samples in time order for a mean.
    """
    factors, kinds, tables = zip(*inputs)
    # station j of point p reads table row offsets[p] + its kind index; the points of one
    # geometry may place different numbers of kinds (a listed station's kind swept)
    offsets = np.cumsum([0] + [len(table) // 8 for table in tables[:-1]])
    table = np.fromiter(chain.from_iterable(tables), float).reshape(-1, 8)
    per_station = table.T[:, offsets[:, None] + np.array(kinds)]
    radio_cap, capacity, static, weighted_static, max_tx, xhaul_factor, bandwidth, cost = per_station
    if geometry.radio_cap is not None:
        radio_cap = np.broadcast_to(geometry.radio_cap, capacity.shape)
        capacity = np.minimum(radio_cap, capacity)
    n_times = len(factors[0])
    factors = np.concatenate(factors)
    point = np.repeat(np.arange(len(inputs)), n_times)
    sums = np.empty((4, len(factors)))
    step = min(len(factors), geometry.rows_per_chunk)
    for lo in range(0, len(factors), step):
        rows = point[lo : lo + step]
        rates, load = fill(geometry, factors[lo : lo + step], capacity[rows], radio_cap[rows])
        transceiver, xhaul = dynamic_parts(max_tx[rows], xhaul_factor[rows], load)
        dynamic = transceiver + xhaul
        sums[0, lo : lo + step] = _sequential_sum(rates[:, geometry.station_major])
        sums[1, lo : lo + step] = _sequential_sum(geometry.weights * rates)
        sums[2, lo : lo + step] = _sequential_sum(dynamic + static[rows])
        sums[3, lo : lo + step] = _sequential_sum(dynamic + weighted_static[rows])
    means = _sequential_sum(sums.reshape(4, len(inputs), n_times)) / n_times
    return np.concatenate([means, _sequential_sum(np.stack([bandwidth, cost]))])


def _checked(values: list[float], t_hours: float | None) -> MetricReport | ValueError:
    """The report made of one point's six sums and four ratios (``_SUMS``
    then ``METRICS``), or the ValueError of the first check it fails: every
    sum finite, the throughput > 0, both powers > 0, the cost rate > 0, every
    ratio finite. Every demand, demand factor and abstract capacity is > 0,
    so a zero throughput is received power that underflowed to 0 W."""
    for name, value in zip(_SUMS, values):
        if not math.isfinite(value):
            return ValueError(f"{name} must be finite, got {value}")
    throughput, weighted_throughput, total_power, weighted_power, _, cost_rate, *ratios = values
    if throughput <= 0:
        return ValueError(f"throughput_bps must be > 0, got {throughput}")
    if total_power <= 0 or weighted_power <= 0:
        return ValueError("total power is zero; refusing to report infinite efficiency")
    if cost_rate <= 0:
        return ValueError(f"cost_rate must be > 0, got {cost_rate}")
    for name, value in zip(METRICS, ratios):
        if not math.isfinite(value):
            return ValueError(f"{name} must be finite, got {value}")
    return MetricReport(throughput, weighted_throughput, total_power, weighted_power, *ratios, t_hours, cost_rate)


def _table(geometry: Geometry, inputs: Sequence[tuple]) -> np.ndarray:
    """The ten numbers of each point's report, its six sums (``_sample_means``)
    then its four ratios (``METRICS``), one row each with a column per point;
    overflow to inf or nan is let through."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sums = _sample_means(geometry, inputs)
        throughput, weighted_throughput, total_power, weighted_power, bandwidth, cost_rate = sums
        ratios = (
            throughput / bandwidth,
            weighted_throughput / total_power,
            throughput * SECONDS_PER_YEAR / cost_rate,
            weighted_throughput / weighted_power,
        )
        return np.concatenate([sums, ratios])


def evaluate_block(
    geometry: Geometry, inputs: Sequence[tuple], t_hours: float | None
) -> list[MetricReport | ValueError]:
    """Reports of points that share one geometry, or the error that fails each.

    ``geometry`` is the points' ``plan_geometry`` and ``inputs`` their
    ``point_inputs`` at ``t_hours``, at least one. With ``t_hours`` None
    each report is a daily average (``evaluate_daily``), else the report at
    that hour (``evaluate``). The sums and ratios of the whole block are
    computed first (``_table``); then the checks of ``_checked`` run on the
    whole block at once, and only a block with a failing point checks each
    point on its own numbers. A point whose report would hold a number that
    is not finite, or zero power or cost rate, gets its ValueError in place
    of a report, with the message a single evaluation raises.
    """
    table = _table(geometry, inputs)
    # all ten numbers finite, and the throughput, both powers and the cost rate > 0
    if not (np.isfinite(table).all() and (table[[0, 2, 3, 5]] > 0).all()):
        return [_checked(values, t_hours) for values in table.T.tolist()]
    throughput, weighted_throughput, total_power, weighted_power, _, cost_rate, *ratios = table.tolist()
    return list(map(
        MetricReport, throughput, weighted_throughput, total_power, weighted_power, *ratios, repeat(t_hours), cost_rate
    ))


def _evaluate_one(s: NetworkScenario, t_hours: float | None) -> MetricReport:
    (report,) = evaluate_block(plan_geometry(s), [point_inputs(s, t_hours)], t_hours)
    if isinstance(report, Exception):
        raise report
    return report


def evaluate(s: NetworkScenario, t_hours: float) -> MetricReport:
    """Evaluate all metrics at one hour of the day.

    Raises:
        TypeError: ``t_hours`` is None (``evaluate_daily`` gives the daily
            average), a bool or no number.
        ValueError: ``t_hours`` is not finite, an input check fails, or
            the report would hold a number that is not finite, zero power
            or a zero cost rate.
    """
    if not _is_real(t_hours):
        raise TypeError(f"t_hours must be a number, got {t_hours!r}")
    return _evaluate_one(s, t_hours)


def evaluate_daily(s: NetworkScenario) -> MetricReport:
    """Evaluate over a full day and report ratio-of-averages metrics.

    Samples ``traffic.samples_per_day`` equispaced hours, averages each
    numerator and denominator separately, then forms the ratios, so the
    daily E3 equals total weighted bits over total weighted Joules.
    """
    return _evaluate_one(s, None)


def validate_scenario(s: NetworkScenario) -> list[str]:
    """Return advisory warnings for suspicious but legal configurations.

    Checked: a kind whose cost coefficient exceeds 1 under the pinned
    benchmark, a caching strategy configured while no kind has cache
    capacity, and an X-Haul too small to carry even the least demanding
    UE at the daily traffic minimum.

    Raises:
        ValueError: an input check every evaluation of ``s`` runs fails,
            as for a placed kind's cache larger than the catalog
            (``allocation.xhaul_limits``), with the evaluation's message.
    """
    xhaul_limits(s)
    warnings: list[str] = []
    c0 = resolve_benchmark_cost(s)
    for kind in s.kinds:
        cn = cost_coefficient(kind, c0)
        if cn > 1.0 + 1e-12:
            warnings.append(
                f"cost coefficient of kind '{kind.kind_id}' exceeds 1 (C_n = {cn:.4g}); "
                f"benchmark cost {c0:.4g} is below its effective per-area cost"
            )
    if s.cache.strategy != "none" and all(k.cache_size == 0 for k in s.kinds):
        warnings.append(
            f"cache strategy '{s.cache.strategy}' is configured but every kind has cache_size 0"
        )
    min_demand = float(s.ues.demand_peak_bps.min()) / s.traffic.peak_to_min_ratio
    for kind in s.kinds:
        if kind.xhaul.capacity_bps < min_demand:
            warnings.append(
                f"X-Haul capacity of kind '{kind.kind_id}' ({kind.xhaul.capacity_bps:.4g} bit/s) "
                f"is below the minimum per-UE demand ({min_demand:.4g} bit/s)"
            )
    return warnings
