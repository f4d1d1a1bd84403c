"""Scenario metrics: SE, EE, CE, and cost-weighted energy efficiency (E3).

E3 divides the priority-weighted system throughput by the cost-weighted
power sum over stations, static power scaled by each kind's cost
coefficient: sum(alpha_k R_k) / sum(P_dyn_n + P_static_n * C_n), in
bit/Joule. With every coefficient at 1 it reduces to plain EE. SE divides
unweighted throughput by total deployed bandwidth; CE divides the bits
moved in a sustained year by the yearly deployment cost.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .allocation import Geometry, fill, plan_geometry, xhaul_limits
from .energy_cost import cost_coefficient, dynamic_parts, resolve_benchmark_cost, station_cost_rate
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
    ``energy_cost.station_cost_rate`` of every station, summed in station
    order.
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


def point_inputs(s: NetworkScenario, t_hours: float | None) -> tuple[np.ndarray, ...]:
    """What the report of ``s`` at ``t_hours`` (None: the daily average)
    depends on besides its geometry, as three arrays: the demand factor of
    each sample, each station's index into ``s.placed_kinds``, and
    one row per such kind of radio capacity, effective capacity (in
    physical mode, where the geometry gives radio capacity, the X-Haul
    limit on it), static power, static power times C_n, maximum
    transceiver power, X-Haul factor, bandwidth and the cost rate of one
    station. Two points of one geometry whose arrays have equal bytes have
    equal reports. Points of equal traffic values in a row share one
    factors array (``_demand_factors``).
    """
    traffic = s.traffic
    factors = _demand_factors(t_hours, traffic.peak_to_min_ratio, traffic.peak_hour, traffic.samples_per_day)
    limits = xhaul_limits(s)
    c0 = resolve_benchmark_cost(s)
    per_item_w = s.cache.cache_power_per_item_w
    physical = s.radio_mode == "physical"
    rows = []
    for kind, limit in zip(s.placed_kinds, limits):
        static = kind.static_power_w + per_item_w * kind.cache_size
        radio = kind.radio_capacity_bps
        rows.append((
            radio,
            limit if physical else min(radio, limit),
            static,
            static * cost_coefficient(kind, c0),
            kind.max_tx_dynamic_power_w,
            kind.xhaul.xhaul_power_factor,
            kind.bandwidth_hz,
            station_cost_rate(kind),
        ))
    return factors, s.base_stations.kind, np.array(rows, dtype=float)


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
    per-kind tables of the block are stacked, and one gather by each point's
    station kinds gives the per-station scalars of the whole block; demand
    factors are stacked on a leading point axis.
    Max-min fill, load, dynamic power and the sums then run once over rows
    that are (point, sample) pairs, in chunks of ``geometry.rows_per_chunk``
    rows, and the means once over the block. Every sum keeps the order of
    the per-hour definition: UEs station by station for throughput, UEs in
    scenario order for weighted throughput, stations in order for power,
    bandwidth and cost, and samples in time order for a mean.
    """
    factors, kinds, tables = zip(*inputs)
    # station j of point p reads table row offsets[p] + its kind index
    offsets = np.cumsum([0] + [len(table) for table in tables[:-1]])
    per_station = np.concatenate(tables).T[:, offsets[:, None] + np.array(kinds)]
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


def evaluate_block(
    geometry: Geometry, inputs: Sequence[tuple], t_hours: float | None
) -> list[MetricReport | ValueError]:
    """Reports of points that share one geometry, or the error that fails each.

    ``geometry`` is the points' ``plan_geometry`` and ``inputs`` their
    ``point_inputs`` at ``t_hours``, at least one. With ``t_hours`` None
    each report is a daily average (``evaluate_daily``), else the report at
    that hour (``evaluate``). The sums and ratios of the whole block are
    computed first, and overflow to inf or nan is let through; then each
    point is checked on its own numbers (``_checked``). A point whose
    report would hold a number that is not finite, or zero power or cost
    rate, gets its ValueError in place of a report, with the message a
    single evaluation raises.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sums = _sample_means(geometry, inputs)
        throughput, weighted_throughput, total_power, weighted_power, bandwidth, cost_rate = sums
        ratios = (
            throughput / bandwidth,
            weighted_throughput / total_power,
            throughput * SECONDS_PER_YEAR / cost_rate,
            weighted_throughput / weighted_power,
        )
    return [_checked(values, t_hours) for values in np.concatenate([sums, ratios]).T.tolist()]


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
