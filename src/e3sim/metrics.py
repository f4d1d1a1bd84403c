"""Scenario metrics: SE, EE, CE, and cost-weighted energy efficiency (E3).

E3 divides the priority-weighted system throughput by the cost-weighted
power sum over stations, static power scaled by each kind's cost
coefficient: sum(alpha_k R_k) / sum(P_dyn_n + P_static_n * C_n), in
bit/Joule. With every coefficient at 1 it reduces to plain EE. SE divides
unweighted throughput by total deployed bandwidth; CE divides the bits
moved in a sustained year by the yearly deployment cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .allocation import Geometry, fill, plan_geometry, xhaul_limits
from .energy_cost import cost_coefficient, dynamic_parts, resolve_benchmark_cost, station_cost_rate
from .radio import demand_factor

if TYPE_CHECKING:
    from .scenario import NetworkScenario

SECONDS_PER_YEAR = 365 * 24 * 3600


@dataclass(frozen=True)
class MetricReport:
    """All four metrics plus their raw numerators and denominators.

    ``time_hours`` is the evaluated hour of day, or None for a daily
    average (ratio of time-averaged numerators and denominators).
    ``cost_rate`` is the yearly deployment cost, the denominator of CE
    (``energy_cost.total_cost_rate``).
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


def _kind_inputs(s: NetworkScenario, hits: dict) -> list[tuple[float, ...]]:
    """One row per kind of ``s.base_stations.kinds``: abstract radio
    capacity, the X-Haul limit on effective capacity, static power, static
    power times C_n, maximum transceiver power, X-Haul factor, bandwidth
    and the cost rate of one station. ``hits`` is the hit ratio memo of
    ``xhaul_limits``."""
    limits = xhaul_limits(s, hits)
    c0 = resolve_benchmark_cost(s)
    per_item_w = s.cache.cache_power_per_item_w
    rows = []
    for kind, limit in zip(s.base_stations.kinds, limits):
        static = kind.static_power_w + per_item_w * kind.cache_size
        rows.append((
            kind.radio_capacity_bps,
            limit,
            static,
            static * cost_coefficient(kind, c0),
            kind.max_tx_dynamic_power_w,
            kind.xhaul.xhaul_power_factor,
            kind.bandwidth_hz,
            station_cost_rate(kind),
        ))
    return rows


def _sample_means(
    geometry: Geometry, points: Sequence[NetworkScenario], times: Sequence[float]
) -> list[list[float] | Exception]:
    """Throughput, weighted throughput, total and weighted power of each point,
    averaged over ``times``, then its total bandwidth and cost rate.

    ``points`` share ``geometry``. Returns, for each point, those six
    numbers, or the error that fails that point alone. The per-kind
    scalars of every point (``_kind_inputs``) go into one table, and one
    gather by each point's station kinds gives the per-station scalars of
    the whole block; demand factors are stacked on a leading point axis.
    Max-min fill, load, dynamic power and the sums then run once over rows
    that are (point, sample) pairs, in chunks of ``geometry.rows_per_chunk``
    rows, and the means once over the block. Every sum keeps the order of
    the per-hour definition: UEs station by station for throughput, UEs in
    scenario order for weighted throughput, stations in order for power,
    bandwidth and cost, and samples in time order for a mean.
    """
    outcomes: list = [None] * len(points)
    kept, factors, table, offsets = [], [], [], []
    by_traffic: dict[int, list[float]] = {}
    hits: dict[tuple[int, int], float] = {}
    for i, s in enumerate(points):
        try:
            key = id(s.traffic)
            if key not in by_traffic:
                by_traffic[key] = [demand_factor(t, s.traffic) for t in times]
            kind_rows = _kind_inputs(s, hits)
        except (ValueError, ArithmeticError) as exc:
            outcomes[i] = exc
            continue
        kept.append(i)
        factors.append(by_traffic[key])
        offsets.append(len(table))
        table += kind_rows
    if not kept:
        return outcomes
    # station j of kept point p reads table row offsets[p] + its kind index
    station_rows = np.array(offsets)[:, None] + np.array([points[i].base_stations.kind for i in kept])
    per_station = np.array(table).T[:, station_rows]
    radio_cap, limit, static, weighted_static, max_tx, xhaul_factor, bandwidth, cost = per_station
    if geometry.radio_cap is not None:
        radio_cap = np.broadcast_to(geometry.radio_cap, limit.shape)
    capacity = np.minimum(radio_cap, limit)
    factors = np.array(factors).ravel()
    point = np.repeat(np.arange(len(kept)), len(times))
    failed: dict[int, Exception] = {}
    sums = np.empty((4, len(factors)))
    step = min(len(factors), geometry.rows_per_chunk)
    for lo in range(0, len(factors), step):
        rows = point[lo : lo + step]
        rates, load = fill(geometry, factors[lo : lo + step], capacity[rows], radio_cap[rows])
        try:
            transceiver, xhaul = dynamic_parts(max_tx[rows], xhaul_factor[rows], load)
        except ValueError:
            load = _fail_out_of_range(load, rows, max_tx, xhaul_factor, failed)
            transceiver, xhaul = dynamic_parts(max_tx[rows], xhaul_factor[rows], load)
        dynamic = transceiver + xhaul
        sums[0, lo : lo + step] = _sequential_sum(rates[:, geometry.station_major])
        sums[1, lo : lo + step] = _sequential_sum(geometry.weights * rates)
        sums[2, lo : lo + step] = _sequential_sum(dynamic + static[rows])
        sums[3, lo : lo + step] = _sequential_sum(dynamic + weighted_static[rows])
    sums = sums.reshape(4, len(kept), len(times))
    zero_power = ((sums[2] <= 0) | (sums[3] <= 0)).any(axis=1).tolist()
    means = (_sequential_sum(sums) / len(times)).T.tolist()
    totals = _sequential_sum(np.stack([bandwidth, cost])).T.tolist()
    for p, i in enumerate(kept):
        if p in failed:
            outcomes[i] = failed[p]
        elif zero_power[p]:
            outcomes[i] = ValueError("total power is zero; refusing to report infinite efficiency")
        else:
            outcomes[i] = means[p] + totals[p]
    return outcomes


def _fail_out_of_range(
    load: np.ndarray, rows: np.ndarray, max_tx: np.ndarray, xhaul_factor: np.ndarray, failed: dict
) -> np.ndarray:
    """``load`` with the rows of every point that has a load outside [0, 1]
    zeroed; that point's error from ``dynamic_parts`` goes to ``failed``."""
    for p in dict.fromkeys(rows.tolist()):
        try:
            dynamic_parts(max_tx[p], xhaul_factor[p], load[rows == p])
        except ValueError as exc:
            failed.setdefault(p, exc)
    return np.where(np.isin(rows, list(failed))[:, None], 0.0, load)


def _report(
    throughput: float,
    weighted_throughput: float,
    total_power: float,
    weighted_power: float,
    total_bandwidth: float,
    cost_rate: float,
    t_hours: float | None,
) -> MetricReport:
    return MetricReport(
        throughput_bps=throughput,
        weighted_throughput_bps=weighted_throughput,
        total_power_w=total_power,
        weighted_power_w=weighted_power,
        se=throughput / total_bandwidth,
        ee=weighted_throughput / total_power,
        ce=throughput * SECONDS_PER_YEAR / cost_rate,
        e3=weighted_throughput / weighted_power,
        time_hours=t_hours,
        cost_rate=cost_rate,
    )


def evaluate_block(
    points: Sequence[NetworkScenario], t_hours: float | None, geometry: Geometry | None = None
) -> list[MetricReport | Exception]:
    """Reports of scenarios that share one geometry, or the error that fails each.

    Every pair of ``points`` must pass ``allocation.same_geometry``;
    ``geometry`` is theirs, compiled from the first point when None. With
    ``t_hours`` None each report is a daily average (``evaluate_daily``),
    else the report at that hour (``evaluate``). A point that fails an
    input check gets its ValueError or ArithmeticError in place of a
    report, with the message a single evaluation raises.
    """
    if geometry is None:
        geometry = plan_geometry(points[0])
    if t_hours is None:
        samples = points[0].traffic.samples_per_day
        times = [24.0 * i / samples for i in range(samples)]
    else:
        times = [t_hours]
    reports: list[MetricReport | Exception] = []
    for outcome in _sample_means(geometry, points, times):
        if not isinstance(outcome, Exception):
            try:
                outcome = _report(*outcome, t_hours)
            except (ValueError, ArithmeticError) as exc:
                outcome = exc
        reports.append(outcome)
    return reports


def _evaluate_one(s: NetworkScenario, t_hours: float | None) -> MetricReport:
    (report,) = evaluate_block([s], t_hours)
    if isinstance(report, Exception):
        raise report
    return report


def evaluate(s: NetworkScenario, t_hours: float) -> MetricReport:
    """Evaluate all metrics at one hour of the day.

    Raises:
        TypeError: ``t_hours`` is None (``evaluate_daily`` gives the daily average).
        ValueError: ``t_hours`` is not finite, or an input check fails.
    """
    if t_hours is None:
        raise TypeError("t_hours must be a number, got None")
    return _evaluate_one(s, t_hours)


def evaluate_daily(s: NetworkScenario) -> MetricReport:
    """Evaluate over a full day and report ratio-of-averages metrics.

    Samples ``traffic.samples_per_day`` equispaced hours, averages each
    numerator and denominator separately, then forms the ratios, so the
    daily E3 equals total weighted bits over total weighted Joules.
    """
    return _evaluate_one(s, None)
