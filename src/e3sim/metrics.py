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

from .allocation import fill, plan_allocation
from .energy_cost import cost_coefficient, dynamic_parts, resolve_benchmark_cost, total_cost_rate
from .radio import demand_factor

if TYPE_CHECKING:
    from .model import NetworkScenario

SECONDS_PER_YEAR = 365 * 24 * 3600


@dataclass(frozen=True)
class MetricReport:
    """All four metrics plus their raw numerators and denominators.

    ``time_hours`` is the evaluated hour of day, or None for a daily
    average (ratio of time-averaged numerators and denominators).
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

    @property
    def is_daily_average(self) -> bool:
        return self.time_hours is None


def _sequential_sum(x: np.ndarray) -> np.ndarray:
    """Sums along the last axis, adding one element at a time from the left.

    Bitwise equal to a Python ``sum`` over the same order; ``np.sum`` adds
    pairwise and rounds differently.
    """
    return np.cumsum(x, axis=-1)[..., -1]


def _sample_sums(s: NetworkScenario, times: Sequence[float]) -> np.ndarray:
    """Throughput, weighted throughput, total and weighted power per sample.

    Returns a (4, samples) array. The scenario is compiled once
    (``plan_allocation``, static power and C_n per station); only demands,
    max-min fill, load, dynamic power and the sums run per sample, in
    chunks of samples. Every sum keeps the order of the per-hour
    definition: UEs station by station for throughput, UEs in scenario
    order for weighted throughput, stations in order for power.
    """
    factors = np.array([demand_factor(t, s.traffic) for t in times])
    plan = plan_allocation(s, len(factors))
    c0 = resolve_benchmark_cost(s)
    per_item_w = s.cache.cache_power_per_item_w
    static = np.array([b.kind.static_power_w + per_item_w * b.kind.cache_size for b in s.base_stations])
    cn = np.array([cost_coefficient(b.kind, c0) for b in s.base_stations])
    weighted_static = static * cn
    max_tx = np.array([b.kind.max_tx_dynamic_power_w for b in s.base_stations])
    xhaul_factor = np.array([b.kind.xhaul.xhaul_power_factor for b in s.base_stations])
    weights = np.array([u.weight for u in s.ues])
    station_major = np.argsort(plan.serving, kind="stable")
    sums = np.empty((4, len(factors)))
    step = plan.samples_per_chunk
    for lo in range(0, len(factors), step):
        rates, load = fill(plan, factors[lo : lo + step])
        transceiver, xhaul = dynamic_parts(max_tx, xhaul_factor, load)
        dynamic = transceiver + xhaul
        sums[0, lo : lo + step] = _sequential_sum(rates[:, station_major])
        sums[1, lo : lo + step] = _sequential_sum(weights * rates)
        sums[2, lo : lo + step] = _sequential_sum(dynamic + static)
        sums[3, lo : lo + step] = _sequential_sum(dynamic + weighted_static)
    if np.any((sums[2] <= 0) | (sums[3] <= 0)):
        raise ValueError("total power is zero; refusing to report infinite efficiency")
    return sums


def _report(
    s: NetworkScenario,
    throughput: float,
    weighted_throughput: float,
    total_power: float,
    weighted_power: float,
    t_hours: float | None,
) -> MetricReport:
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
    )


def evaluate(s: NetworkScenario, t_hours: float) -> MetricReport:
    """Evaluate all metrics at one hour of the day.

    Raises:
        ValueError: ``t_hours`` is not finite, or an input check fails.
    """
    sums = _sample_sums(s, [t_hours])
    return _report(s, *sums[:, 0].tolist(), t_hours)


def evaluate_daily(s: NetworkScenario) -> MetricReport:
    """Evaluate over a full day and report ratio-of-averages metrics.

    Samples ``traffic.samples_per_day`` equispaced hours, averages each
    numerator and denominator separately, then forms the ratios, so the
    daily E3 equals total weighted bits over total weighted Joules.
    """
    samples = s.traffic.samples_per_day
    sums = _sample_sums(s, [24.0 * i / samples for i in range(samples)])
    return _report(s, *(sum(row) / samples for row in sums.tolist()), None)
