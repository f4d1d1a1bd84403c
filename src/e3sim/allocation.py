"""Effective per-UE throughput under radio and X-Haul capacity limits.

Each station serves its attached UEs up to an effective capacity: the radio
capacity, or the X-Haul capacity divided by the miss fraction when the
X-Haul is the bottleneck (cache hits never traverse it). Within a station,
demands are granted max-min fairly: every UE receives its demand or the
common fair level, whichever is smaller.

Only the demands depend on the hour: every UE asks for its peak demand
times one shared factor f(t). So ``plan_allocation`` compiles the rest of
a scenario once (association, radio capacity, hit ratio, effective
capacity, and the UEs of each station sorted by peak demand), and
``fill`` grants the rates of a batch of samples from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .cache import hit_ratio, zipf_popularity
from .radio import chunk_rows, nearest_stations, physical_capacities

if TYPE_CHECKING:
    from .model import NetworkScenario


def effective_bs_capacity(radio_cap_bps: float, xhaul_cap_bps: float, hit_fraction: float) -> float:
    """Station serving capacity given its cache hit fraction.

    Only the miss share (1 - h) of served traffic crosses the X-Haul, so a
    served rate x is feasible while (1 - h) * x <= X-Haul capacity. At
    h = 1 the X-Haul is bypassed entirely and the radio alone limits.
    """
    if not 0.0 <= hit_fraction <= 1.0:
        raise ValueError(f"hit_fraction must lie in [0, 1], got {hit_fraction}")
    if hit_fraction == 1.0:
        return radio_cap_bps
    return min(radio_cap_bps, xhaul_cap_bps / (1.0 - hit_fraction))


def water_levels(sorted_demands: np.ndarray, counts: np.ndarray, capacity: np.ndarray) -> np.ndarray:
    """Max-min fair level of each row of ascending demands.

    ``sorted_demands`` has shape (..., M): each row holds ``counts`` demands
    in ascending order, padded with zeros. Progressive filling in
    water-level form: walking a row, a demand not exceeding an equal share
    of the remaining capacity is met in full; the first demand that exceeds
    its share fixes the level. The remaining capacity is subtracted one
    demand at a time, left to right, so each level is bitwise what the
    scalar loop gives. Rows whose demands all fit get level inf; rows with
    capacity <= 0 get level 0.
    """
    capacity = np.broadcast_to(capacity, sorted_demands.shape[:-1])
    steps = np.concatenate([capacity[..., None], sorted_demands[..., :-1]], axis=-1)
    remaining = np.subtract.accumulate(steps, axis=-1)
    left = counts[..., None] - np.arange(sorted_demands.shape[-1])
    share = remaining / np.maximum(left, 1)
    over = (sorted_demands > share) & (left > 0)
    first = over.argmax(axis=-1)
    level = np.take_along_axis(share, first[..., None], axis=-1)[..., 0]
    level = np.where(over.any(axis=-1), level, np.inf)
    return np.where(capacity > 0, level, 0.0)


def max_min_rates(demands: Sequence[float], capacity: float) -> list[float]:
    """Max-min fair share of ``capacity`` among the given demands.

    Every demand is granted ``min(demand, level)`` with the level of
    ``water_levels``, so the result is bitwise independent of input order.
    Output order matches input order.
    """
    if len(demands) == 0:
        return []
    d = np.asarray(demands, dtype=float)
    level = water_levels(np.sort(d)[None, :], np.array([len(d)]), np.array([float(capacity)]))
    return np.minimum(d, level[0]).tolist()


@dataclass(frozen=True)
class AllocationPlan:
    """The time-independent part of an allocation, in index form.

    Arrays are indexed by position in ``s.ues`` (U) and in
    ``s.base_stations`` (B). ``blocks`` lists (stations, sorted peaks)
    pairs: the peak demands of each station's UEs in ascending order, one
    zero-padded row per station, stations grouped so that one block of a
    ``samples_per_chunk`` batch stays within the chunk byte budget.
    """

    serving: np.ndarray
    peaks: np.ndarray
    radio_cap: np.ndarray
    capacity: np.ndarray
    counts: np.ndarray
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    samples_per_chunk: int


def _blocks(serving: np.ndarray, peaks: np.ndarray, counts: np.ndarray, samples: int):
    """Group stations by attached count into zero-padded sorted-peak blocks."""
    by_station = np.lexsort((peaks, serving))
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    padded = np.append(peaks[by_station], 0.0)
    stations = np.argsort(-counts, kind="stable")
    stations = stations[counts[stations] > 0]
    blocks = []
    lo = 0
    while lo < len(stations):
        width = int(counts[stations[lo]])
        hi = lo + max(1, chunk_rows(width) // samples)
        group = stations[lo:hi]
        column = np.arange(width)
        index = np.where(
            column < counts[group][:, None], starts[group][:, None] + column, len(peaks)
        )
        blocks.append((group, padded[index]))
        lo = hi
    return tuple(blocks)


def plan_allocation(s: NetworkScenario, samples: int) -> AllocationPlan:
    """Compile ``s`` for allocating ``samples`` hours.

    Associates every UE with its nearest station, then computes radio
    capacity, hit ratio and effective capacity once per station, in
    ``s.base_stations`` order.
    """
    serving = nearest_stations(s)
    n_bs = len(s.base_stations)
    counts = np.bincount(serving, minlength=n_bs)
    peaks = np.array([u.demand_peak_bps for u in s.ues], dtype=float)
    if s.radio_mode == "abstract":
        radio_cap = np.array([b.kind.radio_capacity_bps for b in s.base_stations])
    else:
        radio_cap = physical_capacities(s, serving)
    popularity = zipf_popularity(s.cache.catalog_size, s.cache.zipf_exponent)
    hits: dict[int, float] = {}
    capacity = np.empty(n_bs)
    for i, bs in enumerate(s.base_stations):
        size = bs.kind.cache_size
        if size not in hits:
            hits[size] = hit_ratio(s.cache.strategy, size, popularity)
        capacity[i] = effective_bs_capacity(float(radio_cap[i]), bs.kind.xhaul.capacity_bps, hits[size])
    per_chunk = min(samples, chunk_rows(len(peaks)))
    return AllocationPlan(
        serving=serving,
        peaks=peaks,
        radio_cap=radio_cap,
        capacity=capacity,
        counts=counts,
        blocks=_blocks(serving, peaks, counts, per_chunk),
        samples_per_chunk=per_chunk,
    )


def fill(plan: AllocationPlan, factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grant max-min fair rates for a batch of demand factors f(t).

    Returns the granted rates (samples x U) and the radio load of every
    station (samples x B). Every UE demands ``peak * f``; each station's
    level comes from its sorted demands (sorting by peak sorts the
    demands, as f > 0), and a UE gets ``min(demand, level)``. A station's
    load is its served rate over its radio capacity, capped at 1; the
    served rate adds the rates in UE order, one at a time, like a Python
    ``sum`` over the attachment list.
    """
    n_samples, n_bs = len(factors), len(plan.capacity)
    levels = np.zeros((n_samples, n_bs))
    for stations, sorted_peaks in plan.blocks:
        demands = factors[:, None, None] * sorted_peaks
        levels[:, stations] = water_levels(demands, plan.counts[stations], plan.capacity[stations])
    rates = np.minimum(factors[:, None] * plan.peaks, levels[:, plan.serving])
    bins = (np.arange(n_samples)[:, None] * n_bs + plan.serving).ravel()
    served = np.bincount(bins, weights=rates.ravel(), minlength=n_samples * n_bs)
    served = served.reshape(n_samples, n_bs)
    with np.errstate(divide="ignore", invalid="ignore"):
        load = np.where(plan.radio_cap > 0, np.minimum(served / plan.radio_cap, 1.0), 0.0)
    return rates, load
