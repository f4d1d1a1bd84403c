"""Effective per-UE throughput under radio and X-Haul capacity limits.

Each station serves its attached UEs up to an effective capacity: the radio
capacity, or the X-Haul capacity divided by the miss fraction when the
X-Haul is the bottleneck (cache hits never traverse it). Within a station,
demands are granted max-min fairly: every UE receives its demand or the
common fair level, whichever is smaller.

Only the demands depend on the hour: every UE asks for its peak demand
times one shared factor f(t). And only a few scalars per station kind
depend on anything but the positions. So ``plan_geometry`` compiles what
the positions fix (association, physical radio capacity, and the UEs of
each station sorted by peak demand) once for every scenario that shares
them (``same_geometry``); ``xhaul_limits`` gives the X-Haul bound of each
placed kind from its hit ratio (``cache.hit_ratio``, which keeps the
``top_popular`` head sums it computes) and ``station_capacities`` one
scenario's radio and effective capacity per station; and ``fill`` grants
the rates of a batch of rows, each row one sample of one scenario. The
per-UE and per-station inputs are the columns of the scenario's
``UePopulation`` and ``StationLayout``, used as they are: the geometry
holds its read-only peak demand and weight arrays, and no step walks the
UEs or the stations one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .cache import hit_ratio
from .radio import chunk_rows, nearest_stations, physical_capacities, stable_order, station_radio

if TYPE_CHECKING:
    from .scenario import NetworkScenario


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
    # the remaining capacity; it overflows to -inf only past a demand that exceeds its share, which no level reads
    with np.errstate(over="ignore"):
        share = np.subtract.accumulate(steps, axis=-1, out=steps)
    left = counts[..., None] - np.arange(sorted_demands.shape[-1])
    share /= np.maximum(left, 1)
    over = (sorted_demands > share) & (left > 0)
    first = over.argmax(axis=-1)
    level = np.take_along_axis(share, first[..., None], axis=-1)[..., 0]
    level = np.where(over.any(axis=-1), level, np.inf)
    return np.where(capacity > 0, level, 0.0)


@dataclass(frozen=True, eq=False)
class Geometry:
    """What station and UE positions fix for an allocation, in index form.

    Arrays are indexed by position in ``s.ues`` (U) and in
    ``s.base_stations`` (B): the serving station of each UE, the UEs in
    station-major order, peak demands and weights, the UE count of each
    station, and in physical radio mode each station's radio capacity (None
    in abstract mode, where each scenario's kinds give it). Every scenario
    for which ``same_geometry`` holds with the compiled one shares it.
    ``rows_per_chunk`` is how many rows (samples of scenarios) one ``fill``
    call takes while its temporaries stay within the chunk byte budget, and
    ``blocks`` groups the stations for a batch of that many rows.
    """

    serving: np.ndarray
    station_major: np.ndarray
    peaks: np.ndarray
    weights: np.ndarray
    counts: np.ndarray
    radio_cap: np.ndarray | None
    rows_per_chunk: int

    @cached_property
    def blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(stations, sorted peaks) pairs for a batch of ``rows_per_chunk`` rows.

        The peak demands of each station's UEs in ascending order, one
        zero-padded row per station, stations grouped so that one block of
        a ``rows_per_chunk``-row batch stays within the chunk byte budget.
        Built at the first ``fill``; a caller passing ``fill`` more rows
        gets temporaries larger by the same factor.
        """
        padded, starts, stations = _blocks(self.serving, self.peaks, self.counts)
        counts, blocks, lo = self.counts, [], 0
        while lo < len(stations):
            width = int(counts[stations[lo]])
            group = stations[lo : lo + max(1, chunk_rows(width) // self.rows_per_chunk)]
            column = np.arange(width)
            index = np.where(column < counts[group][:, None], starts[group][:, None] + column, -1)
            blocks.append((group, padded[index]))
            lo += len(group)
        return tuple(blocks)


def _blocks(serving: np.ndarray, peaks: np.ndarray, counts: np.ndarray):
    """Peaks sorted by station then value, zero-padded; station starts; stations by UE count.

    The order is ``np.lexsort((peaks, serving))`` in two stable passes,
    least significant key first: a stable sort of the peaks, then the
    radix order of their stations (``radio.stable_order``).
    """
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    stations = np.argsort(-counts, kind="stable")
    padded = np.append(peaks[stable_order(serving, len(counts), np.argsort(peaks, kind="stable"))], 0.0)
    return padded, starts, stations[counts[stations] > 0]


def plan_geometry(s: NetworkScenario) -> Geometry:
    """Compile the geometry of ``s``: association, and physical radio capacity."""
    serving = nearest_stations(s)
    n_bs = len(s.base_stations)
    peaks = s.ues.demand_peak_bps
    return Geometry(
        serving=serving,
        station_major=stable_order(serving, n_bs),
        peaks=peaks,
        weights=s.ues.weight,
        counts=np.bincount(serving, minlength=n_bs),
        radio_cap=physical_capacities(s, serving) if s.radio_mode == "physical" else None,
        rows_per_chunk=chunk_rows(max(len(peaks), n_bs)),
    )


def same_geometry(a: NetworkScenario, b: NetworkScenario) -> bool:
    """Whether ``plan_geometry(a)`` is the geometry of ``b`` too.

    It is when both have the same UE record and radio mode, and the same
    station layout (the very object, as a sweep point shares its base's, or
    equal ``bs_id`` columns, None for both grids, and positions in the same
    order); in physical mode also the same ``radio.station_radio``, what
    physical capacity reads besides the positions. A grid and a list of the
    same stations differ, which a sweep never meets: its points keep their
    document's station section form. The daily sample count is no part of
    a geometry.
    """
    if b.ues is not a.ues or b.radio_mode != a.radio_mode:
        return False
    x, y = a.base_stations, b.base_stations
    if x is not y and not (
        len(x) == len(y)
        and x.bs_id == y.bs_id
        and np.array_equal(x.position_m, y.position_m)
    ):
        return False
    return a.radio_mode != "physical" or all(map(np.array_equal, station_radio(a), station_radio(b)))


def xhaul_limits(s: NetworkScenario) -> list[float]:
    """The X-Haul bound on effective capacity of each of ``s.placed_kinds``.

    A station's effective capacity is the smaller of its radio capacity and
    this bound. Only the miss share (1 - h) of served traffic crosses the
    X-Haul, so the bound is the X-Haul capacity over the miss fraction, or
    inf at hit ratio 1, where the X-Haul is bypassed entirely; h is the
    ``cache.hit_ratio`` of the kind's cache size.
    """
    limits = []
    for kind in s.placed_kinds:
        hit = hit_ratio(s.cache, kind.cache_size)
        limits.append(math.inf if hit == 1.0 else kind.xhaul.capacity_bps / (1.0 - hit))
    return limits


def station_capacities(s: NetworkScenario, geometry: Geometry) -> tuple[list[float], list[float]]:
    """Radio and effective capacity of every station of ``s``, in ``s.base_stations`` order.

    Radio capacity is the geometry's in physical mode and each station's
    kind's in abstract mode; effective capacity is the smaller of it and
    the station's kind's ``xhaul_limits``.
    """
    radio_cap = geometry.radio_cap
    if radio_cap is None:
        radio_cap = s.station_values(lambda k: k.radio_capacity_bps)
    limit = np.array(xhaul_limits(s))[s.base_stations.kind]
    return radio_cap.tolist(), np.minimum(radio_cap, limit).tolist()


def fill(
    geometry: Geometry, factors: np.ndarray, capacity: np.ndarray, radio_cap: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Grant max-min fair rates for a batch of rows.

    Row r is one sample of one scenario of the geometry: demand factor
    ``factors[r]``, and effective and radio capacity per station
    ``capacity[r]`` and ``radio_cap[r]`` (rows x B). Returns the granted
    rates (rows x U) and the radio load of every station (rows x B). Every
    UE demands ``peak * f``; each station's level comes from its sorted
    demands (sorting by peak sorts the demands, as f > 0), and a UE gets
    ``min(demand, level)``. A station's load is its served rate over its
    radio capacity, capped at 1; the served rate adds the rates in UE
    order, one at a time, like a Python ``sum`` over the attachment list.
    The levels are computed block by block (``geometry.blocks``), whose
    temporaries stay within the chunk byte budget for up to
    ``geometry.rows_per_chunk`` rows, the batch ``metrics`` passes.
    """
    n_rows, n_bs = capacity.shape
    levels = np.zeros((n_rows, n_bs))
    for stations, sorted_peaks in geometry.blocks:
        demands = factors[:, None, None] * sorted_peaks
        levels[:, stations] = water_levels(demands, geometry.counts[stations], capacity[:, stations])
    rates = np.multiply(factors[:, None], geometry.peaks)
    np.minimum(rates, levels[:, geometry.serving], out=rates)
    bins = (np.arange(n_rows)[:, None] * n_bs + geometry.serving).ravel()  # row r's UE to r * B + its station
    served = np.bincount(bins, weights=rates.ravel(), minlength=n_rows * n_bs)
    served = served.reshape(n_rows, n_bs)
    with np.errstate(divide="ignore", invalid="ignore"):
        load = np.where(radio_cap > 0, np.minimum(served / radio_cap, 1.0), 0.0)
    return rates, load
