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
placed kind (hit ratio included) and ``station_capacities`` one
scenario's radio and effective capacity per station; and ``fill`` grants
the rates of a batch of rows, each row one sample of one scenario. The
per-UE and per-station inputs are the columns of the scenario's
``UePopulation`` and ``StationLayout``, used as they are: the geometry
holds its read-only peak demand and weight arrays, and no step walks the
UEs or the stations one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .cache import hit_ratio, zipf_popularity
from .radio import chunk_rows, nearest_stations, physical_capacities

if TYPE_CHECKING:
    from .scenario import NetworkScenario


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
    call takes while its temporaries stay within the chunk byte budget.
    """

    serving: np.ndarray
    station_major: np.ndarray
    peaks: np.ndarray
    weights: np.ndarray
    counts: np.ndarray
    radio_cap: np.ndarray | None
    rows_per_chunk: int
    _blocks: dict[int, tuple] = field(default_factory=dict, repr=False)

    def blocks(self, rows: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(stations, sorted peaks) pairs for a batch of ``rows`` rows.

        The peak demands of each station's UEs in ascending order, one
        zero-padded row per station, stations grouped so that one block of
        the batch stays within the chunk byte budget.
        """
        if rows not in self._blocks:
            self._blocks[rows] = _blocks(self.serving, self.peaks, self.counts, rows)
        return self._blocks[rows]


def _blocks(serving: np.ndarray, peaks: np.ndarray, counts: np.ndarray, rows: int):
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
        hi = lo + max(1, chunk_rows(width) // rows)
        group = stations[lo:hi]
        column = np.arange(width)
        index = np.where(
            column < counts[group][:, None], starts[group][:, None] + column, len(peaks)
        )
        blocks.append((group, padded[index]))
        lo = hi
    return tuple(blocks)


def plan_geometry(s: NetworkScenario) -> Geometry:
    """Compile the geometry of ``s``: association, and physical radio capacity."""
    serving = nearest_stations(s)
    n_bs = len(s.base_stations)
    peaks = s.ues.demand_peak_bps
    return Geometry(
        serving=serving,
        station_major=np.argsort(serving, kind="stable"),
        peaks=peaks,
        weights=s.ues.weight,
        counts=np.bincount(serving, minlength=n_bs),
        radio_cap=physical_capacities(s, serving) if s.radio_mode == "physical" else None,
        rows_per_chunk=chunk_rows(max(len(peaks), n_bs)),
    )


def same_geometry(a: NetworkScenario, b: NetworkScenario) -> bool:
    """Whether ``plan_geometry(a)`` is the geometry of ``b`` too.

    It is when both have the same UE record, radio mode and daily sample
    count, and the same station columns (shared, as a sweep point's layout
    shares its base's, or equal ids and positions in the same order); in
    physical mode also the same transmit power and bandwidth per station.
    """
    if b.ues is not a.ues or b.radio_mode != a.radio_mode:
        return False
    if b.traffic.samples_per_day != a.traffic.samples_per_day:
        return False
    x, y = a.base_stations, b.base_stations
    if x.position_m is not y.position_m and not (
        len(x) == len(y)
        and (x.bs_id == y.bs_id or x.ids() == y.ids())
        and np.array_equal(x.position_m, y.position_m)
    ):
        return False
    return a.radio_mode != "physical" or all(
        np.array_equal(x.values(value), y.values(value))
        for value in (lambda k: k.tx_power_w, lambda k: k.bandwidth_hz)
    )


def xhaul_limits(s: NetworkScenario, hits: dict[tuple[int, int], float] | None = None) -> list[float]:
    """The X-Haul bound on effective capacity of each of ``s.base_stations.kinds``.

    A station's effective capacity is the smaller of its radio capacity and
    this bound: ``effective_bs_capacity`` at unbounded radio capacity, the
    X-Haul capacity over the miss fraction, or inf at hit ratio 1. The hit
    ratio is computed once per cache record and cache size: ``hits`` holds
    those computed so far, keyed by ``(id(s.cache), cache_size)``, for calls
    on scenarios that all stay alive.
    """
    hits = {} if hits is None else hits
    limits = []
    for kind in s.base_stations.kinds:
        key = (id(s.cache), kind.cache_size)
        if key not in hits:
            popularity = zipf_popularity(s.cache.catalog_size, s.cache.zipf_exponent)
            hits[key] = hit_ratio(s.cache.strategy, key[1], popularity)
        limits.append(effective_bs_capacity(math.inf, kind.xhaul.capacity_bps, hits[key]))
    return limits


def station_capacities(s: NetworkScenario, geometry: Geometry) -> tuple[list[float], list[float]]:
    """Radio and effective capacity of every station of ``s``, in ``s.base_stations`` order.

    Radio capacity is the geometry's in physical mode and each station's
    kind's in abstract mode; effective capacity is the smaller of it and
    the station's kind's ``xhaul_limits``.
    """
    radio_cap = geometry.radio_cap
    if radio_cap is None:
        radio_cap = s.base_stations.values(lambda k: k.radio_capacity_bps)
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
    """
    n_rows, n_bs = capacity.shape
    levels = np.zeros((n_rows, n_bs))
    for stations, sorted_peaks in geometry.blocks(n_rows):
        demands = factors[:, None, None] * sorted_peaks
        levels[:, stations] = water_levels(demands, geometry.counts[stations], capacity[:, stations])
    rates = np.minimum(factors[:, None] * geometry.peaks, levels[:, geometry.serving])
    bins = (np.arange(n_rows)[:, None] * n_bs + geometry.serving).ravel()
    served = np.bincount(bins, weights=rates.ravel(), minlength=n_rows * n_bs)
    served = served.reshape(n_rows, n_bs)
    with np.errstate(divide="ignore", invalid="ignore"):
        load = np.where(radio_cap > 0, np.minimum(served / radio_cap, 1.0), 0.0)
    return rates, load
