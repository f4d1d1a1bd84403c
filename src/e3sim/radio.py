"""UE-to-station association, air-interface capacity, and daily demand shape.

The array functions here work on index form: UE and station positions as
the (U, 2) ``s.ues.position_m`` and (B, 2) ``s.base_stations.position_m``
arrays, and the serving station of each UE as an index into the stations.
Association does not walk the U x B distance matrix: it buckets the
stations into a grid of square cells and scores each UE against the
stations of the 3 x 3 cells around its own, falling back to every station
only for the UEs that this cannot decide exactly. The physical-mode
interference sum does walk the whole matrix, as every station interferes
with every UE. Both take UEs in chunks whose temporaries stay within
``CHUNK_BYTES``, so their working space does not grow with the number of
stations.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .model import TrafficProfile, _finite

if TYPE_CHECKING:
    from .scenario import NetworkScenario

# Physical-mode propagation defaults: log-distance path loss with urban
# exponent, thermal noise floor, all interferers at full power (worst case).
PATHLOSS_REF_DB = 30.0
PATHLOSS_REF_DISTANCE_M = 1.0
PATHLOSS_EXPONENT = 3.5
NOISE_DBM_PER_HZ = -174.0

_NOISE_W_PER_HZ = 10.0 ** ((NOISE_DBM_PER_HZ - 30.0) / 10.0)

#: Received power over transmit power at distance d >= the reference
#: distance is ``_GAIN * (d * d) ** (-PATHLOSS_EXPONENT / 2)``: the
#: log-distance path loss without a logarithm.
_GAIN = 10.0 ** (-PATHLOSS_REF_DB / 10.0) * PATHLOSS_REF_DISTANCE_M**PATHLOSS_EXPONENT

#: Byte budget of one chunk temporary (a block of float64 rows).
CHUNK_BYTES = 1 << 16

#: Relative gap between squared distances below which association falls
#: back to the exact ``math.hypot`` comparison (rounding of dx*dx + dy*dy
#: is a few ulps, far below this).
_TIE_RTOL = 1e-12

#: Offsets of the 3 x 3 cells around a UE's cell, as (column, row) steps.
_NEIGHBOURS = [(dc, dr) for dr in (-1, 0, 1) for dc in (-1, 0, 1)]


def chunk_rows(width: int) -> int:
    """Rows of ``width`` float64 values that fit one chunk temporary."""
    return max(1, CHUNK_BYTES // (8 * max(width, 1)))


def nearest_stations(s: NetworkScenario) -> np.ndarray:
    """Index into ``s.base_stations`` of the station serving each UE.

    Nearest station by Euclidean distance, ties to the smallest bs_id: an
    ``argmin`` over stations sorted by bs_id (``StationLayout.id_order``,
    sorted once per layout) keeps the first of equal squared distances.
    Where two candidates lie within rounding of each other, the exact
    ``math.hypot`` distances decide, so the result is the same as comparing
    ``(math.hypot(...), bs_id)`` for every pair.

    Where the U x B squared distances fill more than one chunk, the cell
    search (``_cell_search``) settles every UE whose answer it can prove to
    be that one; the rest, or every UE of a smaller scenario, are scored
    against every station (``_nearest_of_all``).
    """
    order = s.base_stations.id_order
    bs = s.base_stations.position_m[order]
    ue = s.ues.position_m
    if len(ue) * len(bs) <= chunk_rows(1):
        return order[_nearest_of_all(bs, ue)]
    serving, settled = _cell_search(bs, ue)
    rest = np.flatnonzero(~settled)
    if len(rest):
        serving[rest] = _nearest_of_all(bs, ue[rest])
    return order[serving]


# a squared distance past the largest float is inf: it still orders, and ties go to ``_closest``
@np.errstate(over="ignore")
def _nearest_of_all(bs: np.ndarray, ue: np.ndarray) -> np.ndarray:
    """Row of ``bs`` nearest to each UE, scoring every station: the rule of
    ``nearest_stations`` over stations in ``bs`` row order."""
    nearest = np.empty(len(ue), dtype=np.intp)
    step = chunk_rows(len(bs))
    for lo in range(0, len(ue), step):
        chunk = ue[lo : lo + step]
        dx = bs[:, 0] - chunk[:, :1]
        dy = bs[:, 1] - chunk[:, 1:]
        d2 = dx * dx + dy * dy
        best = d2.argmin(axis=1)
        near = d2 <= d2[np.arange(len(chunk)), best][:, None] * (1.0 + _TIE_RTOL)
        ties = np.count_nonzero(near, axis=1) > 1
        if ties.all():  # far from the stations every row ties, and is not copied
            best = _closest(dx, dy, near)
        elif ties.any():
            best[ties] = _closest(dx[ties], dy[ties], near[ties])
        nearest[lo : lo + step] = best
    return nearest


# scaled squares past the largest float are inf, and below the smallest 0: neither is near
@np.errstate(over="ignore", under="ignore")
def _closest(dx: np.ndarray, dy: np.ndarray, near: np.ndarray) -> np.ndarray:
    """Column ``j`` of least ``(math.hypot(dx[i, j], dy[i, j]), j)`` of each
    row ``i``, where ``near`` marks every column within ``_TIE_RTOL`` of the
    row's least squared distance, so every least one.

    Squared distances overflow far from the stations, and then every
    station is near. So each row's differences are first scaled by the
    power of two that brings its least Chebyshev distance into [0.5, 1):
    that is exact, and the nearest stations' scaled squares are then at
    least 0.25, where an underflowing term is far below ``_TIE_RTOL``, and
    at most 2, so they cannot overflow; a row whose least Chebyshev
    distance is 0 or not finite keeps ``near``. ``math.hypot`` reads only
    ``|dx|`` and ``|dy|``, so it is called once per distinct pair of a row
    that is still near, for the first column of that pair.
    """
    ax, ay = abs(dx), abs(dy)
    least = np.maximum(ax, ay).min(axis=1)
    scaled = np.flatnonzero((least > 0) & (least < math.inf))
    if len(scaled):
        power = np.frexp(least[scaled])[1][:, None]
        sx, sy = np.ldexp(dx[scaled], -power), np.ldexp(dy[scaled], -power)
        s2 = sx * sx + sy * sy
        near[scaled] = s2 <= s2.min(axis=1)[:, None] * (1.0 + _TIE_RTOL)
    # (|dx|, |dy|) as one exact complex key, NaN (sorted last, equal to none) where not near; a
    # stable sort puts each row's equal pairs together in column order
    pair = np.empty(near.shape, dtype=complex)
    pair.real, pair.imag = ax, ay
    pair[~near] = complex(math.nan, math.nan)
    order = np.argsort(pair, axis=1, kind="stable")
    pair = np.take_along_axis(pair, order, axis=1)
    first = ~np.isnan(pair.real)
    first[:, 1:] &= pair[:, 1:] != pair[:, :-1]
    distance = np.full(near.shape, math.inf)
    distance[first] = list(map(math.hypot, pair.real[first].tolist(), pair.imag[first].tolist()))
    nearest = first & (distance == distance.min(axis=1)[:, None])
    return np.where(nearest, order, near.shape[1]).min(axis=1)


# squared distances and gaps past the largest float are inf, and compare as the full scan's do
@np.errstate(over="ignore")
def _cell_search(bs: np.ndarray, ue: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest row of ``bs`` for each UE from the stations around it, and
    whether that is provably the answer of ``_nearest_of_all``.

    The stations go into a grid of square cells over their bounding box,
    with about one station per cell. A UE's cell is the one it lies in,
    or the nearest edge cell for a UE outside the box; it is scored
    against the stations of the 3 x 3 cells around that cell. Every other
    station lies past one of four lines: left of the largest x of the
    columns two or more to the left, and so on. Rounding is monotone, so
    the squared gap to the nearest of those lines, computed like any
    ``dx * dx``, is a lower bound on the squared distance the full scan
    computes for each of those stations. A UE is settled when exactly one
    candidate lies within ``_TIE_RTOL`` of its best and that bound is
    larger than this margin: the full scan would then find no other
    station inside it and pick the same one. Where the 3 x 3 cells hold no
    fewer candidate slots than there are stations, nothing is settled.
    """
    n_bs = len(bs)
    serving = np.zeros(len(ue), dtype=np.intp)
    lo = bs.min(axis=0)
    span = (bs.max(axis=0) - lo).tolist()
    if not all(map(math.isfinite, span)):
        return serving, np.zeros(len(ue), dtype=bool)
    # n_bs cells of side**2 cover the box when it has an area; a line of
    # stations gets n_bs cells along its length
    side = max(math.sqrt(span[0] * span[1] / n_bs), max(span) / n_bs)
    shape = [int(extent // side) + 1 if side > 0 else 1 for extent in span]
    cols, rows = (_cell_index(bs[:, a], lo[a], side, shape[a]) for a in (0, 1))
    width = shape[0] + 2  # a ring of empty cells around the grid
    cell = (rows + 1) * width + cols + 1
    by_cell = np.argsort(cell, kind="stable")
    counts = np.bincount(cell, minlength=width * (shape[1] + 2))
    starts = np.cumsum(counts) - counts
    slots = int(counts.max())
    if len(_NEIGHBOURS) * slots >= n_bs:
        return serving, np.zeros(len(ue), dtype=bool)
    # candidate slots past a cell's count point at a station at infinity
    padded = np.append(by_cell, n_bs)
    bs_x, bs_y = np.append(bs[:, 0], math.inf), np.append(bs[:, 1], math.inf)
    (left, right), (down, up) = (_beyond(bs[:, a], (cols, rows)[a], shape[a]) for a in (0, 1))
    offsets = np.array([dr * width + dc for dc, dr in _NEIGHBOURS])
    slot = np.arange(slots)
    settled = np.zeros(len(ue), dtype=bool)
    step = chunk_rows(len(offsets) * slots)
    for first in range(0, len(ue), step):
        x, y = ue[first : first + step, 0], ue[first : first + step, 1]
        col = _cell_index(x, lo[0], side, shape[0])
        row = _cell_index(y, lo[1], side, shape[1])
        around = (row + 1)[:, None] * width + (col + 1)[:, None] + offsets
        index = starts[around][..., None] + slot
        index = np.where(slot < counts[around][..., None], index, n_bs).reshape(len(x), -1)
        candidates = padded[index]
        dx = bs_x[candidates] - x[:, None]
        dy = bs_y[candidates] - y[:, None]
        d2 = dx * dx + dy * dy
        best = d2.argmin(axis=1)
        margin = d2[np.arange(len(x)), best] * (1.0 + _TIE_RTOL)
        unique = np.count_nonzero(d2 <= margin[:, None], axis=1) == 1
        gap = np.maximum(np.minimum.reduce([x - left[col], right[col] - x, y - down[row], up[row] - y]), 0.0)
        settled[first : first + step] = unique & (gap * gap > margin)
        serving[first : first + step] = candidates[np.arange(len(x)), best]
    return serving, settled


def _cell_index(coordinate: np.ndarray, lo: float, side: float, n: int) -> np.ndarray:
    """Column (or row) of each coordinate in a grid of ``n`` cells of ``side``
    from ``lo``, clamped into the grid."""
    if n == 1:
        return np.zeros(len(coordinate), dtype=np.intp)
    return np.clip(np.floor((coordinate - lo) / side), 0, n - 1).astype(np.intp)


def _beyond(coordinate: np.ndarray, cell: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """For a UE in column (or row) c of ``n``: the largest coordinate of the
    stations in cells c - 2 and below (-inf if none), and the smallest of
    those in cells c + 2 and above (inf if none)."""
    largest = np.full(n, -math.inf)
    np.maximum.at(largest, cell, coordinate)
    smallest = np.full(n, math.inf)
    np.minimum.at(smallest, cell, coordinate)
    below = np.concatenate([[-math.inf, -math.inf], np.maximum.accumulate(largest)])[:n]
    above = np.concatenate([np.minimum.accumulate(smallest[::-1])[::-1], [math.inf, math.inf]])[2:]
    return below, above


def station_radio(s: NetworkScenario) -> tuple[np.ndarray, np.ndarray]:
    """Each station's transmit power and bandwidth: all ``physical_capacities`` reads but positions."""
    return s.station_values(lambda k: k.tx_power_w), s.station_values(lambda k: k.bandwidth_hz)


# a squared distance past the largest float is inf, and its received power 0 W
@np.errstate(over="ignore")
def physical_capacities(s: NetworkScenario, serving: np.ndarray) -> np.ndarray:
    """Physical-mode air-interface capacity of every station in bit/s.

    ``serving`` is the station index of each UE. Each station splits its
    kind's bandwidth equally among the UEs it serves and sums their
    Shannon rates, with SINR taken over the full band under full-power
    interference from every other station. Received power is
    ``tx_power_w * _GAIN * max(d * d, d_ref * d_ref) ** (-PATHLOSS_EXPONENT / 2)``,
    the log-distance path loss with the distance clamped to the reference.
    One received-power row per UE, built chunk by chunk. Stations serving
    no UE get 0.
    """
    n_bs = len(s.base_stations)
    bs = s.base_stations.position_m
    ue_xy = s.ues.position_m
    power, bandwidth = station_radio(s)
    gain = power * _GAIN
    noise_w = _NOISE_W_PER_HZ * bandwidth
    share_hz = bandwidth / np.maximum(np.bincount(serving, minlength=n_bs), 1)
    rates = np.empty(len(ue_xy))
    step = chunk_rows(n_bs)
    for lo in range(0, len(ue_xy), step):
        chunk = ue_xy[lo : lo + step]
        own = serving[lo : lo + step]
        rows = np.arange(len(chunk))
        dx = bs[:, 0] - chunk[:, :1]
        dy = bs[:, 1] - chunk[:, 1:]
        d2 = np.maximum(dx * dx + dy * dy, PATHLOSS_REF_DISTANCE_M * PATHLOSS_REF_DISTANCE_M)
        received = gain * d2 ** (-PATHLOSS_EXPONENT / 2.0)
        signal = received[rows, own]
        received[rows, own] = 0.0
        sinr = signal / (received.sum(axis=1) + noise_w[own])
        rates[lo : lo + step] = share_hz[own] * np.log2(1.0 + sinr)
    return np.bincount(serving, weights=rates, minlength=n_bs)


def demand_factor(t_hours: float, profile: TrafficProfile) -> float:
    """Share of the peak demand that every UE requests at hour ``t_hours``.

    A UE demands its ``demand_peak_bps`` times this factor. Sinusoidal
    shape peaking at ``peak_hour`` with the configured peak-to-minimum
    ratio: 1 at the peak and ``1 / peak_to_min_ratio`` at the trough.
    Periodic with period 24 h.

    Raises:
        ValueError: ``t_hours`` is NaN, infinite or an int past any float.
    """
    t_hours = _finite(t_hours, "t_hours")
    rho = profile.peak_to_min_ratio
    # the offset from the peak is taken within one day first, as 2 pi times a huge hour overflows
    phase = (1.0 + math.cos(2.0 * math.pi * math.fmod(t_hours - profile.peak_hour, 24.0) / 24.0)) / 2.0
    return 1.0 / rho + (1.0 - 1.0 / rho) * phase
