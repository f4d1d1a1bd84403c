"""UE-to-station association, air-interface capacity, and daily demand shape.

The array functions here work on index form: UE positions as an (U, 2)
array, stations as an (B, 2) array in ``s.base_stations`` order, and the
serving station of each UE as an index into it. They walk the U x B
distance matrix in chunks of UEs whose temporaries stay within
``CHUNK_BYTES``, so working memory does not grow with the scenario.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .model import NetworkScenario, TrafficProfile

# Physical-mode propagation defaults: log-distance path loss with urban
# exponent, thermal noise floor, all interferers at full power (worst case).
PATHLOSS_REF_DB = 30.0
PATHLOSS_REF_DISTANCE_M = 1.0
PATHLOSS_EXPONENT = 3.5
NOISE_DBM_PER_HZ = -174.0

_NOISE_W_PER_HZ = 10.0 ** ((NOISE_DBM_PER_HZ - 30.0) / 10.0)

#: Byte budget of one chunk temporary (a block of float64 rows).
CHUNK_BYTES = 1 << 16

#: Relative gap between squared distances below which association falls
#: back to the exact ``math.hypot`` comparison (rounding of dx*dx + dy*dy
#: is a few ulps, far below this).
_TIE_RTOL = 1e-12


def chunk_rows(width: int) -> int:
    """Rows of ``width`` float64 values that fit one chunk temporary."""
    return max(1, CHUNK_BYTES // (8 * max(width, 1)))


def positions(items) -> np.ndarray:
    """(N, 2) float array of the ``position_m`` of stations or UEs."""
    return np.array([item.position_m for item in items], dtype=float).reshape(-1, 2)


def nearest_stations(s: NetworkScenario) -> np.ndarray:
    """Index into ``s.base_stations`` of the station serving each UE.

    Nearest station by Euclidean distance, ties to the smallest bs_id: an
    ``argmin`` over stations sorted by bs_id keeps the first of equal
    squared distances. Where two candidates lie within rounding of each
    other, the exact ``math.hypot`` distances decide, so the result is the
    same as comparing ``(math.hypot(...), bs_id)`` for every pair.
    """
    order = np.array(sorted(range(len(s.base_stations)), key=lambda i: s.base_stations[i].bs_id))
    bs = positions(s.base_stations)[order]
    ue = positions(s.ues)
    serving = np.empty(len(ue), dtype=np.intp)
    step = chunk_rows(len(order))
    for lo in range(0, len(ue), step):
        chunk = ue[lo : lo + step]
        dx = bs[:, 0] - chunk[:, :1]
        dy = bs[:, 1] - chunk[:, 1:]
        d2 = dx * dx + dy * dy
        best = d2.argmin(axis=1)
        near = d2 <= d2[np.arange(len(chunk)), best][:, None] * (1.0 + _TIE_RTOL)
        for row in np.flatnonzero(np.count_nonzero(near, axis=1) > 1):
            x, y = chunk[row]
            best[row] = min(
                np.flatnonzero(near[row]),
                key=lambda j: (math.hypot(bs[j, 0] - x, bs[j, 1] - y), j),
            )
        serving[lo : lo + step] = order[best]
    return serving


def path_loss_db(distance_m):
    """Log-distance path loss in dB; distances below the reference clamp to it.

    Takes a distance or an array of distances.
    """
    d = np.maximum(distance_m, PATHLOSS_REF_DISTANCE_M)
    return PATHLOSS_REF_DB + 10.0 * PATHLOSS_EXPONENT * np.log10(d / PATHLOSS_REF_DISTANCE_M)


def physical_capacities(s: NetworkScenario, serving: np.ndarray) -> np.ndarray:
    """Physical-mode air-interface capacity of every station in bit/s.

    ``serving`` is the station index of each UE. Each station splits its kind's bandwidth equally among the UEs it
    serves and sums their Shannon rates, with SINR taken over the full
    band under full-power interference from every other station. One
    received-power row per UE, built chunk by chunk. Stations serving no
    UE get 0.
    """
    n_bs = len(s.base_stations)
    bs = positions(s.base_stations)
    ue_xy = positions(s.ues)
    tx_w = np.array([b.kind.tx_power_w for b in s.base_stations])
    bandwidth = np.array([b.kind.bandwidth_hz for b in s.base_stations])
    noise_w = _NOISE_W_PER_HZ * bandwidth
    share_hz = bandwidth / np.maximum(np.bincount(serving, minlength=n_bs), 1)
    rates = np.empty(len(ue_xy))
    step = chunk_rows(n_bs)
    for lo in range(0, len(ue_xy), step):
        chunk = ue_xy[lo : lo + step]
        own = serving[lo : lo + step]
        rows = np.arange(len(chunk))
        distance = np.hypot(bs[:, 0] - chunk[:, :1], bs[:, 1] - chunk[:, 1:])
        received = tx_w / 10.0 ** (path_loss_db(distance) / 10.0)
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
        ValueError: ``t_hours`` is NaN or infinite.
    """
    if not math.isfinite(t_hours):
        raise ValueError(f"t_hours must be finite, got {t_hours}")
    rho = profile.peak_to_min_ratio
    phase = (1.0 + math.cos(2.0 * math.pi * (t_hours - profile.peak_hour) / 24.0)) / 2.0
    return 1.0 / rho + (1.0 - 1.0 / rho) * phase
