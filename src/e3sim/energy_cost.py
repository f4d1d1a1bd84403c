"""Per-station power draw and the dimensionless cost coefficient.

Power follows an affine load model: a constant static part plus a dynamic
part linear in radio load. Stations with a wireless X-Haul pay an extra
dynamic share proportional to the transceiver part (``xhaul_power_factor``
times it), so the ratio between the two parts holds at every operating
point. Costs are yearly, per square meter of coverage; the cost coefficient
of a kind is its effective per-area cost divided by the benchmark cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .model import MAX_KIND

if TYPE_CHECKING:
    from .model import BsKind
    from .scenario import NetworkScenario


def dynamic_parts(max_tx_dynamic_power_w, xhaul_power_factor, radio_load):
    """Transceiver and X-Haul watts at the given radio load fraction.

    Takes numbers or arrays that broadcast together. The transceiver part
    scales linearly from 0 at idle to ``max_tx_dynamic_power_w`` at full
    load; the X-Haul part is ``xhaul_power_factor`` times it.
    """
    transceiver = max_tx_dynamic_power_w * np.asarray(radio_load, dtype=float)
    return transceiver, xhaul_power_factor * transceiver


def effective_cost_per_area(kind: BsKind) -> float:
    """Yearly per-area cost of a kind after discounts and cache items.

    When a cost breakdown is present, the inherited discount is applied to
    its capital components (infrastructure, site installation); otherwise
    the flat ``cost_per_area`` is used. The per-item cache cost, scaled by
    the kind's cache size, is added on top in both cases.
    """
    if kind.cost_breakdown is not None:
        base = kind.cost_breakdown.effective_total()
    else:
        base = kind.cost_per_area
    return base + kind.cache_size * kind.cache_item_cost_per_area


def cost_coefficient(kind: BsKind, benchmark_cost: float) -> float:
    """Dimensionless cost coefficient: effective per-area cost over benchmark."""
    if benchmark_cost <= 0:
        raise ValueError(f"benchmark cost must be positive, got {benchmark_cost}")
    return effective_cost_per_area(kind) / benchmark_cost


def resolve_benchmark_cost(s: NetworkScenario) -> float:
    """Numeric benchmark cost of a scenario.

    The ``max-kind`` sentinel resolves to the highest effective per-area
    cost in the catalog, so the costliest kind gets coefficient 1. Pinned
    numeric benchmarks pass through unchanged (required when comparing
    across scenarios).
    """
    if s.benchmark_cost == MAX_KIND:
        c0 = max(effective_cost_per_area(k) for k in s.kinds)
        if c0 <= 0:
            raise ValueError("max-kind benchmark resolved to a non-positive cost")
        return c0
    return float(s.benchmark_cost)


def station_cost_rate(kind: BsKind) -> float:
    """Yearly cost of one station of ``kind``: per-area cost times coverage."""
    return effective_cost_per_area(kind) * kind.coverage_area_m2

