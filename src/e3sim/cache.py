"""Closed-form cache hit ratios.

Request popularity is Zipf over a ranked catalog: item i is requested with
probability i^(-s) / H, H the generalized harmonic sum. Two strategies are
modelled in expectation, not simulated: filling the cache with the M most
popular items (hit ratio = head sum of the popularity), and filling it with
M uniformly random distinct items (expected hit ratio = M/F regardless of
the popularity).
"""

from __future__ import annotations

import functools
import math

from .model import CacheConfig, _is_int


@functools.lru_cache(maxsize=1)
def _zipf_probabilities(catalog_size: int, exponent: float) -> tuple[float, ...]:
    """Zipf probabilities of ``catalog_size`` ranked items, most popular first.

    The last table is kept, as a sweep asks for the same one at every point.
    """
    weights = [i ** -exponent for i in range(1, catalog_size + 1)]
    total = math.fsum(weights)
    return tuple(w / total for w in weights)


def hit_ratio(cache: CacheConfig, cache_size: int) -> float:
    """Expected fraction of requested traffic served from a cache of ``cache_size`` items.

    ``cache.strategy`` ``none`` caches nothing; ``random_fill`` holds
    ``cache_size`` uniformly random distinct items (expectation M/F); and
    ``top_popular`` holds the ``cache_size`` most popular items, the head
    sum of the Zipf table of ``cache`` (``_head_sum``).
    """
    if not _is_int(cache_size):
        raise ValueError(f"cache_size must be an integer, got {cache_size!r}")
    if cache_size < 0:
        raise ValueError(f"cache_size must be >= 0, got {cache_size}")
    catalog = cache.catalog_size
    if cache_size > catalog:
        raise ValueError(
            f"cache larger than catalog: cache_size {cache_size}, catalog {catalog}"
        )
    if cache.strategy == "none":
        return 0.0
    if cache.strategy == "random_fill":
        return cache_size / catalog
    return _head_sum(catalog, float(cache.zipf_exponent), cache_size)


@functools.lru_cache(maxsize=1024)
def _head_sum(catalog_size: int, exponent: float, cache_size: int) -> float:
    """Zipf share of the ``cache_size`` most popular items; a sweep sums each head once."""
    probabilities = _zipf_probabilities(catalog_size, exponent)
    # the rounded probabilities of a whole catalog may sum to just over 1
    return min(1.0, math.fsum(probabilities[:cache_size]))
