"""Content popularity and closed-form cache hit ratios.

Request popularity is Zipf over a ranked catalog: item i is requested with
probability i^(-s) / H, H the generalized harmonic sum. Two strategies are
modelled in expectation, not simulated: filling the cache with the M most
popular items (hit ratio = head sum of the popularity), and filling it with
M uniformly random distinct items (expected hit ratio = M/F regardless of
the popularity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Popularity:
    """Request probabilities by popularity rank, most popular first."""

    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        p = self.probabilities
        if len(p) < 1:
            raise ValueError("Popularity: at least one item required")
        if any(x < 0 for x in p):
            raise ValueError("Popularity: probabilities must be >= 0")
        if any(p[i + 1] > p[i] + 1e-12 for i in range(len(p) - 1)):
            raise ValueError("Popularity: probabilities must be non-increasing")
        total = math.fsum(p)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"Popularity: probabilities sum to {total}, expected 1")

    def __len__(self) -> int:
        return len(self.probabilities)


def zipf_popularity(catalog_size: int, exponent: float) -> Popularity:
    """Zipf popularity over ``catalog_size`` ranked items.

    p_i = i^(-exponent) / sum_j j^(-exponent). Exponent 0 gives the uniform
    distribution.
    """
    if catalog_size < 1:
        raise ValueError("catalog_size must be >= 1")
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    weights = [i ** -exponent for i in range(1, catalog_size + 1)]
    total = math.fsum(weights)
    return Popularity(tuple(w / total for w in weights))


def hit_ratio(strategy: str, cache_size: int, popularity: Popularity) -> float:
    """Expected fraction of requested traffic served from the cache.

    ``none`` caches nothing; ``random_fill`` holds ``cache_size`` uniformly
    random distinct items (expectation M/F); ``top_popular`` holds the
    ``cache_size`` most popular items.
    """
    catalog = len(popularity)
    if not 0 <= cache_size <= catalog:
        raise ValueError(
            f"cache larger than catalog: cache_size {cache_size}, catalog {catalog}"
        )
    if strategy == "none":
        return 0.0
    if strategy == "random_fill":
        return cache_size / catalog
    if strategy == "top_popular":
        return math.fsum(popularity.probabilities[:cache_size])
    raise ValueError(f"unknown caching strategy '{strategy}'")
