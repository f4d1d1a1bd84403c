"""Content popularity and closed-form cache hit ratios.

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
import numbers
from dataclasses import dataclass

from .model import CacheConfig, _is_int


@dataclass(frozen=True)
class Popularity:
    """Request probabilities by popularity rank, most popular first."""

    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            p = tuple(self.probabilities)
            in_range = all(0 <= x <= 1 for x in p)
        except TypeError:
            raise ValueError("Popularity: probabilities must be a sequence of numbers") from None
        object.__setattr__(self, "probabilities", p)
        if len(p) < 1:
            raise ValueError("Popularity: at least one item required")
        if not in_range:
            raise ValueError("Popularity: probabilities must be finite and in [0, 1]")
        if any(p[i + 1] > p[i] + 1e-12 for i in range(len(p) - 1)):
            raise ValueError("Popularity: probabilities must be non-increasing")
        total = math.fsum(p)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"Popularity: probabilities sum to {total}, expected 1")

    def __len__(self) -> int:
        return len(self.probabilities)


@functools.lru_cache(maxsize=1)
def _zipf_probabilities(catalog_size: int, exponent: float) -> tuple[float, ...]:
    weights = [i ** -exponent for i in range(1, catalog_size + 1)]
    total = math.fsum(weights)
    return tuple(w / total for w in weights)


def zipf_popularity(catalog_size: int, exponent: float) -> Popularity:
    """Zipf popularity over ``catalog_size`` ranked items.

    p_i = i^(-exponent) / sum_j j^(-exponent); exponent 0 is uniform. The
    last table is kept, as a sweep asks for the same one at every point.
    """
    if not _is_int(catalog_size) or catalog_size < 1:
        raise ValueError(f"catalog_size must be an integer >= 1, got {catalog_size!r}")
    if isinstance(exponent, bool) or not isinstance(exponent, numbers.Real):
        raise ValueError(f"exponent must be a number, got {exponent!r}")
    if not 0 <= exponent < math.inf:
        raise ValueError(f"exponent must be finite and >= 0, got {exponent}")
    return Popularity(_zipf_probabilities(catalog_size, float(exponent)))


def hit_ratio(strategy: str, cache_size: int, popularity: Popularity | CacheConfig) -> float:
    """Expected fraction of requested traffic served from the cache.

    ``none`` caches nothing; ``random_fill`` holds ``cache_size`` uniformly
    random distinct items (expectation M/F); ``top_popular`` holds the
    ``cache_size`` most popular items, and alone reads the Zipf table of a
    ``CacheConfig``, summing its head without making a ``Popularity``.
    """
    if not _is_int(cache_size):
        raise ValueError(f"cache_size must be an integer, got {cache_size!r}")
    catalog = len(popularity) if isinstance(popularity, Popularity) else popularity.catalog_size
    if not 0 <= cache_size <= catalog:
        raise ValueError(
            f"cache larger than catalog: cache_size {cache_size}, catalog {catalog}"
        )
    if strategy == "none":
        return 0.0
    if strategy == "random_fill":
        return cache_size / catalog
    if strategy == "top_popular":
        if isinstance(popularity, Popularity):
            probabilities = popularity.probabilities
        else:
            probabilities = _zipf_probabilities(catalog, float(popularity.zipf_exponent))
        # the rounded probabilities of a whole catalog may sum to just over 1
        return min(1.0, math.fsum(probabilities[:cache_size]))
    raise ValueError(f"unknown caching strategy '{strategy}'")
