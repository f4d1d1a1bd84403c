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
import numbers
import threading
from collections import OrderedDict
from dataclasses import dataclass

from .model import CacheConfig
from .radio import CHUNK_BYTES


@dataclass(frozen=True)
class Popularity:
    """Request probabilities by popularity rank, most popular first."""

    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        p = self.probabilities
        if len(p) < 1:
            raise ValueError("Popularity: at least one item required")
        if not all(0 <= x <= 1 for x in p):
            raise ValueError("Popularity: probabilities must be finite and in [0, 1]")
        if any(p[i + 1] > p[i] + 1e-12 for i in range(len(p) - 1)):
            raise ValueError("Popularity: probabilities must be non-increasing")
        total = math.fsum(p)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"Popularity: probabilities sum to {total}, expected 1")

    def __len__(self) -> int:
        return len(self.probabilities)


#: Recently computed popularities by (catalog_size, exponent), oldest first,
#: and the lock that guards them.
_RECENT: OrderedDict[tuple[int, float], Popularity] = OrderedDict()
_RECENT_LOCK = threading.Lock()


def zipf_popularity(catalog_size: int, exponent: float) -> Popularity:
    """Zipf popularity over ``catalog_size`` ranked items.

    p_i = i^(-exponent) / sum_j j^(-exponent). Exponent 0 gives the uniform
    distribution. A sweep asks for the same few popularities at every
    point, so recent ones are kept: beside the one just asked for, at
    most ``CHUNK_BYTES`` worth of probabilities.
    """
    if isinstance(catalog_size, bool) or not isinstance(catalog_size, numbers.Integral) or catalog_size < 1:
        raise ValueError(f"catalog_size must be an integer >= 1, got {catalog_size!r}")
    if not 0 <= exponent < math.inf:
        raise ValueError(f"exponent must be finite and >= 0, got {exponent}")
    key = (catalog_size, exponent)
    with _RECENT_LOCK:
        popularity = _RECENT.get(key)
    if popularity is None:
        weights = [i ** -exponent for i in range(1, catalog_size + 1)]
        total = math.fsum(weights)
        popularity = Popularity(tuple(w / total for w in weights))
    with _RECENT_LOCK:
        _RECENT.pop(key, None)
        kept = sum(map(len, _RECENT.values()))
        while kept > CHUNK_BYTES // 8:
            kept -= len(_RECENT.popitem(last=False)[1])
        _RECENT[key] = popularity
    return popularity


def hit_ratio(strategy: str, cache_size: int, popularity: Popularity | CacheConfig) -> float:
    """Expected fraction of requested traffic served from the cache.

    ``none`` caches nothing; ``random_fill`` holds ``cache_size`` uniformly
    random distinct items (expectation M/F); ``top_popular`` holds the
    ``cache_size`` most popular items. Given a ``CacheConfig`` for
    ``popularity``, only ``top_popular`` builds its Zipf popularity.
    """
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
        if not isinstance(popularity, Popularity):
            popularity = zipf_popularity(popularity.catalog_size, popularity.zipf_exponent)
        # the rounded probabilities of a whole catalog may sum to just over 1
        return min(1.0, math.fsum(popularity.probabilities[:cache_size]))
    raise ValueError(f"unknown caching strategy '{strategy}'")
