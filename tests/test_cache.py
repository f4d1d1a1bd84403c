"""Zipf tables, strategy hit ratios, and the combinatorial oracle."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import ENGINE_CACHES
from e3sim import CacheConfig, InvariantError, cache, hit_ratio
from oracles import expected_random_hit_exact


def normalized_popularity(raw):
    weights = sorted(raw, reverse=True)
    total = math.fsum(weights)
    return tuple(w / total for w in weights)


popularity_vectors = st.lists(
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False), min_size=1, max_size=10
).map(normalized_popularity)


def top_popular(catalog, exponent):
    return CacheConfig(catalog_size=catalog, zipf_exponent=exponent, strategy="top_popular")


class TestZipfTable:
    def test_single_item(self):
        assert cache._zipf_probabilities(1, 1.7) == (1.0,)
        assert hit_ratio(top_popular(1, 1.7), 1) == 1.0

    def test_zero_exponent_is_uniform(self):
        assert [hit_ratio(top_popular(4, 0.0), m) for m in range(5)] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_three_items_unit_exponent(self):
        # harmonic sum 1 + 1/2 + 1/3 = 11/6
        heads = [hit_ratio(top_popular(3, 1.0), m) for m in (1, 2)]
        assert heads == pytest.approx([6 / 11, 9 / 11], rel=1e-14)

    @given(catalog=st.integers(1, 200), s=st.floats(0.0, 3.0, allow_nan=False))
    def test_valid_distribution(self, catalog, s):
        p = cache._zipf_probabilities(catalog, s)
        assert abs(math.fsum(p) - 1.0) <= 1e-12
        assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))

    @pytest.mark.parametrize("exponent", [math.nan, math.inf, -math.inf, -0.5])
    def test_non_finite_or_negative_exponent_rejected(self, exponent):
        # a NaN exponent once summed NaN probabilities to a hit ratio of 1.0
        with pytest.raises(InvariantError, match="^CacheConfig: zipf_exponent must be finite and >= 0$"):
            top_popular(20, exponent)

    @pytest.mark.parametrize(
        "catalog, message",
        [(True, "an integer"), (False, "an integer"), (20.0, "an integer"), (2.5, "an integer"), ("20", "an integer"),
         (None, "an integer"), (0, ">= 1"), (-3, ">= 1")],
    )
    def test_catalog_size_must_be_an_integer_of_at_least_one(self, catalog, message):
        with pytest.raises(InvariantError, match=f"^CacheConfig: catalog_size must be {message}$"):
            top_popular(catalog, 0.8)

    def test_numpy_integer_catalog_size_accepted(self):
        assert hit_ratio(top_popular(np.int64(3), 1.0), 1) == hit_ratio(top_popular(3, 1.0), 1)

    @pytest.mark.parametrize("exponent", [True, False, "0.8", None, 1j])
    def test_exponent_must_be_a_number(self, exponent):
        # True once gave the exponent-1 table, and "0.8" a bare TypeError
        with pytest.raises(InvariantError, match="^CacheConfig: zipf_exponent must be a number$"):
            top_popular(20, exponent)

    def test_numpy_exponent_accepted(self):
        assert hit_ratio(top_popular(20, np.float32(0.5)), 6) == hit_ratio(top_popular(20, 0.5), 6)


class TestHitRatio:
    def test_empty_cache_never_hits(self):
        for strategy in ("none", "random_fill", "top_popular"):
            assert hit_ratio(CacheConfig(catalog_size=5, zipf_exponent=1.0, strategy=strategy), 0) == 0.0

    def test_full_cache_always_hits(self):
        assert hit_ratio(CacheConfig(catalog_size=5, zipf_exponent=1.0, strategy="random_fill"), 5) == 1.0
        assert hit_ratio(top_popular(5, 1.0), 5) == pytest.approx(1.0, abs=1e-12)

    def test_a_full_top_popular_cache_hits_at_most_one(self):
        # the rounded Zipf probabilities at F = 18, s = 1.5 sum to 1 + 2.2e-16
        assert math.fsum(cache._zipf_probabilities(18, 1.5)) > 1.0
        assert hit_ratio(top_popular(18, 1.5), 18) == 1.0

    def test_none_ignores_cache_size(self):
        assert hit_ratio(CacheConfig(catalog_size=5, zipf_exponent=1.0, strategy="none"), 3) == 0.0

    def test_top_popular_head_sum(self):
        # most popular of three items at unit exponent carries 6/11 of requests
        assert hit_ratio(top_popular(3, 1.0), 1) == pytest.approx(6 / 11, rel=1e-14)

    def test_random_fill_is_cache_fraction(self):
        config = CacheConfig(catalog_size=12, zipf_exponent=0.9, strategy="random_fill")
        assert hit_ratio(config, 3) == pytest.approx(0.25)

    def test_oversized_cache_rejected(self):
        for strategy in ("none", "random_fill", "top_popular"):
            config = CacheConfig(catalog_size=20, zipf_exponent=0.8, strategy=strategy)
            with pytest.raises(ValueError, match="^cache larger than catalog: cache_size 21, catalog 20$"):
                hit_ratio(config, 21)

    @pytest.mark.parametrize("strategy", ["none", "random_fill", "top_popular"])
    def test_negative_cache_size_rejected_before_any_lookup(self, strategy):
        config = CacheConfig(catalog_size=20, zipf_exponent=0.8, strategy=strategy)
        with pytest.raises(ValueError, match="^cache_size must be >= 0, got -1$"):
            hit_ratio(config, -1)
        assert cache._head_sum.cache_info().currsize == cache._zipf_probabilities.cache_info().currsize == 0

    @pytest.mark.parametrize("strategy", ["none", "random_fill", "top_popular"])
    def test_only_top_popular_reads_the_zipf_table(self, strategy):
        config = CacheConfig(catalog_size=20, zipf_exponent=0.8, strategy=strategy)
        with mock.patch.object(cache, "_zipf_probabilities", wraps=cache._zipf_probabilities) as build:
            assert hit_ratio(config, 6) == oracles.hit_ratio(config, 6)
        assert build.call_count == (strategy == "top_popular")

    @pytest.mark.parametrize("catalog", [1, 20, 4097])
    @pytest.mark.parametrize("exponent", [0.0, 0.8, 2.5])
    def test_hit_ratios_equal_the_oracle_bitwise(self, catalog, exponent):
        sizes = sorted({0, 1, catalog // 3, catalog - 1, catalog})
        configs = [
            CacheConfig(catalog_size=catalog, zipf_exponent=exponent, strategy=strategy)
            for strategy in ("none", "random_fill", "top_popular")
        ]
        assert cache._zipf_probabilities.cache_info().currsize == 0  # a cold table too, not only a kept one
        got = [hit_ratio(config, m).hex() for config in configs for m in sizes]
        assert got == [oracles.hit_ratio(config, m).hex() for config in configs for m in sizes]

    def test_a_repeated_cache_config_computes_its_table_once(self):
        config = top_popular(4097, 0.8)
        for m in range(0, 4097, 97):
            hit_ratio(config, m)
        assert cache._zipf_probabilities.cache_info().misses == 1

    def test_the_head_sums_kept_are_bounded(self):
        config = top_popular(2000, 0.8)
        for m in range(1100):
            hit_ratio(config, m)
        info = cache._head_sum.cache_info()
        assert info.misses == 1100 and info.currsize == info.maxsize == 1024

    @pytest.mark.parametrize("strategy", ["none", "random_fill", "top_popular"])
    @pytest.mark.parametrize("size", [True, False, 2.5, 6.0, "6", None])
    def test_cache_size_must_be_an_integer(self, strategy, size):
        # True once hit as one item, and 2.5 gave 2.5/F under random_fill
        config = CacheConfig(catalog_size=20, zipf_exponent=0.8, strategy=strategy)
        with pytest.raises(ValueError, match=f"^cache_size must be an integer, got {re.escape(repr(size))}$"):
            hit_ratio(config, size)

    def test_numpy_integer_cache_size_accepted(self):
        config = top_popular(20, 0.8)
        assert hit_ratio(config, np.int64(6)) == hit_ratio(config, 6)

    @given(catalog=st.integers(1, 30), s=st.floats(0.0, 2.5))
    def test_monotone_in_cache_size_and_strategy_order(self, catalog, s):
        configs = {
            strategy: CacheConfig(catalog_size=catalog, zipf_exponent=s, strategy=strategy)
            for strategy in ("random_fill", "top_popular")
        }
        previous = {"random_fill": -1.0, "top_popular": -1.0}
        for m in range(catalog + 1):
            rand = hit_ratio(configs["random_fill"], m)
            top = hit_ratio(configs["top_popular"], m)
            assert rand >= previous["random_fill"] - 1e-15
            assert top >= previous["top_popular"] - 1e-15
            assert top >= rand - 1e-12
            previous = {"random_fill": rand, "top_popular": top}

    def test_top_popular_concave_for_positive_exponent(self):
        config = top_popular(30, 0.7)
        values = [hit_ratio(config, m) for m in range(31)]
        first = [values[i + 1] - values[i] for i in range(30)]
        assert all(first[i + 1] <= first[i] + 1e-15 for i in range(29))


class TestExpectedRandomHitExact:
    def test_one_of_three(self):
        # 3 singleton subsets, each covering one item: mean mass is 1/3
        assert expected_random_hit_exact(1, oracles.zipf_probabilities(3, 1.3)) == pytest.approx(1 / 3, rel=1e-14)

    def test_empty_cache(self):
        assert expected_random_hit_exact(0, oracles.zipf_probabilities(3, 1.0)) == 0.0

    def test_two_of_four_zipf(self):
        # 6 pair subsets over the unit-exponent catalog average to 1/2
        assert expected_random_hit_exact(2, oracles.zipf_probabilities(4, 1.0)) == pytest.approx(0.5, rel=1e-14)

    def test_large_catalog_rejected(self):
        with pytest.raises(ValueError, match="oracle instance too large"):
            expected_random_hit_exact(1, oracles.zipf_probabilities(21, 1.0))

    @given(probabilities=popularity_vectors, data=st.data())
    def test_equals_cache_fraction_for_any_popularity(self, probabilities, data):
        m = data.draw(st.integers(0, len(probabilities)))
        exact = expected_random_hit_exact(m, probabilities)
        assert exact == pytest.approx(m / len(probabilities), abs=1e-12)


def test_each_test_starts_with_the_engine_caches_empty():
    assert {"_zipf_probabilities", "_head_sum", "_demand_factors"} <= {f.__name__ for f in ENGINE_CACHES}
    assert all(f.cache_info().currsize == 0 for f in ENGINE_CACHES)
