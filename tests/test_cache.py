"""Popularity model, strategy hit ratios, and the combinatorial oracle."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from e3sim import CacheConfig, Popularity, cache, hit_ratio, zipf_popularity
from oracles import expected_random_hit_exact


def normalized_popularity(raw):
    weights = sorted(raw, reverse=True)
    total = math.fsum(weights)
    return Popularity(tuple(w / total for w in weights))


popularity_vectors = st.lists(
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False), min_size=1, max_size=10
).map(normalized_popularity)


class TestZipfPopularity:
    def test_single_item(self):
        assert zipf_popularity(1, 1.7).probabilities == (1.0,)

    def test_zero_exponent_is_uniform(self):
        assert zipf_popularity(4, 0.0).probabilities == pytest.approx((0.25,) * 4)

    def test_three_items_unit_exponent(self):
        # harmonic sum 1 + 1/2 + 1/3 = 11/6
        p = zipf_popularity(3, 1.0).probabilities
        assert p == pytest.approx((6 / 11, 3 / 11, 2 / 11), rel=1e-14)

    @given(catalog=st.integers(1, 200), s=st.floats(0.0, 3.0, allow_nan=False))
    def test_valid_distribution(self, catalog, s):
        p = zipf_popularity(catalog, s).probabilities
        assert abs(math.fsum(p) - 1.0) <= 1e-12
        assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))

    def test_invalid_popularity_rejected(self):
        with pytest.raises(ValueError, match="non-increasing"):
            Popularity((0.2, 0.8))
        with pytest.raises(ValueError, match="sum"):
            Popularity((0.5, 0.2))

    @pytest.mark.parametrize("probabilities", [(math.nan,) * 20, (1.0, math.nan), (math.inf,), (0.5, 0.5, -0.0, -1e-300)])
    def test_non_finite_or_negative_probabilities_rejected(self, probabilities):
        with pytest.raises(ValueError, match=r"Popularity: probabilities must be finite and in \[0, 1\]"):
            Popularity(probabilities)

    @pytest.mark.parametrize("exponent", [math.nan, math.inf, -math.inf, -0.5])
    def test_non_finite_or_negative_exponent_rejected(self, exponent):
        with pytest.raises(ValueError, match=f"^exponent must be finite and >= 0, got {exponent}$"):
            zipf_popularity(20, exponent)

    @pytest.mark.parametrize("catalog", [True, False, 20.0, 2.5, "20", None, 0, -3])
    def test_catalog_size_must_be_an_integer_of_at_least_one(self, catalog):
        with pytest.raises(ValueError, match=f"^catalog_size must be an integer >= 1, got {catalog!r}$"):
            zipf_popularity(catalog, 0.8)

    def test_a_true_catalog_size_is_not_one_item(self):
        # True == 1 and hash(True) == hash(1), so a kept 1-item table must not answer for it
        zipf_popularity(1, 0.8)
        with pytest.raises(ValueError, match="catalog_size must be an integer"):
            zipf_popularity(True, 0.8)

    def test_numpy_integer_catalog_size_accepted(self):
        assert zipf_popularity(np.int64(3), 1.0) == zipf_popularity(3, 1.0)

    @pytest.mark.parametrize("exponent", [True, False, "0.8", None, 1j])
    def test_exponent_must_be_a_number(self, exponent):
        # True once gave the exponent-1 table, and "0.8" a bare TypeError
        with pytest.raises(ValueError, match=f"^exponent must be a number, got {re.escape(repr(exponent))}$"):
            zipf_popularity(20, exponent)

    def test_numpy_exponent_accepted(self):
        assert zipf_popularity(20, np.float32(0.5)) == zipf_popularity(20, 0.5)


class TestPopularityRecord:
    def test_a_list_is_stored_as_a_tuple(self):
        pop = Popularity([0.75, 0.25])
        assert pop.probabilities == (0.75, 0.25) and isinstance(pop.probabilities, tuple)
        assert hash(pop) == hash(Popularity((0.75, 0.25)))

    @pytest.mark.parametrize("probabilities", [("a",), (0.5, None), 0.5, None])
    def test_non_numbers_are_rejected(self, probabilities):
        with pytest.raises(ValueError, match=r"^Popularity: probabilities must be a sequence of numbers$"):
            Popularity(probabilities)


class TestHitRatio:
    def test_empty_cache_never_hits(self):
        pop = zipf_popularity(5, 1.0)
        for strategy in ("none", "random_fill", "top_popular"):
            assert hit_ratio(strategy, 0, pop) == 0.0

    def test_full_cache_always_hits(self):
        pop = zipf_popularity(5, 1.0)
        assert hit_ratio("random_fill", 5, pop) == pytest.approx(1.0, abs=1e-12)
        assert hit_ratio("top_popular", 5, pop) == pytest.approx(1.0, abs=1e-12)

    def test_a_full_top_popular_cache_hits_at_most_one(self):
        # the rounded Zipf probabilities at F = 18, s = 1.5 sum to 1 + 2.2e-16
        pop = zipf_popularity(18, 1.5)
        assert math.fsum(pop.probabilities) > 1.0
        assert hit_ratio("top_popular", 18, pop) == 1.0

    def test_none_ignores_cache_size(self):
        assert hit_ratio("none", 3, zipf_popularity(5, 1.0)) == 0.0

    def test_top_popular_head_sum(self):
        # most popular of three items at unit exponent carries 6/11 of requests
        assert hit_ratio("top_popular", 1, zipf_popularity(3, 1.0)) == pytest.approx(
            6 / 11, rel=1e-14
        )

    def test_random_fill_is_cache_fraction(self):
        assert hit_ratio("random_fill", 3, zipf_popularity(12, 0.9)) == pytest.approx(0.25)

    def test_oversized_cache_rejected(self):
        with pytest.raises(ValueError, match="cache larger than catalog"):
            hit_ratio("top_popular", 6, zipf_popularity(5, 1.0))

    def test_a_nan_exponent_gives_no_hit_ratio(self):
        # NaN probabilities once summed to a hit ratio of 1.0
        with pytest.raises(ValueError, match="exponent must be finite"):
            hit_ratio("top_popular", 6, zipf_popularity(20, float("nan")))

    @pytest.mark.parametrize("strategy", ["none", "random_fill", "top_popular"])
    def test_a_cache_config_builds_the_popularity_only_for_top_popular(self, strategy):
        config = CacheConfig(catalog_size=20, zipf_exponent=0.8, strategy=strategy)
        want = hit_ratio(strategy, 6, zipf_popularity(20, 0.8))
        with mock.patch.object(cache, "_zipf_probabilities", wraps=cache._zipf_probabilities) as build:
            assert hit_ratio(strategy, 6, config) == want
            with pytest.raises(ValueError, match="^cache larger than catalog: cache_size 21, catalog 20$"):
                hit_ratio(strategy, 21, config)
        assert build.call_count == (strategy == "top_popular")

    @pytest.mark.parametrize("catalog", [1, 20, 4097])
    @pytest.mark.parametrize("exponent", [0.0, 0.8, 2.5])
    def test_a_cache_config_makes_no_popularity_and_equals_the_record_path(self, catalog, exponent):
        sizes = sorted({0, 1, catalog // 3, catalog - 1, catalog})
        want = {
            (strategy, m): hit_ratio(strategy, m, zipf_popularity(catalog, exponent))
            for strategy in ("none", "random_fill", "top_popular")
            for m in sizes
        }
        cache._zipf_probabilities.cache_clear()  # a cold table too, not only the one just built
        config = CacheConfig(catalog_size=catalog, zipf_exponent=exponent, strategy="top_popular")
        with mock.patch.object(Popularity, "__post_init__", side_effect=AssertionError("made a Popularity")):
            got = {(strategy, m): hit_ratio(strategy, m, config) for strategy, m in want}
        assert {key: value.hex() for key, value in got.items()} == {key: value.hex() for key, value in want.items()}

    def test_a_repeated_cache_config_computes_its_table_once(self):
        config = CacheConfig(catalog_size=4097, zipf_exponent=0.8, strategy="top_popular")
        cache._zipf_probabilities.cache_clear()
        for m in range(0, 4097, 97):
            hit_ratio("top_popular", m, config)
        assert cache._zipf_probabilities.cache_info().misses == 1

    @pytest.mark.parametrize("strategy", ["none", "random_fill", "top_popular"])
    @pytest.mark.parametrize("size", [True, False, 2.5, 6.0, "6", None])
    def test_cache_size_must_be_an_integer(self, strategy, size):
        # True once hit as one item, and 2.5 gave 2.5/F under random_fill
        config = CacheConfig(catalog_size=20, zipf_exponent=0.8, strategy=strategy)
        for popularity in (config, zipf_popularity(20, 0.8)):
            with pytest.raises(ValueError, match=f"^cache_size must be an integer, got {re.escape(repr(size))}$"):
                hit_ratio(strategy, size, popularity)

    def test_numpy_integer_cache_size_accepted(self):
        config = CacheConfig(catalog_size=20, zipf_exponent=0.8, strategy="top_popular")
        assert hit_ratio("top_popular", np.int64(6), config) == hit_ratio("top_popular", 6, config)

    @given(pop=popularity_vectors, s=st.floats(0.0, 2.5))
    def test_monotone_in_cache_size_and_strategy_order(self, pop, s):
        catalog = len(pop)
        previous = {"random_fill": -1.0, "top_popular": -1.0}
        for m in range(catalog + 1):
            rand = hit_ratio("random_fill", m, pop)
            top = hit_ratio("top_popular", m, pop)
            assert rand >= previous["random_fill"] - 1e-15
            assert top >= previous["top_popular"] - 1e-15
            assert top >= rand - 1e-12
            previous = {"random_fill": rand, "top_popular": top}

    def test_top_popular_concave_for_positive_exponent(self):
        pop = zipf_popularity(30, 0.7)
        values = [hit_ratio("top_popular", m, pop) for m in range(31)]
        first = [values[i + 1] - values[i] for i in range(30)]
        assert all(first[i + 1] <= first[i] + 1e-15 for i in range(29))


class TestExpectedRandomHitExact:
    def test_one_of_three(self):
        # 3 singleton subsets, each covering one item: mean mass is 1/3
        assert expected_random_hit_exact(1, zipf_popularity(3, 1.3)) == pytest.approx(
            1 / 3, rel=1e-14
        )

    def test_empty_cache(self):
        assert expected_random_hit_exact(0, zipf_popularity(3, 1.0)) == 0.0

    def test_two_of_four_zipf(self):
        # 6 pair subsets over the unit-exponent catalog average to 1/2
        assert expected_random_hit_exact(2, zipf_popularity(4, 1.0)) == pytest.approx(
            0.5, rel=1e-14
        )

    def test_large_catalog_rejected(self):
        with pytest.raises(ValueError, match="oracle instance too large"):
            expected_random_hit_exact(1, zipf_popularity(21, 1.0))

    @given(pop=popularity_vectors, data=st.data())
    def test_equals_cache_fraction_for_any_popularity(self, pop, data):
        m = data.draw(st.integers(0, len(pop)))
        exact = expected_random_hit_exact(m, pop)
        assert exact == pytest.approx(m / len(pop), abs=1e-12)
