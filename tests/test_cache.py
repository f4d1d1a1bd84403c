"""Popularity model, strategy hit ratios, and the combinatorial oracle."""

import math

import pytest
from hypothesis import given, strategies as st

from e3sim import Popularity, hit_ratio, zipf_popularity
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


class TestHitRatio:
    def test_empty_cache_never_hits(self):
        pop = zipf_popularity(5, 1.0)
        for strategy in ("none", "random_fill", "top_popular"):
            assert hit_ratio(strategy, 0, pop) == 0.0

    def test_full_cache_always_hits(self):
        pop = zipf_popularity(5, 1.0)
        assert hit_ratio("random_fill", 5, pop) == pytest.approx(1.0, abs=1e-12)
        assert hit_ratio("top_popular", 5, pop) == pytest.approx(1.0, abs=1e-12)

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
