"""Max-min fair rate allocation and its grid-search oracle."""

import math

import pytest
from hypothesis import given, strategies as st

from conftest import allocation_at, make_kind, make_scenario, make_stations, make_ues, with_parameter
from oracles import allocate_bruteforce
from e3sim import (
    CacheConfig,
    UePopulation,
    allocation,
    effective_bs_capacity,
    hit_ratio,
    max_min_rates,
    zipf_popularity,
)

demand_lists = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False), min_size=1, max_size=8
)
capacities = st.floats(min_value=0.1, max_value=200.0, allow_nan=False)


class TestEffectiveCapacity:
    def test_no_cache_is_plain_min(self):
        assert effective_bs_capacity(20.0, 4.0, 0.0) == 4.0
        assert effective_bs_capacity(3.0, 4.0, 0.0) == 3.0

    def test_full_hit_bypasses_xhaul(self):
        assert effective_bs_capacity(20.0, 4.0, 1.0) == 20.0

    def test_half_hit_doubles_xhaul_headroom(self):
        # (1 - h) * x <= 4 with h = 0.5 allows x up to 8
        assert effective_bs_capacity(20.0, 4.0, 0.5) == pytest.approx(8.0)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            effective_bs_capacity(1.0, 1.0, 1.5)

    def test_the_hit_ratio_memo_is_keyed_by_value(self):
        # a sweep frees the points it does not evaluate, and a later cache record may take a freed one's id
        cache = CacheConfig(catalog_size=20, zipf_exponent=0.8, strategy="top_popular")
        hits = {}
        allocation.xhaul_limits(make_scenario(kinds=(make_kind(cache_size=6),), cache=cache), hits)
        assert hits == {(CacheConfig(20, 0.8, "top_popular"), 6): hit_ratio("top_popular", 6, zipf_popularity(20, 0.8))}


class TestMaxMinRates:
    def test_unconstrained_grants_demands(self):
        assert max_min_rates([1.0, 2.0, 3.0], 10.0) == [1.0, 2.0, 3.0]

    def test_equal_demands_split_evenly(self):
        assert max_min_rates([5.0, 5.0], 6.0) == [3.0, 3.0]

    def test_small_demand_is_met_then_rest_split(self):
        assert max_min_rates([2.0, 5.0, 5.0], 9.0) == [2.0, 3.5, 3.5]

    def test_zero_capacity(self):
        assert max_min_rates([1.0, 2.0], 0.0) == [0.0, 0.0]

    @given(demands=demand_lists, capacity=capacities)
    def test_sum_is_pareto_efficient(self, demands, capacity):
        rates = max_min_rates(demands, capacity)
        assert math.fsum(rates) == pytest.approx(min(math.fsum(demands), capacity), rel=1e-9, abs=1e-9)

    @given(demands=demand_lists, capacity=capacities)
    def test_rates_never_exceed_demands(self, demands, capacity):
        rates = max_min_rates(demands, capacity)
        assert all(r <= d + 1e-12 for r, d in zip(rates, demands))

    @given(demands=demand_lists, capacity=capacities)
    def test_max_min_property(self, demands, capacity):
        # a strictly smaller rate is only ever explained by a met demand
        rates = max_min_rates(demands, capacity)
        for i, ri in enumerate(rates):
            for rj in rates:
                if ri < rj - 1e-9:
                    assert ri == pytest.approx(demands[i], rel=1e-9, abs=1e-12)

    @given(demands=demand_lists, capacity=capacities, seed=st.integers(0, 2**16))
    def test_order_invariance(self, demands, capacity, seed):
        import random

        order = list(range(len(demands)))
        random.Random(seed).shuffle(order)
        base = max_min_rates(demands, capacity)
        shuffled = max_min_rates([demands[i] for i in order], capacity)
        assert all(shuffled[pos] == base[i] for pos, i in enumerate(order))

    @given(demands=demand_lists, c1=capacities, c2=capacities)
    def test_monotone_in_capacity(self, demands, c1, c2):
        low, high = sorted((c1, c2))
        r_low = max_min_rates(demands, low)
        r_high = max_min_rates(demands, high)
        assert all(a <= b + 1e-12 for a, b in zip(r_low, r_high))


class TestBruteforceOracle:
    def test_equal_split_on_grid(self):
        assert allocate_bruteforce([5.0, 5.0], 6.0) == pytest.approx([3.0, 3.0], abs=1e-12)

    def test_single_unconstrained(self):
        assert allocate_bruteforce([1.0], 10.0) == [1.0]

    def test_three_demands_within_grid_tolerance(self):
        rates = allocate_bruteforce([2.0, 5.0, 5.0], 9.0)
        assert rates == pytest.approx([2.0, 3.5, 3.5], abs=1e-2)

    def test_too_many_demands_rejected(self):
        with pytest.raises(ValueError, match="instance too large"):
            allocate_bruteforce([1.0] * 5, 10.0)

    @given(
        demands=st.lists(st.floats(0.1, 10.0, allow_nan=False), min_size=1, max_size=4),
        capacity=st.floats(0.5, 40.0, allow_nan=False),
    )
    def test_agrees_with_progressive_filling(self, demands, capacity):
        # the oracle quantizes the fair level; one grid step bounds the error
        exact = max_min_rates(demands, capacity)
        oracle = allocate_bruteforce(demands, capacity)
        assert oracle == pytest.approx(exact, abs=capacity * 1e-3 + 1e-12)


def caching_scenario(xhaul_capacity=16e6, cache_size=0, strategy="top_popular"):
    from conftest import make_xhaul

    kind = make_kind(
        radio_capacity_bps=6e7,
        xhaul=make_xhaul(capacity_bps=xhaul_capacity),
        cache_size=cache_size,
    )
    stations = make_stations([(0.0, 0.0)], [kind], ids=("b0",))
    ues = make_ues([(float(i), 0.0) for i in range(10)], 4e6, ids=[f"u{i}" for i in range(10)])
    return make_scenario(
        kinds=(kind,),
        base_stations=stations,
        ues=ues,
        cache=CacheConfig(catalog_size=20, zipf_exponent=0.8, strategy=strategy),
    )


def rates_at(s, t_hours):
    """Granted rate of each ue_id at hour ``t_hours``, and the radio load of each station."""
    rates, load = allocation_at(s, t_hours)
    return dict(zip(s.ues.ids(), rates.tolist())), load


def xhaul_traffic(s, rates):
    """Miss share (1 - h) of the traffic the single station b0 serves."""
    popularity = zipf_popularity(s.cache.catalog_size, s.cache.zipf_exponent)
    h = hit_ratio(s.cache.strategy, s.kinds[0].cache_size, popularity)
    return (1.0 - h) * sum(rates.values())


class TestAllocate:
    def test_unconstrained_meets_all_demands(self):
        s = caching_scenario(xhaul_capacity=1e9)
        rates, _ = rates_at(s, 0.0)
        assert all(r == 4e6 for r in rates.values())
        assert sum(rates.values()) == pytest.approx(4e7)
        assert xhaul_traffic(s, rates) <= s.kinds[0].xhaul.capacity_bps

    def test_bottleneck_splits_fairly(self):
        s = caching_scenario(xhaul_capacity=2e7)
        rates, _ = rates_at(s, 0.0)
        assert all(r == pytest.approx(2e6) for r in rates.values())

    def test_accounting_identities(self):
        s = caching_scenario(cache_size=6)
        rates, load = rates_at(s, 0.0)
        assert xhaul_traffic(s, rates) <= s.kinds[0].xhaul.capacity_bps * (1 + 1e-12)
        assert 0.0 <= load[0] <= 1.0
        assert all(
            rates[u] <= demand + 1e-9 for u, demand in zip(s.ues.ids(), s.ues.demand_peak_bps.tolist())
        )

    def test_cache_hits_raise_served_traffic_and_every_rate(self):
        allocs = [rates_at(caching_scenario(cache_size=m), 0.0)[0] for m in (0, 4, 8)]
        served = [sum(rates.values()) for rates in allocs]
        assert served[0] < served[1] < served[2]
        # the 16 Mbit/s X-Haul binds: it carries only the misses, up to the 40 Mbit/s demand
        popularity = zipf_popularity(20, 0.8)
        for m, total in zip((0, 4, 8), served):
            miss = 1.0 - hit_ratio("top_popular", m, popularity)
            assert total == pytest.approx(min(4e7, 16e6 / miss), rel=1e-12)
        for smaller, larger in zip(allocs, allocs[1:]):
            assert all(
                larger[u] >= smaller[u] - 1e-9 for u in smaller
            )

    def test_permuting_ues_leaves_every_rate_unchanged(self):
        s = caching_scenario(xhaul_capacity=2.3e7, cache_size=3)
        from dataclasses import replace

        u = s.ues
        permuted = replace(
            s, ues=UePopulation(u.ids()[::-1], u.position_m[::-1], u.demand_peak_bps[::-1], u.weight[::-1])
        )
        rates = rates_at(s, 5.0)[0]
        rates_permuted = rates_at(permuted, 5.0)[0]
        assert rates == rates_permuted

    def test_more_xhaul_never_hurts_anyone(self):
        s = caching_scenario(xhaul_capacity=1e7)
        rates_low = rates_at(s, 0.0)[0]
        s_high = with_parameter(s, "kinds.pico.xhaul.capacity_bps", 3e7)
        rates_high = rates_at(s_high, 0.0)[0]
        assert all(rates_high[k] >= rates_low[k] - 1e-9 for k in rates_low)
