"""Power draw model and cost coefficient arithmetic."""

import pytest

from conftest import make_kind, make_scenario, make_stations, make_xhaul
from e3sim import (
    CostBreakdown,
    cost_coefficient,
    effective_cost_per_area,
    total_cost_rate,
)
from e3sim.energy_cost import dynamic_parts


def station(kind):
    return make_stations([(0.0, 0.0)], [kind], ids=("b0",))


def parts(kind, load):
    """Transceiver and X-Haul watts of one station of ``kind`` at ``load``."""
    return dynamic_parts(kind.max_tx_dynamic_power_w, kind.xhaul.xhaul_power_factor, load)


class TestDynamicPower:
    def test_idle_draws_only_static(self):
        transceiver, xhaul = parts(make_kind(static_power_w=6.8), 0.0)
        assert transceiver + xhaul == 0.0

    def test_wired_is_linear_in_load(self):
        kind = make_kind(max_tx_dynamic_power_w=2.0, xhaul=make_xhaul(medium="wired"))
        assert sum(parts(kind, 0.5)) == pytest.approx(1.0)

    def test_wireless_overhead_triples_the_transceiver_part(self):
        kind = make_kind(max_tx_dynamic_power_w=2.0, xhaul=make_xhaul(medium="wireless"))
        transceiver, xhaul = parts(kind, 0.5)
        assert transceiver == pytest.approx(1.0)
        assert xhaul == pytest.approx(3.0)
        assert transceiver + xhaul == pytest.approx(4.0)

    @pytest.mark.parametrize("load", [0.0, 0.25, 0.5, 1.0])
    def test_wireless_total_is_four_times_wired(self, load):
        wired = make_kind(kind_id="w", xhaul=make_xhaul(medium="wired"))
        wireless = make_kind(kind_id="wl", xhaul=make_xhaul(medium="wireless"))
        assert sum(parts(wireless, load)) == (1 + 3.0) * sum(parts(wired, load))

    def test_zero_factor_wireless_equals_wired(self):
        wired = make_kind(kind_id="w", xhaul=make_xhaul(medium="wired"))
        wireless = make_kind(kind_id="wl", xhaul=make_xhaul(medium="wireless", factor=0.0))
        for load in (0.0, 0.3, 1.0):
            assert parts(wireless, load) == parts(wired, load)

    def test_out_of_range_load_rejected(self):
        with pytest.raises(ValueError):
            parts(make_kind(), 1.2)


def breakdown(infra=40.0, install=20.0, others=40.0, discount=0.0):
    return CostBreakdown(
        infrastructure=infra,
        site_installation=install,
        site_operation=others / 4,
        optimization_maintenance=others / 4,
        cache_placement=others / 4,
        xhaul_configuration=others / 4,
        content_delivery=0.0,
        inherited_discount=discount,
    )


class TestCostCoefficient:
    def test_benchmark_kind_has_unit_coefficient(self):
        assert cost_coefficient(make_kind(cost_per_area=100.0), 100.0) == 1.0

    def test_cheap_wireless_option(self):
        assert cost_coefficient(make_kind(cost_per_area=26.0), 100.0) == pytest.approx(0.26)

    def test_inherited_discount_applies_to_capital_items_only(self):
        # infra 40 and installation 20 halved, the other 40 untouched:
        # (20 + 10 + 40) / 100 = 0.70
        kind = make_kind(cost_per_area=100.0, cost_breakdown=breakdown(discount=0.5))
        assert cost_coefficient(kind, 100.0) == pytest.approx(0.70, rel=1e-12)

    def test_scale_invariance(self):
        kind = make_kind(cost_per_area=26.0)
        scaled = make_kind(cost_per_area=26.0 * 4.0)
        assert cost_coefficient(kind, 100.0) == cost_coefficient(scaled, 400.0)
        scaled10 = make_kind(cost_per_area=260.0)
        assert cost_coefficient(scaled10, 1000.0) == pytest.approx(
            cost_coefficient(kind, 100.0), rel=1e-12
        )

    def test_non_positive_benchmark_rejected(self):
        with pytest.raises(ValueError):
            cost_coefficient(make_kind(), 0.0)

    def test_cache_items_raise_the_coefficient(self):
        plain = make_kind(cost_per_area=50.0)
        cached = make_kind(cost_per_area=50.0, cache_size=10, cache_item_cost_per_area=1.5)
        assert cost_coefficient(cached, 100.0) == pytest.approx(0.65)
        assert cost_coefficient(plain, 100.0) == pytest.approx(0.50)


class TestTotalCostRate:
    def test_single_station(self):
        kind = make_kind(cost_per_area=100.0, coverage_area_m2=10.0)
        s = make_scenario(kinds=(kind,), base_stations=station(kind))
        assert total_cost_rate(s) == pytest.approx(1000.0)

    def test_doubles_when_costs_double(self):
        kind1 = make_kind(cost_per_area=100.0, coverage_area_m2=10.0)
        kind2 = make_kind(cost_per_area=200.0, coverage_area_m2=10.0)
        s1 = make_scenario(kinds=(kind1,), base_stations=station(kind1))
        s2 = make_scenario(kinds=(kind2,), base_stations=station(kind2))
        assert total_cost_rate(s2) == pytest.approx(2 * total_cost_rate(s1))

    def test_mixed_kinds_match_hand_sum(self):
        # two 80/m2 stations on 10 m2 plus one discounted-breakdown station:
        # 2*80*10 + (60*0.75 + 20*0.75 + 40)*5 = 1600 + 500 = 2100
        kind_a = make_kind(kind_id="a", cost_per_area=80.0, coverage_area_m2=10.0)
        kind_b = make_kind(
            kind_id="b",
            cost_per_area=120.0,
            coverage_area_m2=5.0,
            cost_breakdown=CostBreakdown(
                infrastructure=60.0,
                site_installation=20.0,
                site_operation=10.0,
                optimization_maintenance=10.0,
                cache_placement=10.0,
                xhaul_configuration=5.0,
                content_delivery=5.0,
                inherited_discount=0.25,
            ),
        )
        stations = make_stations(
            [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)], [kind_a, kind_a, kind_b], ids=("b0", "b1", "b2")
        )
        s = make_scenario(kinds=(kind_a, kind_b), base_stations=stations)
        assert effective_cost_per_area(kind_b) == pytest.approx(100.0)
        assert total_cost_rate(s) == pytest.approx(2100.0)
