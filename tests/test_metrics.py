"""Metric arithmetic, equivalences, and daily averaging."""

import dataclasses
import math

import pytest

import oracles
from conftest import make_kind, make_scenario, make_stations, make_ues, make_xhaul, sweep_rows, with_parameter
from e3sim import (
    SECONDS_PER_YEAR,
    TrafficProfile,
    evaluate,
    evaluate_daily,
    metrics,
    scenario_to_document,
    set_parameter,
)
from e3sim.metrics import point_inputs
from e3sim.radio import demand_factor


def hand_case_scenario():
    """One station at half load: R = 1e7, P_dyn = 4 W, P_0 = 6 W, C_n = 0.5."""
    return make_scenario()


class TestEvaluate:
    def test_single_station_hand_arithmetic(self):
        report = evaluate(hand_case_scenario(), 0.0)
        assert report.throughput_bps == pytest.approx(1e7, rel=1e-12)
        assert report.total_power_w == pytest.approx(10.0, rel=1e-12)  # 4 + 6
        assert report.weighted_power_w == pytest.approx(7.0, rel=1e-12)  # 4 + 6 * 0.5
        assert report.e3 == pytest.approx(1e7 / 7.0, rel=1e-12)
        assert report.ee == pytest.approx(1e6, rel=1e-12)

    def test_se_is_throughput_per_deployed_hertz(self):
        report = evaluate(hand_case_scenario(), 0.0)
        assert report.se == pytest.approx(1.0, rel=1e-12)  # 1e7 bit/s over 1e7 Hz

    def test_ce_uses_yearly_cost(self):
        s = hand_case_scenario()
        report = evaluate(s, 0.0)
        assert report.ce == pytest.approx(1e7 * SECONDS_PER_YEAR / oracles.total_cost_rate(s), rel=1e-12)

    def test_unit_coefficients_make_e3_equal_ee(self):
        kinds = (make_kind(kind_id="a", cost_per_area=70.0), make_kind(kind_id="b", cost_per_area=70.0))
        stations = make_stations([(0.0, 0.0), (100.0, 0.0)], kinds, ids=("b0", "b1"))
        ues = make_ues([(1.0, 0.0), (99.0, 0.0)], (1e7, 5e6), (1.0, 2.0), ids=("u0", "u1"))
        s = make_scenario(kinds=kinds, base_stations=stations, ues=ues, benchmark_cost="max-kind")
        report = evaluate(s, 0.0)
        assert report.e3 == report.ee

    def test_report_consistency_invariant(self):
        report = evaluate(hand_case_scenario(), 0.0)
        assert report.e3 == pytest.approx(
            report.weighted_throughput_bps / report.weighted_power_w, rel=1e-12
        )

    def test_cost_perturbation_leaves_se_and_ee_bit_identical(self):
        s = hand_case_scenario()
        base = evaluate(s, 0.0)
        pricier = evaluate(with_parameter(s, "kinds.pico.cost_per_area", 500.0), 0.0)
        assert pricier.se == base.se
        assert pricier.ee == base.ee
        assert pricier.e3 != base.e3
        assert pricier.ce != base.ce

    def test_e3_dominates_ee_when_coefficients_below_one(self):
        s = hand_case_scenario()  # C_n = 0.5
        report = evaluate(s, 0.0)
        assert report.e3 >= report.ee

    def test_se_ignores_power_parameters(self):
        s = hand_case_scenario()
        base = evaluate(s, 0.0)
        heavier = evaluate(with_parameter(s, "kinds.pico.static_power_w", 60.0), 0.0)
        assert heavier.se == base.se

    def test_weight_scaling_scales_both_weighted_metrics(self):
        s = hand_case_scenario()
        scaled = with_parameter(s, "ues[0].weight", 3.0)
        base, up = evaluate(s, 0.0), evaluate(scaled, 0.0)
        assert up.e3 == pytest.approx(3.0 * base.e3, rel=1e-12)
        assert up.ee == pytest.approx(3.0 * base.ee, rel=1e-12)
        assert up.throughput_bps == base.throughput_bps

    def test_weight_scaling_preserves_sweep_argmax(self):
        from e3sim import Argmax, SweepSpec

        s = make_scenario(
            kinds=(make_kind(cache_size=0, cache_item_cost_per_area=2.0,
                             xhaul=make_xhaul(capacity_bps=6e6)),),
            cache=None,
        )
        s = scenario_to_document(s)
        s = set_parameter(s, "cache.catalog_size", 10)
        s = set_parameter(s, "cache.strategy", "top_popular")
        spec = SweepSpec(param_path="kinds.pico.cache_size", values=tuple(range(11)), time_hours=0.0)
        base_argmax, scaled_argmax = Argmax(), Argmax()
        for row in sweep_rows(s, spec):
            base_argmax.add(row)
        for row in sweep_rows(set_parameter(s, "ues[0].weight", 5.0), spec):
            scaled_argmax.add(row)
        assert scaled_argmax.result()[0] == base_argmax.result()[0]

    def test_an_hour_of_none_is_a_type_error(self):
        # None means a daily average to the block core, never to evaluate
        with pytest.raises(TypeError, match="t_hours must be a number, got None"):
            evaluate(make_scenario(), None)

    @pytest.mark.parametrize("hour", [True, False, "20"])
    def test_a_bool_or_string_hour_is_a_type_error(self, hour):
        # True was evaluated as hour 1
        with pytest.raises(TypeError, match=f"^t_hours must be a number, got {hour!r}$"):
            evaluate(make_scenario(), hour)

    @pytest.mark.parametrize("hour, shown", [(10**400, "inf"), (-10**400, "-inf")], ids=["1e400", "-1e400"])
    def test_an_int_past_the_largest_float_is_a_value_error_naming_the_hour(self, hour, shown):
        # it ended in a bare OverflowError
        with pytest.raises(ValueError, match=f"^t_hours must be finite, got {shown}$"):
            evaluate(make_scenario(), hour)

    @pytest.mark.parametrize("hour", [1e308, -1e308])
    def test_a_huge_hour_is_evaluated(self, hour):
        # 2 pi times 1e308 overflowed, and the evaluation failed with a math domain error
        s = make_scenario()
        assert evaluate(s, hour) == oracles.evaluate(s, hour)


def daily_fixture():
    return make_scenario(traffic=TrafficProfile(peak_to_min_ratio=2.0, peak_hour=0.0, samples_per_day=24))


class TestEvaluateDaily:
    def test_single_sample_equals_instant(self):
        s = make_scenario(traffic=TrafficProfile(peak_to_min_ratio=2.0, samples_per_day=1))
        daily = evaluate_daily(s)
        instant = evaluate(s, 0.0)
        assert daily.e3 == instant.e3
        assert daily.throughput_bps == instant.throughput_bps
        assert daily.is_daily_average

    def test_flat_profile_matches_any_instant(self):
        s = make_scenario(traffic=TrafficProfile(peak_to_min_ratio=1.0, samples_per_day=24))
        daily = evaluate_daily(s)
        for t in (0.0, 7.5, 13.0):
            assert evaluate(s, t).e3 == pytest.approx(daily.e3, rel=1e-12)

    def test_matches_24_term_hand_sum(self):
        # independent summation: unconstrained single station, so rate equals
        # demand and the dynamic power is demand / radio capacity * max power
        s = daily_fixture()
        sum_rate = sum_power = sum_weighted_power = 0.0
        for j in range(24):
            d = 1e7 * (0.5 + 0.5 * (1 + math.cos(2 * math.pi * j / 24)) / 2)
            p_dyn = 8.0 * (d / 2e7)
            sum_rate += d
            sum_power += p_dyn + 6.0
            sum_weighted_power += p_dyn + 6.0 * 0.5
        daily = evaluate_daily(s)
        assert daily.throughput_bps == pytest.approx(sum_rate / 24, rel=1e-12)
        assert daily.ee == pytest.approx(sum_rate / sum_power, rel=1e-12)
        assert daily.e3 == pytest.approx(sum_rate / sum_weighted_power, rel=1e-12)

    def test_ratio_of_averages_is_energy_ratio(self):
        # daily e3 must equal total weighted bits over total weighted joules
        s = daily_fixture()
        reports = [evaluate(s, 24.0 * j / 24) for j in range(24)]
        bits = sum(r.weighted_throughput_bps for r in reports)
        joules = sum(r.weighted_power_w for r in reports)
        assert evaluate_daily(s).e3 == pytest.approx(bits / joules, rel=1e-12)


class TestDemandFactors:
    def test_a_point_sharing_its_bases_traffic_gets_the_same_factors(self):
        s = make_scenario(traffic=TrafficProfile(peak_to_min_ratio=2.0))
        factors = point_inputs(s, None)[0]
        assert point_inputs(dataclasses.replace(s, benchmark_cost=50.0), None)[0] is factors
        with pytest.raises(ValueError, match="read-only"):
            factors[0] = 0.0  # every sharing point reads this array

    @pytest.mark.parametrize("samples, points", [(24, 400), (4096, 8)])
    def test_the_cache_keeps_one_array(self, samples, points):
        # a sweep may give every point its own traffic record
        for i in range(points):
            traffic = TrafficProfile(peak_to_min_ratio=1.0 + i, samples_per_day=samples)
            factors, _, _ = point_inputs(make_scenario(traffic=traffic), None)
            assert factors.tolist() == [demand_factor(24.0 * j / samples, traffic) for j in range(samples)]
            assert metrics._demand_factors.cache_info().currsize == 1
