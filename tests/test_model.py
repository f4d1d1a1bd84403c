"""Scenario construction, schema errors, generators, and round-tripping."""

import copy
import json

import pytest

from conftest import load_document, make_kind, make_scenario, make_xhaul
from e3sim import (
    CacheConfig,
    CostBreakdown,
    InvariantError,
    SchemaError,
    TrafficProfile,
    UnknownKindError,
    UserEquipment,
    build_scenario,
    cost_coefficient,
    effective_cost_per_area,
    resolve_benchmark_cost,
    scenario_to_document,
    validate_scenario,
)

BREAKDOWN_COMPONENTS = (
    "infrastructure",
    "site_installation",
    "site_operation",
    "optimization_maintenance",
    "cache_placement",
    "xhaul_configuration",
    "content_delivery",
)

MINIMAL_DOC = {
    "kinds": [
        {
            "kind_id": "pico",
            "static_power_w": 6.0,
            "max_tx_dynamic_power_w": 8.0,
            "radio_capacity_bps": 2e7,
            "bandwidth_hz": 1e7,
            "coverage_area_m2": 1000.0,
            "cost_per_area": 50.0,
            "xhaul": {"solution_id": "fiber", "capacity_bps": 5e7, "medium": "wired"},
        }
    ],
    "base_stations": [{"bs_id": "bs0", "kind": "pico", "position_m": [0.0, 0.0]}],
    "ues": [{"ue_id": "ue0", "position_m": [10.0, 0.0], "demand_peak_bps": 1e7}],
    "cache": {"strategy": "none"},
}


def test_minimal_document_builds():
    s = build_scenario(MINIMAL_DOC)
    assert len(s.base_stations) == 1
    assert len(s.ues) == 1
    assert s.cache.strategy == "none"
    assert s.radio_mode == "abstract"
    # wired solutions default to no extra dynamic power
    assert s.kinds[0].xhaul.xhaul_power_factor == 0.0


def test_build_accepts_json_text():
    s = build_scenario(json.dumps(MINIMAL_DOC))
    assert s == build_scenario(MINIMAL_DOC)


def test_negative_cache_size_names_the_kind():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["kinds"][0]["cache_size"] = -1
    with pytest.raises(InvariantError, match="BsKind 'pico'.*cache_size"):
        build_scenario(doc)


def test_fig2_fixture_has_five_xhaul_options_spanning_cost_range():
    s = build_scenario(load_document("fig2.json"))
    assert len(s.kinds) == 5
    c0 = resolve_benchmark_cost(s)
    coefficients = sorted(cost_coefficient(k, c0) for k in s.kinds)
    assert coefficients[0] == pytest.approx(0.26, rel=1e-12)
    assert coefficients[-1] == pytest.approx(1.0, rel=1e-12)
    capacities = [k.xhaul.capacity_bps for k in s.kinds]
    assert capacities == sorted(capacities)
    assert len(set(capacities)) == 5


def test_build_is_deterministic():
    a = build_scenario(load_document("fig2.json"))
    b = build_scenario(load_document("fig2.json"))
    assert a == b


@pytest.mark.parametrize("name", ["fig2.json", "fig3.json", "fig4_c2.json", "fig4_c3.json"])
def test_round_trip_through_document(name):
    s = build_scenario(load_document(name))
    doc = json.loads(json.dumps(scenario_to_document(s)))
    assert build_scenario(doc) == s


def test_grid_generator_layout():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["base_stations"] = {"grid": {"kind": "pico", "rows": 2, "cols": 3, "spacing_m": 50.0}}
    s = build_scenario(doc)
    assert len(s.base_stations) == 6
    assert [b.bs_id for b in s.base_stations] == [f"bs{i:03d}" for i in range(6)]
    assert s.base_stations[0].position_m == (0.0, 0.0)
    assert s.base_stations[2].position_m == (100.0, 0.0)
    assert s.base_stations[3].position_m == (0.0, 50.0)


def test_uniform_random_generator_is_seeded():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["ues"] = {
        "uniform_random": {"count": 12, "area_m": [200.0, 100.0], "demand_peak_bps": 4e6}
    }
    doc["seed"] = 5
    a = build_scenario(doc)
    assert len(a.ues) == 12
    assert all(0 <= u.position_m[0] <= 200 and 0 <= u.position_m[1] <= 100 for u in a.ues)
    assert all(u.demand_peak_bps == 4e6 and u.weight == 1.0 for u in a.ues)
    assert build_scenario(doc) == a
    doc["seed"] = 6
    assert build_scenario(doc) != a


def test_unknown_key_is_rejected_with_path():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["kinds"][0]["typo_field"] = 1
    with pytest.raises(SchemaError, match=r"kinds\[0\].typo_field"):
        build_scenario(doc)


def test_missing_required_key_is_reported():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    del doc["kinds"][0]["bandwidth_hz"]
    with pytest.raises(SchemaError, match="bandwidth_hz"):
        build_scenario(doc)


def test_bad_strategy_is_rejected():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["cache"]["strategy"] = "lru"
    with pytest.raises(SchemaError, match="strategy"):
        build_scenario(doc)


def test_dangling_kind_reference():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["base_stations"][0]["kind"] = "macro"
    with pytest.raises(UnknownKindError, match="macro"):
        build_scenario(doc)
    doc["base_stations"] = {"grid": {"kind": "macro", "rows": 1, "cols": 1, "spacing_m": 1.0}}
    with pytest.raises(UnknownKindError, match="macro"):
        build_scenario(doc)


def test_breakdown_must_sum_to_cost_per_area():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["kinds"][0]["cost_breakdown"] = {
        "infrastructure": 10.0,
        "site_installation": 10.0,
        "site_operation": 10.0,
        "optimization_maintenance": 5.0,
        "cache_placement": 5.0,
        "xhaul_configuration": 5.0,
        "content_delivery": 4.0,
    }
    with pytest.raises(InvariantError, match="cost_breakdown"):
        build_scenario(doc)
    doc["kinds"][0]["cost_breakdown"]["content_delivery"] = 5.0
    assert build_scenario(doc).kinds[0].cost_breakdown.total() == pytest.approx(50.0)


def test_duplicate_ids_are_rejected():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["ues"].append(dict(doc["ues"][0]))
    with pytest.raises(InvariantError, match="duplicate ue_id"):
        build_scenario(doc)


def test_validate_clean_scenario_has_no_warnings():
    assert validate_scenario(make_scenario()) == []


def test_validate_warns_when_cost_coefficient_exceeds_one():
    s = make_scenario(benchmark_cost=40.0)  # kind cost 50 > pinned benchmark
    warnings = validate_scenario(s)
    assert any("exceeds 1" in w for w in warnings)


def test_validate_warns_on_strategy_without_cache():
    from e3sim import CacheConfig

    s = make_scenario(cache=CacheConfig(catalog_size=10, strategy="top_popular"))
    warnings = validate_scenario(s)
    assert any("cache_size 0" in w for w in warnings)


def test_validate_warns_on_undersized_xhaul():
    kind = make_kind(xhaul=make_xhaul(capacity_bps=1e5))
    s = make_scenario(kinds=(kind,))
    warnings = validate_scenario(s)
    assert any("below the minimum per-UE demand" in w for w in warnings)


def test_max_kind_benchmark_keeps_coefficients_in_unit_interval():
    kinds = (
        make_kind(kind_id="a", cost_per_area=26.0),
        make_kind(kind_id="b", cost_per_area=70.0),
        make_kind(kind_id="c", cost_per_area=100.0),
    )
    from e3sim import BaseStation

    stations = tuple(BaseStation(f"bs{i}", k, (float(i), 0.0)) for i, k in enumerate(kinds))
    s = make_scenario(kinds=kinds, base_stations=stations, benchmark_cost="max-kind")
    c0 = resolve_benchmark_cost(s)
    for kind in s.kinds:
        cn = cost_coefficient(kind, c0)
        assert 0.0 < cn <= 1.0
    assert cost_coefficient(kinds[2], c0) == 1.0


def test_effective_cost_includes_cache_items():
    kind = make_kind(cache_size=10, cache_item_cost_per_area=1.5)
    assert effective_cost_per_area(kind) == pytest.approx(50.0 + 15.0)


def test_area_m_of_wrong_type_names_the_path():
    doc = load_document("fig3.json")
    doc["ues"]["uniform_random"]["area_m"] = [None, 5]
    with pytest.raises(SchemaError, match=r"ues\.uniform_random\.area_m"):
        build_scenario(doc)


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN", "1e999"])
def test_non_finite_json_number_is_rejected_with_path(value):
    text = json.dumps(load_document("fig3.json")).replace(
        '"cost_per_area": 50.0', f'"cost_per_area": {value}', 1
    )
    assert value in text
    with pytest.raises(SchemaError, match=r"kinds\[0\]\.cost_per_area: expected a finite number"):
        build_scenario(text)


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_kind(cost_per_area=float("inf")),
        lambda: make_kind(coverage_area_m2=float("inf")),
        lambda: make_xhaul(capacity_bps=float("inf")),
        lambda: UserEquipment("u0", (0.0, 0.0), float("inf")),
        lambda: UserEquipment("u0", (0.0, 0.0), 1e6, weight=float("inf")),
        lambda: make_scenario(benchmark_cost=float("inf")),
        lambda: make_scenario(benchmark_cost=float("nan")),
    ],
    ids=["cost", "coverage", "xhaul", "demand", "weight", "benchmark-inf", "benchmark-nan"],
)
def test_positive_invariants_reject_non_finite_values(build):
    with pytest.raises(InvariantError, match="must be finite and > 0"):
        build()


INF = float("inf")


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_xhaul(medium="wireless", factor=INF),
        lambda: make_kind(cache_size=INF),
        lambda: make_kind(cache_item_cost_per_area=INF),
        lambda: CacheConfig(zipf_exponent=INF),
        lambda: CacheConfig(cache_power_per_item_w=INF),
    ]
    + [
        lambda name=name: CostBreakdown(**{**{c: 1.0 for c in BREAKDOWN_COMPONENTS}, name: INF})
        for name in BREAKDOWN_COMPONENTS
    ],
    ids=[
        "xhaul_power_factor",
        "cache_size",
        "cache_item_cost_per_area",
        "zipf_exponent",
        "cache_power_per_item_w",
        *BREAKDOWN_COMPONENTS,
    ],
)
def test_non_negative_invariants_reject_infinity(build):
    with pytest.raises(InvariantError, match="must be finite and >= 0"):
        build()


@pytest.mark.parametrize("ratio", [INF, float("nan"), 0.5])
def test_peak_to_min_ratio_must_be_finite_and_at_least_one(ratio):
    with pytest.raises(InvariantError, match="peak_to_min_ratio must be finite and >= 1"):
        TrafficProfile(peak_to_min_ratio=ratio)


def test_negative_seed_names_the_path():
    # explicit UE lists never reach the generator, so only the check catches it
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["seed"] = -1
    with pytest.raises(SchemaError, match=r"document\.seed: must be >= 0, got -1"):
        build_scenario(doc)


@pytest.mark.parametrize(
    "section, position, match",
    [
        ("base_stations", ["0", True], r"base_stations\[0\]\.position_m\[0\]: expected a number, got str"),
        ("base_stations", [0.0, True], r"base_stations\[0\]\.position_m\[1\]: expected a number, got bool"),
        ("base_stations", "12", r"base_stations\[0\]\.position_m: expected \[x, y\]"),
        ("base_stations", [1.0, 2.0, 3.0], r"base_stations\[0\]\.position_m: expected \[x, y\]"),
        ("ues", [10.0, None], r"ues\[0\]\.position_m\[1\]: expected a number, got NoneType"),
        ("ues", {"x": 1.0, "y": 2.0}, r"ues\[0\]\.position_m: expected \[x, y\]"),
    ],
    ids=["bs-string", "bs-bool", "bs-text", "bs-triple", "ue-null", "ue-object"],
)
def test_position_must_be_two_numbers(section, position, match):
    doc = copy.deepcopy(MINIMAL_DOC)
    doc[section][0]["position_m"] = position
    with pytest.raises(SchemaError, match=match):
        build_scenario(doc)
