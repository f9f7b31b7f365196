"""Scenario synthesis, validation, and document round-trips."""

import dataclasses

import numpy as np
import pytest
import yaml

from bessbid import harness, scenario

from bessbid.scenario import (
    DEFAULT_BESS,
    DEFAULT_GENERATOR_TABLE,
    BessParams,
    BessPriceBids,
    GeneratorParams,
    MarketMask,
    PriceRatios,
    RequirementFractions,
    Scenario,
    ScenarioError,
    default_patterns,
    load_patterns,
    load_scenario,
    save_scenario,
    scenario_from_text,
    scenario_to_text,
    synthesize_scenario,
    validate_scenario,
)

from test_acceptance import small_instance


def write_pattern(path, values):
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")
    return str(path)


def test_default_patterns_peak_location():
    price, load = default_patterns()
    assert len(price) == len(load) == 96
    assert load[72] == 1.0 and load[73] == 1.0
    assert load.max() == 1.0
    assert price.max() == 1.0
    assert np.all((0 <= price) & (price <= 1)) and np.all((0 <= load) & (load <= 1))


def test_load_patterns_flat_identity(tmp_path):
    p = write_pattern(tmp_path / "p.csv", [1.0] * 4)
    l = write_pattern(tmp_path / "l.csv", [1.0] * 4)
    price, load = load_patterns(p, l)
    np.testing.assert_array_equal(price, np.ones(4))
    np.testing.assert_array_equal(load, np.ones(4))


def test_load_patterns_rejects_out_of_range(tmp_path):
    p = write_pattern(tmp_path / "p.csv", [0.5, 1.2])
    l = write_pattern(tmp_path / "l.csv", [1.0, 0.5])
    with pytest.raises(ScenarioError, match=r"outside \[0, 1\]"):
        load_patterns(p, l)


def test_load_patterns_rejects_length_mismatch(tmp_path):
    p = write_pattern(tmp_path / "p.csv", [0.5, 0.6, 0.7])
    l = write_pattern(tmp_path / "l.csv", [1.0, 0.5])
    with pytest.raises(ScenarioError, match="length mismatch"):
        load_patterns(p, l)


def test_load_patterns_requires_unit_load_peak(tmp_path):
    p = write_pattern(tmp_path / "p.csv", [0.5, 0.6])
    l = write_pattern(tmp_path / "l.csv", [0.9, 0.8])
    with pytest.raises(ScenarioError, match="expected 1.0"):
        load_patterns(p, l)


def test_synthesize_maps_patterns():
    patterns = default_patterns()
    scn = synthesize_scenario(patterns, peak_load_mw=1000.0)
    price, load = patterns
    assert scn.n_intervals == 96 and scn.n_generators == 5
    # peak interval carries the full system demand
    assert scn.intervals[72].load == pytest.approx(1000.0)
    assert scn.intervals[73].load == pytest.approx(1000.0)
    assert max(it.load for it in scn.intervals) == pytest.approx(1000.0)
    # first unit's energy bid follows its base bid times the price pattern
    assert scn.intervals[73].gen_energy_bids[0] == pytest.approx(10.0 * price[73])
    for t in (0, 40, 73):
        it = scn.intervals[t]
        assert it.reserve_req == pytest.approx(0.10 * it.load)
        assert it.regcap_req == pytest.approx(0.04 * it.load)
        assert it.mileage_req / it.regcap_req == pytest.approx(1.75)


def test_synthesize_ancillary_price_ratios():
    # flat pattern and a 20 $/MWh base bid give exact ratio arithmetic
    gen = (GeneratorParams("u1", 20.0, 500.0, 100.0, 50.0),)
    patterns = (np.ones(3), np.ones(3))
    scn = synthesize_scenario(patterns, gen, BessParams(10.0, 1.0), peak_load_mw=100.0)
    it = scn.intervals[1]
    assert it.gen_energy_bids == (20.0,)
    assert it.gen_reserve_bids[0] == pytest.approx(0.15 * 20.0)
    assert it.gen_regcap_bids[0] == pytest.approx(0.4 * 20.0)
    assert it.gen_mileage_bids[0] == pytest.approx(0.07 * 20.0)
    # flat patterns make every interval identical apart from the index
    rows = [dataclasses.replace(x, index=0) for x in scn.intervals]
    assert rows[0] == rows[1] == rows[2]


def test_synthesize_scaling_property():
    patterns = default_patterns()
    a = synthesize_scenario(patterns, peak_load_mw=500.0)
    b = synthesize_scenario(patterns, peak_load_mw=1000.0)
    for ia, ib in zip(a.intervals, b.intervals):
        assert ib.load == pytest.approx(2 * ia.load)
        assert ib.reserve_req == pytest.approx(2 * ia.reserve_req)
        assert ib.regcap_req == pytest.approx(2 * ia.regcap_req)
        assert ib.mileage_req == pytest.approx(2 * ia.mileage_req)
        assert ib.gen_energy_bids == ia.gen_energy_bids


def test_synthesis_deterministic_bytes():
    scn1 = synthesize_scenario(default_patterns())
    scn2 = synthesize_scenario(default_patterns())
    assert scenario_to_text(scn1) == scenario_to_text(scn2)


def test_validate_reference_system_clean():
    scn = synthesize_scenario(default_patterns())
    assert validate_scenario(scn) == []


def test_validate_names_bad_soc_field():
    scn = synthesize_scenario(default_patterns())
    bad = dataclasses.replace(scn, bess=BessParams(400.0, 40.0, soc_init=500.0))
    msgs = validate_scenario(bad)
    assert any("soc_min <= soc_init <= soc_max" in m for m in msgs)


def test_validate_flags_fleet_shortfall():
    # total fleet capability must cover load*(1 + 0.10 + 0.04) = 1.14*load;
    # a 900 MW fleet cannot serve the 1000 MW peak
    gens = (GeneratorParams("u1", 10.0, 900.0, 100.0, 50.0),)
    with pytest.raises(ScenarioError, match="cannot cover"):
        synthesize_scenario(default_patterns(), gens, DEFAULT_BESS, peak_load_mw=1000.0)


def test_document_round_trip_exact(tmp_path):
    scn = synthesize_scenario(
        default_patterns(),
        market_mask=MarketMask.from_case(3),
        bess_price_bids=BessPriceBids(sell=1.25),
    )
    path = tmp_path / "s.scn"
    save_scenario(scn, str(path))
    again = load_scenario(str(path))
    assert again == scn


def _text_instances():
    factors = (0.97, 1.04)
    perturbed = synthesize_scenario(
        default_patterns(),
        generator_table=tuple(dataclasses.replace(g, base_price_bid=g.base_price_bid * factors[k % 2])
                              for k, g in enumerate(DEFAULT_GENERATOR_TABLE)),
        bess_params=dataclasses.replace(
            DEFAULT_BESS, soc_init=DEFAULT_BESS.soc_init + 0.07 * DEFAULT_BESS.energy_capacity),
        peak_load_mw=1000.0 * 1.03,
        bess_price_bids=BessPriceBids(buy=100.0),
    )
    return [harness.desk_scenario(), harness.reference_scenario(), small_instance(), perturbed]


def test_document_text_same_with_and_without_libyaml(monkeypatch):
    # the scenario text comes from libyaml when PyYAML has it; PyYAML's
    # pure-Python emitter and parser must give the same bytes and scenarios
    scns = _text_instances()
    texts = [scenario_to_text(scn) for scn in scns]
    parsed = [scenario_from_text(text) for text in texts]
    monkeypatch.setattr(scenario, "_YAML_DUMPER", yaml.SafeDumper)
    monkeypatch.setattr(scenario, "_YAML_LOADER", yaml.SafeLoader)
    for scn, text, again in zip(scns, texts, parsed):
        assert text == scenario_to_text(scn)
        doc = yaml.safe_load(text)
        assert text == yaml.safe_dump(doc, sort_keys=False, default_flow_style=None, width=100)
        assert again == scn
        assert repr(again) == repr(scenario_from_text(text))


def test_document_rejects_wrong_schema():
    with pytest.raises(ScenarioError, match="schema tag"):
        scenario_from_text("schema: something-else/9\n")


def test_mask_from_case_labels():
    assert MarketMask.from_case(1) == MarketMask(True, False, False)
    assert MarketMask.from_case(2) == MarketMask(True, True, False)
    assert MarketMask.from_case(3) == MarketMask(True, False, True)
    assert MarketMask.from_case(4) == MarketMask(True, True, True)
    assert MarketMask.from_case(4).label() == "case4"
    assert MarketMask(True, True, False).label() == "case2"
    with pytest.raises(ScenarioError):
        MarketMask.from_case(7)


def test_default_table_values():
    rows = [(g.base_price_bid, g.p_max, g.reserve_ramp, g.regulation_ramp)
            for g in DEFAULT_GENERATOR_TABLE]
    assert rows == [
        (10.0, 400.0, 80.0, 40.0),
        (14.0, 300.0, 60.0, 30.0),
        (15.0, 210.0, 42.0, 21.0),
        (30.0, 350.0, 70.0, 35.0),
        (40.0, 270.0, 54.0, 27.0),
    ]
    assert DEFAULT_BESS.energy_capacity == 400.0
    assert DEFAULT_BESS.power_rate == 40.0
    assert DEFAULT_BESS.soc_max == 400.0
