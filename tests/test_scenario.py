"""Scenario synthesis, validation, and document round-trips."""

import dataclasses
import hashlib
import re

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
    Scenario,
    ScenarioError,
    default_patterns,
    load_scenario,
    save_scenario,
    scenario_from_text,
    scenario_to_text,
    structure_violations,
    synthesize_scenario,
    validate_scenario,
    violations_text,
)

from conftest import acceptance_instance
from test_acceptance import small_instance


# sha256 of the packaged price pattern's float64 bytes, then the load
# pattern's
PATTERNS_SHA256 = "1b6d7e531e5dac2118a1a30ba70e3836ded670ca2f59d13f146660362cc77059"


def test_default_patterns_peak_location():
    price, load = default_patterns()
    assert len(price) == len(load) == 96
    assert load[72] == 1.0 and load[73] == 1.0
    assert load.max() == 1.0
    assert price.max() == 1.0
    assert np.all((0 <= price) & (price <= 1)) and np.all((0 <= load) & (load <= 1))
    assert hashlib.sha256(price.tobytes() + load.tobytes()).hexdigest() == PATTERNS_SHA256


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


# sha256 of scenario_to_text for the fixtures and acceptance 1's instance;
# synthesis constants and fixture sizes must keep the text byte for byte
SCENARIO_TEXT_SHA256 = {
    "desk": "2bbae49d7d925389075a248ae5fc1c0a89646eb1e80f4005eb56395f09cf6c72",
    "reference": "7f2448081caf6354faff34f891e65b08a0db81ac51200dbffd464fbba73e126a",
    "acceptance1": "deb3280d7ce845305002f61550bb364b197a20bb3c9e43e4f486e41595a23c2e",
}


@pytest.mark.parametrize("name, build", [
    ("desk", harness.desk_scenario),
    ("reference", harness.reference_scenario),
    ("acceptance1", acceptance_instance),
])
def test_scenario_text_matches_pinned_digest(name, build):
    text = scenario_to_text(build())
    assert hashlib.sha256(text.encode()).hexdigest() == SCENARIO_TEXT_SHA256[name]


def test_unparsable_document_error_is_one_line():
    with pytest.raises(ScenarioError, match=r"^unparsable scenario document: .* at line 2, column 1$"):
        scenario_from_text("foo: [1, 2\n")
    # the reader's error names no mark; it is one line too
    with pytest.raises(ScenarioError, match="^unparsable scenario document: unacceptable "
                                            "character #x0000") as err:
        scenario_from_text("foo: 1\x00\n")
    assert "\n" not in str(err.value)


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


# (path into the document, a value that is not a number, where, field)
NON_NUMBERS = [
    (("intervals", 0, "load"), "abc", "interval 0", "load"),
    (("intervals", 1, "delta_t"), True, "interval 1", "delta_t"),
    (("intervals", 0, "gen_energy_bids"), [10.0, "x"], "interval 0", "gen_energy_bids"),
    (("intervals", 1, "gen_mileage_bids"), 0.7, "interval 1", "gen_mileage_bids"),
    (("intervals", 0, "bess_price_bids", "buy"), "abc", "interval 0: bess_price_bids", "buy"),
    (("bess", "power_rate"), "fast", "bess", "power_rate"),
    (("bess", "soc_max"), None, "bess", "soc_max"),
    (("generators", 1, "p_max"), False, "generator b", "p_max"),
    (("market_mask", "reserve"), "no", "market_mask", "reserve"),
    (("market_mask", "regulation"), 0, "market_mask", "regulation"),
    (("generators",), 5, "scenario document", "generators"),
]


@pytest.mark.parametrize("path, value, where, field", NON_NUMBERS)
def test_non_number_is_a_scenario_error_naming_the_field(path, value, where, field):
    doc = yaml.safe_load(scenario_to_text(acceptance_instance()))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ScenarioError,
                       match=f"^{re.escape(where)}: {re.escape(field)} must be a "):
        scenario_from_text(yaml.safe_dump(doc, sort_keys=False))


def _document_records():
    """(path to the record, the name errors give it, its keys) for each
    record of acceptance 1's document, the document itself first."""
    doc = yaml.safe_load(scenario_to_text(acceptance_instance()))
    records = [((), "scenario document"), (("market_mask",), "market_mask"),
               (("bess",), "bess"), (("generators", 1), "generator b"),
               (("intervals", 1), "interval 1"),
               (("intervals", 1, "bess_price_bids"), "interval 1: bess_price_bids")]
    return [(path, where, tuple(_node(doc, path))) for path, where in records]


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _edited_text(edit, path):
    """Acceptance 1's document text with ``edit`` applied to the record at ``path``."""
    doc = yaml.safe_load(scenario_to_text(acceptance_instance()))
    edit(_node(doc, path))
    return yaml.safe_dump(doc, sort_keys=False)


KEY_CASES = [(path, where, key) for path, where, keys in _document_records() for key in keys]
# the keys that hold numbers or lists of numbers
NUMBER_CASES = [case for case in KEY_CASES
                if case[1] not in ("scenario document", "market_mask")
                and case[2] not in ("id", "bess_price_bids")]


def _ids(cases):
    return [".".join(map(str, path + (key,))) for path, _, key in cases]


@pytest.mark.parametrize("path, where, key", KEY_CASES, ids=_ids(KEY_CASES))
def test_every_document_key_is_required(path, where, key):
    text = _edited_text(lambda node: node.pop(key), path)
    if key == "schema":
        want = "unsupported schema tag None"
    else:
        # a generator without its id is named by its position
        want = f"{'generator 1' if key == 'id' else where}: missing field {key}"
    with pytest.raises(ScenarioError, match=f"^{re.escape(want)}"):
        scenario_from_text(text)


@pytest.mark.parametrize("path, where, key", KEY_CASES, ids=_ids(KEY_CASES))
def test_a_key_beside_every_document_key_is_unknown(path, where, key):
    text = _edited_text(lambda node: node.__setitem__(f"{key}s", 1.0), path)
    with pytest.raises(ScenarioError, match=f"^{re.escape(where)}: unknown field {key}s$"):
        scenario_from_text(text)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("path, where, key", NUMBER_CASES, ids=_ids(NUMBER_CASES))
def test_every_document_number_must_be_finite(path, where, key, value):
    def edit(node):
        node[key] = [node[key][0], value] if isinstance(node[key], list) else value

    scn = scenario_from_text(_edited_text(edit, path))
    assert f"{where}: {key} must be finite" in structure_violations(scn)


def test_record_that_is_not_a_mapping_is_named():
    doc = yaml.safe_load(scenario_to_text(acceptance_instance()))
    doc["intervals"][1] = "x"
    with pytest.raises(ScenarioError, match="^interval 1 must be a mapping, got 'x'$"):
        scenario_from_text(yaml.safe_dump(doc, sort_keys=False))


def test_structure_violations_come_first_in_validation():
    scn = acceptance_instance()
    assert structure_violations(scn) == []
    short = dataclasses.replace(scn, intervals=(
        dataclasses.replace(scn.intervals[0], gen_energy_bids=(10.0,)),) + scn.intervals[1:])
    want = ["interval 0: energy bid count 1 != 2 generators"]
    assert structure_violations(short) == want
    assert validate_scenario(short)[:1] == want
    no_generators = dataclasses.replace(scn, generators=())
    for check in (structure_violations, validate_scenario):
        assert check(no_generators)[0] == "scenario: needs at least one generator"
    assert structure_violations(dataclasses.replace(scn, intervals=())) == [
        "scenario: needs at least one interval"]


def test_violations_text_names_ten_and_counts_the_rest():
    violations = [f"v{k}" for k in range(12)]
    assert violations_text([]) == ""
    assert violations_text(violations[:10]) == "; ".join(violations[:10])
    assert violations_text(violations[:11]) == "; ".join(violations[:10]) + "; and 1 more"
    assert violations_text(violations) == "; ".join(violations[:10]) + "; and 2 more"
