import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest
import yaml

from bessbid import bilevel, clearing, harness, solver
from bessbid.scenario import (
    BessParams,
    BessPriceBids,
    MarketMask,
    load_scenario,
    save_scenario,
    synthesize_scenario,
    validate_scenario,
)

from conftest import (
    GEN_CHEAP,
    GEN_DEAR,
    acceptance_instance,
    assert_tables_agree,
    build_scenario,
    clear_one,
)

EXACT = harness.SolverSettings(gap_tol=1e-9)


def tiny_scenario(mask=MarketMask(), rate=5.0, soc_init=5.0):
    price = np.array([1.0, 2.0])
    load = np.array([0.5, 0.6])
    return synthesize_scenario(
        (price, load),
        generator_table=(GEN_CHEAP, GEN_DEAR),
        bess_params=BessParams(energy_capacity=10.0, power_rate=rate, soc_init=soc_init),
        peak_load_mw=100.0,
        delta_t=0.5,
        market_mask=mask,
        bess_price_bids=BessPriceBids(buy=100.0),
    )


def _same_clear(a, b) -> bool:
    """Bitwise equality of two one-row clears (schedule, prices, duals)."""
    def bits(r):
        prices = r.layout.prices_from(r.t, r.row_duals)
        return np.concatenate([r.x[0], r.objective, r.row_duals[0], r.lower_duals[0],
                               prices[0]]).tobytes()
    return bits(a) == bits(b)


def test_reused_layout_clears_match_fresh_clears():
    # every clear through one interval's reused model must land on the vertex
    # a freshly built model finds; a warm start from the previous combination's
    # basis would move degenerate awards or prices
    scn = acceptance_instance()
    layout = clearing.LlLayout(scn)
    for t in range(scn.n_intervals):
        for bids in harness._interval_grid(scn, 2.5):
            reused = clear_one(layout, t, bids)
            fresh = clear_one(clearing.LlLayout(scn), t, bids)
            assert _same_clear(reused, fresh), (t, bids)


def test_kkt_stationarity_matches_transpose_product():
    # solver.Residuals forms A'y without a sparse transpose; on every clear
    # of acceptance 1's grid it must give the bits the transpose product gave
    scn = acceptance_instance()
    layout = clearing.LlLayout(scn)
    for t in range(scn.n_intervals):
        lp = layout.build_lp(t)
        core = solver.Residuals(lp)
        no_upper = np.zeros(lp.n_cols)
        for bids in harness._interval_grid(scn, 2.5):
            r = clear_one(layout, t, bids)
            rhs = layout.rhs_for(t, bids[None])[0]
            x, y, nu = r.x[0], r.row_duals[0], r.lower_duals[0]
            stat = lp.c - lp.a.T.dot(y) - nu - np.zeros(lp.n_cols)
            assert core.stationarity(y, nu, no_upper) == \
                float(np.max(np.abs(stat), initial=0.0)), (t, bids)
            assert core.cs(x, core.activity(x), rhs, y, nu, no_upper) == r.cs_residual[0]


def test_tolerance_negative_bid_snapped_and_verified(capfd):
    # perfbench's seed-2 draw of acceptance 1: the big-M MILP's optimum
    # carries a reserve bid of about -8.9e-16, which the re-clear would refuse
    scn = acceptance_instance(load_scale=0.9761612134249316,
                              bid_factors=(0.9798491143414123, 1.031422574059428),
                              soc_shift=-0.08161681157298062)
    built = bilevel.assemble_milp(scn)
    sol = bilevel.extract_solution(built, solver.solve_milp(built.milp, gap_tol=1e-9))
    report = bilevel.verify_bilevel_solution(sol)
    # HiGHS prints a debug line while solving this instance; it must not
    # reach stdout, which carries command output
    assert capfd.readouterr().out == ""
    assert report.passed, report.summary()
    assert any("reserve_bid" in n and "snapped to 0.0" in n
               for n in report.notes), report.notes
    assert all(r.reserve_bid >= 0.0 for r in harness.BessSchedule.from_solution(sol).records)
    # the published solve, over the regimes, verifies on this instance too
    assert harness.run_case(scn, settings=EXACT).verification.passed
    assert capfd.readouterr().out == ""


def test_oracle_grid_budget():
    res = harness.brute_force_oracle(tiny_scenario(), 2.5)
    # 3 grid values per bid, 4 bids, 2 intervals; pruning only shrinks it
    assert res.evaluated <= 3 ** 8
    assert res.evaluated == 45 ** 2
    assert res.feasible >= 1


def test_oracle_best_pair_and_feasible_count_pinned():
    # perfbench's seed-2 draw of acceptance 1; the values were taken while
    # the oracle still joined the intervals over the full grid
    scn = acceptance_instance(load_scale=0.9761612134249316,
                              bid_factors=(0.9798491143414123, 1.031422574059428),
                              soc_shift=-0.08161681157298062)
    res = harness.brute_force_oracle(scn, 1.25)
    assert res.revenue.hex() == "0x1.0426627560f3cp+6"
    assert res.bids.tolist() == [[2.5, 0.0, 1.25, 1.25], [5.0, 0.0, 0.0, 0.0]]
    assert (res.evaluated, res.feasible) == (50625, 10649)


def test_oracle_refinement_non_decreasing():
    scn = tiny_scenario()
    coarse = harness.brute_force_oracle(scn, 2.5)
    fine = harness.brute_force_oracle(scn, 1.25)
    # the fine grid contains every coarse point
    assert fine.revenue >= coarse.revenue - 1e-9


def test_oracle_lower_bounds_milp():
    for mask in (MarketMask(True, False, False), MarketMask()):
        scn = tiny_scenario(mask=mask)
        oracle = harness.brute_force_oracle(scn, 2.5)
        report = harness.run_case(scn, settings=EXACT)
        assert report.objective >= oracle.revenue - 1e-5


def test_oracle_grid_hits_rate_endpoint():
    scn = tiny_scenario(rate=4.0)
    combos = harness._interval_grid(scn, 2.5)
    sells = set(combos[:, 0].tolist())
    assert 4.0 in sells
    assert 2.5 in sells


def test_oracle_masked_markets_stay_zero():
    scn = tiny_scenario(mask=MarketMask(True, False, False))
    combos = harness._interval_grid(scn, 2.5)
    sell, buy, reserve, regcap = combos.T
    assert (reserve == 0.0).all() and (regcap == 0.0).all()
    assert (sell > 0).any()


def test_oracle_rejects_long_horizon():
    scn = build_scenario([GEN_CHEAP], BessParams(10.0, 5.0), [50.0, 60.0, 55.0])
    with pytest.raises(harness.OracleSizeError):
        harness.brute_force_oracle(scn, 2.5)


@pytest.mark.parametrize("mask", [MarketMask(*flags)
                                  for flags in itertools.product((False, True), repeat=3)],
                         ids=MarketMask.label)
@pytest.mark.parametrize("step", [math.inf, 10.0, 5.0, 2.5, 0.5, 0.3])
def test_oracle_grid_size_counts_the_grid(mask, step):
    # a step at or above the rate 5, or an infinite one, leaves 0 and the rate
    scn = tiny_scenario(mask=mask)
    assert harness._grid_size(scn, step) == len(harness._interval_grid(scn, step))


def test_oracle_refuses_oversized_grid_before_building_it(monkeypatch):
    def build(*args):
        raise AssertionError("built the grid")

    monkeypatch.setattr(harness, "_interval_grid", build)
    # 5e-324 overflows the rate over the step to inf
    for step in (0.01, 5e-324):
        with pytest.raises(harness.OracleSizeError,
                           match=f"exceed the {harness.ORACLE_MAX_EVALUATIONS} cap"):
            harness.brute_force_oracle(acceptance_instance(), step)


def test_oracle_infinite_step_clears_zero_and_rate():
    res = harness.brute_force_oracle(acceptance_instance(), math.inf)
    assert res.evaluated == 12 ** 2


def test_oracle_rejects_nonpositive_step():
    for step in (0.0, float("nan")):
        with pytest.raises(ValueError, match="bid_grid_step must be > 0"):
            harness.brute_force_oracle(tiny_scenario(), step)


def _oracle_fields(res) -> tuple:
    """Every field of an OracleResult, its bids as bytes."""
    return (res.revenue, res.bids.tobytes(), res.bids.shape, res.evaluated, res.feasible,
            res.grid_step)


@pytest.mark.parametrize("scn, step", [(tiny_scenario(), 2.5), (acceptance_instance(), 1.25)])
def test_oracle_does_not_depend_on_worker_count(monkeypatch, scn, step):
    # the grid splits into one chunk per usable CPU, one in-process chunk
    # for a single CPU; with three, the middle chunk crosses the interval
    # boundary
    combos = harness._interval_grid(scn, step)
    results, awards = [], []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        results.append(harness.brute_force_oracle(scn, step))
        awards.append(harness._clear_grid(scn, combos))
    assert awards[0].shape == (scn.n_intervals * len(combos), 5)
    for res, arr in zip(results[1:], awards[1:]):
        assert _oracle_fields(res) == _oracle_fields(results[0])
        assert arr.tobytes() == awards[0].tobytes()


@pytest.mark.parametrize("cpus", [1, 2])
def test_oracle_raises_when_a_clear_breaks_a_contract(monkeypatch, cpus):
    # a feasibility tolerance below zero fails every clear, in this process
    # or in a forked worker
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(solver, "FEASIBILITY_TOL", -1.0)
    with pytest.raises(clearing.ClearingError,
                       match="^interval 0: optimal solve violated numeric contracts"):
        harness.brute_force_oracle(acceptance_instance(), 2.5)


def test_milp_after_forked_oracle_is_unchanged(monkeypatch):
    # the oracle stops HiGHS's threads before it forks its workers; a MILP
    # solved afterwards must start them again and land on the same bits
    outcomes = []
    solve_milp = solver.solve_milp

    def keep(*args, **kwargs):
        outcomes.append(solve_milp(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(solver, "solve_milp", keep)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    scn = acceptance_instance()
    before = harness.run_case(scn, settings=EXACT)
    harness.brute_force_oracle(scn, 2.5)
    after = harness.run_case(scn, settings=EXACT)
    assert len(outcomes) == 2
    assert after.objective.hex() == before.objective.hex()
    assert outcomes[1].x.tobytes() == outcomes[0].x.tobytes()


def test_zero_energy_capacity_storage_earns_nothing():
    scn = tiny_scenario()
    scn = synthesize_scenario(
        (np.array([1.0, 2.0]), np.array([0.5, 0.6])),
        generator_table=(GEN_CHEAP, GEN_DEAR),
        bess_params=BessParams(energy_capacity=0.0, power_rate=5.0),
        peak_load_mw=100.0,
        delta_t=0.5,
        bess_price_bids=BessPriceBids(buy=100.0),
    )
    report = harness.run_case(scn, settings=EXACT)
    assert report.totals["total"] == 0.0
    for rec in report.schedule.records:
        assert rec.sell_award == 0.0
        assert rec.buy_award == 0.0
        assert rec.reserve_award == 0.0
        assert rec.regcap_award == 0.0
        assert rec.mileage_award == 0.0


def test_schedule_revenue_identity():
    report = harness.run_case(tiny_scenario(), settings=EXACT)
    by_interval = sum(getattr(r, f) for r in report.schedule.records
                      for f in harness.REVENUE_FIELDS)
    assert by_interval == pytest.approx(report.totals["total"], abs=1e-8)
    assert report.totals["total"] == pytest.approx(report.objective, rel=1e-5)
    for rec in report.schedule.records:
        assert rec.price_energy > 0


def test_tracking_intervals_chain_soc():
    report = harness.run_case(tiny_scenario(), settings=EXACT)
    sched = report.schedule
    assert sched.tracking_interval(0).start_soc == sched.soc_init
    for t in range(1, len(sched.records)):
        assert sched.tracking_interval(t).start_soc == sched.records[t - 1].soc
        assert sched.tracking_interval(t).delta_t == sched.records[t].delta_t


def test_replay_agc_holds_soc():
    scn = tiny_scenario()
    report = harness.run_case(scn, settings=EXACT)
    runs = harness.replay_agc(report, scn.bess, seeds=range(3))
    assert len(runs) == 3 * scn.n_intervals
    assert all(not r.breached for r in runs)
    assert max(abs(r.regulation_soc_delta) for r in runs) <= 1e-9


def test_emit_outputs_deterministic(tmp_path):
    scn = tiny_scenario()
    a = harness.run_case(scn, settings=EXACT)
    b = harness.run_case(scn, settings=EXACT)
    files_a = harness.emit_outputs(a, tmp_path / "a")
    files_b = harness.emit_outputs(b, tmp_path / "b")
    assert sorted(files_a) == ["intervals", "revenue_traces", "soc_trace", "summary"]
    for key in files_a:
        with open(files_a[key], "rb") as fa, open(files_b[key], "rb") as fb:
            assert fa.read() == fb.read()


def test_emitted_interval_table_shape(tmp_path):
    scn = tiny_scenario()
    report = harness.run_case(scn, settings=EXACT)
    files = harness.emit_outputs(report, tmp_path)
    with open(files["intervals"]) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == f"# schema: {harness.SCHEMA_INTERVALS}"
    assert lines[1].split(",") == harness.FIELD_ORDER
    assert len(lines) == 2 + scn.n_intervals
    cols = {name: i for i, name in enumerate(lines[1].split(","))}
    total = 0.0
    for line in lines[2:]:
        parts = line.split(",")
        for key in ("revenue_energy", "revenue_reserve", "revenue_regcap", "revenue_mileage"):
            total += float(parts[cols[key]])
    assert total == pytest.approx(report.totals["total"], abs=1e-8)
    assert_tables_agree(files)


def test_integer_soc_init_prints_as_written(tmp_path):
    # a scenario file may hold a YAML integer; the SOC trace repeats it as is
    path = tmp_path / "s.scn"
    save_scenario(tiny_scenario(), str(path))
    doc = yaml.safe_load(path.read_text())
    doc["bess"]["soc_init"] = 5
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    report = harness.run_case(load_scenario(str(path)), settings=EXACT)
    files = harness.emit_outputs(report, tmp_path / "run")
    assert Path(files["soc_trace"]).read_text().startswith("t,soc\n-1,5\n")
    assert_tables_agree(files)


def test_emitted_summary_parses(tmp_path):
    report = harness.run_case(tiny_scenario(), settings=EXACT)
    files = harness.emit_outputs(report, tmp_path)
    with open(files["summary"]) as fh:
        doc = yaml.safe_load(fh)
    assert doc["schema"] == harness.SCHEMA_SUMMARY
    assert doc["case"] == "case4"
    assert doc["verification"]["passed"] is True
    assert doc["totals"]["total"] == pytest.approx(report.totals["total"])
    assert "wall" not in " ".join(doc)


def test_soc_trace_starts_at_initial(tmp_path):
    scn = tiny_scenario(soc_init=5.0)
    report = harness.run_case(scn, settings=EXACT)
    files = harness.emit_outputs(report, tmp_path)
    with open(files["soc_trace"]) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "t,soc"
    assert lines[1] == "-1,5.0"
    assert len(lines) == 2 + scn.n_intervals


def test_compare_cases_monotone_over_masks():
    scn = tiny_scenario()
    reports = [
        harness.run_case(scn, mask=MarketMask.from_case(c), settings=EXACT)
        for c in (1, 2, 4)
    ]
    cmp = harness.compare_cases(reports)
    assert [r["label"] for r in cmp.rows] == ["case1", "case2", "case4"]
    for key in ("case1<=case2", "case1<=case4", "case2<=case4"):
        assert cmp.monotonicity[key], key
    # chains never point from a wider mask to a narrower one
    assert "case4<=case1" not in cmp.monotonicity
    text = cmp.to_text()
    assert "case1" in text and "ok" in text


def test_compare_rejects_mismatched_scenarios():
    a = harness.run_case(tiny_scenario(), settings=EXACT)
    b = harness.run_case(tiny_scenario(soc_init=0.0), settings=EXACT)
    with pytest.raises(ValueError, match="fingerprint"):
        harness.compare_cases([a, b])


def test_run_case_time_limit_raises():
    scn = harness.desk_scenario()
    with pytest.raises(harness.CaseTimeLimitError):
        harness.run_case(scn, mask=MarketMask.from_case(4),
                         settings=harness.SolverSettings(gap_tol=1e-9, time_limit=1e-3))


def test_run_case_rejects_invalid_scenario():
    scn = build_scenario([GEN_CHEAP], BessParams(10.0, 5.0), [50.0])
    bad = scn.with_mask(MarketMask())
    object.__setattr__(bad.bess, "power_rate", -1.0)
    with pytest.raises(harness.HarnessError, match="invalid scenario"):
        harness.run_case(bad)


def test_desk_scenario_shape():
    scn = harness.desk_scenario()
    assert scn.n_intervals == 24
    assert scn.n_generators == 3
    assert all(i.delta_t == 1.0 for i in scn.intervals)
    assert max(i.load for i in scn.intervals) == pytest.approx(250.0)
    assert validate_scenario(scn) == []
    assert scn.bess.energy_capacity == 100.0
    assert scn.bess.power_rate == 10.0
    # fleet covers peak load plus requirements even without the storage unit
    fleet = sum(g.p_max for g in scn.generators)
    worst = max(i.load + i.reserve_req + i.regcap_req for i in scn.intervals)
    assert fleet >= worst


def test_reference_scenario_builds():
    scn = harness.reference_scenario()
    assert scn.n_intervals == 96
    assert scn.n_generators == 5
    assert validate_scenario(scn) == []


def test_case_numbering_follows_mask():
    scn = tiny_scenario(mask=MarketMask(True, True, False))
    report = harness.run_case(scn, settings=EXACT)
    assert report.label == "case2"
    report = harness.run_case(scn, mask=MarketMask(True, False, True), settings=EXACT)
    assert report.label == "case3"


def test_fingerprint_ignores_mask():
    scn = tiny_scenario()
    a = harness.run_case(scn, mask=MarketMask.from_case(1), settings=EXACT)
    b = harness.run_case(scn, mask=MarketMask.from_case(4), settings=EXACT)
    assert a.scenario_fingerprint == b.scenario_fingerprint
