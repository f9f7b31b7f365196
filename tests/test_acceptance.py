"""End-to-end acceptance suite: eight gating properties, one test each, plus
the pinned bytes of the desk report files.

Each acceptance test finishes by printing a single PASS line (visible with
-s); the assertions above it are the gate. Shared desk-system solves are
computed once per module.
"""

import hashlib
import re
import time
from pathlib import Path

import numpy as np
import pytest

from bessbid import agc, bilevel, clearing, harness, solver
from bessbid.scenario import (
    BessParams,
    BessPriceBids,
    GeneratorParams,
    IntervalData,
    MarketMask,
    Scenario,
    synthesize_scenario,
)
from conftest import assert_tables_agree, clear_one, solve_one

DATA_DIR = Path(__file__).parent / "data"

GEN_A = GeneratorParams("a", 10.0, 100.0, 20.0, 10.0)
GEN_B = GeneratorParams("b", 20.0, 80.0, 16.0, 8.0)


def small_instance(mask=MarketMask()):
    """Two intervals, two generators, 10 MWh / 5 MW storage."""
    return synthesize_scenario(
        (np.array([1.0, 2.0]), np.array([0.5, 0.6])),
        generator_table=(GEN_A, GEN_B),
        bess_params=BessParams(energy_capacity=10.0, power_rate=5.0, soc_init=5.0),
        peak_load_mw=100.0,
        delta_t=0.5,
        market_mask=mask,
        bess_price_bids=BessPriceBids(buy=100.0),
    )


def _no_big_m(*args, **kwargs):
    raise AssertionError("the regime path assembles no big-M MILP")


@pytest.fixture(scope="module")
def desk_reports():
    """The desk cases at gap 0.01, each with its run time. run_case builds
    no part of the big-M MILP: assembling one raises here."""
    scn = harness.desk_scenario()
    settings = harness.SolverSettings(gap_tol=0.01, time_limit=600)
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bilevel, "assemble_milp", _no_big_m)
        mp.setattr(bilevel, "interval_blocks", _no_big_m)
        for case in (1, 2, 3, 4):
            t0 = time.monotonic()
            report = harness.run_case(scn, mask=MarketMask.from_case(case), settings=settings)
            out[case] = (report, time.monotonic() - t0)
    return scn, out


def test_acceptance_1_oracle_equivalence():
    t0 = time.monotonic()
    scn = small_instance()
    oracle = harness.brute_force_oracle(scn, 0.5)
    report = harness.run_case(scn, settings=harness.SolverSettings(gap_tol=1e-9))
    elapsed = time.monotonic() - t0
    assert report.objective >= oracle.revenue - 1e-5
    assert report.verification.passed
    rel = abs(report.verification.revenue_from_duals - report.verification.revenue_milp)
    rel /= max(1.0, abs(report.verification.revenue_milp))
    assert rel <= 1e-5
    assert elapsed <= 60.0
    print(f"ACCEPTANCE 1 PASS: milp {report.objective:.6f} >= oracle "
          f"{oracle.revenue:.6f} - 1e-5, verified, {elapsed:.1f}s")


def _random_clearing_scenario(rng) -> Scenario:
    n_gens = int(rng.integers(2, 6))
    gens = []
    for k in range(n_gens):
        p_max = float(rng.uniform(50.0, 400.0))
        gens.append(GeneratorParams(
            gen_id=f"g{k}",
            base_price_bid=float(rng.uniform(5.0, 50.0)),
            p_max=p_max,
            reserve_ramp=float(rng.uniform(0.05, 0.25) * p_max),
            regulation_ramp=float(rng.uniform(0.05, 0.15) * p_max),
        ))
    rate = float(rng.uniform(2.0, 40.0))
    energy = tuple(g.base_price_bid for g in gens)
    load = float(rng.uniform(0.3, 0.7) * sum(g.p_max for g in gens))
    regcap_req = float(rng.uniform(0.2, 0.8) * sum(g.regulation_ramp for g in gens))
    interval = IntervalData(
        index=0,
        delta_t=0.25,
        load=load,
        reserve_req=float(rng.uniform(0.2, 0.8) * sum(g.reserve_ramp for g in gens)),
        regcap_req=regcap_req,
        mileage_req=1.75 * regcap_req,
        gen_energy_bids=energy,
        gen_reserve_bids=tuple(0.15 * b for b in energy),
        gen_regcap_bids=tuple(0.4 * b for b in energy),
        gen_mileage_bids=tuple(0.07 * b for b in energy),
        bess_price_bids=BessPriceBids(
            sell=float(rng.uniform(0.0, 30.0)),
            buy=float(rng.uniform(0.0, 80.0)),
            reserve=float(rng.uniform(0.0, 10.0)),
            regcap=float(rng.uniform(0.0, 20.0)),
            mileage=float(rng.uniform(0.0, 5.0)),
        ),
    )
    bess = BessParams(energy_capacity=8.0 * rate, power_rate=rate)
    return Scenario(generators=tuple(gens), bess=bess, intervals=(interval,))


def test_acceptance_2_kkt_duality_suite():
    rng = np.random.default_rng(20260819)
    worst_gap = 0.0
    worst_cs = 0.0
    for _ in range(500):
        scn = _random_clearing_scenario(rng)
        rate = scn.bess.power_rate
        sell = float(rng.uniform(0.0, rate)) if rng.random() < 0.5 else 0.0
        buy = float(rng.uniform(0.0, rate)) if sell == 0.0 else 0.0
        bids = (sell, buy, float(rng.uniform(0.0, rate)), float(rng.uniform(0.0, rate)))
        res = clear_one(clearing.LlLayout(scn), 0, bids)
        worst_gap = max(worst_gap, res.duality_gap_rel[0])
        worst_cs = max(worst_cs, res.cs_residual[0])
    assert worst_gap <= 1e-6
    assert worst_cs <= 1e-7
    print(f"ACCEPTANCE 2 PASS: 500/500 clearing LPs, worst duality gap "
          f"{worst_gap:.2e}, worst CS residual {worst_cs:.2e}")


def test_acceptance_3_participation_monotonicity(desk_reports):
    _, reports = desk_reports
    for case, (report, wall) in reports.items():
        assert wall <= 600.0, f"case {case} took {wall:.1f}s"
        assert report.mip_gap <= 0.01 + 1e-12, f"case {case} gap {report.mip_gap}"
    totals = {c: reports[c][0].totals["total"] for c in (1, 2, 3, 4)}
    assert totals[1] <= totals[2] + 1e-9
    assert totals[2] <= totals[4] + 1e-9
    assert totals[1] <= totals[3] + 1e-9
    assert totals[3] <= totals[4] + 1e-9
    print(f"ACCEPTANCE 3 PASS: desk revenues case1 {totals[1]:.2f} <= "
          f"case2 {totals[2]:.2f} <= case4 {totals[4]:.2f} and case1 <= "
          f"case3 {totals[3]:.2f} <= case4")


# sha256 of emit_outputs' files for the desk cases at gap 0.01; the report
# files of `bessbid compare` must stay byte-identical. These are the solve
# over the certified clearing regimes.
REPORT_DIGESTS = {
    1: {
        "intervals": "05c5abefa232dd601cdd92b9cbbaa4c3aba9ce6d27b0acf2b4ff6ac90384b6c7",
        "soc_trace": "731769b3dcd8c8ba3ed8c134b34334ad9628e379343ed52fb3b2f7797ff1c665",
        "revenue_traces": "f300f1b7c86d56a710a6207877761aff93e9448df4f1d2a78c783f888a14b5f7",
        "summary": "2fdcd67010e19daec1bfd0aeec0c391f2a0c60ced656ccb094a55c7809fabb68",
    },
    2: {
        "intervals": "20bd2821b6064425a38eed7b29c4ae7a13144371a0eaea565cc71f84bd04010d",
        "soc_trace": "70cf6ed8c2deb4b8b53408e032f32d8d5012f036bb9a57a874b14e8a0227a038",
        "revenue_traces": "6deb85946135eedf0d6576fde1ee265313ff5b430f34a2957081baf46ee6fb0c",
        "summary": "5941d71e134e181804b39a226d2adc6c84f757fe1ba9eee84b8d6a0af081525e",
    },
    3: {
        "intervals": "40adbe4d6ff0363134b917001243f41d40f2b116e17ea64822df48abb2e41f59",
        "soc_trace": "b8c3fa1d206827b690be430176e4186f50fb1fa6f6c6bc92f5e0faecdb7b06e7",
        "revenue_traces": "990c8f7f58d48bb51b6e7fd8c3e77fc3e45c60de681d093561d6713e3dbf678d",
        "summary": "d237b90a7da38d544d1cd23417061504ff84edc6a89a61398c62712abd163229",
    },
    4: {
        "intervals": "1a4f58d39371196dbf434fccaf00b314f97c884d008f5e883f056c0f807db9ad",
        "soc_trace": "74256fe2ac7fe5b426117b3dc4114b9ff044be6caa824223fad0ecb09087d118",
        "revenue_traces": "0acc47505901ff920424204f07c2865929b7ce1d48635d23755b4d91a96fdd3c",
        "summary": "41580b62734c47ad8aa583ddef266c018c85751996f8169595d2c2bb04f069b1",
    },
}

# the same files from the paper's big-M MILP, solved directly (cases 2-4's
# csv digests taken once a rounded -0.0 prints as 0.0)
BIG_M_REPORT_DIGESTS = {
    1: {
        "intervals": "da59e6927ecf3b7c4cc7e765f3eb37770e0963f4e5d4b0c30a43a34f3fee7e85",
        "soc_trace": "fbd204cd90bc58282d916007b378d9ce8dd96166618518550ff1f8ed53724bc7",
        "revenue_traces": "ab75ea7b15ad57f66b93829f43b5f970b3dae95a62a3c1c9bc7a1a9090d66d86",
        "summary": "b3497e3833a479e4879b3dc5b75f40f42063e07c0a7b1145b98c2ff9d93d75c1",
    },
    2: {
        "intervals": "79577ca0a5a5bd872c9fa20e6e74de99638dc298eaa18e7a168c1581d40f7d14",
        "soc_trace": "d5f740098415856a74d74819eaad9c0543edaf9863901c9c06a196d084c19a5b",
        "revenue_traces": "2dacdb65fb5af7ff783afd1d816d6400ecd27d00093ad9189855adcfecf65248",
        "summary": "21097ef5c1ec8eb470eb7f5392e6d8fff8a8b5636d42e4826461caac1050ff7d",
    },
    3: {
        "intervals": "90bcbfba45548e4273050ee954daca29121ab9d3bf43dda8e8904210de94ec0d",
        "soc_trace": "b8c3fa1d206827b690be430176e4186f50fb1fa6f6c6bc92f5e0faecdb7b06e7",
        "revenue_traces": "990c8f7f58d48bb51b6e7fd8c3e77fc3e45c60de681d093561d6713e3dbf678d",
        "summary": "aa89524e8eb80e8d5d9fd3f666650d808abe1a222f0ac7ed9faf527cb56c82aa",
    },
    4: {
        "intervals": "149b67a8f4ba322ea17721ada8f9ed60de5a61088041972c0dfbce70dfa09b72",
        "soc_trace": "78c651afb73eb2d3111a9c0946b92a9acd7403e68510e1a72c6c0a6363225cfd",
        "revenue_traces": "bf85b2cffe612cca43acc09005d02c2ccc0cef5c9db533f7ed54fe7b88cd6171",
        "summary": "5f86327a2557a26d9b6d75771a14be0002bb2c01c510f0b1df9365ed0adce2ab",
    },
}


def _report_digests(report, out_dir):
    files = harness.emit_outputs(report, out_dir / report.label)
    return {k: hashlib.sha256(Path(files[k]).read_bytes()).hexdigest() for k in files}


def test_desk_report_files_match_pinned_digests(tmp_path, desk_reports):
    _, reports = desk_reports
    for case, (report, _) in reports.items():
        assert _report_digests(report, tmp_path) == REPORT_DIGESTS[case], case


# the same for reference case 3 at gap 0.01: the solve over the certified
# clearing regimes of all 96 intervals, where earlier bases certify the most
# vertices; .github/workflows/tier1.yml checks them through the CLI
REFERENCE_CASE3_DIGESTS = {
    "intervals": "5039715811a3811e6bb213a356def9d00446651cd9dfb3cf34156f14e1cf56de",
    "summary": "7864eed3702ae270806503df62bea02dbe1c0f9d57d71dc4e287d81eaab54c1b",
}


def test_reference_case_3_report_files_match_pinned_digests(tmp_path):
    report = harness.run_case(harness.reference_scenario(MarketMask.from_case(3)),
                              settings=harness.SolverSettings(gap_tol=0.01))
    digests = _report_digests(report, tmp_path)
    assert {k: digests[k] for k in REFERENCE_CASE3_DIGESTS} == REFERENCE_CASE3_DIGESTS


# each desk case's verification at gap 0.01: its degenerate intervals, the
# bits of both revenues, and the bits of the largest residual of each
# first-order block
DESK_VERIFICATION = {
    1: ([10, 11, 12, 13, 14, 20, 21], "0x1.0ddf1004846b1p+10", "0x1.0ddf1004846b2p+10",
        {"stationarity": "0x1.4000000000000p-46", "primal": "0x1.0000000000000p-45",
         "dual_sign": "0x0.0p+0", "cs": "0x1.abd3c36113404p-45"}),
    2: ([8, 9, 10, 11, 12, 14, 20, 21], "0x1.367303d3df054p+10", "0x1.367303d3df054p+10",
        {"stationarity": "0x1.4000000000000p-46", "primal": "0x1.0000000000000p-44",
         "dual_sign": "0x0.0p+0", "cs": "0x1.003621fafc8b0p-44"}),
    3: ([t for t in range(24) if t != 16], "0x1.62dbb4db7c547p+10", "0x1.62dbb4db7c547p+10",
        {"stationarity": "0x1.0000000000000p-49", "primal": "0x1.0000000000000p-45",
         "dual_sign": "0x0.0p+0", "cs": "0x1.43f5e17542131p-46"}),
    4: ([t for t in range(24) if t != 16], "0x1.80d7eefec4772p+10", "0x1.80d7eefec4771p+10",
        {"stationarity": "0x1.0000000000000p-49", "primal": "0x1.0000000000000p-45",
         "dual_sign": "0x0.0p+0", "cs": "0x1.07cf5f4e4430ap-45"}),
}

# the same from the big-M MILP; taken while each interval was checked on its
# own LP
BIG_M_DESK_VERIFICATION = {
    1: ([10, 11, 12, 13, 14, 20, 21], "0x1.0e6bfcd56eae3p+10", "0x1.0e6bfcd56eae1p+10",
        {"stationarity": "0x1.d000000000000p-42", "primal": "0x1.0000000000000p-45",
         "dual_sign": "0x0.0p+0", "cs": "0x1.4000000000000p-42"}),
    2: ([8, 9, 10, 11, 12, 14, 20, 21], "0x1.368dc4dd5e1b3p+10", "0x1.368dc4dd5e1edp+10",
        {"stationarity": "0x1.c700000000000p-39", "primal": "0x1.0000000000000p-45",
         "dual_sign": "0x0.0p+0", "cs": "0x1.1f89f40a2877ep-42"}),
    3: (list(range(24)), "0x1.62dbb4db7c621p+10", "0x1.62dbb4db7c551p+10",
        {"stationarity": "0x1.fc00000000000p-42", "primal": "0x1.0000000000000p-45",
         "dual_sign": "0x1.6832a95a48ec9p-47", "cs": "0x1.0a69410c39cc7p-44"}),
    4: (list(range(24)), "0x1.820c5c3214fa5p+10", "0x1.820c5c3214e95p+10",
        {"stationarity": "0x1.bdc0000000000p-39", "primal": "0x1.9bc0000000000p-37",
         "dual_sign": "0x1.5555555555555p-55", "cs": "0x1.21eb6d3664402p-44"}),
}


def _assert_verification_pinned(report, pinned):
    degenerate, revenue_milp, revenue_from_duals, residuals = pinned
    v = report.verification
    assert (v.passed, v.mismatches) == (True, [])
    assert v.notes == [f"degenerate clearing optima at intervals {degenerate}: "
                       "awards/prices differ, objectives match within 1e-6"]
    assert (v.revenue_milp.hex(), v.revenue_from_duals.hex()) == \
        (revenue_milp, revenue_from_duals)
    assert {k: r.hex() for k, r in v.max_residuals.items()} == residuals


def test_desk_verification_reports_are_pinned(desk_reports):
    _, reports = desk_reports
    for case, (report, _) in reports.items():
        _assert_verification_pinned(report, DESK_VERIFICATION[case])


@pytest.fixture(scope="module")
def desk_big_m_reports():
    """The desk cases at gap 0.01 from the paper's big-M MILP: assembled,
    solved, read out, verified and reported the way run_case publishes the
    regime solve."""
    scn = harness.desk_scenario()
    out = {}
    for case in (1, 2, 3, 4):
        mask = MarketMask.from_case(case)
        built = bilevel.assemble_milp(scn.with_mask(mask))
        outcome = solver.solve_milp(built.milp, gap_tol=0.01, time_limit=600)
        sol = bilevel.extract_solution(built, outcome)
        schedule = harness.BessSchedule.from_solution(sol)
        out[case] = harness.CaseReport(
            label=mask.label(), mask=mask,
            scenario_fingerprint=harness.scenario_fingerprint(scn), status=outcome.status,
            mip_gap=float(outcome.mip_gap), objective=float(outcome.objective),
            schedule=schedule, totals=schedule.totals(),
            verification=bilevel.verify_bilevel_solution(sol), counts=built.counts)
    return out


def test_big_m_fallback_reproduces_pinned_reports(tmp_path, desk_big_m_reports):
    for case, report in desk_big_m_reports.items():
        assert _report_digests(report, tmp_path) == BIG_M_REPORT_DIGESTS[case], case
        _assert_verification_pinned(report, BIG_M_DESK_VERIFICATION[case])


def test_regime_solve_reaches_the_big_m_objective(desk_reports, desk_big_m_reports):
    # both solve the bidding problem to gap 0.01; the regime solve's
    # incumbent is at least the big-M's within that gap, and verifies
    _, reports = desk_reports
    for case, (report, _) in reports.items():
        big_m = desk_big_m_reports[case]
        assert report.verification.passed, case
        assert report.mip_gap <= 0.01 + 1e-12, case
        assert report.objective >= big_m.objective * (1 - 0.01), case
        assert report.counts == big_m.counts, case


def test_desk_report_tables_agree(tmp_path, desk_reports):
    _, reports = desk_reports
    for case, (report, _) in reports.items():
        files = harness.emit_outputs(report, tmp_path / report.label)
        assert_tables_agree(files)
        soc_init = Path(files["soc_trace"]).read_text().splitlines()[1]
        assert soc_init == f"-1,{report.schedule.soc_init!r}", case


def test_desk_reports_print_no_negative_zero(tmp_path, desk_reports):
    # a tiny negative award or SOC rounds to -0.0, which must print as 0.0
    _, reports = desk_reports
    for case, (report, _) in reports.items():
        files = harness.emit_outputs(report, tmp_path / report.label)
        for k in ("intervals", "soc_trace", "revenue_traces"):
            text = Path(files[k]).read_text()
            assert "-0.0" not in re.split(r"[,\n]", text), (case, k)


def test_acceptance_4_arbitrage_shape():
    # prices fall strictly within each half, so any sell in the cheap half or
    # buy in the dear half is strictly unprofitable and must clear at zero
    price = np.array([1.00, 0.99, 0.98, 0.97, 2.00, 1.99, 1.98, 1.97])
    load = np.full(8, 0.5)
    scn = synthesize_scenario(
        (price, load),
        generator_table=(GEN_A, GEN_B),
        bess_params=BessParams(energy_capacity=10.0, power_rate=5.0, soc_init=0.0),
        peak_load_mw=100.0,
        delta_t=0.5,
        market_mask=MarketMask.from_case(1),
        bess_price_bids=BessPriceBids(buy=100.0),
    )
    report = harness.run_case(scn, settings=harness.SolverSettings(gap_tol=1e-9))
    records = report.schedule.records
    for rec in records[:4]:
        assert rec.sell_award == 0.0, f"t{rec.t} sold in the low-price half"
    for rec in records[4:]:
        assert rec.buy_award == 0.0, f"t{rec.t} bought in the high-price half"
    bought = sum(r.buy_award for r in records[:4])
    sold = sum(r.sell_award for r in records[4:])
    assert bought > 0 and sold > 0
    print(f"ACCEPTANCE 4 PASS: low half sells all zero, high half buys all zero "
          f"(bought {bought:.1f} MW low, sold {sold:.1f} MW high)")


def test_acceptance_5_agc_soc_neutrality():
    rate = 10.0
    awards = np.linspace(0.0, rate, 6)
    # one interval per award, each from 50 MWh for a quarter hour
    start, idle, delta_t = np.full(6, 50.0), np.zeros(6), np.full(6, 0.25)
    worst = 0.0
    for seed in range(100):
        reps = agc.replay(agc.generate_signal(seed), start, idle, idle, awards, delta_t,
                          0.0, 100.0)
        assert len(reps) == len(awards)
        worst = max(worst, *(abs(rep.regulation_soc_delta) for rep in reps))
    assert worst <= 1e-9
    print(f"ACCEPTANCE 5 PASS: 100 traces x 6 awards, worst end-of-interval "
          f"SOC delta {worst:.2e} MWh")


def test_acceptance_6_headroom_safety(desk_reports):
    scn, reports = desk_reports
    total = 0
    for case in (1, 2, 3, 4):
        report, _ = reports[case]
        runs = harness.replay_agc(report, scn.bess, seeds=range(10))
        total += len(runs)
        assert all(not r.breached for r in runs), f"case {case} breached SOC limits"
    print(f"ACCEPTANCE 6 PASS: {total} interval replays across 4 cases, "
          f"zero SOC excursions")


def _mps_instances():
    masks = [MarketMask.from_case(c) for c in (1, 2, 3, 4)]
    # (generators, intervals, peak load, storage rate); peaks sized so the
    # scaled fleet covers load plus requirements
    table = [
        (1, 1, 100.0, 10.0), (1, 2, 90.0, 5.0), (2, 1, 200.0, 20.0),
        (2, 2, 150.0, 8.0), (3, 2, 300.0, 15.0),
    ]
    instances = []
    for (n_gens, n_intervals, peak, rate), mask in (
            (t, m) for t in table for m in masks):
        price = np.linspace(1.0, 1.5, n_intervals)
        load = np.linspace(0.5, 0.6, n_intervals)
        gens = tuple(
            GeneratorParams(g.gen_id, g.base_price_bid, g.p_max * 0.8,
                            g.reserve_ramp * 0.8, g.regulation_ramp * 0.8)
            for g in (GEN_A, GEN_B,
                      GeneratorParams("c", 30.0, 120.0, 24.0, 12.0))[:n_gens]
        )
        instances.append(synthesize_scenario(
            (price, load), generator_table=gens,
            bess_params=BessParams(energy_capacity=4.0 * rate, power_rate=rate,
                                   soc_init=rate),
            peak_load_mw=peak, delta_t=0.5, market_mask=mask,
            bess_price_bids=BessPriceBids(buy=100.0),
        ))
    return instances


def frozen_tiny_problem() -> solver.MilpProblem:
    """The canonical instance behind the golden MPS file."""
    return bilevel.assemble_milp(small_instance()).milp


def test_acceptance_7_mps_round_trip(tmp_path, desk_reports):
    instances = _mps_instances()
    assert len(instances) == 20
    worst = 0.0
    for k, scn in enumerate(instances):
        built = bilevel.assemble_milp(scn)
        a = solver.solve_milp(built.milp, gap_tol=1e-9)
        path = tmp_path / f"m{k}.mps"
        solver.export_mps(built.milp, str(path))
        b = solver.solve_milp(solver.import_mps(str(path)), gap_tol=1e-9)
        rel = abs(a.objective - b.objective) / max(1.0, abs(a.objective))
        worst = max(worst, rel)
    assert worst <= 1e-6

    golden = DATA_DIR / "bidding_tiny.mps"
    fresh = tmp_path / "frozen.mps"
    solver.export_mps(frozen_tiny_problem(), str(fresh))
    assert fresh.read_bytes() == golden.read_bytes()

    # non-gating observation: revenue mix of the all-markets desk case; no
    # external solver exists in this environment, so the embedded results
    # stand in and the pattern is reported rather than asserted
    _, reports = desk_reports
    report, _ = reports[4]
    regulation = report.totals["regcap"] + report.totals["mileage"]
    shares = {"energy": report.totals["energy"], "reserve": report.totals["reserve"],
              "regulation": regulation}
    largest = max(shares, key=shares.get)
    print(f"ACCEPTANCE 7 PASS: 20/20 round-trips worst rel {worst:.2e}, golden "
          f"bytes equal; observation (not asserted): largest revenue share = "
          f"{largest} {dict(sorted(shares.items()))}")


STORAGE_COLS = {"bs", "bd", "brs", "brgc", "brgm"}
STORAGE_ROWS = {"bid_cap:sell", "bid_cap:buy", "bid_cap:reserve", "bid_cap:regcap",
                "mil_floor:bess", "mil_cap:bess"}
PRICE_ROWS = {"energy": "balance", "reserve": "req:reserve", "regcap": "req:regcap",
              "mileage": "req:mileage"}


def drop_storage(lp):
    """The clearing LP with the storage unit's rows and columns dropped by name."""
    rows = [i for i, nm in enumerate(lp.row_names) if nm not in STORAGE_ROWS]
    cols = [j for j, nm in enumerate(lp.col_names) if nm not in STORAGE_COLS]
    return solver.LpProblem(
        c=lp.c[cols], a=lp.a.tocsr()[rows][:, cols], senses=lp.senses[rows], rhs=lp.rhs[rows],
        lower=lp.lower[cols], upper=lp.upper[cols],
        row_names=[lp.row_names[i] for i in rows], col_names=[lp.col_names[j] for j in cols])


def _storage_free_prices(lp, dt):
    """Prices of the clearing LP without storage, solved on its own."""
    reduced = drop_storage(lp)
    duals = solve_one(reduced).row_duals[0]
    return {name: float(duals[reduced.row_names.index(row)] / dt)
            for name, row in PRICE_ROWS.items()}


def test_acceptance_8_zero_bid_neutrality(desk_reports):
    scn, _ = desk_reports
    worst_named = None
    layout = clearing.LlLayout(scn)
    for t in range(scn.n_intervals):
        with_storage = layout.prices_from(t, clear_one(layout, t).row_duals[0]).tolist()
        without = _storage_free_prices(layout.build_lp(t), scn.intervals[t].delta_t)
        for a, name in zip(with_storage, ("energy", "reserve", "regcap", "mileage")):
            b = without[name]
            assert a == b, f"t{t} {name}: {a!r} != {b!r}"
            worst_named = (t, name)
    assert worst_named is not None
    print(f"ACCEPTANCE 8 PASS: {scn.n_intervals} intervals x 4 prices, "
          f"zero-bid storage prices exactly equal the storage-free prices")
