"""Single-level reformulation: KKT system, big-M switching, linearized
objective, assembled MILP, and post-solve verification."""

import hashlib

import numpy as np
import pytest

from bessbid import bilevel, harness, solver
from bessbid.clearing import ZERO_BIDS, BessBids, LlLayout, build_ll_interval, clear_interval
from bessbid.scenario import BessParams, BessPriceBids, GeneratorParams, MarketMask
from conftest import GEN_CHEAP, GEN_DEAR, build_scenario
from test_acceptance import small_instance

EAGER_BUYER = BessPriceBids(buy=100.0)


def solve_and_extract(scn, **kwargs):
    bl = bilevel.assemble_milp(scn, **kwargs)
    out = solver.solve_milp(bl.milp, gap_tol=1e-9, time_limit=120)
    assert out.status in (solver.OPTIMAL, solver.GAP_LIMIT)
    sol = bilevel.extract_solution(bl, out)
    return bl, out, sol


def test_comp_pair_count_matches_inequality_count():
    # 8G+13 inequalities per interval: 6G+9 rows plus 2G+4 variable floors
    for gens in ([GEN_CHEAP, GEN_DEAR], list((GEN_CHEAP,))):
        scn = build_scenario(gens, BessParams(10.0, 5.0), [150.0],
                             reserve_frac=0.1, regcap_frac=0.04,
                             ancillary_ratio=1.0)
        kkt = bilevel.derive_kkt(LlLayout(scn, 0))
        g = len(gens)
        assert len(kkt.comp_pairs) == 8 * g + 13
        rows = [p for p in kkt.comp_pairs if p.kind == "row"]
        floors = [p for p in kkt.comp_pairs if p.kind == "lower"]
        assert len(rows) == 6 * g + 9
        assert len(floors) == 2 * g + 4


def test_kkt_residuals_on_cleared_interval():
    scn = build_scenario([GEN_CHEAP, GEN_DEAR], BessParams(10.0, 5.0), [150.0],
                         reserve_frac=0.1, regcap_frac=0.04, ancillary_ratio=1.0,
                         beta=EAGER_BUYER)
    inst = build_ll_interval(scn, 0, BessBids(0.0, 3.0, 1.0, 1.0))
    res = clear_interval(inst)
    resid = solver.kkt_residuals(inst.lp, inst.layout.vector_from(res.variables),
                                 res.row_duals, res.lower_duals)
    assert resid["stationarity"] <= 1e-8
    assert resid["primal"] <= 1e-8
    assert resid["dual_sign"] <= 1e-12
    assert resid["cs"] <= 1e-8


def test_stationarity_identity_for_storage_sell_column():
    # at any cleared point: dt*beta_sell - lambda - delta_sellcap - nu_sell = 0
    scn = build_scenario([GEN_CHEAP, GEN_DEAR], BessParams(10.0, 5.0), [150.0],
                         reserve_frac=0.1, ancillary_ratio=1.0,
                         beta=BessPriceBids(sell=2.0, buy=100.0))
    inst = build_ll_interval(scn, 0, BessBids(4.0, 0.0, 1.0, 0.0))
    res = clear_interval(inst)
    lay = inst.layout
    dt = lay.delta_t
    lam = res.row_duals[lay.row_balance]
    delta_sell = res.row_duals[lay.bid_rows["sell"]]
    nu_sell = res.lower_duals[lay.col_bs]
    assert dt * 2.0 - lam - delta_sell - nu_sell == pytest.approx(0.0, abs=1e-9)


def test_dual_cap_formula():
    scn = build_scenario([GEN_CHEAP, GEN_DEAR], BessParams(10.0, 5.0), [150.0],
                         ancillary_ratio=1.0, beta=EAGER_BUYER)
    kkt = bilevel.derive_kkt(LlLayout(scn, 0))
    # largest bid is the storage buy bid at 100; generator multiplier 10
    assert kkt.m_dual == pytest.approx(2.0 * 0.25 * 100.0 * 11.0)
    assert all(p.m_dual == kkt.m_dual for p in kkt.comp_pairs)
    # every pair is covered by a recorded derivation
    recorded = {r.target for r in kkt.m_registry}
    for p in kkt.comp_pairs:
        key = p.name if p.kind == "row" else f"lb:{p.name}"
        assert key in recorded


def test_linearized_revenue_matches_direct_on_random_clearings():
    rng = np.random.default_rng(7)
    scn = build_scenario([GEN_CHEAP, GEN_DEAR], BessParams(20.0, 5.0), [150.0] * 6,
                         reserve_frac=0.1, regcap_frac=0.04, ancillary_ratio=1.0,
                         beta=EAGER_BUYER)
    for t in range(6):
        raw = rng.uniform(0.0, 5.0, size=4)
        if rng.random() < 0.5:
            raw[0] = 0.0
        else:
            raw[1] = 0.0
        inst = build_ll_interval(scn, t, BessBids(*raw))
        res = clear_interval(inst)
        x = inst.layout.vector_from(res.variables)
        lin = bilevel.linearized_revenue_value(inst.layout, x, res.row_duals)
        direct = bilevel.direct_revenue_value(inst.layout, res.variables, res.row_duals)
        assert lin == pytest.approx(direct, abs=1e-7)


def test_linearized_revenue_zero_for_zero_bids():
    scn = build_scenario([GEN_CHEAP], BessParams(10.0, 5.0), [80.0])
    res = clear_interval(build_ll_interval(scn, 0, ZERO_BIDS))
    x = res.layout.vector_from(res.variables)
    assert bilevel.linearized_revenue_value(res.layout, x, res.row_duals) == pytest.approx(0.0, abs=1e-9)


def test_known_sell_instance_revenue():
    # one generator bidding 10 with headroom; storage sells 20 MW at the
    # marginal price 10 -> revenue 200 per hour of interval length
    gen = GeneratorParams("g1", 10.0, 100.0, 20.0, 10.0)
    for dt in (0.25, 1.0):
        scn = build_scenario([gen], BessParams(40.0, 20.0, soc_init=40.0), [80.0],
                             delta_t=dt, mask=MarketMask(True, False, False))
        inst = build_ll_interval(scn, 0, BessBids(sell=20.0))
        res = clear_interval(inst)
        x = inst.layout.vector_from(res.variables)
        rev = bilevel.direct_revenue_value(inst.layout, res.variables, res.row_duals)
        assert rev == pytest.approx(200.0 * dt, rel=1e-9)
        assert bilevel.linearized_revenue_value(inst.layout, x, res.row_duals) == pytest.approx(200.0 * dt, rel=1e-9)
        # the bidding MILP reaches the same revenue by itself
        bl, out, sol = solve_and_extract(scn)
        assert out.objective == pytest.approx(200.0 * dt, rel=1e-6)


def test_binary_count_example():
    scn = build_scenario([GEN_CHEAP, GEN_DEAR], BessParams(10.0, 5.0),
                         [150.0, 150.0], reserve_frac=0.1, regcap_frac=0.04,
                         ancillary_ratio=1.0)
    bl = bilevel.assemble_milp(scn)
    # one mode binary per interval plus one per inequality (8G+13 = 29)
    assert bl.counts["mode_binaries"] == 2
    assert bl.counts["complementarity_binaries"] == 2 * 29
    assert bl.counts["binaries"] == 2 + 2 * 29


def test_masked_markets_shrink_binaries():
    base = dict(reserve_frac=0.1, regcap_frac=0.04, ancillary_ratio=1.0)
    full = build_scenario([GEN_CHEAP, GEN_DEAR], BessParams(10.0, 5.0),
                          [150.0], **base)
    energy_only = build_scenario([GEN_CHEAP, GEN_DEAR], BessParams(10.0, 5.0),
                                 [150.0], mask=MarketMask(True, False, False), **base)
    reserve_only = build_scenario([GEN_CHEAP, GEN_DEAR], BessParams(10.0, 5.0),
                                  [150.0], mask=MarketMask(False, True, False), **base)
    n_full = bilevel.assemble_milp(full).counts
    n_energy = bilevel.assemble_milp(energy_only).counts
    n_reserve = bilevel.assemble_milp(reserve_only).counts
    assert n_full["binaries"] == 1 + 29
    # energy-only drops the reserve bid row, the regcap bid row, both storage
    # mileage rows, and the brs/brgc floors
    assert n_energy["binaries"] == 1 + 29 - 4 - 2
    # reserve-only drops the mode binary, both energy bid rows and floors,
    # the regcap bid row, both storage mileage rows, and the brgc floor
    assert n_reserve["mode_binaries"] == 0
    assert n_reserve["binaries"] == 29 - 8


def test_ul_rows_masking_and_recursion():
    scn = build_scenario([GEN_CHEAP], BessParams(40.0, 10.0, soc_init=4.0),
                         [80.0, 80.0], delta_t=0.25,
                         mask=MarketMask(True, False, False))
    m = bilevel.assemble_milp(scn).milp
    assert _bounds(m, "t0:rsbid") == (0.0, 0.0)
    assert _bounds(m, "t0:rgbid") == (0.0, 0.0)
    assert _bounds(m, "t1:sbid") == (0.0, 10.0)
    assert "t0:sell_needs_discharge_mode" in m.row_names
    r0 = m.row_names.index("t0:soc_recursion")
    assert m.senses[r0] == "=" and m.rhs[r0] == 4.0
    assert _row(m, "t0:soc_recursion") == {"t0:soc": 1.0, "t0:bd": -0.25, "t0:bs": 0.25}
    r1 = m.row_names.index("t1:soc_recursion")
    assert m.rhs[r1] == 0.0
    assert _row(m, "t1:soc_recursion") == {"t1:soc": 1.0, "t1:bd": -0.25, "t1:bs": 0.25,
                                           "t0:soc": -1.0}

    masked = build_scenario([GEN_CHEAP], BessParams(40.0, 10.0), [80.0],
                            mask=MarketMask(False, True, True))
    m2 = bilevel.assemble_milp(masked).milp
    assert _bounds(m2, "t0:sbid") == (0.0, 0.0)
    assert _bounds(m2, "t0:dbid") == (0.0, 0.0)
    assert not any("mode" in name for name in m2.row_names)


def _bounds(m, name):
    k = m.col_names.index(name)
    return m.lower[k], m.upper[k]


def _row(m, name):
    row = m.a.getrow(m.row_names.index(name))
    return {m.col_names[k]: v for k, v in zip(row.indices, row.data)}


# sha256 of the exported MPS of the golden two-interval instance under cases
# 1-3, and under case 4 with the terminal-SOC row; tests/data/bidding_tiny.mps
# holds case 4 without it
PINNED_MPS_SHA256 = {
    (1, False): "080a0f0abb9262e5466f6f4ba9e664f5686bf242a0f144d25f7da9480ace9d29",
    (2, False): "feba23df4059b0a69a192a5c62fb71c85ac8fb7b29698c71607fdc5721982041",
    (3, False): "b84ffa9d3c64f8ed5ca0f75a79df68a32a17ec568dd2e1437ad25761a8cd7001",
    (4, True): "89b7d33f9c634156a3588f8007daad82b2409d59e3b7cf8552af4d7a88084524",
}


def test_masked_models_match_pinned_mps(tmp_path):
    for (case, terminal), digest in PINNED_MPS_SHA256.items():
        built = bilevel.assemble_milp(small_instance(MarketMask.from_case(case)),
                                      terminal_soc_equality=terminal)
        path = tmp_path / f"case{case}.mps"
        solver.export_mps(built.milp, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, (case, terminal)


# sha256 of the reference system's case-4 export: 13248 columns, 17088 rows,
# 5184 binaries in 192 INTORG/INTEND runs, with BV, LO and UP bounds
REFERENCE_CASE4_MPS_SHA256 = "fbed6092021126b3e11b87979a4769f38db1259e640ff6c095c0110d42a97f97"


def test_reference_case4_matches_pinned_mps(tmp_path):
    built = bilevel.assemble_milp(harness.reference_scenario(MarketMask.from_case(4)))
    assert (built.counts["columns"], built.counts["rows"], built.counts["binaries"]) == \
        (13248, 17088, 5184)
    path = tmp_path / "reference4.mps"
    solver.export_mps(built.milp, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REFERENCE_CASE4_MPS_SHA256


def test_soc_recursion_arithmetic_through_milp():
    # charging 40 MW for four 15-minute intervals accumulates 40 MWh
    gen = GeneratorParams("g1", 10.0, 480.0, 96.0, 48.0)
    scn = build_scenario([gen], BessParams(400.0, 40.0, soc_init=0.0),
                         [400.0] * 4, delta_t=0.25,
                         mask=MarketMask(True, False, False), beta=EAGER_BUYER)
    bl, out, sol = solve_and_extract(scn)
    soc = 0.0
    for s in sol.intervals:
        soc += (s.variables.p_bd - s.variables.p_bs) * 0.25
        assert s.soc == pytest.approx(soc, abs=1e-9)
        assert s.variables.p_bs * s.variables.p_bd == pytest.approx(0.0, abs=1e-9)


def test_arbitrage_solution_verifies():
    gen = GeneratorParams("g1", 10.0, 100.0, 20.0, 10.0)
    scn = build_scenario([gen], BessParams(40.0, 20.0), [40.0, 80.0],
                         delta_t=1.0, reserve_frac=0.1, regcap_frac=0.04,
                         ancillary_ratio=1.0, price_factors=[0.5, 1.0],
                         beta=EAGER_BUYER)
    bl, out, sol = solve_and_extract(scn)
    assert out.objective > 0.0
    rep = bilevel.verify_bilevel_solution(bl, sol)
    assert rep.passed, rep.summary()
    assert rep.max_residuals["cs"] <= 1e-7
    assert rep.revenue_from_duals == pytest.approx(rep.revenue_milp, rel=1e-5)
    # revenue decomposes into the linearized per-interval values
    per_interval = sum(
        bilevel.direct_revenue_value(b.kkt.layout, s.variables, s.row_duals)
        for b, s in zip(bl.blocks, sol.intervals)
    )
    assert per_interval == pytest.approx(out.objective, rel=1e-6)


def test_participation_monotonicity_small():
    gen = GeneratorParams("g1", 10.0, 100.0, 20.0, 10.0)
    objs = {}
    for label, mask in (("e", MarketMask(True, False, False)),
                        ("er", MarketMask(True, True, False)),
                        ("all", MarketMask(True, True, True))):
        scn = build_scenario([gen], BessParams(40.0, 20.0, soc_init=10.0),
                             [40.0, 80.0], delta_t=1.0, reserve_frac=0.1,
                             regcap_frac=0.04, ancillary_ratio=1.0,
                             price_factors=[0.5, 1.0], mask=mask,
                             beta=EAGER_BUYER)
        _, out, _ = solve_and_extract(scn)
        objs[label] = out.objective
    assert objs["e"] <= objs["er"] + 1e-7
    assert objs["er"] <= objs["all"] + 1e-7


def test_verify_flags_corrupted_award():
    gen = GeneratorParams("g1", 10.0, 100.0, 20.0, 10.0)
    scn = build_scenario([gen], BessParams(40.0, 20.0), [40.0, 80.0],
                         delta_t=1.0, price_factors=[0.5, 1.0],
                         mask=MarketMask(True, False, False), beta=EAGER_BUYER)
    bl, out, sol = solve_and_extract(scn)
    sol.intervals[1].variables.p_gs[0] += 5.0
    rep = bilevel.verify_bilevel_solution(bl, sol)
    assert not rep.passed
    # the corrupted dispatch breaks the power balance row
    assert any("balance" in m for m in rep.mismatches), rep.mismatches


def test_verify_flags_truncated_dual():
    gen = GeneratorParams("g1", 10.0, 100.0, 20.0, 10.0)
    scn = build_scenario([gen], BessParams(40.0, 20.0, soc_init=40.0), [80.0],
                         delta_t=1.0, mask=MarketMask(True, False, False))
    bl, out, sol = solve_and_extract(scn)
    assert out.objective > 0.0
    sol.intervals[0].row_duals[bl.blocks[0].kkt.layout.row_balance] = 0.0
    rep = bilevel.verify_bilevel_solution(bl, sol)
    assert not rep.passed


def test_degenerate_tie_passes_with_note():
    # two identical generators produce tied clearing optima
    twin_a = GeneratorParams("a", 10.0, 100.0, 20.0, 10.0)
    twin_b = GeneratorParams("b", 10.0, 100.0, 20.0, 10.0)
    scn = build_scenario([twin_a, twin_b], BessParams(40.0, 20.0, soc_init=40.0),
                         [150.0], delta_t=1.0, mask=MarketMask(True, False, False))
    bl, out, sol = solve_and_extract(scn)
    rep = bilevel.verify_bilevel_solution(bl, sol)
    assert rep.passed, rep.summary()


def test_terminal_soc_equality_option():
    gen = GeneratorParams("g1", 10.0, 100.0, 20.0, 10.0)
    scn = build_scenario([gen], BessParams(40.0, 20.0, soc_init=10.0),
                         [40.0, 80.0], delta_t=1.0, price_factors=[0.5, 1.0],
                         mask=MarketMask(True, False, False), beta=EAGER_BUYER)
    _, out_free, sol_free = solve_and_extract(scn)
    _, out_pin, sol_pin = solve_and_extract(scn, terminal_soc_equality=True)
    assert sol_pin.intervals[-1].soc == pytest.approx(10.0, abs=1e-7)
    assert out_pin.objective <= out_free.objective + 1e-7


def test_invalid_scenario_rejected():
    gen = GeneratorParams("g1", 10.0, 50.0, 20.0, 10.0)
    scn = build_scenario([gen], BessParams(40.0, 20.0), [100.0])
    with pytest.raises(bilevel.BilevelError, match="invalid scenario"):
        bilevel.assemble_milp(scn)
