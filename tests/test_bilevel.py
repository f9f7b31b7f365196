"""Single-level reformulation: KKT system, big-M switching, linearized
objective, assembled MILP, and post-solve verification."""

import hashlib
from dataclasses import dataclass, replace

import numpy as np
import pytest
import scipy.sparse as sp

from bessbid import bilevel, harness, solver
from bessbid.clearing import LlLayout
from bessbid.scenario import (
    DEFAULT_GENERATOR_TABLE,
    BessParams,
    BessPriceBids,
    GeneratorParams,
    MarketMask,
    default_patterns,
    synthesize_scenario,
)
from conftest import GEN_CHEAP, GEN_DEAR, build_scenario, clear_one
from test_acceptance import small_instance
from test_clearing import LAYOUT_SYSTEMS, _same_array, row_dict_layout

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
        kkt = bilevel.derive_kkt(LlLayout(scn))
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
    lay = LlLayout(scn)
    bids = (0.0, 3.0, 1.0, 1.0)
    res = clear_one(lay, 0, bids)
    core = solver.Residuals(lay.build_lp(0))
    rhs = lay.rhs_for(0, np.array([bids]))[0]
    x, y, nu = res.x[0], res.row_duals[0], res.lower_duals[0]
    ax = core.activity(x)
    no_upper = np.zeros(lay.n_cols)
    assert core.stationarity(y, nu, no_upper) <= 1e-8
    assert core.primal(x, ax, rhs) <= 1e-8
    assert core.dual_sign(y, nu, no_upper) <= 1e-12
    assert core.cs(x, ax, rhs, y, nu, no_upper) <= 1e-8


def test_stationarity_identity_for_storage_sell_column():
    # at any cleared point: dt*beta_sell - lambda - delta_sellcap - nu_sell = 0
    scn = build_scenario([GEN_CHEAP, GEN_DEAR], BessParams(10.0, 5.0), [150.0],
                         reserve_frac=0.1, ancillary_ratio=1.0,
                         beta=BessPriceBids(sell=2.0, buy=100.0))
    lay = LlLayout(scn)
    res = clear_one(lay, 0, (4.0, 0.0, 1.0, 0.0))
    dt = lay.delta_t[0]
    lam = res.row_duals[0, lay.row_balance]
    delta_sell = res.row_duals[0, lay.bid_rows["sell"]]
    nu_sell = res.lower_duals[0, lay.col_bs]
    assert dt * 2.0 - lam - delta_sell - nu_sell == pytest.approx(0.0, abs=1e-9)


def test_dual_cap_formula():
    scn = build_scenario([GEN_CHEAP, GEN_DEAR], BessParams(10.0, 5.0), [150.0],
                         ancillary_ratio=1.0, beta=EAGER_BUYER)
    kkt = bilevel.derive_kkt(LlLayout(scn))
    # largest bid is the storage buy bid at 100; generator multiplier 10
    assert kkt.m_dual.tolist() == [pytest.approx(2.0 * 0.25 * 100.0 * 11.0)]
    # every pair's dual row caps its dual at the interval's dual cap
    bl = bilevel.assemble_milp(scn)
    a = bl.milp.a.tocsr()
    for p in bl.block.switched:
        row = bl.milp.row_names.index(
            f"t0:cs_d:{'' if p.kind == 'row' else 'lb:'}{p.name}")
        coefs = dict(zip(a.indices[a.indptr[row]:a.indptr[row + 1]].tolist(),
                         a.data[a.indptr[row]:a.indptr[row + 1]].tolist()))
        assert sorted(coefs.values()) == [-kkt.m_dual[0], 1.0], p
    # every pair is covered by a recorded derivation
    recorded = {r.target for r in kkt.m_registry}
    assert "dual_cap" in recorded
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
        lay = LlLayout(scn)
        res = clear_one(lay, t, raw)
        x, y = res.x[0], res.row_duals[0]
        x_coefs, dual_coefs = bilevel.linearize_objective(lay)
        lin = x_coefs[t] @ x + dual_coefs[t] @ y
        direct = bilevel.direct_revenue_value(lay, x, y)
        assert lin == pytest.approx(direct, abs=1e-7)


def test_linearized_revenue_zero_for_zero_bids():
    scn = build_scenario([GEN_CHEAP], BessParams(10.0, 5.0), [80.0])
    res = clear_one(LlLayout(scn), 0)
    x_coefs, dual_coefs = bilevel.linearize_objective(res.layout)
    assert x_coefs[0] @ res.x[0] + dual_coefs[0] @ res.row_duals[0] == pytest.approx(0.0,
                                                                                   abs=1e-9)


def test_known_sell_instance_revenue():
    # one generator bidding 10 with headroom; storage sells 20 MW at the
    # marginal price 10 -> revenue 200 per hour of interval length
    gen = GeneratorParams("g1", 10.0, 100.0, 20.0, 10.0)
    for dt in (0.25, 1.0):
        scn = build_scenario([gen], BessParams(40.0, 20.0, soc_init=40.0), [80.0],
                             delta_t=dt, mask=MarketMask(True, False, False))
        lay = LlLayout(scn)
        res = clear_one(lay, 0, (20.0, 0.0, 0.0, 0.0))
        x, y = res.x[0], res.row_duals[0]
        rev = bilevel.direct_revenue_value(lay, x, y)
        assert rev == pytest.approx(200.0 * dt, rel=1e-9)
        x_coefs, dual_coefs = bilevel.linearize_objective(lay)
        assert x_coefs[0] @ x + dual_coefs[0] @ y == pytest.approx(200.0 * dt, rel=1e-9)
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


def perturbed_reference():
    """The reference system with 3 % more load and each generator's bids moved
    by -3 % to +4 %."""
    gens = tuple(replace(g, base_price_bid=g.base_price_bid * f)
                 for g, f in zip(DEFAULT_GENERATOR_TABLE, (0.97, 1.04, 1.0, 0.99, 1.02)))
    return synthesize_scenario(default_patterns(), generator_table=gens, peak_load_mw=1030.0,
                               bess_price_bids=BessPriceBids(buy=100.0))


# sha256 of each system's export under a case, taken while every interval's
# block was still built on its own
SYSTEM_MPS_SHA256 = {
    ("desk", 1): "4818e6380612375549e2eb60cfc5a733cd0ada02b29a71465eab10f27eda4e29",
    ("desk", 2): "e58927f20a854821b68a5a01de31678e12763b328a88073b2364bdf07730be30",
    ("desk", 3): "de9182d46fbf67510ae942d02ba85f7a881df3cc4517b92ecbff601df4267976",
    ("desk", 4): "d005892469380413a29f36cbff131b7ed47e37bfceb39dc18f95fd6d1c554793",
    ("reference", 1): "4401de24ecf12ed90519aacad706aa65f02c53190829170891b11f0c5bed6f7a",
    ("reference", 2): "e79a02e8d359a3176c35e249eb311946d2bac0f02c9524dd051c3b8117d66eb5",
    ("reference", 3): "2013e9c6cc2da8600595eabc325c8238df7322c43d8562ce1b73adebf6b95f98",
    ("perturbed reference", 4): "254138d132b159344348e3b826073ae42cff98715d253bec875d2067fb4e2b49",
}
SYSTEMS = {"desk": harness.desk_scenario, "reference": harness.reference_scenario,
           "perturbed reference": perturbed_reference}
# sha256 of the reference case-4 model's row names, then column names, one a line
REFERENCE_CASE4_NAMES_SHA256 = "1be6669fe8d01c1057112c382d73db08a44a33f0ff2017184ecdead9013caabd"


@pytest.mark.parametrize("system, case", list(SYSTEM_MPS_SHA256),
                         ids=lambda v: str(v).replace(" ", "-"))
def test_system_exports_match_pinned_mps(tmp_path, system, case):
    built = bilevel.assemble_milp(SYSTEMS[system]().with_mask(MarketMask.from_case(case)))
    path = tmp_path / "model.mps"
    solver.export_mps(built.milp, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SYSTEM_MPS_SHA256[system, case]


def test_reference_case4_names_match_pinned_digest():
    m = bilevel.assemble_milp(harness.reference_scenario(MarketMask.from_case(4))).milp
    names = "\n".join(m.row_names + m.col_names)
    assert hashlib.sha256(names.encode()).hexdigest() == REFERENCE_CASE4_NAMES_SHA256


def test_soc_recursion_arithmetic_through_milp():
    # charging 40 MW for four 15-minute intervals accumulates 40 MWh
    gen = GeneratorParams("g1", 10.0, 480.0, 96.0, 48.0)
    scn = build_scenario([gen], BessParams(400.0, 40.0, soc_init=0.0),
                         [400.0] * 4, delta_t=0.25,
                         mask=MarketMask(True, False, False), beta=EAGER_BUYER)
    bl, out, sol = solve_and_extract(scn)
    soc = 0.0
    col_bs = sol.layout.col_bs
    for t in range(scn.n_intervals):
        p_bs, p_bd = sol.x[t, col_bs:col_bs + 2]
        soc += (p_bd - p_bs) * 0.25
        assert sol.soc[t] == pytest.approx(soc, abs=1e-9)
        assert p_bs * p_bd == pytest.approx(0.0, abs=1e-9)


def test_arbitrage_solution_verifies():
    gen = GeneratorParams("g1", 10.0, 100.0, 20.0, 10.0)
    scn = build_scenario([gen], BessParams(40.0, 20.0), [40.0, 80.0],
                         delta_t=1.0, reserve_frac=0.1, regcap_frac=0.04,
                         ancillary_ratio=1.0, price_factors=[0.5, 1.0],
                         beta=EAGER_BUYER)
    bl, out, sol = solve_and_extract(scn)
    assert out.objective > 0.0
    rep = bilevel.verify_bilevel_solution(sol)
    assert rep.passed, rep.summary()
    assert rep.max_residuals["cs"] <= 1e-7
    assert rep.revenue_from_duals == pytest.approx(rep.revenue_milp, rel=1e-5)
    # revenue decomposes into the linearized per-interval values
    layout = bl.block.kkt.layout
    per_interval = bilevel.direct_revenue_value(layout, sol.x, sol.row_duals)
    assert per_interval.shape == (scn.n_intervals,)
    assert per_interval.sum() == pytest.approx(out.objective, rel=1e-6)


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
    sol.x[1, sol.layout.col_gen(0, 0)] += 5.0
    rep = bilevel.verify_bilevel_solution(sol)
    assert not rep.passed
    # the corrupted dispatch breaks the power balance row
    assert any("balance" in m for m in rep.mismatches), rep.mismatches
    assert rep.mismatches == ["t1:balance", "t1:lower_level_optimality"]


def test_verify_flags_truncated_dual():
    gen = GeneratorParams("g1", 10.0, 100.0, 20.0, 10.0)
    scn = build_scenario([gen], BessParams(40.0, 20.0, soc_init=40.0), [80.0],
                         delta_t=1.0, mask=MarketMask(True, False, False))
    bl, out, sol = solve_and_extract(scn)
    assert out.objective > 0.0
    sol.row_duals[0, bl.block.kkt.layout.row_balance] = 0.0
    rep = bilevel.verify_bilevel_solution(sol)
    assert not rep.passed
    assert rep.mismatches == ["t0:stationarity", "objective_linearization"]


def test_verify_flags_every_check_a_corruption_breaks():
    # a sell bid above the rate at t0, an SOC off its recursion at t1 and a
    # sign-flipped reserve-requirement dual at t1: each check that fails is
    # listed, check group by check group, each group interval by interval;
    # the list and the revenue and residual bits were taken while each
    # interval was checked on its own
    gen = GeneratorParams("g1", 10.0, 100.0, 20.0, 10.0)
    scn = build_scenario([gen], BessParams(40.0, 20.0), [40.0, 80.0],
                         delta_t=1.0, reserve_frac=0.1, regcap_frac=0.04,
                         ancillary_ratio=1.0, price_factors=[0.5, 1.0], beta=EAGER_BUYER)
    bl, out, sol = solve_and_extract(scn)
    layout = sol.layout
    assert sol.u.tolist() == [0, 1]
    assert sol.row_duals[1, layout.row_reserve_req] == 1.5
    sol.bids[0, 0] = scn.bess.power_rate + 1.0
    sol.soc[1] += 1.0
    sol.row_duals[1, layout.row_reserve_req] *= -1.0
    rep = bilevel.verify_bilevel_solution(sol)
    assert not rep.passed
    assert rep.mismatches == [
        "t0:bid_rate_caps", "t0:sell_mode", "t1:soc_recursion",
        "t0:complementarity", "t1:stationarity", "t1:dual_sign",
        "t0:lower_level_optimality",
    ]
    # the flipped dual moves t1's reserve price away from the re-clear's
    assert rep.notes == ["degenerate clearing optima at intervals [1]: awards/prices differ, "
                         "objectives match within 1e-6"]
    assert (rep.revenue_milp.hex(), rep.revenue_from_duals.hex()) == \
        ("0x1.ac1b4e81b4e83p+6", "0x1.ac1b4e81b4e81p+6")
    assert {k: v.hex() for k, v in rep.max_residuals.items()} == {
        "stationarity": "0x1.8000000000000p+1", "primal": "0x1.b000000000000p-47",
        "dual_sign": "0x1.8000000000000p+0", "cs": "0x1.a400000000000p+6"}


def test_degenerate_tie_passes_with_note():
    # two identical generators produce tied clearing optima
    twin_a = GeneratorParams("a", 10.0, 100.0, 20.0, 10.0)
    twin_b = GeneratorParams("b", 10.0, 100.0, 20.0, 10.0)
    scn = build_scenario([twin_a, twin_b], BessParams(40.0, 20.0, soc_init=40.0),
                         [150.0], delta_t=1.0, mask=MarketMask(True, False, False))
    bl, out, sol = solve_and_extract(scn)
    rep = bilevel.verify_bilevel_solution(sol)
    assert rep.passed, rep.summary()


def test_terminal_soc_equality_option():
    gen = GeneratorParams("g1", 10.0, 100.0, 20.0, 10.0)
    scn = build_scenario([gen], BessParams(40.0, 20.0, soc_init=10.0),
                         [40.0, 80.0], delta_t=1.0, price_factors=[0.5, 1.0],
                         mask=MarketMask(True, False, False), beta=EAGER_BUYER)
    _, out_free, sol_free = solve_and_extract(scn)
    _, out_pin, sol_pin = solve_and_extract(scn, terminal_soc_equality=True)
    assert sol_pin.soc[-1] == pytest.approx(10.0, abs=1e-7)
    assert out_pin.objective <= out_free.objective + 1e-7


def test_invalid_scenario_rejected():
    gen = GeneratorParams("g1", 10.0, 50.0, 20.0, 10.0)
    scn = build_scenario([gen], BessParams(40.0, 20.0), [100.0])
    with pytest.raises(bilevel.BilevelError, match="invalid scenario"):
        bilevel.assemble_milp(scn)


# ---------------------------------------------------------------------------
# the MILP as it was built interval by interval, kept as the reference that
# the assembly of all intervals at once must equal bit for bit
# ---------------------------------------------------------------------------


class IntervalLayout(LlLayout):
    """One interval's clearing LP: the arrays of
    ``test_clearing.row_dict_layout``, with ``LlLayout``'s index helpers."""

    def __init__(self, scn, t):
        self.scenario, self.t, self.interval = scn, t, scn.intervals[t]
        self.delta_t = self.interval.delta_t
        self.n_gens = scn.n_generators
        for key, value in row_dict_layout(scn, t).items():
            setattr(self, key, value)
        self.n_rows, self.n_cols = self.a.shape


@dataclass(frozen=True)
class PairWithM:
    kind: str
    index: int
    name: str
    m_primal: float
    m_dual: float


@dataclass
class IntervalKkt:
    layout: IntervalLayout
    sigma: np.ndarray
    comp_pairs: list
    m_dual: float
    m_registry: list

    @property
    def lower_cols(self):
        return [p.index for p in self.comp_pairs if p.kind == "lower"]


def _interval_dual_bound(layout):
    it = layout.interval
    beta = it.bess_price_bids
    max_bid = max(
        max(it.gen_energy_bids), max(it.gen_reserve_bids),
        max(it.gen_regcap_bids), max(it.gen_mileage_bids),
        abs(beta.sell), abs(beta.buy), abs(beta.reserve),
        abs(beta.regcap), abs(beta.mileage),
    )
    max_mult = max(
        max(g.mileage_multiplier for g in layout.scenario.generators),
        layout.scenario.bess.mileage_multiplier,
    )
    value = max(1.0, 2.0 * layout.delta_t * max_bid * (1.0 + max_mult))
    derivation = (
        f"2 * delta_t * max_bid * (1 + max_mileage_mult) = "
        f"2 * {layout.delta_t} * {max_bid} * (1 + {max_mult}), floored at 1"
    )
    return value, derivation


def interval_kkt(layout):
    scn = layout.scenario
    it = layout.interval
    rate = scn.bess.power_rate
    mult_b = scn.bess.mileage_multiplier
    t = layout.t

    md, md_note = _interval_dual_bound(layout)
    registry = [bilevel.BigMRecord(t, "dual_cap", md, md_note)]

    sigma = np.zeros(layout.n_rows)
    for r, sense in enumerate(layout.senses):
        sigma[r] = {"<": -1.0, ">": 1.0, "=": 0.0}[sense]

    pairs = []

    def add_row_pair(r: int, mp: float, note: str) -> None:
        name = layout.row_names[r]
        pairs.append(PairWithM("row", r, name, mp, md))
        registry.append(bilevel.BigMRecord(t, name, mp, note))

    for j, g in enumerate(scn.generators):
        span = g.p_max - g.p_min
        mcap = g.mileage_multiplier * g.regulation_ramp
        add_row_pair(layout.row_gen(j, 0), span,
                     "slack <= p_max - p_min given output cap and nonnegative awards")
        add_row_pair(layout.row_gen(j, 1), span,
                     "slack <= p_max - p_min given output floor")
        add_row_pair(layout.row_gen(j, 2), g.reserve_ramp, "slack <= reserve ramp")
        add_row_pair(layout.row_gen(j, 3), g.regulation_ramp, "slack <= regulation ramp")
        add_row_pair(layout.row_gen(j, 4), mcap,
                     "slack <= mileage cap given mileage <= mult * regulation ramp")
        add_row_pair(layout.row_gen(j, 5), mcap,
                     "slack <= mult * regcap award <= mult * regulation ramp")
    for key, r in layout.bid_rows.items():
        add_row_pair(r, rate, f"slack <= power rating (bid {key} <= rate)")
    add_row_pair(layout.row_mil_floor_bess, mult_b * rate,
                 "slack <= storage mileage cap = mult * rate")
    add_row_pair(layout.row_mil_cap_bess, mult_b * rate,
                 "slack <= mult * regcap award <= mult * rate")

    rs_cap = sum(g.reserve_ramp for g in scn.generators) + rate
    rg_cap = sum(g.regulation_ramp for g in scn.generators) + rate
    mil_cap = sum(g.mileage_multiplier * g.regulation_ramp for g in scn.generators) + mult_b * rate
    add_row_pair(layout.row_reserve_req, max(0.0, rs_cap - it.reserve_req),
                 "slack <= total reserve capability - requirement")
    add_row_pair(layout.row_regcap_req, max(0.0, rg_cap - it.regcap_req),
                 "slack <= total regulation capability - requirement")
    add_row_pair(layout.row_mileage_req, max(0.0, mil_cap - it.mileage_req),
                 "slack <= total mileage capability - requirement")

    def add_lower_pair(col: int, mp: float, note: str) -> None:
        name = layout.col_names[col]
        pairs.append(PairWithM("lower", col, name, mp, md))
        registry.append(bilevel.BigMRecord(t, f"lb:{name}", mp, note))

    for j, g in enumerate(scn.generators):
        add_lower_pair(layout.col_gen(j, 1), g.reserve_ramp, "value <= reserve ramp")
        add_lower_pair(layout.col_gen(j, 2), g.regulation_ramp, "value <= regulation ramp")
    add_lower_pair(layout.col_bs, rate, "award <= bid <= power rating")
    add_lower_pair(layout.col_bd, rate, "award <= bid <= power rating")
    add_lower_pair(layout.col_brs, rate, "award <= bid <= power rating")
    add_lower_pair(layout.col_brgc, rate, "award <= bid <= power rating")

    return IntervalKkt(layout=layout, sigma=sigma, comp_pairs=pairs,
                       m_dual=md, m_registry=registry)


def _interval_linearized(layout):
    x_coefs = np.zeros(layout.n_cols)
    n_gen_cols = LlLayout.GEN_COLS * layout.n_gens
    x_coefs[:n_gen_cols] = -layout.c[:n_gen_cols]
    return x_coefs, layout.rhs_base


def interval_block_alone(kkt, mask):
    layout = kkt.layout
    scn = layout.scenario
    bess = scn.bess
    rate = bess.power_rate
    md = kkt.m_dual
    pfx = f"t{layout.t}:"
    nx, nr = layout.n_cols, layout.n_rows
    masked_rows, masked_cols = bilevel.masked_indices(layout, mask)
    lower_cols = kkt.lower_cols
    switched = [p for p in kkt.comp_pairs
                if p.index not in (masked_rows if p.kind == "row" else masked_cols)]
    ul_names = ["sbid", "dbid", "rsbid", "rgbid"] + (["u"] if mask.energy else []) + ["soc"]
    x0 = len(ul_names)
    w0 = x0 + nx
    z0 = w0 + nr + len(lower_cols)
    n_z = len(switched)
    eq = layout.senses == "="
    x_coefs, dual_coefs = _interval_linearized(layout)

    # --- columns ---------------------------------------------------------
    lower = np.zeros(z0 + n_z)
    upper = np.full(z0 + n_z, md)
    c = np.zeros(z0 + n_z)
    integrality = np.zeros(z0 + n_z, dtype=np.int8)
    upper[:4] = np.where([mask.energy, mask.energy, mask.reserve, mask.regulation], rate, 0.0)
    if mask.energy:
        upper[4] = 1.0
        integrality[4] = 1
    lower[x0 - 1], upper[x0 - 1] = bess.soc_min, bess.soc_max
    # clearing columns carry redundant native bounds for relaxation tightness
    # (each is implied by the clearing rows plus bid limits)
    n_gen_cols = LlLayout.GEN_COLS * layout.n_gens
    lower[x0:x0 + n_gen_cols:LlLayout.GEN_COLS] = [g.p_min for g in scn.generators]
    upper[x0:x0 + n_gen_cols] = [v for g in scn.generators for v in (
        g.p_max, g.reserve_ramp, g.regulation_ramp, g.mileage_multiplier * g.regulation_ramp)]
    upper[x0 + n_gen_cols:w0] = [rate, rate, rate, rate, bess.mileage_multiplier * rate]
    upper[[x0 + k for k in masked_cols]] = 0.0
    c[x0:w0] = x_coefs
    # w holds magnitudes of inequality duals and the free lambda of the
    # balance row, so its objective coefficients carry the sense sign
    lower[w0:w0 + nr] = np.where(eq, -md, 0.0)
    c[w0:w0 + nr] = np.where(eq, dual_coefs, dual_coefs * kkt.sigma)
    upper[z0:] = 1.0
    integrality[z0:] = 1
    col_names = (
        [pfx + nm for nm in ul_names]
        + [pfx + nm for nm in layout.col_names]
        + [pfx + ("lam" if e else "w:" + nm) for e, nm in zip(eq, layout.row_names)]
        + [pfx + "nu:" + layout.col_names[k] for k in lower_cols]
        + [pfx + ("z:" if p.kind == "row" else "zlo:") + p.name for p in switched]
    )

    # --- rows --------------------------------------------------------------
    # the inequalities as COO entries over the block's columns
    a = layout.a.tocoo()
    n_lo = len(lower_cols)
    g_r = np.concatenate([a.row, list(layout.bid_rows.values()), nr + np.arange(n_lo)])
    g_c = np.concatenate([x0 + a.col, np.arange(4), x0 + np.array(lower_cols, dtype=int)])
    g_v = np.concatenate([a.data, np.full(4, -1.0), np.ones(n_lo)])
    g_sense = np.concatenate([layout.senses, np.full(n_lo, ">")])
    g_rhs = np.concatenate([layout.rhs_base, np.zeros(n_lo)])
    g_sign = np.concatenate([np.where(eq, 1.0, kkt.sigma), np.ones(n_lo)])
    clearing_entry = g_r < nr
    x_entry = g_c >= x0

    slots = np.array([p.index if p.kind == "row" else nr + lower_cols.index(p.index)
                      for p in switched], dtype=int)
    m_p = np.array([p.m_primal for p in switched])
    m_d = np.array([p.m_dual for p in switched])
    z = z0 + np.arange(n_z)
    cs_p = nr + nx + 2 * np.arange(n_z)
    cs_p_of = np.full(nr + n_lo, -1)
    cs_p_of[slots] = cs_p
    cs_entry = cs_p_of[g_r] >= 0
    # a "<" row's slack b - g x <= M (1 - z) becomes g x - M z >= b - M; a
    # ">" row's g x - b <= M (1 - z) becomes g x + M z <= b + M
    flip = g_sense[slots] == "<"

    part = bilevel.ModelPart(
        rows=np.concatenate([g_r[clearing_entry], nr + g_c[x_entry] - x0,
                             cs_p_of[g_r[cs_entry]], cs_p, cs_p + 1, cs_p + 1]),
        cols=np.concatenate([g_c[clearing_entry], w0 + g_r[x_entry],
                             g_c[cs_entry], z, w0 + slots, z]),
        vals=np.concatenate([g_v[clearing_entry], g_v[x_entry] * g_sign[g_r[x_entry]],
                             g_v[cs_entry], np.where(flip, -m_p, m_p), np.ones(n_z), -m_d]),
        senses=np.concatenate([
            layout.senses, np.full(nx, "="),
            np.stack([np.where(flip, ">", "<"), np.full(n_z, "<")], axis=1).ravel(),
        ]),
        rhs=np.concatenate([
            layout.rhs_base, layout.c,
            np.stack([np.where(flip, g_rhs[slots] - m_p, g_rhs[slots] + m_p), np.zeros(n_z)],
                     axis=1).ravel(),
        ]),
        row_names=(
            [pfx + nm for nm in layout.row_names]
            + [pfx + "stat:" + nm for nm in layout.col_names]
            + [f"{pfx}cs_{side}:{'' if p.kind == 'row' else 'lb:'}{p.name}"
               for p in switched for side in "pd"]
        ),
        lower=lower, upper=upper, c=c, integrality=integrality, col_names=col_names,
    )
    return bilevel.IntervalBlock(x0=x0, w0=w0, z0=z0, width=z0 + n_z, switched=switched,
                                 slots=slots, kkt=kkt), part


def per_interval_milp(scn, terminal_soc_equality):
    """The bidding MILP, its blocks and the column each block starts at, one
    interval's layout, KKT system and block after another."""
    blocks, starts, parts = [], [], []
    n_rows = n_cols = 0
    for t in range(scn.n_intervals):
        kkt = interval_kkt(IntervalLayout(scn, t))
        block, part = interval_block_alone(kkt, scn.market_mask)
        blocks.append(block)
        starts.append(n_cols)
        part.rows += n_rows
        part.cols += n_cols
        parts.append(part)
        n_rows += len(part.rhs)
        n_cols += len(part.c)
    # every block has the first one's width; the test checks the starts
    ul = bilevel._ul_rows(scn, blocks[0], terminal_soc_equality)
    ul.rows += n_rows
    parts.append(ul)
    n_rows += len(ul.rhs)

    rows, cols, vals = (np.concatenate([getattr(p, f) for p in parts])
                        for f in ("rows", "cols", "vals"))
    keep = vals != 0.0
    a = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n_rows, n_cols)).tocsr()
    milp = solver.MilpProblem(
        c=np.concatenate([p.c for p in parts]),
        a=a,
        senses=np.concatenate([p.senses for p in parts]),
        rhs=np.concatenate([p.rhs for p in parts]),
        lower=np.concatenate([p.lower for p in parts]),
        upper=np.concatenate([p.upper for p in parts]),
        maximize=True,
        row_names=[nm for p in parts for nm in p.row_names],
        col_names=[nm for p in parts for nm in p.col_names],
        integrality=np.concatenate([p.integrality for p in parts]),
    )
    return milp, blocks, starts


# the layout systems, and one whose dual cap differs by interval: the
# generators' bids, not the storage buy bid, set it
ASSEMBLY_SYSTEMS = {
    **LAYOUT_SYSTEMS,
    "varying bids": lambda: build_scenario(
        [GEN_CHEAP, GEN_DEAR], BessParams(10.0, 5.0, soc_init=5.0), [120.0, 150.0, 90.0],
        reserve_frac=0.1, regcap_frac=0.04, ancillary_ratio=1.0,
        price_factors=[1.0, 3.0, 0.5], beta=BessPriceBids(buy=15.0)),
}


@pytest.mark.parametrize("terminal", [False, True], ids=["free end", "terminal soc"])
@pytest.mark.parametrize("case", [1, 2, 3, 4])
@pytest.mark.parametrize("system", list(ASSEMBLY_SYSTEMS))
def test_assembly_equals_per_interval_builder(system, case, terminal):
    scn = ASSEMBLY_SYSTEMS[system]().with_mask(MarketMask.from_case(case))
    got = bilevel.assemble_milp(scn, terminal_soc_equality=terminal)
    want, want_blocks, want_starts = per_interval_milp(scn, terminal)
    for field in ("indptr", "indices", "data"):
        assert _same_array(getattr(got.milp.a, field), getattr(want.a, field)), field
    assert got.milp.a.shape == want.a.shape
    for field in ("c", "rhs", "lower", "upper", "senses", "integrality"):
        assert _same_array(getattr(got.milp, field), getattr(want, field)), field
    assert got.milp.maximize and want.maximize
    assert (got.milp.row_names, got.milp.col_names) == (want.row_names, want.col_names)

    b = got.block
    kkt = b.kkt
    if system == "varying bids":
        assert len(set(kkt.m_dual.tolist())) == scn.n_intervals
    # interval t's block starts at column t * width, and the blocks fill the columns
    assert want_starts == [t * b.width for t in range(scn.n_intervals)]
    assert got.milp.n_cols == scn.n_intervals * b.width
    for t, w in enumerate(want_blocks):
        assert (b.x0, b.w0, b.z0, b.width) == (w.x0, w.w0, w.z0, w.width), t
        assert _same_array(b.slots, w.slots), t
        # the same pairs switched, each with the big-Ms of its interval
        assert [(p.kind, p.index, p.name) for p in b.switched] == \
            [(p.kind, p.index, p.name) for p in w.switched], t
        k = [kkt.comp_pairs.index(p) for p in b.switched]
        assert kkt.m_primal[t, k].tobytes() == \
            np.array([p.m_primal for p in w.switched], dtype=float).tobytes(), t
        assert kkt.m_dual[t].tobytes() == np.float64(w.kkt.m_dual).tobytes(), t
    assert [repr(r) for r in kkt.m_registry] == \
        [repr(r) for w in want_blocks for r in w.kkt.m_registry]
