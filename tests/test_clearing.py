"""Joint market-clearing LP: structure, prices, duals, and horizon behavior."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from bessbid import harness, solver
from bessbid.clearing import (
    ZERO_BIDS,
    BessBids,
    ClearingError,
    InfeasibleMarketError,
    LlLayout,
    build_ll_interval,
    clear_horizon,
    clear_interval,
)
from bessbid.scenario import (
    DEFAULT_GENERATOR_TABLE,
    BessParams,
    BessPriceBids,
    GeneratorParams,
    IntervalData,
    Scenario,
)
from test_acceptance import drop_storage


def make_scenario(gens, bess, loads, delta_t=0.25, reserve=0.0, regcap=0.0,
                  mileage=0.0, ancillary_ratio=0.0):
    intervals = []
    for t, load in enumerate(loads):
        e_bids = tuple(g.base_price_bid for g in gens)
        intervals.append(IntervalData(
            index=t, delta_t=delta_t, load=load,
            reserve_req=reserve, regcap_req=regcap, mileage_req=mileage,
            gen_energy_bids=e_bids,
            gen_reserve_bids=tuple(ancillary_ratio * b for b in e_bids),
            gen_regcap_bids=tuple(ancillary_ratio * b for b in e_bids),
            gen_mileage_bids=tuple(ancillary_ratio * b for b in e_bids),
        ))
    return Scenario(generators=tuple(gens), bess=bess, intervals=tuple(intervals))


GEN_A = GeneratorParams("a", 10.0, 100.0, 20.0, 10.0)
GEN_B = GeneratorParams("b", 20.0, 100.0, 20.0, 10.0)
SMALL_BESS = BessParams(energy_capacity=10.0, power_rate=5.0)


def test_lp_dimensions_five_generators():
    scn = make_scenario(DEFAULT_GENERATOR_TABLE, BessParams(400.0, 40.0), [500.0],
                        reserve=50.0, regcap=20.0, mileage=35.0)
    inst = build_ll_interval(scn, 0, BessBids(1, 1, 1, 1))
    # 4 schedule variables per generator plus 5 storage variables
    assert inst.lp.n_cols == 4 * 5 + 5
    # 6 rows per generator, 6 storage rows, 4 system rows
    assert inst.lp.n_rows == 6 * 5 + 6 + 4
    assert inst.layout.row_names[-1] == "balance"


def test_zero_bids_pin_storage_awards():
    scn = make_scenario([GEN_A, GEN_B], SMALL_BESS, [150.0])
    inst = build_ll_interval(scn, 0, ZERO_BIDS)
    # solve the full LP directly: award caps at zero force all storage
    # variables to zero, including mileage through its floor/cap pair
    out = solver.solve_lp(inst.lp)
    assert out.status == "optimal"
    x = out.x
    lay = inst.layout
    for col in (lay.col_bs, lay.col_bd, lay.col_brs, lay.col_brgc, lay.col_brgm):
        assert abs(x[col]) <= 1e-9


def test_single_generator_serves_load():
    scn = make_scenario([GEN_A], SMALL_BESS, [80.0])
    res = clear_interval(build_ll_interval(scn, 0, ZERO_BIDS))
    assert res.variables.p_gs[0] == pytest.approx(80.0, abs=1e-9)
    assert res.variables.p_grs[0] == pytest.approx(0.0, abs=1e-9)
    assert res.variables.p_grgc[0] == pytest.approx(0.0, abs=1e-9)


def test_two_generator_marginal_price():
    scn = make_scenario([GEN_A, GEN_B], SMALL_BESS, [150.0])
    res = clear_interval(build_ll_interval(scn, 0, ZERO_BIDS))
    np.testing.assert_allclose(res.variables.p_gs, [100.0, 50.0], atol=1e-9)
    # generator b is the unique marginal unit
    assert res.prices.energy == pytest.approx(20.0, abs=1e-9)
    dt = 0.25
    assert res.objective == pytest.approx((10 * 100 + 20 * 50) * dt, rel=1e-12)


def test_zero_load_zero_requirements():
    scn = make_scenario([GEN_A], SMALL_BESS, [0.0])
    res = clear_interval(build_ll_interval(scn, 0, ZERO_BIDS))
    assert res.objective == pytest.approx(0.0, abs=1e-12)
    assert res.variables.p_gs[0] == pytest.approx(0.0, abs=1e-12)


def test_mileage_multiplier_slack():
    # ample multipliers: the mileage cap never binds, awards sit between the
    # capacity floor and the requirement row
    scn = make_scenario([GEN_A, GEN_B], SMALL_BESS, [150.0],
                        reserve=15.0, regcap=6.0, mileage=10.5, ancillary_ratio=0.1)
    res = clear_interval(build_ll_interval(scn, 0, ZERO_BIDS))
    v = res.variables
    # mileage is costly, so the requirement row pins the aggregate award and
    # the multiplier cap keeps plenty of slack in aggregate; per-unit splits
    # between the floor and cap are solver-resolved and not asserted
    assert v.p_grgm.sum() == pytest.approx(10.5, abs=1e-9)
    for j in range(2):
        assert v.p_grgc[j] - 1e-9 <= v.p_grgm[j] <= 10.0 * v.p_grgc[j] + 1e-9
    assert 10.0 * v.p_grgc.sum() - v.p_grgm.sum() >= 40.0


def test_balance_and_requirements_exact():
    scn = make_scenario([GEN_A, GEN_B], SMALL_BESS, [120.0, 150.0],
                        reserve=12.0, regcap=5.0, mileage=8.75, ancillary_ratio=0.15)
    bids = [BessBids(2.0, 0.0, 1.0, 1.0), BessBids(0.0, 3.0, 2.0, 0.5)]
    for res, bid in zip(clear_horizon(scn, bids), bids):
        v = res.variables
        balance = v.p_gs.sum() + v.p_bs - v.p_bd
        assert abs(balance - scn.intervals[res.t].load) <= 1e-9
        assert v.p_grs.sum() + v.p_brs >= 12.0 - 1e-9
        assert v.p_grgc.sum() + v.p_brgc >= 5.0 - 1e-9
        assert v.p_grgm.sum() + v.p_brgm >= 8.75 - 1e-9
        assert v.p_bs <= bid.sell + 1e-9 and v.p_bd <= bid.buy + 1e-9
        assert res.duality_gap_rel <= 1e-6
        assert res.cs_residual <= 1e-7
        # vector_from inverts variables_from bit for bit
        x = np.random.default_rng(res.t).uniform(-1.0, 1.0, res.layout.n_cols)
        assert res.layout.vector_from(res.layout.variables_from(x)).tobytes() == x.tobytes()


def test_degenerate_tie_objective_only():
    twin_a = GeneratorParams("ta", 10.0, 80.0, 10.0, 5.0)
    twin_b = GeneratorParams("tb", 10.0, 80.0, 10.0, 5.0)
    scn = make_scenario([twin_a, twin_b], SMALL_BESS, [100.0])
    res = clear_interval(build_ll_interval(scn, 0, ZERO_BIDS))
    # the split between the twins is ambiguous; the cost is not
    assert res.objective == pytest.approx(10.0 * 100.0 * 0.25, rel=1e-12)
    assert res.variables.p_gs.sum() == pytest.approx(100.0, abs=1e-9)
    assert res.duality_gap_rel <= 1e-6


def test_zero_bid_neutrality_exact():
    scn = make_scenario([GEN_A, GEN_B], SMALL_BESS, [110.0, 150.0],
                        reserve=10.0, regcap=4.0, mileage=7.0, ancillary_ratio=0.2)
    with_bess = clear_horizon(scn, [ZERO_BIDS, ZERO_BIDS])
    assert [r.prices for r in clear_horizon(scn, None)] == [r.prices for r in with_bess]
    for res in with_bess:
        lp = drop_storage(build_ll_interval(scn, res.t).lp)
        out = solver.solve_lp(lp)
        # back in layout rows, where the six storage rows precede the four system rows
        without = res.layout.prices_from(np.insert(out.row_duals, -4, np.zeros(6)))
        assert res.prices == without
        assert res.objective == out.objective


def test_storage_free_lp_drops_storage_by_name():
    scn = make_scenario([GEN_A, GEN_B], SMALL_BESS, [110.0, 150.0],
                        reserve=10.0, regcap=4.0, mileage=7.0, ancillary_ratio=0.2)
    for t in range(scn.n_intervals):
        layout = LlLayout(scn, t)
        free, rows = layout.storage_free_lp()
        want = drop_storage(layout.build_lp())
        for field in ("c", "senses", "rhs", "lower", "upper"):
            assert getattr(free, field).tobytes() == getattr(want, field).tobytes(), field
        assert (free.a != want.a).nnz == 0 and free.a.shape == want.a.shape
        assert (free.row_names, free.col_names) == (want.row_names, want.col_names)
        assert [layout.row_names[r] for r in rows] == free.row_names


def test_zero_requirement_prices_are_unsigned_zero():
    # a zero reserve or mileage requirement clears at a price of 0.0 with the
    # sign bit clear, so no -0.0 price reaches the CLI; in problem row order
    # HiGHS would return these zero '>'-row duals as -0.0
    scn = harness.desk_scenario()
    scn = dataclasses.replace(scn, intervals=tuple(
        dataclasses.replace(iv, reserve_req=0.0, mileage_req=0.0) if iv.index % 2 == 0 else iv
        for iv in scn.intervals))
    bids = [BessBids(sell=1.0, buy=0.0, reserve=2.0, regcap=1.5)] * scn.n_intervals
    for results in (clear_horizon(scn), clear_horizon(scn, bids)):
        assert results[1].prices.reserve > 0.0
        for r in results[::2]:
            zeros = np.array([r.prices.reserve, r.prices.mileage])
            assert np.array_equal(zeros, [0.0, 0.0]) and not np.signbit(zeros).any(), r.t


def test_horizon_matches_joint_lp():
    scn = make_scenario([GEN_A, GEN_B], SMALL_BESS, [100.0, 130.0, 150.0],
                        reserve=10.0, regcap=4.0, mileage=7.0, ancillary_ratio=0.1)
    bids = [BessBids(1.0, 0.0, 0.5, 0.5)] * 3
    results = clear_horizon(scn, bids)
    split_total = sum(r.objective for r in results)

    # the same three intervals stacked into one block-diagonal LP
    lps = [build_ll_interval(scn, t, bids[t]).lp for t in range(3)]
    joint = solver.LpProblem(
        c=np.concatenate([p.c for p in lps]),
        a=sp.block_diag([p.a for p in lps], format="csr"),
        senses=np.concatenate([p.senses for p in lps]),
        rhs=np.concatenate([p.rhs for p in lps]),
        lower=np.concatenate([p.lower for p in lps]),
        upper=np.concatenate([p.upper for p in lps]),
    )
    out = solver.solve_lp(joint)
    assert out.status == "optimal"
    assert split_total == pytest.approx(out.objective, rel=1e-6)


def test_single_interval_horizon_equals_interval():
    scn = make_scenario([GEN_A, GEN_B], SMALL_BESS, [140.0])
    bids = [BessBids(1.5, 0.0, 0.0, 0.0)]
    horizon = clear_horizon(scn, bids)
    single = clear_interval(build_ll_interval(scn, 0, bids[0]))
    assert len(horizon) == 1
    assert horizon[0].objective == single.objective
    assert horizon[0].prices == single.prices


def test_delta_t_scaling_leaves_prices_unchanged():
    narrow = make_scenario([GEN_A, GEN_B], SMALL_BESS, [150.0], delta_t=0.25)
    wide = make_scenario([GEN_A, GEN_B], SMALL_BESS, [150.0], delta_t=0.5)
    rn = clear_interval(build_ll_interval(narrow, 0, ZERO_BIDS))
    rw = clear_interval(build_ll_interval(wide, 0, ZERO_BIDS))
    assert rn.prices.energy == pytest.approx(rw.prices.energy, abs=1e-9)
    assert rw.objective == pytest.approx(2 * rn.objective, rel=1e-12)


def test_infeasible_requirements_name_interval():
    scn = make_scenario([GEN_A], SMALL_BESS, [90.0, 90.0], reserve=50.0)
    with pytest.raises(InfeasibleMarketError, match="interval 0"):
        clear_horizon(scn, None)


def test_partial_award_against_bid_caps():
    # storage undercuts by bidding zero prices; awards never exceed bids
    scn = make_scenario([GEN_A, GEN_B], SMALL_BESS, [150.0],
                        reserve=10.0, regcap=4.0, mileage=7.0, ancillary_ratio=0.1)
    bid = BessBids(sell=3.0, buy=0.0, reserve=2.0, regcap=1.0)
    res = clear_interval(build_ll_interval(scn, 0, bid))
    v = res.variables
    assert v.p_bs <= 3.0 + 1e-9
    assert v.p_brs <= 2.0 + 1e-9
    assert v.p_brgc <= 1.0 + 1e-9
    assert v.p_brgm <= 10.0 * v.p_brgc + 1e-9
    assert v.p_brgm >= v.p_brgc - 1e-9


def test_negative_bid_rejected():
    scn = make_scenario([GEN_A], SMALL_BESS, [50.0])
    with pytest.raises(ValueError, match=">= 0"):
        build_ll_interval(scn, 0, BessBids(sell=-1.0))
    # the horizon names the interval once
    with pytest.raises(ClearingError, match=r"^interval 0: bids must be >= 0"):
        clear_horizon(scn, [BessBids(sell=-1.0)])


def test_backend_failure_names_interval(monkeypatch):
    def fail(self, rhs=None):
        raise solver.SolverError("LP backend failure: forced")

    monkeypatch.setattr(solver.LpModel, "solve", fail)
    scn = make_scenario([GEN_A], SMALL_BESS, [50.0])
    with pytest.raises(ClearingError, match=r"^interval 0: LP backend failure"):
        clear_horizon(scn)
