"""Joint market-clearing LP: structure, prices, duals, and horizon behavior."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest
import scipy.sparse as sp

from bessbid import clearing, harness, solver
from bessbid.clearing import ClearingError, InfeasibleMarketError, LlLayout, clear_batch
from bessbid.scenario import (
    DEFAULT_GENERATOR_TABLE,
    BessParams,
    BessPriceBids,
    GeneratorParams,
    IntervalData,
    Scenario,
)
from conftest import ZERO_BIDS, as_csr, clear_one, lp_at, solve_one
from test_acceptance import drop_storage, small_instance


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


def _passive_clear(scn):
    """Every interval of ``scn`` at zero bids, in one batch."""
    n = scn.n_intervals
    return clear_batch(LlLayout(scn), np.arange(n), np.zeros((n, 4)))


GEN_A = GeneratorParams("a", 10.0, 100.0, 20.0, 10.0)
GEN_B = GeneratorParams("b", 20.0, 100.0, 20.0, 10.0)
SMALL_BESS = BessParams(energy_capacity=10.0, power_rate=5.0)


def test_lp_dimensions_five_generators():
    scn = make_scenario(DEFAULT_GENERATOR_TABLE, BessParams(400.0, 40.0), [500.0],
                        reserve=50.0, regcap=20.0, mileage=35.0)
    layout = LlLayout(scn)
    lp = lp_at(layout, 0, (1, 1, 1, 1))
    # 4 schedule variables per generator plus 5 storage variables
    assert lp.n_cols == 4 * 5 + 5
    # 6 rows per generator, 6 storage rows, 4 system rows
    assert lp.n_rows == 6 * 5 + 6 + 4
    assert layout.row_names[-1] == "balance"


def test_layout_names_a_short_bid_list():
    # a bid list without one bid per generator leaves no clearing LP: the
    # layout, and a clear through it, name the violation
    scn = harness.desk_scenario()
    first = scn.intervals[0]
    short = dataclasses.replace(scn, intervals=(
        dataclasses.replace(first, gen_energy_bids=first.gen_energy_bids[:1]),)
        + scn.intervals[1:])
    want = re.escape("interval 0: energy bid count 1 != 3 generators") + "$"
    with pytest.raises(ValueError, match="^" + want):
        LlLayout(short)


def test_zero_bids_pin_storage_awards():
    scn = make_scenario([GEN_A, GEN_B], SMALL_BESS, [150.0])
    lay = LlLayout(scn)
    # solve the full LP directly: award caps at zero force all storage
    # variables to zero, including mileage through its floor/cap pair
    out = solve_one(lp_at(lay, 0, ZERO_BIDS))
    assert out.status == "optimal"
    x = out.x[0]
    for col in (lay.col_bs, lay.col_bd, lay.col_brs, lay.col_brgc, lay.col_brgm):
        assert abs(x[col]) <= 1e-9


def test_single_generator_serves_load():
    scn = make_scenario([GEN_A], SMALL_BESS, [80.0])
    layout = LlLayout(scn)
    x = clear_one(layout, 0).x[0]
    assert x[layout.col_gen(0, 0)] == pytest.approx(80.0, abs=1e-9)
    assert x[layout.col_gen(0, 1)] == pytest.approx(0.0, abs=1e-9)
    assert x[layout.col_gen(0, 2)] == pytest.approx(0.0, abs=1e-9)


def test_two_generator_marginal_price():
    scn = make_scenario([GEN_A, GEN_B], SMALL_BESS, [150.0])
    layout = LlLayout(scn)
    res = clear_one(layout, 0)
    np.testing.assert_allclose(res.x[0, :layout.col_bs:LlLayout.GEN_COLS], [100.0, 50.0],
                               atol=1e-9)
    # generator b is the unique marginal unit
    assert layout.prices_from(0, res.row_duals[0])[0] == pytest.approx(20.0, abs=1e-9)
    dt = 0.25
    assert res.objective[0] == pytest.approx((10 * 100 + 20 * 50) * dt, rel=1e-12)


def test_zero_load_zero_requirements():
    scn = make_scenario([GEN_A], SMALL_BESS, [0.0])
    layout = LlLayout(scn)
    res = clear_one(layout, 0)
    assert res.objective[0] == pytest.approx(0.0, abs=1e-12)
    assert res.x[0, layout.col_gen(0, 0)] == pytest.approx(0.0, abs=1e-12)


def test_mileage_multiplier_slack():
    # ample multipliers: the mileage cap never binds, awards sit between the
    # capacity floor and the requirement row
    scn = make_scenario([GEN_A, GEN_B], SMALL_BESS, [150.0],
                        reserve=15.0, regcap=6.0, mileage=10.5, ancillary_ratio=0.1)
    layout = LlLayout(scn)
    _, _, p_grgc, p_grgm = clear_one(layout, 0).x[0, :layout.col_bs].reshape(-1, 4).T
    # mileage is costly, so the requirement row pins the aggregate award and
    # the multiplier cap keeps plenty of slack in aggregate; per-unit splits
    # between the floor and cap are solver-resolved and not asserted
    assert p_grgm.sum() == pytest.approx(10.5, abs=1e-9)
    for j in range(2):
        assert p_grgc[j] - 1e-9 <= p_grgm[j] <= 10.0 * p_grgc[j] + 1e-9
    assert 10.0 * p_grgc.sum() - p_grgm.sum() >= 40.0


def test_balance_and_requirements_exact():
    scn = make_scenario([GEN_A, GEN_B], SMALL_BESS, [120.0, 150.0],
                        reserve=12.0, regcap=5.0, mileage=8.75, ancillary_ratio=0.15)
    bids = np.array([(2.0, 0.0, 1.0, 1.0), (0.0, 3.0, 2.0, 0.5)])
    layout = LlLayout(scn)
    batch = clear_batch(layout, np.arange(2), bids)
    for t, (sell, buy, _, _) in enumerate(bids.tolist()):
        p_gs, p_grs, p_grgc, p_grgm = batch.x[t, :layout.col_bs].reshape(-1, 4).T
        p_bs, p_bd, p_brs, p_brgc, p_brgm = batch.x[t, layout.col_bs:]
        balance = p_gs.sum() + p_bs - p_bd
        assert abs(balance - scn.intervals[t].load) <= 1e-9
        assert p_grs.sum() + p_brs >= 12.0 - 1e-9
        assert p_grgc.sum() + p_brgc >= 5.0 - 1e-9
        assert p_grgm.sum() + p_brgm >= 8.75 - 1e-9
        assert p_bs <= sell + 1e-9 and p_bd <= buy + 1e-9
        assert batch.duality_gap_rel[t] <= 1e-6
        assert batch.cs_residual[t] <= 1e-7


def test_degenerate_tie_objective_only():
    twin_a = GeneratorParams("ta", 10.0, 80.0, 10.0, 5.0)
    twin_b = GeneratorParams("tb", 10.0, 80.0, 10.0, 5.0)
    scn = make_scenario([twin_a, twin_b], SMALL_BESS, [100.0])
    layout = LlLayout(scn)
    res = clear_one(layout, 0)
    # the split between the twins is ambiguous; the cost is not
    assert res.objective[0] == pytest.approx(10.0 * 100.0 * 0.25, rel=1e-12)
    assert res.x[0, :layout.col_bs:LlLayout.GEN_COLS].sum() == pytest.approx(100.0, abs=1e-9)
    assert res.duality_gap_rel[0] <= 1e-6


def test_zero_bid_neutrality_exact():
    scn = make_scenario([GEN_A, GEN_B], SMALL_BESS, [110.0, 150.0],
                        reserve=10.0, regcap=4.0, mileage=7.0, ancillary_ratio=0.2)
    layout = LlLayout(scn)
    with_bess = clear_batch(layout, np.arange(2), np.zeros((2, 4)))
    prices = [layout.prices_from(t, with_bess.row_duals[t]).tolist() for t in range(2)]
    assert [layout.prices_from(t, clear_one(layout, t).row_duals[0]).tolist()
            for t in range(2)] == prices
    for t in range(2):
        out = solve_one(drop_storage(layout, t)[0])
        # back in layout rows, where the six storage rows precede the four system rows
        without = layout.prices_from(t, np.insert(out.row_duals[0], -4, np.zeros(6))).tolist()
        assert prices[t] == without
        assert with_bess.objective[t] == out.objective[0]


def test_storage_free_lp_drops_storage_by_name():
    scn = make_scenario([GEN_A, GEN_B], SMALL_BESS, [110.0, 150.0],
                        reserve=10.0, regcap=4.0, mileage=7.0, ancillary_ratio=0.2)
    layout = LlLayout(scn)
    for t in range(scn.n_intervals):
        free, rows = layout.storage_free_lp(t)
        want, want_rows = drop_storage(layout, t)
        for field in ("c", "senses", "rhs", "lower"):
            assert getattr(free, field).tobytes() == getattr(want, field).tobytes(), field
        assert (free.a.tocsr() != want.a.tocsr()).nnz == 0 and free.a.shape == want.a.shape
        assert rows.tolist() == want_rows


def test_zero_requirement_prices_are_unsigned_zero():
    # a zero reserve or mileage requirement clears at a price of 0.0 with the
    # sign bit clear, so no -0.0 price reaches the CLI; in problem row order
    # HiGHS would return these zero '>'-row duals as -0.0
    scn = harness.desk_scenario()
    scn = dataclasses.replace(scn, intervals=tuple(
        dataclasses.replace(iv, reserve_req=0.0, mileage_req=0.0) if iv.index % 2 == 0 else iv
        for iv in scn.intervals))
    n = scn.n_intervals
    layout = LlLayout(scn)
    for bids in (np.zeros((n, 4)), np.tile([1.0, 0.0, 2.0, 1.5], (n, 1))):
        batch = clear_batch(layout, np.arange(n), bids)
        p = layout.prices_from(batch.t, batch.row_duals)
        assert p[1, 1] > 0.0
        for t in range(0, n, 2):
            zeros = p[t, [1, 3]]   # reserve and mileage
            assert np.array_equal(zeros, [0.0, 0.0]) and not np.signbit(zeros).any(), t


def test_horizon_matches_joint_lp():
    scn = make_scenario([GEN_A, GEN_B], SMALL_BESS, [100.0, 130.0, 150.0],
                        reserve=10.0, regcap=4.0, mileage=7.0, ancillary_ratio=0.1)
    bids = np.tile([1.0, 0.0, 0.5, 0.5], (3, 1))
    batch = clear_batch(LlLayout(scn), np.arange(3), bids)
    split_total = sum(batch.objective.tolist())

    # the same three intervals stacked into one block-diagonal LP
    lps = [lp_at(LlLayout(scn), t, bids[t]) for t in range(3)]
    joint = solver.LpProblem(
        c=np.concatenate([p.c for p in lps]),
        a=as_csr(sp.block_diag([p.a.tocsr() for p in lps])),
        senses=np.concatenate([p.senses for p in lps]),
        rhs=np.concatenate([p.rhs for p in lps]),
        lower=np.concatenate([p.lower for p in lps]),
    )
    out = solve_one(joint)
    assert out.status == "optimal"
    assert split_total == pytest.approx(out.objective[0], rel=1e-6)


def test_single_interval_horizon_equals_interval():
    # a horizon of one interval, one t per row, clears as that interval alone
    scn = make_scenario([GEN_A, GEN_B], SMALL_BESS, [140.0])
    bids = np.array([(1.5, 0.0, 0.0, 0.0)])
    layout = LlLayout(scn)
    horizon = clear_batch(layout, np.arange(scn.n_intervals), bids)
    single = clear_one(LlLayout(scn), 0, bids[0])
    assert len(horizon.t) == 1
    assert horizon.objective[0] == single.objective[0]
    assert (layout.prices_from(0, horizon.row_duals[0]).tolist()
            == layout.prices_from(0, single.row_duals[0]).tolist())


def test_delta_t_scaling_leaves_prices_unchanged():
    narrow = make_scenario([GEN_A, GEN_B], SMALL_BESS, [150.0], delta_t=0.25)
    wide = make_scenario([GEN_A, GEN_B], SMALL_BESS, [150.0], delta_t=0.5)
    ln, lw = LlLayout(narrow), LlLayout(wide)
    rn, rw = clear_one(ln, 0), clear_one(lw, 0)
    assert ln.prices_from(0, rn.row_duals[0])[0] == pytest.approx(
        lw.prices_from(0, rw.row_duals[0])[0], abs=1e-9)
    assert rw.objective[0] == pytest.approx(2 * rn.objective[0], rel=1e-12)


def test_infeasible_requirements_name_interval():
    scn = make_scenario([GEN_A], SMALL_BESS, [90.0, 90.0], reserve=50.0)
    with pytest.raises(InfeasibleMarketError, match="interval 0"):
        _passive_clear(scn)


def test_partial_award_against_bid_caps():
    # storage undercuts by bidding zero prices; awards never exceed bids
    scn = make_scenario([GEN_A, GEN_B], SMALL_BESS, [150.0],
                        reserve=10.0, regcap=4.0, mileage=7.0, ancillary_ratio=0.1)
    layout = LlLayout(scn)
    x = clear_one(layout, 0, (3.0, 0.0, 2.0, 1.0)).x[0]
    p_bs, _, p_brs, p_brgc, p_brgm = x[layout.col_bs:]
    assert p_bs <= 3.0 + 1e-9
    assert p_brs <= 2.0 + 1e-9
    assert p_brgc <= 1.0 + 1e-9
    assert p_brgm <= 10.0 * p_brgc + 1e-9
    assert p_brgm >= p_brgc - 1e-9


def test_negative_bid_rejected():
    scn = make_scenario([GEN_A], SMALL_BESS, [50.0])
    with pytest.raises(ValueError, match=r"^interval 0: bids must be >= 0, got sell -1.0 buy "
                                         r"0.0 reserve 0.0 regcap 0.0 in row 0$"):
        clear_batch(LlLayout(scn), 0, np.array([[-1.0, 0.0, 0.0, 0.0]]))


@pytest.mark.parametrize("t, bids, message", [
    (-1, [[0.0] * 4], r"t must lie in \[0, 24\), got -1"),
    (24, [[0.0] * 4], r"t must lie in \[0, 24\), got 24"),
    ([0, 3, 30, -2], [[0.0] * 4] * 4, r"t must lie in \[0, 24\), got 30"),
    (1.7, [[0.0] * 4], r"t must hold integer intervals, got dtype float64"),
    ([True], [[0.0] * 4], r"t must hold integer intervals, got dtype bool"),
    ([0, 1], [[0.0] * 4] * 3, r"t must hold one interval or one per row of bids \(3\), "
                              r"got shape \(2,\)"),
    ([[0]], [[0.0] * 4], r"t must hold one interval or one per row of bids \(1\), "
                         r"got shape \(1, 1\)"),
    (0, [0.0] * 4, r"bids must be a \(k, 4\) array .*, got shape \(4,\)"),
    (0, [[0.0] * 3], r"bids must be a \(k, 4\) array .*, got shape \(1, 3\)"),
    (0, np.zeros((0, 4)), r"a clear needs at least one row of bids"),
])
def test_clear_batch_refuses_malformed_rows(monkeypatch, t, bids, message):
    # each is refused before any model is built
    def no_model(self, problem):
        raise AssertionError("a model was built")

    layout = LlLayout(harness.desk_scenario())
    monkeypatch.setattr(solver.LpModel, "__init__", no_model)
    with pytest.raises(ValueError, match=f"^{message}$"):
        clear_batch(layout, t, bids)


def test_backend_failure_names_interval(monkeypatch):
    def fail(self, **options):
        raise solver.SolverError("LP backend failure: forced")

    monkeypatch.setattr(solver.LpModel, "_run", fail)
    scn = make_scenario([GEN_A], SMALL_BESS, [50.0])
    with pytest.raises(ClearingError, match=r"^interval 0: LP backend failure"):
        _passive_clear(scn)


def row_dict_layout(scn, t):
    """The clearing LP's arrays as ``LlLayout`` built them before its closed
    form: per-row coefficient dicts, stacked through a COO matrix."""
    it = scn.intervals[t]
    gens = scn.generators
    g_n = len(gens)
    n_cols = 4 * g_n + 5
    dt = it.delta_t
    c = np.zeros(n_cols)
    lower = np.full(n_cols, -np.inf)
    col_names = []
    for j, g in enumerate(gens):
        base = 4 * j
        c[base + 0] = dt * it.gen_energy_bids[j]
        c[base + 1] = dt * it.gen_reserve_bids[j]
        c[base + 2] = dt * it.gen_regcap_bids[j]
        c[base + 3] = dt * it.gen_mileage_bids[j]
        lower[base + 1] = 0.0
        lower[base + 2] = 0.0
        col_names += [f"gs:{g.gen_id}", f"grs:{g.gen_id}", f"grgc:{g.gen_id}", f"grgm:{g.gen_id}"]
    beta = it.bess_price_bids
    b0 = 4 * g_n
    c[b0:] = (dt * beta.sell, -dt * beta.buy, dt * beta.reserve, dt * beta.regcap,
              dt * beta.mileage)
    lower[b0:b0 + 4] = 0.0
    col_names += ["bs", "bd", "brs", "brgc", "brgm"]

    rows = []
    for j, g in enumerate(gens):
        gs, grs, grgc, grgm = (4 * j + k for k in range(4))
        gid = g.gen_id
        rows.append(({gs: 1.0, grgc: -1.0}, ">", g.p_min, f"gen_floor:{gid}"))
        rows.append(({gs: 1.0, grs: 1.0, grgc: 1.0}, "<", g.p_max, f"gen_cap:{gid}"))
        rows.append(({grs: 1.0}, "<", g.reserve_ramp, f"rs_ramp:{gid}"))
        rows.append(({grgc: 1.0}, "<", g.regulation_ramp, f"rg_ramp:{gid}"))
        rows.append(({grgm: 1.0, grgc: -1.0}, ">", 0.0, f"mil_floor:{gid}"))
        rows.append(({grgm: 1.0, grgc: -g.mileage_multiplier}, "<", 0.0, f"mil_cap:{gid}"))
    bs, bd, brs, brgc, brgm = range(b0, b0 + 5)
    mult = scn.bess.mileage_multiplier
    rows.append(({bs: 1.0}, "<", 0.0, "bid_cap:sell"))
    rows.append(({bd: 1.0}, "<", 0.0, "bid_cap:buy"))
    rows.append(({brs: 1.0}, "<", 0.0, "bid_cap:reserve"))
    rows.append(({brgc: 1.0}, "<", 0.0, "bid_cap:regcap"))
    rows.append(({brgm: 1.0, brgc: -1.0}, ">", 0.0, "mil_floor:bess"))
    rows.append(({brgm: 1.0, brgc: -mult}, "<", 0.0, "mil_cap:bess"))
    reserve_row = {4 * j + 1: 1.0 for j in range(g_n)}
    regcap_row = {4 * j + 2: 1.0 for j in range(g_n)}
    mileage_row = {4 * j + 3: 1.0 for j in range(g_n)}
    balance_row = {4 * j + 0: 1.0 for j in range(g_n)}
    reserve_row[brs] = 1.0
    regcap_row[brgc] = 1.0
    mileage_row[brgm] = 1.0
    balance_row[bs] = 1.0
    balance_row[bd] = -1.0
    rows.append((reserve_row, ">", it.reserve_req, "req:reserve"))
    rows.append((regcap_row, ">", it.regcap_req, "req:regcap"))
    rows.append((mileage_row, ">", it.mileage_req, "req:mileage"))
    rows.append((balance_row, "=", it.load, "balance"))

    data, ri, ci = [], [], []
    for i, (coeffs, _, _, _) in enumerate(rows):
        for col, val in coeffs.items():
            ri.append(i)
            ci.append(col)
            data.append(val)
    return {
        "a": sp.coo_matrix((data, (ri, ci)), shape=(len(rows), n_cols)).tocsr(),
        "c": c, "lower": lower,
        "senses": np.array([r[1] for r in rows]),
        "rhs_base": np.array([float(r[2]) for r in rows]),
        "row_names": [r[3] for r in rows], "col_names": col_names,
    }


def _same_array(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


P_MIN_GENS = [dataclasses.replace(GEN_A, p_min=20.0),
              GeneratorParams("c", 15.0, 60.0, 12.0, 6.0, p_min=5.0, mileage_multiplier=3.5)]
LAYOUT_SYSTEMS = {
    "desk": harness.desk_scenario,
    "reference": harness.reference_scenario,
    "one-generator": lambda: make_scenario([GEN_A], SMALL_BESS, [50.0, 80.0], reserve=4.0,
                                           regcap=2.0, mileage=3.0, ancillary_ratio=0.1),
    "p_min": lambda: make_scenario(P_MIN_GENS,
                                   dataclasses.replace(SMALL_BESS, mileage_multiplier=2.5),
                                   [60.0, 120.0], reserve=5.0, regcap=3.0, mileage=4.0,
                                   ancillary_ratio=0.2),
}


@pytest.mark.parametrize("system", list(LAYOUT_SYSTEMS))
def test_closed_form_layout_matches_row_dict_builder(system):
    scn = LAYOUT_SYSTEMS[system]()
    layout = LlLayout(scn)
    assert layout.c.shape == (scn.n_intervals, layout.n_cols)
    assert layout.rhs_base.shape == (scn.n_intervals, layout.n_rows)
    for t in range(scn.n_intervals):
        want = row_dict_layout(scn, t)
        for field in ("indptr", "indices", "data"):
            assert _same_array(getattr(layout.a, field), getattr(want["a"], field)), (t, field)
        assert layout.a.shape == want["a"].shape
        for field in ("lower", "senses"):
            assert _same_array(getattr(layout, field), want[field]), (t, field)
        for field in ("c", "rhs_base"):   # the interval's row
            assert _same_array(getattr(layout, field)[t], want[field]), (t, field)
        assert layout.delta_t[t] == scn.intervals[t].delta_t
        assert (layout.row_names, layout.col_names) == (want["row_names"], want["col_names"])

        # the storage-free sub-LP equals scipy's slicing of the same arrays
        free, rows = layout.storage_free_lp(t)
        n = 4 * layout.n_gens
        sliced = want["a"][rows][:, :n]
        for field in ("indptr", "indices", "data"):
            assert _same_array(getattr(free.a, field), getattr(sliced, field)), (t, field)
        assert free.a.shape == sliced.shape
        for got, ref in ((free.c, want["c"][:n]), (free.lower, want["lower"][:n]),
                         (free.senses, want["senses"][rows]), (free.rhs, want["rhs_base"][rows])):
            assert _same_array(got, ref), t


def clear_digest(batches) -> str:
    """sha256 over every row of each ClearingBatch, bit for bit: its
    schedule, row and lower duals, then its objective, prices, duality gap
    and complementary-slackness residual."""
    h = hashlib.sha256()
    for b in batches:
        p = b.layout.prices_from(b.t, b.row_duals)
        for i in range(len(b.t)):
            for arr in (b.x[i], b.row_duals[i], b.lower_duals[i]):
                h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
            h.update(np.array([b.objective[i], *p[i], b.duality_gap_rel[i],
                               b.cs_residual[i]]).tobytes())
    return h.hexdigest()


def _grid_clears(scn, intervals, step):
    """One one-row clear per grid point of each interval."""
    layout = LlLayout(scn)
    return [clear_one(layout, t, b) for t in intervals for b in harness._interval_grid(scn, step)]


def _zero_requirement_clears():
    # the desk case of test_zero_requirement_prices_are_unsigned_zero
    scn = harness.desk_scenario()
    scn = dataclasses.replace(scn, intervals=tuple(
        dataclasses.replace(iv, reserve_req=0.0, mileage_req=0.0) if iv.index % 2 == 0 else iv
        for iv in scn.intervals))
    n = scn.n_intervals
    bids = np.tile([1.0, 0.0, 2.0, 1.5], (n, 1))
    return [_passive_clear(scn), clear_batch(LlLayout(scn), np.arange(n), bids)]


# the clears and their digests, taken before each clear's checks shared one
# row activity and the layout was built in closed form
PINNED_CLEARS = {
    "acceptance-1 step 2.5": (
        lambda: _grid_clears(small_instance(), range(2), 2.5),
        "b483d40391c30f1272eeedfb272d466a39990c40411dc391bf140320177a5401"),
    "desk t0-3 step 2.5": (
        lambda: _grid_clears(harness.desk_scenario(), range(4), 2.5),
        "5466cbc453cbebdbece371fea46c78a95a498da69c680936c117b1e60beebf48"),
    "reference passive": (
        lambda: [_passive_clear(harness.reference_scenario())],
        "a0ba6565ee882f6ce47e210c3e7b0cae4fe9083925e3cc5ffa6f162bdf806b5a"),
    "desk zero requirements": (
        _zero_requirement_clears,
        "a8451b29f93538ddf4d664decf24f9e1d9b68eb72c47814771f40c633cd66a6b"),
}


@pytest.mark.parametrize("name", list(PINNED_CLEARS))
def test_clears_match_pinned_digests(name):
    clears, digest = PINNED_CLEARS[name]
    assert clear_digest(clears()) == digest


CONTRACT_SCN = make_scenario([GEN_A, GEN_B], SMALL_BESS, [150.0], reserve=10.0, regcap=4.0,
                             mileage=7.0, ancillary_ratio=0.1)
CONTRACT_BIDS = (3.0, 0.0, 2.0, 1.0)


@pytest.mark.parametrize("name", ["FEASIBILITY_TOL", "DUALITY_GAP_TOL"])
def test_lp_contract_checks_run_on_every_solve(monkeypatch, name):
    # a tolerance below zero fails any solve, so each check must raise
    monkeypatch.setattr(solver, name, -1.0)
    lp = lp_at(LlLayout(CONTRACT_SCN), 0, CONTRACT_BIDS)
    with pytest.raises(solver.SolverError, match="numeric contracts"):
        solve_one(lp)
    for bids in (CONTRACT_BIDS, ZERO_BIDS):
        with pytest.raises(ClearingError, match="numeric contracts"):
            clear_one(LlLayout(CONTRACT_SCN), 0, bids)


@pytest.mark.parametrize("name, message", [
    ("CS_TOL", "complementary slackness residual"),
])
def test_clear_contract_checks_run_on_every_clear(monkeypatch, name, message):
    monkeypatch.setattr(clearing, name, -1.0)
    for bids in (CONTRACT_BIDS, ZERO_BIDS):
        with pytest.raises(ClearingError, match=f"^interval 0: {message}"):
            clear_one(LlLayout(CONTRACT_SCN), 0, bids)


def test_zero_bid_stationarity_check_runs(monkeypatch):
    monkeypatch.setattr(clearing, "STATIONARITY_TOL", -1.0)
    with pytest.raises(ClearingError, match="^interval 0: reconstructed storage duals violate"):
        clear_one(LlLayout(CONTRACT_SCN), 0, ZERO_BIDS)
    # a nonzero-bid clear rebuilds no duals
    clear_one(LlLayout(CONTRACT_SCN), 0, CONTRACT_BIDS)


def _row_bytes(batch, i: int) -> bytes:
    """Every field of row ``i`` of a ClearingBatch, and its prices, bit for bit."""
    t = int(batch.t[i])
    p = batch.layout.prices_from(t, batch.row_duals[i])
    return b"".join((
        np.array([t]).tobytes(), batch.x[i].tobytes(),
        np.array([*p, batch.objective[i], batch.duality_gap_rel[i],
                  batch.cs_residual[i]]).tobytes(),
        batch.row_duals[i].tobytes(), batch.lower_duals[i].tobytes()))


BATCH_GRIDS = {
    "acceptance-1 step 2.5": (small_instance, range(2)),
    "desk t0-3 step 2.5": (harness.desk_scenario, range(4)),
}


@pytest.mark.parametrize("name", list(BATCH_GRIDS))
def test_batch_clears_equal_one_at_a_time(name):
    # each interval's whole grid, zero bid included, in one clear_batch call
    build, intervals = BATCH_GRIDS[name]
    scn = build()
    batched = []
    layout = LlLayout(scn)
    for t in intervals:
        grid = harness._interval_grid(scn, 2.5)
        batch = clear_batch(layout, t, grid)
        for i, bids in enumerate(grid):
            assert _row_bytes(batch, i) == _row_bytes(clear_one(layout, t, bids), 0)
        batched.append(batch)
    assert clear_digest(batched) == PINNED_CLEARS[name][1]


def test_batch_zero_rows_after_a_nonzero_run_equal_one_at_a_time():
    # every grid's only zero row comes first; here zero rows follow a nonzero
    # run, mid-batch and last, so the batch splits into runs around them
    scn = harness.desk_scenario()
    grid = harness._interval_grid(scn, 2.5)
    bids = np.array([grid[1], ZERO_BIDS, grid[112], grid[-1], ZERO_BIDS])
    layout = LlLayout(scn)
    for t in range(scn.n_intervals):
        batch = clear_batch(layout, t, bids)
        for i, b in enumerate(bids):
            assert _row_bytes(batch, i) == _row_bytes(clear_one(layout, t, b), 0), (t, i)


# (module, tolerance, per-row value it bounds, tolerance scale, pattern of
# the message that names a failing row's value)
LATER_ROW_CHECKS = {
    "complementary slackness": (
        clearing, "CS_TOL", "cs_residual", 1.0,
        lambda v: re.escape(f"complementary slackness residual {v:.3e}") + "$"),
    "lp duality gap": (
        solver, "DUALITY_GAP_TOL", "duality_gap_rel", 1.0,
        lambda v: "optimal solve violated numeric contracts: .*" + re.escape(f"gap={v:.3e}") + "$"),
    "lp feasibility": (
        solver, "FEASIBILITY_TOL", "feasibility_residual", 10.0,
        lambda v: "optimal solve violated numeric contracts: " + re.escape(f"residual={v:.3e},")),
}


@pytest.mark.parametrize("name", list(LATER_ROW_CHECKS))
def test_batch_raises_for_its_first_failing_row(monkeypatch, name):
    # a tolerance just below the largest value of a batch whose first row
    # passes: the batch must raise, naming the first row that fails
    module, tol, field, scale, pattern = LATER_ROW_CHECKS[name]
    scn = harness.desk_scenario()
    grid = harness._interval_grid(scn, 2.5)[1:]   # no zero bid
    layout = LlLayout(scn)
    for t in range(scn.n_intervals):
        model = solver.LpModel(layout.build_lp(t))
        values = getattr(model.solve_batch(layout.rhs_for(t, grid),
                                           np.tile(layout.c[t], (len(grid), 1))), field)
        j = int(np.argmax(values))
        if j > 0 and values[j] > 0:
            break
    else:
        pytest.fail(f"no desk interval has its largest {field} on a later row")
    threshold = (values[j] + values[values < values[j]].max(initial=0.0)) / 2
    monkeypatch.setattr(module, tol, threshold / scale)
    with pytest.raises(ClearingError, match=f"^interval {t}: {pattern(values[j])}"):
        clear_batch(layout, t, grid)
    # the rows before it clear
    clear_batch(layout, t, grid[:j])


HORIZON_SYSTEMS = {"desk": harness.desk_scenario, "reference": harness.reference_scenario}


def _fixed_desk_bids(n):
    """One nonzero bid per interval, taken from the desk system's step-2.5 grid."""
    grid = harness._interval_grid(harness.desk_scenario(), 2.5)
    return grid[1 + (7 * np.arange(n)) % (len(grid) - 1)]


@pytest.mark.parametrize("passive", [True, False], ids=["passive", "desk bids"])
@pytest.mark.parametrize("system", list(HORIZON_SYSTEMS))
def test_horizon_batch_equals_one_model_per_interval(system, passive):
    # one horizon batch moves its two models from interval to interval; each
    # interval must clear to the bits a model built for it alone gives, in
    # forward and in reverse interval order
    scn = HORIZON_SYSTEMS[system]()
    n = scn.n_intervals
    bids = np.zeros((n, 4)) if passive else _fixed_desk_bids(n)
    horizon = clear_batch(LlLayout(scn), np.arange(n), bids)
    layout = LlLayout(scn)
    backward = clear_batch(layout, np.arange(n)[::-1], bids[::-1])
    for t in range(n):
        assert _row_bytes(horizon, t) == _row_bytes(clear_one(layout, t, bids[t]), 0), t
        assert _row_bytes(backward, n - 1 - t) == _row_bytes(horizon, t), t
        # and the solve itself, against a fresh model of the interval
        if passive:
            free, rows = layout.storage_free_lp(t)
            fresh = solve_one(free)
            cols = slice(len(free.c))
        else:
            fresh = solve_one(lp_at(layout, t, bids[t]))
            rows = cols = slice(None)
        assert (horizon.x[t, cols].tobytes(), horizon.row_duals[t, rows].tobytes(),
                horizon.lower_duals[t, cols].tobytes(), horizon.objective[t].hex()) == (
            fresh.x[0].tobytes(), fresh.row_duals[0].tobytes(), fresh.lower_duals[0].tobytes(),
            fresh.objective[0].hex()), t


INFEASIBLE_AT_1_AND_3 = make_scenario([GEN_A], SMALL_BESS, [50.0, 500.0, 60.0, 500.0])
BID = (1.0, 0.0, 2.0, 0.0)


@pytest.mark.parametrize("rows, error", [
    # the bid group's second row fails before the zero group's first failure
    ([(0, BID), (2, ZERO_BIDS), (3, BID), (1, ZERO_BIDS)], "interval 3: clearing infeasible"),
    # the zero group's second row fails before the bid group's
    ([(2, ZERO_BIDS), (1, ZERO_BIDS), (3, BID)], "interval 1: clearing infeasible"),
    ([(0, BID), (0, ZERO_BIDS), (2, BID), (3, ZERO_BIDS), (1, BID)],
     "interval 3: clearing infeasible"),
    # a negative bid raises before any solve, whatever rows fail before it
    ([(1, ZERO_BIDS), (3, BID), (2, (0.0, -1.0, 0.0, 0.0))], "interval 2: bids must be >= 0"),
])
def test_mixed_batch_raises_its_first_failing_row(rows, error):
    # intervals 1 and 3 need more than the fleet gives, with storage or without
    t = [i for i, _ in rows]
    bids = np.array([b for _, b in rows])
    with pytest.raises((ClearingError, ValueError), match=f"^{error}"):
        clear_batch(LlLayout(INFEASIBLE_AT_1_AND_3), t, bids)


def test_mixed_batch_orders_failures_of_either_kind(monkeypatch):
    # every zero-bid row fails its stationarity check; the first failing row
    # wins, whether its failure is a status or a check
    monkeypatch.setattr(clearing, "STATIONARITY_TOL", -1.0)
    for rows, error in [
        ([(0, BID), (3, BID), (2, ZERO_BIDS)], "interval 3: clearing infeasible"),
        ([(0, BID), (2, ZERO_BIDS), (3, BID)],
         "interval 2: reconstructed storage duals violate stationarity"),
    ]:
        with pytest.raises(ClearingError, match=f"^{error}"):
            clear_batch(LlLayout(INFEASIBLE_AT_1_AND_3), [i for i, _ in rows],
                        np.array([b for _, b in rows]))


def test_a_batch_builds_at_most_one_model_of_each_kind(monkeypatch):
    # a horizon or an oracle chunk builds one clearing model and one
    # storage-free model at most, however many intervals it spans
    built = []
    init = solver.LpModel.__init__

    def counting(self, problem):
        built.append("full" if problem.n_cols % LlLayout.GEN_COLS else "free")
        init(self, problem)

    monkeypatch.setattr(solver.LpModel, "__init__", counting)

    def models(clear):
        built.clear()
        clear()
        return sorted(built)

    scn = harness.reference_scenario()
    n = scn.n_intervals
    bids = _fixed_desk_bids(n)
    mixed = bids.copy()
    mixed[::3] = 0.0
    layout = LlLayout(scn)
    for horizon, want in ((np.zeros((n, 4)), ["free"]), (bids, ["full"]),
                          (mixed, ["free", "full"])):
        assert models(lambda: clear_batch(layout, np.arange(n), horizon)) == want

    acceptance = small_instance()
    grid = harness._interval_grid(acceptance, 0.5)
    n = len(grid)
    for start, stop in ((0, 2 * n), (n // 2, n + n // 2), (n + 1, 2 * n)):
        assert models(lambda: harness._clear_chunk(acceptance, grid, start, stop)) == (
            ["free", "full"] if start <= n else ["full"]), (start, stop)
