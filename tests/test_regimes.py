"""The clearing regime cover and the bidding MILP over it: the cover's
certificate against the clearing cost, the solve run_case publishes
against the paper's big-M MILP, and the named errors of a cover that
cannot certify."""

import dataclasses
import hashlib
import logging

import numpy as np
import pytest

from bessbid import bilevel, clearing, harness, solver
from bessbid.scenario import MarketMask

from conftest import acceptance_instance, floored_desk
from test_acceptance import _mps_instances

EXACT = harness.SolverSettings(gap_tol=1e-9)


def desk_case(case):
    return harness.desk_scenario().with_mask(MarketMask.from_case(case))


@dataclasses.dataclass
class CoverRun:
    """A cover, the LP rows its clears solved through
    :meth:`solver.LpModel.solve_batch`, the fresh pieces each vertex search
    started from, and the vertices an earlier basis certified without a
    clear: their interval, bids, certified cost and envelope value."""

    cover: clearing.RegimeCover
    rows: int
    fresh: list[int]
    t: np.ndarray
    bids: np.ndarray
    cost: np.ndarray
    value: np.ndarray


def run_cover(scn) -> CoverRun:
    rows, fresh, certified = [0], [], []
    solve_batch, vertices, certify = (solver.LpModel.solve_batch, clearing._vertices,
                                      clearing._certified)

    def counted(model, rhs, c=None):
        rows[0] += len(rhs)
        return solve_batch(model, rhs, c)

    def searched(cover, new):
        fresh.append(int(new.sum()))
        return vertices(cover, new)

    def recorded(bases, t, bids, value):
        cost, clear = certify(bases, t, bids, value)
        certified.append((t[~clear], bids[~clear], cost[~clear], value[~clear]))
        return cost, clear

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver.LpModel, "solve_batch", counted)
        mp.setattr(clearing, "_vertices", searched)
        mp.setattr(clearing, "_certified", recorded)
        cover = clearing.regimes(clearing.LlLayout(scn))
    return CoverRun(cover, rows[0], fresh, *(np.concatenate(v) for v in zip(*certified)))


@pytest.fixture(scope="module")
def cover_runs():
    runs = {case: run_cover(desk_case(case)) for case in (1, 2, 3, 4)}
    runs["acceptance 1"] = run_cover(acceptance_instance())
    return runs


@pytest.fixture(scope="module")
def desk_covers(cover_runs):
    return {case: cover_runs[case].cover for case in (1, 2, 3, 4)}


def uncovered(cover):
    """The certificate of ``cover``, checked anew: every vertex of its
    envelope where the clearing cost lies above the envelope, as its
    interval, side and bids, in interval, side and bid order. An interval's
    side without a piece is uncovered at its zero bid. The vertices clear
    in one batch; a certified cover has none."""
    layout = cover.layout
    n_sides = len(cover.sides)
    n_groups = layout.scenario.n_intervals * n_sides
    g, bids, value = clearing._vertices(cover, np.ones(len(cover.t), dtype=bool))
    _, first = np.unique(clearing._keys(g, bids, layout.scenario.bess.power_rate), axis=0,
                         return_index=True)
    g, bids, value = g[first], bids[first], value[first]
    batch, row = clearing._clear_points(layout, n_sides, g, bids)
    above = clearing._above(batch.objective[row], value)
    empty = np.setdiff1d(np.arange(n_groups), cover.group)
    g = np.concatenate((g[above], empty))
    bids = np.concatenate((bids[above], np.zeros((len(empty), 4))))
    order = np.argsort(g, kind="stable")
    return g[order] // n_sides, g[order] % n_sides, bids[order]


def envelope(cover, t, side, bids):
    """The upper envelope of interval ``t``'s pieces on ``side`` of ``cover``
    at each row of a ``(k, 4)`` bid array."""
    mine = (cover.t == t) & (cover.side == side)
    return np.max(cover.level[mine] + bids @ cover.slope[mine].T, axis=1)


def assert_envelope_is_the_clearing_cost(cover, t, grid):
    """On every row of ``grid`` on one of the cover's sides, interval ``t``'s
    envelope on that side is its clearing cost: some held dual is optimal."""
    cost = clearing.clear_batch(cover.layout, t, grid).objective
    for side, free in enumerate(cover.sides):
        on = (grid[:, [k for k in range(4) if k not in free]] == 0.0).all(axis=1)
        assert on.any()
        value = envelope(cover, t, side, grid[on])
        tol = clearing.COVER_TOL * np.maximum(1.0, np.abs(cost[on]))
        assert (np.abs(cost[on] - value) <= tol).all(), (t, side)


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_desk_cover_is_the_clearing_cost_on_a_grid(desk_covers, case):
    cover = desk_covers[case]
    assert all(len(a) == 0 for a in uncovered(cover))
    grid = harness._interval_grid(cover.layout.scenario, 1.0)
    for t in (9, 16):
        assert_envelope_is_the_clearing_cost(cover, t, grid)


def test_acceptance_cover_is_the_clearing_cost_on_the_oracle_grid():
    scn = acceptance_instance()
    cover = clearing.regimes(clearing.LlLayout(scn))
    assert all(len(a) == 0 for a in uncovered(cover))
    grid = harness._interval_grid(scn, 0.5)
    for t in range(scn.n_intervals):
        assert_envelope_is_the_clearing_cost(cover, t, grid)


@pytest.mark.parametrize("case", [3, 4])
def test_deleting_any_held_piece_breaks_the_certificate(case):
    # one desk interval with many regimes, alone in its scenario
    scn = desk_case(case)
    one = dataclasses.replace(scn, intervals=scn.intervals[10:11])
    cover = clearing.regimes(clearing.LlLayout(one))
    assert len(cover.t) > len(cover.sides)
    assert all(len(a) == 0 for a in uncovered(cover))
    for k in range(len(cover.t)):
        t, side, bids = uncovered(cover._select(np.arange(len(cover.t)) != k))
        assert len(t), k
        # only the side that lost the piece is uncovered
        assert (side == cover.side[k]).all(), k


# sha256 of each cover's t, side, level, row_duals and lower_duals bytes, in
# that order, taken while every vertex of the cover was cleared
COVER_DIGESTS = {
    1: "1209a01f2af1a73cb66025b8933786574780e4c6bceb1914b054fa0d0c63a9e4",
    2: "5b6f0c018614db0461424048cacec4d093633e820874241988ed0ac15268d3eb",
    3: "145e10c32b32a47bc8ec7c5e1d74bf3b83a0604e24de552ab4f8f35bd12ad942",
    4: "3e126be9bf762b319cec339c4f263396b29e1ebdb79eb50f7ee78e626b43c7b0",
    "acceptance 1": "add628b25222d1a36f4f52bd804f3fe7e6568d31f6584973301add7e4306943f",
}


@pytest.mark.parametrize("name", list(COVER_DIGESTS))
def test_cover_matches_pinned_digest(cover_runs, name):
    cover = cover_runs[name].cover
    h = hashlib.sha256()
    for field in ("t", "side", "level", "row_duals", "lower_duals"):
        h.update(getattr(cover, field).tobytes())
    assert h.hexdigest() == COVER_DIGESTS[name]


def test_desk_case_4_cover_certifies_most_vertices_without_a_clear(cover_runs):
    # clearing every vertex solved 1204 LP rows; earlier bases certify
    # about half of them
    assert cover_runs[4].rows <= 700


@pytest.mark.parametrize("name", list(COVER_DIGESTS))
def test_cover_searches_vertices_only_from_fresh_pieces(cover_runs, name):
    # a vertex new to the envelope lies on a piece the last round added, so
    # a round that adds none ends the cover without another search
    assert min(cover_runs[name].fresh) > 0


@pytest.mark.parametrize("name", list(COVER_DIGESTS))
def test_certified_vertices_clear_at_their_certified_cost(cover_runs, name):
    run = cover_runs[name]
    assert len(run.t)
    cost = clearing.clear_batch(run.cover.layout, run.t, run.bids).objective
    assert not clearing._above(cost, run.value).any()
    tol = clearing.COVER_TOL * np.maximum(1.0, np.abs(cost))
    assert (np.abs(cost - run.cost) <= tol).all()


def test_cover_is_deterministic(desk_covers):
    again = clearing.regimes(clearing.LlLayout(desk_case(4)))
    cover = desk_covers[4]
    for field in ("t", "side", "level", "row_duals", "lower_duals"):
        assert getattr(again, field).tobytes() == getattr(cover, field).tobytes(), field


@pytest.mark.parametrize("mask, sides", [
    (MarketMask(False, True, True), ((2, 3),)),
    (MarketMask(False, False, False), ((),)),
], ids=["energy off", "every market off"])
def test_masked_covers_certify(mask, sides):
    scn = harness.desk_scenario().with_mask(mask)
    cover = clearing.regimes(clearing.LlLayout(scn))
    assert cover.sides == sides
    assert (cover.side == 0).all()
    if not sides[0]:   # the zero bid alone: its zero-bid clear
        assert cover.t.tolist() == list(range(scn.n_intervals))
    assert all(len(a) == 0 for a in uncovered(cover))


def test_cover_out_of_time_raises():
    with pytest.raises(TimeoutError):
        clearing.regimes(clearing.LlLayout(desk_case(4)), deadline=0.0)


@pytest.mark.parametrize("k", range(21))
def test_regime_solve_reaches_the_big_m_optimum(k):
    # acceptance 1's instance and acceptance 7's twenty, solved to gap 1e-9
    # both ways
    scn = acceptance_instance() if k == 20 else _mps_instances()[k]
    report = harness.run_case(scn, settings=EXACT)
    assert report.verification.passed, report.verification.summary()
    big_m = solver.solve_milp(bilevel.assemble_milp(scn).milp, gap_tol=1e-9)
    assert report.objective >= big_m.objective - 1e-6 * max(1.0, abs(big_m.objective))


def test_terminal_soc_equality_on_desk_case_4():
    scn = desk_case(4)
    report = harness.run_case(scn, settings=harness.SolverSettings(gap_tol=0.01),
                              terminal_soc_equality=True)
    assert report.verification.passed, report.verification.summary()
    assert report.schedule.records[-1].soc == pytest.approx(scn.bess.soc_init, abs=1e-6)


def _published_copy(cover, outcome, t):
    """Interval ``t``'s chosen copy of a solved regime MILP over ``cover``
    (its largest ``lam``), and the copy's maps."""
    maps = bilevel.copy_maps(cover)
    mine = np.flatnonzero(cover.t == t)
    return mine[np.argmax(outcome.x[maps.start[mine]])], maps


def _with_tiny_negative_bid(cover, outcome, sol):
    """The outcome with the first zero bid of the published schedule that is
    a column of its copy carried at -1e-15, and that bid's interval and
    market."""
    for t, market in np.argwhere(sol.bids == 0.0).tolist():
        k, maps = _published_copy(cover, outcome, t)
        if maps.own[maps.pattern[k], market]:
            break
    x = outcome.x.copy()
    x[maps.start[k] + maps.local[maps.pattern[k], market]] = -1e-15
    return dataclasses.replace(outcome, x=x), t, market


@pytest.fixture(scope="module")
def acceptance_solve():
    scn = acceptance_instance()
    cover = clearing.regimes(clearing.LlLayout(scn))
    outcome = solver.solve_milp(bilevel.assemble_regime_milp(cover), gap_tol=1e-9)
    return cover, outcome, bilevel.regime_solution(cover, outcome)


def test_regime_solution_snaps_a_tiny_negative_bid(acceptance_solve):
    cover, outcome, sol = acceptance_solve
    perturbed, t, market = _with_tiny_negative_bid(cover, outcome, sol)
    snapped = bilevel.regime_solution(cover, perturbed)
    name = ("sell", "buy", "reserve", "regcap")[market]
    assert snapped.notes[0] == f"t{t}:{name}_bid -1e-15 snapped to 0.0"
    assert snapped.bids.tobytes() == sol.bids.tobytes()
    report = bilevel.verify_bilevel_solution(snapped)
    assert report.passed, report.summary()
    assert report.notes[0] == snapped.notes[0]


def test_regime_solution_snaps_a_tiny_negative_award(acceptance_solve):
    # the copy's award follows its bid one for one, so the award read
    # through the copy's map lands at -1e-15 too, below its bound 0
    cover, outcome, sol = acceptance_solve
    perturbed, t, market = _with_tiny_negative_bid(cover, outcome, sol)
    k, maps = _published_copy(cover, outcome, t)
    col = cover.layout.col_bs + market
    assert maps.q[maps.pattern[k], col, market] == 1.0
    assert sol.x[t, col] == 0.0
    snapped = bilevel.regime_solution(cover, perturbed)
    name = ("sell", "buy", "reserve", "regcap")[market]
    assert snapped.notes[1:] == [f"t{t}:{name}_award -1e-15 snapped to 0.0"]
    assert snapped.x[t, col] == 0.0 and not np.signbit(snapped.x[t, col])
    report = bilevel.verify_bilevel_solution(snapped)
    assert report.passed, report.summary()
    assert report.notes[:2] == snapped.notes


def full_copy_regime_milp(cover, terminal_soc_equality=False) -> solver.MilpProblem:
    """The regime MILP with every copy a whole clearing LP, the model
    :func:`bilevel.assemble_regime_milp` reduces: the reference it is
    checked against.

    Held dual ``k`` gets ``width = 5 + layout.n_cols`` columns from
    ``k * width`` on: a binary ``lam`` that chooses it, the bids sbid,
    dbid, rsbid, rgbid and the clearing columns. The interval SOCs follow
    the copies. Each copy holds the clearing rows with their right-hand
    sides times its ``lam`` and minus its bids on the bid rows; the rows in
    its dual's support bind, and the columns with a positive reduced cost
    are 0. Its bids on its side's columns are at most ``rate * lam``, the
    others 0, and the power envelope holds on its awards. Each interval
    chooses one copy, the revenue is each copy's prices times its awards,
    and the SOC rows act on the sums of an interval's copies.
    """
    layout = cover.layout
    scn = layout.scenario
    bess = scn.bess
    rate = bess.power_rate
    n_t, nr, nx = scn.n_intervals, layout.n_rows, layout.n_cols
    k = len(cover.t)
    width = 5 + nx
    n_rows = nr + 6   # the clearing rows, the four bid caps, the power envelope
    y = cover.row_duals
    c0 = np.arange(k)[:, None] * width   # each copy's lam column
    x0 = c0 + 5
    r0 = np.arange(k)[:, None] * n_rows

    lower = np.zeros((k, width))
    upper = np.full((k, width), np.inf)
    c = np.zeros((k, width))
    upper[:, :5] = [1.0, rate, rate, rate, rate]
    lower[:, 5:] = layout.lower
    upper[:, 5:] = np.where(cover.lower_duals > 0.0, 0.0, np.inf)
    awards = 5 + layout.col_bs + np.arange(5)
    c[:, awards] = y[:, [layout.row_balance, layout.row_balance, layout.row_reserve_req,
                         layout.row_regcap_req, layout.row_mileage_req]] * [1, -1, 1, 1, 1]
    integrality = np.zeros((k, width), dtype=np.int8)
    integrality[:, 0] = 1

    a = layout.a
    bids = c0 + 1 + np.arange(4)
    caps = np.zeros((k, 4))
    for side, free in enumerate(cover.sides):
        caps[np.ix_(cover.side == side, list(free))] = rate
    bs, bd, brs, brgc = (x0[:, 0] + layout.col_bs + j for j in range(4))
    envelope = np.column_stack([bd, bs, brs, brgc, c0[:, 0]])
    entries = [
        (r0 + a.rows, x0 + a.indices, a.data),
        (r0 + list(layout.bid_rows.values()), bids, -1.0),
        (r0 + np.arange(nr), c0, -layout.rhs_base[cover.t]),
        (r0 + nr + np.arange(4), bids, 1.0),
        (r0 + nr + np.arange(4), c0, -caps),
        (r0 + nr + 4, envelope, [1.0, -1.0, -1.0, -1.0, rate]),
        (r0 + nr + 5, envelope, [1.0, -1.0, -1.0, 1.0, -rate]),
    ]
    binds = (layout.senses == "=") | (y != 0.0)
    senses = np.concatenate([np.where(binds, "=", layout.senses),
                             np.broadcast_to(["<", "<", "<", "<", ">", "<"], (k, 6))], axis=1)

    per = n_rows * k
    soc0 = k * width
    entries.append((per + cover.t, c0[:, 0], 1.0))
    ul = bilevel._soc_rows(scn, [], {
        "soc": (np.arange(n_t), soc0 + np.arange(n_t), np.ones(n_t)),
        **{name: (cover.t, col, np.ones(k))
           for name, col in zip(("bs", "bd", "brs", "brgc"), (bs, bd, brs, brgc))}},
        terminal_soc_equality)
    entries.append((per + n_t + ul.rows, ul.cols, ul.vals))
    rows, cols, vals = (np.concatenate(v) for v in zip(*(
        [v.ravel() for v in np.broadcast_arrays(*e)] for e in entries)))
    keep = vals != 0.0
    matrix = solver.CsrMatrix.from_entries(rows[keep], cols[keep], vals[keep],
                                           (per + n_t + len(ul.rhs), soc0 + n_t))
    milp = solver.MilpProblem(
        c=np.concatenate([c.ravel(), np.zeros(n_t)]), a=matrix,
        senses=np.concatenate([senses.ravel(), np.full(n_t, "="), ul.senses]),
        rhs=np.concatenate([np.zeros(per), np.ones(n_t), ul.rhs]),
        lower=np.concatenate([lower.ravel(), np.full(n_t, bess.soc_min)]),
        upper=np.concatenate([upper.ravel(), np.full(n_t, bess.soc_max)]),
        maximize=True,
        integrality=np.concatenate([integrality.ravel(), np.zeros(n_t, dtype=np.int8)]),
    )
    milp.validate()
    return milp


@pytest.fixture(scope="module")
def reference_case_3_cover():
    scn = harness.reference_scenario(MarketMask.from_case(3))
    return clearing.regimes(clearing.LlLayout(scn))


@pytest.mark.parametrize("name", [1, 2, 3, 4, "acceptance 1", "reference 3"])
def test_reduced_copies_reach_the_full_copy_optimum(cover_runs, reference_case_3_cover, name):
    cover = reference_case_3_cover if name == "reference 3" else cover_runs[name].cover
    outcome = solver.solve_milp(bilevel.assemble_regime_milp(cover), gap_tol=1e-9)
    full = solver.solve_milp(full_copy_regime_milp(cover), gap_tol=1e-9)
    assert outcome.status == full.status == solver.OPTIMAL
    assert abs(outcome.objective - full.objective) <= 1e-9 * abs(full.objective)
    report = bilevel.verify_bilevel_solution(bilevel.regime_solution(cover, outcome))
    assert report.passed, report.summary()
    assert report.revenue_milp == outcome.objective


def test_desk_case_4_reduced_model_is_at_most_half_the_full_copy_model(desk_covers):
    cover = desk_covers[4]
    reduced, full = bilevel.assemble_regime_milp(cover), full_copy_regime_milp(cover)
    assert (full.n_cols, full.n_rows) == (6250, 9718)
    assert 2 * reduced.n_cols <= full.n_cols
    assert 2 * reduced.n_rows <= full.n_rows
    assert reduced.integrality.sum() == full.integrality.sum() == len(cover.t)


def test_degenerate_copies_keep_their_free_columns(desk_covers, caplog):
    # a copy keeps as many clearing columns as its binding rows leave free:
    # the columns without a positive reduced cost less the rank of the
    # binding rows on them
    cover = desk_covers[4]
    layout = cover.layout
    a = layout.a.toarray()
    binds = (layout.senses == "=") | (cover.row_duals != 0.0)
    open_cols = cover.lower_duals <= 0.0
    left_free = np.array([open_cols[k].sum() - np.linalg.matrix_rank(a[binds[k]][:, open_cols[k]])
                          for k in range(len(cover.t))])
    maps = bilevel.copy_maps(cover)
    own_cols = maps.own[maps.pattern, 4:].sum(axis=1)
    assert own_cols.tolist() == left_free.tolist()
    degenerate = int((own_cols > 0).sum())
    assert degenerate >= 1
    with caplog.at_level(logging.INFO, logger="bessbid.bilevel"):
        bilevel.assemble_regime_milp(cover)
    assert f"{len(cover.t)} binaries, {degenerate} copies with a free clearing column" \
        in caplog.text


def refuse_milps(monkeypatch):
    """Make assembling either bidding MILP, or any part of the big-M one, fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("assembled a MILP")

    for name in ("assemble_milp", "interval_blocks", "assemble_regime_milp"):
        monkeypatch.setattr(bilevel, name, refuse)


def test_market_that_needs_the_storage_is_infeasible(monkeypatch):
    # the generator floors exceed every load, so the zero-bid clear that
    # starts the cover is infeasible: every case is refused, with no MILP
    refuse_milps(monkeypatch)
    scn = floored_desk()
    for case in (1, 2, 3, 4):
        with pytest.raises(harness.CaseInfeasibleError,
                           match="^interval 0: clearing infeasible "):
            harness.run_case(scn, mask=MarketMask.from_case(case),
                             settings=harness.SolverSettings(gap_tol=0.01))


def test_held_duals_are_a_solver_failure(monkeypatch):
    # with every uncovered vertex's duals counted as held, the cover cannot
    # certify: run_case raises, naming the interval, and assembles no MILP
    refuse_milps(monkeypatch)
    monkeypatch.setattr(clearing, "HELD_DUAL_TOL", np.inf)
    with pytest.raises(harness.SolverFailedError,
                       match=r"^interval \d+: regime cover not certified "):
        harness.run_case(acceptance_instance(), settings=EXACT)
