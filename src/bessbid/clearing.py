"""Joint per-interval market clearing as an LP with price extraction.

One interval clears energy, spinning reserve, regulation capacity, and
regulation mileage together: generation cost plus storage bid cost is
minimized subject to generator limits, storage award caps, mileage coupling,
system requirements, and the power balance. Market prices are the duals of
the balance and requirement rows.

The row/column layout built here is the single source of truth that the
bilevel reformulation reuses for its KKT blocks, so index bookkeeping lives
in :class:`LlLayout`. Every interval of a scenario has the same matrix,
senses and bounds; only its costs and right-hand sides differ, so one
layout serves a whole scenario. Every clear, of one interval or of a whole
horizon, at one bid or at many, goes through :func:`clear_batch`, which
solves all of its rows on at most two HiGHS models: one with the storage
unit, one without.

An interval's clearing cost is convex and piecewise affine in the storage
bids, with one piece per optimal dual: :func:`regimes` finds, by clears at
the vertices of the pieces found so far, duals that cover every bid; a
vertex that an earlier clear's basis already proves covered is not cleared.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import solver
from .scenario import Scenario, structure_violations

CS_TOL = 1e-6              # absolute on dual*slack products
STATIONARITY_TOL = 1e-7    # absolute, on a zero-bid clear's rebuilt storage duals
COVER_TOL = 1e-9           # relative, a clearing cost above the regime envelope
HELD_DUAL_TOL = 1e-9       # absolute, an uncovered vertex's dual against a held one


class ClearingError(RuntimeError):
    pass


class InfeasibleMarketError(ClearingError):
    """No dispatch meets the load, the requirements and the generator
    limits: the requirements may exceed what the fleet can ramp, or the
    generator floors the load."""


class UnboundedMarketError(ClearingError):
    """Malformed bids let cost decrease without bound."""


class LlLayout:
    """Column/row indexing of a scenario's clearing LPs, one LP per interval.

    Columns per generator j: [p_gs, p_grs, p_grgc, p_grgm]; then the storage
    columns [p_bs, p_bd, p_brs, p_brgc, p_brgm].
    Rows per generator: output floor, output cap, reserve ramp cap,
    regulation ramp cap, mileage floor, mileage cap; then the four storage
    award caps and two storage mileage rows; then reserve, regulation
    capacity, mileage requirements and the power balance.

    Nonnegativity of p_gs, p_grgm, p_brgm is implied by rows (floor rows and
    mileage floors), so those columns are free; every other column has a zero
    lower bound. All upper limits are rows, never variable bounds.

    The matrix, senses, bounds and names are the same for every interval of
    a scenario, so a layout builds them once. Interval ``t`` adds only its
    row ``c[t]`` of the costs, its row ``rhs_base[t]`` of the bid-free
    right-hand sides and its ``delta_t[t]``; only the storage bid rows'
    right-hand sides depend on the bids. A layout holds no solver state;
    :func:`clear_batch` builds its models. The arrays are built in closed
    form. A scenario with a structure violation (see
    :func:`~bessbid.scenario.structure_violations`) has no layout: it raises
    ``ValueError`` naming the violations.
    """

    GEN_COLS = 4
    GEN_ROWS = 6
    BESS_COLS = 5
    BESS_ROWS = 6
    SYS_ROWS = 4

    _GEN_COL_KINDS = ("gs", "grs", "grgc", "grgm")
    _GEN_ROW_KINDS = ("gen_floor", "gen_cap", "rs_ramp", "rg_ramp", "mil_floor", "mil_cap")
    _BESS_ROW_NAMES = ["bid_cap:sell", "bid_cap:buy", "bid_cap:reserve", "bid_cap:regcap",
                       "mil_floor:bess", "mil_cap:bess"]
    _SYS_ROW_NAMES = ["req:reserve", "req:regcap", "req:mileage", "balance"]

    def __init__(self, scn: Scenario):
        problems = structure_violations(scn)
        if problems:   # no clearing LP to build
            raise ValueError("; ".join(problems))
        self.scenario = scn
        gens = scn.generators
        g_n = len(gens)
        self.n_gens = g_n
        self.n_cols = self.GEN_COLS * g_n + self.BESS_COLS
        self.n_rows = self.GEN_ROWS * g_n + self.BESS_ROWS + self.SYS_ROWS

        ints = scn.intervals
        n_t = len(ints)
        self.delta_t = np.array([it.delta_t for it in ints], dtype=float)
        # each interval's costs: dt times each generator's four bids, then
        # dt times the storage price bids, the buy bid negated
        gen_bids = np.array([(it.gen_energy_bids, it.gen_reserve_bids, it.gen_regcap_bids,
                              it.gen_mileage_bids) for it in ints], dtype=float)
        beta = np.array([(b.sell, b.buy, b.reserve, b.regcap, b.mileage)
                         for b in (it.bess_price_bids for it in ints)], dtype=float)
        self.c = self.delta_t[:, None] * np.concatenate(
            [gen_bids.reshape(n_t, self.GEN_COLS, g_n).transpose(0, 2, 1)
             .reshape(n_t, self.GEN_COLS * g_n), beta.reshape(n_t, self.BESS_COLS)], axis=1)
        self.c[:, self.col_bd] *= -1.0
        # p_gs, p_grgm and p_brgm are free: their floor rows keep them nonnegative
        self.lower = np.array([-np.inf, 0.0, 0.0, -np.inf] * g_n + [0.0, 0.0, 0.0, 0.0, -np.inf])
        self.upper = np.full(self.n_cols, np.inf)
        self.col_names = [f"{kind}:{g.gen_id}" for g in gens for kind in self._GEN_COL_KINDS]
        self.col_names += ["bs", "bd", "brs", "brgc", "brgm"]

        # the matrix in CSR form, row by row, each row's entries in column order
        indices: list[int] = []
        data: list[float] = []
        for j, g in enumerate(gens):
            gs, grs, grgc, grgm = range(self.GEN_COLS * j, self.GEN_COLS * (j + 1))
            indices += [gs, grgc,        # output floor: p_gs - p_grgc >= p_min
                        gs, grs, grgc,   # output cap: p_gs + p_grs + p_grgc <= p_max
                        grs,             # reserve ramp cap
                        grgc,            # regulation ramp cap
                        grgc, grgm,      # mileage floor: p_grgm - p_grgc >= 0
                        grgc, grgm]      # mileage cap: p_grgm - mult * p_grgc <= 0
            data += [1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, 1.0, -g.mileage_multiplier, 1.0]
        bs, bd, brs, brgc, brgm = range(self.GEN_COLS * g_n, self.n_cols)
        # award caps (bid quantities land in their rhs at solve time), then
        # the storage mileage floor and cap
        indices += [bs, bd, brs, brgc, brgc, brgm, brgc, brgm]
        data += [1.0, 1.0, 1.0, 1.0, -1.0, 1.0, -scn.bess.mileage_multiplier, 1.0]
        # reserve, regulation capacity and mileage requirements, power balance
        for k, storage in ((1, [brs]), (2, [brgc]), (3, [brgm]), (0, [bs, bd])):
            indices += list(range(k, self.GEN_COLS * g_n, self.GEN_COLS)) + storage
        data += [1.0] * (4 * g_n + 4) + [-1.0]
        lengths = [2, 3, 1, 1, 2, 2] * g_n + [1, 1, 1, 1, 2, 2] + [g_n + 1] * 3 + [g_n + 2]
        indptr = np.zeros(self.n_rows + 1, dtype=np.int32)
        np.cumsum(lengths, out=indptr[1:])
        self.a = solver.CsrMatrix(indptr, np.array(indices, dtype=np.int32), np.array(data),
                                  (self.n_rows, self.n_cols))
        self.senses = np.array([">", "<", "<", "<", ">", "<"] * g_n
                               + ["<", "<", "<", "<", ">", "<"] + [">", ">", ">", "="])
        self.rhs_base = np.zeros((n_t, self.n_rows))
        self.rhs_base[:, :self.GEN_ROWS * g_n] = [
            v for g in gens for v in (g.p_min, g.p_max, g.reserve_ramp, g.regulation_ramp,
                                      0.0, 0.0)]
        self.rhs_base[:, self.n_rows - self.SYS_ROWS:] = np.array(
            [(it.reserve_req, it.regcap_req, it.mileage_req, it.load) for it in ints],
            dtype=float).reshape(n_t, self.SYS_ROWS)
        self.row_names = [f"{kind}:{g.gen_id}" for g in gens for kind in self._GEN_ROW_KINDS]
        self.row_names += self._BESS_ROW_NAMES + self._SYS_ROW_NAMES

    # --- index helpers -----------------------------------------------------
    def col_gen(self, j: int, k: int) -> int:
        return self.GEN_COLS * j + k

    @property
    def col_bs(self) -> int:
        return self.GEN_COLS * self.n_gens + 0

    @property
    def col_bd(self) -> int:
        return self.GEN_COLS * self.n_gens + 1

    @property
    def col_brs(self) -> int:
        return self.GEN_COLS * self.n_gens + 2

    @property
    def col_brgc(self) -> int:
        return self.GEN_COLS * self.n_gens + 3

    @property
    def col_brgm(self) -> int:
        return self.GEN_COLS * self.n_gens + 4

    def row_gen(self, j: int, k: int) -> int:
        return self.GEN_ROWS * j + k

    @property
    def bid_rows(self) -> dict[str, int]:
        base = self.GEN_ROWS * self.n_gens
        return {"sell": base, "buy": base + 1, "reserve": base + 2, "regcap": base + 3}

    @property
    def row_mil_floor_bess(self) -> int:
        return self.GEN_ROWS * self.n_gens + 4

    @property
    def row_mil_cap_bess(self) -> int:
        return self.GEN_ROWS * self.n_gens + 5

    @property
    def row_reserve_req(self) -> int:
        return self.n_rows - 4

    @property
    def row_regcap_req(self) -> int:
        return self.n_rows - 3

    @property
    def row_mileage_req(self) -> int:
        return self.n_rows - 2

    @property
    def row_balance(self) -> int:
        return self.n_rows - 1

    # ------------------------------------------------------------------
    def rhs_for(self, t, bids: np.ndarray) -> np.ndarray:
        """The right-hand sides of interval ``t[i]`` at row ``i`` of a
        ``(k, 4)`` bid array, one row each; a single ``t`` serves every row."""
        rhs = self.rhs_base[np.broadcast_to(t, (len(bids),))]
        sell = self.bid_rows["sell"]   # the bid rows: sell, buy, reserve, regcap
        rhs[:, sell:sell + 4] = bids
        return rhs

    def build_lp(self, t: int) -> solver.LpProblem:
        """Interval ``t``'s clearing LP at zero bids; :meth:`rhs_for` gives
        its right-hand sides at other bids."""
        return solver.LpProblem(
            c=self.c[t].copy(),
            a=self.a,
            senses=self.senses,
            rhs=self.rhs_base[t].copy(),
            lower=self.lower.copy(),
            upper=self.upper.copy(),
            maximize=False,
            row_names=list(self.row_names),
            col_names=list(self.col_names),
        )

    def storage_free_lp(self, t: int) -> tuple[solver.LpProblem, np.ndarray]:
        """Interval ``t``'s clearing LP without the storage unit, and the
        layout rows it keeps.

        Slices the storage columns and the six storage rows out of the
        layout; the kept rows stay in layout order, so row ``k`` of the
        sub-LP is layout row ``rows[k]`` and column ``j`` is layout column
        ``j``.
        """
        n = self.GEN_COLS * self.n_gens
        rows = np.concatenate([np.arange(self.GEN_ROWS * self.n_gens),
                               np.arange(self.n_rows - self.SYS_ROWS, self.n_rows)])
        lp = solver.LpProblem(
            c=self.c[t, :n].copy(),
            a=self.a.take(rows, np.arange(n)),
            senses=self.senses[rows],
            rhs=self.rhs_base[t, rows],
            lower=self.lower[:n].copy(),
            upper=self.upper[:n].copy(),
            maximize=False,
            row_names=[self.row_names[r] for r in rows],
            col_names=self.col_names[:n],
        )
        return lp, rows

    def prices_from(self, t, row_duals: np.ndarray) -> np.ndarray:
        """Interval ``t``'s prices in its row duals, $/MWh, as a ``(…, 4)``
        array of energy, reserve, regcap and mileage prices (the column order
        of the published tables); for 2-D duals, interval ``t[i]``'s at row
        ``i``."""
        rows = [self.row_balance, self.row_reserve_req, self.row_regcap_req,
                self.row_mileage_req]
        return row_duals[..., rows] / self.delta_t[t][..., None]


@dataclass
class ClearingBatch:
    """Clears of a scenario's intervals, one row per row of
    :func:`clear_batch`; a row's schedule is its ``x``, in layout column
    order, and :meth:`LlLayout.prices_from` reads its prices, or every
    row's at once."""

    t: np.ndarray                # (k,) the interval of each row
    layout: LlLayout
    x: np.ndarray                # (k, columns)
    row_duals: np.ndarray        # (k, rows), layout row order, carry the delta_t scaling
    lower_duals: np.ndarray      # (k, columns)
    objective: np.ndarray        # (k,) $, interval-length scaled
    duality_gap_rel: np.ndarray
    cs_residual: np.ndarray
    bids: np.ndarray             # (k, 4) each row's sell, buy, reserve and regcap bids
    basic: np.ndarray            # (k, rows) a nonzero-bid row's basic variables, as
                                 # solver.BatchOutcome's; -1 on a zero-bid row


# the fields a group of rows fills, in the order its clear returns them
_FIELDS = ("x", "row_duals", "lower_duals", "objective", "duality_gap_rel", "cs_residual",
           "basic")


def _status_error(t: int, status: str) -> ClearingError:
    if status == solver.INFEASIBLE:
        return InfeasibleMarketError(
            f"interval {t}: clearing infeasible "
            "(no dispatch meets the load, the requirements and the generator limits)"
        )
    if status == solver.UNBOUNDED:
        return UnboundedMarketError(f"interval {t}: clearing unbounded (malformed bids)")
    return ClearingError(f"interval {t}: solver returned {status}")


def _first_failure(t: np.ndarray, out: solver.BatchOutcome, cs_residual: np.ndarray,
                   stationarity: np.ndarray | None = None) -> tuple[int, ClearingError] | None:
    """The first failing row of a group of clears and its error, or None.

    ``out`` holds the group's solves up to the first one that failed, each
    within the solver's duality-gap bound; on those rows the clear checks
    the stationarity of rebuilt storage duals (zero-bid rows) and
    complementary slackness, in that order. Failing neither, the failing
    row is the one the solves stopped at. ``t`` is each row's interval.
    """
    checks = [(cs_residual > CS_TOL, "complementary slackness residual {:.3e}", cs_residual)]
    if stationarity is not None:
        checks.insert(0, (stationarity > STATIONARITY_TOL,
                          "reconstructed storage duals violate stationarity ({:.3e})",
                          stationarity))
    bad = np.logical_or.reduce([fails for fails, _, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        message, values = next((m, v) for fails, m, v in checks if fails[i])
        return i, ClearingError(f"interval {t[i]}: " + message.format(values[i]))
    i = len(out.objective)
    if out.failure is not None:
        return i, ClearingError(f"interval {t[i]}: {out.failure}")
    if out.status != solver.OPTIMAL:
        return i, _status_error(int(t[i]), out.status)
    return None


def _check_rows(layout: LlLayout, t, bids: np.ndarray) -> np.ndarray:
    """``t`` as one interval per row of ``bids``, once both are checked:
    ``bids`` is a ``(k, 4)`` array of nonnegative bids with ``k >= 1``, and
    ``t`` holds one interval of ``layout``'s scenario, or ``k`` of them, as
    integers. Raises ``ValueError`` naming the first problem; a negative bid
    is named by its row and that row's interval."""
    if bids.ndim != 2 or bids.shape[1] != 4:
        raise ValueError("bids must be a (k, 4) array of sell, buy, reserve and regcap "
                         f"quantities, got shape {bids.shape}")
    k = len(bids)
    if not k:
        raise ValueError("a clear needs at least one row of bids")
    t = np.asarray(t)
    if t.ndim > 1 or t.size not in (1, k):
        raise ValueError(f"t must hold one interval or one per row of bids ({k}), "
                         f"got shape {t.shape}")
    if not np.issubdtype(t.dtype, np.integer):
        raise ValueError(f"t must hold integer intervals, got dtype {t.dtype}")
    n = layout.scenario.n_intervals
    outside = (t < 0) | (t >= n)
    if outside.any():
        raise ValueError(f"t must lie in [0, {n}), got {t[outside].flat[0]}")
    t = np.broadcast_to(t.astype(np.intp), (k,))
    negative = (bids < 0).any(axis=1)
    if negative.any():
        i = int(np.argmax(negative))
        sell, buy, reserve, regcap = bids[i].tolist()
        raise ValueError(f"interval {t[i]}: bids must be >= 0, got sell {sell} buy {buy} "
                         f"reserve {reserve} regcap {regcap} in row {i}")
    return t


def clear_batch(layout: LlLayout, t, bids: np.ndarray) -> ClearingBatch:
    """Clear interval ``t[i]`` of ``layout``'s scenario at row ``i`` of
    ``bids``, a ``(k, 4)`` array of sell, buy, reserve and regcap quantities
    in MW, for every row, and extract schedule, prices and dual
    bookkeeping; the one way to clear. ``t`` holds one integer interval per
    row, or one for all of them; the batch needs at least one row.

    The nonzero-bid rows solve in one :meth:`solver.LpModel.solve_batch`
    on one clearing model, each row moving the model to its interval's
    costs and right-hand sides. The zero-bid rows solve the same way on one
    storage-free model, and their storage duals are rebuilt from
    stationarity afterwards, so their prices are exactly the no-storage
    prices (zero-bid neutrality) and their duals still satisfy the full
    first-order system. The stationarity and clearing contracts are checked
    over each group at once. The error raised is the first failing row's,
    in row order across both groups, and names that row's interval. Bids or
    intervals that :func:`_check_rows` refuses, a negative bid among them,
    raise ``ValueError`` before any solve.
    """
    bids = np.asarray(bids, dtype=float)
    t = _check_rows(layout, t, bids)
    c = layout.c[t]
    rhs = layout.rhs_for(t, bids)

    k = len(bids)
    out = ClearingBatch(t=t, layout=layout, x=np.empty((k, layout.n_cols)),
                        row_duals=np.empty((k, layout.n_rows)),
                        lower_duals=np.empty((k, layout.n_cols)), objective=np.empty(k),
                        duality_gap_rel=np.empty(k), cs_residual=np.empty(k), bids=bids.copy(),
                        basic=np.empty((k, layout.n_rows), dtype=np.int32))
    zero = ~bids.any(axis=1)
    failures = []
    for rows, clear in ((np.flatnonzero(zero), _clear_zero_rows),
                        (np.flatnonzero(~zero), _clear_bid_rows)):
        if not len(rows):
            continue
        values, failure = clear(layout, t[rows], c[rows], rhs[rows])
        if failure is not None:
            failures.append((rows[failure[0]], failure[1]))
            continue
        for name, value in zip(_FIELDS, values):
            getattr(out, name)[rows] = value
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return out


def _clear_bid_rows(layout: LlLayout, t: np.ndarray, c: np.ndarray, rhs: np.ndarray):
    """Nonzero-bid rows through one clearing model, built at the first row's
    interval: the row arrays of :data:`_FIELDS`, and the first failure. The
    model's solve has checked feasibility and its duality gap; the clear
    checks complementary slackness."""
    out = solver.LpModel(layout.build_lp(t[0])).solve_batch(rhs, c)
    values = (out.x, out.row_duals, out.lower_duals, out.objective, out.duality_gap_rel,
              out.cs_residual, out.basic)
    return values, _first_failure(t, out, out.cs_residual)


def _clear_zero_rows(layout: LlLayout, t: np.ndarray, c: np.ndarray, rhs: np.ndarray):
    """Zero-bid rows through one storage-free model, built at the first
    row's interval, with the storage duals rebuilt: the row arrays of
    :data:`_FIELDS`, and the first failure."""
    free, kept_rows = layout.storage_free_lp(t[0])
    n = len(free.c)
    out = solver.LpModel(free).solve_batch(rhs[:, kept_rows], c[:, :n])
    k = len(out.objective)
    c, rhs = c[:k], rhs[:k]
    x = np.zeros((k, layout.n_cols))
    x[:, :n] = out.x
    row_duals = np.zeros((k, layout.n_rows))
    row_duals[:, kept_rows] = out.row_duals
    lower_duals = np.zeros((k, layout.n_cols))
    lower_duals[:, :n] = out.lower_duals

    # storage duals reconstructed from stationarity; every storage row has
    # zero slack at zero bids so any nonnegative dual is complementary. The
    # storage costs are dt times the price bids, the buy cost negated; each
    # max(0, q) and min(0, q) gives an unsigned zero, as Python's would
    lam, y_rs, y_c, y_m = (row_duals[:, r] for r in (
        layout.row_balance, layout.row_reserve_req, layout.row_regcap_req,
        layout.row_mileage_req))
    mileage = c[:, layout.col_brgm] - y_m
    w12 = np.where(mileage > 0.0, mileage, 0.0)
    w13 = np.where(mileage < 0.0, -mileage, 0.0)
    row_duals[:, layout.row_mil_floor_bess] = w12
    row_duals[:, layout.row_mil_cap_bess] = -w13
    mult = layout.scenario.bess.mileage_multiplier
    br = layout.bid_rows
    for name, col, q in (
            ("sell", layout.col_bs, c[:, layout.col_bs] - lam),
            ("buy", layout.col_bd, lam + c[:, layout.col_bd]),
            ("reserve", layout.col_brs, c[:, layout.col_brs] - y_rs),
            ("regcap", layout.col_brgc, c[:, layout.col_brgc] + w12 - mult * w13 - y_c)):
        row_duals[:, br[name]] = np.where(q < 0.0, q, 0.0)
        lower_duals[:, col] = np.where(q > 0.0, q, 0.0)

    core = solver.Residuals(layout.build_lp(t[0]))
    no_upper = np.zeros_like(x)
    cs = core.cs(x, core.activity(x), rhs, row_duals, lower_duals, no_upper)
    stationarity = core.stationarity(row_duals, lower_duals, no_upper, c)
    values = (x, row_duals, lower_duals, out.objective, out.duality_gap_rel, cs, -1)
    return values, _first_failure(t, out, cs, stationarity)



# ---------------------------------------------------------------------------
# clearing regimes
# ---------------------------------------------------------------------------


def bid_sides(mask) -> tuple[tuple[int, ...], ...]:
    """The bid columns (0 sell, 1 buy, 2 reserve, 3 regcap) that each side
    of the bid box may use under market mask ``mask``: with energy, the sell
    side (buy = 0) and the buy side (sell = 0), as the mode allows; without
    it, one side. A side with no column is the zero bid alone."""
    ancillary = tuple(k for k, on in ((2, mask.reserve), (3, mask.regulation)) if on)
    return ((0,) + ancillary, (1,) + ancillary) if mask.energy else (ancillary,)


@dataclass
class RegimeCover:
    """Clearing duals held for each interval and side of the bid box, one
    row each, in interval, side and discovery order.

    The clearing cost of interval ``t`` at bids ``b`` is convex and
    piecewise affine in ``b``; held dual ``k`` bounds it from below by its
    piece ``level[k] + slope[k] @ b``, which it meets wherever the dual is
    optimal. A cover from :func:`regimes` is certified: the pieces' upper
    envelope equals the clearing cost at every vertex of the envelope on
    every side, and so, by convexity, on the whole side: at every bid some
    held dual of its side is optimal. It holds only pieces whose region
    (where the piece is the envelope) has the side's full dimension.
    """

    layout: LlLayout
    sides: tuple[tuple[int, ...], ...]   # each side's bid columns, see bid_sides
    t: np.ndarray             # (k,) the interval of each held dual
    side: np.ndarray          # (k,) its side
    level: np.ndarray         # (k,) its piece at zero bids
    row_duals: np.ndarray     # (k, rows), as a clear's
    lower_duals: np.ndarray   # (k, columns)

    @property
    def group(self) -> np.ndarray:
        """Each piece's interval and side as one index, ``t * sides + side``."""
        return self.t * len(self.sides) + self.side

    @property
    def slope(self) -> np.ndarray:
        """Each piece's gradient in the (sell, buy, reserve, regcap) bids:
        its duals of the bid rows."""
        sell = self.layout.bid_rows["sell"]
        return self.row_duals[:, sell:sell + 4]

    def _select(self, keep: np.ndarray) -> "RegimeCover":
        return RegimeCover(self.layout, self.sides, self.t[keep], self.side[keep],
                           self.level[keep], self.row_duals[keep], self.lower_duals[keep])


def _vertices(cover: RegimeCover, fresh: np.ndarray):
    """The vertices of every interval's and side's envelope that lie on a
    fresh piece: their group (:attr:`RegimeCover.group`), bids and
    envelope value.

    Over a side with ``d`` bid columns, the envelope's graph lives in the
    bids and the cost ``s``; a vertex is where ``d + 1`` independent
    constraints meet, each a piece (``s = level + slope @ b``) or a face of
    the box (a bid at 0 or at the rate), and no piece lies above it. Every
    choice of ``d + 1`` of them with a fresh piece is solved for its point
    in one batch per side, and the points off the box or below the
    envelope are dropped. A vertex that no fresh piece reaches was a vertex
    of the envelope before the fresh pieces.
    """
    rate = cover.layout.scenario.bess.power_rate
    n_sides = len(cover.sides)
    n_groups = cover.layout.scenario.n_intervals * n_sides
    group = cover.group
    counts = np.bincount(group, minlength=n_groups)
    start = np.concatenate(([0], np.cumsum(counts)[:-1]))
    slot = np.arange(len(group)) - start[group]
    width = int(counts.max())
    level = np.full((n_groups, width), -np.inf)
    level[group, slot] = cover.level
    slope = np.zeros((n_groups, width, 4))
    slope[group, slot] = cover.slope
    valid = np.zeros((n_groups, width), dtype=bool)
    valid[group, slot] = True
    new = np.zeros_like(valid)
    new[group, slot] = fresh

    found = []
    for s, free in enumerate(cover.sides):
        rows = np.arange(s, n_groups, n_sides)
        d = len(free)
        # the constraints of each group, as rows [normal on (bids[free], s) | rhs]:
        # its pieces, then the faces bid = 0 and bid = rate of each column
        normal = np.zeros((len(rows), width + 2 * d, d + 1))
        normal[:, :width, :d] = -slope[rows][..., list(free)]
        normal[:, :width, d] = 1.0
        normal[:, width:, :d] = np.tile(np.eye(d), (2, 1))
        faces = (len(rows), 2 * d)
        rhs = np.concatenate([level[rows], np.broadcast_to(np.repeat([0.0, rate], d), faces)],
                             axis=1)
        usable = np.concatenate([valid[rows], np.ones(faces, dtype=bool)], axis=1)
        on_fresh = np.concatenate([new[rows], np.zeros(faces, dtype=bool)], axis=1)
        piece = np.arange(width + 2 * d) < width
        combos = np.array(list(itertools.combinations(range(width + 2 * d), d + 1)),
                          dtype=np.intp).reshape(-1, d + 1)
        gi, ci = np.nonzero(usable[:, combos].all(axis=2) & on_fresh[:, combos].any(axis=2))
        mat = normal[gi[:, None], combos[ci]]
        # |det| over the product of the row norms (Hadamard), 0 when singular
        regular = (np.abs(np.linalg.det(mat))
                   > 1e-12 * np.prod(np.linalg.norm(mat, axis=2), axis=1))
        gi, idx, mat = gi[regular], combos[ci[regular]], mat[regular]
        point = np.linalg.solve(mat, rhs[gi[:, None], idx][..., None])[..., 0]
        bids = np.zeros((len(gi), 4))
        bids[:, list(free)] = point[:, :d]
        inside = ((bids >= -1e-9 * rate) & (bids <= rate * (1 + 1e-9))).all(axis=1)
        gi, idx, bids = gi[inside], idx[inside], np.clip(bids[inside], 0.0, rate)
        g = rows[gi]
        value = _envelope_at(level, slope, g, bids)
        # every chosen piece is on the envelope at the point
        chosen = np.where(piece[idx], idx, 0)
        at = level[g[:, None], chosen] + np.einsum("nwk,nk->nw", slope[g[:, None], chosen], bids)
        low = value - COVER_TOL * np.maximum(1.0, np.abs(value))
        on_top = ((at >= low[:, None]) | ~piece[idx]).all(axis=1)
        found.append((g[on_top], bids[on_top], value[on_top]))
    return tuple(np.concatenate(v) for v in zip(*found))


def _envelope_at(level: np.ndarray, slope: np.ndarray, g: np.ndarray,
                 bids: np.ndarray) -> np.ndarray:
    """Group ``g[i]``'s envelope at bids ``bids[i]``, from the padded
    ``(groups, width)`` levels (``-inf`` where no piece) and slopes."""
    return np.max(level[g] + np.einsum("nwk,nk->nw", slope[g], bids), axis=1, initial=-np.inf)


def _keys(g: np.ndarray, bids: np.ndarray, rate: float) -> np.ndarray:
    """One integer row per point: its group and its bids in units of
    ``1e-9 * rate``, so that points equal up to rounding share a key."""
    return np.column_stack((g, np.rint(bids * (1e9 / rate)).astype(np.int64)))


def regimes(layout: LlLayout, deadline: float | None = None) -> RegimeCover:
    """Cover each interval's bid box with clearing duals (Kelley's
    cutting-plane method on the clearing cost).

    It starts from the clears at zero bids. Each round takes every vertex of
    the pieces' upper envelope that no round has taken yet. A vertex clears
    only when no earlier basis proves it covered (:class:`_Bases`): an
    optimal basis of an earlier clear of its interval whose point, moved to
    the vertex's bids, is feasible there at a cost not above the envelope.
    The envelope bounds the clearing cost from below and a feasible point's
    cost bounds it from above, so such a vertex is not above the envelope
    and its clear could add no piece. The other vertices clear in one
    :func:`clear_batch` over all intervals; a vertex whose clearing cost
    lies above the envelope (by ``COVER_TOL``, relative) adds its clear's
    duals as a new piece. Once a round adds no piece or finds no new vertex,
    the envelope is the clearing cost on every side, the cover is certified,
    and the pieces whose region is thinner than the side are dropped.

    No uncertified cover is returned. A clear that fails raises its
    :class:`ClearingError` (:class:`InfeasibleMarketError` for a market
    that does not clear at zero bids); an uncovered vertex whose duals are
    already held (within ``HELD_DUAL_TOL``), which only solver tolerance
    can cause, raises a :class:`ClearingError` naming its interval; and
    :class:`TimeoutError` is raised when ``deadline`` (a
    :func:`time.perf_counter` time) has passed at the start of a round that
    has a new piece to search from.
    """
    scn = layout.scenario
    rate = scn.bess.power_rate
    sides = bid_sides(scn.market_mask)
    n_t, n_sides = scn.n_intervals, len(sides)
    zero = clear_batch(layout, np.arange(n_t), np.zeros((n_t, 4)))
    t = np.repeat(np.arange(n_t), n_sides)
    cover = RegimeCover(layout, sides, t, np.tile(np.arange(n_sides), n_t), zero.objective[t],
                        zero.row_duals[t], zero.lower_duals[t])
    fresh = np.ones(len(t), dtype=bool)
    bases = _Bases(layout)
    # the points taken: their group, bids and clearing cost
    seen_g, seen_b, seen_cost = cover.group, np.zeros((len(t), 4)), cover.level
    checked = set(map(tuple, _keys(seen_g, seen_b, rate).tolist()))
    while fresh.any():   # a vertex new to the envelope lies on a fresh piece
        if deadline is not None and time.perf_counter() > deadline:
            raise TimeoutError("regime cover: deadline passed")
        g, bids, value = _vertices(cover, fresh)
        keys = _keys(g, bids, rate)
        _, first = np.unique(keys, axis=0, return_index=True)
        first = np.array([i for i in first.tolist() if tuple(keys[i].tolist()) not in checked],
                         dtype=np.intp)
        if not len(first):
            break
        g, bids, value = g[first], bids[first], value[first]
        checked.update(map(tuple, keys[first].tolist()))
        cost, clear = _certified(bases, g // n_sides, bids, value)
        fresh = np.zeros(len(cover.t), dtype=bool)
        if clear.any():
            batch, row = _clear_points(layout, n_sides, g[clear], bids[clear])
            cost[clear] = batch.objective[row]
            bases.add(batch)
            cover, fresh = _new_pieces(cover, g[clear], bids[clear], cost[clear],
                                       value[clear], batch, row)
        seen_g, seen_b, seen_cost = (np.concatenate(v) for v in (
            (seen_g, g), (seen_b, bids), (seen_cost, cost)))
    return _essential(cover, seen_g, seen_b, seen_cost)


def _above(cost: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Where a clearing cost lies above the envelope's value, by
    ``COVER_TOL`` relative to the cost."""
    return cost - value > COVER_TOL * np.maximum(1.0, np.abs(cost))


def _clear_points(layout: LlLayout, n_sides: int, g: np.ndarray,
                  bids: np.ndarray) -> tuple[ClearingBatch, np.ndarray]:
    """The clear of each group's point, as one batch and the batch row of
    each point; the sides share their common face, where each point clears
    once."""
    _, pick, row = np.unique(_keys(g // n_sides, bids, layout.scenario.bess.power_rate),
                             axis=0, return_index=True, return_inverse=True)
    return clear_batch(layout, g[pick] // n_sides, bids[pick]), row.ravel()


# the most (vertex, basis) pairs whose points _certified builds at once
_PAIRS = 512


class _Bases:
    """The optimal bases of a scenario's clears at nonzero bids, one per
    interval and basis, in interval order, and the point each gives at other
    bids.

    The bids move only the right-hand sides of the four bid rows, so a
    basis found at bids ``b``, with its solution ``x``, gives the point
    ``x + d @ (v - b)`` at bids ``v``: its nonbasic columns stay where they
    are, its nonbasic rows stay tight, and ``d`` is the change of the basic
    columns per unit of bid. Where that point is feasible the basis is
    optimal too (its duals do not depend on the bids; Gal & Nedoma,
    Management Science 18(7), 1972). Two clears of an interval on one basis
    give one affine map, so each basis is kept once.
    """

    def __init__(self, layout: LlLayout):
        self.layout = layout
        n = layout.n_cols
        self.t = np.empty(0, dtype=np.intp)
        self.b = np.empty((0, 4))
        self.x = np.empty((0, n))
        self.d = np.empty((0, n, 4))
        self._held: set[bytes] = set()
        # each variable's equation when nonbasic: a column stays where it
        # is (row j of the identity), row r's slack keeps row r tight
        self._fixed = np.vstack((np.eye(n), layout.a.toarray()))
        sell = layout.bid_rows["sell"]
        self._bid_slacks = n + np.arange(sell, sell + 4)

    def add(self, batch: ClearingBatch) -> None:
        """Keep the bases of ``batch``'s nonzero-bid rows not yet held."""
        n = self.layout.n_cols
        new = []
        for i in np.flatnonzero(batch.basic[:, 0] >= 0).tolist():
            key = batch.t[i].tobytes() + batch.basic[i].tobytes()
            if key not in self._held:
                self._held.add(key)
                new.append(i)
        if not new:
            return
        basic = batch.basic[new]
        k, m = basic.shape
        nonbasic = np.ones((k, n + m), dtype=bool)
        nonbasic[np.repeat(np.arange(k), m), basic.ravel()] = False
        # n equations per basis, one per nonbasic variable, fix its point;
        # the bid rows' right-hand sides enter where their slacks are nonbasic
        var = np.nonzero(nonbasic)[1].reshape(k, n)
        d = np.linalg.solve(self._fixed[var], (var[..., None] == self._bid_slacks).astype(float))
        t = np.concatenate((self.t, batch.t[new]))
        order = np.argsort(t, kind="stable")
        self.t = t[order]
        self.b, self.x, self.d = (np.concatenate(pair)[order] for pair in (
            (self.b, batch.bids[new]), (self.x, batch.x[new]), (self.d, d)))


def _certified(bases: _Bases, t: np.ndarray, bids: np.ndarray,
               value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which points an earlier basis proves covered, and at what cost.

    Point ``i`` of interval ``t[i]`` at ``bids[i]``, where the envelope is
    ``value[i]``, is paired with each basis of its interval in ``bases``.
    A pair proves the point covered when the basis's point there meets
    every bound and every row, by ``solver.FEASIBILITY_TOL``, and its cost
    is not above the envelope (:func:`_above`). Returns each point's cost,
    the least of its proving pairs', and the points that none proves and
    must clear; their costs are left unset.
    """
    layout = bases.layout
    start = np.searchsorted(bases.t, t)
    count = np.searchsorted(bases.t, t, side="right") - start
    cost = np.full(len(t), np.inf)
    tol = solver.FEASIBILITY_TOL
    # the points in runs of at most _PAIRS pairs (one point's pairs at least)
    ends = np.cumsum(count)
    lo = 0
    while lo < len(t):
        hi = max(int(np.searchsorted(ends, ends[lo] - count[lo] + _PAIRS, side="right")), lo + 1)
        n_pairs = count[lo:hi]
        pi = np.repeat(np.arange(lo, hi), n_pairs)
        bi = np.arange(len(pi)) - np.repeat(np.cumsum(n_pairs) - n_pairs, n_pairs) \
            + np.repeat(start[lo:hi], n_pairs)
        x = bases.x[bi] + np.einsum("pck,pk->pc", bases.d[bi], bids[pi] - bases.b[bi])
        ax = layout.a.dot(x)
        rows = solver.row_violation(layout.senses, ax, layout.rhs_for(t[pi], bids[pi]))
        feasible = ((rows <= tol).all(axis=1) & (x >= layout.lower - tol).all(axis=1)
                    & (x <= layout.upper + tol).all(axis=1))
        pair_cost = np.vecdot(layout.c[t[pi]], x)
        np.minimum.at(cost, pi[feasible], pair_cost[feasible])
        lo = hi
    clear = ~np.isfinite(cost) | _above(cost, value)
    return cost, clear


def _new_pieces(cover: RegimeCover, g: np.ndarray, bids: np.ndarray, cost: np.ndarray,
                value: np.ndarray, batch: ClearingBatch, row: np.ndarray):
    """The cover with the duals of the uncovered vertices added, kept in
    group order, and which of its pieces are new; an uncovered vertex whose
    duals are already held raises a :class:`ClearingError`. Vertex ``i`` of
    group ``g[i]`` at ``bids[i]`` cleared at ``cost[i]`` (row ``row[i]`` of
    ``batch``), where the envelope is ``value[i]``. Of the new pieces equal
    to one before them (level and slope on the side), the first is kept."""
    n_sides = len(cover.sides)
    group = cover.group
    sell = cover.layout.bid_rows["sell"]
    y = batch.row_duals[row]
    slope = y[:, sell:sell + 4]
    levels = cost - np.vecdot(slope, bids)

    def same_piece(i: int, j: int) -> bool:
        free = list(cover.sides[g[i] % n_sides])
        return (abs(levels[j] - levels[i]) <= COVER_TOL * max(1.0, abs(levels[i]))
                and np.abs(slope[j, free] - slope[i, free]).max(initial=0.0) <= HELD_DUAL_TOL)

    kept: dict[int, list[int]] = {}   # per group, the vertices whose duals are added
    for i in np.flatnonzero(_above(cost, value)).tolist():
        if (np.abs(cover.row_duals[group == g[i]] - y[i]).max(axis=1) <= HELD_DUAL_TOL).any():
            raise ClearingError(f"interval {g[i] // n_sides}: regime cover not certified "
                                "(an uncovered vertex's duals are already held)")
        mine = kept.setdefault(int(g[i]), [])
        if not any(same_piece(i, j) for j in mine):
            mine.append(i)
    keep = sorted(i for mine in kept.values() for i in mine)
    if not keep:
        return cover, np.zeros(len(cover.t), dtype=bool)
    keep = np.array(keep, dtype=np.intp)
    t = np.concatenate((cover.t, g[keep] // n_sides))
    side = np.concatenate((cover.side, g[keep] % n_sides))
    order = np.argsort(t * n_sides + side, kind="stable")
    grown = RegimeCover(
        cover.layout, cover.sides, t, side, np.concatenate((cover.level, levels[keep])),
        np.concatenate((cover.row_duals, y[keep])),
        np.concatenate((cover.lower_duals, batch.lower_duals[row[keep]])))
    fresh = np.arange(len(t)) >= len(cover.t)
    return grown._select(order), fresh[order]


def _essential(cover: RegimeCover, g: np.ndarray, bids: np.ndarray,
               cost: np.ndarray) -> RegimeCover:
    """The certified cover without the pieces whose region is thinner than
    their side; ``g``, ``bids`` and ``cost`` are every cleared point, among
    which are all the envelope's vertices. A region is the hull of the
    vertices where its piece is on the envelope; the envelope without the
    thin pieces is the same."""
    rate = cover.layout.scenario.bess.power_rate
    group = cover.group
    keep = np.zeros(len(group), dtype=bool)
    for k in range(len(group)):
        mine = g == group[k]
        at = bids[mine] @ cover.slope[k] + cover.level[k]
        top = bids[mine][at >= cost[mine] - COVER_TOL * np.maximum(1.0, np.abs(cost[mine]))]
        free = list(cover.sides[cover.side[k]])
        # a side without columns is the zero bid, which its one piece covers
        keep[k] = not free or len(top) > 0 and np.linalg.matrix_rank(
            (top - top[0])[:, free], tol=1e-9 * rate) == len(free)
    return cover._select(keep)
