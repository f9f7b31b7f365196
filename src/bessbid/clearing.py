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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import solver
from .scenario import Scenario, structure_violations

log = logging.getLogger(__name__)

CS_TOL = 1e-6              # absolute on dual*slack products
STATIONARITY_TOL = 1e-7    # absolute, on a zero-bid clear's rebuilt storage duals


class ClearingError(RuntimeError):
    pass


class InfeasibleMarketError(ClearingError):
    """Requirements exceed fleet capability."""


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
        self.a = sp.csr_matrix((np.array(data), np.array(indices, dtype=np.int32), indptr),
                               shape=(self.n_rows, self.n_cols))
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
            a=self.a[rows][:, :n],
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


# the fields a group of rows fills, in the order its clear returns them
_FIELDS = ("x", "row_duals", "lower_duals", "objective", "duality_gap_rel", "cs_residual")


def _status_error(t: int, status: str) -> ClearingError:
    if status == solver.INFEASIBLE:
        return InfeasibleMarketError(
            f"interval {t}: clearing infeasible (requirements exceed fleet capability)"
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
                        duality_gap_rel=np.empty(k), cs_residual=np.empty(k))
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
              out.cs_residual)
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
    values = (x, row_duals, lower_duals, out.objective, out.duality_gap_rel, cs)
    return values, _first_failure(t, out, cs, stationarity)

