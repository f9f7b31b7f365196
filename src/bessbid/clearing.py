"""Joint per-interval market clearing as an LP with price extraction.

One interval clears energy, spinning reserve, regulation capacity, and
regulation mileage together: generation cost plus storage bid cost is
minimized subject to generator limits, storage award caps, mileage coupling,
system requirements, and the power balance. Market prices are the duals of
the balance and requirement rows.

The row/column layout built here is the single source of truth that the
bilevel reformulation reuses for its KKT blocks, so index bookkeeping lives
in :class:`LlLayout`. Every clear, of one bid or of many, goes through
:func:`clear_batch`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import solver
from .scenario import Scenario

log = logging.getLogger(__name__)

STRONG_DUALITY_TOL = 1e-6  # relative
CS_TOL = 1e-6              # absolute on dual*slack products
STATIONARITY_TOL = 1e-7    # absolute, on a zero-bid clear's rebuilt storage duals


class ClearingError(RuntimeError):
    pass


class InfeasibleMarketError(ClearingError):
    """Requirements exceed fleet capability."""


class UnboundedMarketError(ClearingError):
    """Malformed bids let cost decrease without bound."""


@dataclass(frozen=True)
class BessBids:
    """Quantity bids of the storage unit for one interval, MW."""

    sell: float = 0.0
    buy: float = 0.0
    reserve: float = 0.0
    regcap: float = 0.0


ZERO_BIDS = BessBids()


def bid_array(bids) -> np.ndarray:
    """A ``(k, 4)`` array of the sell, buy, reserve and regcap quantities of
    each :class:`BessBids` in ``bids``."""
    return np.array([(b.sell, b.buy, b.reserve, b.regcap) for b in bids],
                    dtype=float).reshape(-1, 4)


def _check_bids(t: int, bids: np.ndarray) -> None:
    """Raise for the first row of a bid array that holds a negative bid."""
    negative = (bids < 0).any(axis=1)
    if negative.any():
        row = bids[int(np.argmax(negative))].tolist()
        raise ValueError(f"interval {t}: bids must be >= 0, got {BessBids(*row)}")


@dataclass
class LlVariables:
    """Cleared schedule for one interval, MW."""

    p_gs: np.ndarray
    p_grs: np.ndarray
    p_grgc: np.ndarray
    p_grgm: np.ndarray
    p_bs: float = 0.0
    p_bd: float = 0.0
    p_brs: float = 0.0
    p_brgc: float = 0.0
    p_brgm: float = 0.0


@dataclass(frozen=True)
class Prices:
    """Market-clearing prices, $/MWh."""

    energy: float
    reserve: float
    regcap: float
    mileage: float


class LlLayout:
    """Column/row indexing of one interval's clearing LP.

    Columns per generator j: [p_gs, p_grs, p_grgc, p_grgm]; then the storage
    columns [p_bs, p_bd, p_brs, p_brgc, p_brgm].
    Rows per generator: output floor, output cap, reserve ramp cap,
    regulation ramp cap, mileage floor, mileage cap; then the four storage
    award caps and two storage mileage rows; then reserve, regulation
    capacity, mileage requirements and the power balance.

    Nonnegativity of p_gs, p_grgm, p_brgm is implied by rows (floor rows and
    mileage floors), so those columns are free; every other column has a zero
    lower bound. All upper limits are rows, never variable bounds.

    Only the storage bid rows' right-hand sides depend on the bids, so one
    layout keeps one HiGHS model (built on its first solve) and every
    nonzero-bid row that :func:`clear_batch` clears on the layout solves
    through it; a zero-bid row solves :meth:`storage_free_lp` instead. The
    arrays are built in closed form, once per layout.
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

    def __init__(self, scn: Scenario, t: int):
        self.scenario = scn
        self.t = t
        it = scn.intervals[t]
        self.interval = it
        self.delta_t = it.delta_t
        gens = scn.generators
        g_n = len(gens)
        self.n_gens = g_n
        self.n_cols = self.GEN_COLS * g_n + self.BESS_COLS
        self.n_rows = self.GEN_ROWS * g_n + self.BESS_ROWS + self.SYS_ROWS

        dt = it.delta_t
        beta = it.bess_price_bids
        self.c = np.array(
            [dt * bid for bids in zip(it.gen_energy_bids, it.gen_reserve_bids,
                                      it.gen_regcap_bids, it.gen_mileage_bids) for bid in bids]
            + [dt * beta.sell, -dt * beta.buy, dt * beta.reserve, dt * beta.regcap,
               dt * beta.mileage])
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
        self.rhs_base = np.array(
            [v for g in gens for v in (g.p_min, g.p_max, g.reserve_ramp, g.regulation_ramp,
                                       0.0, 0.0)]
            + [0.0] * self.BESS_ROWS + [it.reserve_req, it.regcap_req, it.mileage_req, it.load],
            dtype=float)
        self.row_names = [f"{kind}:{g.gen_id}" for g in gens for kind in self._GEN_ROW_KINDS]
        self.row_names += self._BESS_ROW_NAMES + self._SYS_ROW_NAMES
        self._model: solver.LpModel | None = None

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
    def rhs_for(self, bids: np.ndarray) -> np.ndarray:
        """The right-hand sides at each row of a :func:`bid_array`, one row each."""
        rhs = np.empty((len(bids), self.n_rows))
        rhs[:] = self.rhs_base
        sell = self.bid_rows["sell"]   # the bid rows: sell, buy, reserve, regcap
        rhs[:, sell:sell + 4] = bids
        return rhs

    @property
    def model(self) -> solver.LpModel:
        """The layout's HiGHS model, built on first use and kept: a clear
        moves its bid rows' right-hand sides and re-solves it cold (see
        :class:`solver.LpModel`)."""
        if self._model is None:
            self._model = solver.LpModel(self.build_lp())
        return self._model

    def build_lp(self, bids: BessBids = ZERO_BIDS) -> solver.LpProblem:
        return solver.LpProblem(
            c=self.c.copy(),
            a=self.a,
            senses=self.senses,
            rhs=self.rhs_for(bid_array([bids]))[0],
            lower=self.lower.copy(),
            upper=self.upper.copy(),
            maximize=False,
            row_names=list(self.row_names),
            col_names=list(self.col_names),
        )

    def storage_free_lp(self) -> tuple[solver.LpProblem, np.ndarray]:
        """The clearing LP without the storage unit, and the layout rows it keeps.

        Slices the storage columns and the six storage rows out of the
        layout; the kept rows stay in layout order, so row ``k`` of the
        sub-LP is layout row ``rows[k]`` and column ``j`` is layout column
        ``j``.
        """
        n = self.GEN_COLS * self.n_gens
        rows = np.concatenate([np.arange(self.GEN_ROWS * self.n_gens),
                               np.arange(self.n_rows - self.SYS_ROWS, self.n_rows)])
        # the storage rows hold storage entries only, so keeping the entries
        # of the generator columns keeps exactly the kept rows' entries, in order
        a = self.a
        keep = a.indices < n
        kept_before = np.concatenate(([0], np.cumsum(keep)))   # at each entry
        kept_per_row = np.diff(kept_before[a.indptr])
        indptr = np.zeros(len(rows) + 1, dtype=np.int32)
        np.cumsum(kept_per_row[rows], out=indptr[1:])
        lp = solver.LpProblem(
            c=self.c[:n].copy(),
            a=sp.csr_matrix((a.data[keep], a.indices[keep], indptr), shape=(len(rows), n)),
            senses=self.senses[rows],
            rhs=self.rhs_base[rows],
            lower=self.lower[:n].copy(),
            upper=self.upper[:n].copy(),
            maximize=False,
            row_names=[self.row_names[r] for r in rows],
            col_names=self.col_names[:n],
        )
        return lp, rows

    def variables_from(self, x: np.ndarray) -> LlVariables:
        """The schedule in column vector ``x``; for a 2-D ``x``, one schedule
        per row, each field then holding one value (or vector) per row."""
        # one copy holds the four generator vectors, one row each
        gen = x[..., :self.col_bs].reshape(*x.shape[:-1], self.n_gens, self.GEN_COLS)
        p_gs, p_grs, p_grgc, p_grgm = np.moveaxis(gen, -1, 0).copy()
        storage = x[..., self.col_bs:].T
        p_bs, p_bd, p_brs, p_brgc, p_brgm = storage.tolist() if x.ndim == 1 else storage
        return LlVariables(p_gs=p_gs, p_grs=p_grs, p_grgc=p_grgc, p_grgm=p_grgm,
                           p_bs=p_bs, p_bd=p_bd, p_brs=p_brs, p_brgc=p_brgc, p_brgm=p_brgm)

    def vector_from(self, v: LlVariables) -> np.ndarray:
        """Column vector of a schedule; the inverse of :meth:`variables_from`."""
        x = np.zeros(self.n_cols)
        for k, values in enumerate((v.p_gs, v.p_grs, v.p_grgc, v.p_grgm)):
            x[k:self.GEN_COLS * self.n_gens:self.GEN_COLS] = values
        x[self.col_bs:] = (v.p_bs, v.p_bd, v.p_brs, v.p_brgc, v.p_brgm)
        return x

    def prices_from(self, row_duals: np.ndarray) -> Prices:
        # the four system rows close the layout: reserve, regcap, mileage, balance
        reserve, regcap, mileage, energy = (
            row_duals[self.n_rows - self.SYS_ROWS:] / self.delta_t).tolist()
        return Prices(energy=energy, reserve=reserve, regcap=regcap, mileage=mileage)


@dataclass
class ClearingResult:
    t: int
    variables: LlVariables
    prices: Prices
    objective: float             # $, interval-length scaled
    row_duals: np.ndarray        # layout row order, carry the delta_t scaling
    lower_duals: np.ndarray
    duality_gap_rel: float
    cs_residual: float
    layout: LlLayout


@dataclass
class ClearingBatch:
    """Clears of one interval at several storage bids, one row per bid: the
    fields of :class:`ClearingResult`, stacked."""

    layout: LlLayout
    x: np.ndarray                # (k, columns)
    row_duals: np.ndarray        # (k, rows), layout row order
    lower_duals: np.ndarray      # (k, columns)
    objective: np.ndarray
    duality_gap_rel: np.ndarray
    cs_residual: np.ndarray

    def result(self, i: int) -> ClearingResult:
        layout = self.layout
        return ClearingResult(
            t=layout.t,
            variables=layout.variables_from(self.x[i]),
            prices=layout.prices_from(self.row_duals[i]),
            objective=float(self.objective[i]),
            row_duals=self.row_duals[i],
            lower_duals=self.lower_duals[i],
            duality_gap_rel=float(self.duality_gap_rel[i]),
            cs_residual=float(self.cs_residual[i]),
            layout=layout,
        )


def _raise_for_status(t: int, status: str) -> None:
    if status == solver.INFEASIBLE:
        raise InfeasibleMarketError(
            f"interval {t}: clearing infeasible (requirements exceed fleet capability)"
        )
    if status == solver.UNBOUNDED:
        raise UnboundedMarketError(f"interval {t}: clearing unbounded (malformed bids)")
    if status != solver.OPTIMAL:
        raise ClearingError(f"interval {t}: solver returned {status}")


def _check_contracts(t: int, duality_gap_rel: np.ndarray, cs_residual: np.ndarray) -> None:
    """The clearing contracts over clears of interval ``t``, one value per
    clear; raises for the first clear that breaks one."""
    gap_bad = duality_gap_rel > STRONG_DUALITY_TOL
    bad = gap_bad | (cs_residual > CS_TOL)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if gap_bad[i]:
        raise ClearingError(f"interval {t}: strong-duality gap {duality_gap_rel[i]:.3e}")
    raise ClearingError(f"interval {t}: complementary slackness residual {cs_residual[i]:.3e}")


def clear_batch(layout: LlLayout, bids: np.ndarray) -> ClearingBatch:
    """Clear the layout's interval at each row of ``bids``, a :func:`bid_array`,
    and extract schedule, prices and dual bookkeeping; the one way to clear.

    Each run of nonzero-bid rows solves through the layout's model in one
    :meth:`solver.LpModel.solve_batch`, and the clearing contracts are
    checked over the run at once. A row whose bids are all zero solves the
    layout's storage-free sub-LP, and the storage duals are rebuilt from
    stationarity afterwards, so its prices are exactly the no-storage prices
    (zero-bid neutrality) and its duals still satisfy the full first-order
    system. The rows clear in order, so the error raised is the first
    failing row's; a negative bid raises ``ValueError`` before any solve.
    """
    bids = np.asarray(bids, dtype=float)
    _check_bids(layout.t, bids)
    k = len(bids)
    out = ClearingBatch(layout=layout, x=np.empty((k, layout.n_cols)),
                        row_duals=np.empty((k, layout.n_rows)),
                        lower_duals=np.empty((k, layout.n_cols)), objective=np.empty(k),
                        duality_gap_rel=np.empty(k), cs_residual=np.empty(k))
    # the batch fields, in the order _clear_zero_bids returns them
    fields = ("x", "row_duals", "lower_duals", "objective", "duality_gap_rel", "cs_residual")
    start = 0
    for zero in np.flatnonzero(~bids.any(axis=1)).tolist() + [k]:
        if zero > start:
            run = _clear_run(layout, bids[start:zero])
            for name in fields:
                getattr(out, name)[start:zero] = getattr(run, name)
        if zero < k:
            for name, value in zip(fields, _clear_zero_bids(layout)):
                getattr(out, name)[zero] = value
        start = zero + 1
    return out


def _clear_run(layout: LlLayout, bids: np.ndarray) -> solver.BatchOutcome:
    """Nonzero-bid rows through the layout's model. The model's solve has
    checked feasibility and its duality gap; the clear checks the
    strong-duality gap and complementary slackness, then reports the
    model's failure or status, if any."""
    t = layout.t
    out = layout.model.solve_batch(layout.rhs_for(bids))
    _check_contracts(t, out.duality_gap_rel, out.cs_residual)
    if out.failure is not None:
        raise ClearingError(f"interval {t}: {out.failure}")
    _raise_for_status(t, out.status)
    return out


def _clear_zero_bids(layout: LlLayout) -> tuple:
    """A zero-bid row's x, row duals, lower duals, objective, duality gap
    and cs residual."""
    t = layout.t
    free, kept_rows = layout.storage_free_lp()
    try:
        out = solver.solve_lp(free)
    except solver.SolverError as exc:
        raise ClearingError(f"interval {t}: {exc}") from exc
    _raise_for_status(t, out.status)

    n_gen_cols = len(free.c)
    x = np.zeros(layout.n_cols)
    x[:n_gen_cols] = out.x
    row_duals = np.zeros(layout.n_rows)
    row_duals[kept_rows] = out.row_duals
    lower_duals = np.zeros(layout.n_cols)
    lower_duals[:n_gen_cols] = out.lower_duals

    # storage duals reconstructed from stationarity; every storage row has
    # zero slack at zero bids so any nonnegative dual is complementary
    beta = layout.interval.bess_price_bids
    dt = layout.delta_t
    lam = row_duals[layout.row_balance]
    y_rs = row_duals[layout.row_reserve_req]
    y_c = row_duals[layout.row_regcap_req]
    y_m = row_duals[layout.row_mileage_req]
    mult = layout.scenario.bess.mileage_multiplier
    br = layout.bid_rows

    w12 = max(0.0, dt * beta.mileage - y_m)
    w13 = max(0.0, y_m - dt * beta.mileage)
    row_duals[layout.row_mil_floor_bess] = w12
    row_duals[layout.row_mil_cap_bess] = -w13
    row_duals[br["sell"]] = min(0.0, dt * beta.sell - lam)
    lower_duals[layout.col_bs] = max(0.0, dt * beta.sell - lam)
    row_duals[br["buy"]] = min(0.0, lam - dt * beta.buy)
    lower_duals[layout.col_bd] = max(0.0, lam - dt * beta.buy)
    row_duals[br["reserve"]] = min(0.0, dt * beta.reserve - y_rs)
    lower_duals[layout.col_brs] = max(0.0, dt * beta.reserve - y_rs)
    q = dt * beta.regcap + w12 - mult * w13 - y_c
    row_duals[br["regcap"]] = min(0.0, q)
    lower_duals[layout.col_brgc] = max(0.0, q)

    lp = layout.build_lp()
    core = solver.Residuals(lp)
    no_upper = np.zeros(layout.n_cols)
    cs = core.cs(x, core.activity(x), lp.rhs, row_duals, lower_duals, no_upper)
    stationarity = core.stationarity(row_duals, lower_duals, no_upper)
    if stationarity > STATIONARITY_TOL:
        raise ClearingError(
            f"interval {t}: reconstructed storage duals violate stationarity "
            f"({stationarity:.3e})"
        )
    _check_contracts(t, np.array([out.duality_gap_rel]), np.array([cs]))
    return x, row_duals, lower_duals, out.objective, out.duality_gap_rel, cs


def clear_horizon(scn: Scenario, bids: list[BessBids] | None = None) -> list[ClearingResult]:
    """Clear every interval independently (no cross-interval coupling).

    ``bids=None`` clears every interval at :data:`ZERO_BIDS`, which gives
    the storage-free prices; otherwise one :class:`BessBids` per interval is
    required.
    """
    n = scn.n_intervals
    if bids is None:
        bids = [ZERO_BIDS] * n
    if len(bids) != n:
        raise ValueError(f"need {n} bid quadruples, got {len(bids)}")
    results = []
    for t in range(n):
        try:
            batch = clear_batch(LlLayout(scn, t), bid_array([bids[t]]))
        except ValueError as exc:  # a negative bid; the message names the interval
            raise ClearingError(str(exc)) from exc
        results.append(batch.result(0))
    return results
