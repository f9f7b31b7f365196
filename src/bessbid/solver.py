"""Embedded LP/MILP solving with dual extraction, plus MPS export/import.

Every LP and MILP goes to HiGHS through one class, :class:`LpModel`, in one
of two row layouts chosen from the problem (its docstring says why there are
two). LPs are solved by dual simplex so optimal bases are vertices and
constraint duals are available; MILPs go through branch-and-bound on binary
variables. LPs solve in batches (:meth:`LpModel.solve_batch`, one LP is a
batch of one), each reporting a :class:`BatchOutcome` with one row per
solve; a MILP solve (:func:`solve_milp`) reports a :class:`SolveOutcome`.

An LP minimizes, and its columns have lower bounds only: every upper
limit is a row, as the clearing LPs build them, so every limit has its own
row dual. :class:`LpProblem` holds no other shape; a :class:`MilpProblem`
adds upper bounds, integrality and the choice to maximize.

Dual sign convention: ``row_duals[r]`` is the sensitivity of the optimal
objective to the RHS of row ``r`` in the row's *original* sense: duals of
``>=`` rows are >= 0, duals of ``<=`` rows are <= 0, equality duals are
free. ``lower_duals`` are the reduced costs attributed to the lower bounds,
>= 0.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import os
import sys
import time
from array import array
from dataclasses import dataclass, replace

import numpy as np
import scipy

log = logging.getLogger(__name__)

_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs():
    """scipy's private HiGHS bindings, loaded without ``scipy.optimize``.

    ``import scipy.optimize._highspy._core`` first runs the package's
    ``__init__``, which loads linprog, minimize, scipy.linalg, scipy.special
    and scipy.fft: about 24 MB of RSS and 0.5 s of start-up that nothing
    here uses. So the extension is loaded from its file in the package's
    directory, and registered under its scipy name first, so that a later
    ``import scipy.optimize`` shares this module object; one already
    imported is reused.
    """
    module = sys.modules.get(_HIGHS_MODULE)
    if module is not None:
        return module
    # the package's spec is found by running scipy/__init__.py alone
    package = importlib.util.find_spec("scipy.optimize")
    directory = os.path.join(package.submodule_search_locations[0], "_highspy")
    spec = importlib.machinery.PathFinder.find_spec(_HIGHS_MODULE, [directory])
    if spec is None:
        raise ImportError(f"no HiGHS bindings {_HIGHS_MODULE} in {directory} "
                          f"(scipy {scipy.__version__})")
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_MODULE] = module
    spec.loader.exec_module(module)
    return module


# private: the HiGHS bindings bundled with scipy, used only by LpModel
_highs = _load_highs()

# status values of SolveOutcome and BatchOutcome
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
GAP_LIMIT = "gap_limit"
TIME_LIMIT = "time_limit"

FEASIBILITY_TOL = 1e-7
DUALITY_GAP_TOL = 1e-6

SENSE_LE = "<"
SENSE_EQ = "="
SENSE_GE = ">"


class SolverError(RuntimeError):
    """Backend failure or contract violation (not a status like infeasible)."""


def _index_dtype(shape: tuple[int, int], nnz: int) -> type:
    """The index dtype scipy gives a matrix of ``shape`` and ``nnz`` entries:
    int32 where every index and count fits."""
    return np.int32 if max(*shape, nnz) <= np.iinfo(np.int32).max else np.int64


class CsrMatrix:
    """A sparse matrix in compressed sparse row (CSR) form, held as plain
    numpy arrays: row ``i`` has the entries ``data[indptr[i]:indptr[i + 1]]``
    in the columns ``indices[indptr[i]:indptr[i + 1]]``.

    Every matrix here is canonical, as scipy's ``coo_matrix(...).tocsr()``
    builds one: rows ascending, columns ascending within a row, no
    duplicates; explicit zeros are kept. The arrays are not changed after
    construction, so the row of each entry and the column-major arrays are
    computed once, when first asked for.

    It holds the little a matrix needs here without ``scipy.sparse``, whose
    import loads a copy of the numpy namespace (``numpy.f2py``,
    ``numpy.testing`` and some 270 other modules, about 20 MB of RSS);
    :meth:`tocsr` hands the arrays to scipy for callers that want it.
    """

    def __init__(self, indptr, indices, data, shape: tuple[int, int]):
        self.shape = (int(shape[0]), int(shape[1]))
        self.data = np.asarray(data)
        index = _index_dtype(self.shape, len(self.data))
        self.indptr = np.asarray(indptr, dtype=index)
        self.indices = np.asarray(indices, dtype=index)

    @classmethod
    def from_entries(cls, rows, cols, vals, shape: tuple[int, int]) -> CsrMatrix:
        """The matrix of the entries ``vals[k]`` at ``(rows[k], cols[k])``,
        sorted by row, then column, with duplicates summed in entry order."""
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals)
        m, n = shape
        if len(rows) and not (0 <= rows.min() and rows.max() < m
                              and 0 <= cols.min() and cols.max() < n):
            raise ValueError(f"entry index out of bounds for shape {shape}")
        order = np.argsort(rows * n + cols, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        if not first.all():
            starts = np.flatnonzero(first)
            rows, cols, vals = rows[starts], cols[starts], np.add.reduceat(vals, starts)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
        return cls(indptr, cols, vals, shape)

    @property
    def nnz(self) -> int:
        return len(self.data)

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """The row of each stored entry; with ``indices`` and ``data``, the
        matrix as entries."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def dot(self, x: np.ndarray) -> np.ndarray:
        """``A x``, one row per row of a 2-D ``x``; a 1-D ``x`` is the
        one-row product.

        Each row of ``A`` is summed entry by entry in storage order, from
        0.0, which is how scipy's ``csr_matvec`` and ``csr_matvecs`` add
        them, so the sums are the same bits. The sums run over the entry
        positions within a row: the ``p``-th entry of every row that has one
        is added at once, for every row of ``x``.
        """
        x = np.asarray(x)
        m, n = self.shape
        if x.ndim not in (1, 2) or x.shape[-1] != n:
            raise ValueError(f"cannot multiply a {self.shape} matrix by shape {x.shape}")
        if x.ndim == 1:
            return self.dot(x[None])[0]
        # the rows longest first, so that the rows with a p-th entry come
        # first; the sums run on transposes, whose rows are contiguous
        order = np.argsort(-np.diff(self.indptr), kind="stable")
        lengths, starts = np.diff(self.indptr)[order], self.indptr[order]
        dtype = np.result_type(self.data, x)
        xt = np.ascontiguousarray(x.T, dtype=dtype)
        out = np.zeros((m, len(x)), dtype=dtype)
        for p in range(lengths[0] if m else 0):
            at = starts[:np.count_nonzero(lengths > p)] + p
            terms = xt[self.indices[at]]
            terms *= self.data[at, None]
            out[:len(at)] += terms
        return np.ascontiguousarray(out[np.argsort(order)].T)

    @functools.cached_property
    def csc(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The matrix column-major, as ``(indptr, indices, data)`` of scipy's
        ``tocsc()``: each column's entries in ascending row order."""
        m, n = self.shape
        index = _index_dtype(self.shape, self.nnz)
        order = np.argsort(self.indices, kind="stable")
        indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(np.bincount(self.indices, minlength=n), out=indptr[1:])
        rows = np.repeat(np.arange(m, dtype=index), np.diff(self.indptr))
        return indptr, rows[order], self.data[order]

    def take(self, rows, cols) -> CsrMatrix:
        """The rows ``rows``, in their order, restricted to the ascending
        columns ``cols``: scipy's ``a[rows][:, cols]``."""
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        col_at = np.full(self.shape[1], -1, dtype=np.intp)
        col_at[cols] = np.arange(len(cols))
        lengths = np.diff(self.indptr)[rows]
        at = np.arange(lengths.sum()) + np.repeat(
            self.indptr[rows] - (np.cumsum(lengths) - lengths), lengths)
        col = col_at[self.indices[at]]
        keep = col >= 0
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(np.bincount(np.repeat(np.arange(len(rows)), lengths)[keep],
                              minlength=len(rows)), out=indptr[1:])
        return CsrMatrix(indptr, col[keep], self.data[at[keep]], (len(rows), len(cols)))

    def toarray(self) -> np.ndarray:
        """The dense matrix."""
        out = np.zeros(self.shape, dtype=self.data.dtype)
        np.add.at(out, (self.rows, self.indices), self.data)
        return out

    def tocsr(self):
        """A ``scipy.sparse.csr_matrix`` on the same arrays; imports
        ``scipy.sparse``, which nothing else here does."""
        import scipy.sparse

        return scipy.sparse.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)


@dataclass
class LpProblem:
    """Linear program in row-sense form: minimize ``c x`` subject to each
    row of ``a x`` against ``rhs`` in its sense, one of '<', '=', '>' per
    row, over columns with lower bounds ``lower`` only (-inf allowed). Every
    upper limit is a row, as the clearing LPs build them (see the module
    docstring)."""

    c: np.ndarray
    a: CsrMatrix
    senses: np.ndarray
    rhs: np.ndarray
    lower: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]

    @property
    def n_cols(self) -> int:
        return self.a.shape[1]

    def validate(self) -> None:
        if not isinstance(self.a, CsrMatrix):
            raise TypeError(f"a must be a CsrMatrix, got {type(self.a).__name__}")
        m, n = self.a.shape
        if len(self.c) != n:
            raise ValueError(f"objective length {len(self.c)} != {n} columns")
        if len(self.rhs) != m or len(self.senses) != m:
            raise ValueError(f"rhs/senses length mismatch with {m} rows")
        if len(self.lower) != n:
            raise ValueError(f"bounds length mismatch with {n} columns")
        bad = set(self.senses.tolist()) - {SENSE_LE, SENSE_EQ, SENSE_GE}
        if bad:
            raise ValueError(f"unknown row senses: {sorted(bad)}")


@dataclass
class MilpProblem(LpProblem):
    """An LP plus upper bounds ``upper`` (+inf allowed), integrality markers
    and an orientation: it maximizes when ``maximize``. Every integer
    variable is a binary."""

    upper: np.ndarray
    integrality: np.ndarray
    maximize: bool = False

    def validate(self) -> None:
        super().validate()
        if len(self.upper) != self.n_cols or len(self.integrality) != self.n_cols:
            raise ValueError(f"upper/integrality length mismatch with {self.n_cols} columns")
        if np.any(self.lower > self.upper):
            k = int(np.argmax(self.lower > self.upper))
            raise ValueError(f"lower > upper for column {k}")
        mask = np.asarray(self.integrality, dtype=bool)
        if np.any(self.lower[mask] < 0) or np.any(self.upper[mask] > 1):
            raise ValueError("integer variables must have bounds within [0, 1]")


@dataclass
class SolveOutcome:
    """A MILP solve of :func:`solve_milp`; a status without a solution
    leaves the solution fields None."""

    status: str
    objective: float | None = None
    x: np.ndarray | None = None
    mip_gap: float | None = None
    node_count: int | None = None
    wall_time: float = 0.0


@dataclass
class BatchOutcome:
    """The solves of :meth:`LpModel.solve_batch`, one row per solved batch
    row.

    The rows are those before the first batch row that failed. ``failure``
    is that row's backend failure or contract violation, as the message of
    the :class:`SolverError` it stands for; otherwise ``status`` is its
    status (``OPTIMAL`` when every row solved and met the contracts).
    """

    status: str
    failure: str | None
    objective: np.ndarray
    x: np.ndarray
    row_duals: np.ndarray
    lower_duals: np.ndarray
    feasibility_residual: np.ndarray
    duality_gap_rel: np.ndarray
    cs_residual: np.ndarray
    basic: np.ndarray   # (k, rows) each row's basic variables, ascending (see solve_batch)


def _violation(le: np.ndarray, ge: np.ndarray, ax: np.ndarray, rhs) -> np.ndarray:
    d = ax - rhs
    return np.where(le, d, np.where(ge, rhs - ax, np.abs(d)))


def row_violation(senses: np.ndarray, ax: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Per-row violation of ``ax`` against ``rhs`` in each row's sense:
    positive where a row is violated, and ``|ax - rhs|`` on '=' rows."""
    return _violation(senses == SENSE_LE, senses == SENSE_GE, ax, rhs)


def _max0(v: np.ndarray) -> np.floating | np.ndarray:
    """``max(0, max(v))`` over the last axis, 0 for an empty one; a NaN
    propagates."""
    return np.maximum.reduce(v, axis=-1, initial=0.0)


class Residuals:
    """The first-order residuals of one LP, over its static data computed once.

    The static data are the matrix, the sense masks and the finite lower
    bounds. The right-hand sides and costs are passed to each call, so one
    core serves every LP that shares the matrix, senses and bounds:
    :class:`LpModel` holds one per LP model, and the bidding verifier checks
    every interval of a scenario on one. Each block is a max absolute violation, 0 when it
    holds; ``ax`` is the row activity ``A x`` from :meth:`activity`. Every
    block also takes one point per row of 2-D arrays and returns one
    residual per row.
    """

    def __init__(self, problem: LpProblem):
        self.problem = problem
        self.a = problem.a
        self.le = problem.senses == SENSE_LE
        self.ge = problem.senses == SENSE_GE
        self.ineq = np.flatnonzero(problem.senses != SENSE_EQ)
        self.fin_lo = np.flatnonzero(np.isfinite(problem.lower))
        self.lower_fin = problem.lower[self.fin_lo]

    def activity(self, x: np.ndarray) -> np.ndarray:
        """``A x``, one row per row of a 2-D ``x`` (:meth:`CsrMatrix.dot`)."""
        return self.a.dot(x)

    def primal(self, x: np.ndarray, ax: np.ndarray, rhs: np.ndarray) -> np.floating | np.ndarray:
        """Max violation of rows and lower bounds at x."""
        return _max0(np.concatenate((_violation(self.le, self.ge, ax, rhs),
                                     self.problem.lower - x), axis=-1))

    def stationarity(self, y: np.ndarray, nu_lo: np.ndarray,
                     c: np.ndarray) -> np.floating | np.ndarray:
        """Max of |c - A'y - nu| at costs ``c``; for 2-D arrays, one
        residual per row, each row with its own costs."""
        # A'y summed entry by entry in the matrix's row-major order, which is
        # the order a product with the transpose adds them in, so the sums
        # are the same bits without building a sparse transpose; each row of
        # a 2-D y counts into its own block of bins
        a, n = self.a, self.problem.n_cols
        weights = a.data * y[..., a.rows]
        k = len(y) if y.ndim == 2 else 1
        bins = (np.arange(k)[:, None] * n + a.indices).ravel()
        a_ty = np.bincount(bins, weights=weights.ravel(), minlength=k * n)
        return _max0(np.abs(c - a_ty.reshape(y.shape[:-1] + (n,)) - nu_lo))

    def dual_sign(self, y: np.ndarray, nu_lo: np.ndarray) -> np.floating | np.ndarray:
        """Max sign violation of the duals."""
        # a '<' row's dual must be <= 0 and a '>' row's >= 0, so its sign
        # violation is the row violation of the dual against zero
        rows = _max0(_violation(self.le, self.ge, y, 0.0)[..., self.ineq])
        return np.maximum(rows, _max0(-nu_lo))

    def cs(self, x: np.ndarray, ax: np.ndarray, rhs: np.ndarray, y: np.ndarray,
           nu_lo: np.ndarray) -> np.floating | np.ndarray:
        """Max |dual x slack| over inequality rows and finite lower bounds."""
        cs = _max0(np.abs(y * (ax - rhs))[..., self.ineq])
        if len(self.fin_lo):
            lo = self.fin_lo
            cs = np.maximum(cs, _max0(np.abs(nu_lo[..., lo] * (x[..., lo] - self.lower_fin))))
        return cs


# HiGHS model statuses as outcome statuses, for LPs and MILPs alike; any
# other is a backend failure. MIP solves can end "unbounded or infeasible".
_MS = _highs.HighsModelStatus
_STATUS = {_MS.kOptimal: OPTIMAL, _MS.kInfeasible: INFEASIBLE, _MS.kModelError: INFEASIBLE,
           _MS.kUnbounded: UNBOUNDED, _MS.kUnboundedOrInfeasible: UNBOUNDED,
           _MS.kTimeLimit: TIME_LIMIT, _MS.kIterationLimit: TIME_LIMIT}
_VAR_TYPES = (_highs.HighsVarType.kContinuous, _highs.HighsVarType.kInteger)


def _highs_options(mip: bool) -> _highs.HighsOptions:
    """A model's HiGHS options: logging off, and for a pure LP linprog's
    options (see :class:`LpModel`)."""
    options = _highs.HighsOptions()
    options.output_flag = False
    if not mip:
        options.presolve = "on"
        options.solver = "simplex"
        options.simplex_strategy = int(
            _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
        options.primal_feasibility_tolerance = FEASIBILITY_TOL
        options.dual_feasibility_tolerance = FEASIBILITY_TOL
    return options


# built once; passOptions copies them into each model
_OPTIONS = {False: _highs_options(False), True: _highs_options(True)}


class LpModel:
    """One LP or MILP held in a HiGHS instance; the only code that builds one.

    The model goes to HiGHS (Huangfu & Hall, Math. Prog. Comp. 2018) through
    the bindings bundled with scipy, which are private to scipy, with logging
    off, in one of two row layouts chosen by the problem's type:

    - An :class:`LpProblem` goes in the form scipy's ``linprog(method="highs-ds")`` gives
      it: '<' rows, then negated '>' rows, then '=' rows; presolve on, dual
      simplex, both feasibility tolerances at ``FEASIBILITY_TOL``. In problem
      row order, 4320 of 5376 bid-grid clears of the desk system with zero
      reserve and mileage requirements land on other awards, and every zero
      '>'-row dual comes back as -0.0, which would print as a -0.0 price.
      The matrix goes column-wise, in that row order.
    - A :class:`MilpProblem` keeps the problem's rows with
      ``[lower, upper]`` row bounds and HiGHS's default options, as scipy's
      ``milp`` passed them; :func:`solve_milp` sets only the gap and the time
      limit. In the LP layout, desk case 4 lands on another incumbent. The
      matrix goes row-wise, as the problem's :class:`CsrMatrix` holds it, so
      a solve builds no column-major copy.

    Every solve starts cold: the clearing LPs are dual degenerate, and a solve
    warm-started from the previous basis can stop at another optimal vertex
    (other awards or prices) than a fresh model would.

    The row data an LP solve's checks need (sense masks, the matrix, the
    finite lower bounds, the backend row permutation and signs) are computed
    once, in :attr:`residuals` and the backend layout; a MILP model has
    neither, since :func:`solve_milp` checks no rows. :meth:`solve_batch`
    solves one right-hand side and one cost vector per row and checks the
    whole batch at once, forming ``A X`` once for the feasibility contract
    and the complementary-slackness residual. One model thus serves every LP
    that shares its matrix, senses and bounds: the clear of each interval of
    a scenario.
    """

    def __init__(self, problem: LpProblem):
        problem.validate()
        if not all(np.isfinite(v).all() for v in (problem.c, problem.a.data, problem.rhs)):
            raise ValueError("objective, constraint coefficients and rhs must be finite")
        self.problem = replace(problem, c=np.array(problem.c, dtype=float),
                               rhs=np.array(problem.rhs, dtype=float))
        self.is_mip = isinstance(problem, MilpProblem)

        lp = _highs.HighsLp()
        if self.is_mip:   # the matrix row-wise, as it is held
            a = problem.a
            matrix_format = _highs.MatrixFormat.kRowwise
            start, index, value = a.indptr, a.indices, a.data
            row_lower = np.where(problem.senses == SENSE_LE, -np.inf, self.problem.rhs)
            row_upper = np.where(problem.senses == SENSE_GE, np.inf, self.problem.rhs)
            lp.integrality_ = [_VAR_TYPES[k] for k in np.asarray(problem.integrality).tolist()]
            lp.col_cost_ = -problem.c if problem.maximize else np.array(problem.c, dtype=float)
            lp.col_upper_ = np.array(problem.upper, dtype=float)
        else:
            self.residuals = Residuals(self.problem)
            matrix_format = _highs.MatrixFormat.kColwise
            start, index, value, row_lower, row_upper = self._lp_rows()
            lp.col_cost_ = np.array(problem.c, dtype=float)
            lp.col_upper_ = np.full(problem.n_cols, np.inf)
        lp.num_col_ = problem.n_cols
        lp.num_row_ = problem.n_rows
        lp.a_matrix_.num_col_ = problem.n_cols
        lp.a_matrix_.num_row_ = problem.n_rows
        lp.a_matrix_.format_ = matrix_format
        lp.a_matrix_.start_ = start
        lp.a_matrix_.index_ = index
        lp.a_matrix_.value_ = value
        lp.col_lower_ = np.array(problem.lower, dtype=float)  # +-inf is HiGHS's infinity
        lp.row_lower_ = row_lower
        lp.row_upper_ = row_upper
        self._highs = _highs._Highs()
        if self._highs.passOptions(_OPTIONS[self.is_mip]) == _highs.HighsStatus.kError:
            raise SolverError("HiGHS refused the model")
        self._pass_model(lp)
        if not self.is_mip:   # kept to pass again at new costs (see solve_batch)
            self._lp = lp

    def _pass_model(self, lp: _highs.HighsLp) -> None:
        """Give HiGHS the model afresh."""
        if self._highs.passModel(lp) == _highs.HighsStatus.kError:
            raise SolverError("HiGHS refused the model")

    def _lp_rows(self):
        """linprog's rows: '<' rows, negated '>' rows, '=' rows, with the
        permutation and signs :meth:`solve_batch` maps right-hand sides and duals by."""
        p = self.problem
        le = np.flatnonzero(p.senses == SENSE_LE)
        ge = np.flatnonzero(p.senses == SENSE_GE)
        eq = np.flatnonzero(p.senses == SENSE_EQ)
        self._order = np.concatenate([le, ge, eq])   # backend row -> problem row
        self._pos = np.argsort(self._order)          # problem row -> backend row
        self._sign = np.concatenate([np.ones(len(le)), -np.ones(len(ge)), np.ones(len(eq))])
        self._n_ineq = len(le) + len(ge)

        # the backend matrix column-wise in one step: each entry moves to its
        # backend row, '>' rows are negated, and every column lists its rows
        # in ascending order
        a = p.a
        rows = self._pos[a.rows]
        order = np.lexsort((rows, a.indices))
        start = np.zeros(p.n_cols + 1, dtype=np.int32)
        np.cumsum(np.bincount(a.indices, minlength=p.n_cols), out=start[1:])
        return (start, rows[order].astype(np.int32), (a.data * self._sign[rows])[order],
                *self._row_bounds(p.rhs))

    def _row_bounds(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The backend row bounds of right-hand sides ``rhs`` in problem row order."""
        row_upper = self._sign * rhs[self._order]
        row_lower = row_upper.copy()
        row_lower[: self._n_ineq] = -_highs.kHighsInf
        return row_lower, row_upper

    def _run(self, **options) -> tuple[str, float]:
        """Set ``options``, solve and map HiGHS's model status; returns the
        status and the solve's wall time. The solve
        is cold when the model is new or its solver data were cleared."""
        for name, value in options.items():
            if self._highs.setOptionValue(name, value) == _highs.HighsStatus.kError:
                raise SolverError(f"HiGHS refused option {name}={value!r}")
        t0 = time.perf_counter()
        self._highs.run()
        wall = time.perf_counter() - t0
        status = self._highs.getModelStatus()
        if status not in _STATUS:
            raise SolverError(
                f"HiGHS backend failure: {self._highs.modelStatusToString(status)}")
        return _STATUS[status], wall

    def solve_batch(self, rhs: np.ndarray, c: np.ndarray) -> BatchOutcome:
        """Solve the LP from scratch once per row of ``rhs``, a ``(k, rows)``
        array of right-hand sides in problem row order and senses, and of
        ``c``, a ``(k, columns)`` array of costs.

        Each solve moves only the rows whose right-hand side differs, bit for
        bit, from the model's current one, so a -0.0 replacing 0.0 reaches
        the backend too. A row whose costs differ, bit for bit, from the
        current ones passes the whole model to HiGHS again, at the row's
        costs and right-hand sides: changing the costs of a model that has
        solved can leave HiGHS on other bits than a fresh model finds (4 of
        96 reference-system intervals at fixed bids). The model keeps the
        last right-hand sides and costs it was given. The loop touches HiGHS
        alone; the feasibility and duality-gap contracts, and the
        complementary-slackness residual the outcome reports, are then
        computed over the whole batch, with ``A X`` formed once.

        The solves stop at the first row that is not optimal. The outcome
        holds the rows before the first row that failed, whether by its
        status or by a contract; a caller that checks its own contracts over
        those rows and then reports the failure reports the first failing
        row, as one solve per row would.

        Each solve copies out the solution, duals, basis and objective. The
        basis is HiGHS's list of basic variables, one per row, reported in
        ``basic`` in ascending order with column ``j`` as ``j`` and the
        slack of problem row ``r`` as ``columns + r``. A nonbasic column's
        reduced cost is its lower bound's dual when the column sits at that
        bound; every other column's is 0.
        """
        problem, highs = self.problem, self._highs
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim != 2 or rhs.shape[1] != problem.n_rows or not np.isfinite(rhs).all():
            raise ValueError(f"rhs must hold {problem.n_rows} finite values per row")
        k, n = len(rhs), problem.n_cols
        # the backend row bounds each solve moves, as (row, lower, upper)
        # per batch row, against the rhs the previous solve left behind
        rows, cols = np.nonzero(_moved(problem.rhs, rhs))
        changes: list[list] = [[] for _ in range(k)]
        if len(rows):
            ks = self._pos[cols]
            for r, kk, b in zip(rows.tolist(), ks.tolist(),
                                (self._sign[ks] * rhs[rows, cols]).tolist()):
                changes[r].append((kk, -_highs.kHighsInf if kk < self._n_ineq else b, b))
        # the batch rows whose costs differ from the ones before
        c = np.asarray(c, dtype=float)
        if c.shape != (k, n) or not np.isfinite(c).all():
            raise ValueError(f"c must hold {n} finite values per row of rhs")
        new_costs = _moved(problem.c, c).any(axis=1).tolist()

        x, backend_duals, col_dual = np.empty((k, n)), np.empty((k, problem.n_rows)), np.empty((k, n))
        basic = np.empty((k, problem.n_rows), dtype=np.int32)
        fun = np.empty(k)
        status, failure = OPTIMAL, None
        solved = 0
        for i in range(k):
            # drop the previous solve's basis and solution, so the solve
            # starts cold; a bound change also costs less without them
            highs.clearSolver()
            if new_costs[i]:   # the whole model, as the docstring says why
                lp = self._lp
                lp.col_cost_ = c[i]
                lp.row_lower_, lp.row_upper_ = self._row_bounds(rhs[i])
                self._pass_model(lp)
            else:
                for change in changes[i]:
                    highs.changeRowBounds(*change)
            try:
                status, _ = self._run()
            except SolverError as exc:
                failure = str(exc)
                break
            if status != OPTIMAL:
                break
            solution = highs.getSolution()
            x[i] = solution.col_value
            backend_duals[i] = solution.row_dual
            col_dual[i] = solution.col_dual
            basic[i] = highs.getBasicVariables()[1]
            fun[i] = highs.getObjectiveValue()
            solved = i + 1
        if k:   # the model keeps the last right-hand sides and costs it was given
            problem.rhs[:] = rhs[i]
            problem.c[:] = c[i]
        if solved < k:
            x, backend_duals, col_dual, basic, fun, rhs = (
                a[:solved] for a in (x, backend_duals, col_dual, basic, fun, rhs))

        # HiGHS names the slack of backend row r as -(r + 1)
        slack = basic < 0
        basic = np.where(slack, n + self._order[np.where(slack, -1 - basic, 0)], basic)
        basic.sort(axis=1)
        column = basic < n
        nonbasic = np.ones((len(x), n), dtype=bool)
        nonbasic[np.nonzero(column)[0], basic[column]] = False

        # duals mapped back to the rows' original senses
        row_duals = (self._sign * backend_duals).take(self._pos, axis=1)
        lower_duals = np.where(nonbasic & (x == problem.lower), col_dual, 0.0)

        # duality gap; each row's dual objective adds the same dot products,
        # over contiguous vectors, in the same order as one solve's, so it is
        # the same bits (np.vecdot takes each row's dot as ``@`` does, but a
        # dot over strided vectors can round differently, hence ``take``,
        # which keeps rows contiguous); the bound term is added only when the
        # model has finite lower bounds (an empty one is 0.0, and |objective -
        # dual objective| is the same without it)
        core, m = self.residuals, self._n_ineq
        backend_rhs = self._sign * rhs.take(self._order, axis=1)
        dual_obj = (np.vecdot(backend_rhs[:, :m], backend_duals[:, :m])
                    + np.vecdot(backend_rhs[:, m:], backend_duals[:, m:]))
        if len(core.fin_lo):
            dual_obj += np.vecdot(core.lower_fin, lower_duals.take(core.fin_lo, axis=1))
        gap_rel = np.abs(fun - dual_obj) / np.maximum(1.0, np.abs(fun))
        ax = core.activity(x)
        resid = core.primal(x, ax, rhs)
        ok = (resid <= FEASIBILITY_TOL * 10) & (gap_rel <= DUALITY_GAP_TOL)
        if not ok.all():
            f = int(np.argmin(ok))
            failure = (f"optimal solve violated numeric contracts: "
                       f"residual={resid[f]:.3e}, gap={gap_rel[f]:.3e}")
            x, ax, rhs, fun, row_duals, lower_duals, resid, gap_rel, basic = (
                a[:f] for a in (x, ax, rhs, fun, row_duals, lower_duals, resid, gap_rel, basic))
        cs = core.cs(x, ax, rhs, row_duals, lower_duals)
        return BatchOutcome(
            status=status, failure=failure, objective=fun, x=x, row_duals=row_duals,
            lower_duals=lower_duals, feasibility_residual=resid, duality_gap_rel=gap_rel,
            cs_residual=cs, basic=basic,
        )


def _moved(current: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Where each row of ``rows`` differs, bit for bit, from the row before
    it, the first row from ``current``."""
    bits = rows.view(np.uint64)
    return bits != np.concatenate((current.view(np.uint64)[None], bits[:-1]))


def stop_threads() -> None:
    """Stop HiGHS's worker threads; the next solve that needs them starts
    them again.

    A forked child inherits the thread scheduler's state but not its
    threads, so a solve there could wait on threads that do not exist. Call
    this before forking processes that solve.
    """
    _highs._Highs.resetGlobalScheduler(True)


def solve_milp(problem: MilpProblem, gap_tol: float = 1e-6,
               time_limit: float | None = None) -> SolveOutcome:
    """Branch-and-bound solve of a binary MILP; the backend is deterministic
    for fixed inputs."""
    model = LpModel(problem)
    # HiGHS's MIP solver can print a hard-coded debug line to C stdout, which
    # no option silences; stdout carries command output, so send it to stderr
    sys.stdout.flush()
    saved_stdout = os.dup(1)
    os.dup2(2, 1)
    try:
        status, wall = model._run(  # HiGHS's default time limit is inf
            mip_rel_gap=float(gap_tol),
            time_limit=np.inf if time_limit is None else float(time_limit))
    finally:
        os.dup2(saved_stdout, 1)
        os.close(saved_stdout)
    info = model._highs.getInfo()
    # a limit reached before the first incumbent leaves no solution
    if status in (INFEASIBLE, UNBOUNDED) or info.objective_function_value == _highs.kHighsInf:
        return SolveOutcome(status=status, wall_time=wall)

    x = np.array(model._highs.getSolution().col_value, dtype=float)
    fun = info.objective_function_value
    # HiGHS solves a model without integer columns as an LP: no MIP gap
    gap = float(info.mip_gap) if np.any(problem.integrality) else None
    if status == OPTIMAL and gap is not None and gap > 1e-9:
        status = GAP_LIMIT
    return SolveOutcome(
        status=status, objective=float(-fun if problem.maximize else fun), x=x, mip_gap=gap,
        node_count=max(1, int(info.mip_node_count)), wall_time=wall,
    )


# ---------------------------------------------------------------------------
# MPS export / import
# ---------------------------------------------------------------------------

_SENSE_TO_MPS = {SENSE_LE: "L", SENSE_GE: "G", SENSE_EQ: "E"}
_MPS_TO_SENSE = {v: k for k, v in _SENSE_TO_MPS.items()}

# rows per ROWS/RHS block and columns per COLUMNS/BOUNDS block of export_mps:
# the writer's memory is set by one block, not by the model
MPS_BLOCK = 2048
# a generated name is a letter and 7 or 8 digits, so that it and one
# separating space fit its 10-character field
_MPS_MAX_NAMED = 10 ** 8 - 1


class MpsFormatError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def check_mps_name(name: str) -> None:
    """Raise ``ValueError`` unless ``name`` can head an MPS file: printable ASCII."""
    if not (name.isascii() and name.isprintable()):
        raise ValueError(f"MPS model name {name!r} is not printable ASCII")


def export_mps(problem: MilpProblem, path: str, name: str = "BESSBID") -> None:
    """Write fixed-format MPS with INTORG/INTEND integer markers.

    Canonical generated row/column names are used (R0000001...). Every value
    is written as the shortest decimal literal that round-trips to the same
    float64 (``repr``). When a literal exceeds its 12-character field, the
    line gracefully widens into whitespace-separated (free) format, which the
    bundled parser and modern external readers both accept.

    The file is written one block of :data:`MPS_BLOCK` rows or columns at a
    time; every check that can fail runs before the file is opened.
    """
    problem.validate()
    check_mps_name(name)
    if max(problem.n_rows, problem.n_cols) > _MPS_MAX_NAMED:
        raise ValueError(f"MPS names number at most {_MPS_MAX_NAMED} rows or columns")
    with open(path, "wb") as fh:
        for block in _mps_blocks(problem, name):
            fh.write(block)
    log.info("wrote MPS: %s rows=%d cols=%d", path, problem.n_rows, problem.n_cols)


def _mps_blocks(problem: MilpProblem, name: str):
    """The bytes of :func:`export_mps`'s file, a section header or a block of
    lines at a time. A block's lines are built as fixed-width records of
    bytes, NUL-padded, which :func:`_lines` merges in column order."""
    n, m = problem.n_cols, problem.n_rows
    is_int = np.asarray(problem.integrality).astype(bool)
    senses = np.asarray(problem.senses)
    c, rhs = (np.asarray(v, dtype=float) for v in (problem.c, problem.rhs))
    lower, upper = (np.asarray(b, dtype=float) for b in (problem.lower, problem.upper))
    row_fields = np.empty((m, 10), dtype=np.uint8)
    for rows in _blocks(m):
        row_fields[rows] = _fields(_names(b"R", rows))

    head = f"NAME          {name}\n"
    if problem.maximize:
        head += "OBJSENSE\n    MAX\n"
    yield (head + "ROWS\n N  OBJ\n").encode("ascii")
    for rows in _blocks(m):
        codes = np.full((len(rows), 1), ord(" "), dtype=np.uint8)
        for sense, code in _SENSE_TO_MPS.items():
            codes[senses[rows] == sense] = ord(code)
        yield _lines([(rows, _record(b" ", codes, b"  ", _names(b"R", rows)))])

    yield b"COLUMNS\n"
    # an integer run opens with an INTORG marker before its first column and
    # closes with an INTEND marker before the next column, or at the end
    edges = np.flatnonzero(np.diff(is_int, prepend=False, append=False))
    csc_indptr, csc_indices, csc_data = problem.a.csc
    for cols in _blocks(n):
        first, stop = np.searchsorted(edges, [cols[0], cols[-1] + 1])
        if cols[-1] == n - 1:
            stop = len(edges)
        markers = [f"    M{k:<9}'MARKER'                 '{'INTEND' if k % 2 else 'INTORG'}'"
                   for k in range(first, stop)]
        heads = _record(b"    ", _fields(_names(b"C", cols)))
        span = slice(csc_indptr[cols[0]], csc_indptr[cols[-1] + 1])
        data = csc_data[span]
        nonzero = data != 0.0
        at = np.repeat(np.arange(len(cols)), np.diff(csc_indptr[cols[0]:cols[-1] + 2]))[nonzero]
        yield _lines([
            (edges[first:stop], np.array(markers, dtype="S47").view(np.uint8).reshape(-1, 47)),
            # objective entry always written so every column is declared
            (cols, _record(heads, b"OBJ       ", _reprs(c[cols]))),
            (cols[at], _record(heads[at], row_fields[csc_indices[span][nonzero]],
                               _reprs(data[nonzero]))),
        ])

    yield b"RHS\n"
    for rows in _blocks(m):
        rows = rows[rhs[rows] != 0.0]
        yield _lines([(rows, _record(b"    RHS       ", row_fields[rows], _reprs(rhs[rows])))])

    yield b"BOUNDS\n"
    free = ~is_int & (lower == -np.inf) & (upper == np.inf)
    fixed = ~is_int & ~free & (lower == upper)
    ranged = ~(is_int | free | fixed)
    # a column's first line, if any, is one of BV, FR, FX, MI and LO; its UP
    # line, if any, follows it
    kinds = (("BV", is_int, None), ("FR", free, None), ("FX", fixed, lower),
             ("MI", ranged & (lower == -np.inf), None),
             ("LO", ranged & (lower != -np.inf) & (lower != 0.0), lower),
             ("UP", ranged & (upper != np.inf), upper))
    for cols in _blocks(n):
        names = _names(b"C", cols)
        fields = _fields(names)
        keyed = []
        for kind, mask, values in kinds:
            which = mask[cols]
            tail = (names[which],) if values is None else \
                (fields[which], _reprs(values[cols[which]]))
            keyed.append((2 * cols[which] + (kind == "UP"),
                          _record(f" {kind} BND       ".encode(), *tail)))
        yield _lines(keyed)
    yield b"ENDATA\n"


def _blocks(count: int):
    """The indices ``0..count-1`` in consecutive blocks of :data:`MPS_BLOCK`."""
    for start in range(0, count, MPS_BLOCK):
        yield np.arange(start, min(start + MPS_BLOCK, count))


def _names(kind: bytes, index: np.ndarray) -> np.ndarray:
    """The names ``<kind>0000001``... of the rows or columns ``index``
    (0-based), as NUL-padded 10-byte records."""
    number = index + 1
    digits = np.empty((len(index), 8), dtype=np.uint8)
    for k in range(8):
        digits[:, k] = number // 10 ** (7 - k) % 10 + ord("0")
    out = np.zeros((len(index), 10), dtype=np.uint8)
    out[:, 0] = kind[0]
    out[:, 1:8] = digits[:, 1:]
    wide = number >= 10 ** 7
    out[wide, 1:9] = digits[wide]
    return out


def _fields(names: np.ndarray) -> np.ndarray:
    """Each of the :func:`_names` ``names`` padded to its field with spaces."""
    return np.where(names == 0, np.uint8(ord(" ")), names)


def _reprs(values) -> np.ndarray:
    """``repr`` of each float64 of ``values`` as NUL-padded byte records: the
    shortest literal that reads back to the same bits, formatted once per
    distinct bit pattern (so ``-0.0`` keeps its sign)."""
    values = np.ascontiguousarray(values, dtype=float)
    bits, which = np.unique(values.view(np.int64), return_inverse=True)
    literals = np.array(list(map(repr, bits.view(float).tolist())), dtype="S")
    return literals[which].view(np.uint8).reshape(len(values), literals.itemsize)


def _record(*parts) -> np.ndarray:
    """Records of the ``parts`` side by side; a part is a 2-D ``uint8`` array
    of one record per line or a ``bytes`` constant repeated on every line."""
    n = next(len(p) for p in parts if isinstance(p, np.ndarray))
    return np.hstack([np.broadcast_to(np.frombuffer(p, np.uint8), (n, len(p)))
                      if isinstance(p, bytes) else p for p in parts])


def _lines(keyed: list[tuple[np.ndarray, np.ndarray]]) -> bytes:
    """The lines of every ``(keys, records)`` group merged in key order, each
    ended by a newline and stripped of its NUL padding; lines of equal keys
    keep the order of their groups, then their order within their group."""
    keys = np.concatenate([k for k, _ in keyed])
    width = max(records.shape[1] for _, records in keyed)
    lines = np.zeros((len(keys), width + 1), dtype=np.uint8)
    lines[:, width] = ord("\n")
    at = np.empty(len(keys), dtype=np.intp)
    at[np.argsort(keys, kind="stable")] = np.arange(len(keys))
    start = 0
    for _, records in keyed:
        stop = start + len(records)
        lines[at[start:stop], :records.shape[1]] = records
        start = stop
    return lines[lines != 0].tobytes()


def import_mps(path: str) -> MilpProblem:
    """Parse an MPS file written by :func:`export_mps` (free-format tolerant)."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return _parse_mps(fh)
    except UnicodeDecodeError:
        # the text layer decodes ahead of the parser, so find the line anew
        with open(path, "rb") as fh:
            for ln, line in enumerate(fh, start=1):
                if not line.isascii():
                    byte = next(b for b in line if b > 127)
                    raise MpsFormatError(f"non-ASCII byte 0x{byte:02x}", ln) from None
        raise


def _objsense(fields: list[str], ln: int) -> bool:
    """Whether the OBJSENSE value ``fields`` asks to maximize."""
    if len(fields) != 1 or fields[0].upper() not in ("MAX", "MIN"):
        raise MpsFormatError(f"OBJSENSE needs MAX or MIN, got '{' '.join(fields)}'", ln)
    return fields[0].upper() == "MAX"


def _parse_mps(fh) -> MilpProblem:
    """The body of :func:`import_mps`, reading the open file line by line into
    typed arrays; the end-of-file errors name the file's last line."""
    section = None
    maximize = False
    obj_row: str | None = None
    row_index: dict[str, int] = {}
    senses: list[str] = []
    col_index: dict[str, int] = {}
    rhs = array("d")
    # per column: integrality, objective and bounds
    col_int, c, lower, upper = array("b"), array("d"), array("d"), array("d")
    ent_rows, ent_cols, ent_vals = array("q"), array("q"), array("d")
    in_int = False
    saw_endata = False
    expect_objsense_value = False

    ln = 0
    for ln, line in enumerate(fh, start=1):
        fields = line.split()
        if not fields or fields[0][0] == "*":
            continue
        if expect_objsense_value:
            maximize = _objsense(fields, ln)
            expect_objsense_value = False
            continue
        if not line[0].isspace():
            head = fields[0].upper()
            if head in ("ROWS", "COLUMNS", "RHS", "BOUNDS"):
                section = head
                continue
            if head == "NAME":
                section = "NAME"
                continue
            if head == "OBJSENSE":
                section = "OBJSENSE"
                expect_objsense_value = len(fields) == 1
                if len(fields) > 1:
                    maximize = _objsense(fields[1:], ln)
                continue
            if head == "RANGES":
                raise MpsFormatError("RANGES section is not supported", ln)
            if head == "ENDATA":
                saw_endata = True
                break
            raise MpsFormatError(f"unknown section header '{fields[0]}'", ln)

        # most of a file's lines are COLUMNS entries, so that section comes first
        if section == "COLUMNS":
            n_fields = len(fields)
            if n_fields >= 3 and fields[1] == "'MARKER'":
                kind = fields[-1].strip("'").upper()
                if kind == "INTORG":
                    in_int = True
                elif kind == "INTEND":
                    in_int = False
                else:
                    raise MpsFormatError(f"unknown marker '{fields[-1]}'", ln)
                continue
            if n_fields != 3 and n_fields != 5:
                raise MpsFormatError("COLUMNS entries need 1 or 2 (row, value) pairs", ln)
            cname = fields[0]
            j = col_index.get(cname)
            if j is None:
                j = col_index[cname] = len(col_int)
                col_int.append(in_int)
                c.append(0.0)
                lower.append(0.0)
                upper.append(np.inf)
            for k in range(1, n_fields, 2):
                rname, sval = fields[k], fields[k + 1]
                try:
                    val = float(sval)
                except ValueError:
                    raise MpsFormatError(f"bad numeral '{sval}'", ln) from None
                if rname == obj_row:
                    c[j] = val
                    continue
                i = row_index.get(rname)
                if i is None:
                    raise MpsFormatError(f"unknown row '{rname}' in COLUMNS", ln)
                ent_rows.append(i)
                ent_cols.append(j)
                ent_vals.append(val)
            continue
        if section == "ROWS":
            if len(fields) != 2:
                raise MpsFormatError("ROWS entries need exactly [sense, name]", ln)
            sense, rname = fields[0].upper(), fields[1]
            if sense == "N":
                if obj_row is None:
                    obj_row = rname
                continue
            if sense not in _MPS_TO_SENSE:
                raise MpsFormatError(f"unknown row sense '{fields[0]}'", ln)
            if rname in row_index:
                raise MpsFormatError(f"duplicate row '{rname}'", ln)
            row_index[rname] = len(senses)
            senses.append(_MPS_TO_SENSE[sense])
            rhs.append(0.0)
            continue
        if section == "RHS":
            if len(fields) not in (3, 5):
                raise MpsFormatError("RHS entries need 1 or 2 (row, value) pairs", ln)
            for rname, sval in zip(fields[1::2], fields[2::2]):
                i = row_index.get(rname)
                if i is None:
                    raise MpsFormatError(f"unknown row '{rname}' in RHS", ln)
                try:
                    rhs[i] = float(sval)
                except ValueError:
                    raise MpsFormatError(f"bad numeral '{sval}'", ln) from None
            continue
        if section == "BOUNDS":
            btype = fields[0].upper()
            if btype in ("BV", "FR", "MI", "PL"):
                if len(fields) != 3:
                    raise MpsFormatError(f"{btype} bound needs [type, set, column]", ln)
            elif btype in ("UP", "LO", "FX"):
                if len(fields) != 4:
                    raise MpsFormatError(f"{btype} bound needs [type, set, column, value]", ln)
                try:
                    val = float(fields[3])
                except ValueError:
                    raise MpsFormatError(f"bad numeral '{fields[3]}'", ln) from None
            else:
                raise MpsFormatError(f"unknown bound type '{fields[0]}'", ln)
            j = col_index.get(fields[2])
            if j is None:
                raise MpsFormatError(f"unknown column '{fields[2]}' in BOUNDS", ln)
            if btype == "BV":
                lower[j], upper[j] = 0.0, 1.0
                col_int[j] = 1
            elif btype == "FR":
                lower[j], upper[j] = -np.inf, np.inf
            elif btype == "MI":
                lower[j] = -np.inf
            elif btype == "PL":
                upper[j] = np.inf
            elif btype == "UP":
                upper[j] = val
            elif btype == "LO":
                lower[j] = val
            else:
                lower[j] = upper[j] = val
            continue
        raise MpsFormatError("data line outside any section", ln)

    if not saw_endata:
        raise MpsFormatError("truncated file: ENDATA missing", ln)
    if obj_row is None:
        # the lines after ENDATA still count toward the last line's number
        raise MpsFormatError("no objective (N) row declared", ln + sum(1 for _ in fh))

    n, m = len(col_int), len(senses)
    a = CsrMatrix.from_entries(np.frombuffer(ent_rows, np.int64),
                               np.frombuffer(ent_cols, np.int64), np.frombuffer(ent_vals), (m, n))
    return MilpProblem(
        c=np.array(c), a=a, senses=np.array(senses), rhs=np.array(rhs), lower=np.array(lower),
        upper=np.array(upper), integrality=np.array(col_int, dtype=np.int8), maximize=maximize,
    )
