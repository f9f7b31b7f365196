"""LP/MILP solving and MPS round-trip behavior."""

import ast
import dataclasses
import hashlib
import importlib.machinery
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint
from scipy.optimize import milp as scipy_milp

from bessbid import bilevel, clearing, harness, solver
from bessbid.solver import (
    LpProblem,
    MilpProblem,
    MpsFormatError,
    export_mps,
    import_mps,
    solve_milp,
)
from bessbid.scenario import BessPriceBids, MarketMask, default_patterns, synthesize_scenario
from conftest import as_csr, solve_one
from test_acceptance import small_instance
from test_harness import acceptance_instance


def lp(c, rows, senses, rhs, lower):
    return LpProblem(
        c=np.array(c, dtype=float),
        a=as_csr(np.array(rows, dtype=float)),
        senses=np.array(senses),
        rhs=np.array(rhs, dtype=float),
        lower=np.array(lower, dtype=float),
    )


def test_min_x_subject_to_floor():
    # min x s.t. x >= 3
    p = lp([1.0], [[1.0]], [">"], [3.0], [-np.inf])
    out = solve_one(p)
    assert out.status == "optimal"
    assert out.x[0, 0] == pytest.approx(3.0, abs=1e-9)
    assert out.row_duals[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_two_generator_clearing_duals():
    # two supply offers at 10 and 20 $/MWh, 100 MW each (cap rows), 150 MW
    # of demand; objective carries the 0.25 h interval length
    dt = 0.25
    p = lp(
        c=[10.0 * dt, 20.0 * dt],
        rows=[[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
        senses=["=", "<", "<"],
        rhs=[150.0, 100.0, 100.0],
        lower=[0.0, 0.0],
    )
    out = solve_one(p)
    assert out.status == "optimal"
    assert out.objective[0] == pytest.approx((10 * 100 + 20 * 50) * dt, rel=1e-9)
    np.testing.assert_allclose(out.x[0], [100.0, 50.0], atol=1e-9)
    # marginal unit sets the price; raw dual carries the dt scaling
    assert out.row_duals[0, 0] / dt == pytest.approx(20.0, abs=1e-9)
    # cheap unit at its cap earns rent, the dual of its cap row
    assert out.row_duals[0, 1] / dt == pytest.approx(-10.0, abs=1e-9)
    assert out.row_duals[0, 2] == 0.0


def test_degenerate_equal_bids_unique_objective():
    # both units bid 10; the dual split is ambiguous but the objective is not
    rows, senses, rhs = [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], ["=", "<", "<"], [100.0, 80, 80]
    p1 = lp([10.0, 10.0], rows, senses, rhs, [0, 0])
    p2 = lp([10.0, 10.0], rows, senses, rhs, [0, 0])
    p2.c = p2.c[::-1].copy()  # same data, permuted construction
    o1, o2 = solve_one(p1), solve_one(p2)
    assert o1.objective[0] == pytest.approx(1000.0, rel=1e-12)
    assert o2.objective[0] == pytest.approx(1000.0, rel=1e-12)
    assert o1.duality_gap_rel[0] <= 1e-6


def test_lp_duality_contract_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n, m = 6, 4
        a = rng.uniform(-1, 1, (m, n))
        x0 = rng.uniform(0, 2, n)  # feasible by construction
        senses = rng.choice(["<", ">", "="], m)
        b = a @ x0
        pad = np.where(senses == "<", 1.0, np.where(senses == ">", -1.0, 0.0))
        # each column's cap of 5 is a '<' row
        p = lp(rng.uniform(0.1, 2.0, n), np.vstack([a, np.eye(n)]),
               np.concatenate([senses, np.full(n, "<")]),
               np.concatenate([b + pad * rng.uniform(0, 1, m), np.full(n, 5.0)]),
               np.zeros(n))
        out = solve_one(p)
        assert out.status == "optimal"
        assert out.duality_gap_rel[0] <= 1e-6
        assert out.feasibility_residual[0] <= 1e-7


def test_lp_problem_holds_one_shape():
    # an LP minimizes over columns with lower bounds only: it has no field
    # for upper bounds or the orientation, and its matrix is a CsrMatrix
    fields = dict(c=np.ones(2), a=as_csr(np.ones((1, 2))), senses=np.array([">"]),
                  rhs=np.ones(1), lower=np.zeros(2))
    for extra in (dict(upper=np.full(2, np.inf)), dict(maximize=True)):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            LpProblem(**fields, **extra)
    scipy_matrix = LpProblem(**dict(fields, a=sp.csr_matrix(np.ones((1, 2)))))
    for check in (scipy_matrix.validate, lambda: solver.LpModel(scipy_matrix)):
        with pytest.raises(TypeError, match="^a must be a CsrMatrix, got csr_matrix$"):
            check()
    assert [f.name for f in dataclasses.fields(LpProblem)] == ["c", "a", "senses", "rhs", "lower"]
    assert [f.name for f in dataclasses.fields(MilpProblem)][5:] == \
        ["upper", "integrality", "maximize"]


def test_lp_model_layout_follows_the_problem_type():
    # a MilpProblem keeps its rows, with [lower, upper] row bounds, its
    # column bounds and its orientation, whether or not any column is
    # integer; an LpProblem goes in linprog's rows: '<' rows, then negated
    # '>' rows, with a residual core, which a MILP model has not
    rows = [[1.0, 2.0], [3.0, 0.0]]
    for integrality in ([0, 0], [0, 1]):
        p = milp([1.0, -2.0], rows, [">", "<"], [1.0, 4.0], [0, 0], [5, 1], integrality,
                 maximize=True)
        model = solver.LpModel(p)
        got = model._highs.getLp()
        assert model.is_mip and not hasattr(model, "residuals")
        assert (list(got.row_lower_), list(got.row_upper_)) == ([1.0, -np.inf], [np.inf, 4.0])
        assert (list(got.col_cost_), list(got.col_upper_)) == ([-1.0, 2.0], [5.0, 1.0])
    model = solver.LpModel(lp([1.0, 2.0], rows, [">", "<"], [1.0, 4.0], [0, 0]))
    got = model._highs.getLp()
    assert not model.is_mip and model.residuals.problem is model.problem
    assert (list(got.row_lower_), list(got.row_upper_)) == ([-np.inf, -np.inf], [4.0, -1.0])
    assert (list(got.col_cost_), list(got.col_upper_)) == ([1.0, 2.0], [np.inf, np.inf])


def test_infeasible_and_unbounded_statuses():
    bad = lp([1.0], [[1.0], [1.0]], ["<", ">"], [1.0, 2.0], [0.0])
    assert solve_one(bad).status == "infeasible"
    free = lp([-1.0], [[1.0]], [">"], [0.0], [-np.inf])
    assert solve_one(free).status == "unbounded"


def _outcome_bits(out: solver.BatchOutcome) -> tuple:
    # a solve that ends on another status leaves zero rows
    return (out.status,) + tuple(a.tobytes() for a in (out.x, out.row_duals, out.lower_duals,
                                                       out.objective))


def test_lp_model_resolves_match_fresh_solves():
    # three generators with equal costs: the dispatch is degenerate, so only
    # a cold re-solve reliably lands on the vertex a fresh model finds
    rows = [[1.0, 1.0, 1.0],    # balance
            [1.0, 0.0, 0.0],    # cap a
            [0.0, 1.0, 0.0],    # cap b
            [0.0, 0.0, 1.0],    # cap c
            [1.0, -1.0, 0.0]]   # floor on a - b
    senses = ["=", "<", "<", "<", ">"]
    c, lower = [10.0, 10.0, 10.0], [0.0] * 3
    first = [44.0, 25.0, 44.0, 46.0, -14.0]
    sequence = [
        first,
        [101.0, 15.0, 0.0, 4.0, -2.0],     # demand beyond the caps: infeasible
        first,
        # warm-started from the previous basis, HiGHS stops at x = (5, 0, 31)
        [36.0, 24.0, 42.0, 31.0, -19.0],
    ]
    model = solver.LpModel(lp(c, rows, senses, first, lower))
    statuses = []
    for rhs in sequence:
        reused = model.solve_batch(np.array([rhs]), np.array([c]))
        fresh = solve_one(lp(c, rows, senses, rhs, lower))
        assert reused.failure is None
        assert _outcome_bits(reused) == _outcome_bits(fresh), rhs
        statuses.append(reused.status)
    assert statuses == ["optimal", "infeasible", "optimal", "optimal"]


def _batch_row_bits(out, i) -> tuple:
    return tuple(a[i].tobytes() for a in (out.x, out.row_duals, out.lower_duals, out.objective))


def _fresh_bits(problem) -> tuple:
    out = solve_one(problem)
    assert out.status == "optimal" and out.failure is None
    return _batch_row_bits(out, 0)


def test_solve_batch_costs_match_fresh_models():
    # the degenerate three-generator dispatch at costs that tie, untie and
    # repeat: every row, costs and right-hand sides moved on one model, must
    # land on the bits a model built at that row's data finds
    rows = [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
            [1.0, -1.0, 0.0]]
    senses = ["=", "<", "<", "<", ">"]
    lower = [0.0] * 3
    costs = np.array([[10.0, 10.0, 10.0], [10.0, 10.0, 10.0], [12.0, 10.0, 10.0],
                      [10.0, 11.0, 10.0], [0.0, 0.0, 0.0], [10.0, 10.0, 10.0]])
    rhs = np.array([[44.0, 25.0, 44.0, 46.0, -14.0], [36.0, 24.0, 42.0, 31.0, -19.0],
                    [36.0, 24.0, 42.0, 31.0, -19.0], [44.0, 25.0, 44.0, 46.0, -14.0],
                    [20.0, 25.0, 44.0, 46.0, -14.0], [36.0, 24.0, 42.0, 31.0, -19.0]])
    model = solver.LpModel(lp(costs[0], rows, senses, rhs[0], lower))
    out = model.solve_batch(rhs, costs)
    assert out.status == "optimal" and out.failure is None and len(out.x) == len(rhs)
    for i, (c, b) in enumerate(zip(costs, rhs)):
        assert _batch_row_bits(out, i) == _fresh_bits(lp(c, rows, senses, b, lower)), i

    # the model keeps the last costs it was given
    assert model.problem.c.tobytes() == costs[-1].tobytes()
    again = model.solve_batch(rhs[:1], costs[-1:])
    assert _batch_row_bits(again, 0) == _fresh_bits(
        lp(costs[-1], rows, senses, rhs[0], lower))


def test_solve_batch_moves_a_signed_zero_cost():
    # -0.0 == 0.0, but the costs are compared bit for bit, so each sign
    # reaches the backend and the model keeps it
    model = solver.LpModel(lp([0.0, 1.0], [[1.0, 1.0]], [">"], [1.0], [0.0, 0.0]))
    for first in (-0.0, 0.0):
        model.solve_batch(np.array([[1.0]]), np.array([[first, 1.0]]))
        backend = np.asarray(model._highs.getLp().col_cost_, dtype=float)
        assert np.signbit(backend[0]) == np.signbit(first)
        assert np.signbit(model.problem.c[0]) == np.signbit(first)


def test_solve_batch_rejects_misshapen_costs():
    model = solver.LpModel(lp([1.0, 1.0], [[1.0, 1.0]], [">"], [1.0], [0.0, 0.0]))
    for c in (np.ones((1, 3)), np.ones((2, 2)), np.array([[np.nan, 1.0]])):
        with pytest.raises(ValueError, match="finite values per row of rhs"):
            model.solve_batch(np.array([[1.0]]), c)


def test_row_violation_matches_row_loop():
    def loop_residual(p, x):
        ax = p.a.dot(x)
        resid = 0.0
        for sense, v, b in zip(p.senses, ax, p.rhs):
            if sense == "<":
                resid = max(resid, v - b)
            elif sense == ">":
                resid = max(resid, b - v)
            else:
                resid = max(resid, abs(v - b))
        return float(max(resid, np.max(p.lower - x, initial=0.0)))

    def loop_sign_cs(p, x, y):
        ax = p.a.dot(x)
        slack = np.where(p.senses == "<", p.rhs - ax, ax - p.rhs)
        sign, cs = 0.0, 0.0
        for r in range(p.n_rows):
            if p.senses[r] == "<":
                sign = max(sign, y[r])
            elif p.senses[r] == ">":
                sign = max(sign, -y[r])
            if p.senses[r] != "=":
                cs = max(cs, abs(y[r] * slack[r]))
        return sign, cs

    rng = np.random.default_rng(11)
    for _ in range(50):
        n, m = 5, 7
        # m random rows, then each column's cap of 1 as a '<' row
        p = lp(rng.uniform(-1, 1, n), np.vstack([rng.uniform(-1, 1, (m, n)), np.eye(n)]),
               np.concatenate([rng.choice(["<", ">", "="], m), np.full(n, "<")]),
               np.concatenate([rng.uniform(-1, 1, m), np.ones(n)]), np.zeros(n))
        x = rng.uniform(-0.5, 1.5, n)
        y = rng.uniform(-1, 1, m + n)
        core = solver.Residuals(p)
        ax = core.activity(x)
        no_bound_duals = np.zeros(n)
        assert core.primal(x, ax, p.rhs) == loop_residual(p, x)
        assert (core.dual_sign(y, no_bound_duals),
                core.cs(x, ax, p.rhs, y, no_bound_duals)) == loop_sign_cs(p, x, y)


def test_bound_residuals_match_column_loop():
    # the lower-bound blocks of dual sign and complementary slackness, at
    # finite and infinite bounds, and the caps' rows that replace upper
    # bounds, against a loop over the columns
    rng = np.random.default_rng(12)
    for _ in range(50):
        n, m = 5, 4
        lower = rng.uniform(-1.0, 0.5, n)
        upper = lower + rng.uniform(0.1, 2.0, n)
        lower[0], upper[1] = -np.inf, np.inf
        capped = np.flatnonzero(np.isfinite(upper))
        # m rows with zero duals, then a '<' row per finite cap
        p = lp(rng.uniform(-1, 1, n), np.vstack([rng.uniform(-1, 1, (m, n)), np.eye(n)[capped]]),
               np.concatenate([rng.choice(["<", ">", "="], m), np.full(len(capped), "<")]),
               np.concatenate([rng.uniform(-1, 1, m), upper[capped]]), lower)
        x = rng.uniform(-1.0, 2.0, n)
        nu_lo, nu_cap = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        y = np.concatenate([np.zeros(m), nu_cap[capped]])
        sign, cs = 0.0, 0.0
        for j in range(n):
            sign = max(sign, -nu_lo[j])
            if np.isfinite(lower[j]):
                cs = max(cs, abs(nu_lo[j] * (x[j] - lower[j])))
            if np.isfinite(upper[j]):
                sign = max(sign, nu_cap[j])
                cs = max(cs, abs(nu_cap[j] * (x[j] - upper[j])))
        core = solver.Residuals(p)
        assert (core.dual_sign(y, nu_lo),
                core.cs(x, core.activity(x), p.rhs, y, nu_lo)) == (sign, cs)


def test_dual_sign_rows_equal_one_row_calls():
    # one call over 2-D duals gives, row by row, the bits of a call per row,
    # on dual-feasible points with exact zeros: 0.0 on the floors' duals and
    # -0.0 on the '<' rows' and the caps' rows'
    rng = np.random.default_rng(13)
    n, m, k = 40, 40, 40
    senses = rng.choice(["<", ">"], m)
    # m random rows, then each column's cap of 1 as a '<' row
    p = lp(rng.uniform(-1, 1, n), np.vstack([rng.uniform(-1, 1, (m, n)), np.eye(n)]),
           np.concatenate([senses, np.full(n, "<")]),
           np.concatenate([rng.uniform(-1, 1, m), np.ones(n)]), np.zeros(n))
    core = solver.Residuals(p)

    def magnitudes(shape):
        # half of them exact zeros
        return np.where(rng.random(shape) < 0.5, 0.0, rng.uniform(1e-9, 1.0, shape))

    y = np.where(senses == "<", -magnitudes((k, m)), magnitudes((k, m)) + 1e-9)
    nu_lo, nu_cap = magnitudes((k, n)), -magnitudes((k, n))
    y = np.concatenate([y, nu_cap], axis=1)
    rows = core.dual_sign(y, nu_lo)
    assert rows.shape == (k,) and (rows == 0.0).all()
    for i in range(k):
        assert rows[i].tobytes() == np.float64(core.dual_sign(y[i], nu_lo[i])).tobytes(), i


def test_binding_bounds_close_the_duality_gap():
    # min x0 - x1 + 0.5 x2 with x0 and x2 at nonzero lower bounds and x1 at
    # its cap row: the dual objective is carried by the lower-bound duals
    # and the cap row's dual alone
    p = lp([1.0, -1.0, 0.5], [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
           ["<", "<", "<", "<"], [10.0, 6.0, 4.0, 8.0], [2.0, -3.0, 1.0])
    out = solve_one(p)
    assert out.status == "optimal"
    assert out.x.tolist() == [[2.0, 4.0, 1.0]]
    assert out.objective.tolist() == [-1.5] and out.duality_gap_rel.tolist() == [0.0]
    assert out.lower_duals.tolist() == [[1.0, 0.0, 0.5]]
    assert out.row_duals.tolist() == [[0.0, 0.0, -1.0, 0.0]]
    assert out.cs_residual.tolist() == [0.0]


def milp(c, rows, senses, rhs, lower, upper, integrality, maximize=False):
    return MilpProblem(
        c=np.array(c, dtype=float),
        a=as_csr(np.array(rows, dtype=float)),
        senses=np.array(senses),
        rhs=np.array(rhs, dtype=float),
        lower=np.array(lower, dtype=float),
        upper=np.array(upper, dtype=float),
        integrality=np.array(integrality, dtype=np.int8),
        maximize=maximize,
    )


KNAPSACK = milp([-5.0, -4.0, -3.0], [[2.0, 3.0, 1.0]], ["<"], [5.0],
                [0, 0, 0], [1, 1, 1], [1, 1, 1])


def test_lp_integral_milp_solved_at_root():
    # totally unimodular constraint: relaxation is already integral
    p = milp([-1.0, -1.0], [[1.0, 1.0]], ["<"], [1.0], [0, 0], [1, 1], [1, 1])
    out = solve_milp(p)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(-1.0)
    assert out.node_count == 1


def test_milp_statuses_and_gap_fields():
    infeas = milp([1.0], [[1.0], [1.0]], [">", "<"], [0.6, 0.4], [0], [1], [1])
    assert solve_milp(infeas).status == "infeasible"

    unb = MilpProblem(
        c=np.array([-1.0, 0.0]),
        a=as_csr(np.array([[0.0, 1.0]])),
        senses=np.array(["<"]),
        rhs=np.array([1.0]),
        lower=np.array([0.0, 0.0]),
        upper=np.array([np.inf, 1.0]),
        integrality=np.array([0, 1], dtype=np.int8),
    )
    assert solve_milp(unb).status == "unbounded"

    out = solve_milp(KNAPSACK, gap_tol=1e-9)
    assert out.status == "optimal"
    assert out.mip_gap is not None and out.mip_gap <= 1e-9
    assert out.node_count >= 1

    # no integer column: HiGHS solves an LP, which has no MIP gap
    relaxed = milp([-5.0, -4.0, -3.0], [[2.0, 3.0, 1.0]], ["<"], [5.0], [0, 0, 0], [1, 1, 1],
                   [0, 0, 0])
    out = solve_milp(relaxed, gap_tol=1e-9)
    assert (out.status, out.mip_gap, out.node_count) == ("optimal", None, 1)
    assert out.objective == pytest.approx(-32.0 / 3.0)


def _milp_instances():
    """The tiny instance under cases 1-4 with and without terminal SOC, the
    knapsack and perfbench's seed-2 draw of acceptance 1."""
    seed2 = acceptance_instance(load_scale=0.9761612134249316,
                                bid_factors=(0.9798491143414123, 1.031422574059428),
                                soc_shift=-0.08161681157298062)
    problems = [bilevel.assemble_milp(small_instance(MarketMask.from_case(case)),
                                      terminal_soc_equality=terminal).milp
                for case in (1, 2, 3, 4) for terminal in (False, True)]
    return problems + [KNAPSACK, bilevel.assemble_milp(seed2).milp]


def test_solve_milp_matches_scipy_milp():
    # scipy's milp is the reference solve_milp must reproduce bit for bit:
    # it hands HiGHS the problem's rows with [lower, upper] bounds
    for p in _milp_instances():
        got = solve_milp(p, gap_tol=1e-9)
        rows = LinearConstraint(p.a.tocsr(), np.where(p.senses == "<", -np.inf, p.rhs),
                                np.where(p.senses == ">", np.inf, p.rhs))
        ref = scipy_milp(c=-p.c if p.maximize else p.c, integrality=p.integrality,
                         bounds=Bounds(p.lower, p.upper), constraints=[rows],
                         options={"mip_rel_gap": 1e-9})
        assert ref.status == 0
        assert got.x.tobytes() == np.asarray(ref.x, dtype=float).tobytes()
        assert got.objective == (-ref.fun if p.maximize else ref.fun)
        assert got.mip_gap == ref.mip_gap
        assert got.node_count == max(1, ref.mip_node_count)


def test_milp_model_keeps_problem_rows():
    for p in _milp_instances():
        got = solver.LpModel(p)._highs.getLp()
        want = p.a.tocsr().tocsc()
        assert np.array_equal(np.asarray(got.a_matrix_.start_), want.indptr)
        assert np.array_equal(np.asarray(got.a_matrix_.index_), want.indices)
        assert np.asarray(got.a_matrix_.value_, dtype=float).tobytes() == want.data.tobytes()
        assert np.asarray(got.row_lower_).tobytes() == np.where(p.senses == "<", -np.inf,
                                                                p.rhs).tobytes()
        assert np.asarray(got.row_upper_).tobytes() == np.where(p.senses == ">", np.inf,
                                                                p.rhs).tobytes()
        assert [int(v) for v in got.integrality_] == p.integrality.tolist()


def test_highs_reached_only_through_solver_module():
    # every LP and MILP goes through solver.LpModel: no module imports
    # scipy's solver wrappers, and only solver.py touches the HiGHS bindings;
    # no module imports scipy.sparse at module level (CsrMatrix.tocsr does,
    # when called)
    wrappers = {"milp", "linprog", "Bounds", "LinearConstraint"}
    src = Path(solver.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
                if node.module == "scipy.optimize":
                    assert not wrappers & {a.name for a in node.names}, path.name
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            if any("_highspy" in m for m in modules):
                assert path.name == "solver.py", path.name
            if node in tree.body:
                assert not any(m.split(".")[:2] == ["scipy", "sparse"] for m in modules), \
                    path.name
    # solver.py loads the bindings by name, in a string no import names
    for path in sorted(src.glob("*.py")):
        assert path.name == "solver.py" or "_highspy" not in path.read_text(), path.name


# A fresh interpreter imports ``first``, then bessbid, runs a passive desk
# clear and the knapsack MILP, and reports what it imported and sha256s of
# the results.
_IMPORT_PROBE = """
import hashlib, json, sys
{first}
import numpy as np
from bessbid import bilevel, cli, clearing, harness, solver

scn = harness.desk_scenario()
n = scn.n_intervals
batch = clearing.clear_batch(clearing.LlLayout(scn), np.arange(n), np.zeros((n, 4)))
knapsack = solver.MilpProblem(
    c=np.array([-5.0, -4.0, -3.0]),
    a=solver.CsrMatrix.from_entries([0, 0, 0], [0, 1, 2], [2.0, 3.0, 1.0], (1, 3)),
    senses=np.array(["<"]), rhs=np.array([5.0]), lower=np.zeros(3), upper=np.ones(3),
    integrality=np.ones(3, dtype=np.int8))
out = solver.solve_milp(knapsack, gap_tol=1e-9)
print(json.dumps({{
    "optimize": "scipy.optimize" in sys.modules,
    "same": solver._highs is sys.modules["scipy.optimize._highspy._core"],
    "clear": hashlib.sha256(batch.row_duals.tobytes() + batch.objective.tobytes()).hexdigest(),
    "milp": hashlib.sha256(out.x.tobytes()).hexdigest(),
}}))
"""


@pytest.mark.parametrize("first, optimize", [("", False), ("import scipy.optimize", True)],
                         ids=["bessbid-alone", "scipy-optimize-first"])
def test_highs_bindings_load_once_in_either_import_order(first, optimize):
    env = dict(os.environ, PYTHONPATH=str(Path(solver.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", _IMPORT_PROBE.format(first=first)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    probe = json.loads(run.stdout)
    assert probe.pop("optimize") is optimize
    assert probe.pop("same") is True
    scn = harness.desk_scenario()
    n = scn.n_intervals
    batch = clearing.clear_batch(clearing.LlLayout(scn), np.arange(n), np.zeros((n, 4)))
    out = solve_milp(KNAPSACK, gap_tol=1e-9)
    assert probe == {
        "clear": hashlib.sha256(batch.row_duals.tobytes() + batch.objective.tobytes()).hexdigest(),
        "milp": hashlib.sha256(out.x.tobytes()).hexdigest()}


def test_missing_highs_bindings_are_one_named_error(monkeypatch):
    import scipy.optimize

    directory = str(Path(scipy.optimize.__file__).parent / "_highspy")
    find_spec = importlib.machinery.PathFinder.find_spec

    def no_bindings(cls, name, path=None, target=None):
        return None if name == solver._HIGHS_MODULE else find_spec(name, path, target)

    with monkeypatch.context() as m:
        m.delitem(sys.modules, solver._HIGHS_MODULE)
        m.setattr(importlib.machinery.PathFinder, "find_spec", classmethod(no_bindings))
        with pytest.raises(ImportError, match=re.escape(f"in {directory} (scipy ")):
            solver._load_highs()
        assert solver._HIGHS_MODULE not in sys.modules
    assert sys.modules[solver._HIGHS_MODULE] is solver._highs


def test_milp_deterministic_reproducibility():
    rng = np.random.default_rng(3)
    n = 25
    w = rng.uniform(1, 10, n)
    v = rng.uniform(1, 10, n)
    p = milp(-v, [w], ["<"], [w.sum() / 2], np.zeros(n), np.ones(n), np.ones(n))
    a = solve_milp(p, gap_tol=1e-9)
    b = solve_milp(p, gap_tol=1e-9)
    assert a.objective == b.objective
    np.testing.assert_array_equal(a.x, b.x)


def test_integer_bounds_validated():
    p = milp([1.0], [[1.0]], ["<"], [5.0], [0], [2], [1])
    with pytest.raises(ValueError, match="bounds within"):
        p.validate()


def test_mps_round_trip_identity(tmp_path):
    p = milp(
        c=[1.5, -2.0, 0.0],
        rows=[[1.0, 2.5, 0.0], [0.0, -1.0, 3.0]],
        senses=["<", ">"],
        rhs=[4.0, 0.0],
        lower=[0.0, -np.inf, 0.0],
        upper=[np.inf, np.inf, 1.0],
        integrality=[0, 0, 1],
        maximize=True,
    )
    path = tmp_path / "rt.mps"
    export_mps(p, str(path))
    q = import_mps(str(path))
    assert q.maximize == p.maximize
    np.testing.assert_array_equal(q.c, p.c)
    np.testing.assert_array_equal(q.senses, p.senses)
    np.testing.assert_array_equal(q.rhs, p.rhs)
    np.testing.assert_array_equal(q.lower, p.lower)
    np.testing.assert_array_equal(q.upper, p.upper)
    np.testing.assert_array_equal(q.integrality, p.integrality)
    assert (q.a.tocsr() != p.a.tocsr()).nnz == 0


def test_mps_round_trip_preserves_objective(tmp_path):
    rng = np.random.default_rng(11)
    for k in range(5):
        n, m = 8, 5
        a = rng.uniform(-1, 1, (m, n))
        x0 = rng.uniform(0, 1, n)
        p = milp(
            c=rng.uniform(-2, 2, n),
            rows=a,
            senses=rng.choice(["<", ">", "="], m),
            rhs=a @ x0 + rng.uniform(0.1, 1.0, m) * 0,
            lower=np.zeros(n),
            upper=np.ones(n),
            integrality=(rng.uniform(0, 1, n) < 0.4).astype(np.int8),
        )
        base = solve_milp(p, gap_tol=1e-9)
        if base.status != "optimal":
            continue
        path = tmp_path / f"rt{k}.mps"
        export_mps(p, str(path))
        again = solve_milp(import_mps(str(path)), gap_tol=1e-9)
        assert again.objective == pytest.approx(base.objective, rel=1e-9, abs=1e-9)


def test_mps_rejects_truncated_file(tmp_path):
    p = milp([1.0], [[1.0]], ["<"], [2.0], [0], [1], [1])
    path = tmp_path / "t.mps"
    export_mps(p, str(path))
    text = path.read_text().rsplit("ENDATA", 1)[0]
    path.write_text(text)
    with pytest.raises(MpsFormatError, match="ENDATA"):
        import_mps(str(path))


def test_mps_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.mps"
    path.write_text("NAME x\nGARBAGE\nENDATA\n")
    with pytest.raises(MpsFormatError, match="line 2"):
        import_mps(str(path))


def test_dimension_errors_raised():
    p = lp([1.0, 2.0], [[1.0, 1.0]], ["<"], [1.0], [0.0])
    with pytest.raises(ValueError, match="bounds length"):
        solve_one(p)


ALL_BOUNDS_MPS = """\
NAME          ALLBOUNDS
OBJSENSE
    MAX
ROWS
 N  OBJ
 L  R0000001
 G  R0000002
 E  R0000003
COLUMNS
    C0000001  OBJ       1.5
    C0000001  R0000001  1.0
    C0000002  OBJ       -0.0
    C0000003  OBJ       0.30000000000000004
    C0000004  OBJ       2.0
    C0000004  R0000001  -2.5
    C0000005  OBJ       0.0
    C0000006  OBJ       -3.0
    C0000006  R0000002  0.30000000000000004
    M0        'MARKER'                 'INTORG'
    C0000007  OBJ       1.0
    C0000007  R0000002  1e-17
    C0000008  OBJ       0.0
    M1        'MARKER'                 'INTEND'
    C0000009  OBJ       1e+22
    C0000009  R0000003  4.0
    M2        'MARKER'                 'INTORG'
    C0000010  OBJ       0.5
    C0000010  R0000003  -1.0
    M3        'MARKER'                 'INTEND'
RHS
    RHS       R0000001  4.0
    RHS       R0000003  123456.789012345
BOUNDS
 FR BND       C0000002
 MI BND       C0000003
 UP BND       C0000003  5.0
 FX BND       C0000004  2.5
 LO BND       C0000005  1.5
 LO BND       C0000006  -1.0
 UP BND       C0000006  3.0
 BV BND       C0000007
 BV BND       C0000008
 UP BND       C0000009  4.0
 BV BND       C0000010
ENDATA
"""


def test_mps_writes_every_bound_type(tmp_path):
    # FR/MI/UP/FX/LO/BV bounds, markers around two integer runs (one ending
    # the file), an explicit zero coefficient and a -0.0 rhs (both omitted),
    # -0.0 and over-wide literals in the objective
    inf = np.inf
    a = as_csr(sp.csr_matrix((np.array([1.0, 0.0, -2.5, 0.1 + 0.2, 1e-17, 4.0, -1.0]),
                              np.array([0, 1, 3, 5, 6, 8, 9]), np.array([0, 3, 5, 7])),
                             shape=(3, 10)))
    p = MilpProblem(
        c=np.array([1.5, -0.0, 0.1 + 0.2, 2.0, 0.0, -3.0, 1.0, 0.0, 1e22, 0.5]), a=a,
        senses=np.array(["<", ">", "="]), rhs=np.array([4.0, -0.0, 123456.789012345]),
        lower=np.array([0.0, -inf, -inf, 2.5, 1.5, -1.0, 0.0, 0.0, 0.0, 0.0]),
        upper=np.array([inf, inf, 5.0, 2.5, inf, 3.0, 1.0, 1.0, 4.0, 1.0]),
        maximize=True, integrality=np.array([0, 0, 0, 0, 0, 0, 1, 1, 0, 1], dtype=np.int8),
    )
    path = tmp_path / "all.mps"
    export_mps(p, str(path), name="ALLBOUNDS")
    assert path.read_text() == ALL_BOUNDS_MPS
    q = import_mps(str(path))
    assert q.c.tobytes() == p.c.tobytes()
    np.testing.assert_array_equal(q.lower, p.lower)
    np.testing.assert_array_equal(q.upper, p.upper)
    np.testing.assert_array_equal(q.integrality, p.integrality)
    np.testing.assert_array_equal(q.a.toarray(), p.a.toarray())


# The whole-array writer that export_mps replaced: every line of the file as
# one Python string, each section formatted from whole arrays, then put in
# column order. It is the reference that the block writer's bytes must equal.
def reference_mps(problem, name="BESSBID") -> bytes:
    integrality = getattr(problem, "integrality", None)
    is_int = np.zeros(problem.n_cols, dtype=bool) if integrality is None else \
        np.asarray(integrality).astype(bool)
    cols = np.arange(problem.n_cols)
    row_names, row_fields = _reference_names("R", problem.n_rows)
    col_names, col_fields = _reference_names("C", problem.n_cols)
    heads = "    " + col_fields

    lines = [f"NAME          {name}"]
    if problem.maximize:
        lines.append("OBJSENSE")
        lines.append("    MAX")
    lines.append("ROWS")
    lines.append(" N  OBJ")
    codes = np.empty(problem.n_rows, dtype=object)
    for sense, code in (("<", "L"), (">", "G"), ("=", "E")):
        codes[problem.senses == sense] = f" {code}  "
    lines += (codes + row_names).tolist()

    lines.append("COLUMNS")
    edges = np.flatnonzero(np.diff(is_int, prepend=False, append=False))
    markers = np.array([f"    M{k:<9}'MARKER'                 '{'INTEND' if k % 2 else 'INTORG'}'"
                        for k in range(len(edges))], dtype=object)
    objective = heads + "OBJ       " + _reference_reprs(problem.c)
    csc = problem.a.tocsr().tocsc()
    nonzero = csc.data != 0.0
    entry_cols = np.repeat(cols, np.diff(csc.indptr))[nonzero]
    entries = (heads[entry_cols] + row_fields[csc.indices[nonzero]]
               + _reference_reprs(csc.data[nonzero]))
    lines += _reference_by_column([(edges, markers), (cols, objective), (entry_cols, entries)])

    lines.append("RHS")
    rhs = np.asarray(problem.rhs, dtype=float)
    rows = np.flatnonzero(rhs != 0.0)
    lines += ("    RHS       " + row_fields[rows] + _reference_reprs(rhs[rows])).tolist()

    lines.append("BOUNDS")
    lower, upper = (np.asarray(b, dtype=float) for b in (problem.lower, problem.upper))
    free = ~is_int & (lower == -np.inf) & (upper == np.inf)
    fixed = ~is_int & ~free & (lower == upper)
    ranged = ~(is_int | free | fixed)
    keyed = []
    for kind, mask, values in (
            ("BV", is_int, None), ("FR", free, None), ("FX", fixed, lower),
            ("MI", ranged & (lower == -np.inf), None),
            ("LO", ranged & (lower != -np.inf) & (lower != 0.0), lower),
            ("UP", ranged & (upper != np.inf), upper)):
        which = np.flatnonzero(mask)
        group = f" {kind} BND       " + (col_names[which] if values is None
                                         else col_fields[which] + _reference_reprs(values[which]))
        keyed.append((2 * which + (kind == "UP"), group))
    lines += _reference_by_column(keyed)
    lines.append("ENDATA")
    return ("\n".join(lines) + "\n").encode("ascii")


def _reference_names(kind, count):
    names = list(map(f"{kind}%07d".__mod__, range(1, count + 1)))
    return np.array(names, dtype=object), np.array([n.ljust(10) for n in names], dtype=object)


def _reference_reprs(values):
    values = np.ascontiguousarray(values, dtype=float)
    bits, which = np.unique(values.view(np.int64), return_inverse=True)
    return np.array(list(map(repr, bits.view(float).tolist())), dtype=object)[which]


def _reference_by_column(keyed):
    keys = np.concatenate([k for k, _ in keyed])
    lines = np.concatenate([group for _, group in keyed])
    return lines[np.argsort(keys, kind="stable")].tolist()


# -0.0 and 0.0 entries are stored but not written; the rest includes
# literals wider than their 12-character field
LITERALS = np.array([1.0, -1.0, 2.5, -0.0, 0.0, 0.1 + 0.2, 1e-17, 1e22, -123456.789012345])


def random_milp(rng, m, n, maximize, integer_cols=(), empty_rhs=False, default_bounds=False):
    """A MILP of ``m`` rows and ``n`` columns drawn from :data:`LITERALS`, with
    every bound type unless ``default_bounds``; the ``integer_cols`` are
    binaries, and so is any other column at random."""
    entries = rng.random((m, n)) < 0.4
    rows, cols = np.nonzero(entries)
    a = as_csr(sp.coo_matrix((rng.choice(LITERALS, len(rows)), (rows, cols)), shape=(m, n)))
    is_int = np.zeros(n, dtype=bool) if default_bounds else rng.random(n) < 0.3
    is_int[list(integer_cols)] = True
    lower, upper = np.zeros(n), np.full(n, np.inf)
    if not default_bounds:
        kind = rng.integers(0, 7, n)
        value = rng.choice(LITERALS[:-2], n)
        lower[kind == 1] = -np.inf                       # FR
        lower[kind == 2] = upper[kind == 2] = value[kind == 2]   # FX
        lower[kind == 3], upper[kind == 3] = -np.inf, 4.0        # MI, UP
        lower[kind == 4] = -2.5                         # LO
        lower[kind == 5], upper[kind == 5] = -1.0, 1e22          # LO, UP
        upper[kind == 6] = 0.1 + 0.2                    # UP
    lower[is_int], upper[is_int] = 0.0, 1.0
    return MilpProblem(
        c=rng.choice(LITERALS, n), a=a, senses=rng.choice(["<", ">", "="], m),
        rhs=np.zeros(m) if empty_rhs else rng.choice(LITERALS, m) * (rng.random(m) < 0.7),
        lower=lower, upper=upper, maximize=maximize, integrality=is_int.astype(np.int8))


BLOCK = 4


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("m", [0, 1, BLOCK, 2 * BLOCK + 1])
def test_block_writer_matches_reference_writer(tmp_path, monkeypatch, m, n):
    monkeypatch.setattr(solver, "MPS_BLOCK", BLOCK)
    rng = np.random.default_rng(1000 * m + n)
    problems = [
        random_milp(rng, m, n, maximize=True),
        random_milp(rng, m, n, maximize=False),
        # an integer run across the first block edge, and a last column
        # that is integer
        random_milp(rng, m, n, maximize=False,
                    integer_cols=[j for j in (BLOCK - 1, BLOCK) if j < n] + [n - 1]),
        # no RHS and no BOUNDS lines
        random_milp(rng, m, n, maximize=True, empty_rhs=True, default_bounds=True),
    ]
    path = tmp_path / "w.mps"
    for k, p in enumerate(problems):
        export_mps(p, str(path), name=f"P{k}")
        assert path.read_bytes() == reference_mps(p, name=f"P{k}"), k


def test_generated_names_widen_past_seven_digits():
    index = np.array([0, 9999998, 9999999, 99999998])
    names = [bytes(name).rstrip(b"\0") for name in solver._names(b"C", index)]
    assert names == [f"C{k + 1:07d}".encode() for k in index]


def test_export_checks_run_before_the_file_is_opened(tmp_path, monkeypatch):
    p = milp([1.0, 2.0, 3.0], [[1.0, 1.0, 1.0]], ["<"], [2.0], [0, 0, 0], [1, 1, 1], [1, 0, 1])
    path = tmp_path / "x.mps"
    with pytest.raises(ValueError, match="MPS model name 'café' is not printable ASCII"):
        export_mps(p, str(path), name="café")
    monkeypatch.setattr(solver, "_MPS_MAX_NAMED", 2)
    with pytest.raises(ValueError, match="MPS names number at most 2 rows or columns"):
        export_mps(p, str(path))
    assert not path.exists()


def _reference_style_milp(intervals):
    """The reference system's case-4 MILP over ``intervals`` quarter hours,
    its daily patterns repeated."""
    price, load = default_patterns()
    scn = synthesize_scenario((np.tile(price, intervals // 96), np.tile(load, intervals // 96)),
                              market_mask=MarketMask.from_case(4),
                              bess_price_bids=BessPriceBids(buy=100.0))
    return bilevel.assemble_milp(scn).milp


def test_export_heap_peak_does_not_grow_with_the_model(tmp_path):
    peaks = []
    for intervals in (96, 192):
        p = _reference_style_milp(intervals)
        tracemalloc.start()
        try:
            export_mps(p, str(tmp_path / f"r{intervals}.mps"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the writer holds a column-major copy of the matrix besides one block
    assert peaks[1] < 1.5 * peaks[0], peaks


SMALL_MPS = [
    "NAME          SMALL",
    "ROWS",
    " N  OBJ",
    " L  R1",
    " G  R2",
    "COLUMNS",
    "    C1        OBJ       1.0        R1        2.0",
    "    C2        OBJ       -1.0",
    "    C2        R2        3.0",
    "RHS",
    "    RHS       R1        4.0        R2        1.0",
    "BOUNDS",
    " UP BND       C1        5.0",
    "ENDATA",
]


def write_mps(tmp_path, lines):
    path = tmp_path / "m.mps"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_mps_reader_skips_comments_and_reads_two_pair_lines(tmp_path):
    lines = list(SMALL_MPS)
    lines.insert(9, "  * a comment inside COLUMNS")
    lines.insert(3, "")
    lines.insert(0, "* leading comment")
    q = import_mps(write_mps(tmp_path, lines))
    np.testing.assert_array_equal(q.senses, ["<", ">"])
    np.testing.assert_array_equal(q.c, [1.0, -1.0])
    np.testing.assert_array_equal(q.a.toarray(), [[2.0, 0.0], [0.0, 3.0]])
    np.testing.assert_array_equal(q.rhs, [4.0, 1.0])
    np.testing.assert_array_equal(q.upper, [5.0, np.inf])
    assert not q.maximize


@pytest.mark.parametrize("line_no, text, message", [
    (4, " L  R1        extra", "ROWS entries need exactly [sense, name]"),
    (5, " Q  R2", "unknown row sense 'Q'"),
    (5, " G  R1", "duplicate row 'R1'"),
    (8, "    M0        'MARKER'                 'INTBAD'", "unknown marker ''INTBAD''"),
    (9, "    C2        R2", "COLUMNS entries need 1 or 2 (row, value) pairs"),
    (7, "    C1        OBJ       1.0        R1        2.x", "bad numeral '2.x'"),
    (9, "    C2        R9        3.0", "unknown row 'R9' in COLUMNS"),
    (11, "    RHS       R1        4.0        R2", "RHS entries need 1 or 2 (row, value) pairs"),
    (11, "    RHS       R1        4.0        R2        x", "bad numeral 'x'"),
    (11, "    RHS       R9        4.0", "unknown row 'R9' in RHS"),
    (13, " UP BND       C1", "UP bound needs [type, set, column, value]"),
    (13, " BV BND       C1        1.0", "BV bound needs [type, set, column]"),
    (13, " UP BND       C1        five", "bad numeral 'five'"),
    (13, " XX BND       C1", "unknown bound type 'XX'"),
    (13, " UP BND       C9        5.0", "unknown column 'C9' in BOUNDS"),
    (12, "RANGES", "RANGES section is not supported"),
    (2, "    C1        OBJ       1.0", "data line outside any section"),
    # found while the text layer decodes ahead of the parser
    (9, "    C2        R2        3.0 é", "non-ASCII byte 0xc3"),
    (14, "ENDATA é", "non-ASCII byte 0xc3"),
])
def test_mps_format_errors_name_line(tmp_path, line_no, text, message):
    lines = list(SMALL_MPS)
    lines[line_no - 1] = text
    with pytest.raises(MpsFormatError) as err:
        import_mps(write_mps(tmp_path, lines))
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message}"


@pytest.mark.parametrize("objsense, maximize", [
    (["OBJSENSE", "    MAX"], True),
    (["OBJSENSE", "    min"], False),
    (["OBJSENSE", "MAX"], True),
    (["OBJSENSE    max"], True),
    (["OBJSENSE MIN"], False),
])
def test_mps_reader_reads_objsense(tmp_path, objsense, maximize):
    q = import_mps(write_mps(tmp_path, SMALL_MPS[:1] + objsense + SMALL_MPS[1:]))
    assert q.maximize is maximize


@pytest.mark.parametrize("objsense, line_no, got", [
    (["OBJSENSE", "    MAXIMIZE"], 3, "MAXIMIZE"),
    (["OBJSENSE", "    MXA"], 3, "MXA"),
    (["OBJSENSE", "    MAX MIN"], 3, "MAX MIN"),
    (["OBJSENSE MAXIMIZE"], 2, "MAXIMIZE"),
    (["OBJSENSE MAX extra"], 2, "MAX extra"),
    # a section header where the value belongs
    (["OBJSENSE"], 3, "ROWS"),
])
def test_mps_reader_rejects_unknown_objsense(tmp_path, objsense, line_no, got):
    with pytest.raises(MpsFormatError) as err:
        import_mps(write_mps(tmp_path, SMALL_MPS[:1] + objsense + SMALL_MPS[1:]))
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: OBJSENSE needs MAX or MIN, got '{got}'"


NO_OBJECTIVE_MPS = [
    "NAME          NOOBJ",
    "ROWS",
    " L  R1",
    "COLUMNS",
    "    C1        R1        2.0",
    "ENDATA",
    "* after the end",
]


@pytest.mark.parametrize("text, line_no, message", [
    ("\n".join(SMALL_MPS[:-1]) + "\n", 13, "truncated file: ENDATA missing"),
    ("\n".join(SMALL_MPS[:-1]), 13, "truncated file: ENDATA missing"),
    ("", 0, "truncated file: ENDATA missing"),
    # the lines after ENDATA count toward the file's last line
    ("\n".join(NO_OBJECTIVE_MPS) + "\n", 7, "no objective (N) row declared"),
    ("\n".join(NO_OBJECTIVE_MPS), 7, "no objective (N) row declared"),
])
def test_mps_end_of_file_errors_name_last_line(tmp_path, text, line_no, message):
    path = tmp_path / "m.mps"
    path.write_text(text)
    with pytest.raises(MpsFormatError) as err:
        import_mps(str(path))
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message}"


def _stacked_rows(p):
    """The backend matrix as scipy's ``linprog`` builds it: '<' rows, negated
    '>' rows, '=' rows, stacked column-wise."""
    a = p.a.tocsr()
    le, ge, eq = (np.flatnonzero(p.senses == s) for s in ("<", ">", "="))
    return sp.vstack([a[le], -a[ge], a[eq]], format="csc")


def test_lp_model_matrix_matches_stacked_rows():
    scn = harness.desk_scenario()
    layout = clearing.LlLayout(scn)
    problems = [p for t in range(scn.n_intervals)
                for p in (layout.build_lp(t), layout.storage_free_lp(t)[0])]
    # each column's cap of 5 is one of the last three '<' rows
    problems.append(lp([1.0, -2.0, 0.5], [[1.0, 0.0, -1.0], [2.0, 1.0, 0.0], [0.0, -3.0, 1.0],
                                          [1.0, 1.0, 1.0], [0.0, 4.0, -2.0], [1.0, 0.0, 0.0],
                                          [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                       [">", "<", "=", ">", "<", "<", "<", "<"],
                       [1.0, -0.0, 0.0, -0.0, 6.0, 5.0, 5.0, 5.0], [0.0, 0.0, -1.0]))
    # unsorted column indices and a duplicate entry, which the stacked
    # matrix sorts and sums; the caps of 1 are the last three rows
    uncanonical = sp.csr_matrix((np.array([2.0, 1.0, 0.5, -1.0, 3.0, 1.0, 1.0, 1.0]),
                                 np.array([2, 0, 2, 1, 0, 0, 1, 2]), np.array([0, 3, 5, 6, 7, 8])),
                                shape=(5, 3))
    problems.append(LpProblem(c=np.ones(3), a=as_csr(uncanonical),
                              senses=np.array([">", "<", "<", "<", "<"]),
                              rhs=np.array([1.0, 4.0, 1.0, 1.0, 1.0]), lower=np.zeros(3)))
    for p in problems:
        got = solver.LpModel(p)._highs.getLp().a_matrix_
        want = _stacked_rows(p)
        assert np.array_equal(np.asarray(got.start_), want.indptr)
        assert np.array_equal(np.asarray(got.index_), want.indices)
        assert np.asarray(got.value_, dtype=float).tobytes() == want.data.tobytes()
