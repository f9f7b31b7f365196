"""LP/MILP solving and MPS round-trip behavior."""

import numpy as np
import pytest
import scipy.sparse as sp

from bessbid import solver
from bessbid.solver import (
    LpProblem,
    MilpProblem,
    MpsFormatError,
    SolveOutcome,
    export_mps,
    import_mps,
    solve_lp,
    solve_milp,
)


def lp(c, rows, senses, rhs, lower, upper, maximize=False):
    return LpProblem(
        c=np.array(c, dtype=float),
        a=sp.csr_matrix(np.array(rows, dtype=float)),
        senses=np.array(senses),
        rhs=np.array(rhs, dtype=float),
        lower=np.array(lower, dtype=float),
        upper=np.array(upper, dtype=float),
        maximize=maximize,
    )


def test_min_x_subject_to_floor():
    # min x s.t. x >= 3
    p = lp([1.0], [[1.0]], [">"], [3.0], [-np.inf], [np.inf])
    out = solve_lp(p)
    assert out.status == "optimal"
    assert out.x[0] == pytest.approx(3.0, abs=1e-9)
    assert out.row_duals[0] == pytest.approx(1.0, abs=1e-9)


def test_two_generator_clearing_duals():
    # two supply offers at 10 and 20 $/MWh, 100 MW each, 150 MW of demand;
    # objective carries the 0.25 h interval length
    dt = 0.25
    p = lp(
        c=[10.0 * dt, 20.0 * dt],
        rows=[[1.0, 1.0]],
        senses=["="],
        rhs=[150.0],
        lower=[0.0, 0.0],
        upper=[100.0, 100.0],
    )
    out = solve_lp(p)
    assert out.status == "optimal"
    assert out.objective == pytest.approx((10 * 100 + 20 * 50) * dt, rel=1e-9)
    np.testing.assert_allclose(out.x, [100.0, 50.0], atol=1e-9)
    # marginal unit sets the price; raw dual carries the dt scaling
    assert out.row_duals[0] / dt == pytest.approx(20.0, abs=1e-9)
    # cheap unit at its upper bound earns rent
    assert out.upper_duals[0] / dt == pytest.approx(-10.0, abs=1e-9)


def test_degenerate_equal_bids_unique_objective():
    # both units bid 10; the dual split is ambiguous but the objective is not
    p1 = lp([10.0, 10.0], [[1.0, 1.0]], ["="], [100.0], [0, 0], [80, 80])
    p2 = lp([10.0, 10.0], [[1.0, 1.0]], ["="], [100.0], [0, 0], [80, 80])
    p2.c = p2.c[::-1].copy()  # same data, permuted construction
    o1, o2 = solve_lp(p1), solve_lp(p2)
    assert o1.objective == pytest.approx(1000.0, rel=1e-12)
    assert o2.objective == pytest.approx(1000.0, rel=1e-12)
    assert o1.duality_gap_rel <= 1e-6


def test_lp_duality_contract_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n, m = 6, 4
        a = rng.uniform(-1, 1, (m, n))
        x0 = rng.uniform(0, 2, n)  # feasible by construction
        senses = rng.choice(["<", ">", "="], m)
        b = a @ x0
        pad = np.where(senses == "<", 1.0, np.where(senses == ">", -1.0, 0.0))
        p = lp(rng.uniform(0.1, 2.0, n), a, senses, b + pad * rng.uniform(0, 1, m),
               np.zeros(n), np.full(n, 5.0))
        out = solve_lp(p)
        assert out.status == "optimal"
        assert out.duality_gap_rel <= 1e-6
        assert out.feasibility_residual <= 1e-7


def test_maximize_orientation():
    p = lp([1.0], [[1.0]], ["<"], [4.0], [0.0], [np.inf], maximize=True)
    out = solve_lp(p)
    assert out.objective == pytest.approx(4.0)
    # for a max problem, relaxing the <= cap raises the optimum
    assert out.row_duals[0] == pytest.approx(1.0)


def test_infeasible_and_unbounded_statuses():
    bad = lp([1.0], [[1.0], [1.0]], ["<", ">"], [1.0, 2.0], [0.0], [np.inf])
    assert solve_lp(bad).status == "infeasible"
    free = lp([-1.0], [[1.0]], [">"], [0.0], [-np.inf], [np.inf])
    assert solve_lp(free).status == "unbounded"


def _outcome_bits(out: SolveOutcome) -> tuple:
    arrays = [] if out.x is None else [out.x, out.row_duals, out.lower_duals,
                                        np.array([out.objective])]
    return (out.status,) + tuple(a.tobytes() for a in arrays)


def test_lp_model_resolves_match_fresh_solves():
    # three generators with equal costs: the dispatch is degenerate, so only
    # a cold re-solve reliably lands on the vertex a fresh model finds
    rows = [[1.0, 1.0, 1.0],    # balance
            [1.0, 0.0, 0.0],    # cap a
            [0.0, 1.0, 0.0],    # cap b
            [0.0, 0.0, 1.0],    # cap c
            [1.0, -1.0, 0.0]]   # floor on a - b
    senses = ["=", "<", "<", "<", ">"]
    c, lower, upper = [10.0, 10.0, 10.0], [0.0] * 3, [np.inf] * 3
    first = [44.0, 25.0, 44.0, 46.0, -14.0]
    sequence = [
        first,
        [101.0, 15.0, 0.0, 4.0, -2.0],     # demand beyond the caps: infeasible
        first,
        # warm-started from the previous basis, HiGHS stops at x = (5, 0, 31)
        [36.0, 24.0, 42.0, 31.0, -19.0],
    ]
    model = solver.LpModel(lp(c, rows, senses, first, lower, upper))
    statuses = []
    for rhs in sequence:
        reused = model.solve(np.array(rhs))
        fresh = solve_lp(lp(c, rows, senses, rhs, lower, upper))
        assert _outcome_bits(reused) == _outcome_bits(fresh), rhs
        statuses.append(reused.status)
    assert statuses == ["optimal", "infeasible", "optimal", "optimal"]


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
        return float(max(resid, np.max(p.lower - x, initial=0.0),
                         np.max(x - p.upper, initial=0.0)))

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
        p = lp(rng.uniform(-1, 1, n), rng.uniform(-1, 1, (m, n)),
               rng.choice(["<", ">", "="], m), rng.uniform(-1, 1, m),
               np.zeros(n), np.ones(n))
        x = rng.uniform(-0.5, 1.5, n)
        y = rng.uniform(-1, 1, m)
        assert solver.feasibility_residual(p, x) == loop_residual(p, x)
        res = solver.kkt_residuals(p, x, y)
        assert (res["dual_sign"], res["cs"]) == loop_sign_cs(p, x, y)


def milp(c, rows, senses, rhs, lower, upper, integrality, maximize=False):
    return MilpProblem(
        c=np.array(c, dtype=float),
        a=sp.csr_matrix(np.array(rows, dtype=float)),
        senses=np.array(senses),
        rhs=np.array(rhs, dtype=float),
        lower=np.array(lower, dtype=float),
        upper=np.array(upper, dtype=float),
        maximize=maximize,
        integrality=np.array(integrality, dtype=np.int8),
    )


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
        a=sp.csr_matrix(np.array([[0.0, 1.0]])),
        senses=np.array(["<"]),
        rhs=np.array([1.0]),
        lower=np.array([0.0, 0.0]),
        upper=np.array([np.inf, 1.0]),
        integrality=np.array([0, 1], dtype=np.int8),
    )
    assert solve_milp(unb).status == "unbounded"

    knap = milp([-5.0, -4.0, -3.0], [[2.0, 3.0, 1.0]], ["<"], [5.0],
                [0, 0, 0], [1, 1, 1], [1, 1, 1])
    out = solve_milp(knap, gap_tol=1e-9)
    assert out.status == "optimal"
    assert out.mip_gap is not None and out.mip_gap <= 1e-9
    assert out.node_count >= 1


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
    assert (q.a != p.a).nnz == 0


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
    p = lp([1.0, 2.0], [[1.0, 1.0]], ["<"], [1.0], [0.0], [1.0])
    with pytest.raises(ValueError, match="bounds length"):
        solve_lp(p)
