"""solver.CsrMatrix against scipy.sparse as the reference: construction,
products, column-major arrays and the row and column take, bit for bit; and
scipy.sparse kept off bessbid's import path."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from bessbid import bilevel, clearing, harness, solver
from bessbid.scenario import MarketMask, scenario_to_text
from bessbid.solver import CsrMatrix

from conftest import acceptance_instance

DATA = Path(__file__).parent / "data"


def same_array(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_same_matrix(got, want):
    for field in ("indptr", "indices", "data"):
        assert same_array(getattr(got, field), getattr(want, field)), field
    assert got.shape == want.shape and got.nnz == want.nnz


def random_entries(rng, m, n, count):
    """``count`` entries in random order over an ``m`` x ``n`` matrix,
    some of them explicit zeros, and a duplicate of some of them."""
    rows, cols = rng.integers(0, m, count), rng.integers(0, n, count)
    vals = rng.normal(size=count) * 10.0 ** rng.integers(-8, 8, count)
    vals[rng.random(count) < 0.1] = 0.0
    vals[rng.random(count) < 0.05] = -0.0
    # one duplicate of a few entries: a pair sums the same in any order
    _, first = np.unique(rows * n + cols, return_index=True)
    rows, cols, vals = rows[first], cols[first], vals[first]
    dup = rng.random(len(rows)) < 0.2
    rows = np.concatenate([rows, rows[dup]])
    cols = np.concatenate([cols, cols[dup]])
    vals = np.concatenate([vals, rng.normal(size=int(dup.sum()))])
    order = rng.permutation(len(rows))
    return rows[order], cols[order], vals[order]


SHAPES = [(1, 1, 1), (5, 7, 12), (40, 30, 300), (200, 3, 150), (3, 200, 150), (60, 60, 20)]


@pytest.mark.parametrize("m, n, count", SHAPES)
def test_from_entries_matches_scipy_coo_tocsr(m, n, count):
    rng = np.random.default_rng(m * 1000 + n)
    rows, cols, vals = random_entries(rng, m, n, count)
    want = sp.coo_matrix((vals, (rows, cols)), shape=(m, n)).tocsr()
    assert_same_matrix(CsrMatrix.from_entries(rows, cols, vals, (m, n)), want)


def test_from_entries_of_no_entries_and_out_of_bounds():
    empty = np.zeros(0, dtype=np.int64)
    for shape in ((0, 0), (3, 0), (0, 4), (3, 4)):
        want = sp.coo_matrix((np.zeros(0), (empty, empty)), shape=shape).tocsr()
        assert_same_matrix(CsrMatrix.from_entries(empty, empty, np.zeros(0), shape), want)
    for rows, cols in (([2], [0]), ([0], [3]), ([-1], [0])):
        with pytest.raises(ValueError, match="out of bounds"):
            CsrMatrix.from_entries(rows, cols, [1.0], (2, 3))


def test_csr_arrays_take_scipy_index_dtype():
    indptr, indices = np.array([0, 2, 3], dtype=np.int64), np.array([0, 2, 1], dtype=np.int64)
    data = np.array([1.0, 2.0, 3.0])
    got = CsrMatrix(indptr, indices, data, (2, 3))
    assert_same_matrix(got, sp.csr_matrix((data, indices, indptr), shape=(2, 3)))
    assert got.indptr.dtype == got.indices.dtype == np.int32


def _recorded_builds(monkeypatch):
    """Every matrix built from entries while the patch holds, with its entries."""
    built = []
    from_entries = CsrMatrix.from_entries.__func__

    def recording(cls, rows, cols, vals, shape):
        a = from_entries(cls, rows, cols, vals, shape)
        built.append((a, np.array(rows), np.array(cols), np.array(vals), shape))
        return a

    monkeypatch.setattr(CsrMatrix, "from_entries", classmethod(recording))
    return built


def _assert_builds_match_scipy(built):
    assert built
    for a, rows, cols, vals, shape in built:
        assert_same_matrix(a, sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr())


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_desk_models_match_scipy_construction(monkeypatch, case):
    built = _recorded_builds(monkeypatch)
    scn = harness.desk_scenario().with_mask(MarketMask.from_case(case))
    big_m = bilevel.assemble_milp(scn)
    cover = clearing.regimes(big_m.block.kkt.layout)
    bilevel.assemble_regime_milp(cover)
    assert len(built) == 2
    _assert_builds_match_scipy(built)


@pytest.mark.parametrize("case", [3, 4])
def test_reference_models_match_scipy_construction(monkeypatch, case):
    built = _recorded_builds(monkeypatch)
    bilevel.assemble_milp(harness.reference_scenario(MarketMask.from_case(case)))
    _assert_builds_match_scipy(built)


def test_imported_mps_matches_scipy_construction(monkeypatch):
    built = _recorded_builds(monkeypatch)
    solver.import_mps(str(DATA / "bidding_tiny.mps"))
    _assert_builds_match_scipy(built)


def _matrices():
    """Random matrices, some rows and columns without entries, and the desk
    and acceptance-1 clearing layouts."""
    rng = np.random.default_rng(7)
    out = []
    for m, n, count in SHAPES:
        rows, cols, vals = random_entries(rng, m, n, count)
        keep = rows % 4 != 1   # rows without entries
        out.append(CsrMatrix.from_entries(rows[keep], cols[keep], vals[keep], (m, n)))
    out.append(clearing.LlLayout(harness.desk_scenario()).a)
    out.append(clearing.LlLayout(acceptance_instance()).a)
    return out


@pytest.mark.parametrize("a", _matrices(), ids=lambda a: "x".join(map(str, a.shape)))
def test_dot_matches_scipy_product(a):
    rng = np.random.default_rng(a.nnz)
    ref = a.tocsr()
    # a 2-D x's rows, one 1-D product each and all at once, the same bits
    for k in (1, 7, 2541):
        x = rng.normal(size=(k, a.shape[1])) * 10.0 ** rng.integers(-6, 6, (k, a.shape[1]))
        assert same_array(a.dot(x[0]), ref @ x[0])
        got = a.dot(x)
        assert same_array(got, np.ascontiguousarray((ref @ x.T).T))
        assert same_array(got, np.stack([a.dot(row) for row in x]))
    with pytest.raises(ValueError, match="cannot multiply"):
        a.dot(np.ones(a.shape[1] + 1))


@pytest.mark.parametrize("a", _matrices(), ids=lambda a: "x".join(map(str, a.shape)))
def test_column_arrays_dense_and_entries_match_scipy(a):
    ref = a.tocsr()
    csc = ref.tocsc()
    for got, want in zip(a.csc, (csc.indptr, csc.indices, csc.data)):
        assert same_array(got, want)
    assert a.csc is a.csc   # computed once
    assert same_array(a.toarray(), ref.toarray())
    coo = ref.tocoo()
    assert np.array_equal(a.rows, coo.row) and a.rows is a.rows
    assert same_array(a.indices, coo.col) and same_array(a.data, coo.data)


@pytest.mark.parametrize("a", _matrices(), ids=lambda a: "x".join(map(str, a.shape)))
def test_take_matches_scipy_slicing(a):
    rng = np.random.default_rng(a.nnz + 1)
    m, n = a.shape
    ref = a.tocsr()
    for rows, cols in ((np.arange(m), np.arange(n)), (rng.permutation(m), np.arange(n // 2)),
                       (np.flatnonzero(rng.random(m) < 0.5), np.flatnonzero(rng.random(n) < 0.5)),
                       (np.arange(0), np.arange(n))):
        assert_same_matrix(a.take(rows, cols), ref[rows][:, cols])


def test_tocsr_shares_the_arrays():
    a = _matrices()[2]
    ref = a.tocsr()
    assert isinstance(ref, sp.csr_matrix) and ref.shape == a.shape
    for field in ("indptr", "indices", "data"):
        assert np.shares_memory(getattr(ref, field), getattr(a, field)), field


def test_problem_stores_scipy_input_as_its_entries():
    # unsorted columns and a duplicate pair, as a caller's scipy matrix may hold them
    given = sp.csr_matrix((np.array([2.0, 1.0, 0.5, -1.0, 3.0]), np.array([2, 0, 2, 1, 0]),
                           np.array([0, 3, 5])), shape=(2, 3))
    p = solver.LpProblem(c=np.ones(3), a=given, senses=np.array([">", "<"]),
                         rhs=np.array([1.0, 4.0]), lower=np.zeros(3), upper=np.ones(3))
    assert isinstance(p.a, CsrMatrix)
    coo = given.tocoo()
    assert_same_matrix(p.a, sp.coo_matrix((coo.data, (coo.row, coo.col)), shape=(2, 3)).tocsr())


def test_milp_model_has_no_residuals():
    knapsack = solver.MilpProblem(
        c=np.array([-5.0, -4.0, -3.0]),
        a=CsrMatrix.from_entries([0, 0, 0], [0, 1, 2], [2.0, 3.0, 1.0], (1, 3)),
        senses=np.array(["<"]), rhs=np.array([5.0]), lower=np.zeros(3), upper=np.ones(3),
        integrality=np.ones(3, dtype=np.int8))
    assert not hasattr(solver.LpModel(knapsack), "residuals")
    layout = clearing.LlLayout(harness.desk_scenario())
    assert solver.LpModel(layout.build_lp(0)).residuals.a is layout.a


def test_milp_solve_builds_no_column_arrays():
    # a MILP goes to HiGHS row-wise, as its matrix is held
    p = bilevel.assemble_milp(acceptance_instance()).milp
    assert solver.solve_milp(p, gap_tol=1e-9).status == solver.OPTIMAL
    assert "csc" not in vars(p.a)


# A fresh interpreter runs the CLI import, a desk case, an MPS round trip and
# the oracle of the scenario on stdin, then reports which scipy modules it
# loaded.
_SPARSE_PROBE = """
import json, os, sys, tempfile
import bessbid.cli
from bessbid import bilevel, harness, scenario, solver
from bessbid.scenario import MarketMask

desk = harness.desk_scenario(MarketMask.from_case(4))
harness.run_case(desk)
path = os.path.join(tempfile.mkdtemp(), "desk.mps")
solver.export_mps(bilevel.assemble_milp(desk).milp, path)
model = solver.import_mps(path)
oracle = harness.brute_force_oracle(scenario.scenario_from_text(sys.stdin.read()), 2.5)
print(json.dumps({"sparse": "scipy.sparse" in sys.modules,
                  "array_api": "scipy._lib._array_api" in sys.modules,
                  "rows": model.n_rows, "evaluated": oracle.evaluated}))
"""


def test_scipy_sparse_stays_off_the_import_path():
    env = dict(os.environ, PYTHONPATH=str(Path(solver.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", _SPARSE_PROBE], input=scenario_to_text(
        acceptance_instance()), capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    probe = json.loads(run.stdout)
    assert probe["sparse"] is False and probe["array_api"] is False
    assert probe["rows"] > 0 and probe["evaluated"] > 0
