"""The HiGHS call and the MPS export.

Proves:
  1. solve_lp recovers hand-checked optima and classifies infeasible and
     unbounded programs correctly; non-finite data is a backend failure,
     and a program both primal and dual infeasible is reported infeasible.
  2. MPS files round-trip the full LP payload (matrix, rhs, bounds,
     objective) at repr precision through HiGHS's own MPS reader, every
     row written as an L row, and both sides solve to the same optimum.
  3. Free/negative/bounded variables map to the right BOUNDS codes.
  4. Assembled robust programs export with the documented
     maximize-to-minimize negation.
  5. An adjustable program with epigraph columns, written to a file and
     solved from it, reaches the optimum of solve() on the program.
  6. The ramp refinement of a fixed-reference day starts next to its
     optimum: a handful of simplex iterations, not hundreds.
"""

from __future__ import annotations

import operator
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize._highspy import _core as highs

import flexbid
from flexbid import SystemParams, Timescales, assemble, solve, write_mps
from flexbid.cli import load_problem
from flexbid.policy import PolicyStructure
from flexbid.market_time import derive_counts
from flexbid.solvers import FAILED, INFEASIBLE, OPTIMAL, UNBOUNDED, LpData, solve_lp

MIN = 60
HOUR = 3600


def small_lp() -> LpData:
    """min -x - 2y  s.t.  x + y <= 4,  -x + y <= 2,  0 <= x,y <= 3."""
    A = sp.csr_matrix(np.array([[1.0, 1.0], [-1.0, 1.0]]))
    return LpData(
        c=np.array([-1.0, -2.0]),
        A=A,
        rhs=np.array([4.0, 2.0]),
        lo=np.zeros(2),
        hi=np.full(2, 3.0),
    )


def test_known_optimum():
    # optimum at x=1, y=3 (corner of -x+y<=2 and y<=3): objective -7
    res = solve_lp(small_lp())
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-7.0, abs=1e-9)
    assert np.allclose(res.x, [1.0, 3.0], atol=1e-8)
    assert res.iterations >= 0
    assert res.wall_time >= 0.0


def test_infeasible_detected():
    data = small_lp()
    data.rhs = np.array([4.0, -100.0])  # x - y >= 100 impossible in the box
    assert solve_lp(data).status == INFEASIBLE


def test_unbounded_detected():
    data = LpData(
        c=np.array([-1.0]),
        A=sp.csr_matrix((0, 1)),
        rhs=np.array([]),
        lo=np.array([0.0]),
        hi=np.array([np.inf]),
    )
    assert solve_lp(data).status == UNBOUNDED


def test_primal_and_dual_infeasible_is_infeasible():
    # x - y <= -1 and y - x <= -1 contradict each other, and the free
    # columns make the dual infeasible too; without presolve HiGHS settles
    # the status instead of reporting kUnboundedOrInfeasible
    data = LpData(
        c=np.array([-1.0, -1.0]),
        A=sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]])),
        rhs=np.array([-1.0, -1.0]),
        lo=np.full(2, -np.inf),
        hi=np.full(2, np.inf),
    )
    assert solve_lp(data).status == INFEASIBLE


@pytest.mark.parametrize("field, index, value", [
    ("c", 0, np.nan), ("c", 1, np.inf), ("A.data", 0, np.nan), ("rhs", 0, np.nan),
    ("lo", 0, np.nan), ("hi", 1, np.nan),
])
def test_non_finite_data_is_a_backend_failure(field, index, value):
    data = small_lp()
    operator.attrgetter(field)(data)[index] = value
    res = solve_lp(data)
    assert res.status == FAILED and res.x is None


# ---------------------------------------------------------------------------
# MPS round-trip


def read_mps(path) -> LpData:
    """Read an MPS file with HiGHS's reader into minimize-form ``LpData``."""
    reader = highs._Highs()
    reader.setOptionValue("output_flag", False)
    assert reader.readModel(str(path)) == highs.HighsStatus.kOk
    lp = reader.getLp()
    # every row the writer emits is an L row: no finite lower row bound
    assert np.all(np.asarray(lp.row_lower_) == -np.inf)
    a = lp.a_matrix_
    A = sp.csc_matrix((np.asarray(a.value_), np.asarray(a.index_), np.asarray(a.start_)),
                      shape=(lp.num_row_, lp.num_col_))
    return LpData(c=np.asarray(lp.col_cost_), A=A, rhs=np.asarray(lp.row_upper_),
                  lo=np.asarray(lp.col_lower_), hi=np.asarray(lp.col_upper_))


def random_lp(rng, n_rows=14, n_cols=9) -> LpData:
    A = sp.random(n_rows, n_cols, density=0.4, random_state=np.random.RandomState(
        int(rng.integers(1 << 31))), format="csr")
    A.data = np.round(A.data * 10 - 5, 6)
    lo = np.where(rng.random(n_cols) < 0.3, -np.inf, rng.uniform(-3, 0, n_cols))
    hi = np.where(rng.random(n_cols) < 0.3, np.inf, rng.uniform(1, 8, n_cols))
    return LpData(
        c=np.round(rng.normal(size=n_cols), 6),
        A=A,
        rhs=np.round(rng.normal(scale=4, size=n_rows), 6),
        lo=lo,
        hi=hi,
    )


def test_mps_round_trip_fields(tmp_path):
    rng = np.random.default_rng(2718)
    for i in range(8):
        data = random_lp(rng)
        path = tmp_path / f"case_{i}.mps"
        write_mps(data, str(path))
        back = read_mps(str(path))
        assert np.allclose(back.c, data.c, rtol=1e-10, atol=1e-14)
        assert np.allclose(back.A.toarray(), data.A.toarray(), rtol=1e-10, atol=1e-14)
        rows = path.read_text().split("ROWS\n")[1].split("COLUMNS\n")[0].splitlines()
        assert [line.split()[0] for line in rows] == ["N"] + ["L"] * data.rhs.size
        assert np.allclose(back.rhs, data.rhs, rtol=1e-10, atol=1e-14)
        assert np.array_equal(np.isinf(back.lo), np.isinf(data.lo))
        assert np.array_equal(np.isinf(back.hi), np.isinf(data.hi))
        finite = np.isfinite(data.lo)
        assert np.allclose(back.lo[finite], data.lo[finite], rtol=1e-10)
        finite = np.isfinite(data.hi)
        assert np.allclose(back.hi[finite], data.hi[finite], rtol=1e-10)


def test_mps_round_trip_solves_identically(tmp_path):
    rng = np.random.default_rng(404)
    solved = 0
    for i in range(12):
        data = random_lp(rng, n_rows=6, n_cols=5)
        # anchor the rhs on a point inside the box so most cases solve
        data.lo = np.where(np.isinf(data.lo), -10.0, data.lo)
        data.hi = np.where(np.isinf(data.hi), 10.0, data.hi)
        x_inner = data.lo + (data.hi - data.lo) * rng.random(data.c.size)
        ax = data.A @ x_inner
        data.rhs = ax + rng.random(data.rhs.size)
        res = solve_lp(data)
        path = tmp_path / f"solve_{i}.mps"
        write_mps(data, str(path))
        res_back = solve_lp(read_mps(str(path)))
        assert res_back.status == res.status
        if res.status == OPTIMAL:
            solved += 1
            assert res_back.objective == pytest.approx(res.objective, rel=1e-9, abs=1e-9)
    assert solved >= 3  # the generator must exercise the optimal path


def test_mps_bound_codes(tmp_path):
    data = LpData(
        c=np.array([1.0, 1.0, 1.0, 1.0]),
        A=sp.csr_matrix(-np.ones((1, 4))),
        rhs=np.array([-1.0]),
        lo=np.array([0.0, -np.inf, -2.5, 0.0]),
        hi=np.array([np.inf, np.inf, 7.5, 3.0]),
    )
    path = tmp_path / "bounds.mps"
    write_mps(data, str(path))
    text = path.read_text()
    assert " FR " in text  # fully free variable
    assert " UP " in text
    assert " LO " in text
    back = read_mps(str(path))
    assert back.lo[1] == -np.inf and back.hi[1] == np.inf
    assert back.lo[2] == pytest.approx(-2.5) and back.hi[2] == pytest.approx(7.5)
    assert back.lo[3] == 0.0 and back.hi[3] == pytest.approx(3.0)
    # default bounds need no BOUNDS entry at all
    assert back.lo[0] == 0.0 and back.hi[0] == np.inf


def test_program_export_negates_objective(tmp_path):
    ts = Timescales(T_H=2 * HOUR, T_RES=2 * HOUR, T_DA=HOUR, T_ID=15 * MIN,
                    T_S=5 * MIN, T_C=5 * MIN, T_RP=0)
    counts = derive_counts(ts)
    params = SystemParams.constant(counts.N_S, p_lo=-5, p_hi=5, x_lo=0,
                                   x_hi=15, x0_min=7.5, x0_max=7.5)
    structure = PolicyStructure.build(counts, ts, 0, 0)
    prog = assemble(params, ts, structure)
    path = tmp_path / "program.mps"
    write_mps(prog, str(path))
    text = path.read_text().splitlines()
    assert any(line.startswith("*") and "negated" in line for line in text)
    res = solve_lp(read_mps(str(path)))
    assert res.status == OPTIMAL
    # minimizing the negated objective recovers the maximal reserve offer
    assert -res.objective == pytest.approx(3.75, abs=1e-6)


def test_adjustable_export_solves_to_the_same_optimum(tmp_path):
    # intra-day lead-time config: the program has epigraph columns
    problem = load_problem(str(pathlib.Path(flexbid.__file__).parent
                               / "configs" / "powerwall_1day_lead1h.cfg"))
    prog = assemble(problem.params, problem.ts, problem.structure, problem.objective)
    assert prog.n_vars > prog.state_columns.stop
    path = tmp_path / "lead1h.mps"
    write_mps(prog, str(path))
    res = solve_lp(read_mps(path))
    assert res.status == OPTIMAL
    # 12 significant digits in the file bound the agreement
    assert -res.objective == pytest.approx(solve(prog).objective, rel=1e-9)


def test_fixed_reference_refinement_starts_at_its_optimum():
    problem = load_problem(str(pathlib.Path(flexbid.__file__).parent
                               / "configs" / "powerwall_1day.cfg"))
    sol = solve(assemble(problem.params, problem.ts, problem.structure, problem.objective),
                refine_ramp=True)
    assert sol.stats["refined"] and sol.stats["certified"]
    assert sol.stats["refine_iterations"] <= 10
