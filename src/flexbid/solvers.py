"""The LP solve: one direct call of the HiGHS solver bundled with scipy.

:func:`solve_lp` consumes the canonical sparse form

    minimize    c @ x
    subject to  A @ x <= rhs
                lo <= x <= hi

and returns a :class:`BackendResult` with a normalized status.  Callers
look ``solve_lp`` up through this module, so a test or a tracer can put
another function in its place.

HiGHS runs its dual simplex without presolve, so it starts from the
slack basis, where every policy column is zero and the reference flat.
Where the first stage admits a flat reference, as on the shipped
fixed-reference configs, the ramp refinement's optimum t = 0 is one pivot
from that start; presolve rewrites the LP and loses it (the 7-day
refinement took 3,414 iterations with presolve, 1 without).  The primal
feasibility tolerance is 1e-9 rather than HiGHS's 1e-7: without presolve
the state rows' residuals reach a few 1e-8 and add up along the state
recursion, past the 1e-7 to which ``robust_lp.solve`` certifies a point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:
    raise ImportError(
        "flexbid needs scipy >= 1.15, whose scipy.optimize._highspy._core "
        "exposes the bundled HiGHS solver") from exc

#: normalized solver statuses
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
FAILED = "backend_failure"


@dataclass
class LpData:
    """Canonical sparse LP payload handed to the solver."""

    c: np.ndarray
    A: sp.csr_matrix
    rhs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


@dataclass
class BackendResult:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    message: str = ""
    iterations: int = 0
    wall_time: float = 0.0


_MODEL_STATUS = {
    _highs.HighsModelStatus.kOptimal: OPTIMAL,
    _highs.HighsModelStatus.kInfeasible: INFEASIBLE,
    _highs.HighsModelStatus.kUnbounded: UNBOUNDED,
}

_OPTIONS = {"presolve": "off", "primal_feasibility_tolerance": 1e-9, "output_flag": False}


def solve_lp(data: LpData) -> BackendResult:
    started = time.perf_counter()
    A = sp.csc_matrix(data.A)
    if not (np.isfinite(data.c).all() and np.isfinite(A.data).all()
            and not np.isnan(np.concatenate([data.rhs, data.lo, data.hi])).any()):
        return BackendResult(status=FAILED, message="non-finite LP data")
    n_rows, n_cols = A.shape
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n_cols
    lp.num_row_ = lp.a_matrix_.num_row_ = n_rows
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = A.indptr
    lp.a_matrix_.index_ = A.indices
    lp.a_matrix_.value_ = A.data
    lp.col_cost_ = data.c
    lp.col_lower_ = data.lo
    lp.col_upper_ = data.hi
    lp.row_lower_ = np.full(n_rows, -np.inf)
    lp.row_upper_ = data.rhs

    highs = _highs._Highs()
    for key, value in _OPTIONS.items():
        highs.setOptionValue(key, value)
    if (highs.passModel(lp) == _highs.HighsStatus.kError
            or highs.run() == _highs.HighsStatus.kError):
        return BackendResult(status=FAILED, message=highs.modelStatusToString(
            highs.getModelStatus()))
    elapsed = time.perf_counter() - started
    model_status = highs.getModelStatus()
    info = highs.getInfo()
    status = _MODEL_STATUS.get(model_status, FAILED)
    optimal = status == OPTIMAL
    return BackendResult(
        status=status,
        x=np.array(highs.getSolution().col_value) if optimal else None,
        objective=info.objective_function_value if optimal else None,
        message=highs.modelStatusToString(model_status),
        iterations=info.simplex_iteration_count,
        wall_time=elapsed,
    )
