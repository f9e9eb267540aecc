"""The LP solve: one direct call of the HiGHS solver bundled with scipy.

:func:`solve_lp` consumes the canonical sparse form

    minimize    c @ x
    subject to  A @ x <= rhs
                lo <= x <= hi

and returns a :class:`BackendResult` with a normalized status.  Callers
look ``solve_lp`` up through this module, so a test or a tracer can put
another function in its place.

:func:`write_mps` hands the same HiGHS model to HiGHS's own MPS writer:
``L`` rows named ``r0``.., columns ``c0``.., the objective row ``Obj``,
values at 15 significant digits.  A robust program's ``as_lp_data()`` is
the minimize form of its maximization, so the file's optimum is the
program's objective negated.

The model reaches HiGHS as arrays (CSC matrix, costs, bounds) through one
``passModel`` call; filling a ``HighsLp`` field by field copies every
array element by element (the 7-day program's hand-off took 8.9 ms that
way, 2.2 ms this way).

HiGHS runs its dual simplex without presolve, from the start basis that
the ``LpData`` carries.  A robust program starts with its free state
columns basic in place of the slacks of its ``dyn.hi`` rows, which is the
slack basis's point (policy zero, reference flat) without the pivots that
bring each state column in: the 7-day first stage takes 902 iterations
instead of 4,533.  Where the first stage admits a flat reference, as on
the shipped fixed-reference configs, the ramp refinement's optimum t = 0
is one pivot from that start; presolve rewrites the LP and loses it (the
7-day refinement took 3,414 iterations with presolve, 1 without).  The
dual simplex prices with devex: exact steepest-edge weights, which a start
other than the slack basis has to compute first, made the 7-day first
stage 0.44 s instead of 0.13 s.  The primal feasibility tolerance is 1e-9 rather
than HiGHS's 1e-7: without presolve the state rows' residuals reach a few
1e-8 and add up along the state recursion, past the 1e-7 to which
``robust_lp.solve`` certifies a point.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

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
    """Canonical sparse LP payload handed to the solver, with its start basis.

    The simplex starts with the columns ``basic_cols`` basic in place of the
    slacks of the rows ``tight_rows``, whose slacks start nonbasic at the
    row's upper bound; every other column starts nonbasic at a finite bound
    (lower first) or at zero, every other slack basic.  Both empty is the
    slack basis.
    """

    c: np.ndarray
    A: sp.csr_matrix
    rhs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    basic_cols: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    tight_rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


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

_OPTIONS = {
    "presolve": "off",
    "primal_feasibility_tolerance": 1e-9,
    "simplex_dual_edge_weight_strategy": 1,      # devex
    "output_flag": False,
}


def _highs_model(data: LpData) -> _highs._Highs:
    """A HiGHS instance holding ``data`` as ``A @ x <= rhs``, options set.

    Raises ``ValueError`` for non-finite costs or matrix entries, NaN row
    or column bounds, and a model that HiGHS refuses.
    """
    A = sp.csc_matrix(data.A)
    if not (np.isfinite(data.c).all() and np.isfinite(A.data).all()
            and not np.isnan(np.concatenate([data.rhs, data.lo, data.hi])).any()):
        raise ValueError("non-finite LP data")
    n_rows, n_cols = A.shape
    highs = _highs._Highs()
    for key, value in _OPTIONS.items():
        highs.setOptionValue(key, value)
    if highs.passModel(
            n_cols, n_rows, A.nnz, _highs.MatrixFormat.kColwise, _highs.ObjSense.kMinimize, 0.0,
            data.c, data.lo, data.hi, np.full(n_rows, -np.inf), data.rhs,
            A.indptr, A.indices, A.data, np.zeros(n_cols, dtype=np.int32),
    ) == _highs.HighsStatus.kError:
        raise ValueError("HiGHS refused the LP data")
    return highs


def _start_basis(data: LpData) -> _highs.HighsBasis:
    """The start basis that ``data.basic_cols`` and ``data.tight_rows`` describe."""
    status = _highs.HighsBasisStatus
    col = np.where(np.isfinite(data.lo), status.kLower,
                   np.where(np.isfinite(data.hi), status.kUpper, status.kZero))
    col[data.basic_cols] = status.kBasic
    row = np.full(data.rhs.size, status.kBasic, dtype=object)
    row[data.tight_rows] = status.kUpper
    basis = _highs.HighsBasis()
    basis.col_status = col.tolist()
    basis.row_status = row.tolist()
    basis.alien = False
    basis.valid = True
    return basis


def solve_lp(data: LpData) -> BackendResult:
    started = time.perf_counter()
    try:
        highs = _highs_model(data)
    except ValueError as exc:
        return BackendResult(status=FAILED, message=str(exc))
    if highs.setBasis(_start_basis(data)) == _highs.HighsStatus.kError:
        return BackendResult(status=FAILED, message="HiGHS refused the start basis")
    if highs.run() == _highs.HighsStatus.kError:
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


def write_mps(data: LpData, path) -> None:
    """Write ``data`` to ``path`` with HiGHS's own MPS writer.

    The file is the model :func:`solve_lp` solves.  HiGHS picks the format
    from the file name, so ``path`` must end in ``.mps``.  Raises
    ``OSError`` when HiGHS cannot write the file.
    """
    path = os.fspath(path)
    if not path.endswith(".mps"):
        raise ValueError(f"{path}: an MPS file name must end in .mps")
    if _highs_model(data).writeModel(path) == _highs.HighsStatus.kError:
        raise OSError(f"HiGHS could not write {path}")
