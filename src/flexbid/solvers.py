"""The LP solve: one call of HiGHS through ``scipy.optimize.linprog``.

:func:`solve_lp` consumes the canonical sparse form

    minimize    c @ x
    subject to  A @ x <= rhs
                lo <= x <= hi

and returns a :class:`BackendResult` with a normalized status.  Callers
look ``solve_lp`` up through this module, so a test or a tracer can put
another function in its place.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

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


_SCIPY_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}


def solve_lp(data: LpData) -> BackendResult:
    started = time.perf_counter()
    bounds = np.column_stack([data.lo, data.hi])
    try:
        res = linprog(data.c, A_ub=data.A, b_ub=data.rhs, bounds=bounds, method="highs")
    except Exception as exc:  # malformed input, solver crash
        return BackendResult(status=FAILED, message=str(exc))
    elapsed = time.perf_counter() - started
    status = _SCIPY_STATUS.get(res.status, FAILED)
    nit = int(np.sum(res.nit)) if res.nit is not None else 0
    if status == OPTIMAL and res.x is None:
        status = FAILED
    return BackendResult(
        status=status,
        x=np.asarray(res.x) if res.x is not None else None,
        objective=float(res.fun) if res.fun is not None else None,
        message=str(res.message),
        iterations=nit,
        wall_time=elapsed,
    )
