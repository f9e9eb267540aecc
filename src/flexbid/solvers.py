"""Pluggable LP backends.

A backend consumes the canonical sparse form

    minimize    c @ x
    subject to  A @ x <= rhs
                lo <= x <= hi

and returns a :class:`BackendResult`.  The shipped adapters wrap
``scipy.optimize.linprog`` (HiGHS family); additional backends can be
registered under a new name in :data:`BACKENDS`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

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
    """Canonical sparse LP payload handed to a backend."""

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
    extra: dict = field(default_factory=dict)


_SCIPY_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}


def _solve_scipy(data: LpData, method: str) -> BackendResult:
    started = time.perf_counter()
    bounds = np.column_stack([data.lo, data.hi])
    has_rows = data.A.shape[0] > 0
    try:
        res = linprog(
            data.c,
            A_ub=data.A if has_rows else None,
            b_ub=data.rhs if has_rows else None,
            bounds=bounds,
            method=method,
        )
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


def _scipy_backend(method: str):
    return lambda data: _solve_scipy(data, method)


BACKENDS = {
    "highs": _scipy_backend("highs"),
    "highs-ds": _scipy_backend("highs-ds"),
    "highs-ipm": _scipy_backend("highs-ipm"),
}


def solve_lp(data: LpData, backend: str = "highs") -> BackendResult:
    try:
        run = BACKENDS[backend]
    except KeyError:
        raise ValueError(f"unknown backend {backend!r}, available: {sorted(BACKENDS)}")
    return run(data)
