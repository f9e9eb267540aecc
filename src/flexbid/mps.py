"""MPS export of assembled programs, plus a small reader for round trips.

Programs are in the canonical form ``A x <= rhs``, ``lo <= x <= hi``, so
every row is an ``L`` row.  The writer emits whitespace-delimited MPS with
deterministic names (rows ``R0000001``.. in assembly order, columns
``C0000001``.., objective row ``COST``).  Values carry 12 significant
digits.  MPS has no maximize convention, so programs are written in
minimize form with the objective negated; a comment near the top records
this.  Free variables get ``FR`` bound lines; the MPS defaults (lower 0,
upper +inf) cover reserve capacity and the epigraph auxiliaries, so those
need no entry.

The reader understands exactly the subset the writer produces (sections
NAME, ROWS with ``N`` and ``L`` rows, COLUMNS, RHS, BOUNDS with
FR/MI/UP/LO/BV/PL markers) and returns a minimize-form problem; ``G`` and
``E`` rows and RANGES are rejected.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import solvers

_VAL = "%.11E"


def _row_name(i: int) -> str:
    return f"R{i + 1:07d}"


def _col_name(j: int) -> str:
    return f"C{j + 1:07d}"


def write_mps(target, path: str) -> None:
    """Write a program to ``path`` as the MPS problem ``FLEXBID``.

    ``target`` is either an assembled robust program (written negated, in
    minimize form) or a raw minimize-form problem.
    """
    if hasattr(target, "as_lp_data"):
        data = target.as_lp_data()
        negated = True
    else:
        data = target
        negated = False
    n_rows, n_vars = data.A.shape
    a_csc = data.A.tocsc()

    with open(path, "w") as fh:
        w = fh.write
        if negated:
            w("* minimize form of a maximize program: COST is the negated\n")
            w("* objective, so negate the optimal value to recover it.\n")
        w("NAME FLEXBID\n")
        w("ROWS\n")
        w(" N COST\n")
        for i in range(n_rows):
            w(f" L {_row_name(i)}\n")
        w("COLUMNS\n")
        for j in range(n_vars):
            cname = _col_name(j)
            wrote = False
            if data.c[j] != 0.0:
                w(f"    {cname} COST {_VAL % data.c[j]}\n")
                wrote = True
            for k in range(a_csc.indptr[j], a_csc.indptr[j + 1]):
                w(f"    {cname} {_row_name(a_csc.indices[k])} {_VAL % a_csc.data[k]}\n")
                wrote = True
            if not wrote:
                # declare the column so bounds can attach to it
                w(f"    {cname} COST {_VAL % 0.0}\n")
        w("RHS\n")
        for i in range(n_rows):
            if data.rhs[i] != 0.0:
                w(f"    RHS {_row_name(i)} {_VAL % data.rhs[i]}\n")
        w("BOUNDS\n")
        for j in range(n_vars):
            lo, hi = data.lo[j], data.hi[j]
            cname = _col_name(j)
            if lo == -np.inf and hi == np.inf:
                w(f" FR BND {cname}\n")
                continue
            if lo == 0.0 and hi == np.inf:
                continue
            if lo == -np.inf:
                w(f" MI BND {cname}\n")
            elif lo != 0.0:
                w(f" LO BND {cname} {_VAL % lo}\n")
            if hi != np.inf:
                w(f" UP BND {cname} {_VAL % hi}\n")
        w("ENDATA\n")


def read_mps(path: str) -> solvers.LpData:
    """Parse a file written by :func:`write_mps` into minimize form."""
    section = None
    obj_row = None
    row_order: list[str] = []
    col_order: list[str] = []
    col_index: dict[str, int] = {}
    entries: list[tuple[int, int, float]] = []
    obj_coef: dict[int, float] = {}
    rhs_map: dict[str, float] = {}
    bound_rows: list[tuple[str, str, float | None]] = []

    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line or line.startswith("*"):
                continue
            if not line[0].isspace():
                parts = line.split()
                section = parts[0]
                if section == "ENDATA":
                    break
                continue
            parts = line.split()
            if section == "ROWS":
                rtype, rname = parts[0], parts[1]
                if rtype == "N":
                    if obj_row is None:
                        obj_row = rname
                    continue
                if rtype != "L":
                    raise ValueError(f"unsupported row type {rtype!r}: only L rows are read")
                row_order.append(rname)
            elif section == "COLUMNS":
                cname = parts[0]
                if cname not in col_index:
                    col_index[cname] = len(col_order)
                    col_order.append(cname)
                j = col_index[cname]
                for rname, val in zip(parts[1::2], parts[2::2]):
                    value = float(val)
                    if rname == obj_row:
                        obj_coef[j] = obj_coef.get(j, 0.0) + value
                    else:
                        entries.append((rname, j, value))
            elif section == "RHS":
                for rname, val in zip(parts[1::2], parts[2::2]):
                    rhs_map[rname] = float(val)
            elif section == "BOUNDS":
                btype, cname = parts[0], parts[2]
                bval = float(parts[3]) if len(parts) > 3 else None
                bound_rows.append((btype, cname, bval))
            elif section == "RANGES":
                raise ValueError("RANGES sections are not supported")

    n_rows = len(row_order)
    n_vars = len(col_order)
    row_index = {rname: i for i, rname in enumerate(row_order)}
    rows = np.array([row_index[r] for r, _, _ in entries], dtype=np.int64) \
        if entries else np.empty(0, dtype=np.int64)
    cols = np.array([j for _, j, _ in entries], dtype=np.int64) \
        if entries else np.empty(0, dtype=np.int64)
    vals = np.array([v for _, _, v in entries]) if entries else np.empty(0)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(n_rows, n_vars))
    c = np.zeros(n_vars)
    for j, value in obj_coef.items():
        c[j] = value
    rhs = np.array([rhs_map.get(r, 0.0) for r in row_order])
    lo = np.zeros(n_vars)
    hi = np.full(n_vars, np.inf)
    for btype, cname, bval in bound_rows:
        j = col_index[cname]
        if btype == "FR":
            lo[j], hi[j] = -np.inf, np.inf
        elif btype == "MI":
            lo[j] = -np.inf
        elif btype == "PL":
            hi[j] = np.inf
        elif btype == "LO":
            lo[j] = bval
        elif btype == "UP":
            hi[j] = bval
        elif btype == "BV":
            lo[j], hi[j] = 0.0, 1.0
        else:
            raise ValueError(f"unsupported bound type {btype!r}")
    return solvers.LpData(c=c, A=A, rhs=rhs, lo=lo, hi=hi)
