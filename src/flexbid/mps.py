"""MPS export of assembled programs.

Programs are in the canonical form ``A x <= rhs``, ``lo <= x <= hi``, so
every row is an ``L`` row.  The writer emits whitespace-delimited MPS with
deterministic names (rows ``R0000001``.. in assembly order, columns
``C0000001``.., objective row ``COST``).  Values carry 12 significant
digits.  MPS has no maximize convention, so programs are written in
minimize form with the objective negated; a comment near the top records
this.  Free variables get ``FR`` bound lines; the MPS defaults (lower 0,
upper +inf) cover reserve capacity and the epigraph auxiliaries, so those
need no entry.

flexbid ships no reader.  The tests read the files back with HiGHS's own
MPS reader, so the writer is checked by an independent parser.
"""

from __future__ import annotations

import numpy as np

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

