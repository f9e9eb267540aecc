"""Robust counterpart of the joint energy and reserve bidding problem.

Decision variables are the policy coefficients (masked entries of Q_DA and
Q_ID, intercept vectors q_DA and q_ID, reserve capacity gamma >= 0) plus
one epigraph auxiliary per absolute-value term of the robust reformulation.
Every constraint family is affine in the averaged activation signal
w_tilde in [-1, 1]^N_S, so its robust counterpart replaces each
w_tilde-coefficient row A with the per-entry bound |A| @ 1, linearized as

    lambda_i >= +A_i,   lambda_i >= -A_i,   sum_i lambda_i <= slack.

Every row, including these epigraph rows and the lower row of each
family, is stored as ``A x <= rhs``: ``>=`` rows are written negated.

Families (one upper and/or lower row each):

  power  breakpoint s = 0..N_S: worst-case reference +/- gamma within the
         tighter of the two adjacent interval power bounds;
  ramp   segment s = 1..N_S: worst-case reference step plus the activation
         swing 2*gamma*T_S/T_C within the interval ramp bounds (rows with
         infinite bounds are dropped);
  state  grid state x_s, s = 1..N_S: the activation carry-over integral is
         bounded via the midpoint coefficient e_a_tau_hat with radius eps,
         giving |H Theta + c gamma e_hat T K|1 + c gamma eps T K 1 around
         the nominal kappa, within the tighter adjacent state bounds (the
         adverse initial-state endpoint is used per direction);
  intra-interval envelopes, s = 1..N_S: affine under/over-approximations of
         the state between grid points pinch the trajectory against the
         interval bounds at the interval end.  The clipped end slope of
         each envelope splits into a zero branch ("a" rows) and an affine
         branch ("b" rows), each robustified like the state family with
         the T_S/2-weighted breakpoint terms folded into the same
         per-interval absolute-value blocks;
  slope  segment s = 1..N_S, ramp refinement only: the worst-case reference
         step |diff Theta|1 + |diff theta| <= t, with t a new column that
         the refinement minimizes; no activation carry-over.  One
         ``objective.floor`` row keeps the first-stage objective.

Blocks whose policy part is structurally zero need no auxiliary: the
absolute term plus its eps slack collapses to c*gamma*T*K exactly.

A zero ramp window (T_RP = 0) declares the reference a left-held step
schedule, so the state and envelope families integrate each interval at its
start breakpoint (zero-order hold) instead of interpolating to the end one.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import solvers
from .dynamics import DiscreteDynamics, SystemParams, discretize_scales
from .market_time import SECONDS_PER_HOUR, IndexCounts, Timescales, derive_counts
from .policy import AffinePolicy, PolicyStructure, build_averaging, mask_entries, reference_affine_map
from .reference_map import build_M, build_R

log = logging.getLogger(__name__)

#: post-solve residual guard on returned primal points
FEASIBILITY_TOL = 1e-7

MAX_CAPACITY = "max_capacity"
EXPECTED_PROFIT = "expected_profit"

# row kinds (meta1 = 1-based family member s, meta2 = block interval or -1)
_ROW_KINDS = (
    "power.hi", "power.lo", "ramp.hi", "ramp.lo", "state.hi", "state.lo",
    "env_a.hi", "env_a.lo", "env_b.hi", "env_b.lo", "epi.pos", "epi.neg",
    "slope.hi", "slope.lo", "objective.floor",
)
_KIND_CODE = {name: code for code, name in enumerate(_ROW_KINDS)}
_UPPER_KINDS = [code for name, code in _KIND_CODE.items() if name.endswith(".hi")]


@dataclass
class PriceData:
    """Expected prices and activation statistics for profit objectives.

    Energy prices are per kWh on their market grid; ``c_RES`` is the
    availability price per kW of symmetric capacity over the horizon.
    ``rho_up``/``rho_dn`` are expected duty factors of up/down regulation
    per intra-day slot; ``mu`` is the expected averaged activation on the
    T_S grid.
    """

    c_RES: float = 0.0
    c_DA: np.ndarray | None = None
    c_ID: np.ndarray | None = None
    c_up: np.ndarray | None = None
    c_dn: np.ndarray | None = None
    rho_up: np.ndarray | None = None
    rho_dn: np.ndarray | None = None
    mu: np.ndarray | None = None

    def resolved(self, counts: IndexCounts) -> "PriceData":
        def fill(vec, n):
            return np.zeros(n) if vec is None else np.asarray(vec, dtype=float)

        return PriceData(
            c_RES=float(self.c_RES),
            c_DA=fill(self.c_DA, counts.N_DA),
            c_ID=fill(self.c_ID, counts.N_ID),
            c_up=fill(self.c_up, counts.N_ID),
            c_dn=fill(self.c_dn, counts.N_ID),
            rho_up=fill(self.rho_up, counts.N_ID),
            rho_dn=fill(self.rho_dn, counts.N_ID),
            mu=fill(self.mu, counts.N_S),
        )

    def validate(self, counts: IndexCounts, a_id: sp.spmatrix | None = None) -> list[str]:
        problems = []
        full = self.resolved(counts)
        for name, n in (("c_DA", counts.N_DA), ("c_ID", counts.N_ID), ("c_up", counts.N_ID),
                        ("c_dn", counts.N_ID), ("rho_up", counts.N_ID), ("rho_dn", counts.N_ID),
                        ("mu", counts.N_S)):
            if getattr(full, name).shape != (n,):
                problems.append(f"{name} must have length {n}")
        if problems:
            return problems
        if np.any(full.rho_up < 0) or np.any(full.rho_dn < 0):
            problems.append("duty factors must be nonnegative")
        if np.any(full.rho_up + full.rho_dn > 1 + 1e-12):
            problems.append("rho_up + rho_dn must not exceed 1 in any slot")
        if np.any(np.abs(full.mu) > 1 + 1e-12):
            problems.append("mu entries must lie in [-1, 1]")
        if self.mu is not None and (self.rho_up is not None or self.rho_dn is not None) \
                and a_id is not None:
            implied = np.asarray(a_id @ full.mu).ravel()
            if np.max(np.abs(implied - (full.rho_up - full.rho_dn))) > 1e-9:
                problems.append("mu is inconsistent with rho_up - rho_dn on the intra-day grid")
        return problems


@dataclass
class ObjectiveSpec:
    kind: str = MAX_CAPACITY
    prices: PriceData = field(default_factory=PriceData)

    def validate(self, counts: IndexCounts, a_id=None) -> list[str]:
        if self.kind not in (MAX_CAPACITY, EXPECTED_PROFIT):
            return [f"unknown objective kind {self.kind!r}"]
        if self.kind == EXPECTED_PROFIT:
            return self.prices.validate(counts, a_id)
        return []


@dataclass(frozen=True)
class VariableLayout:
    """Column layout: masked Q entries in scan order, q vectors, gamma."""

    qda_entries: np.ndarray
    qid_entries: np.ndarray
    n_da: int
    n_id: int

    @property
    def n_qda(self) -> int:
        return len(self.qda_entries)

    @property
    def n_qid(self) -> int:
        return len(self.qid_entries)

    @property
    def n_q(self) -> int:
        return self.n_qda + self.n_qid

    @property
    def off_qda_vec(self) -> int:
        return self.n_q

    @property
    def off_qid_vec(self) -> int:
        return self.n_q + self.n_da

    @property
    def gamma(self) -> int:
        return self.n_q + self.n_da + self.n_id

    @property
    def n_policy(self) -> int:
        return self.gamma + 1


class _Accumulator:
    """Batched COO builder of ``A x <= rhs`` rows with per-row metadata.

    Columns start with the given bounds; :meth:`add_vars` appends more.
    """

    def __init__(self, var_lo: np.ndarray, var_hi: np.ndarray):
        self.n_vars = len(var_lo)
        self.var_lo = [np.asarray(var_lo, dtype=float)]
        self.var_hi = [np.asarray(var_hi, dtype=float)]
        self.rows: list[np.ndarray] = []
        self.cols: list[np.ndarray] = []
        self.data: list[np.ndarray] = []
        self.rhs: list[np.ndarray] = []
        self.kind: list[np.ndarray] = []
        self.meta1: list[np.ndarray] = []
        self.meta2: list[np.ndarray] = []
        self.n_rows = 0

    def add_vars(self, count: int, lo: float = 0.0, hi: float = np.inf) -> int:
        first = self.n_vars
        self.n_vars += count
        self.var_lo.append(np.full(count, lo))
        self.var_hi.append(np.full(count, hi))
        return first

    def add_rows(self, local_rows, cols, data, rhs, kind, meta1, meta2) -> int:
        """Append a batch of rows; ``local_rows`` is 0-based within the batch."""
        first = self.n_rows
        n = len(rhs)
        self.rows.append(np.asarray(local_rows, dtype=np.int64) + first)
        self.cols.append(np.asarray(cols, dtype=np.int64))
        self.data.append(np.asarray(data, dtype=float))
        self.rhs.append(np.asarray(rhs, dtype=float))
        self.kind.append(np.asarray(kind, dtype=np.int16))
        self.meta1.append(np.asarray(meta1, dtype=np.int32))
        self.meta2.append(np.asarray(meta2, dtype=np.int32))
        self.n_rows += n
        return first

    def finish(self) -> dict:
        """CSR matrix (explicit zeros dropped), rhs, bounds and row tags.

        Upper rows (``*.hi``) come first, then the others, each group in the
        order it was added.  The rows are the same in any order, but HiGHS's
        dual simplex runs about a third slower per iteration on the day-long
        intra-day studies when the epigraph and lower rows sit between the
        upper ones.
        """
        def cat(parts, dtype):
            return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

        kind = cat(self.kind, np.int16)
        order = np.argsort(~np.isin(kind, _UPPER_KINDS), kind="stable")
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        A = sp.csr_matrix(
            (cat(self.data, float), (position[cat(self.rows, np.int64)], cat(self.cols, np.int64))),
            shape=(self.n_rows, self.n_vars),
        )
        A.eliminate_zeros()
        return dict(
            A=A, rhs=cat(self.rhs, float)[order],
            var_lo=np.concatenate(self.var_lo), var_hi=np.concatenate(self.var_hi),
            row_kind=kind[order],
            row_meta1=cat(self.meta1, np.int32)[order], row_meta2=cat(self.meta2, np.int32)[order],
        )


@dataclass
class RobustProgram:
    """Assembled sparse LP ``A x <= rhs``, ``var_lo <= x <= var_hi``, plus
    enough context to decode and audit it."""

    A: sp.csr_matrix
    rhs: np.ndarray
    var_lo: np.ndarray
    var_hi: np.ndarray
    obj: np.ndarray          # maximize obj @ x
    layout: VariableLayout
    row_kind: np.ndarray
    row_meta1: np.ndarray
    row_meta2: np.ndarray
    ts: Timescales
    counts: IndexCounts
    params: SystemParams
    structure: PolicyStructure
    objective: ObjectiveSpec
    matrices: dict
    dd: DiscreteDynamics

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    @property
    def n_vars(self) -> int:
        return self.A.shape[1]

    def row_tag(self, j: int) -> str:
        kind = _ROW_KINDS[self.row_kind[j]]
        s, i = self.row_meta1[j], self.row_meta2[j]
        return f"{kind}[{s}]" if i < 0 else f"{kind}[{s},{i}]"

    def var_name(self, v: int) -> str:
        lay = self.layout
        if v < lay.n_qda:
            k, j = lay.qda_entries[v]
            return f"Q_DA[{k + 1},{j + 1}]"
        if v < lay.n_q:
            k, j = lay.qid_entries[v - lay.n_qda]
            return f"Q_ID[{k + 1},{j + 1}]"
        if v < lay.off_qid_vec:
            return f"q_DA[{v - lay.off_qda_vec + 1}]"
        if v < lay.gamma:
            return f"q_ID[{v - lay.off_qid_vec + 1}]"
        if v == lay.gamma:
            return "gamma"
        return f"aux[{v - lay.n_policy + 1}]"

    def decode_policy(self, x: np.ndarray) -> AffinePolicy:
        lay = self.layout
        n_da, n_id = lay.n_da, lay.n_id

        def to_csr(entries, values, n):
            if len(entries) == 0:
                return sp.csr_matrix((n, n))
            return sp.csr_matrix((values, (entries[:, 0], entries[:, 1])), shape=(n, n))

        return AffinePolicy(
            Q_DA=to_csr(lay.qda_entries, x[:lay.n_qda], n_da),
            q_DA=np.array(x[lay.off_qda_vec:lay.off_qda_vec + n_da]),
            Q_ID=to_csr(lay.qid_entries, x[lay.n_qda:lay.n_q], n_id),
            q_ID=np.array(x[lay.off_qid_vec:lay.off_qid_vec + n_id]),
            gamma=float(x[lay.gamma]),
        )

    def max_violation(self, x: np.ndarray) -> float:
        """Largest constraint/bound residual of a primal point (0 if feasible)."""
        return max(
            float(np.max(self.A @ x - self.rhs, initial=0.0)),
            float(np.max(self.var_lo - x, initial=0.0)),
            float(np.max(x - self.var_hi, initial=0.0)),
        )

    def as_lp_data(self) -> solvers.LpData:
        """Minimization payload for a backend (objective negated)."""
        return solvers.LpData(c=-self.obj, A=self.A, rhs=self.rhs,
                              lo=self.var_lo, hi=self.var_hi)


@dataclass
class Solution:
    status: str
    objective: float | None
    gamma: float | None
    policy: AffinePolicy | None
    x: np.ndarray | None
    stats: dict
    program: RobustProgram


def build_market_matrices(ts: Timescales, counts: IndexCounts) -> dict:
    """All static maps used by assembly and verification."""
    M = build_M(counts, ts)
    R = build_R(ts, counts)
    A_DA, A_ID = build_averaging(counts, ts)
    return {"M": M, "R": R, "RM": (R @ M).tocsr(), "A_DA": A_DA, "A_ID": A_ID}


def _theta_symbol(layout: VariableLayout, mats: dict, n_s: int) -> sp.csr_matrix:
    """Sparse d(Theta[s, i]) / d(Q entries), flat column i * n_q + v."""
    n_q = layout.n_q
    rows, cols, data = [], [], []
    specs = (
        (layout.qda_entries, 0, mats["RM"].tocsc(), mats["A_DA"].tocsr()),
        (layout.qid_entries, layout.n_qda, mats["R"].tocsc(), mats["A_ID"].tocsr()),
    )
    for entries, offset, left_csc, avg_csr in specs:
        for v_local, (k, j) in enumerate(entries):
            v = offset + v_local
            left = left_csc.getcol(int(k)).tocoo()      # breakpoints touched by slot k
            avg = avg_csr.getrow(int(j)).tocoo()        # T_S intervals averaged by row j
            if left.nnz == 0 or avg.nnz == 0:
                continue
            rows.append(np.repeat(left.row, avg.nnz))
            cols.append(np.tile(avg.col * n_q + v, left.nnz))
            data.append(np.outer(left.data, avg.data).ravel())
    if rows:
        return sp.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n_s + 1, n_s * n_q),
        )
    return sp.csr_matrix((n_s + 1, max(n_s * n_q, 0)))


def _emit_family(
    acc: _Accumulator,
    *,
    name: str,
    W: sp.spmatrix,
    members: np.ndarray,
    krow: np.ndarray,
    rhs_up: np.ndarray,
    rhs_lo: np.ndarray,
    const_up: np.ndarray,
    const_lo: np.ndarray,
    dg_up: np.ndarray,
    dg_lo: np.ndarray,
    TH: sp.spmatrix,
    theta_coef: sp.spmatrix,
    layout: VariableLayout,
    f: float,
    eps: float,
    e_hat: float,
    c_t: float,
    dg_col: int | None = None,
) -> None:
    """Emit epigraph blocks and the upper/lower rows of one family.

    ``W`` maps breakpoint space to the family rows, ``members`` carries the
    1-based member index per row (tagging only), ``krow[r]`` the number of
    activation carry-over terms entering row r, ``c_t`` the product
    c * T_S (hours).  Infinite ``rhs`` entries suppress that direction.
    ``dg_up``/``dg_lo`` multiply column ``dg_col`` (gamma unless given).
    Every row is written as ``row <= rhs``: lower rows and epigraph rows
    come out negated.
    """
    n_fam = W.shape[0]
    n_q = layout.n_q
    gamma_col = layout.gamma
    dg_col = gamma_col if dg_col is None else dg_col

    finite_up = np.isfinite(rhs_up)
    finite_lo = np.isfinite(rhs_lo)
    live = finite_up | finite_lo
    if not live.any():
        return

    # --- absolute-value blocks -------------------------------------------
    if n_q:
        C = (W @ TH).tocoo()
        ent_r, ent_flat, ent_val = C.row, C.col, C.data
        keep = live[ent_r]
        ent_r, ent_flat, ent_val = ent_r[keep], ent_flat[keep], ent_val[keep]
        ent_i = ent_flat // n_q
        ent_v = ent_flat % n_q
    else:
        ent_r = np.empty(0, dtype=np.int64)
        ent_i = np.empty(0, dtype=np.int64)
        ent_v = np.empty(0, dtype=np.int64)
        ent_val = np.empty(0)

    key = ent_r.astype(np.int64) * (TH.shape[1] // n_q + 1 if n_q else 1) + ent_i
    order = np.argsort(key, kind="stable")
    ent_r, ent_i, ent_v, ent_val, key = (
        ent_r[order], ent_i[order], ent_v[order], ent_val[order], key[order])
    block_key, block_first = np.unique(key, return_index=True)
    n_blocks = block_key.size
    ent_block = np.searchsorted(block_key, key)
    block_r = ent_r[block_first]
    block_i = ent_i[block_first]

    lam0 = acc.add_vars(n_blocks, lo=0.0)

    # activation carry-over coefficient of each block (0 when i >= krow)
    sk = krow[block_r]
    has_k = block_i < sk
    powers = np.where(has_k, sk - 1 - block_i, 0)
    kval = np.where(has_k, f ** powers.astype(float), 0.0)
    gcoef = c_t * e_hat * kval

    if n_blocks:
        # epigraph pair per block: -lam +- (C + gcoef*gamma) <= 0
        erows = np.concatenate([
            2 * ent_block, 2 * ent_block + 1,                  # policy terms
            2 * np.arange(n_blocks), 2 * np.arange(n_blocks) + 1,  # lambda
            2 * np.arange(n_blocks), 2 * np.arange(n_blocks) + 1,  # gamma
        ])
        ecols = np.concatenate([
            ent_v, ent_v,
            lam0 + np.arange(n_blocks), lam0 + np.arange(n_blocks),
            np.full(n_blocks, gamma_col), np.full(n_blocks, gamma_col),
        ])
        edata = np.concatenate([
            ent_val, -ent_val,
            -np.ones(n_blocks), -np.ones(n_blocks),
            gcoef, -gcoef,
        ])
        n_epi = 2 * n_blocks
        epi_kind = np.empty(n_epi, dtype=np.int16)
        epi_kind[0::2] = _KIND_CODE["epi.pos"]
        epi_kind[1::2] = _KIND_CODE["epi.neg"]
        epi_m1 = np.repeat(members[block_r], 2)
        epi_m2 = np.repeat(block_i + 1, 2)
        acc.add_rows(erows, ecols, edata, np.zeros(n_epi), epi_kind, epi_m1, epi_m2)

    # per-row sums of carry-over weights, split into policy-active blocks
    # (kept as lambdas plus eps slack) and policy-free ones (folded: the
    # absolute term plus slack is exactly c*T*k per unit gamma)
    if f == 1.0:
        total_k = krow.astype(float)
    else:
        total_k = (1.0 - f ** krow.astype(float)) / (1.0 - f)
    act_k = np.zeros(n_fam)
    np.add.at(act_k, block_r, kval)
    free_k = total_k - act_k
    abs_gamma = c_t * (free_k + eps * act_k)

    q_rows = (W @ theta_coef).tocoo()

    def emit_direction(upper: bool) -> None:
        # sum(lam) + sgn*(q terms) + abs_gamma*gamma + sgn*dg*dg_col <= sgn*(rhs - const)
        mask = finite_up if upper else finite_lo
        if not mask.any():
            return
        idx = np.flatnonzero(mask)
        row_of = np.full(n_fam, -1, dtype=np.int64)
        row_of[idx] = np.arange(idx.size)
        sgn = 1.0 if upper else -1.0
        parts_r, parts_c, parts_d = [], [], []
        if n_blocks:
            bkeep = mask[block_r]
            parts_r.append(row_of[block_r[bkeep]])
            parts_c.append(lam0 + np.flatnonzero(bkeep))
            parts_d.append(np.ones(int(bkeep.sum())))
        qkeep = mask[q_rows.row]
        parts_r.append(row_of[q_rows.row[qkeep]])
        parts_c.append(q_rows.col[qkeep])
        parts_d.append(sgn * q_rows.data[qkeep])
        # gamma and dg_col entries; the CSR conversion sums them when they coincide
        parts_r += [row_of[idx], row_of[idx]]
        parts_c += [np.full(idx.size, gamma_col), np.full(idx.size, dg_col)]
        parts_d += [abs_gamma[idx], sgn * (dg_up[idx] if upper else dg_lo[idx])]
        rhs = (rhs_up[idx] - const_up[idx]) if upper else (const_lo[idx] - rhs_lo[idx])
        kind = _KIND_CODE[f"{name}.hi" if upper else f"{name}.lo"]
        acc.add_rows(
            np.concatenate(parts_r), np.concatenate(parts_c), np.concatenate(parts_d), rhs,
            np.full(idx.size, kind, dtype=np.int16), members[idx], np.full(idx.size, -1),
        )

    emit_direction(True)
    emit_direction(False)


def _adjacent(bounds: np.ndarray, tighter) -> np.ndarray:
    """Effective bound at breakpoints: tighter of the two adjacent intervals."""
    inner = tighter(bounds[:-1], bounds[1:])
    return np.concatenate([[bounds[0]], inner, [bounds[-1]]])


def assemble(
    params: SystemParams,
    ts: Timescales,
    structure: PolicyStructure,
    objective: ObjectiveSpec | None = None,
) -> RobustProgram:
    """Build the robust LP for one tendering period (maximize form)."""
    counts = derive_counts(ts)
    if counts.N_RES != 1:
        raise ValueError(
            f"one tendering period per program required (T_H = {ts.T_H}, "
            f"T_RES = {ts.T_RES} gives {counts.N_RES} periods); solve each period separately"
        )
    objective = objective or ObjectiveSpec()
    problems = params.validate(counts.N_S)
    if structure.mask_DA.shape != (counts.N_DA, counts.N_DA):
        problems.append(f"mask_DA shape {structure.mask_DA.shape} != N_DA {counts.N_DA}")
    if structure.mask_ID.shape != (counts.N_ID, counts.N_ID):
        problems.append(f"mask_ID shape {structure.mask_ID.shape} != N_ID {counts.N_ID}")
    mats = build_market_matrices(ts, counts)
    problems += objective.validate(counts, mats["A_ID"])
    if problems:
        raise ValueError("cannot assemble program:\n  " + "\n  ".join(problems))

    n_s = counts.N_S
    layout = VariableLayout(
        qda_entries=mask_entries(structure.mask_DA),
        qid_entries=mask_entries(structure.mask_ID),
        n_da=counts.N_DA,
        n_id=counts.N_ID,
    )
    var_lo = np.full(layout.n_policy, -np.inf)
    var_lo[layout.gamma] = 0.0
    acc = _Accumulator(var_lo, np.full(layout.n_policy, np.inf))

    # Q-entry symbol, reference map of the q vectors and the breakpoint
    # step operator; the ramp refinement reuses all three
    TH = mats["TH"] = _theta_symbol(layout, mats, n_s)
    theta_coef = mats["theta_coef"] = sp.hstack([
        sp.csr_matrix((n_s + 1, layout.n_q)),
        mats["RM"], mats["R"],
        sp.csr_matrix((n_s + 1, 1)),
    ]).tocsr()
    diff = mats["diff"] = sp.csr_matrix(
        (np.concatenate([np.ones(n_s), -np.ones(n_s)]),
         (np.concatenate([np.arange(n_s), np.arange(n_s)]),
          np.concatenate([np.arange(1, n_s + 1), np.arange(n_s)]))),
        shape=(n_s, n_s + 1),
    )

    dd = discretize_scales(params, ts, n_s)
    t_s_h = ts.T_S / SECONDS_PER_HOUR
    c_t = params.c * t_s_h
    gu = np.asarray(dd.G @ params.u).ravel()
    f_prev = np.concatenate([[1.0], dd.F[:-1]])
    gu_prev = np.concatenate([[0.0], gu[:-1]])

    common = dict(TH=TH, theta_coef=theta_coef, layout=layout,
                  f=dd.f, eps=dd.eps, e_hat=dd.e_a_tau_hat, c_t=c_t)
    members_bp = np.arange(n_s + 1)
    members_s = np.arange(1, n_s + 1)
    zeros_bp = np.zeros(n_s + 1)
    zeros_s = np.zeros(n_s)

    # power: reference +/- gamma within the tighter adjacent interval bounds
    _emit_family(
        acc, name="power", W=sp.eye(n_s + 1, format="csr"),
        members=members_bp, krow=np.zeros(n_s + 1, dtype=np.int64),
        rhs_up=_adjacent(params.p_hi, np.minimum),
        rhs_lo=_adjacent(params.p_lo, np.maximum),
        const_up=zeros_bp, const_lo=zeros_bp,
        dg_up=np.ones(n_s + 1), dg_lo=-np.ones(n_s + 1),
        **common,
    )

    # ramp: reference step plus activation swing within r * T_S
    swing = 2.0 * ts.T_S / ts.T_C
    _emit_family(
        acc, name="ramp", W=diff,
        members=members_s, krow=np.zeros(n_s, dtype=np.int64),
        rhs_up=params.r_hi * ts.T_S, rhs_lo=params.r_lo * ts.T_S,
        const_up=zeros_s, const_lo=zeros_s,
        dg_up=np.full(n_s, swing), dg_lo=np.full(n_s, -swing),
        **common,
    )

    # grid states within the tighter adjacent interval bounds
    _emit_family(
        acc, name="state", W=dd.H,
        members=members_s, krow=np.arange(1, n_s + 1, dtype=np.int64),
        rhs_up=np.concatenate([np.minimum(params.x_hi[:-1], params.x_hi[1:]), [params.x_hi[-1]]]),
        rhs_lo=np.concatenate([np.maximum(params.x_lo[:-1], params.x_lo[1:]), [params.x_lo[-1]]]),
        const_up=dd.F * params.x0_max + gu,
        const_lo=dd.F * params.x0_min + gu,
        dg_up=zeros_s, dg_lo=zeros_s,
        **common,
    )

    # intra-interval envelopes: previous grid state plus the integrated
    # envelope slope, zero branch ("a") and affine branch ("b")
    h_prev = sp.vstack([sp.csr_matrix((1, n_s + 1)), dd.H[:-1]]).tocsr()
    e_prev = sp.eye(n_s, n_s + 1, k=0, format="csr")
    e_cur = sp.eye(n_s, n_s + 1, k=1, format="csr")
    krow_env = np.arange(n_s, dtype=np.int64)
    if params.a == 0.0:       # keep 0 * inf out of the drift terms
        ax_lo = ax_hi = np.zeros(n_s)
    else:
        ax_lo, ax_hi = params.a * params.x_lo, params.a * params.x_hi
    drift_up = ax_lo + params.b * params.u   # over-approx uses the lower state bound
    drift_lo = ax_hi + params.b * params.u   # under-approx uses the upper state bound
    # a held reference (T_RP = 0) keeps the start breakpoint through the
    # interval end, so branch "b" integrates it instead of the end breakpoint
    e_end = e_prev if ts.T_RP == 0 else e_cur
    for branch, w_env, half_steps in (
        ("env_a", (h_prev + 0.5 * c_t * e_prev).tocsr(), 1.0),
        ("env_b", (h_prev + 0.5 * c_t * (e_prev + e_end)).tocsr(), 2.0),
    ):
        scale = 0.5 * t_s_h * half_steps
        _emit_family(
            acc, name=branch, W=w_env,
            members=members_s, krow=krow_env,
            rhs_up=params.x_hi, rhs_lo=params.x_lo,
            const_up=f_prev * params.x0_max + gu_prev + scale * drift_up,
            const_lo=f_prev * params.x0_min + gu_prev + scale * drift_lo,
            dg_up=np.full(n_s, scale * params.c),
            dg_lo=np.full(n_s, -scale * params.c),
            **common,
        )

    # ---- objective --------------------------------------------------------
    obj = np.zeros(acc.n_vars)
    prices = objective.prices.resolved(counts)
    if objective.kind == MAX_CAPACITY:
        obj[layout.gamma] = 1.0
    else:
        t_id_h = ts.T_ID / SECONDS_PER_HOUR
        obj[layout.gamma] = prices.c_RES + float(
            np.sum((prices.c_up * prices.rho_up + prices.c_dn * prices.rho_dn) * t_id_h))
        obj[layout.off_qda_vec:layout.off_qda_vec + counts.N_DA] = -prices.c_DA
        obj[layout.off_qid_vec:layout.off_qid_vec + counts.N_ID] = -prices.c_ID
        if layout.n_qda:
            ada_mu = np.asarray(mats["A_DA"] @ prices.mu).ravel()
            k_idx, j_idx = layout.qda_entries[:, 0], layout.qda_entries[:, 1]
            obj[:layout.n_qda] = -prices.c_DA[k_idx] * ada_mu[j_idx]
        if layout.n_qid:
            aid_mu = np.asarray(mats["A_ID"] @ prices.mu).ravel()
            k_idx, j_idx = layout.qid_entries[:, 0], layout.qid_entries[:, 1]
            obj[layout.n_qda:layout.n_q] = -prices.c_ID[k_idx] * aid_mu[j_idx]

    prog = RobustProgram(
        **acc.finish(), obj=obj, layout=layout,
        ts=ts, counts=counts, params=params, structure=structure,
        objective=objective, matrices=mats, dd=dd,
    )
    log.info("assembled robust LP: %d rows, %d columns, %d nonzeros",
             prog.n_rows, prog.n_vars, prog.A.nnz)
    return prog


def _theta_of_policy(prog: RobustProgram, pol: AffinePolicy):
    m = prog.matrices
    return reference_affine_map(pol, m["M"], m["R"], m["A_DA"], m["A_ID"])


def required_ramp(sol: Solution, ts: Timescales | None = None) -> float:
    """Minimum symmetric ramp capability (kW/s) keeping the policy feasible.

    Worst case over admissible activation of the reference slope, plus the
    2*gamma/T_C swing of the activation term between broadcasts.
    """
    if sol.policy is None:
        raise ValueError(f"no policy available (status {sol.status})")
    ts = ts or sol.program.ts
    theta_mat, theta_vec = _theta_of_policy(sol.program, sol.policy)
    d_mat = theta_mat[1:] - theta_mat[:-1]
    d_vec = np.diff(theta_vec)
    worst = np.asarray(np.abs(d_mat).sum(axis=1)).ravel() + np.abs(d_vec)
    slope = float(worst.max(initial=0.0)) / ts.T_S
    return slope + 2.0 * sol.policy.gamma / ts.T_C


def _slope_program(prog: RobustProgram, objective_floor: float) -> tuple[RobustProgram, int]:
    """Secondary-stage LP: keep the objective, minimize the worst reference step.

    The first-stage rows plus the ``slope`` family (|step of segment s| <= t,
    no activation carry-over) and one ``objective.floor`` row.  Returns the
    program, which maximizes -t, and the column of t.
    """
    n_s = prog.counts.N_S
    m = prog.matrices
    acc = _Accumulator(prog.var_lo, prog.var_hi)
    t_col = acc.add_vars(1)
    zeros_s = np.zeros(n_s)
    _emit_family(
        acc, name="slope", W=m["diff"],
        members=np.arange(1, n_s + 1), krow=np.zeros(n_s, dtype=np.int64),
        rhs_up=zeros_s, rhs_lo=zeros_s, const_up=zeros_s, const_lo=zeros_s,
        dg_up=np.full(n_s, -1.0), dg_lo=np.ones(n_s), dg_col=t_col,
        TH=m["TH"], theta_coef=m["theta_coef"], layout=prog.layout,
        f=1.0, eps=0.0, e_hat=0.0, c_t=0.0,
    )
    obj_nz = np.flatnonzero(prog.obj)
    acc.add_rows(np.zeros(obj_nz.size), obj_nz, -prog.obj[obj_nz], [-objective_floor],
                 [_KIND_CODE["objective.floor"]], [0], [-1])
    extra = acc.finish()

    # the first-stage rows, widened to the new columns without a copy
    first = sp.csr_matrix((prog.A.data, prog.A.indices, prog.A.indptr),
                          shape=(prog.n_rows, acc.n_vars))
    obj = np.zeros(acc.n_vars)
    obj[t_col] = -1.0  # maximize -t
    refined = dataclasses.replace(
        prog,
        A=sp.vstack([first, extra["A"]], format="csr"),
        rhs=np.concatenate([prog.rhs, extra["rhs"]]),
        var_lo=extra["var_lo"], var_hi=extra["var_hi"], obj=obj,
        **{key: np.concatenate([getattr(prog, key), extra[key]])
           for key in ("row_kind", "row_meta1", "row_meta2")},
    )
    return refined, t_col


def solve(
    prog: RobustProgram,
    backend: str = "highs",
    *,
    refine_ramp: bool = False,
    feasibility_tol: float = FEASIBILITY_TOL,
) -> Solution:
    """Solve the assembled program; optionally re-solve for the flattest
    optimal reference (same objective value, minimal worst-case step).

    ``stats["certified"]`` is False when the returned point breaks the
    program's rows or bounds by more than ``feasibility_tol``.  With
    refinement, ``stats["first_stage_objective"]`` keeps the objective the
    refinement started from (it may give up a relative 1e-7 of it).
    """
    res = solvers.solve_lp(prog.as_lp_data(), backend=backend)
    stats = {
        "backend": backend,
        "iterations": res.iterations,
        "wall_time": res.wall_time,
        "message": res.message,
        "rows": prog.n_rows,
        "columns": prog.n_vars,
    }
    if res.status != solvers.OPTIMAL:
        return Solution(status=res.status, objective=None, gamma=None,
                        policy=None, x=None, stats=stats, program=prog)

    x = res.x
    objective = float(prog.obj @ x)
    if refine_ramp:
        stats["first_stage_objective"] = objective
        floor = objective - 1e-7 * max(1.0, abs(objective))
        refined, t_col = _slope_program(prog, floor)
        res2 = solvers.solve_lp(refined.as_lp_data(), backend=backend)
        if res2.status == solvers.OPTIMAL:
            x = res2.x[:prog.n_vars]
            objective = float(prog.obj @ x)
            stats["refined"] = True
            stats["worst_step_kw"] = float(res2.x[t_col])
            stats["iterations"] = stats["iterations"] + res2.iterations
            stats["refine_wall_time"] = res2.wall_time
            stats["wall_time"] = stats["wall_time"] + res2.wall_time
        else:
            log.warning("ramp refinement failed (%s); keeping first-stage solution",
                        res2.status)
            stats["refined"] = False

    violation = prog.max_violation(x)
    stats["max_violation"] = violation
    stats["certified"] = violation <= feasibility_tol
    if not stats["certified"]:
        log.warning("solver point violates constraints by %.3e (tol %.1e)",
                    violation, feasibility_tol)
    policy = prog.decode_policy(x)
    return Solution(status=solvers.OPTIMAL, objective=objective,
                    gamma=policy.gamma, policy=policy, x=x, stats=stats, program=prog)
