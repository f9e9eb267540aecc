"""Robust counterpart of the joint energy and reserve bidding problem.

Decision variables are the policy coefficients (masked entries of Q_DA and
Q_ID, intercept vectors q_DA and q_ID, reserve capacity gamma >= 0), the
N_S nominal grid states z_1..z_N_S (free, right after the policy), plus
one epigraph auxiliary per distinct absolute-value block of the robust
reformulation.  Every constraint family is affine in the averaged
activation signal w_tilde in [-1, 1]^N_S, so its robust counterpart
replaces each w_tilde-coefficient row A with the per-entry bound |A| @ 1,
linearized as

    lambda_i >= +A_i,   lambda_i >= -A_i,   sum_i lambda_i <= slack.

Block i of a row with k activation carry-over terms is stored per unit of
its decay weight w = f^(k-1-i), and its lambda enters the row with weight
w: for w > 0, w*|A_i/w| = |A_i|, so the row is unchanged in real
arithmetic.  The step map scales a block by f per interval, which the
weight absorbs, so a block that no new drive touches is its predecessor
bit for bit.  Blocks that are equal bit for bit (policy columns,
coefficients and gamma coefficient), within a family or across families,
share one lambda: a shared lambda >= |A_i| is the same constraint as one
per copy, so the projection onto the policy columns is unchanged (a row
whose blocks share a lambda sums their weights).  So the f-scaled
copies of a block in lossy storage share one lambda, and lossless storage
(f = 1) has every weight exactly 1.  The ramp refinement's slope family
looks up the first stage's lambdas as well, since its program holds the
first stage's rows.

One emitter, ``_emit_family``, writes every family but ``dyn``.  Each
family hands it the row's nominal part, its absolute-value blocks, the
upper and lower bound net of the row's constant part (+inf above or -inf
below means no row) and one margin per row, which both directions give up.

The nominal states follow the exact step map of the nominal reference
p = theta_coef @ x (the ``dyn`` family, one equality per interval written
as an upper and a lower row):

    z_s = f*z_{s-1} + h1*p_{s-1} + h2*p_s,   z_0 = 0,

with (h1 + h2)*p_{s-1} for a held reference (T_RP = 0).  Since f > 0 the
rows fix z = H @ p uniquely, where H is the condensed map of the stacked
recursion, so the projection onto the policy columns is the condensed
program's, with no rounding or tolerance involved.  The state and
envelope rows read z_s or z_{s-1} plus O(1) breakpoint terms instead of a
dense row of H @ theta_coef.  H itself is never built: the same step map,
run down the Q-entry columns of Theta, gives the absolute-value blocks
H @ Theta (empty without Q entries; per unit of their decay weights it is
a running sum), and run on a solved policy's reference it gives that
point's states.

Every row, including these epigraph rows and the lower row of each
family, is stored as ``A x <= rhs``: ``>=`` rows are written negated.

Families (one upper and/or lower row each):

  dyn    interval s = 1..N_S: the step map above, no activation term;
  power  breakpoint s = 0..N_S: worst-case reference +/- gamma within the
         tighter of the two adjacent interval power bounds;
  ramp   segment s = 1..N_S: worst-case reference step plus the activation
         swing 2*gamma*T_S/T_C within the interval ramp bounds (rows with
         infinite bounds are dropped);
  state  grid state x_s, s = 1..N_S: the activation carry-over integral is
         bounded via the midpoint coefficient e_a_tau_hat with radius eps,
         giving |H Theta + c gamma e_hat T K|1 + c gamma eps T K 1 around
         the nominal z_s, within the tighter adjacent state bounds (the
         adverse initial-state endpoint is used per direction);
  intra-interval envelopes, s = 1..N_S: affine under/over-approximations of
         the state between grid points pinch the trajectory against the
         interval bounds at the interval end.  The clipped end slope of
         each envelope splits into a zero branch ("a" rows) and an affine
         branch ("b" rows), each robustified like the state family with
         the T_S/2-weighted breakpoint terms folded into the same
         per-interval absolute-value blocks.  For lossless storage
         (f = e_hat = 1, eps = 0) "b" row s and state row s read the same
         z_s through the dyn rows and share every block but that of
         w_tilde_s, and the state bound is no looser.  So a "b" row is
         emitted only where that block holds policy terms: the state row
         keeps c*T_S*gamma inside its absolute value, the "b" row adds it
         outside.  No shipped config has such a block; a ramped reference
         with T_ID_lead = 0 and an intra-day lookback does;
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
from .dynamics import DiscreteDynamics, SystemParams, discretize_scales, propagate
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
    "slope.hi", "slope.lo", "objective.floor", "dyn.hi", "dyn.lo",
)
_KIND_CODE = {name: code for code, name in enumerate(_ROW_KINDS)}
_UPPER_KINDS = [code for name, code in _KIND_CODE.items() if name.endswith(".hi")]


#: price and activation series of :class:`PriceData`, each with the
#: ``IndexCounts`` field that gives the length of its grid
PRICE_SERIES = {
    "c_DA": "N_DA", "c_ID": "N_ID", "c_up": "N_ID", "c_dn": "N_ID",
    "rho_up": "N_ID", "rho_dn": "N_ID", "mu": "N_S",
}


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
        """Every series as a float array, zeros on its grid where unset."""
        def fill(name, grid):
            vec = getattr(self, name)
            return np.zeros(getattr(counts, grid)) if vec is None else np.asarray(vec, dtype=float)

        return PriceData(c_RES=float(self.c_RES),
                         **{name: fill(name, grid) for name, grid in PRICE_SERIES.items()})

    def validate(self, counts: IndexCounts, a_id: sp.spmatrix) -> list[str]:
        problems = []
        full = self.resolved(counts)
        for name, grid in PRICE_SERIES.items():
            n = getattr(counts, grid)
            if getattr(full, name).shape != (n,):
                problems.append(f"{name} must have length {n}")
        for name in ("c_RES", *PRICE_SERIES):
            if not np.all(np.isfinite(getattr(full, name))):
                problems.append(f"{name} must be finite")
        if problems:
            return problems
        if np.any(full.rho_up < 0) or np.any(full.rho_dn < 0):
            problems.append("duty factors must be nonnegative")
        if np.any(full.rho_up + full.rho_dn > 1 + 1e-12):
            problems.append("rho_up + rho_dn must not exceed 1 in any slot")
        if np.any(np.abs(full.mu) > 1 + 1e-12):
            problems.append("mu entries must lie in [-1, 1]")
        if self.mu is not None and (self.rho_up is not None or self.rho_dn is not None):
            implied = np.asarray(a_id @ full.mu).ravel()
            if np.max(np.abs(implied - (full.rho_up - full.rho_dn))) > 1e-9:
                problems.append("mu is inconsistent with rho_up - rho_dn on the intra-day grid")
        return problems


@dataclass
class ObjectiveSpec:
    kind: str = MAX_CAPACITY
    prices: PriceData = field(default_factory=PriceData)

    def validate(self, counts: IndexCounts, a_id: sp.spmatrix) -> list[str]:
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
    ``epigraph`` maps an absolute-value block's signature to its epigraph
    column, so every family emitted here shares it; ``abs_blocks`` counts
    the blocks before sharing.
    """

    def __init__(self, var_lo: np.ndarray, var_hi: np.ndarray):
        self.n_vars = len(var_lo)
        self.var_lo = [np.asarray(var_lo, dtype=float)]
        self.var_hi = [np.asarray(var_hi, dtype=float)]
        self.epigraph: dict[bytes, int] = {}
        self.abs_blocks = 0
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
    epigraph: dict           # absolute-value block signature -> its epigraph column

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    @property
    def n_vars(self) -> int:
        return self.A.shape[1]

    @property
    def state_columns(self) -> range:
        """Columns of the nominal grid states z_1..z_N_S, right after the policy."""
        return range(self.layout.n_policy, self.layout.n_policy + self.counts.N_S)

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
        z = self.state_columns
        if v < z.stop:
            return f"z[{v - z.start + 1}]"
        return f"aux[{v - z.stop + 1}]"

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
        """Minimization payload for the solver (objective negated)."""
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
    """Sparse d(Theta[s, i]) / d(Q entries), flat column i * n_q + v.

    Entry v = (k, j) adds left[s, v] * avg[v, i] at column i * n_q + v,
    where ``left`` holds slot k's column of RM (day-ahead) or R (intra-day)
    and ``avg`` the averaging row j.  ``spread`` gives each avg[v, i] a
    column of its own, so every entry of the product is a single product.
    """
    n_q = layout.n_q
    qda, qid = layout.qda_entries, layout.qid_entries
    left = sp.hstack([mats["RM"][:, qda[:, 0]], mats["R"][:, qid[:, 0]]], format="csr")
    avg = sp.vstack([mats["A_DA"][qda[:, 1]], mats["A_ID"][qid[:, 1]]]).tocoo()
    spread = sp.csr_matrix((avg.data, (avg.row, avg.col * n_q + avg.row)),
                           shape=(n_q, n_s * n_q))
    return (left @ spread).sorted_indices()


def _epigraph_columns(
    acc: _Accumulator,
    block_first: np.ndarray,
    ent_block: np.ndarray,
    ent_v: np.ndarray,
    ent_val: np.ndarray,
    gcoef: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Epigraph column of each absolute-value block, one per distinct block.

    A block's signature is its gamma coefficient followed by its (policy
    column, coefficient bytes) pairs in column order, so only blocks equal
    bit for bit share a column.  Blocks are first made distinct within the
    call (signature rows padded to the longest block), then looked up in
    ``acc.epigraph``.  Entries must be sorted by block, then by column.
    Returns the column of every block and the blocks that opened a new
    column, in first-occurrence order.
    """
    n_blocks = block_first.size
    size = np.diff(np.append(block_first, ent_v.size))
    slot = 1 + 2 * (np.arange(ent_v.size) - block_first[ent_block])
    sig = np.zeros((n_blocks, 1 + 2 * int(size.max(initial=0))), dtype=np.int64)
    sig[:, 1::2] = -1                                  # padding: no column
    sig[:, 0] = (gcoef + 0.0).view(np.int64)           # + 0.0 keys -0.0 as 0.0
    sig[ent_block, slot] = ent_v
    sig[ent_block, slot + 1] = (ent_val + 0.0).view(np.int64)
    # one opaque item per row: unique compares whole rows as bytes, several
    # times faster than np.unique(axis=0)'s field-by-field sort
    rows = sig.view(np.dtype((np.void, sig.itemsize * sig.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)

    col = np.empty(first.size, dtype=np.int64)
    fresh = []
    for u in np.argsort(first):
        b = first[u]
        key = sig[b, :1 + 2 * size[b]].tobytes()
        c = acc.epigraph.get(key)
        if c is None:
            c = acc.epigraph[key] = acc.n_vars + len(fresh)
            fresh.append(b)
        col[u] = c
    acc.add_vars(len(fresh), lo=0.0)
    acc.abs_blocks += n_blocks
    return col[inverse], np.asarray(fresh, dtype=np.int64)


def _emit_family(
    acc: _Accumulator,
    *,
    name: str,
    blocks: sp.spmatrix,
    nominal: sp.spmatrix,
    members: np.ndarray,
    krow: np.ndarray,
    hi: np.ndarray,
    lo: np.ndarray,
    dg: np.ndarray,
    layout: VariableLayout,
    f: float,
    eps: float,
    e_hat: float,
    c_t: float,
    dg_col: int | None = None,
) -> None:
    """Emit epigraph blocks and the upper/lower rows of one family.

    Row r bounds its nominal part (``nominal`` row r, over the program's
    columns) by ``hi[r]`` from above and ``lo[r]`` from below, each bound
    net of the row's constant part, with the worst case of its activation
    term and a margin ``dg[r]`` per unit of column ``dg_col`` (gamma unless
    given) taken off both sides:

        sum(w*lam) + row + abs_gamma*gamma + dg*x[dg_col] <= hi
        sum(w*lam) - row + abs_gamma*gamma + dg*x[dg_col] <= -lo

    the lower row written negated like every ``>=`` row.  A row exists
    where hi < inf (lo > -inf).  ``blocks`` holds the rows' absolute-value
    blocks over the Q entries, flat column i * n_q + v as in ``TH`` (block
    i of row r is the coefficient of w_tilde_i), each per unit of its
    decay weight w = f^(krow[r] - 1 - i); in sorted CSR order its
    entries come block by block, each block by policy column.  ``members``
    carries the 1-based member index per row (tagging only), ``krow[r]``
    the number of activation carry-over terms entering row r, ``c_t`` the
    product c * T_S (hours).  Epigraph rows are written negated too.
    """
    n_q = layout.n_q
    gamma_col = layout.gamma
    dg_col = gamma_col if dg_col is None else dg_col
    upper, lower = hi < np.inf, lo > -np.inf

    # --- absolute-value blocks of the live rows: a new block starts where
    # (row, interval) changes
    C = blocks.tocsr(copy=True)
    C.sum_duplicates()
    ent_r = np.repeat(np.arange(C.shape[0]), np.diff(C.indptr))
    keep = (upper | lower)[ent_r]
    ent_r, ent_val = ent_r[keep], C.data[keep]
    ent_i, ent_v = np.divmod(C.indices[keep], n_q)
    start = np.ones(ent_r.size, dtype=bool)
    start[1:] = (ent_r[1:] != ent_r[:-1]) | (ent_i[1:] != ent_i[:-1])
    block_first = np.flatnonzero(start)
    ent_block = np.cumsum(start) - 1
    block_r = ent_r[block_first]
    block_i = ent_i[block_first]

    # block (r, i) is stored per unit of its decay weight f^(krow[r]-1-i),
    # with which its lambda enters row r; the activation carry-over
    # coefficient is that weight where i < krow (else 0)
    weight = f ** (krow[block_r] - 1 - block_i).astype(float)
    has_k = block_i < krow[block_r]
    kval = np.where(has_k, weight, 0.0)
    gcoef = np.where(has_k, c_t * e_hat, 0.0)

    block_col, fresh = _epigraph_columns(acc, block_first, ent_block, ent_v, ent_val, gcoef)
    # epigraph pair per new column: -lam +- (C + gcoef*gamma) <= 0
    pair = np.full(block_first.size, -1, dtype=np.int64)
    pair[fresh] = np.arange(fresh.size)
    ent = np.flatnonzero(pair[ent_block] >= 0)
    ent_pair = pair[ent_block[ent]]
    new = np.arange(fresh.size)
    erows = np.concatenate([
        2 * ent_pair, 2 * ent_pair + 1,      # policy terms
        2 * new, 2 * new + 1,                # lambda
        2 * new, 2 * new + 1,                # gamma
    ])
    ecols = np.concatenate([
        ent_v[ent], ent_v[ent],
        block_col[fresh], block_col[fresh],
        np.full(fresh.size, gamma_col), np.full(fresh.size, gamma_col),
    ])
    edata = np.concatenate([
        ent_val[ent], -ent_val[ent],
        -np.ones(fresh.size), -np.ones(fresh.size),
        gcoef[fresh], -gcoef[fresh],
    ])
    n_epi = 2 * fresh.size
    epi_kind = np.empty(n_epi, dtype=np.int16)
    epi_kind[0::2] = _KIND_CODE["epi.pos"]
    epi_kind[1::2] = _KIND_CODE["epi.neg"]
    epi_m1 = np.repeat(members[block_r[fresh]], 2)
    epi_m2 = np.repeat(block_i[fresh] + 1, 2)
    acc.add_rows(erows, ecols, edata, np.zeros(n_epi), epi_kind, epi_m1, epi_m2)

    # per-row sums of carry-over weights sum_{j<krow} f^j (the step map
    # from 0 driven by ones), split into policy-active blocks (kept as
    # lambdas plus eps slack) and policy-free ones (folded: the absolute
    # term plus slack is exactly c*T*k per unit gamma)
    total_k = propagate(f, np.append(0.0, np.ones(krow.max(initial=0))))[krow]
    act_k = np.bincount(block_r, weights=kval, minlength=len(krow))
    free_k = total_k - act_k
    abs_gamma = c_t * (free_k + eps * act_k)

    nominal = nominal.tocoo()
    for kind, live, sgn, bound in (("hi", upper, 1.0, hi), ("lo", lower, -1.0, lo)):
        idx = np.flatnonzero(live)
        row_of = np.cumsum(live) - 1        # read at live rows only
        bkeep = live[block_r]
        nkeep = live[nominal.row]
        # the CSR conversion sums the gamma and dg_col entries when they coincide
        acc.add_rows(
            np.concatenate([row_of[block_r[bkeep]], row_of[nominal.row[nkeep]],
                            row_of[idx], row_of[idx]]),
            np.concatenate([block_col[bkeep], nominal.col[nkeep],
                            np.full(idx.size, gamma_col), np.full(idx.size, dg_col)]),
            np.concatenate([weight[bkeep], sgn * nominal.data[nkeep],
                            abs_gamma[idx], dg[idx]]),
            sgn * bound[idx],
            np.full(idx.size, _KIND_CODE[f"{name}.{kind}"], dtype=np.int16),
            members[idx], np.full(idx.size, -1),
        )


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
    # the envelope rows of lossy storage drift by a*x_lo and a*x_hi
    for name in ("x_lo", "x_hi"):
        if params.a != 0.0 and np.any(np.isinf(getattr(params, name))):
            problems.append(f"{name} must be finite for lossy storage (a = {params.a}): "
                            f"the state envelopes drift by a * {name}")
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

    # nominal grid states z_1..z_N_S: free columns after the policy
    z_first = acc.add_vars(n_s, lo=-np.inf)
    n_cols = z_first + n_s

    # Q-entry symbol, column block i stored per unit of f^-(i+1) (see
    # _emit_family), reference map of the q vectors and the breakpoint step
    # operator; the ramp refinement reuses all three
    dd = discretize_scales(params, ts, n_s)
    TH = mats["TH"] = _theta_symbol(layout, mats, n_s) @ sp.diags(np.repeat(dd.F, layout.n_q))
    theta_coef = mats["theta_coef"] = sp.hstack([
        sp.csr_matrix((n_s + 1, layout.n_q)),
        mats["RM"], mats["R"],
        sp.csr_matrix((n_s + 1, 1 + n_s)),        # gamma and the states
    ]).tocsr()
    diff = mats["diff"] = sp.csr_matrix(
        (np.concatenate([np.ones(n_s), -np.ones(n_s)]),
         (np.concatenate([np.arange(n_s), np.arange(n_s)]),
          np.concatenate([np.arange(1, n_s + 1), np.arange(n_s)]))),
        shape=(n_s, n_s + 1),
    )

    t_s_h = ts.T_S / SECONDS_PER_HOUR
    c_t = params.c * t_s_h
    gu = propagate(dd.f, dd.g * params.u)
    f_prev = np.concatenate([[1.0], dd.F[:-1]])
    gu_prev = np.concatenate([[0.0], gu[:-1]])

    common = dict(layout=layout, f=dd.f, eps=dd.eps, e_hat=dd.e_a_tau_hat, c_t=c_t)
    members_bp = np.arange(n_s + 1)
    members_s = np.arange(1, n_s + 1)

    # dyn: z_s - f*z_{s-1} - h1*p_{s-1} - h2*p_s = 0 as an upper and a lower
    # row.  A held reference (T_RP = 0) keeps the start breakpoint through
    # the interval end, so it drives the whole step with (h1 + h2)*p_{s-1}.
    e_prev = sp.eye(n_s, n_s + 1, k=0, format="csr")
    e_end = e_prev if ts.T_RP == 0 else sp.eye(n_s, n_s + 1, k=1, format="csr")
    step = mats["step"] = (dd.h1 * e_prev + dd.h2 * e_end).tocsr()
    z_cur = sp.eye(n_s, n_cols, k=z_first, format="csr")
    z_prev = sp.vstack([sp.csr_matrix((1, n_cols)), z_cur[:-1]]).tocsr()
    dyn = (z_cur - dd.f * z_prev - step @ theta_coef).tocoo()
    for kind, sgn in (("dyn.hi", 1.0), ("dyn.lo", -1.0)):
        acc.add_rows(dyn.row, dyn.col, sgn * dyn.data, np.zeros(n_s),
                     np.full(n_s, _KIND_CODE[kind]), members_s, np.full(n_s, -1))

    # power: reference +/- gamma within the tighter adjacent interval bounds
    _emit_family(
        acc, name="power", blocks=TH, nominal=theta_coef,
        members=members_bp, krow=np.zeros(n_s + 1, dtype=np.int64),
        hi=_adjacent(params.p_hi, np.minimum), lo=_adjacent(params.p_lo, np.maximum),
        dg=np.ones(n_s + 1), **common,
    )

    # ramp: reference step plus activation swing within r * T_S
    _emit_family(
        acc, name="ramp", blocks=diff @ TH, nominal=diff @ theta_coef,
        members=members_s, krow=np.zeros(n_s, dtype=np.int64),
        hi=params.r_hi * ts.T_S, lo=params.r_lo * ts.T_S,
        dg=np.full(n_s, 2.0 * ts.T_S / ts.T_C), **common,
    )

    # grid states within the tighter adjacent interval bounds, less the
    # adverse initial-state endpoint and the baseload; their blocks are the
    # step map run down TH's nonzero columns (the others stay zero), which
    # per unit of the blocks' decay weights is a running sum
    drive = (step @ TH).tocsc()
    th_cols = np.flatnonzero(np.diff(drive.indptr))
    HT = propagate(1.0, drive[:, th_cols].toarray() / dd.F[:, None])
    row, col = np.nonzero(HT)
    HT = sp.csr_matrix((HT[row, col], (row, th_cols[col])), shape=drive.shape)
    _emit_family(
        acc, name="state", blocks=HT, nominal=z_cur,
        members=members_s, krow=np.arange(1, n_s + 1, dtype=np.int64),
        hi=_adjacent(params.x_hi, np.minimum)[1:] - (dd.F * params.x0_max + gu),
        lo=_adjacent(params.x_lo, np.maximum)[1:] - (dd.F * params.x0_min + gu),
        dg=np.zeros(n_s), **common,
    )

    # intra-interval envelopes: previous grid state plus the integrated
    # envelope slope, zero branch ("a") and affine branch ("b"); branch "b"
    # integrates the breakpoint that holds at the interval end
    ht_prev = sp.vstack([sp.csr_matrix((1, HT.shape[1])), HT[:-1]]).tocsr()
    krow_env = np.arange(n_s, dtype=np.int64)
    if params.a == 0.0:       # keep 0 * inf out of the drift terms
        ax_lo = ax_hi = np.zeros(n_s)
    else:
        ax_lo, ax_hi = params.a * params.x_lo, params.a * params.x_hi
    drift_up = ax_lo + params.b * params.u   # over-approx uses the lower state bound
    drift_lo = ax_hi + params.b * params.u   # under-approx uses the upper state bound
    for branch, slope, half_steps in (
        ("env_a", 0.5 * c_t * e_prev, 1.0),
        ("env_b", 0.5 * c_t * (e_prev + e_end), 2.0),
    ):
        scale = 0.5 * t_s_h * half_steps
        blocks = ht_prev + sp.diags(1.0 / f_prev) @ slope @ TH
        hi = params.x_hi - (f_prev * params.x0_max + gu_prev + scale * drift_up)
        lo = params.x_lo - (f_prev * params.x0_min + gu_prev + scale * drift_lo)
        if branch == "env_b" and params.a == 0.0:
            # lossless: state row s implies env_b row s unless the block of
            # w_tilde_s holds policy terms (see the module docstring)
            own = blocks.tocoo()
            live = np.isin(np.arange(n_s), own.row[own.col // layout.n_q == own.row])
            hi, lo = np.where(live, hi, np.inf), np.where(live, lo, -np.inf)
        _emit_family(
            acc, name=branch, blocks=blocks, nominal=z_prev + slope @ theta_coef,
            members=members_s, krow=krow_env, hi=hi, lo=lo,
            dg=np.full(n_s, scale * params.c), **common,
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
        objective=objective, matrices=mats, dd=dd, epigraph=acc.epigraph,
    )
    log.info("assembled robust LP: %d rows, %d columns, %d nonzeros; "
             "%d absolute-value blocks share %d epigraph columns",
             prog.n_rows, prog.n_vars, prog.A.nnz, acc.abs_blocks, len(acc.epigraph))
    return prog


def required_ramp(sol: Solution) -> float:
    """Minimum symmetric ramp capability (kW/s) keeping the policy feasible.

    Worst case over admissible activation of the reference slope, plus the
    2*gamma/T_C swing of the activation term between broadcasts.
    """
    if sol.policy is None:
        raise ValueError(f"no policy available (status {sol.status})")
    ts = sol.program.ts
    m = sol.program.matrices
    theta_mat, theta_vec = reference_affine_map(sol.policy, m["M"], m["R"], m["A_DA"], m["A_ID"])
    d_mat = theta_mat[1:] - theta_mat[:-1]
    d_vec = np.diff(theta_vec)
    worst = np.asarray(np.abs(d_mat).sum(axis=1)).ravel() + np.abs(d_vec)
    slope = float(worst.max(initial=0.0)) / ts.T_S
    return slope + 2.0 * sol.policy.gamma / ts.T_C


def _slope_program(prog: RobustProgram, objective_floor: float) -> tuple[RobustProgram, int]:
    """Secondary-stage LP: keep the objective, minimize the worst reference step.

    The first-stage rows plus the ``slope`` family (|step of segment s| <= t,
    no activation carry-over) and one ``objective.floor`` row.  A slope block
    equal bit for bit to a first-stage block reuses its epigraph column,
    whose rows the first stage already holds.  Returns the program, which
    maximizes -t, and the column of t.
    """
    n_s = prog.counts.N_S
    m = prog.matrices
    acc = _Accumulator(prog.var_lo, prog.var_hi)
    acc.epigraph = dict(prog.epigraph)
    t_col = acc.add_vars(1)
    _emit_family(
        acc, name="slope", blocks=m["diff"] @ m["TH"],
        members=np.arange(1, n_s + 1), krow=np.zeros(n_s, dtype=np.int64),
        hi=np.zeros(n_s), lo=np.zeros(n_s), dg=np.full(n_s, -1.0), dg_col=t_col,
        nominal=m["diff"] @ m["theta_coef"], layout=prog.layout,
        f=prog.dd.f, eps=0.0, e_hat=0.0, c_t=0.0,
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
        var_lo=extra["var_lo"], var_hi=extra["var_hi"], obj=obj, epigraph=acc.epigraph,
        **{key: np.concatenate([getattr(prog, key), extra[key]])
           for key in ("row_kind", "row_meta1", "row_meta2")},
    )
    return refined, t_col


def solve(prog: RobustProgram, *, refine_ramp: bool = False) -> Solution:
    """Solve the assembled program; optionally re-solve for the flattest
    optimal reference (same objective value, minimal worst-case step).

    ``stats["certified"]`` is False when the returned point breaks the
    program's rows or bounds by more than ``FEASIBILITY_TOL``; its state
    columns are recomputed from its policy by the step map, not taken from
    the solver.  With refinement, ``stats["first_stage_objective"]`` keeps
    the objective the refinement started from (it may give up a relative
    1e-7 of it).
    """
    res = solvers.solve_lp(prog.as_lp_data())
    stats = {
        "iterations": res.iterations,
        "wall_time": res.wall_time,
        "message": res.message,
        "rows": prog.n_rows,
        "columns": prog.n_vars,
        "nonzeros": prog.A.nnz,
        "state_columns": len(prog.state_columns),
        "epigraph_columns": prog.n_vars - prog.state_columns.stop,
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
        res2 = solvers.solve_lp(refined.as_lp_data())
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

    # the state columns carry the solver's step-map residuals, which add up
    # along the recursion; reset them to the step map of the returned
    # policy so the check below bounds the true state violations
    x = x.copy()
    z = prog.state_columns
    m = prog.matrices
    x[z] = propagate(prog.dd.f, m["step"] @ (m["theta_coef"] @ x[:z.stop]))
    violation = prog.max_violation(x)
    stats["max_violation"] = violation
    stats["certified"] = violation <= FEASIBILITY_TOL
    if not stats["certified"]:
        log.warning("solver point violates constraints by %.3e (tol %.1e)",
                    violation, FEASIBILITY_TOL)
    policy = prog.decode_policy(x)
    return Solution(status=solvers.OPTIMAL, objective=objective,
                    gamma=policy.gamma, policy=policy, x=x, stats=stats, program=prog)
