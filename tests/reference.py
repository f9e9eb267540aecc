"""Reference implementations the tests compare the package against.

None of these is on the path of the CLI, the solve or the certification:

- :class:`StackedDynamics` and :func:`build_state_matrices`, the N^2-sized
  stacked horizon matrices that the step map is checked against;
- :func:`zero_policy`, the policy that trades nothing;
- :func:`eval_reference`, the reference power at one instant;
- :func:`vertex_oracle`, the bidding problem solved by enumerating
  activation vertices, with none of the robust reformulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from flexbid import solvers
from flexbid.dynamics import DiscreteDynamics, SystemParams, _step_dynamics
from flexbid.market_time import SECONDS_PER_HOUR, IndexCounts, Timescales, derive_counts
from flexbid.policy import AffinePolicy, PolicyStructure, mask_entries
from flexbid.reference_map import ReferenceProfile
from flexbid.robust_lp import (EXPECTED_PROFIT, MAX_CAPACITY, ObjectiveSpec,
                               VariableLayout, build_market_matrices)


@dataclass(frozen=True)
class StackedDynamics(DiscreteDynamics):
    """Step coefficients plus the stacked horizon matrices.

    With x = (x_1..x_N), u = (u_1..u_N), p = (p_0..p_N) breakpoints:

        x = F*x0 + G @ u + H @ p + gamma * K @ v

    K lower triangular with K[s, i] = f^{s-i}, G = g*K, and H combines h1
    (weight of the interval's start breakpoint) with h2 (end breakpoint)
    propagated by f.  When the reference holds its start value through each
    interval instead of interpolating (``hold=True``), H carries h1 + h2 on
    the start breakpoint alone, which is the exact response to a constant
    drive.  These N^2-sized maps are the reference the step map is checked
    against; the program itself never builds them.
    """

    G: sp.csr_matrix
    H: sp.csr_matrix
    K: sp.csr_matrix


def build_state_matrices(
    a: float, b: float, c: float, t_step: float, n: int, hold: bool = False
) -> StackedDynamics:
    """Stack the exact step map over ``n`` intervals (t_step in hours).

    ``hold=True`` integrates the reference as a zero-order hold of each
    interval's start breakpoint (the last breakpoint never enters a state).
    """
    dd = _step_dynamics(a, b, c, t_step, n)
    powers = dd.f ** np.arange(n + 1)

    # K[s, i] = f^(s-i) for 0 <= i <= s (0-based), shape (n, n), built in CSR
    # directly: row s holds columns 0..s and starts at entry s(s+1)/2
    ptr = np.arange(n + 1) * np.arange(1, n + 2) // 2
    rows = np.repeat(np.arange(n), np.arange(1, n + 1))
    cols = np.arange(ptr[-1]) - ptr[rows]
    k_data = powers[rows - cols]
    K = sp.csr_matrix((k_data, cols, ptr), shape=(n, n))
    G = (dd.g * K).tocsr()

    if hold:
        # H[s, j] = f^(s-j)*(h1 + h2) for j <= s: constant drive per interval
        H = sp.csr_matrix((k_data * (dd.h1 + dd.h2), cols, ptr), shape=(n, n + 1))
    else:
        # H[s, j]: breakpoint j of p enters state s+1 (0-based row s) with
        # f^(s-j)*h1 for j <= s and f^(s+1-j)*h2 for 1 <= j <= s+1, so row s
        # holds columns 0..s+1 and K's entry (s, j) lands on entry k + s
        # (the h1 term of column j) and k + s + 1 (the h2 term of column j+1)
        pos = np.arange(ptr[-1]) + rows
        h_cols = np.empty(ptr[-1] + n, dtype=np.int64)
        h_cols[pos] = cols
        h_cols[pos + 1] = cols + 1
        h_data = np.zeros(ptr[-1] + n)
        h_data[pos] = k_data * dd.h1
        h_data[pos + 1] += k_data * dd.h2
        H = sp.csr_matrix((h_data, h_cols, ptr + np.arange(n + 1)), shape=(n, n + 1))

    return StackedDynamics(**vars(dd), G=G, H=H, K=K)


def zero_policy(counts: IndexCounts, gamma: float = 0.0) -> AffinePolicy:
    return AffinePolicy(
        Q_DA=sp.csr_matrix((counts.N_DA, counts.N_DA)),
        q_DA=np.zeros(counts.N_DA),
        Q_ID=sp.csr_matrix((counts.N_ID, counts.N_ID)),
        q_ID=np.zeros(counts.N_ID),
        gamma=gamma,
    )


def eval_reference(profile: ReferenceProfile, t: float, ts: Timescales) -> float:
    """Reference power (kW) at time ``t`` seconds, 0 <= t <= T_H."""
    p = profile.p_ref
    n_s = p.size - 1
    if not 0 <= t <= n_s * ts.T_S:
        raise ValueError(f"t={t} outside [0, {n_s * ts.T_S}]")
    if profile.piecewise_constant:
        return float(p[min(int(t // ts.T_S), n_s)])
    return float(np.interp(t, np.arange(n_s + 1) * ts.T_S, p))


def vertex_oracle(
    params: SystemParams,
    ts: Timescales,
    structure: PolicyStructure,
    objective: ObjectiveSpec | None = None,
):
    """Solve the bidding problem by enumerating activation vertices.

    Valid for lossless storage (a = 0), where the activation carry-over is
    linear in the averaged signal and every constraint is affine in it, so
    feasibility against the box reduces to feasibility at its vertices.
    Builds the constraints numerically per vertex with none of the robust
    reformulation code.  Exponential in N_S; refuses more than 12
    intervals.
    """
    if params.a != 0.0:
        raise ValueError("vertex enumeration requires lossless storage (a = 0)")
    counts = derive_counts(ts)
    n_s = counts.N_S
    if n_s > 12:
        raise ValueError(f"N_S = {n_s} too large for vertex enumeration (max 12)")
    objective = objective or ObjectiveSpec()
    mats = build_market_matrices(ts, counts)
    layout = VariableLayout(
        qda_entries=mask_entries(structure.mask_DA),
        qid_entries=mask_entries(structure.mask_ID),
        n_da=counts.N_DA,
        n_id=counts.N_ID,
    )
    n_pol = layout.n_policy
    gcol = layout.gamma
    t_h = ts.T_S / SECONDS_PER_HOUR
    c = params.c

    rm = mats["RM"].toarray()
    r_full = mats["R"].toarray()
    a_da = mats["A_DA"].toarray()
    a_id = mats["A_ID"].toarray()

    # state accumulation: trapezoid of the interpolated reference, or the
    # left-held rectangle c*T*(p_0 + .. + p_{s-1}) when T_RP = 0
    hold = ts.T_RP == 0
    w_acc = np.zeros((n_s, n_s + 1))
    for s in range(1, n_s + 1):
        if hold:
            w_acc[s - 1, :s] = 1.0
        else:
            w_acc[s - 1, 0] = 0.5
            w_acc[s - 1, s] = 0.5
            w_acc[s - 1, 1:s] = 1.0
    w_acc *= c * t_h
    u_cum = params.b * t_h * np.cumsum(params.u)

    p_hi_pt = np.concatenate([[params.p_hi[0]],
                              np.minimum(params.p_hi[:-1], params.p_hi[1:]),
                              [params.p_hi[-1]]])
    p_lo_pt = np.concatenate([[params.p_lo[0]],
                              np.maximum(params.p_lo[:-1], params.p_lo[1:]),
                              [params.p_lo[-1]]])
    x_hi_pt = np.concatenate([np.minimum(params.x_hi[:-1], params.x_hi[1:]),
                              [params.x_hi[-1]]])
    x_lo_pt = np.concatenate([np.maximum(params.x_lo[:-1], params.x_lo[1:]),
                              [params.x_lo[-1]]])
    swing = 2.0 * ts.T_S / ts.T_C

    rows_A, rhs_list = [], []

    def add(mat, rhs):
        """Rows ``mat @ x <= rhs``; infinite entries are dropped."""
        keep = np.isfinite(rhs)
        if keep.any():
            rows_A.append(np.atleast_2d(mat)[keep])
            rhs_list.append(rhs[keep])

    for bits in range(2 ** n_s):
        wv = np.array([1.0 if bits & (1 << i) else -1.0 for i in range(n_s)])
        # breakpoint powers as rows over policy variables
        b_mat = np.zeros((n_s + 1, n_pol))
        if layout.n_qda:
            wa = a_da @ wv
            for v, (k, j) in enumerate(layout.qda_entries):
                b_mat[:, v] += rm[:, k] * wa[j]
        if layout.n_qid:
            wi = a_id @ wv
            for v, (k, j) in enumerate(layout.qid_entries):
                b_mat[:, layout.n_qda + v] += r_full[:, k] * wi[j]
        b_mat[:, layout.off_qda_vec:layout.off_qda_vec + counts.N_DA] = rm
        b_mat[:, layout.off_qid_vec:layout.off_qid_vec + counts.N_ID] = r_full

        gam = np.zeros(n_pol)
        gam[gcol] = 1.0
        add(b_mat + gam, p_hi_pt)
        add(-(b_mat - gam), -p_lo_pt)

        d_mat = b_mat[1:] - b_mat[:-1]
        add(d_mat + swing * gam, params.r_hi * ts.T_S)
        add(-(d_mat - swing * gam), -params.r_lo * ts.T_S)

        # grid states: x0 + integral; activation adds c*T*cumsum(wv)*gamma
        x_mat = w_acc @ b_mat
        x_mat[:, gcol] += c * t_h * np.cumsum(wv)
        add(x_mat, x_hi_pt - params.x0_max - u_cum)
        add(-x_mat, -(x_lo_pt - params.x0_min - u_cum))

        # intra-interval envelopes, zero-slope and full-slope branches
        x_prev = np.vstack([np.zeros(n_pol), x_mat[:-1]])
        const_prev_hi = np.concatenate([[params.x0_max], params.x0_max + u_cum[:-1]])
        const_prev_lo = np.concatenate([[params.x0_min], params.x0_min + u_cum[:-1]])
        for s in range(1, n_s + 1):
            drive_lo = 0.5 * t_h * (params.b * params.u[s - 1])
            # a held reference keeps the start breakpoint to the interval end
            b_end = b_mat[s - 1] if hold else b_mat[s]
            over_a = x_prev[s - 1] + 0.5 * t_h * c * (b_mat[s - 1] + gam)
            add(over_a, np.array([params.x_hi[s - 1] - const_prev_hi[s - 1] - drive_lo]))
            over_b = x_prev[s - 1] + 0.5 * t_h * c * (b_mat[s - 1] + b_end + 2 * gam)
            add(over_b, np.array([params.x_hi[s - 1] - const_prev_hi[s - 1] - 2 * drive_lo]))
            under_a = x_prev[s - 1] + 0.5 * t_h * c * (b_mat[s - 1] - gam)
            add(-under_a, np.array([-(params.x_lo[s - 1] - const_prev_lo[s - 1] - drive_lo)]))
            under_b = x_prev[s - 1] + 0.5 * t_h * c * (b_mat[s - 1] + b_end - 2 * gam)
            add(-under_b,
                np.array([-(params.x_lo[s - 1] - const_prev_lo[s - 1] - 2 * drive_lo)]))

    A = sp.csr_matrix(np.vstack(rows_A))
    rhs = np.concatenate(rhs_list)
    lo = np.full(n_pol, -np.inf)
    hi = np.full(n_pol, np.inf)
    lo[gcol] = 0.0

    obj = np.zeros(n_pol)
    prices = objective.prices.resolved(counts)
    if objective.kind == MAX_CAPACITY:
        obj[gcol] = 1.0
    elif objective.kind == EXPECTED_PROFIT:
        t_id_h = ts.T_ID / SECONDS_PER_HOUR
        obj[gcol] = prices.c_RES + float(
            np.sum((prices.c_up * prices.rho_up + prices.c_dn * prices.rho_dn) * t_id_h))
        obj[layout.off_qda_vec:layout.off_qda_vec + counts.N_DA] = -prices.c_DA
        obj[layout.off_qid_vec:layout.off_qid_vec + counts.N_ID] = -prices.c_ID
        if layout.n_qda:
            ada_mu = a_da @ prices.mu
            obj[:layout.n_qda] = -prices.c_DA[layout.qda_entries[:, 0]] \
                * ada_mu[layout.qda_entries[:, 1]]
        if layout.n_qid:
            aid_mu = a_id @ prices.mu
            obj[layout.n_qda:layout.n_q] = -prices.c_ID[layout.qid_entries[:, 0]] \
                * aid_mu[layout.qid_entries[:, 1]]
    else:
        raise ValueError(f"unknown objective kind {objective.kind!r}")

    res = solvers.solve_lp(solvers.LpData(c=-obj, A=A, rhs=rhs, lo=lo, hi=hi))
    value = -res.objective if res.objective is not None else None
    return res.status, value, res.x
