"""Simulation-based certification of a bidding policy.

Everything here treats the policy as a black box: given an activation
signal on the control grid, compute the schedules it implies, build the
target power trajectory, integrate the storage dynamics exactly, and
check every operational limit pointwise.  None of the robust counterpart
machinery is reused, so agreement with the optimizer is evidence rather
than tautology.

Signals are piecewise linear on the control grid (length N_C + 1 values,
all within [-1, 1]).  Generators pin the first value to the second so a
sustained signal averages to exactly +/-1 on every metering interval.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.signal
import scipy.sparse as sp

from . import solvers
from .dynamics import SystemParams, discretize
from .market_time import SECONDS_PER_HOUR, IndexCounts, Timescales, derive_counts
from .policy import AffinePolicy, PolicyStructure, mask_entries, realized_schedules
from .reference_map import BaselineSchedule, reference_from_baseline
from .robust_lp import (EXPECTED_PROFIT, MAX_CAPACITY, ObjectiveSpec,
                        VariableLayout, build_market_matrices)

log = logging.getLogger(__name__)

SIGNAL_KINDS = ("zero", "sustained", "square_wave", "uniform_random", "clipped_random_walk")


@dataclass
class ActivationSignal:
    """Normalized activation on the control grid, piecewise linear."""

    values: np.ndarray
    T_C: int

    def validate(self, counts: IndexCounts | None = None) -> list[str]:
        problems = []
        if self.values.ndim != 1:
            problems.append("signal values must be one-dimensional")
        elif counts is not None and self.values.shape != (counts.N_C + 1,):
            problems.append(
                f"signal has {self.values.size} samples, expected N_C + 1 = {counts.N_C + 1}")
        if problems:
            return problems
        if np.max(np.abs(self.values), initial=0.0) > 1.0 + 1e-9:
            problems.append("signal exceeds the normalized band [-1, 1]")
        return problems


def gen_signal(kind: str, ts: Timescales, seed: int | None = None, **kw) -> ActivationSignal:
    """Generate a test signal of one of the named kinds.

    Keyword options: ``level`` (sustained), ``period`` and ``amplitude``
    (square_wave, period in seconds; half the period must be a positive
    multiple of T_C; the default is the largest such period up to T_ID,
    and at least 2·T_C), ``step`` (clipped_random_walk).
    """
    counts = derive_counts(ts)
    n = counts.N_C + 1
    t = np.arange(n) * ts.T_C
    if kind == "zero":
        values = np.zeros(n)
    elif kind == "sustained":
        values = np.full(n, float(kw.get("level", 1.0)))
    elif kind == "square_wave":
        period = int(kw.get("period", 2 * ts.T_C * max(1, ts.T_ID // (2 * ts.T_C))))
        if period <= 0 or period % (2 * ts.T_C) != 0:
            raise ValueError(f"square_wave period {period} s: half the period must be a "
                             f"positive multiple of T_C = {ts.T_C} s")
        amplitude = float(kw.get("amplitude", 1.0))
        values = np.where((t // (period // 2)) % 2 == 0, amplitude, -amplitude)
        values = values.astype(float)
    elif kind == "uniform_random":
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 1.0, size=n)
    elif kind == "clipped_random_walk":
        rng = np.random.default_rng(seed)
        step = float(kw.get("step", 0.05))
        values = np.clip(np.cumsum(rng.uniform(-step, step, size=n)), -1.0, 1.0)
    else:
        raise ValueError(f"unknown signal kind {kind!r}; choose from {SIGNAL_KINDS}")
    if n > 1:
        values[0] = values[1]
    sig = ActivationSignal(values=np.clip(values, -1.0, 1.0), T_C=ts.T_C)
    problems = sig.validate(counts)
    if problems:
        raise AssertionError("generated signal invalid: " + "; ".join(problems))
    return sig


def average_signal(sig: ActivationSignal, ts: Timescales) -> np.ndarray:
    """Per-metering-interval means of the piecewise-linear signal (length N_S)."""
    counts = derive_counts(ts)
    problems = sig.validate(counts)
    if problems:
        raise ValueError("; ".join(problems))
    mids = 0.5 * (sig.values[:-1] + sig.values[1:])
    m = ts.T_S // ts.T_C
    return mids.reshape(counts.N_S, m).mean(axis=1)


def save_signal(sig: ActivationSignal, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("# flexbid signal v1\n")
        fh.write(f"T_C {sig.T_C}\n")
        fh.write(f"samples {sig.values.size}\n")
        for v in sig.values:
            fh.write(repr(float(v)) + "\n")


def load_signal(path: str) -> ActivationSignal:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "# flexbid signal v1":
            raise ValueError(f"{path}: not a signal file (header {header!r})")
        t_c = int(fh.readline().split()[1])
        n = int(fh.readline().split()[1])
        values = np.array([float(fh.readline()) for _ in range(n)])
    return ActivationSignal(values=values, T_C=t_c)


def simulate_state(
    params: SystemParams,
    ts: Timescales,
    p_grid: np.ndarray,
    x0: float,
) -> np.ndarray:
    """Integrate the storage state under a piecewise-linear power trajectory.

    ``p_grid`` holds the net power at every control instant (length
    N_C + 1).  The per-step update is exact for linear dynamics driven by
    piecewise-linear power and piecewise-constant baseload, so the only
    error is floating point.  Returns the state at every control instant.
    """
    counts = derive_counts(ts)
    n_c = counts.N_C
    if p_grid.shape != (n_c + 1,):
        raise ValueError(f"power grid has {p_grid.size} samples, expected {n_c + 1}")
    delta_h = ts.T_C / SECONDS_PER_HOUR
    f, g, h1, h2 = discretize(params.a, params.b, params.c, delta_h)
    u_fine = np.repeat(params.u, ts.T_S // ts.T_C)
    drive = g * u_fine + h1 * p_grid[:-1] + h2 * p_grid[1:]
    x = np.empty(n_c + 1)
    x[0] = x0
    x[1:] = scipy.signal.lfilter([1.0], [1.0, -f], drive)
    if f != 0.0:
        x[1:] += f ** np.arange(1, n_c + 1) * x0
    return x


def _pointwise_bounds(per_interval: np.ndarray, m: int, tighter) -> np.ndarray:
    """Bound applying at each of the ``m * n + 1`` grid instants of ``n``
    intervals; interior boundary instants take the tighter of the two
    adjacent intervals."""
    out = np.append(np.repeat(per_interval, m), per_interval[-1])
    out[m:-1:m] = tighter(per_interval[:-1], per_interval[1:])
    return out


def _bound_scale(*bounds: np.ndarray) -> float:
    """Largest finite bound magnitude, floored at 1."""
    mags = np.abs(np.concatenate(bounds))
    return max(1.0, float(np.max(mags[np.isfinite(mags)], initial=0.0)))


@dataclass
class VerificationReport:
    feasible: bool
    gamma: float
    tol: float
    margins: dict = field(default_factory=dict)   # worst slack per check; < 0 violated
    scales: dict = field(default_factory=dict)
    messages: list = field(default_factory=list)

    def format(self) -> str:
        lines = []
        for name in sorted(self.margins):
            margin = self.margins[name]
            ok = margin >= -self.tol * self.scales[name]
            lines.append(f"{'PASS' if ok else 'FAIL'} {name}: worst slack {margin:+.6e}")
        for msg in self.messages:
            lines.append(msg)
        lines.append("feasible" if self.feasible else "INFEASIBLE")
        return "\n".join(lines)


def check_feasibility(
    policy: AffinePolicy,
    sig: ActivationSignal,
    params: SystemParams,
    ts: Timescales,
    tol: float = 1e-6,
) -> VerificationReport:
    """Simulate one admissible signal under the policy and check every limit.

    Slack is measured in natural units (kW, kW per step, kWh) and compared
    against ``tol`` times a per-check scale (the largest finite bound
    magnitude, floored at 1).  Each distinct initial-state endpoint is
    simulated once; reported margins are the worst over them.
    """
    counts = derive_counts(ts)
    problems = params.validate(counts.N_S) + sig.validate(counts)
    if sig.T_C != ts.T_C:
        problems.append(f"signal is sampled every T_C = {sig.T_C} s, "
                        f"but the config's control grid is T_C = {ts.T_C} s")
    if policy.gamma < 0:
        problems.append(f"gamma must be >= 0, got {policy.gamma}")
    if policy.Q_DA.shape != (counts.N_DA, counts.N_DA):
        problems.append(f"Q_DA shape {policy.Q_DA.shape} does not match N_DA {counts.N_DA}")
    if policy.Q_ID.shape != (counts.N_ID, counts.N_ID):
        problems.append(f"Q_ID shape {policy.Q_ID.shape} does not match N_ID {counts.N_ID}")
    if problems:
        raise ValueError("cannot verify:\n  " + "\n  ".join(problems))
    mats = build_market_matrices(ts, counts)
    w_avg = average_signal(sig, ts)
    e_da, e_id = realized_schedules(policy, w_avg, mats["A_DA"], mats["A_ID"])
    base = BaselineSchedule.from_trades(e_da, e_id, mats["M"])
    profile = reference_from_baseline(base.e_base, mats["R"], ts)

    m = ts.T_S // ts.T_C
    if profile.piecewise_constant:
        p_ref_fine = np.append(np.repeat(profile.p_ref[:-1], m), profile.p_ref[-1])
    else:
        t_grid = np.arange(counts.N_C + 1) * float(ts.T_C)
        p_ref_fine = np.interp(t_grid, np.arange(counts.N_S + 1) * float(ts.T_S), profile.p_ref)
    p_target = p_ref_fine + policy.gamma * sig.values

    scales = {
        "power": _bound_scale(params.p_hi, params.p_lo),
        "ramp": _bound_scale(params.r_hi * ts.T_C, params.r_lo * ts.T_C),
        "state": _bound_scale(params.x_hi, params.x_lo),
        "energy": 1.0,
    }
    messages: list[str] = []

    # power band (boundary instants: tighter of the adjacent intervals)
    hi_pt = _pointwise_bounds(params.p_hi, m, np.minimum)
    lo_pt = _pointwise_bounds(params.p_lo, m, np.maximum)
    margins = {"power": float(min(np.min(hi_pt - p_target), np.min(p_target - lo_pt)))}

    # ramp per control step, measured in kW per step; an infinite limit
    # leaves an infinite slack
    dp = np.diff(p_target)
    margins["ramp"] = float(min(np.min(np.repeat(params.r_hi * ts.T_C, m) - dp),
                                np.min(dp - np.repeat(params.r_lo * ts.T_C, m))))

    # state band for each admissible initial state; a zero-order-hold
    # reference holds each sample to the next instant while simulate_state
    # interpolates between samples, so the exact reference response adds a
    # filtered per-step drive difference h2*(p_k - p_{k+1}) on top (the
    # activation part stays piecewise linear by the signal semantics)
    x_hi_pt = _pointwise_bounds(params.x_hi, m, np.minimum)
    x_lo_pt = _pointwise_bounds(params.x_lo, m, np.maximum)
    x_corr = 0.0
    if profile.piecewise_constant:
        f, _, _, h2 = discretize(params.a, params.b, params.c, ts.T_C / SECONDS_PER_HOUR)
        x_corr = np.zeros(counts.N_C + 1)
        x_corr[1:] = scipy.signal.lfilter(
            [1.0], [1.0, -f], h2 * (p_ref_fine[:-1] - p_ref_fine[1:]))
    margins["state"] = np.inf
    for x0 in sorted({params.x0_min, params.x0_max}):
        x = simulate_state(params, ts, p_target, x0) + x_corr
        up = float(np.min(x_hi_pt - x))
        dn = float(np.min(x - x_lo_pt))
        margins["state"] = min(margins["state"], up, dn)
        if min(up, dn) < -tol * scales["state"]:
            worst = int(np.argmin(np.minimum(x_hi_pt - x, x - x_lo_pt)))
            messages.append(
                f"state limit violated from x0={x0:g} at t={worst * ts.T_C}s "
                f"(x={x[worst]:.6f})")

    # the reference delivered on the control grid must reproduce the
    # profile's slot energies (the ramp window legitimately moves energy
    # between slots relative to the traded positions, so compare against
    # the profile's own content, not e_base)
    delivered = _delivered_energy(p_ref_fine, ts, counts, rectangle=profile.piecewise_constant)
    margins["energy"] = -float(np.max(np.abs(profile.e_ref - delivered)))

    feasible = all(margins[k] >= -tol * scales[k] for k in margins)
    return VerificationReport(feasible=feasible, gamma=policy.gamma, tol=tol,
                              margins=margins, scales=scales, messages=messages)


def _delivered_energy(
    p_fine: np.ndarray, ts: Timescales, counts: IndexCounts, rectangle: bool = False
) -> np.ndarray:
    """Energy of the fine trajectory per trading slot (kWh).

    Trapezoid for interpolated references; left-endpoint rectangle for
    zero-order-hold references, matching how their slot energy is defined.
    """
    seg = p_fine[:-1] if rectangle else 0.5 * (p_fine[:-1] + p_fine[1:])
    per_slot = seg.reshape(counts.N_ID, -1).sum(axis=1)
    return per_slot * (ts.T_C / SECONDS_PER_HOUR)


# ---------------------------------------------------------------------------
# brute-force cross-check on small lossless instances


def vertex_oracle(
    params: SystemParams,
    ts: Timescales,
    structure: PolicyStructure,
    objective: ObjectiveSpec | None = None,
    backend: str = "highs",
    max_dim: int = 12,
):
    """Solve the bidding problem by enumerating activation vertices.

    Valid for lossless storage (a = 0), where the activation carry-over is
    linear in the averaged signal and every constraint is affine in it, so
    feasibility against the box reduces to feasibility at its vertices.
    Builds the constraints numerically per vertex with none of the robust
    reformulation code.  Exponential in N_S; refuses anything bigger than
    ``max_dim`` intervals.
    """
    if params.a != 0.0:
        raise ValueError("vertex enumeration requires lossless storage (a = 0)")
    counts = derive_counts(ts)
    n_s = counts.N_S
    if n_s > max_dim:
        raise ValueError(f"N_S = {n_s} too large for vertex enumeration (max {max_dim})")
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

    res = solvers.solve_lp(
        solvers.LpData(c=-obj, A=A, rhs=rhs, lo=lo, hi=hi),
        backend=backend,
    )
    value = -res.objective if res.objective is not None else None
    return res.status, value, res.x
