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

A check does per signal only what the signal moves.  What depends on the
grid alone (the interval counts, the market maps M, R, A_DA and A_ID, and
the control instants' offsets within a settlement interval) is built once
per frozen ``Timescales`` and cached read-only; it is verification's own
copy, never the dict that assembly extends.  What depends on the
reference breakpoints alone (the reference on the control grid, the
slot-energy check and a held reference's state correction) is kept
read-only for the latest reference: a fixed-reference policy builds it
once for every signal and every gamma, while an adjustable policy's
reference moves with the signal and builds it anew.  The decay powers
f**k of the state simulation are cached for the latest (f, N_C) only.
"""

from __future__ import annotations

import functools
import logging
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import solvers
from .dynamics import SystemParams, discretize, propagate
from .market_time import SECONDS_PER_HOUR, IndexCounts, Timescales, derive_counts
from .policy import AffinePolicy, PolicyStructure, mask_entries, realized_schedules
from .reference_map import ReferenceProfile, energy_content, reference_from_baseline
from .robust_lp import (EXPECTED_PROFIT, MAX_CAPACITY, ObjectiveSpec,
                        VariableLayout, build_market_matrices)

log = logging.getLogger(__name__)

SIGNAL_KINDS = ("zero", "sustained", "square_wave", "uniform_random", "clipped_random_walk")


@dataclass
class ActivationSignal:
    """Normalized activation on the control grid, piecewise linear."""

    values: np.ndarray
    T_C: int

    def validate(self, counts: IndexCounts) -> list[str]:
        problems = []
        if self.values.ndim != 1:
            problems.append("signal values must be one-dimensional")
        elif self.values.shape != (counts.N_C + 1,):
            problems.append(
                f"signal has {self.values.size} samples, expected N_C + 1 = {counts.N_C + 1}")
        if problems:
            return problems
        # written so that a NaN sample fails it
        band = 1.0 + 1e-9
        if not (-band <= np.min(self.values, initial=0.0)
                and np.max(self.values, initial=0.0) <= band):
            problems.append("signal exceeds the normalized band [-1, 1] or is NaN")
        return problems


def gen_signal(kind: str, ts: Timescales, seed: int | None = None, *,
               level: float = 1.0, period: int | None = None) -> ActivationSignal:
    """Generate a test signal of one of the named kinds.

    Options: ``level`` (sustained), ``period`` (square_wave
    between +1 and -1, period in seconds; half the period must be a
    positive multiple of T_C; the default is the largest such period up
    to T_ID, and at least 2·T_C).  A clipped random walk moves by at most
    0.05 per control step.
    """
    counts = derive_counts(ts)
    n = counts.N_C + 1
    t = np.arange(n) * ts.T_C
    if kind == "zero":
        values = np.zeros(n)
    elif kind == "sustained":
        values = np.full(n, float(level))
    elif kind == "square_wave":
        if period is None:
            period = 2 * ts.T_C * max(1, ts.T_ID // (2 * ts.T_C))
        if period <= 0 or period % (2 * ts.T_C) != 0:
            raise ValueError(f"square_wave period {period} s: half the period must be a "
                             f"positive multiple of T_C = {ts.T_C} s")
        values = np.where((t // (period // 2)) % 2 == 0, 1.0, -1.0)
    elif kind == "uniform_random":
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 1.0, size=n)
    elif kind == "clipped_random_walk":
        rng = np.random.default_rng(seed)
        values = np.clip(np.cumsum(rng.uniform(-0.05, 0.05, size=n)), -1.0, 1.0)
    else:
        raise ValueError(f"unknown signal kind {kind!r}; choose from {SIGNAL_KINDS}")
    values[0] = values[1]
    sig = ActivationSignal(values=np.clip(values, -1.0, 1.0), T_C=ts.T_C)
    problems = sig.validate(counts)
    if problems:
        raise AssertionError("generated signal invalid: " + "; ".join(problems))
    return sig


@dataclass(frozen=True)
class _Grid:
    """Signal-independent maps of one timescale set; every array is read-only."""

    counts: IndexCounts
    m: int                  # control steps per settlement interval, T_S / T_C
    offsets: np.ndarray     # seconds from an interval's start to its m instants
    M: sp.csr_matrix
    R: sp.csr_matrix
    A_DA: sp.csr_matrix
    A_ID: sp.csr_matrix


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=8)
def _grid(ts: Timescales) -> _Grid:
    """The maps of ``ts``, keyed on the timescales alone and built from a
    market-matrix call of verification's own."""
    counts = derive_counts(ts)
    mats = build_market_matrices(ts, counts)
    for name in ("M", "R", "A_DA", "A_ID"):
        for arr in (mats[name].data, mats[name].indices, mats[name].indptr):
            _read_only(arr)
    m = ts.T_S // ts.T_C
    return _Grid(counts=counts, m=m, offsets=_read_only(np.arange(m) * float(ts.T_C)),
                 M=mats["M"], R=mats["R"], A_DA=mats["A_DA"], A_ID=mats["A_ID"])


@functools.lru_cache(maxsize=1)
def _decay_powers(f: float, n_c: int) -> np.ndarray:
    """f**k for k = 0..n_c, the weight of x0 in the state at instant k."""
    powers = np.arange(n_c + 1.0)
    np.power(f, powers, out=powers)
    return _read_only(powers)


def average_signal(sig: ActivationSignal, ts: Timescales) -> np.ndarray:
    """Per-metering-interval means of the piecewise-linear signal (length N_S)."""
    grid = _grid(ts)
    problems = sig.validate(grid.counts)
    if problems:
        raise ValueError("; ".join(problems))
    mids = np.add(sig.values[:-1], sig.values[1:], dtype=float)
    mids *= 0.5
    return mids.reshape(grid.counts.N_S, grid.m).mean(axis=1)


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
    x0: float | Sequence[float],
) -> np.ndarray:
    """Integrate the storage state under a piecewise-linear power trajectory.

    ``p_grid`` holds the net power at every control instant (length
    N_C + 1).  The per-step update is exact for linear dynamics driven by
    piecewise-linear power and piecewise-constant baseload, so the only
    error is floating point.  Returns the state at every control instant,
    or for a sequence of initial states one such row per state; the drive
    does not depend on x0, so the step map runs once for all of them.
    """
    grid = _grid(ts)
    n_c = grid.counts.N_C
    if p_grid.shape != (n_c + 1,):
        raise ValueError(f"power grid has {p_grid.size} samples, expected {n_c + 1}")
    f, g, h1, h2 = discretize(params.a, params.b, params.c, ts.T_C / SECONDS_PER_HOUR)
    starts = np.asarray(x0, dtype=float)
    states = np.empty((starts.size, n_c + 1))
    # drive of step k: (g*u + h1*p_{k-1}) + h2*p_k, after a leading 0 so that
    # the step map's zero-state response is the state at every instant
    # itself; built in the first row of the states, which it leaves to them
    drive = states[0]
    drive[0] = 0.0
    step = drive[1:]
    np.multiply(p_grid[:-1], h1, out=step)
    per_interval = step.reshape(grid.counts.N_S, grid.m)    # a view of step
    per_interval += np.multiply(params.u, g, dtype=float)[:, None]
    step += np.multiply(p_grid[1:], h2)
    x = propagate(f, drive)
    # then add the response f**k * x0 of each initial state, in its own row
    decay = _decay_powers(f, n_c)
    for row, start in zip(states, starts.flat):
        np.multiply(decay, start, out=row)
        row += x
    return states.reshape(starts.shape + x.shape)


def _fine_reference(profile: ReferenceProfile, ts: Timescales) -> np.ndarray:
    """The reference at every control instant (length N_C + 1).

    Filled one settlement interval per row: held at the interval's start
    breakpoint, or ``np.interp``'s own arithmetic slope * (t - t_s) + p_s
    without its search, taking the breakpoints themselves where t = t_s.
    """
    grid = _grid(ts)
    p = profile.p_ref
    fine = np.empty(grid.counts.N_C + 1)
    rows = fine[:-1].reshape(grid.counts.N_S, grid.m)
    if profile.piecewise_constant:
        rows[...] = p[:-1, None]
    else:
        slope = np.diff(p)
        slope /= float(ts.T_S)
        np.multiply(slope[:, None], grid.offsets, out=rows)
        rows += p[:-1, None]
        rows[:, 0] = p[:-1]
    fine[-1] = p[-1]
    return fine


@dataclass(frozen=True)
class _ReferenceWork:
    """What a check needs of the reference breakpoints alone; arrays read-only."""

    fine: np.ndarray                # the reference at every control instant
    energy_margin: float
    x_corr: np.ndarray | None       # a held reference's state correction


@functools.lru_cache(maxsize=1)
def _reference_work(p_ref: bytes, hold: bool, ts: Timescales,
                    a: float, b: float, c: float) -> _ReferenceWork:
    """The work of the breakpoints ``p_ref`` (float64 bytes) and their hold
    flag, kept for the latest reference only.  Keyed on the exact bytes,
    because -0.0 and 0.0 hash alike but need not round alike downstream.
    """
    profile = ReferenceProfile(p_ref=np.frombuffer(p_ref), piecewise_constant=hold)
    fine = _fine_reference(profile, ts)

    # a zero-order-hold reference holds each sample to the next instant
    # while simulate_state interpolates between samples, so the exact
    # reference response adds a filtered per-step drive difference
    # h2*(p_k - p_{k+1}) on top (the activation part stays piecewise linear
    # by the signal semantics)
    x_corr = None
    if hold:
        f, _, _, h2 = discretize(a, b, c, ts.T_C / SECONDS_PER_HOUR)
        drive = np.empty(fine.size)     # leading 0, as in simulate_state
        drive[0] = 0.0
        np.subtract(fine[:-1], fine[1:], out=drive[1:])
        drive *= h2
        x_corr = _read_only(propagate(f, drive))

    # the reference delivered on the control grid must reproduce the
    # profile's slot energies (the ramp window legitimately moves energy
    # between slots relative to the traded positions, so compare against
    # the profile's own content, not e_base)
    delivered = _delivered_energy(fine, ts, _grid(ts).counts, rectangle=hold)
    energy_margin = -float(np.max(np.abs(energy_content(profile, ts) - delivered)))
    return _ReferenceWork(fine=_read_only(fine), energy_margin=energy_margin, x_corr=x_corr)


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
    magnitude, floored at 1); ``tol`` must be finite and >= 0.  Each
    distinct initial-state endpoint is simulated; reported margins are the
    worst over them.
    """
    grid = _grid(ts)
    counts, m = grid.counts, grid.m
    problems = params.validate(counts.N_S) + sig.validate(counts)
    if sig.T_C != ts.T_C:
        problems.append(f"signal is sampled every T_C = {sig.T_C} s, "
                        f"but the config's control grid is T_C = {ts.T_C} s")
    if not 0.0 <= tol < np.inf:
        problems.append(f"tol must be finite and >= 0, got {tol}")
    if not np.isfinite(policy.gamma):
        problems.append(f"gamma must be finite, got {policy.gamma}")
    elif policy.gamma < 0:
        problems.append(f"gamma must be >= 0, got {policy.gamma}")
    for name in ("Q_DA", "Q_ID", "q_DA", "q_ID"):
        values = getattr(policy, name)
        if not np.all(np.isfinite(values.data if sp.issparse(values) else values)):
            problems.append(f"{name} must be finite")
    if policy.Q_DA.shape != (counts.N_DA, counts.N_DA):
        problems.append(f"Q_DA shape {policy.Q_DA.shape} does not match N_DA {counts.N_DA}")
    if policy.Q_ID.shape != (counts.N_ID, counts.N_ID):
        problems.append(f"Q_ID shape {policy.Q_ID.shape} does not match N_ID {counts.N_ID}")
    if np.shape(policy.q_DA) != (counts.N_DA,):
        problems.append(f"q_DA shape {np.shape(policy.q_DA)} does not match N_DA {counts.N_DA}")
    if np.shape(policy.q_ID) != (counts.N_ID,):
        problems.append(f"q_ID shape {np.shape(policy.q_ID)} does not match N_ID {counts.N_ID}")
    if problems:
        raise ValueError("cannot verify:\n  " + "\n  ".join(problems))
    w_avg = average_signal(sig, ts)
    e_da, e_id = realized_schedules(policy, w_avg, grid.A_DA, grid.A_ID)
    profile = reference_from_baseline(grid.M @ e_da + e_id, grid.R, ts)
    ref = _reference_work(profile.p_ref.tobytes(), profile.piecewise_constant, ts,
                          params.a, params.b, params.c)

    p_target = np.multiply(policy.gamma, sig.values, dtype=float)
    p_target += ref.fine

    scales = {
        "power": _bound_scale(params.p_hi, params.p_lo),
        "ramp": _bound_scale(params.r_hi * ts.T_C, params.r_lo * ts.T_C),
        "state": _bound_scale(params.x_hi, params.x_lo),
        "energy": 1.0,
    }
    messages: list[str] = []

    # each limit is checked per interval against the extremes over the
    # interval's instants, its end instant included, so a boundary instant
    # meets the tighter of its two intervals' bounds; rounded subtraction is
    # monotone, so the margins equal the instant-by-instant ones exactly
    def windows(values: np.ndarray, width: int) -> np.ndarray:
        return np.lib.stride_tricks.sliding_window_view(values, width)[::m]

    def extremes(values: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
        w = windows(values, width)
        return w.max(axis=1), w.min(axis=1)

    # a held reference keeps interval j's level up to its end instant, so
    # the power there tends to gamma*w + p_ref[j] from the left; a ramped
    # one is continuous, and these are the window's own end values
    ref_end = profile.p_ref[:-1] if profile.piecewise_constant else profile.p_ref[1:]
    p_end = np.multiply(policy.gamma, sig.values[m::m], dtype=float)
    p_end += ref_end
    p_max, p_min = extremes(p_target, m + 1)
    p_max, p_min = np.maximum(p_max, p_end), np.minimum(p_min, p_end)
    margins = {"power": float(min(np.min(params.p_hi - p_max), np.min(p_min - params.p_lo)))}

    # ramp per control step, measured in kW per step; an infinite limit
    # leaves an infinite slack, so where every limit is infinite the steps
    # need not be formed
    if np.isposinf(params.r_hi).all() and np.isneginf(params.r_lo).all():
        margins["ramp"] = np.inf
    else:
        dp_max, dp_min = extremes(np.diff(p_target), m)
        margins["ramp"] = float(min(np.min(params.r_hi * ts.T_C - dp_max),
                                    np.min(dp_min - params.r_lo * ts.T_C)))

    # state band for each admissible initial state, with a held
    # reference's correction on top
    margins["state"] = np.inf
    starts = sorted({params.x0_min, params.x0_max})
    for x0, x in zip(starts, simulate_state(params, ts, p_target, starts)):
        if ref.x_corr is not None:
            x += ref.x_corr
        x_max, x_min = extremes(x, m + 1)
        up = float(np.min(params.x_hi - x_max))
        dn = float(np.min(x_min - params.x_lo))
        margins["state"] = min(margins["state"], up, dn)
        if min(up, dn) < -tol * scales["state"]:
            # windows run in time order and share only their boundary
            # instant, so the first smallest slack is the earliest instant
            # at which the tighter of its intervals' bounds is broken most
            w = windows(x, m + 1)
            slack = np.minimum(params.x_hi[:, None] - w, w - params.x_lo[:, None])
            j, offset = np.unravel_index(np.argmin(slack), slack.shape)
            worst = int(j * m + offset)
            messages.append(
                f"state limit violated from x0={x0:g} at t={worst * ts.T_C}s "
                f"(x={x[worst]:.6f})")

    margins["energy"] = ref.energy_margin

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
    if rectangle:
        seg = p_fine[:-1]
    else:
        seg = np.add(p_fine[:-1], p_fine[1:], dtype=float)
        seg *= 0.5
    per_slot = seg.reshape(counts.N_ID, -1).sum(axis=1)
    return per_slot * (ts.T_C / SECONDS_PER_HOUR)


# ---------------------------------------------------------------------------
# brute-force cross-check on small lossless instances


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
