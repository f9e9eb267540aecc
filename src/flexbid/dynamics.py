"""First-order flexible-system model and its exact discretization.

The internal state (kWh) follows

    dx/dt = a*x + b*u_s + c*p_opt(t),        a <= 0, c >= 0,

with time measured in hours (a is 1/h), the exogenous input u piece-wise
constant per T_S interval and p_opt the dispatched power (kW).  Because
p_opt is affine on every T_S interval, the step map is exact:

    x_s = f*x_{s-1} + g*u_s + h1*p_{s-1} + h2*p_s + gamma*v_s

with f = exp(a*T), g = b*int_0^T exp(a*tau) dtau,
h1 = (c/T)*int exp(a*tau)*tau dtau, h2 = (c/T)*int exp(a*tau)*(T-tau) dtau
(T = T_S in hours), and v_s = c*int_0^T exp(a*tau) w(s*T - tau) dtau the
activation carry-over.  Near a = 0 the closed forms cancel
catastrophically, so |a*T| <= 1e-2 switches to truncated series accurate
to well below 1e-12 relative.

The uncertain integral v_s is bounded by freezing exp(a*tau) at the
midpoint value e_a_tau_hat = (1 + f)/2 with residual radius
eps = (1 - f)/2, which is tight at tau in {0, T}.

:func:`propagate` is the one step-map primitive: every state that
assembly and verification compute from a drive, x_k = f*x_{k-1} + drive_k,
goes through it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dtbtrs

from .market_time import SECONDS_PER_HOUR, Timescales

#: below this |a*T| the series branch replaces the closed forms
_SERIES_THRESHOLD = 1e-2


def _phi1(x: float) -> float:
    """(e^x - 1)/x, stable at small |x|;  int_0^T e^{a tau} dtau = T*phi1(aT)."""
    if abs(x) < _SERIES_THRESHOLD:
        # sum_{n>=0} x^n/(n+1)!
        return 1.0 + x / 2 + x**2 / 6 + x**3 / 24 + x**4 / 120 + x**5 / 720 + x**6 / 5040
    return np.expm1(x) / x


def _psi(x: float) -> float:
    """(e^x(x-1)+1)/x^2;  int_0^T e^{a tau} tau dtau = T^2*psi(aT)."""
    if abs(x) < _SERIES_THRESHOLD:
        # sum_{n>=0} x^n (n+1)/(n+2)!
        return 0.5 + x / 3 + x**2 / 8 + x**3 / 30 + x**4 / 144 + x**5 / 840 + x**6 / 5760
    return (x * np.exp(x) - np.expm1(x)) / x**2


def discretize(a: float, b: float, c: float, t_step: float) -> tuple[float, float, float, float]:
    """Exact step coefficients (f, g, h1, h2) for step length ``t_step``.

    ``t_step`` must be expressed in the time unit of ``1/a`` (hours
    throughout this package).  The identity h1 + h2 = c*int_0^T e^{a tau} dtau
    holds by construction.
    """
    if t_step <= 0:
        raise ValueError(f"t_step must be positive, got {t_step}")
    x = a * t_step
    f = float(np.exp(x))
    g = b * t_step * _phi1(x)
    h1 = c * t_step * _psi(x)
    h2 = c * t_step * (_phi1(x) - _psi(x))
    return f, g, h1, h2


def epsilon_bound(a: float, t_step: float) -> tuple[float, float]:
    """Midpoint value and radius bounding e^{a tau} on [0, t_step].

    Returns ``(eps, e_a_tau_hat)`` with eps = (1 - e^{aT})/2 and
    e_a_tau_hat = (1 + e^{aT})/2, so |e^{a tau} - e_a_tau_hat| <= eps for
    all tau in [0, T] (a <= 0), with equality at the endpoints.
    """
    if a > 0:
        raise ValueError(f"a must be <= 0, got {a}")
    x = a * t_step
    eps = -np.expm1(x) / 2.0
    e_hat = 1.0 + np.expm1(x) / 2.0
    return float(eps), float(e_hat)


# room for assembly's two horizon lengths (N_S, N_S + 1) and a fine grid
@functools.lru_cache(maxsize=4)
def _step_band(f: float, n: int) -> np.ndarray:
    """Upper band storage of the n x n bidiagonal with 1 on the diagonal and
    -f above it (the first entry of the superdiagonal row is unused)."""
    band = np.ones((2, n), order="F")
    band[0, 0] = 0.0
    band[0, 1:] = -f
    band.flags.writeable = False
    return band


def propagate(f: float, drive: np.ndarray) -> np.ndarray:
    """States x_k = f*x_{k-1} + drive_k from x_{-1} = 0, down axis 0.

    One unit-diagonal band solve U^T x = drive, U upper bidiagonal with -f
    above the diagonal.  Its inner step is the length-1 update
    x_k - (-f)*x_{k-1}, which rounds exactly as the direct recursion does
    (no fused multiply-add), so the states are the same to the last bit.
    """
    if drive.size == 0:
        # LAPACK is never handed an empty right-hand side
        return np.zeros(drive.shape)
    x, _ = dtbtrs(_step_band(f, len(drive)), drive.reshape(len(drive), -1),
                  uplo="U", trans="T", diag="U")
    return x.reshape(drive.shape)


@dataclass(frozen=True)
class SystemParams:
    """Physical limits and model coefficients of the flexible system.

    Vectors are per T_S interval (length N_S).  Ramp limits may be
    infinite (no ramp restriction).  The initial state is known only up to
    the interval [x0_min, x0_max].
    """

    a: float
    b: float
    c: float
    u: np.ndarray
    p_lo: np.ndarray
    p_hi: np.ndarray
    r_lo: np.ndarray
    r_hi: np.ndarray
    x_lo: np.ndarray
    x_hi: np.ndarray
    x0_min: float
    x0_max: float

    @classmethod
    def constant(
        cls,
        n_s: int,
        *,
        a: float = 0.0,
        b: float = 1.0,
        c: float = 1.0,
        u: float = 0.0,
        p_lo: float,
        p_hi: float,
        x_lo: float,
        x_hi: float,
        x0_min: float,
        x0_max: float,
        r_lo: float = -np.inf,
        r_hi: float = np.inf,
    ) -> "SystemParams":
        """Broadcast scalar limits over ``n_s`` intervals."""
        full = lambda v: np.full(n_s, float(v))
        return cls(
            a=a, b=b, c=c, u=full(u),
            p_lo=full(p_lo), p_hi=full(p_hi),
            r_lo=full(r_lo), r_hi=full(r_hi),
            x_lo=full(x_lo), x_hi=full(x_hi),
            x0_min=float(x0_min), x0_max=float(x0_max),
        )

    def validate(self, n_s: int) -> list[str]:
        problems: list[str] = []
        for name in ("a", "b", "c", "u"):
            if not np.all(np.isfinite(getattr(self, name))):
                problems.append(f"{name} must be finite")
        if self.a > 0:
            problems.append(f"a must be <= 0 (stable or integrating), got {self.a}")
        if self.c < 0:
            problems.append(f"c must be >= 0, got {self.c}")
        for name in ("u", "p_lo", "p_hi", "r_lo", "r_hi", "x_lo", "x_hi"):
            vec = getattr(self, name)
            if np.asarray(vec).shape != (n_s,):
                problems.append(f"{name} must have shape ({n_s},), got {np.shape(vec)}")
        if problems:
            return problems
        # written so that a NaN limit fails them
        if np.any(~(self.p_lo <= self.p_hi)):
            problems.append("p_lo must be <= p_hi componentwise, neither NaN")
        if np.any(~(self.x_lo <= self.x_hi)):
            problems.append("x_lo must be <= x_hi componentwise, neither NaN")
        if np.any(~(self.r_lo <= 0)) or np.any(~(self.r_hi >= 0)):
            problems.append("ramp limits must satisfy r_lo <= 0 <= r_hi componentwise, none NaN")
        if not (np.isfinite(self.x0_min) and np.isfinite(self.x0_max)):
            problems.append(
                f"initial state x0_min/x0_max must be finite, got [{self.x0_min}, {self.x0_max}]"
            )
        if not self.x0_min <= self.x0_max:
            problems.append(f"x0_min ({self.x0_min}) must be <= x0_max ({self.x0_max})")
        if self.x0_min < self.x_lo[0] or self.x0_max > self.x_hi[0]:
            problems.append(
                f"initial-state interval [{self.x0_min}, {self.x0_max}] must lie within "
                f"the first state bounds [{self.x_lo[0]}, {self.x_hi[0]}]"
            )
        return problems


@dataclass(frozen=True)
class DiscreteDynamics:
    """Step coefficients of the exact step map over an ``n``-interval horizon.

        x_s = f*x_{s-1} + g*u_s + h1*p_{s-1} + h2*p_s + gamma*v_s

    with eps and e_a_tau_hat bounding the carry-over v_s (see
    :func:`epsilon_bound`) and F[s] = f^{s+1}, the weight of x0 in x_{s+1}
    (0-based row s).  It holds no horizon matrix: callers run the step map.
    """

    f: float
    g: float
    h1: float
    h2: float
    eps: float
    e_a_tau_hat: float
    t_step: float
    n: int
    F: np.ndarray


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


def _step_dynamics(a: float, b: float, c: float, t_step: float, n: int) -> DiscreteDynamics:
    f, g, h1, h2 = discretize(a, b, c, t_step)
    eps, e_hat = epsilon_bound(a, t_step)
    return DiscreteDynamics(
        f=f, g=g, h1=h1, h2=h2, eps=eps, e_a_tau_hat=e_hat,
        t_step=t_step, n=n, F=f ** np.arange(1, n + 1),
    )


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


def discretize_scales(params: SystemParams, ts: Timescales, n_s: int) -> DiscreteDynamics:
    """Step coefficients of ``params`` on the T_S grid, for ``n_s`` intervals.

    Whether the reference is interpolated or held (``T_RP == 0``) changes
    only how the breakpoints drive the step, which the caller decides.
    """
    return _step_dynamics(params.a, params.b, params.c, ts.T_S / SECONDS_PER_HOUR, n_s)
