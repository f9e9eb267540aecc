"""Exact discretization of the first-order storage dynamics.

Proves:
  1. (f, g, h1, h2) match 50-digit mpmath closed forms across magnitudes,
     in particular on both sides of the small-argument series switch.
  2. The step coefficients match adaptive quadrature of the variation-of-
     constants integrals to 1e-10 on a grid of (a, t_step).
  3. Coefficients are continuous through a -> 0 and exact at a = 0.
  4. The midpoint/radius envelope |e^{a tau} - e_hat| <= eps holds on a
     dense tau grid, and the activation carry-over bound contains the
     integral for random admissible signal shapes.
  5. Stacked horizon matrices (F, G, H, K) reproduce the step recursion,
     and the hold variant reproduces the constant-drive recursion; the
     CSR arrays equal those of a matrix summed from one COO triple per
     term.
  6. SystemParams.constant broadcasting and validate() error reporting;
     a non-finite initial state is refused, also by assemble().
  7. propagate, the step map's band solve, equals scipy.signal.lfilter of
     the same recursion bit for bit, down axis 0 of 1-D and 2-D drives,
     and hands LAPACK no empty right-hand side.
"""

from __future__ import annotations

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.sparse as sp

from flexbid import SystemParams, discretize, epsilon_bound
from flexbid import dynamics
from flexbid.dynamics import discretize_scales, propagate
from flexbid import PolicyStructure, Timescales, assemble, derive_counts
from reference import build_state_matrices

mpmath.mp.dps = 50

A_GRID = [0.0, -1e-9, -1e-6, -9.99e-3, -1.01e-2, -0.5, -3.0, -40.0]
T_GRID = [1.0 / 720, 1.0 / 60, 1.0 / 12, 0.25, 1.0]


def mp_coeffs(a: float, b: float, c: float, t: float):
    """Closed forms evaluated in 50-digit arithmetic."""
    a_, t_ = mpmath.mpf(a), mpmath.mpf(t)
    x = a_ * t_
    f = mpmath.e**x
    if x == 0:
        phi1, psi = mpmath.mpf(1), mpmath.mpf("0.5")
    else:
        phi1 = mpmath.expm1(x) / x
        psi = (x * mpmath.e**x - mpmath.expm1(x)) / x**2
    g = b * t_ * phi1
    h1 = c * t_ * psi
    h2 = c * t_ * (phi1 - psi)
    return [float(v) for v in (f, g, h1, h2)]


def test_coefficients_match_high_precision_forms():
    for a in A_GRID:
        for t in T_GRID:
            got = discretize(a, 0.7, 1.3, t)
            want = mp_coeffs(a, 0.7, 1.3, t)
            for name, gv, wv in zip("f g h1 h2".split(), got, want):
                assert gv == pytest.approx(wv, rel=1e-13, abs=1e-300), (
                    f"{name} mismatch at a={a}, t={t}")


def test_series_switch_is_seamless():
    # the rational forms take over at |a*t| = 1e-2; both sides must agree
    t = 1.0 / 12
    for scale in (0.999999, 1.000001):
        x = -1e-2 * scale
        got = discretize(x / t, 1.0, 1.0, t)
        want = mp_coeffs(x / t, 1.0, 1.0, t)
        assert np.allclose(got, want, rtol=1e-13)


def test_zero_a_exact_values():
    f, g, h1, h2 = discretize(0.0, 2.0, 3.0, 0.25)
    assert f == 1.0
    assert g == pytest.approx(0.5, abs=1e-15)
    assert h1 == pytest.approx(0.375, abs=1e-15)
    assert h2 == pytest.approx(0.375, abs=1e-15)


def test_continuity_through_zero():
    # criterion scale: |a * T_S| = 1e-6 must look like a = 0 to ~1e-6 rel
    t = 1.0 / 12
    base = np.array(discretize(0.0, 1.0, 1.0, t))
    near = np.array(discretize(-1e-6 / t, 1.0, 1.0, t))
    assert np.all(np.abs(near - base) <= 1e-6 * np.maximum(1.0, np.abs(base)))


def test_coefficients_match_quadrature():
    """f, g, h1, h2 against direct integration of the convolution kernels."""
    for a in (0.0, -1e-6, -0.01, -0.5, -3.0):
        for t in (1.0 / 60, 1.0 / 12, 0.25, 1.0):
            f, g, h1, h2 = discretize(a, 0.9, 1.1, t)
            assert f == pytest.approx(np.exp(a * t), rel=1e-12)
            g_int, _ = scipy.integrate.quad(lambda u: np.exp(a * (t - u)), 0, t)
            h1_int, _ = scipy.integrate.quad(
                lambda u: np.exp(a * (t - u)) * (1 - u / t), 0, t)
            h2_int, _ = scipy.integrate.quad(
                lambda u: np.exp(a * (t - u)) * (u / t), 0, t)
            assert g == pytest.approx(0.9 * g_int, abs=1e-10)
            assert h1 == pytest.approx(1.1 * h1_int, abs=1e-10)
            assert h2 == pytest.approx(1.1 * h2_int, abs=1e-10)


def test_step_matches_ode_solution():
    # one exact step equals a tightly integrated ODE trajectory under a
    # linear power course and constant baseload
    rng = np.random.default_rng(31)
    for a in (0.0, -0.8):
        b, c, t = 1.4, 0.6, 0.2
        x0, u, p0, p1 = rng.normal(size=4)
        f, g, h1, h2 = discretize(a, b, c, t)

        def rhs(time, x):
            p = p0 + (p1 - p0) * time / t
            return a * x + b * u + c * p

        res = scipy.integrate.solve_ivp(rhs, (0.0, t), [x0], rtol=1e-11, atol=1e-12)
        assert f * x0 + g * u + h1 * p0 + h2 * p1 == pytest.approx(
            res.y[0, -1], abs=1e-9)


# ---------------------------------------------------------------------------
# activation envelope


def test_envelope_holds_on_dense_grid():
    for a in (0.0, -1e-4, -0.3, -5.0):
        t = 1.0 / 12
        eps, e_hat = epsilon_bound(a, t)
        tau = np.linspace(0.0, t, 4001)
        assert np.all(np.abs(np.exp(a * tau) - e_hat) <= eps + 1e-15)
        # equality is attained at the endpoints
        assert abs(np.exp(a * 0.0) - e_hat) == pytest.approx(eps, abs=1e-15)
        assert abs(np.exp(a * t) - e_hat) == pytest.approx(eps, abs=1e-15)


def test_envelope_rejects_unstable_a():
    with pytest.raises(ValueError):
        epsilon_bound(0.3, 1.0)


def test_activation_integral_bound_contains_random_signals():
    """c*int e^{a tau} w dtau stays within nominal*mean(w) +/- slack."""
    rng = np.random.default_rng(47)
    t = 1.0 / 12
    grid = np.linspace(0.0, t, 20001)
    kernel_cache = {}
    for _ in range(60):
        a = float(rng.choice([0.0, -0.05, -1.0, -8.0]))
        c = float(rng.uniform(0.1, 2.0))
        eps, e_hat = epsilon_bound(a, t)
        nominal, slack = c * e_hat * t, c * eps * t
        if a not in kernel_cache:
            kernel_cache[a] = np.exp(a * grid)
        kernel = kernel_cache[a]
        # random bounded signal: smoothed uniform noise, then clipped
        raw = rng.uniform(-1.5, 1.5, size=grid.size)
        width = int(rng.integers(1, 2000))
        w = np.clip(np.convolve(raw, np.ones(width) / width, mode="same"), -1, 1)
        integral = c * np.trapezoid(kernel * w, grid)
        mean_w = np.trapezoid(w, grid) / t
        lo = nominal * mean_w - slack - 1e-9
        hi = nominal * mean_w + slack + 1e-9
        assert lo <= integral <= hi


def test_activation_bound_is_tight_for_sustained():
    # w identically 1 realizes nominal + something inside the slack budget
    a, c, t = -0.7, 1.0, 0.25
    eps, e_hat = epsilon_bound(a, t)
    nominal, slack = c * e_hat * t, c * eps * t
    exact = c * (np.exp(a * t) - 1.0) / a
    assert nominal - slack - 1e-12 <= exact <= nominal + slack + 1e-12


# ---------------------------------------------------------------------------
# stacked horizon matrices


@pytest.mark.parametrize("a", [0.0, -0.6])
def test_matrices_equal_recursion(a):
    rng = np.random.default_rng(13 + int(a * 10))
    n, b, c, t = 9, 1.2, 0.8, 1.0 / 12
    dd = build_state_matrices(a, b, c, t, n)
    x0 = rng.normal()
    u = rng.normal(size=n)
    p = rng.normal(size=n + 1)
    v = rng.normal(size=n)

    x_expected = np.empty(n)
    x_cur = x0
    for s in range(n):
        x_cur = dd.f * x_cur + dd.g * u[s] + dd.h1 * p[s] + dd.h2 * p[s + 1] + v[s]
        x_expected[s] = x_cur

    stacked = dd.F * x0 + dd.G @ u + dd.H @ p + dd.K @ v
    assert np.allclose(stacked, x_expected, atol=1e-12)


@pytest.mark.parametrize("a", [0.0, -0.6])
def test_hold_matrices_equal_constant_drive_recursion(a):
    rng = np.random.default_rng(17 + int(a * 10))
    n, b, c, t = 9, 1.2, 0.8, 1.0 / 12
    dd = build_state_matrices(a, b, c, t, n, hold=True)
    x0 = rng.normal()
    u = rng.normal(size=n)
    p = rng.normal(size=n + 1)

    # left-held drive: interval s integrates its start breakpoint only
    x_expected = np.empty(n)
    x_cur = x0
    for s in range(n):
        x_cur = dd.f * x_cur + dd.g * u[s] + (dd.h1 + dd.h2) * p[s]
        x_expected[s] = x_cur

    stacked = dd.F * x0 + dd.G @ u + dd.H @ p
    assert np.allclose(stacked, x_expected, atol=1e-12)
    assert dd.H[:, -1].count_nonzero() == 0


@pytest.mark.parametrize("hold", [False, True])
@pytest.mark.parametrize("a", [0.0, -0.02])
def test_matrices_match_coo_built_reference(a, hold):
    n, t = 11, 1.0 / 12
    dd = build_state_matrices(a, 0.7, 1.1, t, n, hold=hold)
    powers = dd.f ** np.arange(n + 1)
    k_terms, h_terms = [], []
    for s in range(n):
        for j in range(s + 1):
            k_terms.append((s, j, powers[s - j]))
            if hold:
                h_terms.append((s, j, powers[s - j] * (dd.h1 + dd.h2)))
            else:
                h_terms.append((s, j, powers[s - j] * dd.h1))
                h_terms.append((s, j + 1, powers[s - j] * dd.h2))

    def coo(terms, shape):
        rows, cols, vals = zip(*terms)
        mat = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
        mat.sum_duplicates()
        return mat

    K = coo(k_terms, (n, n))
    for got, want in ((dd.K, K), (dd.G, (dd.g * K).tocsr()), (dd.H, coo(h_terms, (n, n + 1)))):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data, want.data)


def test_matrix_shapes_and_triangularity():
    dd = build_state_matrices(-0.2, 1.0, 1.0, 0.5, 6)
    assert dd.F.shape == (6,)
    assert dd.K.shape == (6, 6)
    assert dd.G.shape == (6, 6)
    assert dd.H.shape == (6, 7)
    assert np.allclose(dd.K.toarray(), np.tril(dd.K.toarray()))
    assert dd.F[0] == pytest.approx(dd.f)
    assert dd.F[-1] == pytest.approx(dd.f ** 6, rel=1e-12)


def test_discretize_scales_uses_settlement_interval():
    ts = Timescales(T_H=3600, T_RES=3600, T_DA=3600, T_ID=900, T_S=300, T_C=60)
    counts = derive_counts(ts)
    params = SystemParams.constant(counts.N_S, a=-0.4, p_lo=-5, p_hi=5,
                                   x_lo=0, x_hi=10, x0_min=5, x0_max=5)
    dd = discretize_scales(params, ts, counts.N_S)
    assert dd.n == counts.N_S
    assert dd.t_step == pytest.approx(300 / 3600)
    assert dd.f == pytest.approx(np.exp(-0.4 * 300 / 3600))


# ---------------------------------------------------------------------------
# parameter container


def test_constant_broadcasts_vectors():
    params = SystemParams.constant(4, p_lo=-5, p_hi=5, x_lo=0, x_hi=15,
                                   x0_min=7.5, x0_max=7.5)
    assert params.validate(4) == []
    assert params.p_hi.shape == (4,)
    assert np.all(params.p_lo == -5.0)
    assert np.isinf(params.r_hi).all()
    assert params.b == 1.0


def test_validate_reports_each_problem():
    params = SystemParams.constant(3, a=0.0, p_lo=-1, p_hi=1, x_lo=0, x_hi=4,
                                   x0_min=2, x0_max=2)
    bad = SystemParams(a=0.5, b=params.b, c=-1.0, u=params.u,
                       p_lo=params.p_lo, p_hi=params.p_hi,
                       r_lo=params.r_lo, r_hi=params.r_hi,
                       x_lo=params.x_lo, x_hi=params.x_hi,
                       x0_min=2.0, x0_max=2.0)
    problems = bad.validate(3)
    assert any("a must" in p for p in problems)
    assert any("c must" in p for p in problems)


def test_validate_rejects_crossed_bounds_and_bad_x0():
    good = SystemParams.constant(3, p_lo=-1, p_hi=1, x_lo=0, x_hi=4,
                                 x0_min=2, x0_max=2)
    assert good.validate(3) == []

    import dataclasses
    crossed = dataclasses.replace(good, p_lo=np.full(3, 2.0))
    assert any("p_lo" in p or "p_hi" in p for p in crossed.validate(3))
    outside = dataclasses.replace(good, x0_min=-1.0, x0_max=-1.0)
    assert outside.validate(3)
    flipped = dataclasses.replace(good, x0_min=3.0, x0_max=1.0)
    assert flipped.validate(3)


@pytest.mark.parametrize("x0", [-np.inf, np.inf])
def test_non_finite_initial_state_is_refused(x0):
    # state limits at the same infinity leave the interval check silent
    ts = Timescales(T_H=2 * 3600, T_RES=2 * 3600, T_DA=3600, T_ID=900, T_S=300, T_C=60)
    counts = derive_counts(ts)
    params = SystemParams.constant(counts.N_S, p_lo=-5, p_hi=5, x_lo=x0, x_hi=x0,
                                   x0_min=x0, x0_max=x0)
    assert any("x0_min/x0_max must be finite" in p for p in params.validate(counts.N_S))
    with pytest.raises(ValueError, match="x0_min/x0_max must be finite"):
        assemble(params, ts, PolicyStructure.build(counts, ts, 0, 0))


# ---------------------------------------------------------------------------
# the step-map primitive

STEP_FACTORS = [1.0, np.exp(-0.02 / 3600), np.exp(-0.05 * 5 / 60), 0.5]


@pytest.mark.parametrize("f", STEP_FACTORS)
@pytest.mark.parametrize("shape", [(1,), (2,), (289,), (86401,), (604801,), (97, 40), (2017, 300)])
def test_propagate_equals_lfilter_bit_for_bit(f, shape):
    # scipy.signal is the oracle only here; the package never imports it
    from scipy.signal import lfilter

    drive = np.random.default_rng(0).standard_normal(shape)
    got = propagate(f, drive)
    want = lfilter([1.0], [1.0, -f], drive, axis=0)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_propagate_of_an_empty_drive_skips_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called on an empty right-hand side")

    monkeypatch.setattr(dynamics, "dtbtrs", refuse)
    out = propagate(0.5, np.zeros((5, 0)))
    assert out.shape == (5, 0)
