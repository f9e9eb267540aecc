"""Simulation-based certification, independent of the optimizer.

Proves:
  1. Every generated signal kind is admissible (right length, clipped to
     [-1, 1], first sample pinned) and seeded generation is reproducible.
  2. A square wave with period twice the control step alternates sign at
     every sample, the harshest ramp stress an admissible signal allows;
     a period whose half is not a positive multiple of the control step
     is refused, and the default period is regular on any grid.
  3. Interval averaging of the piecewise-linear signal is exact for
     sustained and linear-in-time signals.
  4. Exact state integration matches an adaptive ODE solver for lossy and
     lossless storage under random piecewise-linear power.
  5. Solved policies pass certification under a battery of admissible
     signals, while the same policy with gamma inflated by 1% fails under
     sustained activation; the reports say which limit broke.
  6. The delivered-energy closure holds with and without a ramp window,
     and a held (step) reference on a coarse grid certifies across its
     plateau jumps, where an interpolating state quadrature would not.
  7. Signals survive a save/load round trip and malformed inputs are
     refused with specific messages, including a signal sampled on another
     control grid.
  8. Infinite state limits on one side leave the other side checked.
  9. The pointwise bounds match "the tighter of the intervals on either
     side of each instant" for random bounds, infinite ones included.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from flexbid import (
    ActivationSignal,
    PolicyStructure,
    SystemParams,
    Timescales,
    assemble,
    average_signal,
    check_feasibility,
    derive_counts,
    gen_signal,
    load_signal,
    save_signal,
    simulate_state,
    solve,
    vertex_oracle,
    zero_policy,
)
from flexbid.verify_sim import SIGNAL_KINDS, _pointwise_bounds

MIN = 60
HOUR = 3600


def swiss_2h(t_c=60, t_rp=10 * MIN) -> Timescales:
    return Timescales(T_H=2 * HOUR, T_RES=2 * HOUR, T_DA=HOUR, T_ID=15 * MIN,
                      T_S=5 * MIN, T_C=t_c, T_RP=t_rp, T_ID_lead=0)


def battery(n_s) -> SystemParams:
    return SystemParams.constant(n_s, p_lo=-5, p_hi=5, x_lo=0, x_hi=15,
                                 x0_min=7.5, x0_max=7.5)


@pytest.fixture(scope="module")
def solved_2h():
    """One optimal 2 h policy shared by the certification tests."""
    ts = swiss_2h()
    counts = derive_counts(ts)
    params = battery(counts.N_S)
    structure = PolicyStructure.build(counts, ts, 0, 1)
    sol = solve(assemble(params, ts, structure))
    assert sol.status == "optimal"
    return ts, counts, params, sol


# ---------------------------------------------------------------------------
# signal generation


@pytest.mark.parametrize("kind", SIGNAL_KINDS)
def test_generated_signals_are_admissible(kind):
    ts = swiss_2h()
    counts = derive_counts(ts)
    sig = gen_signal(kind, ts, seed=7)
    assert sig.validate(counts) == []
    assert sig.values.shape == (counts.N_C + 1,)
    assert np.max(np.abs(sig.values)) <= 1.0
    assert sig.values[0] == sig.values[1]
    assert sig.T_C == ts.T_C


def test_seeded_generation_is_reproducible():
    ts = swiss_2h()
    for kind in ("uniform_random", "clipped_random_walk"):
        a = gen_signal(kind, ts, seed=123)
        b = gen_signal(kind, ts, seed=123)
        c = gen_signal(kind, ts, seed=124)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)


def test_square_wave_at_twice_control_step_alternates_every_sample():
    ts = swiss_2h()
    sig = gen_signal("square_wave", ts, period=2 * ts.T_C)
    # after the pinned first sample, consecutive values flip sign each step
    assert np.all(sig.values[1:-1] * sig.values[2:] == -1.0)
    assert set(np.unique(sig.values)) == {-1.0, 1.0}


@pytest.mark.parametrize("period", [0, -120, 60, 90, 180, 900])
def test_square_wave_rejects_irregular_periods(period):
    # T_C = 60 s: half the period must be a positive multiple of 60 s;
    # 60 s would give a constant signal, 180 s and 900 s an irregular wave
    with pytest.raises(ValueError, match="positive multiple of T_C = 60 s"):
        gen_signal("square_wave", swiss_2h(), period=period)


def test_square_wave_default_period_is_regular():
    # T_ID = 15 min: on a 1 s grid the default is T_ID itself; on a 60 s
    # grid, where T_ID / 2 is 7.5 steps, it is the largest regular period
    # below T_ID, 14 min
    for t_c, period in ((1, 15 * MIN), (60, 14 * MIN), (30, 15 * MIN)):
        ts = swiss_2h(t_c=t_c)
        np.testing.assert_array_equal(gen_signal("square_wave", ts).values,
                                      gen_signal("square_wave", ts, period=period).values)


def test_square_wave_accepts_regular_periods():
    ts = swiss_2h()
    for period in (2 * ts.T_C, 4 * ts.T_C, 2 * ts.T_S):
        sig = gen_signal("square_wave", ts, period=period)
        # the sign flips at every multiple of half a period (the pinned
        # first sample aside), so every run is equally long
        half = period // (2 * ts.T_C)
        flips = np.flatnonzero(np.diff(sig.values)) + 1
        expected = np.arange(half, sig.values.size, half)
        np.testing.assert_array_equal(flips[flips > 1], expected[expected > 1])


def test_sustained_level_and_zero():
    ts = swiss_2h()
    up = gen_signal("sustained", ts)
    dn = gen_signal("sustained", ts, level=-1.0)
    half = gen_signal("sustained", ts, level=0.4)
    assert np.all(up.values == 1.0)
    assert np.all(dn.values == -1.0)
    assert np.all(half.values == 0.4)
    assert np.all(gen_signal("zero", ts).values == 0.0)


def test_unknown_kind_is_refused():
    with pytest.raises(ValueError, match="unknown signal kind"):
        gen_signal("sawtooth", swiss_2h())


def test_signal_validation_messages():
    ts = swiss_2h()
    counts = derive_counts(ts)
    bad_shape = ActivationSignal(values=np.zeros((3, 3)), T_C=ts.T_C)
    assert any("one-dimensional" in p for p in bad_shape.validate(counts))
    bad_len = ActivationSignal(values=np.zeros(5), T_C=ts.T_C)
    assert any("expected N_C + 1" in p for p in bad_len.validate(counts))
    loud = ActivationSignal(values=np.full(counts.N_C + 1, 1.5), T_C=ts.T_C)
    assert any("normalized band" in p for p in loud.validate(counts))


# ---------------------------------------------------------------------------
# interval averaging


def test_average_of_sustained_signal_is_exact():
    ts = swiss_2h()
    counts = derive_counts(ts)
    for level in (1.0, -1.0, 0.25):
        sig = gen_signal("sustained", ts, level=level)
        np.testing.assert_array_equal(average_signal(sig, ts),
                                      np.full(counts.N_S, level))


def test_average_of_linear_signal_is_trapezoid_exact():
    # w(t) = alpha * t is integrated exactly by midpoint means of the
    # piecewise-linear samples: the interval mean is alpha * t_mid
    ts = swiss_2h()
    counts = derive_counts(ts)
    t = np.arange(counts.N_C + 1) * ts.T_C
    alpha = 1.0 / ts.T_H
    sig = ActivationSignal(values=alpha * t, T_C=ts.T_C)
    t_mid = (np.arange(counts.N_S) + 0.5) * ts.T_S
    np.testing.assert_allclose(average_signal(sig, ts), alpha * t_mid,
                               rtol=0, atol=1e-15)


def test_average_rejects_invalid_signal():
    ts = swiss_2h()
    sig = ActivationSignal(values=np.zeros(3), T_C=ts.T_C)
    with pytest.raises(ValueError, match="expected N_C"):
        average_signal(sig, ts)


# ---------------------------------------------------------------------------
# state integration


def test_constant_power_lossless_state_is_linear_in_time():
    ts = swiss_2h()
    counts = derive_counts(ts)
    params = battery(counts.N_S)
    p = np.full(counts.N_C + 1, 2.0)
    x = simulate_state(params, ts, p, 7.5)
    hours = np.arange(counts.N_C + 1) * ts.T_C / 3600.0
    np.testing.assert_allclose(x, 7.5 + 2.0 * hours, rtol=0, atol=1e-12)


@pytest.mark.parametrize("a", [0.0, -0.7])
def test_simulation_matches_adaptive_ode_solver(a):
    ts = Timescales(T_H=2 * HOUR, T_RES=2 * HOUR, T_DA=HOUR, T_ID=15 * MIN,
                    T_S=5 * MIN, T_C=5 * MIN, T_RP=0, T_ID_lead=0)
    counts = derive_counts(ts)
    rng = np.random.default_rng(20240818)
    params = SystemParams.constant(counts.N_S, a=a, b=1.3, c=0.9,
                                   p_lo=-5, p_hi=5, x_lo=-100, x_hi=100,
                                   x0_min=2.0, x0_max=2.0)
    params = dataclasses.replace(params, u=rng.uniform(-1, 1, counts.N_S))
    p = rng.uniform(-5, 5, counts.N_C + 1)
    t_grid_h = np.arange(counts.N_C + 1) * ts.T_C / 3600.0
    t_s_h = ts.T_S / 3600.0

    def rhs(t, x):
        pw = np.interp(t, t_grid_h, p)
        s = min(int(t / t_s_h), counts.N_S - 1)
        return a * x + params.b * params.u[s] + params.c * pw

    ode = solve_ivp(rhs, (0.0, t_grid_h[-1]), [2.0], t_eval=t_grid_h,
                    rtol=1e-12, atol=1e-12, max_step=t_s_h)
    x = simulate_state(params, ts, p, 2.0)
    np.testing.assert_allclose(x, ode.y[0], rtol=1e-9, atol=1e-9)


def test_simulation_rejects_wrong_grid_length():
    ts = swiss_2h()
    counts = derive_counts(ts)
    with pytest.raises(ValueError, match="expected"):
        simulate_state(battery(counts.N_S), ts, np.zeros(10), 7.5)


# ---------------------------------------------------------------------------
# certification of solved policies


CHECK_NAMES = {"power", "ramp", "state", "energy"}


def stress_signals(ts):
    sigs = [
        gen_signal("zero", ts),
        gen_signal("sustained", ts),
        gen_signal("sustained", ts, level=-1.0),
        gen_signal("square_wave", ts, period=2 * ts.T_C),
        gen_signal("square_wave", ts),
    ]
    for seed in range(6):
        sigs.append(gen_signal("uniform_random", ts, seed=seed))
        sigs.append(gen_signal("clipped_random_walk", ts, seed=seed))
    return sigs


def test_optimal_policy_passes_every_stress_signal(solved_2h):
    ts, _, params, sol = solved_2h
    for sig in stress_signals(ts):
        report = check_feasibility(sol.policy, sig, params, ts)
        assert report.feasible, report.format()
        assert set(report.margins) == CHECK_NAMES
        # the example battery has no ramp limit, so that check is vacuous
        assert report.margins["ramp"] == np.inf
        assert report.gamma == sol.gamma


def test_inflated_gamma_fails_under_sustained_activation(solved_2h):
    ts, _, params, sol = solved_2h
    bigger = dataclasses.replace(sol.policy, gamma=1.01 * sol.policy.gamma)
    failures = 0
    for level in (1.0, -1.0):
        sig = gen_signal("sustained", ts, level=level)
        report = check_feasibility(bigger, sig, params, ts)
        if not report.feasible:
            failures += 1
            assert report.margins["state"] < 0
            assert any("state limit violated" in m for m in report.messages)
            assert "INFEASIBLE" in report.format()
    # the full buffer is consumed at the optimum, so at least one
    # sustained direction must break once gamma is inflated
    assert failures >= 1


def test_zero_policy_trivially_feasible():
    ts = swiss_2h()
    counts = derive_counts(ts)
    params = battery(counts.N_S)
    pol = zero_policy(counts)
    for sig in (gen_signal("sustained", ts), gen_signal("uniform_random", ts, seed=3)):
        report = check_feasibility(pol, sig, params, ts)
        assert report.feasible
        assert report.margins["energy"] >= -1e-12


def test_power_violation_is_caught():
    ts = swiss_2h()
    counts = derive_counts(ts)
    params = battery(counts.N_S)
    pol = zero_policy(counts)
    pol.q_DA[:] = 11.0   # 11 kWh per hour slot, 11 kW reference: above p_hi
    report = check_feasibility(pol, gen_signal("zero", ts), params, ts)
    assert not report.feasible
    assert report.margins["power"] < -1.0
    assert "FAIL power" in report.format()


@pytest.mark.parametrize("open_side", ["x_hi", "x_lo"])
def test_infinite_state_bound_keeps_the_other_side_checked(open_side):
    # 4 kW of sustained activation for 2 h moves the state by 8 kWh: from
    # 1 kWh down to -7 kWh below x_lo = 0, or from 14 kWh up to 7 kWh above
    # x_hi = 15; the infinite limit on the other side must not switch the
    # state check off
    ts = swiss_2h()
    counts = derive_counts(ts)
    if open_side == "x_hi":
        params = SystemParams.constant(counts.N_S, p_lo=-5, p_hi=5, x_lo=0, x_hi=np.inf,
                                       x0_min=1.0, x0_max=1.0)
        level = -1.0
    else:
        params = SystemParams.constant(counts.N_S, p_lo=-5, p_hi=5, x_lo=-np.inf, x_hi=15,
                                       x0_min=14.0, x0_max=14.0)
        level = 1.0
    pol = dataclasses.replace(zero_policy(counts), gamma=4.0)
    report = check_feasibility(pol, gen_signal("sustained", ts, level=level), params, ts)
    assert np.isfinite(report.scales["state"])
    assert report.margins["state"] == pytest.approx(-7.0, abs=1e-9)
    assert not report.feasible
    assert "FAIL state" in report.format()
    assert len(report.messages) == 1


def test_report_format_lists_every_check(solved_2h):
    ts, _, params, sol = solved_2h
    report = check_feasibility(sol.policy, gen_signal("zero", ts), params, ts)
    text = report.format()
    for name in CHECK_NAMES:
        assert f"PASS {name}:" in text
    assert text.splitlines()[-1] == "feasible"


@pytest.mark.parametrize("t_rp", [0, 10 * MIN])
def test_delivered_energy_closes_with_and_without_ramp_window(t_rp, solved_2h):
    ts = swiss_2h(t_rp=t_rp)
    counts = derive_counts(ts)
    params = battery(counts.N_S)
    if t_rp == 0:
        structure = PolicyStructure.build(counts, ts, 0, 1)
        sol = solve(assemble(params, ts, structure))
        assert sol.status == "optimal"
    else:
        _, _, _, sol = solved_2h
    report = check_feasibility(sol.policy, gen_signal("uniform_random", ts, seed=9),
                               params, ts)
    assert report.margins["energy"] >= -1e-9


def test_held_reference_certified_on_coarse_grid():
    """Day-ahead adjustment with a held (step) reference: the state rows
    must integrate the delivered rectangles, not an interpolation across
    plateau jumps, or sustained activation breaks the state band."""
    day = 24 * HOUR
    ts = Timescales(T_H=2 * day, T_RES=2 * day, T_DA=12 * HOUR, T_ID=12 * HOUR,
                    T_S=6 * HOUR, T_C=HOUR, T_RP=0, T_ID_lead=12 * HOUR,
                    DA_gate_offset=13 * HOUR)
    counts = derive_counts(ts)
    params = SystemParams.constant(counts.N_S, p_lo=-3, p_hi=3, x_lo=0, x_hi=40,
                                   x0_min=20, x0_max=20, u=0.05)
    structure = PolicyStructure.build(counts, ts, 2, 1)
    sol = solve(assemble(params, ts, structure))
    assert sol.status == "optimal"
    status, value, _ = vertex_oracle(params, ts, structure)
    assert status == "optimal"
    assert abs(sol.objective - value) <= 1e-8 * max(1.0, abs(value))
    for sig in (gen_signal("sustained", ts),
                gen_signal("sustained", ts, level=-1.0),
                gen_signal("square_wave", ts, period=2 * ts.T_C),
                gen_signal("clipped_random_walk", ts, seed=3)):
        report = check_feasibility(sol.policy, sig, params, ts)
        assert report.feasible, report.format()


def test_verification_refuses_malformed_inputs(solved_2h):
    ts, counts, params, sol = solved_2h
    short = ActivationSignal(values=np.zeros(4), T_C=ts.T_C)
    with pytest.raises(ValueError, match="cannot verify"):
        check_feasibility(sol.policy, short, params, ts)
    negative = dataclasses.replace(sol.policy, gamma=-1.0)
    with pytest.raises(ValueError, match="gamma must be >= 0"):
        check_feasibility(negative, gen_signal("zero", ts), params, ts)
    squeezed = dataclasses.replace(sol.policy,
                                   Q_DA=sol.policy.Q_DA[:, :-1])
    with pytest.raises(ValueError, match="Q_DA shape"):
        check_feasibility(squeezed, gen_signal("zero", ts), params, ts)


def test_signal_on_another_control_grid_is_refused(solved_2h):
    # right sample count, but sampled on a 120 s grid against the 60 s one
    ts, counts, params, sol = solved_2h
    coarse = ActivationSignal(values=np.zeros(counts.N_C + 1), T_C=2 * ts.T_C)
    with pytest.raises(ValueError, match=r"T_C = 120 s.*T_C = 60 s"):
        check_feasibility(sol.policy, coarse, params, ts)


# ---------------------------------------------------------------------------
# pointwise bounds


def interval_bounds_reference(per_interval, m, tighter):
    """Instant k lies in every interval i with i*m <= k <= (i+1)*m; the
    bound there is the tighter of those intervals' bounds."""
    n = len(per_interval)
    out = []
    for k in range(n * m + 1):
        around = [per_interval[i] for i in range(n) if i * m <= k <= (i + 1) * m]
        out.append(tighter(around))
    return np.array(out)


bound_values = st.one_of(st.floats(-50, 50), st.sampled_from([-np.inf, np.inf]))


@settings(deadline=None)
@given(per_interval=st.lists(bound_values, min_size=1, max_size=8),
       m=st.integers(1, 5), upper=st.booleans())
def test_pointwise_bounds_match_interval_rule(per_interval, m, upper):
    tighter, reduce = (np.minimum, min) if upper else (np.maximum, max)
    got = _pointwise_bounds(np.array(per_interval), m, tighter)
    np.testing.assert_array_equal(got, interval_bounds_reference(per_interval, m, reduce))


# ---------------------------------------------------------------------------
# persistence


def test_signal_round_trip(tmp_path):
    ts = swiss_2h()
    sig = gen_signal("clipped_random_walk", ts, seed=42)
    path = tmp_path / "walk.sig"
    save_signal(sig, str(path))
    back = load_signal(str(path))
    np.testing.assert_array_equal(back.values, sig.values)
    assert back.T_C == sig.T_C


def test_signal_loader_rejects_foreign_files(tmp_path):
    path = tmp_path / "nonsense.txt"
    path.write_text("just some text\n1 2 3\n")
    with pytest.raises(ValueError, match="not a signal file"):
        load_signal(str(path))
