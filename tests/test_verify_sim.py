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
     lossless storage under random piecewise-linear power, and several
     initial states simulated together equal their single simulations bit
     for bit.
  5. Solved policies pass certification under a battery of admissible
     signals, while the same policy with gamma inflated by 1% fails under
     sustained activation; the reports say which limit broke.  This holds
     for lossy storage with intra-day adjustment too.
  6. The delivered-energy closure holds with and without a ramp window,
     and a held (step) reference on a coarse grid certifies across its
     plateau jumps, where an interpolating state quadrature would not.
     A held reference's power check reads each interval's left limit at
     its end instant, where the plateau still holds.
  7. Signals survive a save/load round trip and malformed inputs are
     refused with specific messages, including a signal sampled on another
     control grid, policy offsets q_DA, q_ID of the wrong length, a NaN
     sample or a non-finite gamma, offset or Q entry, and a non-finite or
     negative tolerance.
  8. Infinite state limits on one side leave the other side checked.
  9. A state violation is reported at the instant and state that the
     brute-force rule gives (first instant of smallest slack against the
     tighter of the intervals on either side of it), for random bounds
     with ties and infinite ones.
 10. Integer-typed signal and baseload arrays give the same report as
     their float copies.
 11. The fine reference equals np.interp of the breakpoints bit for bit
     (a zero-order hold of the left breakpoint when held), for random
     breakpoints, interval counts and 1 to 300 control steps per interval.
 12. The per-grid and decay caches change no report: checks interleaved
     across grids, lossy and lossless storage and single and uncertain
     initial states equal the same checks after the caches are cleared,
     and every cached array is read-only.  So does the memo of the latest
     reference, on ramped, held, lossy held, finite-ramp and uncertain-x0
     cases: the 1.01*gamma control hits it, a changed q_ID misses it, and
     a check runs the step map once for both initial states (plus once
     per miss for a held reference's correction).
 13. On small random lossy instances with a held reference and an
     uncertain initial state, the LP's certified capacity passes sustained
     and seeded random signals in the simulator, and 1.01 times it fails
     under sustained activation.
"""

from __future__ import annotations

import dataclasses
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
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
import flexbid
from flexbid import verify_sim
from flexbid.cli import load_problem
from flexbid.dynamics import propagate
from flexbid.reference_map import ReferenceProfile
from flexbid.verify_sim import SIGNAL_KINDS, _fine_reference

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


def test_several_initial_states_equal_their_single_simulations():
    ts = swiss_2h(t_c=12)
    counts = derive_counts(ts)
    params = SystemParams.constant(counts.N_S, a=-0.3, b=1.1, c=0.9, u=0.4,
                                   p_lo=-5, p_hi=5, x_lo=0, x_hi=15, x0_min=7, x0_max=8)
    p = np.random.default_rng(5).uniform(-5, 5, counts.N_C + 1)
    starts = [7.0, 8.0, -0.0]
    states = simulate_state(params, ts, p, starts)
    assert states.shape == (len(starts), counts.N_C + 1)
    for row, x0 in zip(states, starts):
        single = simulate_state(params, ts, p, x0)
        assert np.array_equal(row.view(np.int64), single.view(np.int64))


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


@pytest.mark.parametrize("gamma", [None, 1], ids=["solved", "integer_gamma"])
def test_integer_signal_and_baseload_match_their_float_copies(solved_2h, gamma):
    ts, counts, params, sol = solved_2h
    steps = np.arange(counts.N_C + 1) // 7
    values = np.where(steps % 3 == 0, 0, np.where(steps % 2 == 0, 1, -1))
    values[0] = values[1]
    u = np.where(np.arange(counts.N_S) % 2 == 0, 1, -1)
    reports = [
        check_feasibility(
            sol.policy if gamma is None else dataclasses.replace(sol.policy, gamma=dtype(gamma)),
            ActivationSignal(values=values.astype(dtype), T_C=ts.T_C),
            dataclasses.replace(params, u=u.astype(dtype)), ts)
        for dtype in (int, float)
    ]
    assert reports[0].feasible == reports[1].feasible
    assert reports[0].margins == reports[1].margins
    assert reports[0].messages == reports[1].messages


def test_lossy_adjustable_policy_certifies_and_is_tight():
    """Lossy storage (a = -0.02 1/h) with one-hour-lead intra-day
    adjustment: its absolute-value blocks are scaled by powers of the
    decay factor, so few of them share an epigraph column."""
    ts = Timescales(T_H=4 * HOUR, T_RES=4 * HOUR, T_DA=HOUR, T_ID=15 * MIN,
                    T_S=5 * MIN, T_C=60, T_RP=10 * MIN, T_ID_lead=HOUR)
    counts = derive_counts(ts)
    params = dataclasses.replace(battery(counts.N_S), a=-0.02)
    structure = PolicyStructure.build(counts, ts, 0, 1)
    sol = solve(assemble(params, ts, structure), refine_ramp=True)
    assert sol.status == "optimal"
    assert sol.stats["certified"] is True
    for sig in (gen_signal("sustained", ts), gen_signal("sustained", ts, level=-1.0),
                gen_signal("square_wave", ts)):
        report = check_feasibility(sol.policy, sig, params, ts)
        assert report.feasible, report.format()
    bigger = dataclasses.replace(sol.policy, gamma=1.01 * sol.gamma)
    verdicts = [check_feasibility(bigger, gen_signal("sustained", ts, level=level),
                                  params, ts).feasible for level in (1.0, -1.0)]
    assert not all(verdicts)


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


def test_held_power_check_reads_each_interval_left_limit():
    # held, slot 1's 4.5 kW plateau lasts up to t = 900 s, where the
    # reference steps to 0; a +1 spike at that instant drives the power
    # towards 5.5 kW > p_hi = 5 kW from the left, as the same spike one
    # instant earlier reaches it outright
    prob = load_problem(str(pathlib.Path(flexbid.__file__).parent / "configs" / "powerwall_2h.cfg"))
    ts = dataclasses.replace(prob.ts, T_RP=0)
    counts = derive_counts(ts)
    pol = zero_policy(counts, gamma=1.0)
    pol.q_ID[0] = 1.125
    for instant in (900, 899):
        values = np.zeros(counts.N_C + 1)
        values[instant // ts.T_C] = 1.0
        report = check_feasibility(pol, ActivationSignal(values=values, T_C=ts.T_C),
                                   prob.params, ts)
        assert not report.feasible, instant
        assert report.margins["power"] == pytest.approx(-0.5, abs=1e-12)


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
    nan_sample = gen_signal("zero", ts)
    nan_sample.values[5] = np.nan
    with pytest.raises(ValueError, match="normalized band"):
        check_feasibility(sol.policy, nan_sample, params, ts)
    for name, bad in (("gamma", np.nan), ("gamma", np.inf), ("q_DA", np.nan), ("q_ID", -np.inf)):
        value = bad if name == "gamma" else np.full_like(getattr(sol.policy, name), bad)
        policy = dataclasses.replace(sol.policy, **{name: value})
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            check_feasibility(policy, gen_signal("zero", ts), params, ts)
    q_nan = dataclasses.replace(sol.policy, Q_ID=sol.policy.Q_ID.copy())
    q_nan.Q_ID[0, 0] = np.nan
    with pytest.raises(ValueError, match="Q_ID must be finite"):
        check_feasibility(q_nan, gen_signal("zero", ts), params, ts)


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0, -1e-12])
def test_tolerance_must_be_finite_and_non_negative(solved_2h, tol):
    # an infinite tolerance would pass any violation, a NaN one none
    ts, counts, params, sol = solved_2h
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        check_feasibility(sol.policy, gen_signal("sustained", ts), params, ts, tol=tol)


@pytest.mark.parametrize("name", ["q_DA", "q_ID"])
def test_offsets_of_the_wrong_length_are_refused(solved_2h, name):
    # a short q_DA would broadcast into another policy, a long q_ID would
    # fail inside numpy without naming the field
    ts, counts, params, sol = solved_2h
    offset = getattr(sol.policy, name)
    wrong = offset[:1] if name == "q_DA" else np.append(offset, 0.0)
    policy = dataclasses.replace(sol.policy, **{name: wrong})
    with pytest.raises(ValueError, match=rf"cannot verify[\s\S]*{name} shape"):
        check_feasibility(policy, gen_signal("zero", ts), params, ts)


def test_signal_on_another_control_grid_is_refused(solved_2h):
    # right sample count, but sampled on a 120 s grid against the 60 s one
    ts, counts, params, sol = solved_2h
    coarse = ActivationSignal(values=np.zeros(counts.N_C + 1), T_C=2 * ts.T_C)
    with pytest.raises(ValueError, match=r"T_C = 120 s.*T_C = 60 s"):
        check_feasibility(sol.policy, coarse, params, ts)


# ---------------------------------------------------------------------------
# locating a state violation


def interval_bounds_reference(per_interval, m, tighter):
    """Instant k lies in every interval i with i*m <= k <= (i+1)*m; the
    bound there is the tighter of those intervals' bounds."""
    n = len(per_interval)
    out = []
    for k in range(n * m + 1):
        around = [per_interval[i] for i in range(n) if i * m <= k <= (i + 1) * m]
        out.append(tighter(around))
    return np.array(out)


# few distinct values, so bounds, slacks and states tie often; a pair's
# limits are never both -inf or both +inf
ties = [-1.0, 0.0, 0.5, 1.0]
bound_pairs = st.tuples(st.sampled_from([-np.inf] + ties) | st.floats(-2, 2),
                        st.sampled_from(ties + [np.inf])).map(sorted)


@settings(deadline=None, max_examples=200)
@given(pairs=st.lists(bound_pairs, min_size=1, max_size=8), m=st.integers(1, 5),
       t_c=st.sampled_from([1, 60]), a=st.sampled_from([0.0, -0.5]),
       c=st.sampled_from([0.0, 1.0]), gamma=st.floats(0, 30),
       kind=st.sampled_from(["sustained", "square_wave", "uniform_random"]),
       x0=st.tuples(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), st.floats(-2, 2)))
def test_state_violation_located_by_interval_rule(pairs, m, t_c, a, c, gamma, kind, x0):
    n_s = len(pairs)
    ts = breakpoint_grid(n_s, m, t_c, held=False)
    x_lo, x_hi = np.array(pairs).T
    x0_min, x0_max = sorted(np.clip(x0, x_lo[0], x_hi[0]))
    params = SystemParams(a=a, b=0.0, c=c, u=np.zeros(n_s),
                          p_lo=np.full(n_s, -50.0), p_hi=np.full(n_s, 50.0),
                          r_lo=np.full(n_s, -np.inf), r_hi=np.full(n_s, np.inf),
                          x_lo=x_lo, x_hi=x_hi, x0_min=x0_min, x0_max=x0_max)
    sig = gen_signal(kind, ts, seed=3)
    report = verify_sim.check_feasibility(zero_policy(derive_counts(ts), gamma), sig, params, ts)

    # the zero policy's reference is 0, added as the check adds it
    p_target = gamma * sig.values + 0.0
    hi_pt = interval_bounds_reference(x_hi, m, min)
    lo_pt = interval_bounds_reference(x_lo, m, max)
    expected = []
    for start in sorted({x0_min, x0_max}):
        x = simulate_state(params, ts, p_target, start)
        slack = np.minimum(hi_pt - x, x - lo_pt)
        if slack.min() < -report.tol * report.scales["state"]:
            k = int(np.argmin(slack))
            expected.append(f"state limit violated from x0={start:g} at t={k * t_c}s "
                            f"(x={x[k]:.6f})")
    assert report.messages == expected


# ---------------------------------------------------------------------------
# the fine reference


def breakpoint_grid(n_s, m, t_c, held) -> Timescales:
    t_s = m * t_c
    return Timescales(T_H=n_s * t_s, T_RES=n_s * t_s, T_DA=n_s * t_s, T_ID=t_s,
                      T_S=t_s, T_C=t_c, T_RP=0 if held else t_s)


MAX_N_S = 12
finite_lists = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                        min_size=MAX_N_S + 1, max_size=MAX_N_S + 1)


@settings(deadline=None)
@given(values=finite_lists, n_s=st.integers(1, MAX_N_S), m=st.integers(1, 300),
       t_c=st.sampled_from([1, 2, 7, 60]), held=st.booleans())
# a signed zero at a breakpoint, and slopes that overflow
@example(values=[-0.0, 1.0, 2.0] + [0.0] * 10, n_s=2, m=3, t_c=1, held=False)
@example(values=[1e308, -1e308, 0.0] + [0.0] * 10, n_s=2, m=3, t_c=1, held=False)
def test_fine_reference_equals_interp_bit_for_bit(values, n_s, m, t_c, held):
    ts = breakpoint_grid(n_s, m, t_c, held)
    p_ref = np.array(values[:n_s + 1])
    # huge breakpoints are kept on purpose: their slopes overflow alike
    with np.errstate(over="ignore", invalid="ignore"):
        got = _fine_reference(ReferenceProfile(p_ref=p_ref, piecewise_constant=held), ts)
    t = np.arange(n_s * m + 1.0) * t_c
    if held:
        # eval_reference's zero-order hold: p[min(t // T_S, N_S)]
        want = p_ref[np.minimum(t // ts.T_S, n_s).astype(int)]
    else:
        want = np.interp(t, np.arange(n_s + 1) * float(ts.T_S), p_ref)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# the caches


def report_key(report):
    return (report.feasible, report.messages,
            {k: float(v).hex() for k, v in report.margins.items()},
            {k: float(v).hex() for k, v in report.scales.items()})


def test_cached_maps_change_no_report(solved_2h):
    ts, counts, params, sol = solved_2h
    held_ts = swiss_2h(t_rp=0)
    held_sol = solve(assemble(params, held_ts, PolicyStructure.build(counts, held_ts, 0, 1)))
    assert held_sol.status == "optimal"
    variants = [params, dataclasses.replace(params, a=-0.02),
                dataclasses.replace(params, x0_min=7.0, x0_max=8.0)]
    plan = []
    for k, variant in enumerate(variants):
        for grid_ts, policy in ((ts, sol.policy), (held_ts, held_sol.policy)):
            for sig in (gen_signal("sustained", grid_ts, level=-1.0),
                        gen_signal("uniform_random", grid_ts, seed=k)):
                plan.append((policy, sig, variant, grid_ts))
    cached = [report_key(check_feasibility(*args)) for args in plan]
    for args, want in zip(plan, cached):
        verify_sim._grid.cache_clear()
        verify_sim._decay_powers.cache_clear()
        assert report_key(check_feasibility(*args)) == want

    grid = verify_sim._grid(ts)
    arrays = [grid.offsets, verify_sim._decay_powers(1.0, counts.N_C)]
    held = verify_sim._reference_work(np.linspace(-1.0, 1.0, counts.N_S + 1).tobytes(),
                                      True, ts, -0.02, 1.0, 1.0)
    arrays += [held.fine, held.x_corr]
    for mat in (grid.M, grid.R, grid.A_DA, grid.A_ID):
        arrays += [mat.data, mat.indices, mat.indptr]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


@pytest.fixture(scope="module")
def memo_cases(solved_2h):
    """(policy, params, ts) per reference kind: the fixed-reference 2 h
    policy on its ramped reference, and a held one solved on T_RP = 0."""
    ts, counts, params, sol = solved_2h
    held_ts = swiss_2h(t_rp=0)
    held_sol = solve(assemble(params, held_ts, PolicyStructure.build(counts, held_ts, 0, 1)))
    assert held_sol.status == "optimal"
    ramp = np.full(counts.N_S, 0.05)
    return {
        "ramped": (sol.policy, params, ts),
        "held": (held_sol.policy, params, held_ts),
        "lossy_held": (held_sol.policy, dataclasses.replace(params, a=-0.02), held_ts),
        "finite_ramp": (sol.policy, dataclasses.replace(params, r_lo=-ramp, r_hi=ramp), ts),
        "uncertain_x0": (sol.policy, dataclasses.replace(params, x0_min=7.0, x0_max=8.0), ts),
    }


MEMO_CASES = ["ramped", "held", "lossy_held", "finite_ramp", "uncertain_x0"]


@pytest.mark.parametrize("case", MEMO_CASES)
def test_reference_memo_changes_no_report(memo_cases, case):
    policy, params, ts = memo_cases[case]
    signals = [gen_signal("sustained", ts, level=-1.0), gen_signal("square_wave", ts),
               gen_signal("uniform_random", ts, seed=3)]
    verify_sim._reference_work.cache_clear()
    check_feasibility(policy, signals[0], params, ts)
    for sig in signals:
        for gamma in (policy.gamma, 1.01 * policy.gamma):
            scaled = dataclasses.replace(policy, gamma=gamma)
            warm = report_key(check_feasibility(scaled, sig, params, ts))
            verify_sim._reference_work.cache_clear()
            assert report_key(check_feasibility(scaled, sig, params, ts)) == warm


@pytest.mark.parametrize("case", MEMO_CASES)
def test_reference_memo_hits_on_gamma_and_misses_on_offsets(memo_cases, case):
    policy, params, ts = memo_cases[case]
    sig = gen_signal("sustained", ts)
    memo = verify_sim._reference_work
    memo.cache_clear()
    check_feasibility(policy, sig, params, ts)
    control = dataclasses.replace(policy, gamma=1.01 * policy.gamma)
    check_feasibility(control, sig, params, ts)
    assert (memo.cache_info().hits, memo.cache_info().misses) == (1, 1)
    q_id = policy.q_ID.copy()
    q_id[0] += 0.01
    check_feasibility(dataclasses.replace(policy, q_ID=q_id), sig, params, ts)
    assert (memo.cache_info().hits, memo.cache_info().misses) == (1, 2)


@pytest.mark.parametrize("case", ["uncertain_x0", "held"])
def test_one_step_map_per_check(memo_cases, case, monkeypatch):
    # both initial states share one pass over the drive; a held reference
    # adds its correction's pass on each miss of the memo (this policy
    # adjusts its intra-day trades, so its reference moves with the signal)
    policy, params, ts = memo_cases[case]
    params = dataclasses.replace(params, x0_min=7.0, x0_max=8.0)
    calls = []

    def counted(f, drive):
        calls.append(f)
        return propagate(f, drive)

    monkeypatch.setattr(verify_sim, "propagate", counted)
    verify_sim._reference_work.cache_clear()
    signals = [gen_signal("sustained", ts), gen_signal("uniform_random", ts, seed=1),
               gen_signal("square_wave", ts)]
    for sig in signals:
        check_feasibility(policy, sig, params, ts)
    misses = verify_sim._reference_work.cache_info().misses if ts.T_RP == 0 else 0
    assert len(calls) == len(signals) + misses


# ---------------------------------------------------------------------------
# the LP against the simulator


# The envelope rows bound the intra-interval drift a*x by a*x_hi (and a*x_lo),
# which makes the LP conservative by about |a|*x_hi*T_S of state; at
# a = -0.05 1/h with the store 30 % full that alone exceeds 1 % of the
# capacity, so a is drawn within the -0.02 1/h that the lossy tests use.
@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), a=st.floats(-0.02, -0.001),
       p_bar=st.floats(2.0, 6.0), x_top=st.floats(1.0, 4.0), x0=st.floats(0.3, 0.7),
       dx0=st.floats(0.0, 0.05), u=st.floats(-0.2, 0.2), c=st.sampled_from([1.0, 0.8]),
       da_lookback=st.integers(0, 1), id_lookback=st.integers(0, 2))
def test_lp_capacity_is_tight_in_the_simulator(seed, a, p_bar, x_top, x0, dx0, u, c,
                                               da_lookback, id_lookback):
    ts = Timescales(T_H=40 * MIN, T_RES=40 * MIN, T_DA=40 * MIN, T_ID=10 * MIN,
                    T_S=5 * MIN, T_C=60, T_RP=0, T_ID_lead=0)
    counts = derive_counts(ts)
    params = SystemParams.constant(
        counts.N_S, a=a, c=c, u=u, p_lo=-p_bar, p_hi=p_bar, x_lo=0.0, x_hi=x_top,
        x0_min=(x0 - dx0) * x_top, x0_max=(x0 + dx0) * x_top)
    structure = PolicyStructure.build(counts, ts, da_lookback, id_lookback)
    sol = solve(assemble(params, ts, structure))
    assert sol.status == "optimal"
    assert sol.stats["certified"] is True
    signals = [gen_signal("sustained", ts), gen_signal("sustained", ts, level=-1.0)]
    signals += [gen_signal(kind, ts, seed=seed + k)
                for k, kind in enumerate(("uniform_random", "clipped_random_walk") * 3)]
    for sig in signals:
        report = check_feasibility(sol.policy, sig, params, ts)
        assert report.feasible, report.format()
    bigger = dataclasses.replace(sol.policy, gamma=1.01 * sol.gamma)
    verdicts = [check_feasibility(bigger, sig, params, ts).feasible for sig in signals[:2]]
    assert not all(verdicts)


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
