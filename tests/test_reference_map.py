"""Baseline maps and the piece-wise affine power reference.

Proves:
  1. The two-slot worked example produces breakpoints [4,4,4,6,8,8,8] kW
     and the documented mid-ramp values (5 kW at 12.5 min, 7 kW at
     17.5 min).
  2. energy_content matches an independent quadrature oracle and the
     closed-form slot weights ((e_{k-1} + 10 e_k + e_{k+1})/12 interior,
     (11 e_0 + e_1)/12 at the edges for the 15 min / 5 min / 10 min
     scales).
  3. Total energy is conserved by the ramp redistribution for any ramp
     window, and T_RP = 0 reproduces the slot energies exactly.
  4. M spreads day-ahead energy uniformly (column sums 1) and R rows sum
     to 1/T_ID (in hours); R matches its per-breakpoint rule on random
     admissible chains with ramp windows from 0 to T_ID.
  5. Shape and domain errors are rejected.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from flexbid import (
    ReferenceProfile,
    Timescales,
    build_M,
    build_R,
    derive_counts,
    energy_content,
    eval_reference,
    reference_from_baseline,
)

MIN = 60
HOUR = 3600
DAY = 86400


def two_slot_ts(t_rp: int = 10 * MIN) -> Timescales:
    return Timescales(T_H=30 * MIN, T_RES=30 * MIN, T_DA=30 * MIN, T_ID=15 * MIN,
                      T_S=5 * MIN, T_C=60, T_RP=t_rp)


def swiss_day(t_rp: int = 10 * MIN) -> Timescales:
    return Timescales(T_H=DAY, T_RES=DAY, T_DA=HOUR, T_ID=15 * MIN,
                      T_S=5 * MIN, T_C=1, T_RP=t_rp)


def make_profile(e_id, ts, e_da=None):
    counts = derive_counts(ts)
    m_map = build_M(counts, ts)
    if e_da is None:
        e_da = np.zeros(counts.N_DA)
    e_base = m_map @ np.asarray(e_da, dtype=float) + np.asarray(e_id, dtype=float)
    return reference_from_baseline(e_base, build_R(ts, counts), ts)


# ---------------------------------------------------------------------------
# worked example: e = [1, 2] kWh over two 15 min slots, 10 min ramp window


def test_two_slot_breakpoints():
    profile = make_profile([1.0, 2.0], two_slot_ts())
    assert np.allclose(profile.p_ref, [4.0, 4.0, 4.0, 6.0, 8.0, 8.0, 8.0], atol=1e-14)
    assert not profile.piecewise_constant


def test_two_slot_midramp_values():
    ts = two_slot_ts()
    profile = make_profile([1.0, 2.0], ts)
    assert eval_reference(profile, 12.5 * MIN, ts) == pytest.approx(5.0, abs=1e-14)
    assert eval_reference(profile, 17.5 * MIN, ts) == pytest.approx(7.0, abs=1e-14)
    # plateau and exact-boundary values
    assert eval_reference(profile, 0.0, ts) == pytest.approx(4.0)
    assert eval_reference(profile, 5 * MIN, ts) == pytest.approx(4.0)
    assert eval_reference(profile, 15 * MIN, ts) == pytest.approx(6.0)
    assert eval_reference(profile, 30 * MIN, ts) == pytest.approx(8.0)


def test_two_slot_energy_content():
    ts = two_slot_ts()
    profile = make_profile([1.0, 2.0], ts)
    # the ramp borrows 1/12 kWh from the later slot into the earlier one
    assert np.allclose(energy_content(profile, ts), [13.0 / 12.0, 23.0 / 12.0], atol=1e-15)
    assert np.allclose(profile.e_ref, [13.0 / 12.0, 23.0 / 12.0], atol=1e-15)


# ---------------------------------------------------------------------------
# closed-form weights and conservation


def test_interior_slot_weights_swiss_scales():
    ts = swiss_day()
    counts = derive_counts(ts)
    rng = np.random.default_rng(7)
    e = rng.normal(0.0, 2.0, size=counts.N_ID)
    e_ref = energy_content(make_profile(e, ts), ts)
    want_interior = (e[:-2] + 10.0 * e[1:-1] + e[2:]) / 12.0
    assert np.allclose(e_ref[1:-1], want_interior, atol=1e-12)
    assert e_ref[0] == pytest.approx((11.0 * e[0] + e[1]) / 12.0, abs=1e-12)
    assert e_ref[-1] == pytest.approx((e[-2] + 11.0 * e[-1]) / 12.0, abs=1e-12)


@pytest.mark.parametrize("t_rp", [0, 5 * MIN, 10 * MIN, 15 * MIN])
def test_total_energy_conserved(t_rp):
    ts = swiss_day(t_rp)
    counts = derive_counts(ts)
    rng = np.random.default_rng(19 + t_rp)
    for _ in range(20):
        e = rng.normal(0.0, 3.0, size=counts.N_ID)
        e_ref = energy_content(make_profile(e, ts), ts)
        assert abs(e_ref.sum() - e.sum()) < 1e-12 * max(1.0, abs(e.sum()))


def test_zero_ramp_window_is_exact():
    ts = swiss_day(0)
    counts = derive_counts(ts)
    rng = np.random.default_rng(3)
    e = rng.normal(0.0, 2.0, size=counts.N_ID)
    profile = make_profile(e, ts)
    assert profile.piecewise_constant
    assert np.allclose(energy_content(profile, ts), e, atol=1e-13)
    # zero-order hold semantics: constant inside each slot
    t_id_h = ts.T_ID / HOUR
    assert eval_reference(profile, 0.0, ts) == pytest.approx(e[0] / t_id_h)
    assert eval_reference(profile, 14 * MIN + 59, ts) == pytest.approx(e[0] / t_id_h)
    assert eval_reference(profile, 15 * MIN, ts) == pytest.approx(e[1] / t_id_h)


def test_energy_content_against_quadrature():
    """Trapezoid slot energies equal adaptive quadrature of the interpolant."""
    ts = Timescales(T_H=HOUR, T_RES=HOUR, T_DA=HOUR, T_ID=15 * MIN,
                    T_S=5 * MIN, T_C=60, T_RP=10 * MIN)
    counts = derive_counts(ts)
    rng = np.random.default_rng(11)
    e = rng.normal(0.0, 2.0, size=counts.N_ID)
    profile = make_profile(e, ts)
    knots = np.arange(counts.N_S + 1) * float(ts.T_S)

    def p_of_t(t):
        return np.interp(t, knots, profile.p_ref)

    got = energy_content(profile, ts)
    for k in range(counts.N_ID):
        lo, hi = k * ts.T_ID, (k + 1) * ts.T_ID
        inner = [t for t in knots if lo < t < hi]
        val, _err = scipy.integrate.quad(p_of_t, lo, hi, points=inner, limit=200)
        assert got[k] == pytest.approx(val / HOUR, abs=1e-10)


def test_full_width_ramp_window():
    # T_RP = T_ID is admissible; redistribution widens but stays conservative
    ts = swiss_day(15 * MIN)
    counts = derive_counts(ts)
    r_map = build_R(ts, counts)
    assert np.allclose(np.asarray(r_map.sum(axis=1)).ravel(), HOUR / ts.T_ID, atol=1e-12)
    rng = np.random.default_rng(5)
    e = rng.normal(size=counts.N_ID)
    e_ref = energy_content(make_profile(e, ts), ts)
    assert abs(e_ref.sum() - e.sum()) < 1e-12


# ---------------------------------------------------------------------------
# map matrices


def test_baseline_map_shape_and_sums():
    ts = swiss_day()
    counts = derive_counts(ts)
    m_map = build_M(counts, ts)
    assert m_map.shape == (counts.N_ID, counts.N_DA)
    assert np.allclose(np.asarray(m_map.sum(axis=0)).ravel(), 1.0)
    assert np.allclose(m_map.data, ts.T_ID / ts.T_DA)
    # each day-ahead hour covers four consecutive quarter-hour rows
    dense = m_map.toarray()
    for j in range(counts.N_DA):
        covered = np.flatnonzero(dense[:, j])
        assert covered.tolist() == list(range(4 * j, 4 * j + 4))


def test_baseline_map_identity_when_grids_match():
    ts = Timescales(T_H=HOUR, T_RES=HOUR, T_DA=15 * MIN, T_ID=15 * MIN,
                    T_S=5 * MIN, T_C=60)
    counts = derive_counts(ts)
    assert np.allclose(build_M(counts, ts).toarray(), np.eye(counts.N_ID))


def test_reference_map_rows_sum_to_inverse_slot_length():
    for t_rp in (0, 10 * MIN):
        ts = swiss_day(t_rp)
        counts = derive_counts(ts)
        r_map = build_R(ts, counts)
        assert r_map.shape == (counts.N_S + 1, counts.N_ID)
        assert np.allclose(np.asarray(r_map.sum(axis=1)).ravel(), HOUR / ts.T_ID, atol=1e-12)


def per_breakpoint_R(ts, counts):
    """build_R's documented rule, one breakpoint at a time: a breakpoint
    strictly inside the ramp window of an interior boundary mixes the two
    adjacent plateaus linearly, any other takes the plateau of the slot
    containing it (the final breakpoint the last slot)."""
    t_id_h = ts.T_ID / HOUR
    out = np.zeros((counts.N_S + 1, counts.N_ID))
    for s in range(counts.N_S + 1):
        t = s * ts.T_S
        windows = [j for j in range(1, counts.N_ID) if abs(t - j * ts.T_ID) < ts.T_RP / 2]
        if windows:
            (j,) = windows
            theta = (t - (j * ts.T_ID - ts.T_RP / 2)) / ts.T_RP
            out[s, j - 1] = (1.0 - theta) / t_id_h
            out[s, j] = theta / t_id_h
        else:
            out[s, min(t // ts.T_ID, counts.N_ID - 1)] = 1.0 / t_id_h
    return out


@st.composite
def admissible_chains(draw):
    t_c = draw(st.sampled_from([1, 2, 5, 60]))
    t_s = t_c * draw(st.integers(1, 4))
    per_slot = draw(st.integers(1, 6))
    t_id = t_s * per_slot
    t_h = t_id * draw(st.integers(1, 6))
    return Timescales(T_H=t_h, T_RES=t_h, T_DA=t_h, T_ID=t_id, T_S=t_s, T_C=t_c,
                      T_RP=t_s * draw(st.integers(0, per_slot)))


@settings(deadline=None)
@given(admissible_chains())
def test_reference_map_matches_per_breakpoint_rule(ts):
    counts = derive_counts(ts)
    got = build_R(ts, counts).toarray()
    want = per_breakpoint_R(ts, counts)
    assert np.array_equal(got != 0, want != 0)
    # theta is formed in another order than the rule's, so allow a few ulps
    np.testing.assert_allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0)


def test_combined_day_ahead_and_intra_day_positions():
    ts = swiss_day()
    counts = derive_counts(ts)
    rng = np.random.default_rng(23)
    e_da = rng.normal(size=counts.N_DA)
    e_id = rng.normal(size=counts.N_ID)
    e_base = build_M(counts, ts) @ e_da + e_id
    want = np.repeat(e_da, 4) * (ts.T_ID / ts.T_DA) + e_id
    assert np.allclose(e_base, want, atol=1e-14)


# ---------------------------------------------------------------------------
# error handling


def test_energy_content_rejects_non_tiling_profile():
    ts = swiss_day()
    with pytest.raises(ValueError):
        energy_content(ReferenceProfile(p_ref=np.zeros(6)), ts)


def test_eval_reference_rejects_out_of_range():
    ts = two_slot_ts()
    profile = make_profile([1.0, 2.0], ts)
    with pytest.raises(ValueError):
        eval_reference(profile, -1.0, ts)
    with pytest.raises(ValueError):
        eval_reference(profile, ts.T_H + 1.0, ts)
