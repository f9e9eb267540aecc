"""Information-structure masks and affine trading policies.

Proves:
  1. Averaging maps are block rectangles whose rows sum to exactly 1.
  2. The intra-day mask encodes gate closure: a product can only read
     activation products that finished settling one lead time before its
     own delivery, truncated by the lookback budget.
  3. The day-ahead mask encodes the daily auction: day-1 rows are empty,
     later rows window back from the 11:00 gate of the previous day, the
     window never crosses the preceding gate, and lookbacks of 24 h or
     more leave the mask unchanged.
  4. Realizing trades under a concrete activation and mapping through
     (M, R) agrees with the materialized affine reference map.
  5. Policies serialize losslessly, and validate_against flags entries
     outside the mask and a negative or NaN gamma.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from flexbid import (
    AffinePolicy,
    PolicyStructure,
    Timescales,
    build_M,
    build_R,
    build_averaging,
    derive_counts,
    realized_schedules,
    reference_affine_map,
    reference_from_baseline,
    load_policy,
    save_policy,
)
from flexbid.policy import build_da_mask, build_id_mask, mask_entries
from reference import zero_policy

MIN = 60
HOUR = 3600
DAY = 86400


def ts_hours(hours: int, lead: int = 30 * MIN) -> Timescales:
    return Timescales(T_H=hours * HOUR, T_RES=hours * HOUR, T_DA=HOUR,
                      T_ID=15 * MIN, T_S=5 * MIN, T_C=60, T_RP=10 * MIN,
                      T_ID_lead=lead)


def ts_days(days: int) -> Timescales:
    return Timescales(T_H=days * DAY, T_RES=days * DAY, T_DA=HOUR,
                      T_ID=15 * MIN, T_S=5 * MIN, T_C=60, T_RP=10 * MIN,
                      T_ID_lead=HOUR)


def test_averaging_blocks():
    ts = ts_hours(2)
    counts = derive_counts(ts)
    a_da, a_id = build_averaging(counts, ts)
    assert a_da.shape == (counts.N_DA, counts.N_S)
    assert a_id.shape == (counts.N_ID, counts.N_S)
    assert np.allclose(np.asarray(a_da.sum(axis=1)).ravel(), 1.0)
    assert np.allclose(np.asarray(a_id.sum(axis=1)).ravel(), 1.0)
    # day-ahead row 1 covers settlement intervals 13..24 only
    dense = a_da.toarray()
    assert np.all(dense[1, 12:24] == pytest.approx(1.0 / 12))
    assert np.all(dense[1, :12] == 0.0)


def test_id_mask_band_structure():
    ts = ts_hours(2)  # N_ID = 8, lead 30 min -> L = 2
    counts = derive_counts(ts)
    mask = build_id_mask(counts, ts, n_id_lookback=1)
    assert mask.shape == (8, 8)
    assert mask.dtype == bool
    # settling one product takes L slots, so rows 0..L are empty
    for k in range(3):
        assert not mask[k].any()
    for k in range(3, 8):
        cols = np.flatnonzero(mask[k])
        assert cols.tolist() == [k - 3]


def test_id_mask_wider_lookback():
    ts = ts_hours(2)
    counts = derive_counts(ts)
    mask = build_id_mask(counts, ts, n_id_lookback=3)
    # row k sees the min(3, k - 2) most recent settled products
    assert np.flatnonzero(mask[3]).tolist() == [0]
    assert np.flatnonzero(mask[4]).tolist() == [0, 1]
    assert np.flatnonzero(mask[5]).tolist() == [0, 1, 2]
    assert np.flatnonzero(mask[6]).tolist() == [1, 2, 3]
    assert np.flatnonzero(mask[7]).tolist() == [2, 3, 4]


def test_id_mask_zero_lead():
    ts = ts_hours(2, lead=0)
    counts = derive_counts(ts)
    mask = build_id_mask(counts, ts, n_id_lookback=2)
    assert not mask[0].any()
    assert np.flatnonzero(mask[1]).tolist() == [0]
    assert np.flatnonzero(mask[4]).tolist() == [2, 3]


def test_id_mask_zero_lookback_empty():
    ts = ts_hours(2)
    counts = derive_counts(ts)
    assert not build_id_mask(counts, ts, n_id_lookback=0).any()


def test_da_mask_first_day_empty():
    ts = ts_days(1)
    counts = derive_counts(ts)
    for lb in (0, 1, 6, 24):
        mask = build_da_mask(counts, ts, n_da_lookback=lb)
        assert mask.shape == (24, 24)
        assert not mask.any()


def test_da_mask_second_day_window():
    ts = ts_days(2)
    counts = derive_counts(ts)
    mask = build_da_mask(counts, ts, n_da_lookback=4)
    # day-1 rows stay empty
    assert not mask[:24].any()
    # day-2 products are bid at 11:00 of day 1: products 0..10 are settled,
    # of which the 4 most recent fall inside the lookback budget
    for k in range(24, 48):
        assert np.flatnonzero(mask[k]).tolist() == [7, 8, 9, 10]


def test_da_mask_third_day_floor_at_previous_gate():
    ts = ts_days(3)
    counts = derive_counts(ts)
    mask = build_da_mask(counts, ts, n_da_lookback=48)
    # day-3 gate sits at hour 35; a 48 h budget may not reach past the
    # day-2 gate at hour 11, where the previous decision was already fixed
    for k in range(48, 72):
        cols = np.flatnonzero(mask[k])
        assert cols.tolist() == list(range(11, 35))


def test_da_mask_saturates_at_24():
    ts = ts_days(3)
    counts = derive_counts(ts)
    m24 = build_da_mask(counts, ts, n_da_lookback=24)
    m25 = build_da_mask(counts, ts, n_da_lookback=25)
    m99 = build_da_mask(counts, ts, n_da_lookback=99)
    assert np.array_equal(m24, m25)
    assert np.array_equal(m24, m99)


def test_structure_build_and_entries():
    ts = ts_days(2)
    counts = derive_counts(ts)
    structure = PolicyStructure.build(counts, ts, n_da_lookback=2, n_id_lookback=1)
    assert structure.mask_DA.sum() == mask_entries(structure.mask_DA).shape[0]
    entries = mask_entries(structure.mask_ID)
    assert entries.shape[1] == 2
    rebuilt = np.zeros_like(structure.mask_ID)
    rebuilt[entries[:, 0], entries[:, 1]] = True
    assert np.array_equal(rebuilt, structure.mask_ID)


# ---------------------------------------------------------------------------
# affine map consistency


def random_policy(structure, counts, rng, gamma=0.7):
    import scipy.sparse as sp
    q_da = sp.csr_matrix(
        np.where(structure.mask_DA, rng.normal(size=structure.mask_DA.shape), 0.0))
    q_id = sp.csr_matrix(
        np.where(structure.mask_ID, rng.normal(size=structure.mask_ID.shape), 0.0))
    return AffinePolicy(Q_DA=q_da, q_DA=rng.normal(size=counts.N_DA),
                        Q_ID=q_id, q_ID=rng.normal(size=counts.N_ID),
                        gamma=gamma)


def test_two_path_reference_identity():
    """Theta @ w + theta equals the reference built from realized trades."""
    ts = ts_days(2)
    counts = derive_counts(ts)
    structure = PolicyStructure.build(counts, ts, n_da_lookback=3, n_id_lookback=2)
    mats_m = build_M(counts, ts)
    mats_r = build_R(ts, counts)
    a_da, a_id = build_averaging(counts, ts)
    rng = np.random.default_rng(101)
    pol = random_policy(structure, counts, rng)
    theta_mat, theta_vec = reference_affine_map(pol, mats_m, mats_r, a_da, a_id)
    for _ in range(5):
        w_tilde = rng.uniform(-1.0, 1.0, size=counts.N_S)
        e_da, e_id = realized_schedules(pol, w_tilde, a_da, a_id)
        profile = reference_from_baseline(mats_m @ e_da + e_id, mats_r, ts)
        assert np.allclose(theta_mat @ w_tilde + theta_vec, profile.p_ref, atol=1e-12)


def test_realized_schedules_rejects_inadmissible_activation():
    ts = ts_hours(2)
    counts = derive_counts(ts)
    a_da, a_id = build_averaging(counts, ts)
    pol = zero_policy(counts, gamma=1.0)
    with pytest.raises(ValueError):
        realized_schedules(pol, np.full(counts.N_S, 1.5), a_da, a_id)


def test_zero_policy_shapes():
    ts = ts_hours(2)
    counts = derive_counts(ts)
    pol = zero_policy(counts, gamma=2.5)
    assert pol.gamma == 2.5
    assert pol.Q_DA.shape == (counts.N_DA, counts.N_DA)
    assert pol.Q_ID.shape == (counts.N_ID, counts.N_ID)
    assert pol.Q_DA.nnz == 0 and pol.Q_ID.nnz == 0


def test_validate_against_flags_untimely_entries():
    ts = ts_hours(2)
    counts = derive_counts(ts)
    structure = PolicyStructure.build(counts, ts, n_da_lookback=0, n_id_lookback=1)
    pol = zero_policy(counts, gamma=1.0)
    assert pol.validate_against(structure) == []
    bad_q = pol.Q_ID.tolil()
    bad_q[0, 5] = 0.3  # reacts to a product that has not settled yet
    bad = dataclasses.replace(pol, Q_ID=bad_q.tocsr())
    problems = bad.validate_against(structure)
    assert problems and any("Q_ID" in p for p in problems)


def test_negative_gamma_flagged():
    ts = ts_hours(2)
    counts = derive_counts(ts)
    structure = PolicyStructure.build(counts, ts, n_da_lookback=0, n_id_lookback=0)
    bad = dataclasses.replace(zero_policy(counts), gamma=-0.5)
    assert any("gamma" in p for p in bad.validate_against(structure))


def test_nan_gamma_flagged():
    ts = ts_hours(2)
    counts = derive_counts(ts)
    structure = PolicyStructure.build(counts, ts, n_da_lookback=0, n_id_lookback=0)
    bad = dataclasses.replace(zero_policy(counts), gamma=float("nan"))
    assert any("gamma" in p and "NaN" in p for p in bad.validate_against(structure))


# ---------------------------------------------------------------------------
# serialization


def test_policy_round_trip(tmp_path):
    ts = ts_days(2)
    counts = derive_counts(ts)
    structure = PolicyStructure.build(counts, ts, n_da_lookback=5, n_id_lookback=3)
    rng = np.random.default_rng(55)
    pol = random_policy(structure, counts, rng, gamma=3.25)
    path = tmp_path / "policy.txt"
    save_policy(path, pol, meta={"label": "round-trip"})
    loaded, meta = load_policy(path)
    assert meta["label"] == "round-trip"
    assert loaded.gamma == pol.gamma
    assert np.array_equal(loaded.Q_DA.toarray(), pol.Q_DA.toarray())
    assert np.array_equal(loaded.Q_ID.toarray(), pol.Q_ID.toarray())
    assert np.array_equal(loaded.q_DA, pol.q_DA)
    assert np.array_equal(loaded.q_ID, pol.q_ID)


def test_policy_round_trip_empty_matrices(tmp_path):
    ts = ts_hours(2)
    counts = derive_counts(ts)
    pol = zero_policy(counts, gamma=0.0)
    path = tmp_path / "zero.txt"
    save_policy(path, pol)
    loaded, meta = load_policy(path)
    assert meta == {}
    assert loaded.gamma == 0.0
    assert loaded.Q_DA.nnz == 0
    assert np.array_equal(loaded.q_ID, pol.q_ID)
