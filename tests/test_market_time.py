"""Timescale chain validation and interval counting.

Proves:
  1. The Swiss-style reference chains produce the expected interval counts.
  2. validate_timescales catches each class of violation separately
     (ordering, divisibility, T_RP and T_ID_lead side conditions, gate
     offset range, non-integer fields).
  3. Randomized admissible chains always validate cleanly and the derived
     counts satisfy the nesting identities.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from flexbid import IndexCounts, Timescales, derive_counts, validate_timescales

MIN = 60
HOUR = 3600
DAY = 86400


def swiss(days: int = 1, **kw) -> Timescales:
    base = dict(T_H=days * DAY, T_RES=days * DAY, T_DA=HOUR, T_ID=15 * MIN,
                T_S=5 * MIN, T_C=1, T_RP=10 * MIN, T_ID_lead=HOUR)
    base.update(kw)
    return Timescales(**base)


def test_swiss_one_day_counts():
    counts = derive_counts(swiss())
    assert counts == IndexCounts(N_RES=1, N_DA=24, N_ID=96, N_S=288, N_C=86400)


def test_swiss_one_week_counts():
    counts = derive_counts(swiss(days=7))
    assert counts == IndexCounts(N_RES=1, N_DA=168, N_ID=672, N_S=2016, N_C=604800)


def test_chain_accessor_order():
    ts = swiss()
    assert ts.chain() == (DAY, DAY, HOUR, 15 * MIN, 5 * MIN, 1)


def test_valid_chain_has_no_problems():
    assert validate_timescales(swiss()) == []
    assert validate_timescales(swiss(days=2, T_RES=DAY)) == []


def test_ordering_violation_detected():
    ts = swiss(T_DA=10 * MIN)  # shorter than T_ID
    problems = validate_timescales(ts)
    assert any("T_DA" in p and "T_ID" in p for p in problems)
    with pytest.raises(ValueError):
        derive_counts(ts)


def test_divisibility_violation_detected():
    # 7 min settlement does not divide the 15 min product
    ts = swiss(T_S=7 * MIN, T_RP=0)
    problems = validate_timescales(ts)
    assert any("multiple" in p for p in problems)


def test_every_failing_pair_is_reported():
    # 50 min divides neither 2 h nor 24 h: both pairs must show up
    ts = Timescales(T_H=DAY, T_RES=DAY, T_DA=2 * HOUR, T_ID=50 * MIN,
                    T_S=10 * MIN, T_C=60)
    problems = validate_timescales(ts)
    assert any("T_DA" in p and "T_ID" in p for p in problems)
    assert any("T_H" in p and "T_ID" in p for p in problems)


def test_ramp_window_side_conditions():
    assert any("T_RP" in p for p in validate_timescales(swiss(T_RP=20 * MIN)))
    assert any("T_RP" in p for p in validate_timescales(swiss(T_RP=7 * MIN)))
    assert any("T_RP" in p for p in validate_timescales(swiss(T_RP=-300)))
    assert validate_timescales(swiss(T_RP=0)) == []
    assert validate_timescales(swiss(T_RP=15 * MIN)) == []


def test_lead_time_side_conditions():
    assert any("T_ID_lead" in p for p in validate_timescales(swiss(T_ID_lead=10 * MIN)))
    assert validate_timescales(swiss(T_ID_lead=0)) == []
    assert validate_timescales(swiss(T_ID_lead=45 * MIN)) == []


def test_gate_offset_range():
    assert any("DA_gate_offset" in p for p in validate_timescales(swiss(DA_gate_offset=DAY)))
    assert any("DA_gate_offset" in p for p in validate_timescales(swiss(DA_gate_offset=-1)))
    assert validate_timescales(swiss(DA_gate_offset=0)) == []


def test_non_integer_duration_rejected():
    ts = swiss(T_S=300.0)  # float, even though integral-valued
    problems = validate_timescales(ts)
    assert any("integer" in p for p in problems)


def test_nonpositive_duration_rejected():
    assert any("positive" in p for p in validate_timescales(swiss(T_C=0)))


def test_random_admissible_chains():
    rng = np.random.default_rng(20240817)
    for _ in range(50):
        # build the chain bottom-up by stacking random integer factors
        t_c = int(rng.integers(1, 5))
        factors = rng.integers(1, 5, size=5)
        chain = [t_c]
        for f in factors:
            chain.append(chain[-1] * int(f))
        t_c, t_s, t_id, t_da, t_res, t_h = chain
        n_rp = int(rng.integers(0, t_id // t_s + 1))
        lead = int(rng.integers(0, 4)) * t_id
        ts = Timescales(T_H=t_h, T_RES=t_res, T_DA=t_da, T_ID=t_id,
                        T_S=t_s, T_C=t_c, T_RP=n_rp * t_s, T_ID_lead=lead)
        assert validate_timescales(ts) == []
        counts = derive_counts(ts)
        assert counts.N_S * t_s == t_h
        assert counts.N_C == counts.N_S * (t_s // t_c)
        assert counts.N_ID % counts.N_DA == 0
        assert counts.N_DA % counts.N_RES == 0


def test_timescales_frozen():
    ts = swiss()
    with pytest.raises(dataclasses.FrozenInstanceError):
        ts.T_H = 2 * DAY
