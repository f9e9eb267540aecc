"""Baseline schedules and the piece-wise affine power reference.

Energy positions are settled on two market grids: day-ahead energies
``e_DA`` (length N_DA, kWh per T_DA slot) and intra-day energies ``e_ID``
(length N_ID, kWh per T_ID slot).  The baseline map M spreads each
day-ahead slot uniformly over the intra-day slots it covers, so

    e_base = M @ e_DA + e_ID            (kWh per T_ID slot).

The power reference is stored as breakpoints on the T_S grid
(``p_ref``, length N_S + 1, kW) and interpolated affinely in between.
Within each intra-day slot the reference holds the plateau value
``e_k / T_ID``; around every interior slot boundary it ramps linearly
from one plateau to the next over a window of width T_RP centred on the
boundary.  For T_RP = 0 the profile degenerates to the discontinuous
piece-wise constant schedule (one plateau per slot, no ramps); such
profiles carry ``piecewise_constant=True`` and are evaluated and
integrated as zero-order holds of the left breakpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .market_time import SECONDS_PER_HOUR, IndexCounts, Timescales


def build_M(counts: IndexCounts, ts: Timescales) -> sp.csr_matrix:
    """Sparse baseline map M of shape (N_ID, N_DA).

    Row k holds the single entry T_ID/T_DA in the column of the day-ahead
    slot that covers intra-day slot k, so column sums are exactly 1 and
    M @ e_DA distributes each day-ahead energy uniformly over its
    intra-day slots.
    """
    n_id, n_da = counts.N_ID, counts.N_DA
    ratio = ts.T_ID / ts.T_DA
    rows = np.arange(n_id)
    # intra-day slot k+1 (1-based) lies inside day-ahead slot ceil((k+1)*T_ID/T_DA)
    cols = (rows * ts.T_ID) // ts.T_DA  # 0-based: floor(start time / T_DA)
    data = np.full(n_id, ratio)
    return sp.csr_matrix((data, (rows, cols)), shape=(n_id, n_da))


def build_R(ts: Timescales, counts: IndexCounts) -> sp.csr_matrix:
    """Sparse reference map R of shape (N_S + 1, N_ID), units 1/h.

    ``p_ref = R @ e_base`` maps slot energies (kWh) to breakpoint powers
    (kW).  Breakpoint s sits at time s*T_S.  A breakpoint strictly inside
    the ramp window of interior boundary j (|t - j*T_ID| < T_RP/2) mixes
    the two adjacent plateaus linearly; every other breakpoint takes the
    plateau value of the slot containing its time (boundaries resolve to
    the slot they start, the final breakpoint to the last slot).  Each row
    sums to 1/T_ID with T_ID in hours.
    """
    n_s, n_id = counts.N_S, counts.N_ID
    t_id_h = ts.T_ID / SECONDS_PER_HOUR
    s = np.arange(n_s + 1)
    t = s * ts.T_S
    jb = np.rint(t / ts.T_ID).astype(int)  # nearest slot boundary index
    off = t - jb * ts.T_ID
    ramp = (jb >= 1) & (jb <= n_id - 1) & (2 * np.abs(off) < ts.T_RP)
    # position within [jb*T_ID - T_RP/2, jb*T_ID + T_RP/2], exact in integer
    # arithmetic (doubled to avoid fractional halves); 0 outside the windows
    theta = np.zeros(n_s + 1)
    theta[ramp] = (2 * off[ramp] + ts.T_RP) / (2 * ts.T_RP)
    # first entry: the left plateau in a window, else the slot containing t
    # (clamped at the end); second entry: the right plateau in a window
    first = np.where(ramp, jb - 1, np.minimum(t // ts.T_ID, n_id - 1))
    out = sp.csr_matrix(
        (np.concatenate([1.0 - theta, theta[ramp]]) / t_id_h,
         (np.concatenate([s, s[ramp]]), np.concatenate([first, jb[ramp]]))),
        shape=(n_s + 1, n_id))
    out.sum_duplicates()
    return out


@dataclass(frozen=True)
class ReferenceProfile:
    """Power reference breakpoints on the T_S grid.

    ``piecewise_constant`` marks profiles produced with T_RP = 0, which are
    evaluated as zero-order holds instead of affine interpolants.
    """

    p_ref: np.ndarray
    piecewise_constant: bool = False


def reference_from_baseline(
    e_base: np.ndarray, R: sp.spmatrix, ts: Timescales
) -> ReferenceProfile:
    """Apply R to slot energies."""
    p = np.asarray(R @ np.asarray(e_base, dtype=float)).ravel()
    return ReferenceProfile(p_ref=p, piecewise_constant=(ts.T_RP == 0))


def energy_content(profile: ReferenceProfile, ts: Timescales) -> np.ndarray:
    """Energy (kWh) delivered by the reference in each T_ID slot.

    Exact trapezoidal integration of the affine interpolant; for
    piece-wise constant profiles the rectangle rule on left breakpoints,
    which reproduces the slot energies exactly.
    """
    p = profile.p_ref
    m = ts.T_ID // ts.T_S
    n_s = p.size - 1
    if n_s % m != 0:
        raise ValueError(f"profile with {n_s} segments does not tile T_ID (m={m})")
    n_id = n_s // m
    t_s_h = ts.T_S / SECONDS_PER_HOUR
    if profile.piecewise_constant:
        return p[:-1].reshape(n_id, m).sum(axis=1) * t_s_h
    seg = 0.5 * (p[:-1] + p[1:]) * t_s_h
    return seg.reshape(n_id, m).sum(axis=1)
