"""Affinely adjustable trading policies and their information structure.

Energy positions react affinely to the averaged activation signal
``w_tilde`` (length N_S, entries in [-1, 1]):

    e_DA(w) = Q_DA @ (A_DA @ w_tilde) + q_DA
    e_ID(w) = Q_ID @ (A_ID @ w_tilde) + q_ID

where A_DA / A_ID re-average the T_S-averaged signal onto the day-ahead
and intra-day grids.  Boolean masks restrict which past averages each
trading decision may condition on: an intra-day trade for slot k must be
placed T_ID_lead before delivery and may see the N_ID_lb most recent
fully-observed slot averages; a day-ahead trade for delivery day d is
fixed at the auction gate on day d-1 and may see the N_DA_lb most recent
day-ahead-grid averages observed before that gate (nothing on day 1).

The reserve capacity gamma (kW, >= 0) is a single symmetric band over the
whole horizon.  Feeding the adjusted positions through the baseline and
reference maps gives the affine reference

    p_ref(w_tilde) = Theta @ w_tilde + theta,
    Theta = R (M Q_DA A_DA + Q_ID A_ID),   theta = R (M q_DA + q_ID).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .market_time import SECONDS_PER_DAY, IndexCounts, Timescales


def build_averaging(counts: IndexCounts, ts: Timescales) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Block-diagonal averaging maps (A_DA, A_ID) from the T_S grid.

    A_ID has shape (N_ID, N_S) with T_ID/T_S entries of T_S/T_ID per row;
    A_DA analogously on the day-ahead grid.  Rows sum to 1 exactly.
    """

    def block_average(n_coarse: int, n_fine: int) -> sp.csr_matrix:
        per = n_fine // n_coarse
        rows = np.repeat(np.arange(n_coarse), per)
        cols = np.arange(n_fine)
        data = np.full(n_fine, 1.0 / per)
        return sp.csr_matrix((data, (rows, cols)), shape=(n_coarse, n_fine))

    return block_average(counts.N_DA, counts.N_S), block_average(counts.N_ID, counts.N_S)


def build_id_mask(counts: IndexCounts, ts: Timescales, n_id_lookback: int) -> np.ndarray:
    """Boolean (N_ID, N_ID) mask of admissible intra-day dependencies.

    The trade for slot k closes T_ID_lead before delivery; with
    L = T_ID_lead/T_ID the last fully-observed slot average is k - L - 1,
    so row k allows columns i with k - L - n_lb <= i <= k - L - 1
    (1-based, clipped at the horizon start).
    """
    if n_id_lookback < 0:
        raise ValueError(f"N_ID_lb must be >= 0, got {n_id_lookback}")
    n = counts.N_ID
    lead_slots = ts.T_ID_lead // ts.T_ID
    mask = np.zeros((n, n), dtype=bool)
    if n_id_lookback == 0:
        return mask
    k = np.arange(1, n + 1)[:, None]
    i = np.arange(1, n + 1)[None, :]
    upper = k - lead_slots - 1
    lower = upper - n_id_lookback + 1
    return (i >= lower) & (i <= upper)


def build_da_mask(counts: IndexCounts, ts: Timescales, n_da_lookback: int) -> np.ndarray:
    """Boolean (N_DA, N_DA) mask of admissible day-ahead dependencies.

    Slots of delivery day 1 are committed before any activation is
    observed (all-false rows).  For day d >= 2 the auction closes at
    DA_gate_offset on day d-1; with g_d the last day-ahead slot average
    fully observed before that gate, rows of day d allow columns in
    (g_d - N_DA_lb, g_d], capped below at the previous gate g_{d-1} so a
    decision conditions only on averages observed since the preceding
    auction.  With hourly slots and the default gate this makes every
    lookback >= 24 equivalent.
    """
    if n_da_lookback < 0:
        raise ValueError(f"N_DA_lb must be >= 0, got {n_da_lookback}")
    n = counts.N_DA
    mask = np.zeros((n, n), dtype=bool)
    if n_da_lookback == 0:
        return mask
    for row in range(n):  # 0-based slot
        day = (row * ts.T_DA) // SECONDS_PER_DAY + 1
        if day < 2:
            continue
        gate_time = (day - 2) * SECONDS_PER_DAY + ts.DA_gate_offset
        g = gate_time // ts.T_DA  # number of fully observed slot averages
        g_prev = max(0, (gate_time - SECONDS_PER_DAY) // ts.T_DA)
        first = max(0, g - n_da_lookback, g_prev)
        mask[row, first:g] = True
    return mask


@dataclass(frozen=True)
class PolicyStructure:
    """The materialized dependency masks."""

    mask_DA: np.ndarray
    mask_ID: np.ndarray

    @classmethod
    def build(
        cls, counts: IndexCounts, ts: Timescales, n_da_lookback: int, n_id_lookback: int
    ) -> "PolicyStructure":
        return cls(
            mask_DA=build_da_mask(counts, ts, n_da_lookback),
            mask_ID=build_id_mask(counts, ts, n_id_lookback),
        )


def mask_entries(mask: np.ndarray) -> np.ndarray:
    """(n, 2) array of true positions in row-major scan order (0-based)."""
    return np.argwhere(mask)


@dataclass
class AffinePolicy:
    """Concrete policy coefficients; Q matrices sparse, gamma in kW."""

    Q_DA: sp.csr_matrix
    q_DA: np.ndarray
    Q_ID: sp.csr_matrix
    q_ID: np.ndarray
    gamma: float

    def validate_against(self, structure: PolicyStructure) -> list[str]:
        problems = []
        # written so that a NaN gamma fails it
        if not self.gamma >= 0:
            problems.append(f"gamma must be >= 0 and not NaN, got {self.gamma}")
        for name, Q, mask in (
            ("Q_DA", self.Q_DA, structure.mask_DA),
            ("Q_ID", self.Q_ID, structure.mask_ID),
        ):
            if Q.shape != mask.shape:
                problems.append(f"{name} has shape {Q.shape}, mask {mask.shape}")
                continue
            coo = Q.tocoo()
            bad = ~mask[coo.row, coo.col] & (coo.data != 0.0)
            if np.any(bad):
                where = list(zip(coo.row[bad][:5] + 1, coo.col[bad][:5] + 1))
                problems.append(f"{name} has entries outside its mask at (row, col) {where}")
        return problems


def zero_policy(counts: IndexCounts, gamma: float = 0.0) -> AffinePolicy:
    return AffinePolicy(
        Q_DA=sp.csr_matrix((counts.N_DA, counts.N_DA)),
        q_DA=np.zeros(counts.N_DA),
        Q_ID=sp.csr_matrix((counts.N_ID, counts.N_ID)),
        q_ID=np.zeros(counts.N_ID),
        gamma=gamma,
    )


def realized_schedules(
    pol: AffinePolicy, w_tilde: np.ndarray, A_DA: sp.spmatrix, A_ID: sp.spmatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Energy positions (e_DA, e_ID) realized under a concrete w_tilde."""
    w_tilde = np.asarray(w_tilde, dtype=float)
    if np.any(np.abs(w_tilde) > 1.0 + 1e-9):
        raise ValueError("w_tilde entries must lie in [-1, 1]")
    e_da = pol.Q_DA @ (A_DA @ w_tilde) + pol.q_DA
    e_id = pol.Q_ID @ (A_ID @ w_tilde) + pol.q_ID
    return np.asarray(e_da).ravel(), np.asarray(e_id).ravel()


def reference_affine_map(
    pol: AffinePolicy,
    M: sp.spmatrix,
    R: sp.spmatrix,
    A_DA: sp.spmatrix,
    A_ID: sp.spmatrix,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Materialize (Theta, theta) for a concrete policy."""
    theta_mat = (R @ (M @ pol.Q_DA @ A_DA + pol.Q_ID @ A_ID)).tocsr()
    theta_vec = np.asarray(R @ (M @ pol.q_DA + pol.q_ID)).ravel()
    return theta_mat, theta_vec


# ---------------------------------------------------------------------------
# structured-text serialization
#
# A policy file is line oriented: '#' comments, 'key = value' metadata,
# section headers in brackets.  Matrix sections list one 'row col value'
# triple per nonzero (1-based indices, row-major order); vector sections
# list one value per line.

def save_policy(path, pol: AffinePolicy, meta: dict | None = None) -> None:
    lines = ["# flexbid policy v1"]
    for key, value in (meta or {}).items():
        lines.append(f"{key} = {value}")
    lines.append(f"gamma = {float(pol.gamma)!r}")
    lines.append(f"shape_DA = {pol.Q_DA.shape[0]}")
    lines.append(f"shape_ID = {pol.Q_ID.shape[0]}")
    for name, Q in (("Q_DA", pol.Q_DA), ("Q_ID", pol.Q_ID)):
        lines.append(f"[{name}]")
        coo = Q.tocoo()
        order = np.lexsort((coo.col, coo.row))
        for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            lines.append(f"{r + 1} {c + 1} {float(v)!r}")
    for name, vec in (("q_DA", pol.q_DA), ("q_ID", pol.q_ID)):
        lines.append(f"[{name}]")
        lines.extend(f"{float(v)!r}" for v in vec)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def load_policy(path) -> tuple[AffinePolicy, dict]:
    meta: dict[str, str] = {}
    section = None
    triples: dict[str, list[tuple[int, int, float]]] = {"Q_DA": [], "Q_ID": []}
    vectors: dict[str, list[float]] = {"q_DA": [], "q_ID": []}
    with open(path) as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1]
                if section not in ("Q_DA", "Q_ID", "q_DA", "q_ID"):
                    raise ValueError(f"unknown policy section [{section}]")
                continue
            if section is None:
                key, _, value = line.partition("=")
                meta[key.strip()] = value.strip()
            elif section in triples:
                r, c, v = line.split()
                triples[section].append((int(r) - 1, int(c) - 1, float(v)))
            else:
                vectors[section].append(float(line))
    n_da = int(meta.pop("shape_DA"))
    n_id = int(meta.pop("shape_ID"))
    gamma = float(meta.pop("gamma"))

    def to_csr(entries, n):
        if entries:
            r, c, v = zip(*entries)
            return sp.csr_matrix((v, (r, c)), shape=(n, n))
        return sp.csr_matrix((n, n))

    pol = AffinePolicy(
        Q_DA=to_csr(triples["Q_DA"], n_da),
        q_DA=np.array(vectors["q_DA"], dtype=float),
        Q_ID=to_csr(triples["Q_ID"], n_id),
        q_ID=np.array(vectors["q_ID"], dtype=float),
        gamma=gamma,
    )
    if pol.q_DA.size != n_da or pol.q_ID.size != n_id:
        raise ValueError("policy vectors do not match the declared shapes")
    return pol, meta
