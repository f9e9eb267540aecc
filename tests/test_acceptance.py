"""Acceptance gate: nine independently checkable claims, one test each.

Each test prints exactly one pass/fail line under ``pytest -v``.  The
solved fixtures (the three intra-day lead studies solve LPs with a few
thousand rows) are module scoped and shared, so the whole gate runs in
about 50 seconds on two cores, about 40 of them criterion 6's
thousand-signal certificates; everything else takes seconds.

Proves:
  1. The one-day fixed-baseline optimum is the analytic buffer/horizon
     value, 0.3125 kW (6.25 % of rated power), at 1e-4 kW.
  2. Intra-day adjustment with shrinking lead times raises the optimum to
     51.87 / 52.38 / 52.63 % of rated power (each within 0.5 points),
     strictly increasing, each solved within the five-minute budget.
  3. The reported ramp requirement equals the worst reference slope plus
     2*gamma/T_C recomputed independently, and the quarter-hour-lead case
     lands at 105.42 (% of rated power)/s within 0.5.
  4. Fixed-baseline optima scale as (buffer/2)/horizon, exactly, at one
     and two days (seven days behind FLEXBID_EXTENDED).
  5. On 24 randomized tiny instances the robust LP matches exhaustive
     vertex enumeration to 1e-8 relative.
  6. Every optimal solution above survives 1000 admissible activation
     signals at 1e-6 relative tolerance, and fails under sustained
     activation once its reserve capacity is inflated by 1 %.
  7. The reference map conserves energy to 1e-12, applies the
     (1, 10, 1)/12 interior slot weighting, and degenerates to the exact
     piecewise-constant reference without a ramp window.
  8. Discretization coefficients match direct quadrature to 1e-10, are
     continuous through a = 0, the activation envelope holds on a dense
     grid, and the stacked matrices equal the step recursion to 1e-12.
  9. Information structure: with a one-hour intra-day lead the first five
     intra-day rows are structurally zero, first-day day-ahead rows are
     structurally zero, and day-ahead lookbacks of 24 hours or more give
     identical masks.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib

import numpy as np
import pytest
import scipy.integrate

import flexbid
from flexbid import (
    PolicyStructure,
    SystemParams,
    Timescales,
    assemble,
    build_market_matrices,
    build_state_matrices,
    check_feasibility,
    derive_counts,
    discretize,
    epsilon_bound,
    eval_reference,
    gen_signal,
    reference_affine_map,
    reference_from_baseline,
    required_ramp,
    solve,
    vertex_oracle,
)
from flexbid.cli import load_problem

MIN = 60
HOUR = 3600
DAY = 86400
P_RATED = 5.0
CONFIG_DIR = pathlib.Path(flexbid.__file__).parent / "configs"


@dataclasses.dataclass
class Scenario:
    name: str
    params: SystemParams
    ts: Timescales
    structure: PolicyStructure
    sol: object


def solve_config(name: str, refine: bool) -> Scenario:
    prob = load_problem(str(CONFIG_DIR / name))
    sol = solve(assemble(prob.params, prob.ts, prob.structure, prob.objective),
                refine_ramp=refine)
    assert sol.status == "optimal", f"{name}: {sol.status}"
    return Scenario(name=name, params=prob.params, ts=prob.ts,
                    structure=prob.structure, sol=sol)


@pytest.fixture(scope="module")
def one_day_fixed():
    return solve_config("powerwall_1day.cfg", refine=True)


@pytest.fixture(scope="module")
def one_day_fixed_raw():
    # without the flattening pass the optimum is preserved to solver
    # precision, which is what the scaling identity is about
    return solve_config("powerwall_1day.cfg", refine=False)


@pytest.fixture(scope="module")
def lead_1h():
    return solve_config("powerwall_1day_lead1h.cfg", refine=False)


@pytest.fixture(scope="module")
def lead_30min():
    return solve_config("powerwall_1day_lead30min.cfg", refine=False)


@pytest.fixture(scope="module")
def lead_15min():
    # the flattened reference is what the ramp anchor in criterion 3 is
    # about, so this one pays for the second solve
    return solve_config("powerwall_1day_lead15min.cfg", refine=True)


@pytest.fixture(scope="module")
def two_day_fixed():
    return solve_config("powerwall_2day.cfg", refine=False)


# ---------------------------------------------------------------------------
# randomized tiny instances shared by criteria 5 and 6


def tiny_intraday(rng) -> Scenario:
    t_rp = int(rng.choice([0, 5 * MIN, 10 * MIN]))
    lead = int(rng.choice([0, 10 * MIN]))
    ts = Timescales(T_H=40 * MIN, T_RES=40 * MIN, T_DA=40 * MIN, T_ID=10 * MIN,
                    T_S=5 * MIN, T_C=60, T_RP=t_rp, T_ID_lead=lead)
    counts = derive_counts(ts)
    p_bar = float(rng.uniform(2.0, 6.0))
    x_top = float(rng.uniform(1.0, 4.0))
    x0 = float(rng.uniform(0.3 * x_top, 0.7 * x_top))
    dx0 = float(rng.uniform(0.0, 0.05 * x_top))
    params = SystemParams.constant(
        counts.N_S, p_lo=-p_bar, p_hi=p_bar, x_lo=0.0, x_hi=x_top,
        x0_min=max(0.0, x0 - dx0), x0_max=min(x_top, x0 + dx0),
        u=float(rng.uniform(-0.2, 0.2)), c=float(rng.choice([1.0, 0.8])))
    structure = PolicyStructure.build(counts, ts,
                                      int(rng.integers(0, 2)),
                                      int(rng.integers(0, 3)))
    return Scenario("tiny_intraday", params, ts, structure, None)


def tiny_dayahead(rng) -> Scenario:
    ts = Timescales(T_H=2 * DAY, T_RES=2 * DAY, T_DA=12 * HOUR, T_ID=12 * HOUR,
                    T_S=6 * HOUR, T_C=HOUR, T_RP=0,
                    T_ID_lead=int(rng.choice([0, 12 * HOUR])),
                    DA_gate_offset=13 * HOUR)
    counts = derive_counts(ts)
    p_bar = float(rng.uniform(2.0, 5.0))
    x_top = float(rng.uniform(30.0, 60.0))
    params = SystemParams.constant(
        counts.N_S, p_lo=-p_bar, p_hi=p_bar, x_lo=0.0, x_hi=x_top,
        x0_min=x_top / 2, x0_max=x_top / 2,
        u=float(rng.uniform(-0.1, 0.1)))
    structure = PolicyStructure.build(counts, ts,
                                      int(rng.integers(1, 3)),
                                      int(rng.integers(0, 2)))
    return Scenario("tiny_dayahead", params, ts, structure, None)


@dataclasses.dataclass
class TinyCase:
    scenario: Scenario
    oracle_status: str
    oracle_value: float | None


@pytest.fixture(scope="module")
def tiny_cases():
    rng = np.random.default_rng(20260819)
    cases = []
    for i in range(24):
        scn = tiny_intraday(rng) if i % 3 else tiny_dayahead(rng)
        scn.name = f"tiny_{i:02d}"
        scn.sol = solve(assemble(scn.params, scn.ts, scn.structure))
        status, value, _ = vertex_oracle(scn.params, scn.ts, scn.structure)
        cases.append(TinyCase(scenario=scn, oracle_status=status,
                              oracle_value=value))
    return cases


# ---------------------------------------------------------------------------
# criterion 1: fixed-baseline analytic optimum


def test_criterion_01_fixed_baseline_day_optimum(one_day_fixed):
    scn = one_day_fixed
    assert not scn.structure.mask_DA.any()
    assert not scn.structure.mask_ID.any()
    assert abs(scn.sol.gamma - 0.3125) < 1e-4
    assert 100.0 * scn.sol.gamma / P_RATED == pytest.approx(6.25, abs=1e-3)
    assert scn.sol.stats["wall_time"] < 60.0


# ---------------------------------------------------------------------------
# criterion 2: intra-day adjustment study


def test_criterion_02_intraday_adjustment_study(lead_1h, lead_30min, lead_15min):
    expected_pct = {"powerwall_1day_lead1h.cfg": 51.87,
                    "powerwall_1day_lead30min.cfg": 52.38,
                    "powerwall_1day_lead15min.cfg": 52.63}
    gammas = []
    for scn in (lead_1h, lead_30min, lead_15min):
        assert scn.structure.mask_ID.any(), f"{scn.name}: no adjustment allowed"
        pct = 100.0 * scn.sol.gamma / P_RATED
        assert abs(pct - expected_pct[scn.name]) <= 0.5, (
            f"{scn.name}: gamma {pct:.4f} % of rated power")
        first_solve = scn.sol.stats["wall_time"] - scn.sol.stats.get(
            "refine_wall_time", 0.0)
        assert first_solve < 300.0, f"{scn.name}: {first_solve:.0f} s"
        gammas.append(scn.sol.gamma)
    # shorter lead, strictly larger offer
    assert gammas[0] < gammas[1] < gammas[2]


# ---------------------------------------------------------------------------
# criterion 3: ramp identity


def independent_required_ramp(scn: Scenario) -> float:
    mats = build_market_matrices(scn.ts, derive_counts(scn.ts))
    theta_mat, theta_vec = reference_affine_map(
        scn.sol.policy, mats["M"], mats["R"], mats["A_DA"], mats["A_ID"])
    d_mat = np.diff(theta_mat.toarray(), axis=0)
    worst = np.abs(d_mat).sum(axis=1) + np.abs(np.diff(theta_vec))
    return float(worst.max()) / scn.ts.T_S + 2.0 * scn.sol.gamma / scn.ts.T_C


def test_criterion_03_required_ramp_identity(one_day_fixed, lead_1h,
                                             lead_30min, lead_15min,
                                             two_day_fixed):
    for scn in (one_day_fixed, lead_1h, lead_30min, lead_15min, two_day_fixed):
        reported = required_ramp(scn.sol)
        assert reported == pytest.approx(independent_required_ramp(scn),
                                         rel=1e-12, abs=1e-12), scn.name

    # the flattened fixed baseline needs exactly the activation swing
    flat = required_ramp(one_day_fixed.sol)
    assert flat == pytest.approx(
        2.0 * one_day_fixed.sol.gamma / one_day_fixed.ts.T_C, abs=1e-6)

    # quarter-hour lead: reference movement adds measurably to the swing
    sharp = required_ramp(lead_15min.sol)
    assert sharp > 2.0 * lead_15min.sol.gamma / lead_15min.ts.T_C
    pct_per_s = 100.0 * sharp / P_RATED
    assert abs(pct_per_s - 105.42) <= 0.5, f"{pct_per_s:.4f} (% rated)/s"


# ---------------------------------------------------------------------------
# criterion 4: fixed-baseline scaling over multi-day horizons


def test_criterion_04_multiday_fixed_baseline_scaling(one_day_fixed_raw,
                                                      two_day_fixed):
    # (buffer/2) / horizon, at solver precision
    assert one_day_fixed_raw.sol.gamma == pytest.approx(7.5 / 24.0, abs=1e-9)
    assert two_day_fixed.sol.gamma == pytest.approx(7.5 / 48.0, abs=1e-9)
    if os.environ.get("FLEXBID_EXTENDED"):
        week = solve_config("powerwall_7day.cfg", refine=False)
        pct = 100.0 * week.sol.gamma / P_RATED
        assert abs(pct - 0.89) <= 0.02, f"7-day gamma {pct:.4f} % of rated"


# ---------------------------------------------------------------------------
# criterion 5: vertex-oracle equivalence on randomized tiny instances


def test_criterion_05_vertex_oracle_equivalence(tiny_cases):
    assert len(tiny_cases) >= 20
    compared = 0
    for case in tiny_cases:
        scn = case.scenario
        assert scn.sol.status == case.oracle_status, scn.name
        if scn.sol.status != "optimal":
            continue
        scale = max(1.0, abs(case.oracle_value))
        assert abs(scn.sol.objective - case.oracle_value) <= 1e-8 * scale, (
            f"{scn.name}: LP {scn.sol.objective!r} vs "
            f"enumeration {case.oracle_value!r}")
        compared += 1
    assert compared >= 20


# ---------------------------------------------------------------------------
# criterion 6: robustness certificate


def thousand_signals(ts: Timescales):
    yield gen_signal("sustained", ts)
    yield gen_signal("sustained", ts, level=-1.0)
    yield gen_signal("square_wave", ts, period=2 * ts.T_C)
    yield gen_signal("square_wave", ts)
    yield gen_signal("zero", ts)
    for seed in range(995):
        kind = "uniform_random" if seed % 2 == 0 else "clipped_random_walk"
        yield gen_signal(kind, ts, seed=seed)


def certify(scn: Scenario) -> None:
    checked = 0
    for sig in thousand_signals(scn.ts):
        report = check_feasibility(scn.sol.policy, sig, scn.params, scn.ts,
                                   tol=1e-6)
        assert report.feasible, f"{scn.name}:\n{report.format()}"
        checked += 1
    assert checked == 1000

    inflated = dataclasses.replace(scn.sol.policy,
                                   gamma=1.01 * scn.sol.policy.gamma)
    broke = 0
    for level in (1.0, -1.0):
        sig = gen_signal("sustained", scn.ts, level=level)
        report = check_feasibility(inflated, sig, scn.params, scn.ts, tol=1e-6)
        broke += not report.feasible
    assert broke >= 1, f"{scn.name}: inflated capacity survived sustained"


def test_criterion_06_robustness_certificate(one_day_fixed, one_day_fixed_raw,
                                             lead_1h, lead_30min, lead_15min,
                                             two_day_fixed, tiny_cases):
    scenarios = [one_day_fixed, one_day_fixed_raw, lead_1h, lead_30min,
                 lead_15min, two_day_fixed]
    scenarios += [case.scenario for case in tiny_cases
                  if case.scenario.sol.status == "optimal"]
    for scn in scenarios:
        certify(scn)


# ---------------------------------------------------------------------------
# criterion 7: reference-mapping properties


def test_criterion_07_reference_mapping_properties():
    ts = Timescales(T_H=DAY, T_RES=DAY, T_DA=HOUR, T_ID=15 * MIN, T_S=5 * MIN,
                    T_C=1, T_RP=10 * MIN, T_ID_lead=HOUR)
    counts = derive_counts(ts)
    mats = build_market_matrices(ts, counts)
    rng = np.random.default_rng(20260819 + 7)
    for _ in range(100):
        e_base = rng.uniform(-1.25, 1.25, counts.N_ID)
        profile = reference_from_baseline(e_base, mats["R"], ts)
        assert abs(profile.e_ref.sum() - e_base.sum()) <= 1e-12
        interior = (e_base[:-2] + 10.0 * e_base[1:-1] + e_base[2:]) / 12.0
        assert np.max(np.abs(profile.e_ref[1:-1] - interior)) <= 1e-12

    # no ramp window: the piecewise-constant reference is reproduced exactly
    ts0 = dataclasses.replace(ts, T_RP=0)
    mats0 = build_market_matrices(ts0, derive_counts(ts0))
    e_base = rng.uniform(-1.25, 1.25, counts.N_ID)
    profile = reference_from_baseline(e_base, mats0["R"], ts0)
    assert profile.piecewise_constant
    plateaus = e_base / (ts0.T_ID / 3600.0)
    held = np.repeat(plateaus, ts0.T_ID // ts0.T_S)
    assert np.array_equal(profile.p_ref, np.append(held, held[-1]))
    for k in (0, 3, 41, counts.N_ID - 1):
        t_mid = (k + 0.5) * ts0.T_ID
        assert eval_reference(profile, t_mid, ts0) == plateaus[k]
    assert np.max(np.abs(profile.e_ref - e_base)) <= 1e-15


# ---------------------------------------------------------------------------
# criterion 8: dynamics verification


def test_criterion_08_dynamics_verification():
    b, c = 0.9, 1.1
    for a in (0.0, -1e-6, -1e-2, -0.5, -3.0):
        for t in (1.0 / 60, 1.0 / 12, 0.25, 1.0):
            f, g, h1, h2 = discretize(a, b, c, t)
            assert f == pytest.approx(np.exp(a * t), rel=1e-12)
            g_int, _ = scipy.integrate.quad(lambda u: np.exp(a * (t - u)), 0, t)
            h1_int, _ = scipy.integrate.quad(
                lambda u: np.exp(a * (t - u)) * (1 - u / t), 0, t)
            h2_int, _ = scipy.integrate.quad(
                lambda u: np.exp(a * (t - u)) * (u / t), 0, t)
            assert g == pytest.approx(b * g_int, abs=1e-10)
            assert h1 == pytest.approx(c * h1_int, abs=1e-10)
            assert h2 == pytest.approx(c * h2_int, abs=1e-10)

    # continuity through a = 0 at the perturbation scale |a * T_S| = 1e-6:
    # every coefficient moves by O(|a * T_S|), no jump at the series switch
    t = 1.0 / 12
    base = np.array(discretize(0.0, b, c, t))
    for sign in (1.0, -1.0):
        near = np.array(discretize(sign * 1e-6 / t, b, c, t))
        assert np.all(np.abs(near - base)
                      <= 1.1e-6 * np.maximum(1.0, np.abs(base)))

    # activation envelope on a dense grid within each settlement interval
    for a in (0.0, -1e-4, -0.3, -5.0):
        eps, e_hat = epsilon_bound(a, t)
        tau = np.linspace(0.0, t, 4001)
        assert np.all(np.abs(np.exp(a * tau) - e_hat) <= eps + 1e-15)

    # stacked matrices against the step recursion
    rng = np.random.default_rng(20260819 + 8)
    for a in (0.0, -0.6):
        n = 9
        dd = build_state_matrices(a, 1.2, 0.8, t, n)
        x0 = rng.normal()
        u = rng.normal(size=n)
        p = rng.normal(size=n + 1)
        v = rng.normal(size=n)
        x_expected = np.empty(n)
        x_cur = x0
        for s in range(n):
            x_cur = dd.f * x_cur + dd.g * u[s] + dd.h1 * p[s] \
                + dd.h2 * p[s + 1] + v[s]
            x_expected[s] = x_cur
        stacked = dd.F * x0 + dd.G @ u + dd.H @ p + dd.K @ v
        assert np.max(np.abs(stacked - x_expected)) <= 1e-12


# ---------------------------------------------------------------------------
# criterion 9: information structure


def test_criterion_09_information_structure(lead_1h):
    # a one-hour lead covers the first four slots plus the one in flight,
    # so the first five intra-day rows can never adjust
    mask_id = lead_1h.structure.mask_ID
    assert not mask_id[:5].any()
    assert mask_id[5:].any()
    assert lead_1h.sol.policy.Q_ID[:5].nnz == 0

    # first-day day-ahead rows clear before any activation is known
    ts2 = Timescales(T_H=2 * DAY, T_RES=2 * DAY, T_DA=HOUR, T_ID=15 * MIN,
                     T_S=5 * MIN, T_C=1, T_RP=10 * MIN, T_ID_lead=HOUR)
    counts2 = derive_counts(ts2)
    st2 = PolicyStructure.build(counts2, ts2, 24, 0)
    assert not st2.mask_DA[:24].any()
    assert st2.mask_DA[24:].any()

    # lookbacks of a day or more saturate to the same mask
    ts3 = dataclasses.replace(ts2, T_H=3 * DAY, T_RES=3 * DAY)
    counts3 = derive_counts(ts3)
    masks = {lb: PolicyStructure.build(counts3, ts3, lb, 0).mask_DA
             for lb in (23, 24, 25, 99)}
    assert np.array_equal(masks[24], masks[25])
    assert np.array_equal(masks[24], masks[99])
    assert not np.array_equal(masks[23], masks[24])
