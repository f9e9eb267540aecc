"""Robust counterpart assembly and optimization.

Proves:
  1. Analytic fixed-baseline optima: the maximal symmetric offer is the
     smaller state buffer divided by the horizon length (3.75 kW at 2 h,
     0.3125 kW at 1 day, 0.15625 kW at 2 days for the 15 kWh example).
  2. With intra-day adjustment the optimum obeys the energy-balance
     closed form gamma*T = buffer + (p_max - gamma)*(T - (L+1)*T_ID).
  3. The robust optimum equals exhaustive vertex enumeration on randomized
     small instances, for both objectives, ramp limits, initial-state
     uncertainty, and baseload drift.
  4. Ramp-limited instances hit gamma = r*T_C/2 exactly and the reported
     required ramp satisfies its defining identity.
  5. Monotonicity and scale covariance of the optimum.
  6. Status classification (infeasible, unbounded), decoded policies
     respect their masks, and solver points satisfy every row; a point
     that breaks its rows is reported as not certified.
  7. The flattest-optimum refinement keeps the objective, never steepens
     the reference, reports the worst step it reached, and is emitted as
     the slope family plus an objective floor.
  8. Shape errors and multi-period tenders are rejected.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from flexbid import (
    ObjectiveSpec,
    PolicyStructure,
    PriceData,
    SystemParams,
    Timescales,
    assemble,
    build_market_matrices,
    derive_counts,
    reference_affine_map,
    required_ramp,
    solve,
    vertex_oracle,
)
from flexbid import solvers
from flexbid.robust_lp import EXPECTED_PROFIT, MAX_CAPACITY, _slope_program

MIN = 60
HOUR = 3600
DAY = 86400


def battery(n_s, **kw) -> SystemParams:
    base = dict(p_lo=-5, p_hi=5, x_lo=0, x_hi=15, x0_min=7.5, x0_max=7.5)
    base.update(kw)
    return SystemParams.constant(n_s, **base)


def make(t_h_hours, lead=HOUR, t_c=60, t_rp=10 * MIN, da_lb=0, id_lb=0, **kw):
    ts = Timescales(T_H=int(t_h_hours * HOUR), T_RES=int(t_h_hours * HOUR),
                    T_DA=HOUR, T_ID=15 * MIN, T_S=5 * MIN, T_C=t_c,
                    T_RP=t_rp, T_ID_lead=lead)
    counts = derive_counts(ts)
    params = battery(counts.N_S, **kw)
    structure = PolicyStructure.build(counts, ts, da_lb, id_lb)
    return ts, counts, params, structure


def solve_make(*args, refine=False, objective=None, **kw):
    ts, counts, params, structure = make(*args, **kw)
    prog = assemble(params, ts, structure, objective)
    return solve(prog, refine_ramp=refine), ts, counts


# ---------------------------------------------------------------------------
# analytic anchors


def test_fixed_baseline_two_hours():
    sol, _, _ = solve_make(2)
    assert sol.status == "optimal"
    # buffer/2 per direction: 7.5 kWh headroom over 2 h
    assert sol.gamma == pytest.approx(3.75, abs=1e-8)
    assert sol.stats["max_violation"] <= 1e-7


def test_fixed_baseline_scales_inversely_with_horizon():
    sol1, _, _ = solve_make(24, t_c=5 * MIN)
    sol2, _, _ = solve_make(48, t_c=5 * MIN)
    assert sol1.gamma == pytest.approx(7.5 / 24.0, abs=1e-9)
    assert sol2.gamma == pytest.approx(7.5 / 48.0, abs=1e-9)


def test_adjustable_closed_form_two_hours():
    # immediate intra-day reaction (lead 0, one product of memory):
    # gamma*T = buffer + (p_max - gamma)*(T - T_ID)
    sol, _, _ = solve_make(2, lead=0, id_lb=1)
    want = (7.5 + 5.0 * 1.75) / (2.0 + 1.75)
    assert sol.gamma == pytest.approx(want, abs=1e-7)
    assert sol.gamma > 3.75  # adjustment strictly beats the fixed baseline


def test_adjustable_closed_form_lead_dependence():
    # one slot of lead pushes the first possible reaction out by T_ID
    sol, _, _ = solve_make(2, lead=15 * MIN, id_lb=1)
    want = (7.5 + 5.0 * 1.5) / (2.0 + 1.5)
    assert sol.gamma == pytest.approx(want, abs=1e-7)


def test_known_start_is_recentered_first():
    # a lopsided but known start is moved to the midpoint by the reference,
    # so the optimum matches the symmetric case
    sol, _, _ = solve_make(24, t_c=5 * MIN, x0_min=3.0, x0_max=3.0)
    assert sol.gamma == pytest.approx(7.5 / 24.0, abs=1e-9)


def test_initial_state_uncertainty_shrinks_both_sides():
    # x0 anywhere in [3, 12]: the worst endpoint applies per direction and
    # no reference motion can hedge both at once, leaving 3 kWh each way
    sol, _, _ = solve_make(24, t_c=5 * MIN, x0_min=3.0, x0_max=12.0)
    assert sol.gamma == pytest.approx(3.0 / 24.0, abs=1e-9)


def test_scale_covariance():
    sol1, _, _ = solve_make(2)
    sol2, _, _ = solve_make(2, p_lo=-10, p_hi=10, x_lo=0, x_hi=30,
                            x0_min=15, x0_max=15)
    assert sol2.gamma == pytest.approx(2.0 * sol1.gamma, rel=1e-9)


def test_monotone_in_state_headroom():
    # the known start is recentered, so half the usable band sets the offer
    tight, _, _ = solve_make(24, t_c=5 * MIN, x_hi=12)
    wide, _, _ = solve_make(24, t_c=5 * MIN)
    assert tight.gamma == pytest.approx(6.0 / 24.0, abs=1e-9)
    assert tight.gamma < wide.gamma


def test_monotone_in_lookback():
    gammas = []
    for lb in (0, 1, 2):
        sol, _, _ = solve_make(2, lead=0, id_lb=lb)
        gammas.append(sol.gamma)
    assert gammas[0] < gammas[1] - 1e-9
    assert gammas[1] <= gammas[2] + 1e-9


def test_ramp_limited_optimum():
    # a flat reference leaves the whole ramp budget to the signal swing:
    # 2*gamma/T_C = r  ->  gamma = r*T_C/2
    sol, _, _ = solve_make(2, r_lo=-0.001, r_hi=0.001)
    assert sol.gamma == pytest.approx(0.001 * 60 / 2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# vertex-enumeration equivalence


def tiny_id_instance(rng):
    """Sub-hour horizon, N_S = 8, random bounds/masks, intra-day policy."""
    t_rp = int(rng.choice([0, 5 * MIN, 10 * MIN]))
    lead = int(rng.choice([0, 10 * MIN]))
    ts = Timescales(T_H=40 * MIN, T_RES=40 * MIN, T_DA=40 * MIN, T_ID=10 * MIN,
                    T_S=5 * MIN, T_C=60, T_RP=t_rp, T_ID_lead=lead)
    counts = derive_counts(ts)
    p_bar = float(rng.uniform(2.0, 6.0))
    x_top = float(rng.uniform(1.0, 4.0))
    x0 = float(rng.uniform(0.3 * x_top, 0.7 * x_top))
    dx0 = float(rng.uniform(0.0, 0.05 * x_top))
    r_budget = np.inf if rng.random() < 0.6 else float(rng.uniform(0.005, 0.05))
    params = SystemParams.constant(
        counts.N_S, p_lo=-p_bar, p_hi=p_bar, x_lo=0.0, x_hi=x_top,
        x0_min=max(0.0, x0 - dx0), x0_max=min(x_top, x0 + dx0),
        r_lo=-r_budget, r_hi=r_budget,
        u=float(rng.uniform(-0.2, 0.2)), c=float(rng.choice([1.0, 0.8])))
    structure = PolicyStructure.build(counts, ts,
                                      int(rng.integers(0, 2)), int(rng.integers(0, 3)))
    return params, ts, structure


def tiny_da_instance(rng):
    """Two-day horizon on coarse scales so the day-ahead mask is active."""
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
                                      int(rng.integers(1, 3)), int(rng.integers(0, 2)))
    return params, ts, structure


def test_matches_vertex_enumeration():
    rng = np.random.default_rng(90210)
    checked = 0
    for trial in range(10):
        params, ts, structure = (tiny_id_instance
                                 if trial % 2 == 0 else tiny_da_instance)(rng)
        status_o, value_o, _ = vertex_oracle(params, ts, structure)
        sol = solve(assemble(params, ts, structure))
        assert sol.status == status_o
        if status_o == "optimal":
            checked += 1
            assert sol.objective == pytest.approx(value_o, rel=1e-8, abs=1e-8)
            assert sol.policy.validate_against(structure) == []
    assert checked >= 6


def test_matches_vertex_enumeration_for_profit():
    rng = np.random.default_rng(777)
    counts_cache = {}
    checked = 0
    for trial in range(6):
        params, ts, structure = tiny_id_instance(rng)
        counts = counts_cache.setdefault(ts, derive_counts(ts))
        rho = float(rng.uniform(0.0, 0.4))
        # day-ahead prices must equal the mean intra-day price over the
        # slots they cover, or differential trading is a free ray
        c_id = rng.uniform(0.0, 2.0, size=counts.N_ID)
        per = counts.N_ID // counts.N_DA
        prices = PriceData(
            c_RES=float(rng.uniform(5.0, 15.0)),
            c_DA=c_id.reshape(counts.N_DA, per).mean(axis=1),
            c_ID=c_id,
            c_up=rng.uniform(0.0, 1.0, size=counts.N_ID),
            c_dn=rng.uniform(0.0, 1.0, size=counts.N_ID),
            rho_up=np.full(counts.N_ID, rho),
            rho_dn=np.full(counts.N_ID, rho),
            mu=np.zeros(counts.N_S),
        )
        objective = ObjectiveSpec(kind=EXPECTED_PROFIT, prices=prices)
        status_o, value_o, _ = vertex_oracle(params, ts, structure, objective)
        sol = solve(assemble(params, ts, structure, objective))
        assert sol.status == status_o
        if status_o == "optimal":
            checked += 1
            assert sol.objective == pytest.approx(value_o, rel=1e-8, abs=1e-8)
    assert checked >= 4


# ---------------------------------------------------------------------------
# profit objective economics


def test_profit_reduces_to_capacity_when_energy_is_cheap():
    prices = PriceData(c_RES=10.0, c_DA=np.full(2, 1.0), c_ID=np.full(8, 1.0))
    objective = ObjectiveSpec(kind=EXPECTED_PROFIT, prices=prices)
    sol, _, _ = solve_make(2, objective=objective)
    # capacity pays 10/kW against 1/kWh energy: hold the full buffer
    assert sol.gamma == pytest.approx(3.75, abs=1e-7)
    assert sol.objective == pytest.approx(37.5, abs=1e-6)


def test_profit_sells_buffer_when_energy_is_dear():
    prices = PriceData(c_RES=10.0, c_DA=np.full(2, 6.0), c_ID=np.full(8, 6.0))
    objective = ObjectiveSpec(kind=EXPECTED_PROFIT, prices=prices)
    sol, _, _ = solve_make(2, objective=objective)
    # selling the 7.5 kWh buffer at 6/kWh beats offering capacity
    assert sol.gamma == pytest.approx(0.0, abs=1e-7)
    assert sol.objective == pytest.approx(45.0, abs=1e-6)


def test_profit_duty_factor_revenue():
    n_id = 8
    prices = PriceData(c_RES=0.0, c_up=np.full(n_id, 2.0),
                       rho_up=np.full(n_id, 0.5), rho_dn=np.zeros(n_id),
                       mu=np.full(24, 0.5))
    objective = ObjectiveSpec(kind=EXPECTED_PROFIT, prices=prices)
    sol, _, _ = solve_make(2, objective=objective)
    # up-regulation pays 2/kWh on half duty: 2*0.5*0.25h over 8 slots = 2/kW
    assert sol.gamma == pytest.approx(3.75, abs=1e-7)
    assert sol.objective == pytest.approx(7.5, abs=1e-6)


def test_inconsistent_activation_statistics_rejected():
    prices = PriceData(c_RES=1.0, rho_up=np.full(8, 0.2), rho_dn=np.zeros(8),
                       mu=np.full(24, 0.5))
    objective = ObjectiveSpec(kind=EXPECTED_PROFIT, prices=prices)
    ts, counts, params, structure = make(2)
    with pytest.raises(ValueError, match="inconsistent"):
        assemble(params, ts, structure, objective)


# ---------------------------------------------------------------------------
# statuses and diagnostics


def test_infeasible_when_baseload_overwhelms_power():
    sol, _, _ = solve_make(2, u=10.0)
    assert sol.status == "infeasible"
    assert sol.gamma is None and sol.policy is None


def test_unbounded_without_binding_rows():
    sol, _, _ = solve_make(2, p_hi=np.inf, x_hi=np.inf,
                           x0_min=1.0, x0_max=1.0)
    assert sol.status == "unbounded"


def test_multi_period_tender_rejected():
    ts = Timescales(T_H=2 * HOUR, T_RES=HOUR, T_DA=HOUR, T_ID=15 * MIN,
                    T_S=5 * MIN, T_C=60)
    counts = derive_counts(ts)
    params = battery(counts.N_S)
    structure = PolicyStructure.build(counts, ts, 0, 0)
    with pytest.raises(ValueError, match="tendering"):
        assemble(params, ts, structure)


def test_parameter_shape_problems_reported_together():
    ts, counts, params, structure = make(2)
    bad = dataclasses.replace(params, a=0.7, c=-2.0)
    with pytest.raises(ValueError) as err:
        assemble(bad, ts, structure)
    assert "a must" in str(err.value) and "c must" in str(err.value)


def test_row_tags_and_var_names():
    ts, counts, params, structure = make(2, lead=0, id_lb=1)
    prog = assemble(params, ts, structure)
    tags = {prog.row_tag(j).split("[")[0] for j in range(0, prog.n_rows, 97)}
    assert tags  # spot-checked tags decode without raising
    # upper rows lead, the order HiGHS solves fastest on the day-long studies
    upper = np.array([prog.row_tag(j).split("[")[0].endswith(".hi")
                      for j in range(prog.n_rows)])
    assert 0 < upper.sum() < prog.n_rows
    assert not np.any(upper[1:] & ~upper[:-1])
    names = [prog.var_name(v) for v in (0, prog.layout.gamma, prog.n_vars - 1)]
    assert names[1] == "gamma"


# ---------------------------------------------------------------------------
# required ramp and refinement


def independent_required_ramp(sol, ts) -> float:
    counts = derive_counts(ts)
    mats = build_market_matrices(ts, counts)
    theta_mat, theta_vec = reference_affine_map(
        sol.policy, mats["M"], mats["R"], mats["A_DA"], mats["A_ID"])
    dense = theta_mat.toarray()
    step = np.abs(np.diff(dense, axis=0)).sum(axis=1) + np.abs(np.diff(theta_vec))
    return float(np.max(step) / ts.T_S + 2.0 * sol.gamma / ts.T_C)


def test_required_ramp_identity():
    sol, ts, _ = solve_make(2, lead=0, id_lb=1)
    assert required_ramp(sol) == pytest.approx(independent_required_ramp(sol, ts),
                                               rel=1e-12)


def test_refinement_keeps_objective_and_flattens():
    ts, counts, params, structure = make(2, lead=0, id_lb=1)
    prog = assemble(params, ts, structure)
    rough = solve(prog, refine_ramp=False)
    flat = solve(prog, refine_ramp=True)
    assert flat.stats.get("refined") is True
    assert flat.stats["first_stage_objective"] == rough.objective
    assert flat.objective == pytest.approx(rough.objective, rel=1e-6)
    assert required_ramp(flat) <= required_ramp(rough) + 1e-9
    assert flat.stats["max_violation"] <= 1e-7
    assert flat.stats["certified"] is True
    assert "refine_wall_time" in flat.stats
    # the refinement's t is the worst reference step of the returned policy
    worst = flat.stats["worst_step_kw"] / ts.T_S + 2.0 * flat.gamma / ts.T_C
    assert worst == pytest.approx(required_ramp(flat), rel=1e-9)

    refined, t_col = _slope_program(prog, rough.objective)
    assert t_col == prog.n_vars
    tags = {refined.row_tag(j).split("[")[0] for j in range(prog.n_rows, refined.n_rows)}
    assert tags == {"epi.pos", "epi.neg", "slope.hi", "slope.lo", "objective.floor"}
    assert refined.row_tag(refined.n_rows - 1) == "objective.floor[0]"
    assert refined.A[:prog.n_rows, :prog.n_vars].nnz == prog.A.nnz


def test_uncertified_point_is_flagged(monkeypatch):
    ts, counts, params, structure = make(2)
    prog = assemble(params, ts, structure)
    exact = solvers.BACKENDS["highs"]

    def perturbed(data):
        res = exact(data)
        res.x = res.x + 1e-3
        return res

    monkeypatch.setitem(solvers.BACKENDS, "highs", perturbed)
    sol = solve(prog)
    assert sol.status == "optimal"
    assert sol.stats["max_violation"] > 1e-7
    assert sol.stats["certified"] is False


def test_gamma_matches_objective_for_capacity():
    sol, _, _ = solve_make(2, lead=0, id_lb=2)
    assert sol.objective == pytest.approx(sol.gamma, abs=1e-12)
    assert sol.stats["rows"] == sol.program.n_rows
    assert sol.stats["columns"] == sol.program.n_vars
