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
  9. Each distinct absolute-value block gets exactly one epigraph column,
     in the first stage and across it and the ramp refinement, and every
     such column enters a family row; ``solve`` reports the nonzero,
     state-column and epigraph-column counts.
 10. The nominal state columns solve to the condensed map H @ p of the
     decoded policy's nominal reference, ramped, held, lossy with a
     baseload, with an uncertain start and adjustable (and over seven days
     behind FLEXBID_EXTENDED); the returned point carries that map itself.
 11. The absolute-value blocks that assembly builds by running the step
     map down Theta's columns, times their decay weights f^(krow-1-i),
     equal the condensed products H @ Theta (state rows) and (H shifted
     one interval + envelope slope) @ Theta (envelope rows), lossless and
     lossy, ramped and held.
 12. The gamma coefficient of a fixed-reference state row is the
     carry-over sum c*T_S*sum_{j<s} f^j to 1e-13 relative, also for f
     within 1e-10 of 1.
 13. Each Q entry's columns of the Theta symbol are the Theta of the unit
     policy on that entry, over two days with day-ahead and intra-day
     adjustment, ramped and held.
 14. Lossless programs keep an env_b row only where its block of the
     interval's own activation holds a policy term: no shipped or
     benchmark config has one, a lead-0 program keeps exactly those rows,
     first-stage optima match the values recorded with every env_b row in
     place to 1e-12.
 15. Lossy programs store each block per unit of its decay weight: their
     first-stage optima match the values recorded when every f-scaled copy
     of a block had its own epigraph column to 1e-12, their epigraph
     column count does not depend on a < 0 and is well below that of the
     per-copy columns, and the lossy one-day lead-time study solves in
     seconds, certified, passes the simulator's signals and fails under
     sustained activation at 1.01 gamma (30 and 15 min leads behind
     FLEXBID_EXTENDED).
"""

from __future__ import annotations

import dataclasses
import logging
import os
import pathlib
import re

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp

import flexbid
from flexbid import (
    ObjectiveSpec,
    PolicyStructure,
    PriceData,
    SystemParams,
    Timescales,
    assemble,
    build_market_matrices,
    check_feasibility,
    derive_counts,
    gen_signal,
    reference_affine_map,
    required_ramp,
    solve,
)
from flexbid import robust_lp, solvers
from flexbid.cli import load_problem
from flexbid.robust_lp import EXPECTED_PROFIT, MAX_CAPACITY, _slope_program
from reference import build_state_matrices, vertex_oracle

MIN = 60
HOUR = 3600
DAY = 86400
CONFIG_DIR = pathlib.Path(flexbid.__file__).parent / "configs"
BENCH_CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "configs"


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

    # one dyn.hi and one dyn.lo row per interval: z_s - f*z_{s-1} - (step
    # of the nominal reference) = 0, the lower row the upper one negated
    z = prog.state_columns
    assert len(z) == counts.N_S and z.start == prog.layout.n_policy
    assert [prog.var_name(v) for v in (z.start, z.stop - 1, z.stop)] == [
        "z[1]", f"z[{counts.N_S}]", "aux[1]"]
    all_tags = [prog.row_tag(j) for j in range(prog.n_rows)]
    for kind in ("dyn.hi", "dyn.lo"):
        assert [t for t in all_tags if t.startswith(kind + "[")] == [
            f"{kind}[{s}]" for s in range(1, counts.N_S + 1)]
    hi = all_tags.index("dyn.hi[2]")
    lo = all_tags.index("dyn.lo[2]")
    assert upper[hi] and not upper[lo]
    assert prog.rhs[hi] == prog.rhs[lo] == 0.0
    assert (prog.A[hi] + prog.A[lo]).count_nonzero() == 0
    assert prog.A[hi, z.start + 1] == 1.0
    assert prog.A[hi, z.start] == -prog.dd.f
    assert prog.A[hi][:, z.start + 2:].nnz == 0


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
    exact = solvers.solve_lp

    def perturbed(data):
        res = exact(data)
        res.x = res.x + 1e-3
        return res

    monkeypatch.setattr(solvers, "solve_lp", perturbed)
    sol = solve(prog)
    assert sol.status == "optimal"
    assert sol.stats["max_violation"] > 1e-7
    assert sol.stats["certified"] is False


def test_gamma_matches_objective_for_capacity():
    sol, _, _ = solve_make(2, lead=0, id_lb=2)
    prog = sol.program
    assert sol.objective == pytest.approx(sol.gamma, abs=1e-12)
    assert sol.stats["rows"] == prog.n_rows
    assert sol.stats["columns"] == prog.n_vars
    assert sol.stats["nonzeros"] == prog.A.nnz
    assert sol.stats["state_columns"] == prog.counts.N_S
    assert sol.stats["epigraph_columns"] == (
        prog.n_vars - prog.layout.n_policy - prog.counts.N_S) > 0


# ---------------------------------------------------------------------------
# epigraph sharing


def test_each_distinct_absolute_value_block_has_one_epigraph_column(caplog):
    ts, counts, params, structure = make(4, id_lb=1)
    with caplog.at_level(logging.INFO, logger="flexbid.robust_lp"):
        prog = assemble(params, ts, structure)
    # the refinement's slope blocks look up the first stage's columns too,
    # so no two columns bound the same block across both stages
    refined, t_col = _slope_program(prog, 0.0)
    n_policy = prog.layout.n_policy
    for program, skip in ((prog, None), (refined, t_col)):
        lam_cols = [v for v in range(n_policy, program.n_vars)
                    if v not in program.state_columns and v != skip]
        A = program.A.tocsr()
        kinds = np.array([program.row_tag(j).split("[")[0] for j in range(program.n_rows)])

        # one epigraph pair per column: -lam + (policy terms + g*gamma) <= 0
        signature_of = {}
        for j in np.flatnonzero(kinds == "epi.pos"):
            row = A.getrow(j)
            aux = row.indices >= n_policy
            assert aux.sum() == 1 and row.data[aux][0] == -1.0
            lam = int(row.indices[aux][0])
            order = np.argsort(row.indices[~aux])
            signature = (row.indices[~aux][order].tobytes(), row.data[~aux][order].tobytes())
            assert lam not in signature_of
            signature_of[lam] = signature
        assert sorted(signature_of) == lam_cols
        # no two columns bound the same block
        assert len(set(signature_of.values())) == len(signature_of)
        # every column enters some family row
        family = ~np.char.startswith(kinds, "epi.")
        assert np.all(A[family][:, lam_cols].getnnz(axis=0) > 0)

    blocks, columns = map(int, re.search(
        r"(\d+) absolute-value blocks share (\d+) epigraph columns", caplog.text).groups())
    assert columns == prog.n_vars - prog.state_columns.stop < blocks


# ---------------------------------------------------------------------------
# nominal state columns


def config_program(name, **ts_changes):
    prob = load_problem(str(CONFIG_DIR / name))
    ts = dataclasses.replace(prob.ts, **ts_changes)
    return assemble(prob.params, ts, prob.structure, prob.objective)


def made_program(*args, **kw):
    ts, _, params, structure = make(*args, **kw)
    return assemble(params, ts, structure)


EXACTNESS_CASES = [
    pytest.param(lambda: config_program("powerwall_1day.cfg"), 7.5 / 24.0, id="1day"),
    pytest.param(lambda: config_program("powerwall_1day.cfg", T_RP=0), 7.5 / 24.0,
                 id="1day_held"),
    pytest.param(lambda: config_program("powerwall_2day.cfg"), 7.5 / 48.0, id="2day"),
    pytest.param(lambda: made_program(4, id_lb=1, a=-0.02, b=0.7, u=0.3), None,
                 id="lossy_baseload"),
    pytest.param(lambda: made_program(24, t_c=5 * MIN, x0_min=3.0, x0_max=12.0), 3.0 / 24.0,
                 id="uncertain_x0"),
    pytest.param(lambda: made_program(4, id_lb=1), None, id="lead1h"),
]
if os.environ.get("FLEXBID_EXTENDED"):
    EXACTNESS_CASES.append(
        pytest.param(lambda: config_program("powerwall_7day.cfg"), None, id="7day"))


@pytest.mark.parametrize("build, gamma", EXACTNESS_CASES)
def test_state_columns_equal_the_condensed_map(build, gamma):
    prog = build()
    sol = solve(prog)
    assert sol.status == "optimal" and sol.stats["certified"]
    if gamma is not None:
        assert sol.gamma == pytest.approx(gamma, abs=1e-9)
    H = build_state_matrices(prog.params.a, prog.params.b, prog.params.c, prog.dd.t_step,
                             prog.counts.N_S, hold=prog.ts.T_RP == 0).H
    mats = build_market_matrices(prog.ts, prog.counts)
    _, nominal = reference_affine_map(sol.policy, mats["M"], mats["R"],
                                      mats["A_DA"], mats["A_ID"])
    want = H @ nominal
    scale = max(1.0, np.max(np.abs(want)))
    # the returned point carries the condensed states of its policy ...
    assert np.max(np.abs(sol.x[prog.state_columns] - want)) <= 1e-12 * scale
    # ... and the solver's own state columns follow them through the step map
    raw = solvers.solve_lp(prog.as_lp_data())
    policy = prog.decode_policy(raw.x)
    _, nominal = reference_affine_map(policy, mats["M"], mats["R"], mats["A_DA"], mats["A_ID"])
    got = raw.x[prog.state_columns]
    want = H @ nominal
    assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("t_rp", [10 * MIN, 0], ids=["interpolated", "held"])
@pytest.mark.parametrize("a", [0.0, -0.02])
def test_state_blocks_equal_the_condensed_map(monkeypatch, a, t_rp):
    seen = {}
    emit = robust_lp._emit_family

    def record(acc, **kw):
        seen[kw["name"]] = kw["blocks"], kw["krow"]
        emit(acc, **kw)

    monkeypatch.setattr(robust_lp, "_emit_family", record)
    ts, counts, params, structure = make(4, id_lb=1, t_rp=t_rp, a=a)
    prog = assemble(params, ts, structure)

    n_s = counts.N_S
    H = build_state_matrices(a, params.b, params.c, prog.dd.t_step, n_s, hold=t_rp == 0).H
    h_prev = sp.vstack([sp.csr_matrix((1, n_s + 1)), H[:-1]])
    e_prev = sp.eye(n_s, n_s + 1)
    e_end = e_prev if t_rp == 0 else sp.eye(n_s, n_s + 1, k=1)
    half = 0.5 * params.c * prog.dd.t_step
    want = {
        "state": H,
        "env_a": h_prev + half * e_prev,
        "env_b": h_prev + half * (e_prev + e_end),
    }
    theta = robust_lp._theta_symbol(prog.layout, prog.matrices, n_s)
    block = np.arange(theta.shape[1]) // prog.layout.n_q
    for name, W in want.items():
        ref = (W @ theta).toarray()
        assert np.count_nonzero(ref) > 0
        blocks, krow = seen[name]
        weight = prog.dd.f ** (krow[:, None] - 1 - block[None, :]).astype(float)
        np.testing.assert_allclose(weight * blocks.toarray(), ref, rtol=1e-12, atol=0,
                                   err_msg=name)


@pytest.mark.parametrize("t_rp", [10 * MIN, 0], ids=["interpolated", "held"])
def test_theta_symbol_is_the_unit_policy_reference_map(t_rp):
    ts, counts, params, structure = make(48, t_rp=t_rp, da_lb=24, id_lb=1)
    prog = assemble(params, ts, structure)
    lay, mats = prog.layout, prog.matrices
    assert lay.n_qda > 0 and lay.n_qid > 0
    TH = mats["TH"].tocsc()
    zero = prog.decode_policy(np.zeros(prog.n_vars))
    for v in range(lay.n_q):
        day_ahead = v < lay.n_qda
        (k, j), n = ((lay.qda_entries[v], lay.n_da) if day_ahead
                     else (lay.qid_entries[v - lay.n_qda], lay.n_id))
        unit = sp.csr_matrix(([1.0], ([k], [j])), shape=(n, n))
        pol = dataclasses.replace(zero, **{"Q_DA" if day_ahead else "Q_ID": unit})
        theta, _ = reference_affine_map(pol, mats["M"], mats["R"], mats["A_DA"], mats["A_ID"])
        assert theta.nnz > 0
        # |TH - theta| <= 1e-14 |theta| entrywise, implicit zeros included
        excess = abs(TH[:, v::lay.n_q] - theta) - 1e-14 * abs(theta)
        assert excess.max() <= 0, prog.var_name(v)


@pytest.mark.parametrize("a", [0.0, -1e-6, -1e-9, -0.02])
def test_state_row_gamma_coefficient_is_the_carry_over_sum(a):
    # a fixed reference has no absolute-value blocks, so the gamma
    # coefficient of state row s is c*T_S*sum_{j<s} f^j; the closed form
    # (1 - f^s)/(1 - f) cancels near f = 1
    prob = load_problem(str(CONFIG_DIR / "powerwall_1day.cfg"))
    prog = assemble(dataclasses.replace(prob.params, a=a), prob.ts, prob.structure)
    assert prog.layout.n_q == 0
    rows = np.flatnonzero(np.isin(prog.row_kind, [robust_lp._KIND_CODE["state.hi"],
                                                  robust_lp._KIND_CODE["state.lo"]]))
    assert rows.size == 2 * prog.counts.N_S
    got = prog.A[rows, prog.layout.gamma].toarray().ravel()
    with mpmath.workdps(50):
        f = mpmath.mpf(prog.dd.f)
        c_t = mpmath.mpf(prog.params.c) * prog.ts.T_S / 3600
        carry = [mpmath.mpf(0)]
        for _ in range(prog.counts.N_S):
            carry.append(carry[-1] * f + 1)
        want = np.array([float(c_t * carry[s]) for s in prog.row_meta1[rows]])
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


# ---------------------------------------------------------------------------
# env_b rows of lossless programs


ENV_B = [robust_lp._KIND_CODE["env_b.hi"], robust_lp._KIND_CODE["env_b.lo"]]


@pytest.mark.parametrize(
    "path", sorted(CONFIG_DIR.glob("*.cfg")) + sorted(BENCH_CONFIG_DIR.glob("*.cfg")),
    ids=lambda p: p.stem)
def test_shipped_lossless_programs_have_no_env_b_rows(path):
    prob = load_problem(str(path))
    assert prob.params.a == 0.0
    prog = assemble(prob.params, prob.ts, prob.structure, prob.objective)
    assert not np.isin(prog.row_kind, ENV_B).any()


def test_env_b_rows_stay_where_their_own_block_holds_policy_terms():
    ts, counts, params, structure = make(4, lead=0, id_lb=1)
    prog = assemble(params, ts, structure)
    n_s, n_q = counts.N_S, prog.layout.n_q
    H = build_state_matrices(0.0, params.b, params.c, prog.dd.t_step, n_s, hold=False).H
    h_prev = sp.vstack([sp.csr_matrix((1, n_s + 1)), H[:-1]])
    slope = 0.5 * params.c * prog.dd.t_step * (sp.eye(n_s, n_s + 1) + sp.eye(n_s, n_s + 1, k=1))
    blocks = ((h_prev + slope) @ prog.matrices["TH"]).toarray()
    own = [s for s in range(1, n_s + 1) if np.any(blocks[s - 1, (s - 1) * n_q:s * n_q])]
    assert 0 < len(own) < n_s
    for code in ENV_B:
        assert sorted(prog.row_meta1[prog.row_kind == code]) == own


def lead0_program(name):
    prob = load_problem(str(CONFIG_DIR / name))
    ts = dataclasses.replace(prob.ts, T_ID_lead=0)
    structure = PolicyStructure.build(derive_counts(ts), ts, 0, 1)
    return assemble(prob.params, ts, structure, prob.objective)


# first-stage optima of programs that kept all 2*N_S env_b rows
@pytest.mark.parametrize("build, gamma", [
    pytest.param(lambda: config_program("powerwall_1day.cfg"), 0.3125, id="1day"),
    pytest.param(lambda: config_program("powerwall_1day.cfg", T_RP=0), 0.31249999999999994,
                 id="1day_held"),
    pytest.param(lambda: config_program("powerwall_2day.cfg"), 0.15625, id="2day"),
    pytest.param(lambda: config_program("powerwall_1day_lead1h.cfg"), 2.593582887700535,
                 id="lead1h"),
    pytest.param(lambda: config_program("powerwall_1day_lead30min.cfg"), 2.619047619047619,
                 id="lead30min"),
    pytest.param(lambda: config_program("powerwall_1day_lead15min.cfg"), 2.631578947368421,
                 id="lead15min"),
    pytest.param(lambda: lead0_program("powerwall_1day_lead1h.cfg"), 2.643979057591623,
                 id="lead0"),
])
def test_lossless_optimum_is_the_one_with_every_env_b_row(build, gamma):
    sol = solve(build())
    assert sol.status == "optimal" and sol.stats["certified"]
    assert sol.gamma == pytest.approx(gamma, rel=1e-12, abs=0)
    assert sol.objective == pytest.approx(gamma, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# lossy programs


def lossy_8h_program(a, **ts_changes):
    prob = load_problem(str(BENCH_CONFIG_DIR / "powerwall_8h_lead1h.cfg"))
    return assemble(dataclasses.replace(prob.params, a=a),
                    dataclasses.replace(prob.ts, **ts_changes), prob.structure, prob.objective)


# first-stage optima of programs that gave every f-scaled copy of a block
# its own epigraph column
@pytest.mark.parametrize("build, gamma", [
    pytest.param(lambda: made_program(4, lead=0, id_lb=1, a=-0.02), 3.3958851719302054,
                 id="lead0"),
    pytest.param(lambda: lossy_8h_program(-0.02), 2.8473529199395684, id="8h_lead1h"),
    pytest.param(lambda: lossy_8h_program(-0.02, T_RP=0), 2.8473560948237875,
                 id="8h_lead1h_held"),
])
def test_lossy_optimum_is_the_one_with_a_column_per_copy(build, gamma):
    sol = solve(build())
    assert sol.status == "optimal" and sol.stats["certified"]
    assert sol.gamma == pytest.approx(gamma, rel=1e-12, abs=0)
    assert sol.objective == pytest.approx(gamma, rel=1e-12, abs=0)


def test_lossy_copies_of_a_block_share_one_column():
    # f-scaled copies of a block share a column whatever f is; with one
    # column per copy the a = -0.02 program had 4,182
    counts = set()
    for a in (-0.001, -0.02, -0.05):
        prog = lossy_8h_program(a)
        counts.add(prog.n_vars - prog.state_columns.stop)
    assert len(counts) == 1 and counts.pop() < 4182


EXTENDED = pytest.mark.skipif(not os.environ.get("FLEXBID_EXTENDED"),
                              reason="set FLEXBID_EXTENDED=1")
LOSSY_STUDY = [
    pytest.param("powerwall_1day_lead1h.cfg", 2.619997077859081, id="lead1h"),
    pytest.param("powerwall_1day_lead30min.cfg", 2.619997077859078, id="lead30min",
                 marks=EXTENDED),
    pytest.param("powerwall_1day_lead15min.cfg", 2.6199970778590784, id="lead15min",
                 marks=EXTENDED),
]


@pytest.mark.parametrize("name, first_stage", LOSSY_STUDY)
def test_lossy_lead_study_certifies(name, first_stage):
    # the recorded first-stage objectives come from the programs with one
    # epigraph column per copy, which took about 90 s each to solve
    prob = load_problem(str(CONFIG_DIR / name))
    params, ts = dataclasses.replace(prob.params, a=-0.02), prob.ts
    sol = solve(assemble(params, ts, prob.structure, prob.objective), refine_ramp=True)
    assert sol.status == "optimal" and sol.stats["certified"]
    assert sol.stats["first_stage_objective"] == pytest.approx(first_stage, rel=1e-12, abs=0)
    signals = [gen_signal("sustained", ts), gen_signal("sustained", ts, level=-1.0),
               gen_signal("square_wave", ts), gen_signal("zero", ts)]
    signals += [gen_signal("uniform_random" if seed % 2 == 0 else "clipped_random_walk", ts,
                           seed=seed) for seed in range(10)]
    for sig in signals:
        report = check_feasibility(sol.policy, sig, params, ts)
        assert report.feasible, report.format()
    inflated = dataclasses.replace(sol.policy, gamma=1.01 * sol.gamma)
    for level in (1.0, -1.0):
        report = check_feasibility(inflated, gen_signal("sustained", ts, level=level), params, ts)
        assert not report.feasible, level
