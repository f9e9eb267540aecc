"""Command line front end.

Proves:
  1. Duration, number, and vector parsing accept the documented unit
     forms and reject malformed text with specific messages.
  2. Every shipped example config loads and is internally consistent.
  3. solve prints the optimum in both text and JSON forms, exits by
     status, and the numbers are deterministic across runs.
  4. The solve -> save-policy -> verify loop closes: the saved policy
     passes verification, an inflated one fails with exit code 5, and a
     policy whose adjustment structure disagrees with the config is
     flagged as an information-structure violation.  A signal file on
     another control grid and an irregular square-wave period exit with
     the usage code; the default period works on a coarse grid.  A NaN
     signal sample, a non-finite gamma in the policy file, a NaN
     --gamma-scale and a non-finite or negative --tol exit with the usage
     code too, and so do a signal file that holds only its header or
     fewer samples than it declares and a policy file without its
     shape_DA line, each named in the error.  A malformed value in a
     signal or policy file exits with the usage code and names the file
     and the field.
  5. Config mistakes (missing key, bad unit, unknown key, duplicates,
     conflicting or non-finite initial state, a NaN model coefficient,
     baseload or limit, a non-finite price or activation statistic) exit
     with the usage code and name the file and line; the library refuses
     the same values.  A file that cannot be read or written (a missing
     policy or signal, a policy or export into a missing directory) exits
     with the usage code and an error line, not a traceback, and prints
     nothing to stdout first.
  6. Infeasible and unbounded problems map to their own exit codes, and so
     does a solver point that breaks its own rows (not certified).
  7. suite solves every listed case in order; export writes an MPS file
     with as many rows and columns as it reports, and refuses a file name
     that does not end in .mps.
  8. Importing the package and its CLI loads none of scipy.signal,
     scipy.stats, scipy.interpolate and scipy.ndimage.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import flexbid
from flexbid import assemble, solvers
from flexbid.cli import (EXIT_INFEASIBLE, EXIT_OK, EXIT_UNBOUNDED, EXIT_UNCERTIFIED,
                         EXIT_USAGE, EXIT_VERIFY, load_problem, main, parse_duration,
                         parse_number, parse_vector)

CONFIG_DIR = pathlib.Path(flexbid.__file__).parent / "configs"
TWO_HOUR = str(CONFIG_DIR / "powerwall_2h.cfg")


# ---------------------------------------------------------------------------
# value parsing


def test_duration_units():
    assert parse_duration("90s") == 90
    assert parse_duration("15min") == 900
    assert parse_duration("2h") == 7200
    assert parse_duration("1d") == 86400
    assert parse_duration("5 h") == 5 * 3600
    assert parse_duration("0") == 0


@pytest.mark.parametrize("bad", ["45", "2.5h", "-5s", "h5", "3 weeks", ""])
def test_duration_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_duration(bad)


def test_number_with_optional_unit():
    assert parse_number("5 kW", unit="kW") == 5.0
    assert parse_number("-2.5kW", unit="kW") == -2.5
    assert parse_number("7.5", unit="kWh") == 7.5
    assert parse_number("  3.0  ") == 3.0
    with pytest.raises(ValueError, match="expected unit kW"):
        parse_number("5 kWh", unit="kW")
    with pytest.raises(ValueError):
        parse_number("fast")


def test_vector_broadcast_and_lists():
    np.testing.assert_array_equal(parse_vector("3", 4), np.full(4, 3.0))
    np.testing.assert_array_equal(parse_vector("1, 2, 3", 3), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(parse_vector("1,2,3 kW", 3, unit="kW"),
                                  [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="expected 1 or 3"):
        parse_vector("1,2", 3)
    with pytest.raises(ValueError, match="cannot parse"):
        parse_vector("1,x,3", 3)


# ---------------------------------------------------------------------------
# shipped configs


def test_every_shipped_config_loads():
    paths = sorted(CONFIG_DIR.glob("*.cfg"))
    assert len(paths) >= 6
    for path in paths:
        problem = load_problem(str(path))
        assert problem.counts.N_S >= 1
        assert problem.params.validate(problem.counts.N_S) == []


# ---------------------------------------------------------------------------
# solve


def test_solve_two_hour_battery(capsys):
    code = main(["solve", TWO_HOUR, "--no-refine-ramp"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "status optimal" in out
    assert "gamma_kw 3.750000" in out
    assert "objective 3.750000" in out
    assert "required_ramp_kw_per_s" in out
    assert "solver highs iterations" in out


def test_solve_json_payload(capsys):
    code = main(["solve", TWO_HOUR, "--no-refine-ramp", "--json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["status"] == "optimal"
    assert payload["gamma_kw"] == pytest.approx(3.75, abs=1e-8)
    assert payload["required_ramp_kw_per_s"] > 0


@pytest.fixture
def perturbed_backend(monkeypatch):
    """The HiGHS call, returning its point shifted off the rows."""
    exact = solvers.solve_lp

    def perturbed(data):
        res = exact(data)
        res.x = res.x + 1e-3
        return res

    monkeypatch.setattr(solvers, "solve_lp", perturbed)


def test_solve_uncertified_point_exit_code(capsys, perturbed_backend):
    code = main(["solve", TWO_HOUR, "--no-refine-ramp", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_UNCERTIFIED
    assert payload["status"] == "optimal"
    assert payload["stats"]["certified"] is False
    assert payload["stats"]["max_violation"] > 1e-7

    assert main(["solve", TWO_HOUR, "--no-refine-ramp"]) == EXIT_UNCERTIFIED
    assert "certified false" in capsys.readouterr().out


def test_solve_numbers_are_deterministic(capsys):
    main(["solve", TWO_HOUR, "--no-refine-ramp"])
    first = capsys.readouterr().out
    main(["solve", TWO_HOUR, "--no-refine-ramp"])
    second = capsys.readouterr().out
    # everything except the timing line must agree exactly
    assert first.splitlines()[:4] == second.splitlines()[:4]


# ---------------------------------------------------------------------------
# solve -> save -> verify loop


def test_policy_round_trip_verifies(tmp_path, capsys):
    policy_file = str(tmp_path / "battery.policy")
    code = main(["solve", TWO_HOUR, "--save-policy", policy_file])
    capsys.readouterr()
    assert code == EXIT_OK

    code = main(["verify", TWO_HOUR, "--policy", policy_file,
                 "--kind", "sustained"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "PASS state:" in out
    assert out.strip().endswith("feasible")

    code = main(["verify", TWO_HOUR, "--policy", policy_file,
                 "--kind", "square_wave", "--period", "2"])
    capsys.readouterr()
    assert code == EXIT_OK

    code = main(["verify", TWO_HOUR, "--policy", policy_file,
                 "--kind", "sustained", "--gamma-scale", "1.5"])
    out = capsys.readouterr().out
    assert code == EXIT_VERIFY
    assert "INFEASIBLE" in out


def test_structure_mismatch_is_reported(tmp_path, capsys):
    # same market geometry, but the policy was allowed intra-day
    # adjustment the target config forbids
    adjusted_cfg = tmp_path / "adjusted.cfg"
    text = pathlib.Path(TWO_HOUR).read_text()
    adjusted_cfg.write_text(text.replace("id_lookback = 0", "id_lookback = 1"))
    policy_file = str(tmp_path / "adjusted.policy")
    code = main(["solve", str(adjusted_cfg), "--save-policy", policy_file])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "gamma_kw 4.333333" in out

    code = main(["verify", TWO_HOUR, "--policy", policy_file,
                 "--kind", "zero"])
    out = capsys.readouterr().out
    assert code == EXIT_VERIFY
    assert "FAIL information structure" in out


def test_verify_reads_saved_signal(tmp_path, capsys):
    from flexbid import gen_signal, save_signal

    policy_file = str(tmp_path / "battery.policy")
    main(["solve", TWO_HOUR, "--no-refine-ramp", "--save-policy", policy_file])
    capsys.readouterr()
    problem = load_problem(TWO_HOUR)
    sig_file = str(tmp_path / "walk.sig")
    save_signal(gen_signal("clipped_random_walk", problem.ts, seed=5), sig_file)
    code = main(["verify", TWO_HOUR, "--policy", policy_file,
                 "--signal", sig_file])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.strip().endswith("feasible")


def test_verify_rejects_foreign_grid_and_bad_period(tmp_path, capsys):
    from flexbid import ActivationSignal, save_signal

    policy_file = str(tmp_path / "battery.policy")
    main(["solve", TWO_HOUR, "--no-refine-ramp", "--save-policy", policy_file])
    capsys.readouterr()
    problem = load_problem(TWO_HOUR)
    # right sample count for the 1 s grid, but declared on a 2 s grid
    sig_file = str(tmp_path / "coarse.sig")
    save_signal(ActivationSignal(values=np.zeros(problem.counts.N_C + 1), T_C=2), sig_file)
    code = main(["verify", TWO_HOUR, "--policy", policy_file, "--signal", sig_file])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "T_C = 2 s" in err and "T_C = 1 s" in err

    for period in ("3", "0"):
        code = main(["verify", TWO_HOUR, "--policy", policy_file,
                     "--kind", "square_wave", "--period", period])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "positive multiple of T_C = 1 s" in err


@pytest.mark.parametrize("case", ["nan_sample", "nan_gamma", "inf_gamma", "nan_gamma_scale"])
def test_verify_refuses_non_finite_inputs(tmp_path, capsys, case):
    from flexbid import gen_signal, save_signal

    policy_file = tmp_path / "battery.policy"
    main(["solve", TWO_HOUR, "--no-refine-ramp", "--save-policy", str(policy_file)])
    capsys.readouterr()
    args = ["verify", TWO_HOUR, "--policy", str(policy_file)]
    if case == "nan_sample":
        sig = gen_signal("zero", load_problem(TWO_HOUR).ts)
        sig.values[100] = np.nan
        save_signal(sig, str(tmp_path / "nan.sig"))
        args += ["--signal", str(tmp_path / "nan.sig")]
        message = "normalized band"
    else:
        args += ["--kind", "sustained", "--level", "-1"]
        message = "gamma must be finite"
        if case == "nan_gamma_scale":
            args += ["--gamma-scale", "nan"]
        else:
            text = re.sub(r"^gamma = .*$", f"gamma = {case[:3]}", policy_file.read_text(),
                          flags=re.M)
            policy_file.write_text(text)
    code = main(args)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_verify_refuses_a_tolerance_that_is_not_finite_and_non_negative(tmp_path, capsys,
                                                                        tol):
    # with --tol inf a policy at three times its capacity read "feasible"
    policy_file = str(tmp_path / "battery.policy")
    main(["solve", TWO_HOUR, "--no-refine-ramp", "--save-policy", policy_file])
    capsys.readouterr()
    code = main(["verify", TWO_HOUR, "--policy", policy_file, "--kind", "sustained",
                 "--gamma-scale", "3", "--tol", tol])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "tol must be finite and >= 0" in captured.err


def test_verify_default_period_on_coarse_grid(tmp_path, capsys):
    # on a 60 s grid T_ID / 2 = 7.5 steps, so the default square-wave
    # period falls back to the largest regular one below T_ID
    coarse_cfg = tmp_path / "coarse.cfg"
    coarse_cfg.write_text(pathlib.Path(TWO_HOUR).read_text().replace("T_C = 1s", "T_C = 60s"))
    policy_file = str(tmp_path / "coarse.policy")
    code = main(["solve", str(coarse_cfg), "--save-policy", policy_file])
    capsys.readouterr()
    assert code == EXIT_OK
    code = main(["verify", str(coarse_cfg), "--policy", policy_file, "--kind", "square_wave"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.strip().endswith("feasible")


# ---------------------------------------------------------------------------
# config errors


def write_cfg(tmp_path, mangle) -> str:
    text = pathlib.Path(TWO_HOUR).read_text()
    path = tmp_path / "broken.cfg"
    path.write_text(mangle(text))
    return str(path)


def test_missing_required_key(tmp_path, capsys):
    path = write_cfg(tmp_path, lambda t: t.replace("p_max = 5 kW\n", ""))
    code = main(["solve", path])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "missing required key 'p_max'" in err
    assert "broken.cfg" in err


def test_bad_duration_names_the_line(tmp_path, capsys):
    path = write_cfg(tmp_path, lambda t: t.replace("T_ID = 15min", "T_ID = 15"))
    code = main(["solve", path])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "needs a unit suffix" in err
    lineno = int(err.split("broken.cfg:")[1].split(":")[0])
    assert lineno > 1


def test_unknown_key_is_rejected(tmp_path, capsys):
    path = write_cfg(tmp_path, lambda t: t + "\n[system]\nfrobnicate = 3\n")
    code = main(["solve", path])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "unknown key 'frobnicate'" in err


def test_duplicate_key_is_rejected(tmp_path, capsys):
    path = write_cfg(tmp_path, lambda t: t.replace("T_H = 2h", "T_H = 2h\nT_H = 3h"))
    code = main(["solve", path])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "duplicate key 'T_H'" in err


def test_conflicting_initial_state(tmp_path, capsys):
    path = write_cfg(tmp_path,
                     lambda t: t.replace("x0 = 7.5 kWh",
                                         "x0 = 7.5 kWh\nx0_min = 7 kWh"))
    code = main(["solve", path])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "not both" in err


@pytest.mark.parametrize("limit", ["x_lo", "x_hi"])
def test_lossy_storage_needs_finite_state_limits(tmp_path, capsys, limit):
    infinite = {"x_lo": ("x_min = 0 kWh", "x_min = -inf kWh"),
                "x_hi": ("x_max = 15 kWh", "x_max = inf kWh")}[limit]
    path = write_cfg(tmp_path, lambda t: t.replace("a = 0 1/h", "a = -0.02 1/h")
                     .replace(*infinite))
    code = main(["solve", path])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert f"{limit} must be finite for lossy storage" in err


@pytest.mark.parametrize("x0", ["-inf", "inf"])
def test_non_finite_initial_state_is_rejected(tmp_path, capsys, x0):
    path = write_cfg(tmp_path, lambda t: t.replace("x_min = 0 kWh", f"x_min = {x0} kWh")
                     .replace("x_max = 15 kWh", f"x_max = {x0} kWh")
                     .replace("x0 = 7.5 kWh", f"x0 = {x0} kWh"))
    code = main(["solve", path])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "x0_min/x0_max must be finite" in err


NAN_KEYS = {"a": "a", "b": "b", "c": "c", "u": "u", "p_min": "p_lo", "p_max": "p_hi",
            "r_min": "r_lo", "r_max": "r_hi", "x_min": "x_lo", "x_max": "x_hi"}


@pytest.mark.parametrize("key", NAN_KEYS)
def test_nan_system_value_is_rejected(tmp_path, capsys, key):
    def mangle(text):
        text = re.sub(rf"^{key} =.*\n", "", text, flags=re.M)
        return text.replace("x0 = 7.5 kWh", f"x0 = 7.5 kWh\n{key} = nan")

    assert main(["solve", write_cfg(tmp_path, mangle)]) == EXIT_USAGE
    assert "invalid system section" in capsys.readouterr().err

    # the same value handed to the library: one NaN entry of a vector is enough
    problem = load_problem(TWO_HOUR)
    field = NAN_KEYS[key]
    value = getattr(problem.params, field)
    if np.ndim(value):
        value = value.copy()
        value[1] = np.nan
    else:
        value = np.nan
    params = dataclasses.replace(problem.params, **{field: value})
    assert params.validate(problem.counts.N_S)
    with pytest.raises(ValueError, match="cannot assemble program"):
        assemble(params, problem.ts, problem.structure)


@pytest.mark.parametrize("series,value", [("mu", "nan"), ("c_RES", "nan"),
                                          ("c_DA", "nan"), ("c_up", "inf")])
def test_non_finite_price_is_rejected(tmp_path, capsys, series, value):
    (tmp_path / "prices.csv").write_text(f"series,index,value\n{series},1,{value}\n")
    path = write_cfg(tmp_path, lambda t: t.replace(
        "kind = max_capacity", "kind = expected_profit\nprices = prices.csv"))
    assert main(["solve", path]) == EXIT_USAGE
    assert f"{series} must be finite" in capsys.readouterr().err

    # the same prices handed to the library
    problem = load_problem(path)
    with pytest.raises(ValueError, match=f"{series} must be finite"):
        assemble(problem.params, problem.ts, problem.structure, problem.objective)


def test_missing_config_file(capsys):
    code = main(["solve", "/no/such/file.cfg"])
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["verify_policy", "verify_signal", "save_policy", "export"])
def test_unusable_file_paths_exit_with_the_usage_code(tmp_path, capsys, case):
    missing = tmp_path / "missing"
    policy_file = str(tmp_path / "battery.policy")
    main(["solve", TWO_HOUR, "--no-refine-ramp", "--save-policy", policy_file])
    capsys.readouterr()
    args = {
        "verify_policy": ["verify", TWO_HOUR, "--policy", str(missing / "battery.policy")],
        "verify_signal": ["verify", TWO_HOUR, "--policy", policy_file,
                          "--signal", str(missing / "walk.sig")],
        "save_policy": ["solve", TWO_HOUR, "--no-refine-ramp",
                        "--save-policy", str(missing / "battery.policy")],
        "export": ["export", TWO_HOUR, "--out", str(missing / "battery.mps")],
    }[case]
    code = main(args)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "error:" in captured.err and str(missing) in captured.err
    # nothing reaches stdout before the error, not even a solve's result
    assert captured.out == ""


@pytest.mark.parametrize("case, field", [("header_only", "T_C"), ("short_signal", "samples"),
                                         ("policy", "shape_DA")])
def test_malformed_signal_and_policy_files_are_refused_by_name(tmp_path, capsys, case,
                                                               field):
    policy_file = tmp_path / "battery.policy"
    main(["solve", TWO_HOUR, "--no-refine-ramp", "--save-policy", str(policy_file)])
    capsys.readouterr()
    args = ["verify", TWO_HOUR, "--policy", str(policy_file)]
    if case != "policy":
        bad = tmp_path / f"{case}.sig"
        body = "T_C 1\nsamples 7201\n0.0\n0.5\n" if case == "short_signal" else ""
        bad.write_text("# flexbid signal v1\n" + body)
        args += ["--signal", str(bad)]
    else:
        bad = policy_file
        bad.write_text(re.sub(r"^shape_DA = .*\n", "", bad.read_text(), flags=re.M))
    code = main(args)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert str(bad) in captured.err and field in captured.err


@pytest.mark.parametrize("case, field, pattern, replacement", [
    ("signal", "T_C", r"^T_C 1$", "T_C abc"),
    ("signal", "samples", r"^samples 7201$", "samples 7201.0"),
    ("signal", "samples", r"^0\.0$", "zero"),
    ("policy", "gamma", r"^gamma = .*$", "gamma = wide"),
    ("policy", "shape_DA", r"^shape_DA = .*$", "shape_DA = 2.5"),
    ("policy", "shape_ID", r"^shape_ID = .*$", "shape_ID = x"),
    ("policy", "Q_DA", r"^\[Q_DA\]$", "[Q_DA]\n1 x 0.5"),
    ("policy", "Q_ID", r"^\[Q_ID\]$", "[Q_ID]\n1 2"),
    ("policy", "q_DA", r"^\[q_DA\]$", "[q_DA]\nnought"),
    ("policy", "q_ID", r"^\[q_ID\]\n.*$", "[q_ID]\n1..0"),
], ids=["T_C", "samples_count", "sample", "gamma", "shape_DA", "shape_ID", "Q_DA", "Q_ID",
        "q_DA", "q_ID"])
def test_malformed_values_are_refused_by_name(tmp_path, capsys, case, field, pattern,
                                              replacement):
    from flexbid import gen_signal, save_signal

    policy_file = tmp_path / "battery.policy"
    main(["solve", TWO_HOUR, "--no-refine-ramp", "--save-policy", str(policy_file)])
    capsys.readouterr()
    args = ["verify", TWO_HOUR, "--policy", str(policy_file)]
    if case == "signal":
        bad = tmp_path / "walk.sig"
        save_signal(gen_signal("zero", load_problem(TWO_HOUR).ts), str(bad))
        args += ["--signal", str(bad)]
    else:
        bad = policy_file
    text, count = re.subn(pattern, replacement, bad.read_text(), count=1, flags=re.M)
    assert count == 1
    bad.write_text(text)
    code = main(args)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert f"{bad}: cannot parse {field} value" in captured.err


def test_usage_errors_from_argparse(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()


# ---------------------------------------------------------------------------
# status exit codes


def test_infeasible_problem_exit_code(tmp_path, capsys):
    # baseload drives the state up faster than full discharge can cancel
    path = write_cfg(tmp_path, lambda t: t.replace("u = 0 kW", "u = 10 kW")
                     .replace("p_min = -5 kW", "p_min = -2 kW")
                     .replace("p_max = 5 kW", "p_max = 2 kW"))
    code = main(["solve", path])
    out = capsys.readouterr().out
    assert code == EXIT_INFEASIBLE
    assert "status infeasible" in out
    assert "gamma_kw" not in out


def test_unbounded_profit_exit_code(tmp_path, capsys):
    # day-ahead price out of line with the intra-day prices covering the
    # slot opens a money pump with zero net physical position
    prices = tmp_path / "prices.csv"
    prices.write_text("series,index,value\nc_DA,1,9.0\nc_ID,1,0.0\n")
    path = write_cfg(
        tmp_path,
        lambda t: t.replace("kind = max_capacity",
                            "kind = expected_profit\nprices = prices.csv")
        .replace("id_lookback = 0", "id_lookback = 1"))
    code = main(["solve", path])
    out = capsys.readouterr().out
    assert code == EXIT_UNBOUNDED
    assert "status unbounded" in out


# ---------------------------------------------------------------------------
# suite


def make_suite(tmp_path) -> str:
    shutil.copy(TWO_HOUR, tmp_path / "local.cfg")
    suite = tmp_path / "cases.suite"
    suite.write_text("# two copies of the same case\n"
                     "alpha = local.cfg\n"
                     "beta  = local.cfg\n")
    return str(suite)


def test_suite_runs_in_order(tmp_path, capsys):
    code = main(["suite", make_suite(tmp_path), "--no-refine-ramp"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("alpha") and lines[1].startswith("beta")
    for line in lines:
        assert "status optimal" in line
        assert "gamma_kw 3.750000" in line


def test_suite_uncertified_point_exit_code(tmp_path, capsys, perturbed_backend):
    code = main(["suite", make_suite(tmp_path), "--no-refine-ramp", "--json"])
    results = json.loads(capsys.readouterr().out)
    assert code == EXIT_UNCERTIFIED
    assert [r["certified"] for r in results] == [False, False]


def test_suite_rejects_duplicates_and_empty(tmp_path, capsys):
    dup = tmp_path / "dup.suite"
    shutil.copy(TWO_HOUR, tmp_path / "local.cfg")
    dup.write_text("alpha = local.cfg\nalpha = local.cfg\n")
    assert main(["suite", str(dup)]) == EXIT_USAGE
    assert "duplicate suite entry" in capsys.readouterr().err

    empty = tmp_path / "empty.suite"
    empty.write_text("# nothing here\n")
    assert main(["suite", str(empty)]) == EXIT_USAGE
    assert "lists no cases" in capsys.readouterr().err


def test_suite_json_reports_each_case(tmp_path, capsys):
    code = main(["suite", make_suite(tmp_path), "--no-refine-ramp", "--json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    results = json.loads(out)
    assert [r["name"] for r in results] == ["alpha", "beta"]
    for r in results:
        assert r["status"] == "optimal"
        assert r["certified"] is True
        assert r["gamma_kw"] == pytest.approx(3.75, abs=1e-8)


# ---------------------------------------------------------------------------
# export


def test_export_round_trips_dimensions(tmp_path, capsys):
    out_file = str(tmp_path / "battery.mps")
    code = main(["export", TWO_HOUR, "--out", out_file])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "wrote" in out and "rows" in out
    n_rows = int(out.split("wrote ")[1].split(" rows")[0])
    n_cols = int(out.split("rows, ")[1].split(" columns")[0])
    text = pathlib.Path(out_file).read_text()
    rows = text.split("\nROWS\n")[1].split("\nCOLUMNS\n")[0].splitlines()
    columns = text.split("\nCOLUMNS\n")[1].split("\nRHS\n")[0].splitlines()
    assert sum(line.split()[0] == "L" for line in rows) == n_rows
    assert len({line.split()[0] for line in columns}) == n_cols


def test_export_needs_an_mps_file_name(tmp_path, capsys):
    code = main(["export", TWO_HOUR, "--out", str(tmp_path / "battery.txt")])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "must end in .mps" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# imports


def test_import_leaves_heavy_scipy_modules_unloaded():
    heavy = ["scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.ndimage"]
    code = ("import sys, flexbid, flexbid.cli\n"
            f"print([m for m in {heavy!r} if m in sys.modules])")
    src = str(pathlib.Path(flexbid.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
