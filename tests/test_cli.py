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
     the usage code; the default period works on a coarse grid.
  5. Config mistakes (missing key, bad unit, unknown key, duplicates,
     conflicting initial state) exit with the usage code and name the
     file and line.
  6. Infeasible and unbounded problems map to their own exit codes, and so
     does a solver point that breaks its own rows (not certified).
  7. suite solves every listed case in order, in parallel if asked, with
     identical output either way; export writes an MPS file that parses
     back to the same dimensions.
"""

from __future__ import annotations

import json
import pathlib
import shutil

import numpy as np
import pytest

import flexbid
from flexbid import read_mps, solvers
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
    assert payload["stats"]["backend"] == "highs"
    assert payload["required_ramp_kw_per_s"] > 0


@pytest.fixture
def perturbed_backend(monkeypatch):
    """The highs backend, returning its point shifted off the rows."""
    exact = solvers.BACKENDS["highs"]

    def perturbed(data):
        res = exact(data)
        res.x = res.x + 1e-3
        return res

    monkeypatch.setitem(solvers.BACKENDS, "highs", perturbed)


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


def test_missing_config_file(capsys):
    code = main(["solve", "/no/such/file.cfg"])
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


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


def test_parallel_suite_matches_serial(tmp_path, capsys):
    suite = make_suite(tmp_path)
    main(["suite", suite, "--no-refine-ramp"])
    serial = capsys.readouterr().out
    main(["suite", suite, "--no-refine-ramp", "--jobs", "2"])
    parallel = capsys.readouterr().out
    assert parallel == serial


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
    data = read_mps(out_file)
    n_rows = int(out.split("wrote ")[1].split(" rows")[0])
    n_cols = int(out.split("rows, ")[1].split(" columns")[0])
    assert data.A.shape == (n_rows, n_cols)
