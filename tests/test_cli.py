import hashlib
import os
import re
from dataclasses import replace

import pytest
import yaml
from click.testing import CliRunner

from bessbid import agc, clearing, harness, solver
from bessbid.cli import EXIT_FAILURE, EXIT_INFEASIBLE, EXIT_TIME_LIMIT, EXIT_USAGE, cli, main
from bessbid.scenario import save_scenario, scenario_to_text

from conftest import acceptance_instance, floored_desk


def runner():
    return CliRunner()


def synth_tiny(rn, path):
    res = rn.invoke(cli, ["synth", "--out", str(path), "--intervals", "2",
                          "--peak", "100", "--buy-price", "100"])
    assert res.exit_code == 0, res.output
    return path


def test_no_args_prints_usage_and_exits_2():
    res = runner().invoke(cli, [])
    assert res.exit_code == EXIT_USAGE
    assert "Usage" in res.output
    assert main([]) == EXIT_USAGE


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_synth_writes_scenario(tmp_path):
    out = tmp_path / "s.scn"
    res = runner().invoke(cli, ["synth", "--out", str(out), "--intervals", "4",
                                "--peak", "500"])
    assert res.exit_code == 0, res.output
    assert out.exists()
    assert "4 intervals" in res.output


def test_synth_rejects_non_divisor_intervals(tmp_path):
    res = runner().invoke(cli, ["synth", "--out", str(tmp_path / "s.scn"),
                                "--intervals", "7"])
    assert res.exit_code == EXIT_USAGE
    assert "divide 96" in res.output


def test_synth_desk_conflicts_with_sizing_flags(tmp_path):
    res = runner().invoke(cli, ["synth", "--out", str(tmp_path / "s.scn"),
                                "--desk", "--peak", "500"])
    assert res.exit_code == EXIT_USAGE


def test_clear_prints_prices_and_writes_csv(tmp_path):
    rn = runner()
    scn = synth_tiny(rn, tmp_path / "s.scn")
    out = tmp_path / "prices.csv"
    res = rn.invoke(cli, ["clear", "--scenario", str(scn), "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = res.output.splitlines()
    assert lines[0].startswith("t,price_energy")
    assert len(lines) == 3
    assert out.read_text().strip() == res.output.strip()


# sha256 of the passive-clear price table (stdout, which the --out CSV repeats)
CLEAR_STDOUT_SHA256 = {
    "desk": "bddae6eeaf7d0614434c230f2deac1d812b5190171f63b03061e61edfe8409bc",
    "reference": "c887618b6b363756b62aca1f0840eb159ad522614a3a57d2ff996e511e8f95e1",
}


@pytest.mark.parametrize("system, synth_args", [
    ("desk", ["--desk"]),
    ("reference", []),
])
def test_clear_output_matches_pinned_digest(tmp_path, system, synth_args):
    rn = runner()
    scn = tmp_path / "s.scn"
    assert rn.invoke(cli, ["synth", "--out", str(scn)] + synth_args).exit_code == 0
    out = tmp_path / "prices.csv"
    res = rn.invoke(cli, ["clear", "--scenario", str(scn), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.output.encode()).hexdigest() == CLEAR_STDOUT_SHA256[system]
    assert out.read_text() == res.output


def test_solve_round_trip(tmp_path):
    rn = runner()
    scn = synth_tiny(rn, tmp_path / "s.scn")
    out = tmp_path / "run"
    res = rn.invoke(cli, ["solve", "--scenario", str(scn), "--case", "4",
                          "--out", str(out)])
    assert res.exit_code == 0, res.output
    with open(out / "summary.yaml") as fh:
        doc = yaml.safe_load(fh)
    assert doc["case"] == "case4"
    assert doc["verification"]["passed"] is True
    assert (out / "intervals.csv").exists()


def test_solve_reruns_are_byte_identical(tmp_path):
    rn = runner()
    scn = synth_tiny(rn, tmp_path / "s.scn")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = rn.invoke(cli, ["solve", "--scenario", str(scn), "--out", str(out)])
        assert res.exit_code == 0, res.output
        outs.append(out)
    for fname in ("intervals.csv", "soc_trace.csv", "revenue_traces.csv", "summary.yaml"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_time_limit_env_and_flag_precedence(tmp_path):
    rn = runner()
    scn = synth_tiny(rn, tmp_path / "s.scn")
    env = {"BESSBID_TIME_LIMIT": "0.0001"}
    res = rn.invoke(cli, ["solve", "--scenario", str(scn), "--out", str(tmp_path / "x")],
                    env=env)
    assert res.exit_code == EXIT_TIME_LIMIT
    # an explicit flag outranks the environment
    res = rn.invoke(cli, ["solve", "--scenario", str(scn), "--time-limit", "300",
                          "--out", str(tmp_path / "y")], env=env)
    assert res.exit_code == 0, res.output


def test_time_limit_without_an_incumbent_names_none(tmp_path):
    # the deadline passes during the regime cover, before any MILP is built
    rn = runner()
    scn = synth_tiny(rn, tmp_path / "s.scn")
    res = rn.invoke(cli, ["solve", "--scenario", str(scn), "--time-limit", "0",
                          "--out", str(tmp_path / "x")])
    assert res.exit_code == EXIT_TIME_LIMIT
    assert res.stderr.splitlines() == ["error: time limit 0.0s reached (no incumbent)"]


def test_time_limit_with_an_incumbent_names_its_gap(tmp_path, monkeypatch):
    def stopped(*a, **k):
        return solver.SolveOutcome(status=solver.TIME_LIMIT, objective=1.0, mip_gap=0.25)

    rn = runner()
    scn = synth_tiny(rn, tmp_path / "s.scn")
    monkeypatch.setattr(solver, "solve_milp", stopped)
    res = rn.invoke(cli, ["solve", "--scenario", str(scn), "--time-limit", "300",
                          "--out", str(tmp_path / "x")])
    assert res.exit_code == EXIT_TIME_LIMIT
    assert res.stderr.splitlines() == ["error: time limit 300.0s reached (gap 0.25)"]


def test_negative_gap_or_time_limit_is_usage_error(tmp_path):
    rn = runner()
    scn = synth_tiny(rn, tmp_path / "s.scn")
    for flag in ("--gap", "--time-limit"):
        res = rn.invoke(cli, ["solve", "--scenario", str(scn), flag, "-1",
                              "--out", str(tmp_path / "x")])
        assert res.exit_code == EXIT_USAGE, res.output
        assert not (tmp_path / "x").exists()


def test_config_file_supplies_defaults(tmp_path):
    rn = runner()
    scn = synth_tiny(rn, tmp_path / "s.scn")
    cfg_out = tmp_path / "from_config"
    cfg = tmp_path / "cfg.yaml"
    # keys that name no option, such as the removed seed and threads, are ignored
    cfg.write_text(yaml.safe_dump({"seed": 7, "solve": {"out": str(cfg_out), "threads": 2}}))
    res = rn.invoke(cli, ["--config", str(cfg), "solve", "--scenario", str(scn)])
    assert res.exit_code == 0, res.output
    assert (cfg_out / "summary.yaml").exists()
    # a flag outranks the config file
    flag_out = tmp_path / "from_flag"
    res = rn.invoke(cli, ["--config", str(cfg), "solve", "--scenario", str(scn),
                          "--out", str(flag_out)])
    assert res.exit_code == 0, res.output
    assert (flag_out / "summary.yaml").exists()


@pytest.mark.parametrize("content, problem", [
    (b"gap: [1, 2\n", "expected ',' or ']', but got '<stream end>' at line 2, column 1"),
    (b"\xff\xfegap: 1\n", "'utf-8' codec can't decode byte 0xff in position 0"),
    (b"gap: 1\x00\n", "unacceptable character #x0000"),
], ids=["unparsable", "not utf-8", "control character"])
def test_unparsable_config_is_usage_error(tmp_path, content, problem):
    # a config file that does not parse, or does not decode as text, is one
    # usage error naming the file and the parser's problem, before any command
    rn = runner()
    cfg = tmp_path / "cfg.yaml"
    cfg.write_bytes(content)
    res = rn.invoke(cli, ["--config", str(cfg), "synth", "--desk", "--out",
                          str(tmp_path / "x.scn")])
    assert res.exit_code == EXIT_USAGE, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    error = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert len(error) == 1
    assert error[0].startswith(f"Error: cannot parse config file {cfg}: {problem}")
    assert not (tmp_path / "x.scn").exists()


def test_env_outranks_config(tmp_path):
    rn = runner()
    scn = synth_tiny(rn, tmp_path / "s.scn")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"time_limit": 0.0001}))
    res = rn.invoke(cli, ["--config", str(cfg), "solve", "--scenario", str(scn),
                          "--out", str(tmp_path / "x")])
    assert res.exit_code == EXIT_TIME_LIMIT
    res = rn.invoke(cli, ["--config", str(cfg), "solve", "--scenario", str(scn),
                          "--out", str(tmp_path / "y")],
                    env={"BESSBID_TIME_LIMIT": "300"})
    assert res.exit_code == 0, res.output


ORACLE_STDOUT = (
    "oracle revenue 400.2504 (step 20.0, 2025 evaluated, 9 feasible)\n"
    "  t0: sell 0.0 buy 20.0 reserve 0.0 regcap 0.0\n"
    "  t1: sell 20.0 buy 0.0 reserve 0.0 regcap 0.0\n"
)


def test_oracle_reports_revenue(tmp_path):
    rn = runner()
    scn = synth_tiny(rn, tmp_path / "s.scn")
    res = rn.invoke(cli, ["oracle", "--scenario", str(scn), "--step", "20"])
    assert res.exit_code == 0, res.output
    assert "oracle revenue" in res.output
    assert "t1:" in res.output
    # the whole text, as the oracle printed it while it held bids as objects
    assert res.output == ORACLE_STDOUT
    assert hashlib.sha256(res.output.encode()).hexdigest() == (
        "917a542ab592d211bc6ec402dfecb4f76f29c5ca57329c8d4b352df02fd89b8f")


def test_oracle_rejects_long_horizon(tmp_path):
    rn = runner()
    out = tmp_path / "desk.scn"
    res = rn.invoke(cli, ["synth", "--desk", "--out", str(out)])
    assert res.exit_code == 0
    res = rn.invoke(cli, ["oracle", "--scenario", str(out), "--step", "5"])
    assert res.exit_code == EXIT_USAGE
    assert "2 intervals" in res.output


@pytest.mark.parametrize("step", ["0.01", "5e-324"])
def test_oracle_refuses_grid_over_the_cap(tmp_path, monkeypatch, step):
    # both grids are refused before any of them is built: one by its count,
    # one because the rate over the step overflows
    def build(*args):
        raise AssertionError("built the grid")

    monkeypatch.setattr(harness, "_interval_grid", build)
    rn = runner()
    acceptance = tmp_path / "acceptance.scn"
    save_scenario(acceptance_instance(), str(acceptance))
    for scn in (acceptance, synth_tiny(rn, tmp_path / "s.scn")):
        res = rn.invoke(cli, ["oracle", "--scenario", str(scn), "--step", step])
        assert res.exit_code == EXIT_USAGE, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"exceed the {harness.ORACLE_MAX_EVALUATIONS} cap" in res.stderr
        assert "Traceback" not in res.output


def test_oracle_infeasible_market_exits_3(tmp_path, monkeypatch):
    # a valid scenario whose generator floors, at capacity, exceed every load
    # and what the storage can buy; the clear fails in a forked worker, and
    # its error must reach the parent with type and message
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    scn = acceptance_instance()
    scn = replace(scn, generators=tuple(replace(g, p_min=g.p_max) for g in scn.generators))
    path = tmp_path / "s.scn"
    save_scenario(scn, str(path))
    res = runner().invoke(cli, ["oracle", "--scenario", str(path), "--step", "2.5"])
    assert res.exit_code == EXIT_INFEASIBLE
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.splitlines() == [
        "error: interval 0: clearing infeasible "
        "(no dispatch meets the load, the requirements and the generator limits)"]


def test_market_that_needs_the_storage_exits_3(tmp_path):
    # the generator floors exceed every load: the market clears only when
    # the storage buys, so the regime cover cannot start from its zero-bid
    # clears, and a solve exits 3 as a passive clear does
    path = tmp_path / "floored.scn"
    save_scenario(floored_desk(), str(path))
    rn = runner()
    for args in (["solve", "--case", "1", "--out", str(tmp_path / "out")], ["clear"]):
        res = rn.invoke(cli, args + ["--scenario", str(path)])
        assert res.exit_code == EXIT_INFEASIBLE, res.output
        assert isinstance(res.exception, SystemExit)
        assert len(res.stderr.splitlines()) == 1
        assert res.stderr.startswith("error: interval 0: clearing infeasible ")
    assert not (tmp_path / "out" / "summary.yaml").exists()


def test_held_duals_exit_1(tmp_path, monkeypatch):
    # with every uncovered vertex's duals counted as held, the regime cover
    # cannot certify: one error line naming the interval, no report
    monkeypatch.setattr(clearing, "HELD_DUAL_TOL", float("inf"))
    path = tmp_path / "acceptance.scn"
    save_scenario(acceptance_instance(), str(path))
    res = runner().invoke(cli, ["solve", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert res.exit_code == EXIT_FAILURE, res.output
    assert isinstance(res.exception, SystemExit)
    assert len(res.stderr.splitlines()) == 1
    assert re.match(r"error: interval \d+: regime cover not certified ", res.stderr)
    assert not (tmp_path / "out" / "summary.yaml").exists()


@pytest.mark.parametrize("bess", [
    {"soc_init": 11.0},
    {"soc_min": 6.0},
], ids=["soc_init above soc_max", "soc_min above soc_init"])
def test_oracle_refuses_an_invalid_scenario_as_solve_does(tmp_path, bess):
    # acceptance 1's storage holds 10 MWh and starts at 5; both commands
    # refuse the scenario with one error line before any clear
    scn = acceptance_instance()
    path = tmp_path / "invalid.scn"
    save_scenario(replace(scn, bess=replace(scn.bess, **bess)), str(path))
    rn = runner()
    for args in (["oracle", "--step", "1"], ["solve", "--out", str(tmp_path / "out")]):
        res = rn.invoke(cli, args + ["--scenario", str(path)])
        assert res.exit_code == EXIT_FAILURE, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.splitlines() == [
            "error: invalid scenario: "
            "bess: requires 0 <= soc_min <= soc_init <= soc_max <= energy_capacity"]


def test_export_mps_round_trips_structure(tmp_path):
    rn = runner()
    scn = synth_tiny(rn, tmp_path / "s.scn")
    out = tmp_path / "model.mps"
    res = rn.invoke(cli, ["export-mps", "--scenario", str(scn), "--out", str(out)])
    assert res.exit_code == 0, res.output
    loaded = solver.import_mps(str(out))
    assert f"{loaded.n_rows} rows" in res.output
    assert f"{loaded.n_cols} columns" in res.output
    assert f"{int(loaded.integrality.sum())} binaries" in res.output


def test_agc_check_standalone():
    res = runner().invoke(cli, ["agc-check", "--seeds", "5", "--samples", "60"])
    assert res.exit_code == 0, res.output
    assert "bounded" in res.output


def test_agc_check_with_scenario(tmp_path):
    rn = runner()
    scn = synth_tiny(rn, tmp_path / "s.scn")
    res = rn.invoke(cli, ["agc-check", "--seeds", "3", "--samples", "60",
                          "--scenario", str(scn)])
    assert res.exit_code == 0, res.output
    assert "0 SOC breaches" in res.output


# sha256 of `agc-check --seeds 100 --scenario <desk> --case 4 --gap 0.01`'s
# stdout, as .github/workflows/tier1.yml pins it in agc4.txt
AGC4_STDOUT_SHA256 = "df591b190882dd990952d2b6016a086d437f25934a5bbcf3008b75df6ca8a6bb"


def test_agc_check_builds_each_trace_once(tmp_path, monkeypatch):
    rn = runner()
    scn = tmp_path / "desk.scn"
    save_scenario(harness.desk_scenario(), str(scn))
    built = []
    generate = agc.generate_signal
    monkeypatch.setattr(agc, "generate_signal",
                        lambda seed, samples: built.append(seed) or generate(seed, samples))
    res = rn.invoke(cli, ["agc-check", "--seeds", "100", "--scenario", str(scn), "--case", "4",
                          "--gap", "0.01"])
    assert res.exit_code == 0, res.output
    assert built == list(range(100))
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == AGC4_STDOUT_SHA256


def test_compare_runs_cases_and_writes_table(tmp_path):
    rn = runner()
    scn = synth_tiny(rn, tmp_path / "s.scn")
    out = tmp_path / "cmp"
    res = rn.invoke(cli, ["compare", "--scenario", str(scn), "--cases", "1,4",
                          "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "case1<=case4: ok" in res.output
    assert (out / "comparison.txt").exists()
    assert (out / "case1" / "summary.yaml").exists()
    assert (out / "case4" / "summary.yaml").exists()


def test_compare_rejects_bad_case_list(tmp_path, monkeypatch):
    rn = runner()
    scn = synth_tiny(rn, tmp_path / "s.scn")
    res = rn.invoke(cli, ["compare", "--scenario", str(scn), "--cases", "1,9"])
    assert res.exit_code == EXIT_USAGE
    # a repeated case is refused before any solve, and writes no report
    def solve(*a, **k):
        raise AssertionError("compare solved a case")

    monkeypatch.setattr(harness, "run_case", solve)
    out = tmp_path / "cmp"
    for cases in ("4,4", "1,4,1"):
        res = rn.invoke(cli, ["compare", "--scenario", str(scn), "--cases", cases,
                              "--out", str(out)])
        assert res.exit_code == EXIT_USAGE, res.output
        assert f"Error: --cases entries must not repeat, got '{cases}'" in res.output
        assert not out.exists()


@pytest.mark.parametrize("args, prefix", [
    (["solve", "--out", "run"], "error: solver failed: "),
    (["compare", "--cases", "4"], "error: case 4: solver failed: "),
    (["agc-check", "--seeds", "2", "--samples", "60"], "error: solver failed: "),
])
def test_solver_failure_prints_one_error_line(tmp_path, monkeypatch, args, prefix):
    # a HiGHS failure (a status outside the known ones, a refused option)
    # reaches the user as one error line and exit code 1, not a traceback
    def fail(*a, **k):
        raise solver.SolverError("HiGHS backend failure: forced")

    rn = runner()
    scn = synth_tiny(rn, tmp_path / "s.scn")
    monkeypatch.setattr(solver, "solve_milp", fail)
    args = [tmp_path / a if a == "run" else a for a in args]
    res = rn.invoke(cli, [str(a) for a in args] + ["--scenario", str(scn)])
    assert res.exit_code == EXIT_FAILURE
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.splitlines() == [prefix + "HiGHS backend failure: forced"]


def _malformed_scenarios(tmp_path):
    """One file that does not parse and one that parses but lacks ``bess``."""
    unparsable = tmp_path / "unparsable.scn"
    unparsable.write_text("foo: [1, 2\n")
    doc = yaml.safe_load(synth_tiny(runner(), tmp_path / "s.scn").read_text())
    del doc["bess"]
    no_bess = tmp_path / "no_bess.scn"
    no_bess.write_text(yaml.safe_dump(doc))
    return {"unparsable": unparsable, "missing field": no_bess}


@pytest.mark.parametrize("args", [
    ["clear"],
    ["solve", "--out", "run"],
    ["oracle"],
    ["export-mps", "--out", "model.mps"],
    ["compare"],
    ["agc-check", "--seeds", "2", "--samples", "60"],
])
def test_malformed_scenario_is_one_error_line_and_exit_2(tmp_path, args):
    args = [str(tmp_path / a) if a in ("run", "model.mps") else a for a in args]
    for kind, path in _malformed_scenarios(tmp_path).items():
        res = runner().invoke(cli, args + ["--scenario", str(path)])
        assert res.exit_code == EXIT_USAGE, (kind, res.output)
        assert isinstance(res.exception, SystemExit), kind
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (kind, lines)
        assert "Traceback" not in res.output


@pytest.mark.parametrize("peak", ["5000", "-1", "nan"])
def test_synth_invalid_scenario_is_one_error_line_and_exit_2(tmp_path, peak):
    out = tmp_path / "s.scn"
    res = runner().invoke(cli, ["synth", "--out", str(out), "--peak", peak])
    assert res.exit_code == EXIT_USAGE, res.output
    assert isinstance(res.exception, SystemExit)
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: synthesized scenario is invalid: ")
    assert not out.exists()


def test_export_mps_invalid_market_is_one_error_line(tmp_path):
    # parseable, but no fleet meets the reserve requirement: the MILP is not built
    scn = acceptance_instance()
    scn = replace(scn, intervals=tuple(replace(it, reserve_req=1e4) for it in scn.intervals))
    path = tmp_path / "s.scn"
    save_scenario(scn, str(path))
    out = tmp_path / "model.mps"
    res = runner().invoke(cli, ["export-mps", "--scenario", str(path), "--out", str(out)])
    assert res.exit_code == EXIT_FAILURE
    assert isinstance(res.exception, SystemExit)
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: invalid scenario: ")
    assert not out.exists()


@pytest.mark.parametrize("name", ["café", "two\nlines"])
def test_export_mps_bad_name_is_one_error_line_and_no_file(tmp_path, name):
    scn = synth_tiny(runner(), tmp_path / "s.scn")
    out = tmp_path / "model.mps"
    res = runner().invoke(cli, ["export-mps", "--scenario", str(scn), "--out", str(out),
                                "--name", name])
    assert res.exit_code == EXIT_USAGE, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.splitlines() == [
        f"error: MPS model name {name!r} is not printable ASCII"]
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["synth", "--desk"],
    ["clear", "--scenario", "desk.scn"],
    ["export-mps", "--scenario", "desk.scn", "--case", "4"],
], ids=lambda args: args[0])
def test_out_in_missing_directory_is_one_error_line(tmp_path, args):
    # the command's work succeeds and its write fails: a usage error that
    # names the path, with nothing on stdout and no traceback
    desk = tmp_path / "desk.scn"
    save_scenario(harness.desk_scenario(), str(desk))
    out = tmp_path / "missing" / "out.txt"
    args = [str(desk) if a == "desk.scn" else a for a in args]
    res = runner().invoke(cli, args + ["--out", str(out)])
    assert res.exit_code == EXIT_USAGE, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.splitlines() == [f"error: cannot write {out}: No such file or directory"]
    assert res.stdout == "" and "Traceback" not in res.output
    assert not out.parent.exists()


@pytest.mark.parametrize("args", [
    ["solve", "--scenario", "desk.scn", "--case", "1"],
    ["compare", "--scenario", "desk.scn", "--cases", "1"],
], ids=lambda args: args[0])
def test_out_under_a_file_is_one_error_line_before_any_solve(tmp_path, monkeypatch, args):
    # a report directory that cannot be created (its parent is a file) is a
    # usage error found before the solve: one line that names the path,
    # nothing on stdout and no traceback
    def fail(*a, **k):
        raise AssertionError("solved despite an --out that cannot be created")

    monkeypatch.setattr(harness, "run_case", fail)
    desk = tmp_path / "desk.scn"
    save_scenario(harness.desk_scenario(), str(desk))
    out = desk / "sub"
    args = [str(desk) if a == "desk.scn" else a for a in args]
    res = runner().invoke(cli, args + ["--out", str(out)])
    assert res.exit_code == EXIT_USAGE, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.splitlines() == [f"error: cannot write {out}: Not a directory"]
    assert res.stdout == "" and "Traceback" not in res.output


@pytest.mark.parametrize("flag, value, bound", [("--seeds", "0", "1"), ("--samples", "1", "2")])
def test_agc_check_range_is_usage_error_before_any_solve(tmp_path, monkeypatch, flag, value,
                                                           bound):
    def fail(*a, **k):
        raise AssertionError("solved despite an out-of-range flag")

    rn = runner()
    scn = synth_tiny(rn, tmp_path / "s.scn")
    monkeypatch.setattr(harness, "run_case", fail)
    res = rn.invoke(cli, ["agc-check", flag, value, "--scenario", str(scn)])
    assert res.exit_code == EXIT_USAGE, res.output
    assert f"x>={bound}" in res.stderr


def _edited_desk(tmp_path, name, edit):
    """The desk scenario file with ``edit`` applied to its document."""
    doc = yaml.safe_load(scenario_to_text(harness.desk_scenario()))
    edit(doc)
    path = tmp_path / f"{name}.scn"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return path


def _set_load(doc):
    doc["intervals"][0]["load"] = "abc"


def _one_energy_bid(doc):
    doc["intervals"][0]["gen_energy_bids"] = doc["intervals"][0]["gen_energy_bids"][:1]


def _no_generators(doc):
    doc["generators"] = []


def _reserve_no(doc):
    doc["market_mask"]["reserve"] = "no"


def _nan_load(doc):
    doc["intervals"][0]["load"] = float("nan")


def _infinite_sell_price(doc):
    doc["intervals"][0]["bess_price_bids"]["sell"] = float("inf")


def _no_reserve_mask(doc):
    del doc["market_mask"]["reserve"]


def _no_buy_price(doc):
    del doc["intervals"][0]["bess_price_bids"]["buy"]


def _bogus_bess_field(doc):
    doc["bess"]["bogus"] = 1.0


def _bogus_price_field(doc):
    doc["intervals"][0]["bess_price_bids"]["bogus"] = 1.0


SCENARIO_COMMANDS = [
    ["clear"],
    ["solve", "--out", "run"],
    ["oracle"],
    ["export-mps", "--out", "model.mps"],
    ["compare"],
    ["agc-check", "--seeds", "2", "--samples", "60"],
]


@pytest.mark.parametrize("args", SCENARIO_COMMANDS, ids=lambda args: args[0])
def test_bad_scenario_values_are_one_error_line(tmp_path, args):
    # a string where a number or a boolean belongs, or a missing or unknown
    # field, is a usage error; a scenario with no generator, a short bid list
    # or a number that is not finite is an invalid scenario, reported before
    # any clear or solve
    args = [str(tmp_path / a) if a in ("run", "model.mps") else a for a in args]
    cases = [
        (_set_load, EXIT_USAGE, "error: interval 0: load must be a number, got 'abc'"),
        (_one_energy_bid, EXIT_FAILURE,
         "error: invalid scenario: interval 0: energy bid count 1 != 3 generators"),
        (_no_generators, EXIT_FAILURE,
         "error: invalid scenario: scenario: needs at least one generator; "),
        (_reserve_no, EXIT_USAGE, "error: market_mask: reserve must be a boolean, got 'no'"),
        (_nan_load, EXIT_FAILURE, "error: invalid scenario: interval 0: load must be finite"),
        (_infinite_sell_price, EXIT_FAILURE,
         "error: invalid scenario: interval 0: bess_price_bids: sell must be finite"),
        (_no_reserve_mask, EXIT_USAGE, "error: market_mask: missing field reserve"),
        (_no_buy_price, EXIT_USAGE, "error: interval 0: bess_price_bids: missing field buy"),
        (_bogus_bess_field, EXIT_USAGE, "error: bess: unknown field bogus"),
        (_bogus_price_field, EXIT_USAGE,
         "error: interval 0: bess_price_bids: unknown field bogus"),
    ]
    for edit, code, prefix in cases:
        path = _edited_desk(tmp_path, edit.__name__, edit)
        res = runner().invoke(cli, args + ["--scenario", str(path)])
        assert res.exit_code == code, (edit.__name__, res.output)
        assert isinstance(res.exception, SystemExit), edit.__name__
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), (edit.__name__, lines)
        assert "Traceback" not in res.output


def _zero_delta_t(doc):
    doc["intervals"][0]["delta_t"] = 0


def _negative_delta_t(doc):
    doc["intervals"][0]["delta_t"] = -0.5


@pytest.mark.parametrize("args", SCENARIO_COMMANDS, ids=lambda args: args[0])
def test_nonpositive_delta_t_is_refused_by_every_command(tmp_path, args):
    # prices divide the interval's duals by delta_t, so no command may clear
    # at 0 (nan prices) or below it (negative clearing costs)
    args = [str(tmp_path / a) if a in ("run", "model.mps") else a for a in args]
    for edit in (_zero_delta_t, _negative_delta_t):
        path = _edited_desk(tmp_path, edit.__name__, edit)
        res = runner().invoke(cli, args + ["--scenario", str(path)])
        assert res.exit_code == EXIT_FAILURE, (edit.__name__, res.output)
        assert isinstance(res.exception, SystemExit), edit.__name__
        assert res.stderr.splitlines() == [
            "error: invalid scenario: interval 0: delta_t must be > 0"], edit.__name__
        assert res.stdout == "", edit.__name__


def _infinite_load(doc):
    doc["intervals"][0]["load"] = float("inf")


def test_clear_non_finite_value_is_one_error_line(tmp_path):
    # the scenario check refuses a non-finite number, naming its interval
    # and field, before any model is built
    path = _edited_desk(tmp_path, "infinite_load", _infinite_load)
    res = runner().invoke(cli, ["clear", "--scenario", str(path)])
    assert res.exit_code == EXIT_FAILURE, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.splitlines() == [
        "error: invalid scenario: interval 0: load must be finite"]


@pytest.mark.parametrize("args", [
    ["solve", "--gap", "nan", "--out", "run"],
    ["solve", "--time-limit", "nan", "--out", "run"],
    ["oracle", "--step", "nan"],
], ids=lambda args: args[1])
def test_nan_flag_is_usage_error_naming_it(tmp_path, monkeypatch, args):
    # a NaN passes every range check, so each flag refuses it before any solve
    def fail(*a, **k):
        raise AssertionError("solved despite a NaN flag")

    monkeypatch.setattr(harness, "run_case", fail)
    monkeypatch.setattr(harness, "brute_force_oracle", fail)
    scn = synth_tiny(runner(), tmp_path / "s.scn")
    args = [str(tmp_path / a) if a == "run" else a for a in args]
    res = runner().invoke(cli, args + ["--scenario", str(scn)])
    assert res.exit_code == EXIT_USAGE, res.output
    assert f"Invalid value for '{args[1]}': nan is not a number" in res.stderr
    assert not (tmp_path / "run").exists()


def test_scenario_not_utf8_is_one_error_line_and_exit_2(tmp_path):
    # a file that does not decode as UTF-8 (here a UTF-16 byte-order mark)
    # is an unreadable scenario, named with its file, not a traceback
    path = tmp_path / "binary.scn"
    path.write_bytes(b"\xff\xfex")
    res = runner().invoke(cli, ["clear", "--scenario", str(path)])
    assert res.exit_code == EXIT_USAGE, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.splitlines() == [
        f"error: unreadable scenario file {path}: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte"]
