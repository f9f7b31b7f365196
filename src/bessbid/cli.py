"""Command-line entry point for the bidding toolkit.

Exit codes: 0 success, 1 solver failure or other error (including a regime
cover that cannot certify because an uncovered vertex's duals are already
held, a scenario with no generator, no interval, a bid list without one bid
per generator, an interval length that is not positive or a number that is
not finite, and any other invalid scenario that a solve or the oracle
refuses, such as an initial SOC above its maximum), 2 usage error
(including a scenario file that does not parse, lacks a field, holds an
unknown one or holds a non-number where a number belongs, an ``--out`` file
that cannot be written or report directory that cannot be created, an
``export-mps --name`` that is not printable ASCII, a NaN ``--gap``,
``--time-limit`` or ``--step``, a ``--config`` file that does not parse or
does not decode as UTF-8 text, a ``compare --cases`` list that repeats a
case, and ``agc-check --seeds`` below 1 or ``--samples`` below 2), 3
infeasible market or case (including a market that clears only when the
storage buys), 4 verification failure (including AGC breaches and
monotonicity violations), 5 solver time limit (including one that passes
before the regime cover certifies). Defaults can be set in a YAML config
file (``--config``); environment variables override the file, flags
override both.
"""

from __future__ import annotations

import contextlib
import sys
from pathlib import Path

import click
import numpy as np
import yaml

from . import agc, bilevel, clearing, harness, solver
from .scenario import (
    BessPriceBids,
    MarketMask,
    Scenario,
    ScenarioError,
    default_patterns,
    load_scenario,
    parse_problem,
    save_scenario,
    structure_violations,
    synthesize_scenario,
    violations_text,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFICATION = 4
EXIT_TIME_LIMIT = 5


def _fail(code: int, message: str) -> "SystemExit":
    click.echo(f"error: {message}", err=True)
    return SystemExit(code)


@contextlib.contextmanager
def _writing(path: str):
    """A file that cannot be written (say, in a missing directory) is a usage error."""
    try:
        yield
    except OSError as err:
        raise _fail(EXIT_USAGE, f"cannot write {path}: {err.strerror or err}")


def _report_dir(path: str) -> None:
    """Create the report directory ``path``, before any solve: one that
    cannot be created (say, under a file) is a usage error that costs no solve."""
    with _writing(path):
        Path(path).mkdir(parents=True, exist_ok=True)


def _exit_code_for(err: Exception) -> int:
    if isinstance(err, (harness.CaseInfeasibleError, clearing.InfeasibleMarketError)):
        return EXIT_INFEASIBLE
    if isinstance(err, harness.VerificationFailedError):
        return EXIT_VERIFICATION
    if isinstance(err, harness.CaseTimeLimitError):
        return EXIT_TIME_LIMIT
    return EXIT_FAILURE


def _not_nan(ctx, param, value):
    """Refuse a NaN, which passes every range check."""
    if value != value:
        raise click.BadParameter("nan is not a number")
    return value


def solver_options(f):
    f = click.option("--time-limit", type=click.FloatRange(min=0.0), default=None,
                     callback=_not_nan, envvar="BESSBID_TIME_LIMIT",
                     help="Solver wall-clock limit in seconds.")(f)
    f = click.option("--gap", type=click.FloatRange(min=0.0), default=1e-6, show_default=True,
                     callback=_not_nan, envvar="BESSBID_GAP",
                     help="Relative MIP gap tolerance.")(f)
    return f


def _load(path: str, case: int | None = None) -> Scenario:
    """The scenario in ``path``, under ``case``'s market mask when given. A
    file that does not parse, lacks a field, holds an unknown one or holds a
    non-number where a number belongs is a usage error; a scenario that
    leaves no clearing LP to build (see :func:`structure_violations`: a
    number that is not finite, say) is an invalid scenario. The
    rest of validation is left to the command, so a well-formed but
    infeasible market reaches the clear."""
    try:
        scn = load_scenario(path)
    except ScenarioError as err:
        raise _fail(EXIT_USAGE, str(err))
    problems = structure_violations(scn)
    if problems:
        raise _fail(EXIT_FAILURE, "invalid scenario: " + violations_text(problems))
    return scn if case is None else scn.with_mask(MarketMask.from_case(case))


@click.group(invoke_without_command=True)
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None,
              help="YAML file of default flag values, keyed by flag name "
                   "(optionally nested per subcommand).")
@click.pass_context
def cli(ctx: click.Context, config: str | None) -> None:
    """Strategic-bidding toolkit for a price-maker storage unit."""
    if config is not None:
        try:
            with open(config, encoding="utf-8") as fh:
                raw = yaml.safe_load(fh) or {}
        except (UnicodeDecodeError, yaml.YAMLError) as err:
            raise click.UsageError(f"cannot parse config file {config}: {parse_problem(err)}")
        if not isinstance(raw, dict):
            raise click.UsageError("config file must hold a mapping of flag values")
        flat = {k: v for k, v in raw.items() if not isinstance(v, dict)}
        nested = {k: v for k, v in raw.items() if isinstance(v, dict)}
        default_map = {}
        for name in cli.commands:
            section = dict(flat)
            section.update(nested.get(name, {}))
            default_map[name] = section
        ctx.default_map = default_map
    if ctx.invoked_subcommand is None:
        click.echo(ctx.get_help())
        ctx.exit(EXIT_USAGE)


@cli.command()
@click.option("--out", type=click.Path(dir_okay=False), required=True,
              help="Where to write the scenario file.")
@click.option("--peak", type=float, default=None,
              help="Peak system load in MW [default: 1000].")
@click.option("--intervals", type=int, default=None,
              help="Horizon length; must divide 96 [default: 96].")
@click.option("--desk", is_flag=True,
              help="Write the fixed 24-interval reduced study system instead.")
@click.option("--case", type=click.IntRange(1, 4), default=None,
              help="Participation case stored in the scenario [default: 4].")
@click.option("--buy-price", type=float, default=0.0, show_default=True,
              help="Storage demand price bid in $/MWh for every interval.")
def synth(out, peak, intervals, desk, case, buy_price):
    """Synthesize a scenario file from the packaged daily patterns."""
    mask = MarketMask() if case is None else MarketMask.from_case(case)
    if desk:
        if peak is not None or intervals is not None:
            raise click.UsageError("--desk fixes the system size; drop --peak/--intervals")
        scn = harness.desk_scenario(mask=mask)
    else:
        peak = 1000.0 if peak is None else peak
        intervals = 96 if intervals is None else intervals
        if intervals < 1 or 96 % intervals != 0:
            raise click.UsageError("--intervals must divide 96")
        stride = 96 // intervals
        price, load = default_patterns()
        try:
            scn = synthesize_scenario(
                (price[::stride], load[::stride]),
                peak_load_mw=peak,
                delta_t=24.0 / intervals,
                market_mask=mask,
                bess_price_bids=BessPriceBids(buy=buy_price),
            )
        except ScenarioError as err:
            raise _fail(EXIT_USAGE, str(err))
    with _writing(out):
        save_scenario(scn, out)
    click.echo(f"wrote {out}: {scn.n_intervals} intervals, {scn.n_generators} generators, "
               f"mask {scn.market_mask.label()}")


@cli.command()
@click.option("--scenario", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--case", type=click.IntRange(1, 4), default=None,
              help="Override the scenario's participation case.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Also write the price table as CSV.")
def clear(scenario, case, out):
    """Clear the joint market with a passive (zero-bid) storage unit."""
    scn = _load(scenario, case)
    n = scn.n_intervals
    layout = clearing.LlLayout(scn)   # _load has refused a scenario without one
    try:
        batch = clearing.clear_batch(layout, np.arange(n), np.zeros((n, 4)))
    except clearing.ClearingError as err:
        raise _fail(_exit_code_for(err), str(err))
    table = np.column_stack((layout.prices_from(batch.t, batch.row_duals), batch.objective))
    text = harness.csv_text(
        ["t", "price_energy", "price_reserve", "price_regcap", "price_mileage", "clearing_cost"],
        [(t, *row) for t, row in enumerate(table.tolist())])
    if out is not None:
        with _writing(out):
            Path(out).write_text(text, encoding="ascii", newline="\n")
    click.echo(text, nl=False)


@cli.command()
@click.option("--scenario", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--case", type=click.IntRange(1, 4), default=None,
              help="Override the scenario's participation case.")
@click.option("--out", type=click.Path(file_okay=False), default="out", show_default=True,
              help="Directory for the report files.")
@click.option("--terminal-soc-equality", is_flag=True,
              help="Pin end-of-horizon SOC back to the initial level.")
@solver_options
def solve(scenario, case, out, terminal_soc_equality, gap, time_limit):
    """Solve one bidding case and write its report files."""
    scn = _load(scenario, case)
    _report_dir(out)
    try:
        report = harness.run_case(
            scn,
            settings=harness.SolverSettings(gap_tol=gap, time_limit=time_limit),
            terminal_soc_equality=terminal_soc_equality,
        )
    except harness.HarnessError as err:
        raise _fail(_exit_code_for(err), str(err))
    with _writing(out):
        files = harness.emit_outputs(report, out)
    click.echo(f"{report.label}: objective {report.objective!r}, gap {report.mip_gap!r}, "
               f"status {report.status}")
    for key in sorted(files):
        click.echo(f"  {key}: {files[key]}")
    for name, total in sorted(report.totals.items()):
        click.echo(f"  revenue[{name}]: {total!r}")


@cli.command()
@click.option("--scenario", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--case", type=click.IntRange(1, 4), default=None,
              help="Override the scenario's participation case.")
@click.option("--step", type=float, default=0.5, show_default=True, callback=_not_nan,
              help="Bid grid step in MW.")
def oracle(scenario, case, step):
    """Brute-force the optimal bids of a tiny instance by grid search."""
    scn = _load(scenario, case)
    try:
        res = harness.brute_force_oracle(scn, step)
    except (harness.OracleSizeError, ValueError) as err:
        raise click.UsageError(str(err))
    except (harness.HarnessError, clearing.ClearingError) as err:
        raise _fail(_exit_code_for(err), str(err))
    click.echo(f"oracle revenue {res.revenue!r} "
               f"(step {res.grid_step}, {res.evaluated} evaluated, {res.feasible} feasible)")
    for t, (sell, buy, reserve, regcap) in enumerate(res.bids.tolist()):
        click.echo(f"  t{t}: sell {sell} buy {buy} reserve {reserve} regcap {regcap}")


@cli.command("export-mps")
@click.option("--scenario", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--case", type=click.IntRange(1, 4), default=None,
              help="Override the scenario's participation case.")
@click.option("--out", type=click.Path(dir_okay=False), required=True,
              help="Where to write the MPS file.")
@click.option("--name", default="BESSBID", show_default=True, help="MPS model name.")
def export_mps(scenario, case, out, name):
    """Export the assembled bidding MILP in MPS format."""
    try:
        solver.check_mps_name(name)
    except ValueError as err:
        raise _fail(EXIT_USAGE, str(err))
    scn = _load(scenario, case)
    try:
        built = bilevel.assemble_milp(scn)
    except bilevel.BilevelError as err:
        raise _fail(_exit_code_for(err), str(err))
    with _writing(out):
        solver.export_mps(built.milp, out, name=name)
    c = built.counts
    click.echo(f"wrote {out}: {c['rows']} rows, {c['columns']} columns, "
               f"{c['binaries']} binaries")


@cli.command("agc-check")
@click.option("--seeds", type=click.IntRange(min=1), default=100, show_default=True,
              help="Number of seeded regulation traces.")
@click.option("--samples", type=click.IntRange(min=2), default=agc.DEFAULT_SAMPLES,
              show_default=True, help="Samples per trace.")
@click.option("--scenario", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Solve this scenario and replay the traces against its schedule.")
@click.option("--case", type=click.IntRange(1, 4), default=None,
              help="Override the scenario's participation case.")
@solver_options
def agc_check(seeds, samples, scenario, case, gap, time_limit):
    """Validate regulation traces; optionally replay them against a solved case."""
    scn = None if scenario is None else _load(scenario, case)
    traces = [agc.generate_signal(s, samples=samples) for s in range(seeds)]
    worst_mean = max(abs(float(trace.signal.mean())) for trace in traces)
    click.echo(f"{seeds} traces x {samples} samples: bounded, worst |mean| {worst_mean:.3e}")
    if scn is None:
        return
    try:
        report = harness.run_case(
            scn, settings=harness.SolverSettings(gap_tol=gap, time_limit=time_limit))
    except harness.HarnessError as err:
        raise _fail(_exit_code_for(err), str(err))
    runs = harness.replay_traces(report, scn.bess, traces)
    breaches = sum(r.breached for r in runs)
    worst_delta = max(abs(r.regulation_soc_delta) for r in runs)
    click.echo(f"{len(runs)} interval replays: {breaches} SOC breaches, "
               f"worst end-of-interval regulation SOC delta {worst_delta:.3e} MWh")
    if breaches:
        raise _fail(EXIT_VERIFICATION, f"{breaches} SOC excursions beyond limits")


@cli.command()
@click.option("--scenario", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--cases", default="1,2,3,4", show_default=True,
              help="Comma-separated participation cases to run.")
@click.option("--out", type=click.Path(file_okay=False), default=None,
              help="Directory for per-case report files and the comparison table.")
@solver_options
def compare(scenario, cases, out, gap, time_limit):
    """Run several participation cases and compare their revenues."""
    try:
        case_ids = [int(c) for c in cases.split(",") if c.strip()]
    except ValueError:
        raise click.UsageError(f"--cases must be comma-separated integers, got {cases!r}")
    if not case_ids or any(c not in (1, 2, 3, 4) for c in case_ids):
        raise click.UsageError("--cases entries must be in 1..4")
    if len(set(case_ids)) < len(case_ids):
        raise click.UsageError(f"--cases entries must not repeat, got {cases!r}")
    scn = _load(scenario)
    if out is not None:
        _report_dir(out)
    settings = harness.SolverSettings(gap_tol=gap, time_limit=time_limit)
    reports = []
    for c in case_ids:
        try:
            reports.append(harness.run_case(scn, mask=MarketMask.from_case(c),
                                            settings=settings))
        except harness.HarnessError as err:
            raise _fail(_exit_code_for(err), f"case {c}: {err}")
    comparison = harness.compare_cases(reports)
    text = comparison.to_text()
    click.echo(text)
    if out is not None:
        base = Path(out)
        with _writing(out):
            for report in reports:
                harness.emit_outputs(report, base / report.label)
            with (base / "comparison.txt").open("w", encoding="ascii", newline="\n") as fh:
                fh.write(text + "\n")
    if not all(comparison.monotonicity.values()):
        raise _fail(EXIT_VERIFICATION, "participation monotonicity violated")


def main(argv: list[str] | None = None) -> int:
    try:
        cli(args=argv, prog_name="bessbid")
    except SystemExit as exc:
        return int(exc.code or 0)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
