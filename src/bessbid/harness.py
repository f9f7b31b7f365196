"""Case orchestration: solve bidding cases, decompose revenue, replay AGC
traces, brute-force tiny instances, compare market-participation policies,
and emit deterministic report files.

Case numbering follows the participation policies: case 1 = energy only,
case 2 = energy+reserve, case 3 = energy+regulation, case 4 = all markets.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import multiprocessing
import operator
import os
import time
from collections import namedtuple
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import agc, bilevel, clearing, solver
from .bilevel import BilevelSolution, VerificationReport
from .scenario import (
    DEFAULT_GENERATOR_TABLE,
    BessParams,
    BessPriceBids,
    GeneratorParams,
    MarketMask,
    Scenario,
    default_patterns,
    scenario_to_text,
    synthesize_scenario,
    validate_scenario,
)

SCHEMA_INTERVALS = "bessbid-intervals/1"
SCHEMA_SUMMARY = "bessbid-summary/1"
REVENUE_DECIMALS = 9
# largest grid the oracle will clear: combinations per interval to the power
# of the interval count
ORACLE_MAX_EVALUATIONS = 20_000_000
# pairs of an interval-0 and an interval-1 grid point the oracle joins at
# once: each of the join's arrays stays within 256 kB, at any grid under the
# cap, and a block stays in cache (blocks of 2**18 pairs joined acceptance 1
# in twice the time)
ORACLE_JOIN_BLOCK = 1 << 15


class HarnessError(RuntimeError):
    pass


class CaseInfeasibleError(HarnessError):
    pass


class CaseTimeLimitError(HarnessError):
    pass


class VerificationFailedError(HarnessError):
    def __init__(self, report: VerificationReport):
        super().__init__(report.summary())
        self.report = report


class OracleSizeError(HarnessError):
    pass


class SolverFailedError(HarnessError):
    """HiGHS failed, refused an option or broke a numeric contract, or the
    regime cover could not certify."""


def scenario_fingerprint(scn: Scenario) -> str:
    return hashlib.sha256(scenario_to_text(scn).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SolverSettings:
    gap_tol: float = 1e-6
    time_limit: float | None = None


# One interval of the published schedule, its fields the intervals.csv
# columns in order; revenues are recomputed from prices, awards, and interval
# length, never copied from the optimizer.
IntervalRecord = namedtuple("IntervalRecord", [
    "t", "delta_t", "u",
    "sell_bid", "buy_bid", "reserve_bid", "regcap_bid",
    "sell_award", "buy_award", "reserve_award", "regcap_award", "mileage_award",
    "price_energy", "price_reserve", "price_regcap", "price_mileage",
    "soc",
    "revenue_energy", "revenue_reserve", "revenue_regcap", "revenue_mileage",
])

FIELD_ORDER = list(IntervalRecord._fields)
REVENUE_FIELDS = FIELD_ORDER[-4:]
_revenues = operator.attrgetter(*REVENUE_FIELDS)


@dataclass
class BessSchedule:
    """Published storage schedule: bids, awards, prices, SOC, and the
    per-market revenue decomposition."""

    records: list[IntervalRecord]
    soc_init: float

    @classmethod
    def from_solution(cls, sol: BilevelSolution) -> "BessSchedule":
        layout = sol.layout
        dt = layout.delta_t
        awards = sol.x[:, layout.col_bs:]   # sell, buy, reserve, regcap, mileage
        p = layout.prices_from(np.arange(len(dt)), sol.row_duals)
        # each market's award, the energy one net of the buy award
        net = np.column_stack((awards[:, 0] - awards[:, 1], awards[:, 2:]))
        # IntervalRecord's fields from sell_bid on, one row per interval
        values = np.column_stack((sol.bids, awards, p, sol.soc, p * net * dt[:, None]))
        # adding 0.0 turns the -0.0 that a tiny negative rounds to into 0.0
        records = [IntervalRecord(t, d, u, *(round(x, REVENUE_DECIMALS) + 0.0 for x in row))
                   for t, (d, u, row) in enumerate(zip(dt.tolist(), sol.u.tolist(),
                                                       values.tolist()))]
        return cls(records=records, soc_init=layout.scenario.bess.soc_init)

    def totals(self) -> dict[str, float]:
        columns = zip(*map(_revenues, self.records))
        out = {f.removeprefix("revenue_"): sum(c) for f, c in zip(REVENUE_FIELDS, columns)}
        out["total"] = sum(out.values())
        return {k: round(v, REVENUE_DECIMALS) for k, v in out.items()}


@dataclass
class CaseReport:
    label: str
    mask: MarketMask
    scenario_fingerprint: str
    status: str
    mip_gap: float
    objective: float
    schedule: BessSchedule
    totals: dict[str, float]
    verification: VerificationReport
    counts: dict[str, int]


def run_case(scn: Scenario, mask: MarketMask | None = None,
             settings: SolverSettings = SolverSettings(),
             terminal_soc_equality: bool = False) -> CaseReport:
    """Solve, verify, and summarize one participation case.

    The published solve is the bidding problem over each interval's
    certified clearing regimes (:func:`clearing.regimes` on the scenario's
    :class:`clearing.LlLayout`, :func:`bilevel.assemble_regime_milp`), and
    :func:`bilevel.verify_bilevel_solution` checks its schedule. The
    report's counts describe the paper's big-M MILP, computed from the
    layout's sizes (:func:`bilevel.milp_counts`) without assembling it.
    ``settings.time_limit`` covers the cover and the MILP together.

    A cover that cannot certify raises, and no MILP is assembled: a market
    that does not clear at zero bids (one that clears only when the storage
    buys, say) is :class:`CaseInfeasibleError`, the deadline passing during
    the cover is :class:`CaseTimeLimitError`, and any other failing clear
    or held duals are :class:`SolverFailedError`. A verification failure
    aborts the run: a report built on an unverified solve would publish
    schedule rows the clearing does not support.
    """
    if mask is not None:
        scn = scn.with_mask(mask)
    problems = validate_scenario(scn)
    if problems:
        raise HarnessError("invalid scenario: " + "; ".join(problems))

    deadline = None if settings.time_limit is None else time.perf_counter() + settings.time_limit
    layout = clearing.LlLayout(scn)
    counts = bilevel.milp_counts(bilevel.derive_kkt(layout), scn.market_mask,
                                 terminal_soc_equality)
    try:
        cover = clearing.regimes(layout, deadline)
    except TimeoutError as exc:
        raise CaseTimeLimitError(
            f"time limit {settings.time_limit}s reached (no incumbent)") from exc
    except clearing.InfeasibleMarketError as exc:
        raise CaseInfeasibleError(str(exc)) from exc
    except clearing.ClearingError as exc:
        raise SolverFailedError(str(exc)) from exc
    outcome = _solve(bilevel.assemble_regime_milp(cover, terminal_soc_equality),
                     settings, deadline)
    sol = bilevel.regime_solution(cover, outcome)
    report = bilevel.verify_bilevel_solution(sol)
    if not report.passed:
        raise VerificationFailedError(report)

    schedule = BessSchedule.from_solution(sol)
    return CaseReport(
        label=scn.market_mask.label(),
        mask=scn.market_mask,
        scenario_fingerprint=scenario_fingerprint(scn.with_mask(MarketMask())),
        status=outcome.status,
        mip_gap=float(outcome.mip_gap) if outcome.mip_gap is not None else 0.0,
        objective=float(outcome.objective),
        schedule=schedule,
        totals=schedule.totals(),
        verification=report,
        counts=counts,
    )


def _solve(milp: solver.MilpProblem, settings: SolverSettings,
           deadline: float | None) -> solver.SolveOutcome:
    """Solve ``milp`` at ``settings.gap_tol`` in the time left before
    ``deadline`` (a :func:`time.perf_counter` time); a solve that ends
    without an incumbent to publish raises its :class:`HarnessError`."""
    time_limit = None if deadline is None else max(deadline - time.perf_counter(), 0.0)
    try:
        outcome = solver.solve_milp(milp, gap_tol=settings.gap_tol, time_limit=time_limit)
    except solver.SolverError as exc:
        raise SolverFailedError(f"solver failed: {exc}") from exc
    if outcome.status == solver.INFEASIBLE:
        raise CaseInfeasibleError("bidding problem infeasible")
    if outcome.status == solver.TIME_LIMIT:
        found = "no incumbent" if outcome.mip_gap is None else f"gap {outcome.mip_gap}"
        raise CaseTimeLimitError(f"time limit {settings.time_limit}s reached ({found})")
    if outcome.status not in (solver.OPTIMAL, solver.GAP_LIMIT):
        raise HarnessError(f"solver returned {outcome.status}")
    return outcome


def replay_agc(report: CaseReport, bess: BessParams, seeds: range | list[int] = range(10),
               samples: int = agc.DEFAULT_SAMPLES) -> list[agc.ExcursionReport]:
    """Replay seeded AGC traces against every interval of a solved case
    (:func:`replay_traces` of :func:`agc.generate_signal`'s trace of each
    seed)."""
    return replay_traces(report, bess, (agc.generate_signal(seed, samples=samples)
                                        for seed in seeds))


def replay_traces(report: CaseReport, bess: BessParams,
                  traces: Iterable[agc.AgcTrace]) -> list[agc.ExcursionReport]:
    """Replay AGC traces against every interval of a solved case, one trace
    at a time: its reports in interval order, trace after trace. Interval
    ``t`` starts at the SOC interval ``t - 1`` ends at."""
    sched = report.schedule
    dt, buy, sell, regcap, soc = np.array(
        [(r.delta_t, r.buy_award, r.sell_award, r.regcap_award, r.soc)
         for r in sched.records]).T
    start = np.concatenate(([sched.soc_init], soc[:-1]))
    out: list[agc.ExcursionReport] = []
    for trace in traces:
        out += agc.replay(trace, start, buy, sell, regcap, dt, bess.soc_min, bess.soc_max)
    return out


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


@dataclass
class OracleResult:
    revenue: float
    bids: np.ndarray        # (intervals, 4): sell, buy, reserve, regcap per interval
    evaluated: int
    feasible: int
    grid_step: float


def _interval_grid(scn: Scenario, step: float) -> np.ndarray:
    """Every (sell, buy, reserve, regcap) bid of one interval's grid, one row
    each, as a ``(k, 4)`` array in grid order."""
    rate = scn.bess.power_rate
    mask = scn.market_mask
    # half-open grid, then the rate endpoint; arange never emits the stop
    values = [float(v) for v in np.arange(0.0, rate, step)] + [rate]
    zero = [0.0]
    energy = values if mask.energy else zero
    combos = []
    for s, d in itertools.product(energy, energy):
        if s > 0.0 and d > 0.0:
            continue  # one side of the energy market per interval
        for rs in (values if mask.reserve else zero):
            for rg in (values if mask.regulation else zero):
                combos.append((s, d, rs, rg))
    return np.array(combos, dtype=float)


def _grid_size(scn: Scenario, step: float) -> int | float:
    """``len(_interval_grid(scn, step))``, counted without building the
    grid; ``inf`` where the rate over the step overflows."""
    ratio = scn.bess.power_rate / step
    if ratio == math.inf:
        return math.inf
    # np.arange(0, rate, step) holds ceil(rate / step) values, and one for a
    # step above the rate or infinite; the grid adds the rate
    n = max(math.ceil(ratio), 1) + 1
    mask = scn.market_mask
    # sell and buy pairs with one side at zero, the grid's only zero value
    energy = 2 * n - 1 if mask.energy else 1
    return energy * (n if mask.reserve else 1) * (n if mask.regulation else 1)


def _clear_chunk(scn: Scenario, bids: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Clear pairs ``start`` to ``stop - 1`` of the flat grid, where pair
    ``k`` is interval ``k // len(bids)`` at row ``k % len(bids)`` of the
    grid ``bids``.

    One row per pair: the storage revenue, then the sell, buy, reserve and
    regulation-capacity awards. The chunk's pairs clear in one batch, on
    one clearing model and one storage-free model.
    """
    pairs = np.arange(start, stop)
    layout = clearing.LlLayout(scn)
    batch = clearing.clear_batch(layout, pairs // len(bids), bids[pairs % len(bids)])
    return np.column_stack((bilevel.direct_revenue_value(layout, batch.x, batch.row_duals),
                            batch.x[:, layout.col_bs:layout.col_brgm]))


def _clear_grid(scn: Scenario, bids: np.ndarray) -> np.ndarray:
    """:func:`_clear_chunk` over every interval's grid, in grid order.

    The pairs are split into one contiguous chunk per CPU the process may
    run on, each cleared in a forked worker; with one CPU the grid clears
    in this process. The clears are independent and each starts cold, so
    the rows do not depend on the number of workers.
    """
    total = scn.n_intervals * len(bids)
    workers = min(len(os.sched_getaffinity(0)), total)
    if workers <= 1:
        return _clear_chunk(scn, bids, 0, total)
    edges = [total * w // workers for w in range(workers + 1)]
    solver.stop_threads()  # a forked worker must not inherit HiGHS's threads
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        chunks = pool.map(_clear_chunk, itertools.repeat(scn), itertools.repeat(bids),
                          edges[:-1], edges[1:])
        return np.concatenate(list(chunks))


def brute_force_oracle(scn: Scenario, bid_grid_step: float) -> OracleResult:
    """Grid search over quantity bids with exact per-interval clearing.

    Clears each interval once per grid combination, in forked workers when
    the process may run on more than one CPU, then joins intervals under
    the SOC recursion and headroom rules. The result is a guaranteed
    lower bound on the true optimum (grid under-approximation). Only
    horizons of one or two intervals are supported; anything larger is the
    MILP's job, and a grid over ``ORACLE_MAX_EVALUATIONS`` is refused before
    any of it is built. An invalid scenario (:func:`validate_scenario`) is
    refused first, as :func:`run_case` refuses it.
    """
    problems = validate_scenario(scn)
    if problems:
        raise HarnessError("invalid scenario: " + "; ".join(problems))
    if scn.n_intervals > 2:
        raise OracleSizeError(f"oracle supports at most 2 intervals, got {scn.n_intervals}")
    if not bid_grid_step > 0:   # a NaN step too
        raise ValueError("bid_grid_step must be > 0")
    total = _grid_size(scn, bid_grid_step) ** scn.n_intervals
    if total > ORACLE_MAX_EVALUATIONS:
        raise OracleSizeError(
            f"{total} grid evaluations exceed the {ORACLE_MAX_EVALUATIONS} cap; "
            "enlarge the step or shrink the instance"
        )
    bess = scn.bess
    grid = _interval_grid(scn, bid_grid_step)

    awards = _clear_grid(scn, grid)

    def interval_arrays(t: int):
        a = awards[t * len(grid):(t + 1) * len(grid)]
        dt = scn.intervals[t].delta_t
        rev, p_bs, p_bd, p_brs, p_brgc = a.T
        net = p_bd - p_bs - p_brs
        envelope = ((net >= -bess.power_rate + p_brgc - 1e-9)
                    & (net <= bess.power_rate - p_brgc + 1e-9))
        return rev, (p_bd - p_bs) * dt, (p_brgc + p_brs) * dt, p_brgc * dt, envelope

    rev0, de0, hold0, ceil0, env0 = interval_arrays(0)
    soc1 = bess.soc_init + de0
    ok0 = (env0
           & (soc1 >= bess.soc_min + hold0 - 1e-9)
           & (soc1 <= bess.soc_max - ceil0 + 1e-9))

    if scn.n_intervals == 1:
        evaluated = len(grid)
        if not ok0.any():
            raise HarnessError("no feasible grid point; the zero bid should always be feasible")
        best = int(np.argmax(np.where(ok0, rev0, -np.inf)))
        return OracleResult(revenue=float(rev0[best]), bids=grid[[best]],
                            evaluated=evaluated, feasible=int(ok0.sum()),
                            grid_step=bid_grid_step)

    rev1, de1, hold1, ceil1, env1 = interval_arrays(1)
    evaluated = len(grid) ** 2
    # only an interval-0 point feasible on its own and an interval-1 point
    # inside its power envelope can pair; both keep grid order, and a block's
    # best replaces the kept one only when strictly greater, so the first
    # best pair is the one the full grid gives
    rows, cols = np.flatnonzero(ok0), np.flatnonzero(env1)
    # interval 1's values at the points that can pair
    rev1, de1 = rev1[cols], de1[cols]
    soc_lo = bess.soc_min + hold1[cols] - 1e-9
    soc_hi = bess.soc_max - ceil1[cols] + 1e-9
    feasible, revenue, best = 0, -np.inf, None
    step = max(1, ORACLE_JOIN_BLOCK // max(1, len(cols)))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        soc2 = soc1[block, None] + de1
        ok = (soc2 >= soc_lo) & (soc2 <= soc_hi)
        count = int(np.count_nonzero(ok))
        if not count:
            continue
        feasible += count
        totals = np.where(ok, rev0[block, None] + rev1, -np.inf)
        k = int(np.argmax(totals))
        if totals.flat[k] > revenue:
            revenue, best = float(totals.flat[k]), [block[k // len(cols)], cols[k % len(cols)]]
    if not feasible:
        raise HarnessError("no feasible grid point; the zero bid should always be feasible")
    return OracleResult(
        revenue=revenue,
        bids=grid[best],
        evaluated=evaluated,
        feasible=feasible,
        grid_step=bid_grid_step,
    )


# ---------------------------------------------------------------------------
# cross-case comparison and file emission
# ---------------------------------------------------------------------------


@dataclass
class CaseComparison:
    rows: list[dict]
    monotonicity: dict[str, bool]

    def to_text(self) -> str:
        header = f"{'case':<10}{'energy':>14}{'reserve':>14}{'regcap':>14}{'mileage':>14}{'total':>14}"
        lines = [header]
        for r in self.rows:
            lines.append(
                f"{r['label']:<10}"
                f"{r['energy']:>14.4f}{r['reserve']:>14.4f}"
                f"{r['regcap']:>14.4f}{r['mileage']:>14.4f}{r['total']:>14.4f}"
            )
        for name, ok in sorted(self.monotonicity.items()):
            lines.append(f"{name}: {'ok' if ok else 'VIOLATED'}")
        return "\n".join(lines)


def _mask_subset(a: MarketMask, b: MarketMask) -> bool:
    return ((not a.energy or b.energy) and (not a.reserve or b.reserve)
            and (not a.regulation or b.regulation))


def compare_cases(reports: list[CaseReport]) -> CaseComparison:
    """Cross-case revenue table with participation-monotonicity flags.

    All reports must come from the same scenario; widening the market mask
    can only add feasible bid strategies, so totals along every mask-subset
    chain must be non-decreasing (up to the achieved MIP gaps).
    """
    if not reports:
        raise ValueError("no case reports to compare")
    prints = {r.scenario_fingerprint for r in reports}
    if len(prints) > 1:
        raise ValueError(f"scenario fingerprint mismatch across reports: {sorted(prints)}")
    rows = []
    for r in reports:
        row = {"label": r.label, "objective": r.objective, "gap": r.mip_gap}
        row.update(r.totals)
        rows.append(row)
    monotonicity: dict[str, bool] = {}
    for ra, rb in itertools.permutations(reports, 2):
        if ra.label != rb.label and _mask_subset(ra.mask, rb.mask):
            slack = abs(rb.objective) * max(ra.mip_gap, rb.mip_gap) + 1e-6
            monotonicity[f"{ra.label}<={rb.label}"] = (
                ra.totals["total"] <= rb.totals["total"] + slack
            )
    return CaseComparison(rows=rows, monotonicity=monotonicity)


def csv_text(header: list[str], rows) -> str:
    """The published CSV text of a table: the header, then one line per row
    of Python ints and floats, each value as its repr (for a float the
    shortest literal that reads back to it), every line ended by ``\\n``."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


def emit_outputs(report: CaseReport, out_dir: str | Path) -> dict[str, str]:
    """Write the interval table, the case summary, and plot-data series.

    Output bytes are a pure function of the report: no timestamps, no
    environment details, keys sorted.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = report.schedule.records
    doc = {
        "schema": SCHEMA_SUMMARY,
        "case": report.label,
        "mask": report.mask.label(),
        "scenario_fingerprint": report.scenario_fingerprint,
        "status": report.status,
        "mip_gap": float(report.mip_gap),
        "objective": float(report.objective),
        "totals": {k: float(v) for k, v in report.totals.items()},
        "counts": dict(report.counts),
        "verification": {
            "passed": report.verification.passed,
            "mismatches": list(report.verification.mismatches),
            "notes": list(report.verification.notes),
            "revenue_milp": float(report.verification.revenue_milp),
            "revenue_from_duals": float(report.verification.revenue_from_duals),
        },
    }
    texts = {
        "intervals.csv": f"# schema: {SCHEMA_INTERVALS}\n" + csv_text(FIELD_ORDER, records),
        "soc_trace.csv": csv_text(["t", "soc"], [(-1, report.schedule.soc_init)]
                                  + [(r.t, r.soc) for r in records]),
        "revenue_traces.csv": csv_text(["t", *REVENUE_FIELDS],
                                       [(r.t, *_revenues(r)) for r in records]),
        "summary.yaml": yaml.safe_dump(doc, sort_keys=True),
    }
    files: dict[str, str] = {}
    for name, text in texts.items():
        path = out / name
        path.write_text(text, encoding="ascii", newline="\n")
        files[path.stem] = str(path)
    return files


# ---------------------------------------------------------------------------
# reference fixtures
# ---------------------------------------------------------------------------


def reference_scenario(mask: MarketMask = MarketMask()) -> Scenario:
    """Full-size reference system: 96 intervals, five generators, 400 MWh
    storage, buy price bid 100. Sized for MPS export rather than the
    embedded solver."""
    return synthesize_scenario(
        default_patterns(),
        market_mask=mask,
        bess_price_bids=BessPriceBids(buy=100.0),
    )


def desk_scenario(mask: MarketMask = MarketMask()) -> Scenario:
    """Reduced fixture that the embedded solver handles quickly.

    24 hourly intervals subsampled from the packaged patterns, three
    generators with capacities and ramps scaled to 30%, a 100 MWh / 10 MW
    storage unit starting empty, and a 250 MW peak. The storage buy price
    bid, 100, sits above every clearing price so demand bids clear whenever
    submitted.
    """
    price, load = default_patterns()
    rows = []
    for gid, base in (("g1", 0), ("g2", 1), ("g4", 3)):
        g = DEFAULT_GENERATOR_TABLE[base]
        rows.append(GeneratorParams(
            gen_id=gid,
            base_price_bid=g.base_price_bid,
            p_max=g.p_max * 0.3,
            reserve_ramp=g.reserve_ramp * 0.3,
            regulation_ramp=g.regulation_ramp * 0.3,
        ))
    return synthesize_scenario(
        (price[::4], load[::4]),
        generator_table=tuple(rows),
        bess_params=BessParams(energy_capacity=100.0, power_rate=10.0),
        peak_load_mw=250.0,
        delta_t=1.0,
        market_mask=mask,
        bess_price_bids=BessPriceBids(buy=100.0),
    )
