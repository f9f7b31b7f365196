"""Seeded inputs, passes and correctness gates of the three workloads.

Each workload is a closed loop with one caller: a pass runs its steps one
after another, and the next pass starts when the previous one has finished.
Only the steps are timed; the gates that check their outputs are not.

Seed 0 gives the documented fixtures exactly. On reference-export another
seed perturbs an instance of the same size: load scale and generator bid
jitter of +-5 %, and an initial SOC moved by up to 10 % of the storage
capacity. The two workloads that solve a MILP keep the fixture on every seed.
The desk system's seed moves the offset of the AGC trace seeds instead:
branch-and-bound time is not smooth in the instance data (on a 2-core Xeon
VM, passes of perturbed desk instances took 5.6 s to 9.5 s against about
6-7 s for the fixture), which no run-to-run bound could absorb. oracle-grid
runs the acceptance-1 instance on every seed, because perturbed instances
hit a defect of the program: extraction can return a bid of about -1e-15,
which the verifier's re-clear refuses (``KNOWN_DEFECT_SEEDS``).

An operation the program refuses (it raises) and a check that finds a wrong
output both count as failed, and either makes the run incorrect.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import numpy as np

# program functions are called through their modules, where a traced run
# has wrapped them
from bessbid import bilevel, cli, harness, scenario, solver
from bessbid.scenario import (
    DEFAULT_BESS,
    DEFAULT_GENERATOR_TABLE,
    BessParams,
    BessPriceBids,
    GeneratorParams,
    MarketMask,
)

DESK_GAP = 0.01
ORACLE_GAP = 1e-9
ORACLE_TOL = 1e-5
AGC_TRACES = 100

# documented counts: acceptance 1 (every oracle-grid seed) and the reference
# case-4 model (reference-export at seed 0)
ORACLE_FIXTURE = {"evaluated": 6456681, "feasible": 1163744}
REFERENCE_FIXTURE = {"columns": 13248, "rows": 17088, "binaries": 5184}
# rounds of synth/clear/export/import in one reference-export pass: a round
# takes about 2 s, shorter than the spells of host slowdown seen on a shared
# 2-core VM, so a pass of one round reads either the fast or the slow speed
REFERENCE_ROUNDS = 4

# acceptance-1 instance: two intervals, two generators, 10 MWh / 5 MW storage
ORACLE_GENERATORS = (GeneratorParams("a", 10.0, 100.0, 20.0, 10.0),
                     GeneratorParams("b", 20.0, 80.0, 16.0, 8.0))


class Gates:
    """Counts attempted operations, failed operations and failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def operation_failed(self, what: str, detail: str) -> None:
        self.failed += 1
        self.messages.append(f"{what}: {detail}")

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(f"check failed: {what}")
        return ok


class Clock:
    """Wall time of the steps of one pass."""

    def __init__(self):
        self.steps: dict[str, float] = {}

    @contextmanager
    def step(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.steps[name] = self.steps.get(name, 0.0) + time.perf_counter() - t0

    @property
    def total(self) -> float:
        return sum(self.steps.values())


@dataclasses.dataclass(frozen=True)
class Perturbation:
    load_scale: float = 1.0
    bid_factors: tuple[float, ...] | None = None
    soc_shift: float = 0.0   # share of the energy capacity

    @classmethod
    def from_seed(cls, seed: int, n_generators: int) -> "Perturbation":
        if seed == 0:
            return cls()
        rng = np.random.default_rng(seed)
        return cls(load_scale=float(rng.uniform(0.95, 1.05)),
                   bid_factors=tuple(float(f) for f in rng.uniform(0.95, 1.05, n_generators)),
                   soc_shift=float(rng.uniform(-0.1, 0.1)))

    def generators(self, table):
        if self.bid_factors is None:
            return tuple(table)
        return tuple(dataclasses.replace(g, base_price_bid=g.base_price_bid * f)
                     for g, f in zip(table, self.bid_factors))

    def bess(self, bess: BessParams) -> BessParams:
        soc = bess.soc_init + self.soc_shift * bess.energy_capacity
        return dataclasses.replace(bess, soc_init=min(max(soc, bess.soc_min), bess.soc_max))


def _attempt(gates: Gates, clock: Clock, name: str, fn, *args, **kwargs):
    """Run one timed program call; a raise counts as a failed operation."""
    gates.attempted += 1
    try:
        with clock.step(name):
            return fn(*args, **kwargs)
    except Exception as err:  # the gate reports every failure by name
        lines = "; ".join(line.strip() for line in str(err).splitlines())
        gates.operation_failed(name, f"{type(err).__name__}: {lines}")
        return None


def _cli(gates: Gates, clock: Clock, name: str, argv: list[str]) -> str | None:
    """``bessbid <argv>`` in-process; returns its stdout or None on failure."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = _attempt(gates, clock, name, cli.main, argv)
    if code is None:
        return None
    if code != 0:
        gates.operation_failed(name, f"exit code {code}")
        return None
    return buf.getvalue()


def _same_problem(a: solver.MilpProblem, b: solver.MilpProblem) -> bool:
    if a.a.shape != b.a.shape:
        return False
    diff = (a.a.tocsr() - b.a.tocsr())
    diff.eliminate_zeros()
    return (diff.nnz == 0
            and np.array_equal(a.c, b.c) and np.array_equal(a.senses, b.senses)
            and np.array_equal(a.rhs, b.rhs) and np.array_equal(a.lower, b.lower)
            and np.array_equal(a.upper, b.upper) and a.maximize == b.maximize
            and np.array_equal(np.asarray(a.integrality, bool), np.asarray(b.integrality, bool)))


class Workload:
    """One workload: ``setup`` builds the seeded inputs and returns them in
    comparable form, ``run_pass`` runs the timed steps and their gates."""

    name = ""

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke    # reduced size: warm-up and self-test

    def finish(self, gates: Gates) -> None:
        """Gates that compare passes, run once after the last pass."""


# ---------------------------------------------------------------------------
# desk-compare: bessbid compare + agc-check on the 24-interval desk system
# ---------------------------------------------------------------------------


class DeskCompare(Workload):
    name = "desk-compare"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.summaries: dict[str, set[str]] = {}

    def setup(self, workdir: Path):
        scn = harness.desk_scenario()
        if self.smoke:
            scn = dataclasses.replace(scn, intervals=scn.intervals[:4])
        offset = 0 if self.seed == 0 else int(np.random.default_rng(self.seed).integers(1, 10**6))
        traces = 5 if self.smoke else AGC_TRACES
        self.scn, self.agc_seeds, self.workdir = scn, range(offset, offset + traces), workdir
        return scenario.scenario_to_text(scn), list(self.agc_seeds)

    def run_pass(self, gates: Gates, clock: Clock) -> None:
        settings = harness.SolverSettings(gap_tol=DESK_GAP)
        reports = []
        for case in (1, 2, 3, 4):
            report = _attempt(gates, clock, f"case{case}", harness.run_case, self.scn,
                              mask=MarketMask.from_case(case), settings=settings)
            if report is not None:
                gates.check(report.verification.passed, f"case{case} verified")
                gates.check(report.mip_gap <= DESK_GAP + 1e-12,
                            f"case{case} gap {report.mip_gap} <= {DESK_GAP}")
                reports.append(report)
        if not reports:
            return
        comparison = _attempt(gates, clock, "compare", harness.compare_cases, reports)
        if comparison is not None:
            bad = sorted(k for k, ok in comparison.monotonicity.items() if not ok)
            gates.check(not bad and len(reports) == 4, f"monotonicity flags ok: {bad}")
        for report in reports:
            files = _attempt(gates, clock, "emit", harness.emit_outputs, report,
                             self.workdir / report.label)
            if files is not None:
                digest = hashlib.sha256(Path(files["summary"]).read_bytes()).hexdigest()
                self.summaries.setdefault(report.label, set()).add(digest)
        case4 = next((r for r in reports if r.label == "case4"), None)
        if case4 is not None:
            runs = _attempt(gates, clock, "agc", harness.replay_agc, case4, self.scn.bess,
                            seeds=self.agc_seeds)
            if runs is not None:
                breaches = sum(r.breached for r in runs)
                gates.check(breaches == 0, f"{breaches} AGC SOC breaches")

    def finish(self, gates: Gates) -> None:
        for label, digests in sorted(self.summaries.items()):
            gates.check(len(digests) == 1, f"{label} summary.yaml identical across passes")


# ---------------------------------------------------------------------------
# oracle-grid: brute-force oracle + exact MILP on the acceptance-1 instance
# ---------------------------------------------------------------------------


# perturbed acceptance-1 instances on which run_case raises VerificationFailedError
# (a bid of about -1e-15 from extraction), among seeds 1-40
KNOWN_DEFECT_SEEDS = (2, 18, 19, 25, 32)


def oracle_instance(p: Perturbation):
    return scenario.synthesize_scenario(
        (np.array([1.0, 2.0]), np.array([0.5, 0.6])),
        generator_table=p.generators(ORACLE_GENERATORS),
        bess_params=p.bess(BessParams(energy_capacity=10.0, power_rate=5.0, soc_init=5.0)),
        peak_load_mw=100.0 * p.load_scale,
        delta_t=0.5,
        bess_price_bids=BessPriceBids(buy=100.0),
    )


def grid_size(rate: float, step: float) -> int:
    """Bid combinations per interval of the oracle grid, all markets open:
    sell/buy pairs with at most one side positive, times reserve, times regcap."""
    n = len(np.arange(0.0, rate, step)) + 1
    return (n * n - (n - 1) ** 2) * n * n


class OracleGrid(Workload):
    name = "oracle-grid"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.step = 2.5 if smoke else 0.5

    def setup(self, workdir: Path):
        self.scn = oracle_instance(Perturbation())
        self.combos = grid_size(self.scn.bess.power_rate, self.step)
        return scenario.scenario_to_text(self.scn)

    def run_pass(self, gates: Gates, clock: Clock) -> None:
        oracle = _attempt(gates, clock, "oracle", harness.brute_force_oracle, self.scn, self.step)
        if oracle is not None:
            gates.check(oracle.evaluated == self.combos ** self.scn.n_intervals,
                        f"oracle evaluated {oracle.evaluated} grid points")
            if not self.smoke:
                got = {"evaluated": oracle.evaluated, "feasible": oracle.feasible}
                gates.check(got == ORACLE_FIXTURE, f"acceptance-1 oracle counts {got}")
        report = _attempt(gates, clock, "case4", harness.run_case, self.scn,
                          settings=harness.SolverSettings(gap_tol=ORACLE_GAP))
        if report is not None:
            gates.check(report.verification.passed, "case4 verified")
            if oracle is not None:
                gates.check(report.objective >= oracle.revenue - ORACLE_TOL,
                            f"milp {report.objective!r} >= oracle {oracle.revenue!r} - {ORACLE_TOL}")


# ---------------------------------------------------------------------------
# reference-export: bessbid synth / clear / export-mps on the 96-interval system
# ---------------------------------------------------------------------------


def reference_instance(p: Perturbation, intervals: int):
    price, load = scenario.default_patterns()
    stride = 96 // intervals
    return scenario.synthesize_scenario(
        (price[::stride], load[::stride]),
        generator_table=p.generators(DEFAULT_GENERATOR_TABLE),
        bess_params=p.bess(DEFAULT_BESS),
        peak_load_mw=1000.0 * p.load_scale,
        delta_t=24.0 / intervals,
        bess_price_bids=BessPriceBids(buy=100.0),
    )


class ReferenceExport(Workload):
    name = "reference-export"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.intervals = 8 if smoke else 96
        self.rounds = 1 if smoke else REFERENCE_ROUNDS
        self.expected_model = None
        self.expected_synth = None

    def setup(self, workdir: Path):
        self.perturbation = Perturbation.from_seed(self.seed, len(DEFAULT_GENERATOR_TABLE))
        self.scn = reference_instance(self.perturbation, self.intervals)
        text = scenario.scenario_to_text(self.scn)
        self.input = workdir / "input.scn"
        self.input.write_text(text, encoding="utf-8")
        self.workdir = workdir
        return text

    def run_pass(self, gates: Gates, clock: Clock) -> None:
        for _ in range(self.rounds):
            self._round(gates, clock)

    def _round(self, gates: Gates, clock: Clock) -> None:
        synth = self.workdir / "synth.scn"
        peak = 1000.0 * self.perturbation.load_scale
        out = _cli(gates, clock, "synth",
                   ["synth", "--out", str(synth), "--peak", repr(peak),
                    "--intervals", str(self.intervals), "--buy-price", "100"])
        if out is not None:
            gates.check(synth.read_text(encoding="utf-8") == self._expected_synth(),
                        "synth output")

        prices = self.workdir / "prices.csv"
        out = _cli(gates, clock, "clear",
                   ["clear", "--scenario", str(self.input), "--out", str(prices)])
        if out is not None:
            rows = prices.read_text(encoding="ascii").splitlines()[1:]
            energy = [float(r.split(",")[1]) for r in rows]
            gates.check(len(rows) == self.intervals and all(np.isfinite(energy)),
                        f"clear: {len(rows)} price rows")

        mps = self.workdir / "case4.mps"
        out = _cli(gates, clock, "case4",
                   ["export-mps", "--scenario", str(self.input), "--case", "4",
                    "--out", str(mps)])
        if out is None:
            return
        model = self._expected_model()
        c = model.counts
        gates.check(f"{c['rows']} rows, {c['columns']} columns, {c['binaries']} binaries" in out,
                    f"export-mps counts: {out.strip()}")
        if self.seed == 0 and not self.smoke:
            got = {k: c[k] for k in REFERENCE_FIXTURE}
            gates.check(got == REFERENCE_FIXTURE, f"seed-0 model counts {got}")
        imported = _attempt(gates, clock, "import", solver.import_mps, str(mps))
        if imported is not None:
            gates.check(_same_problem(imported, model.milp), "MPS round trip identical")

    def _expected_synth(self) -> str:
        """``synth`` scales load only; the bid jitter and SOC shift are the
        benchmark's, so at seed 0 alone the input equals the synth output."""
        if self.expected_synth is None:
            p = Perturbation(load_scale=self.perturbation.load_scale)
            self.expected_synth = scenario.scenario_to_text(reference_instance(p, self.intervals))
        return self.expected_synth

    def _expected_model(self):
        """The case-4 model, assembled outside the timed steps once per run, in
        the first pass (which a traced run leaves untraced)."""
        if self.expected_model is None:
            self.expected_model = bilevel.assemble_milp(self.scn.with_mask(MarketMask.from_case(4)))
        return self.expected_model


WORKLOADS = {w.name: w for w in (DeskCompare, OracleGrid, ReferenceExport)}
