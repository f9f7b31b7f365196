"""Shared scenario builders and clears for the test suite."""

import dataclasses
from pathlib import Path

import numpy as np

from bessbid import clearing, harness, solver
from bessbid.scenario import (
    BessParams,
    BessPriceBids,
    GeneratorParams,
    IntervalData,
    MarketMask,
    Scenario,
    synthesize_scenario,
)

GEN_CHEAP = GeneratorParams("a", 10.0, 100.0, 20.0, 10.0)
GEN_DEAR = GeneratorParams("b", 20.0, 100.0, 20.0, 10.0)


ZERO_BIDS = (0.0, 0.0, 0.0, 0.0)   # sell, buy, reserve, regcap


def clear_one(layout, t, bids=ZERO_BIDS):
    """The clear of interval ``t`` of ``layout``'s scenario at one
    (sell, buy, reserve, regcap) bid: a one-row :func:`clearing.clear_batch`."""
    return clearing.clear_batch(layout, t, np.array([bids], dtype=float))


def lp_at(layout, t, bids):
    """Interval ``t``'s clearing LP of ``layout`` at one (sell, buy, reserve,
    regcap) bid."""
    return dataclasses.replace(layout.build_lp(t),
                               rhs=layout.rhs_for(t, np.array([bids], dtype=float))[0])


def solve_one(problem):
    """One LP through :meth:`solver.LpModel.solve_batch`: a batch of one row,
    whose failure, if any, is raised."""
    out = solver.LpModel(problem).solve_batch(problem.rhs[None])
    if out.failure is not None:
        raise solver.SolverError(out.failure)
    return out


def build_scenario(gens, bess, loads, delta_t=0.25, reserve_frac=0.0,
                   regcap_frac=0.0, mileage_factor=1.75, ancillary_ratio=0.0,
                   price_factors=None, mask=MarketMask(), beta=BessPriceBids()):
    """Scenario from explicit loads; requirements scale with load, energy bids
    scale with optional per-interval price factors."""
    intervals = []
    for t, load in enumerate(loads):
        pf = 1.0 if price_factors is None else price_factors[t]
        e_bids = tuple(g.base_price_bid * pf for g in gens)
        regcap = regcap_frac * load
        intervals.append(IntervalData(
            index=t, delta_t=delta_t, load=float(load),
            reserve_req=reserve_frac * load, regcap_req=regcap,
            mileage_req=mileage_factor * regcap,
            gen_energy_bids=e_bids,
            gen_reserve_bids=tuple(0.15 * ancillary_ratio * b for b in e_bids),
            gen_regcap_bids=tuple(0.4 * ancillary_ratio * b for b in e_bids),
            gen_mileage_bids=tuple(0.07 * ancillary_ratio * b for b in e_bids),
            bess_price_bids=beta,
        ))
    return Scenario(generators=tuple(gens), bess=bess,
                    intervals=tuple(intervals), market_mask=mask)


def acceptance_instance(load_scale=1.0, bid_factors=(1.0, 1.0), soc_shift=0.0):
    """Acceptance 1's instance; the arguments perturb its load, generator bids
    and initial SOC the way perfbench's seeded instances do."""
    gens = (GeneratorParams("a", 10.0 * bid_factors[0], 100.0, 20.0, 10.0),
            GeneratorParams("b", 20.0 * bid_factors[1], 80.0, 16.0, 8.0))
    return synthesize_scenario(
        (np.array([1.0, 2.0]), np.array([0.5, 0.6])),
        generator_table=gens,
        bess_params=BessParams(energy_capacity=10.0, power_rate=5.0,
                               soc_init=min(max(5.0 + soc_shift * 10.0, 0.0), 10.0)),
        peak_load_mw=100.0 * load_scale,
        delta_t=0.5,
        bess_price_bids=BessPriceBids(buy=100.0),
    )


def floored_desk():
    """The desk system's first 4 intervals with every generator's floor at
    a third of (the lowest load + 3 MW): the floors total 167.75 MW against
    loads of 164.75-166.68 MW, so the market cannot clear without the
    storage buying."""
    scn = harness.desk_scenario()
    intervals = scn.intervals[:4]
    p_min = (min(it.load for it in intervals) + 3.0) / 3.0
    return dataclasses.replace(
        scn, intervals=intervals,
        generators=tuple(dataclasses.replace(g, p_min=p_min) for g in scn.generators))


def assert_tables_agree(files):
    """``soc_trace.csv`` after its ``-1,<soc_init>`` line is ``intervals.csv``'s
    ``t,soc`` columns, and ``revenue_traces.csv`` its ``t,revenue_*`` columns,
    text for text; ``files`` is :func:`harness.emit_outputs`' dict of paths."""
    rows = [line.split(",") for line in Path(files["intervals"]).read_text().splitlines()[1:]]

    def columns(names):
        cols = [rows[0].index(name) for name in names]
        return [",".join(row[c] for c in cols) for row in rows]

    soc = Path(files["soc_trace"]).read_text().splitlines()
    assert [soc[0]] + soc[2:] == columns(["t", "soc"])
    revenue = Path(files["revenue_traces"]).read_text().splitlines()
    assert revenue == columns(["t", "revenue_energy", "revenue_reserve", "revenue_regcap",
                               "revenue_mileage"])
