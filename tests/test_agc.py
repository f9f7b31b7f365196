"""AGC signal construction and SOC tracking replay."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from bessbid import agc, harness
from bessbid.agc import (
    AgcTrace,
    ExcursionReport,
    generate_signal,
    normalize_signal,
    replay,
)
from bessbid.scenario import MarketMask


def reference_tracking(start_soc, discharge_mw, charge_mw, regulation_mw, delta_t,
                       trace, soc_min, soc_max):
    """One interval's replay, one interval at a time: the arithmetic whose
    bits :func:`agc.replay` keeps for every report field."""
    n = trace.n_samples
    h = delta_t / n
    arb_mw = charge_mw - discharge_mw
    k = np.arange(1, n + 1)
    regulation_energy = np.cumsum(trace.signal * regulation_mw) * h
    soc_path = start_soc + arb_mw * h * k - regulation_energy
    end_soc = float(soc_path[-1])
    end_without_regulation = start_soc + arb_mw * delta_t
    lo = float(min(start_soc, soc_path.min()))
    hi = float(max(start_soc, soc_path.max()))
    steps = np.abs(np.diff(trace.signal, prepend=0.0))
    return ExcursionReport(
        end_soc=end_soc,
        regulation_soc_delta=end_soc - end_without_regulation,
        min_soc=lo,
        max_soc=hi,
        max_excursion=float(np.max(np.abs(regulation_energy), initial=0.0)),
        breach_low=lo < soc_min - 1e-9,
        breach_high=hi > soc_max + 1e-9,
        trace_mileage_mw=float(steps.sum() * regulation_mw),
    )


def reference_replay_agc(schedule, bess, seeds, samples=agc.DEFAULT_SAMPLES):
    """:func:`harness.replay_agc` through :func:`reference_tracking`."""
    out = []
    for seed in seeds:
        trace = generate_signal(seed, samples=samples)
        for t, r in enumerate(schedule.records):
            start = schedule.soc_init if t == 0 else schedule.records[t - 1].soc
            out.append(reference_tracking(start, r.sell_award, r.buy_award, r.regcap_award,
                                          r.delta_t, trace, bess.soc_min, bess.soc_max))
    return out


def _bits(reports):
    """Every field of every report, floats as their exact hex, with its type."""
    return [tuple((type(v), v.hex() if isinstance(v, float) else v)
                  for v in dataclasses.astuple(r)) for r in reports]


def _report(schedule):
    # replay_agc reads a report's schedule only
    return SimpleNamespace(schedule=schedule)


@pytest.fixture(scope="module")
def desk_case4():
    scn = harness.desk_scenario(MarketMask.from_case(4))
    return scn, harness.run_case(scn, settings=harness.SolverSettings(gap_tol=0.01))


def test_constant_raw_collapses_to_zeros():
    out = normalize_signal(np.full(225, 0.7))
    np.testing.assert_array_equal(out, np.zeros(225))


def test_generated_signals_are_bounded_zero_mean():
    for seed in range(50):
        trace = generate_signal(seed)
        assert trace.n_samples == 225
        assert abs(float(trace.signal.mean())) <= 1e-12
        assert np.max(np.abs(trace.signal)) <= 1.0


def test_different_seeds_differ():
    a = generate_signal(1)
    b = generate_signal(2)
    assert not np.array_equal(a.signal, b.signal)
    assert abs(float(a.signal.mean())) <= 1e-12
    assert abs(float(b.signal.mean())) <= 1e-12


def test_sample_floor_rejected():
    with pytest.raises(ValueError, match="at least 2"):
        generate_signal(0, samples=1)


def test_trace_rejects_nonzero_mean():
    with pytest.raises(ValueError, match="mean"):
        AgcTrace(signal=np.array([0.5, 0.5, -0.2]))


def test_zero_award_zero_excursion():
    trace = generate_signal(3)
    # one interval from 50 MWh, discharging 4 MW for a quarter hour
    (rep,) = replay(trace, np.array([50.0]), np.zeros(1), np.array([4.0]), np.zeros(1),
                    np.array([0.25]), soc_min=0.0, soc_max=100.0)
    assert rep.max_excursion == 0.0
    assert rep.trace_mileage_mw == 0.0
    assert rep.regulation_soc_delta == pytest.approx(0.0, abs=1e-15)
    assert rep.end_soc == pytest.approx(50.0 - 4.0 * 0.25, abs=1e-12)
    assert not rep.breached


def test_regulation_leaves_interval_boundary_soc_unchanged():
    awards = np.array([0.0, 2.5, 5.0, 40.0])
    ones = np.ones_like(awards)
    for seed in (0, 7, 42):
        trace = generate_signal(seed)
        reps = replay(trace, 200.0 * ones, 0.0 * ones, 10.0 * ones, awards, 0.25 * ones,
                      soc_min=0.0, soc_max=400.0)
        assert len(reps) == len(awards)
        for rep in reps:
            assert abs(rep.regulation_soc_delta) <= 1e-9
            assert rep.end_soc == pytest.approx(200.0 - 2.5, abs=1e-9)


def test_excursion_scales_linearly_with_award():
    trace = generate_signal(11)
    r1, r2 = replay(trace, np.full(2, 100.0), np.zeros(2), np.zeros(2),
                    np.array([5.0, 10.0]), np.full(2, 0.25), 0.0, 400.0)
    assert r2.max_excursion == pytest.approx(2.0 * r1.max_excursion, rel=1e-12)
    assert r2.trace_mileage_mw == pytest.approx(2.0 * r1.trace_mileage_mw, rel=1e-12)


def test_headroom_boundary_with_square_wave():
    # worst zero-mean trace: full-down then full-up; its prefix integral
    # peaks at half the interval energy, so a schedule that reserved exactly
    # the headroom demanded by the SOC floor constraint stays safe
    n = 224
    square = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
    trace = AgcTrace(signal=square)
    award, dt, soc_min = 10.0, 0.25, 0.0
    # end SOC sits exactly at the reserved floor headroom: soc_min + award*dt
    start = soc_min + award * dt
    # the second interval starts below the reserved level and breaches the floor
    rep, rep_bad = replay(trace, np.array([start, award * dt / 2.0 - 0.5]), np.zeros(2),
                          np.zeros(2), np.full(2, award), np.full(2, dt),
                          soc_min=soc_min, soc_max=400.0)
    assert rep.max_excursion == pytest.approx(award * dt / 2.0, rel=1e-12)
    assert rep.min_soc == pytest.approx(start - award * dt / 2.0, abs=1e-12)
    assert not rep.breach_low
    assert rep_bad.breach_low
    assert not rep_bad.breach_high


def test_excursion_report_symmetry_on_ceiling():
    n = 224
    square = np.concatenate([-np.ones(n // 2), np.ones(n // 2)])
    trace = AgcTrace(signal=square)
    award, dt, soc_max = 10.0, 0.25, 100.0
    start = soc_max - award * dt
    rep, rep_bad = replay(trace, np.array([start, soc_max]), np.zeros(2), np.zeros(2),
                          np.full(2, award), np.full(2, dt), soc_min=0.0, soc_max=soc_max)
    assert rep.max_soc == pytest.approx(start + award * dt / 2.0, abs=1e-12)
    assert not rep.breach_high
    assert rep_bad.breach_high
    assert not rep_bad.breach_low


def test_mileage_statistic_counts_signal_movement():
    trace = AgcTrace(signal=np.array([0.5, -0.5, 0.5, -0.5]))
    # movement: |0.5| + |-1| + |1| + |-1| = 3.5, scaled by each interval's award
    reps = replay(trace, np.full(2, 5.0), np.zeros(2), np.zeros(2), np.array([4.0, 0.0]),
                  np.full(2, 1.0), 0.0, 10.0)
    assert [r.trace_mileage_mw for r in reps] == [pytest.approx(14.0), 0.0]


def test_replay_matches_one_interval_at_a_time_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(5)
    n_t = 7
    start, charge, discharge, reg = rng.uniform(0.0, 10.0, size=(4, n_t))
    charge[::2] = 0.0                  # each interval charges or discharges
    discharge[1::2] = 0.0
    reg[3] = 0.0                       # no regulation
    charge[5] = discharge[5] = reg[5] = 0.0   # idle
    dt = rng.choice([0.25, 0.5, 1.0], size=n_t)
    full = agc.REPLAY_BLOCK
    # one block; blocks of 2 intervals with a shorter last one; and a trace
    # longer than the block, which replays one interval at a time
    for samples, block in ((2, full), (225, full), (1000, full), (2, 4), (225, 450),
                           (1000, 2000), (100, 64)):
        monkeypatch.setattr(agc, "REPLAY_BLOCK", block)
        trace = generate_signal(samples, samples=samples)
        got = replay(trace, start, charge, discharge, reg, dt, 1.0, 9.0)
        want = [reference_tracking(*args, trace, 1.0, 9.0)
                for args in zip(*(v.tolist() for v in (start, discharge, charge, reg, dt)))]
        assert _bits(got) == _bits(want), (samples, block)


def test_replay_agc_on_desk_case4_matches_reference_bit_for_bit(desk_case4):
    scn, report = desk_case4
    got = harness.replay_agc(report, scn.bess, seeds=range(100))
    want = reference_replay_agc(report.schedule, scn.bess, range(100))
    assert len(got) == 100 * scn.n_intervals
    assert got == want
    assert _bits(got) == _bits(want)
    assert not any(r.breached for r in got)


@pytest.mark.parametrize("samples", [2, 1000])
def test_replay_agc_sample_counts_match_reference(desk_case4, samples):
    scn, report = desk_case4
    got = harness.replay_agc(report, scn.bess, seeds=range(5), samples=samples)
    assert _bits(got) == _bits(reference_replay_agc(report.schedule, scn.bess, range(5),
                                                    samples))


def test_replay_agc_on_idle_and_unregulated_intervals(desk_case4):
    scn, report = desk_case4
    records = list(report.schedule.records)
    zero = dict.fromkeys(("sell_award", "buy_award", "reserve_award", "regcap_award",
                          "mileage_award"), 0.0)
    for t in range(0, len(records), 3):
        records[t] = records[t]._replace(**zero)                # idle
    for t in range(1, len(records), 3):
        records[t] = records[t]._replace(regcap_award=0.0)     # arbitrage only
    schedule = harness.BessSchedule(records, report.schedule.soc_init)
    got = harness.replay_agc(_report(schedule), scn.bess, seeds=range(10))
    assert _bits(got) == _bits(reference_replay_agc(schedule, scn.bess, range(10)))
    for r, rec in zip(got, records * 10):
        if rec.regcap_award == 0.0:
            assert r.max_excursion == 0.0 and r.trace_mileage_mw == 0.0


def test_replay_agc_on_reference_case3_matches_reference_bit_for_bit():
    scn = harness.reference_scenario(MarketMask.from_case(3))
    report = harness.run_case(scn, settings=harness.SolverSettings(gap_tol=0.01))
    got = harness.replay_agc(report, scn.bess, seeds=range(3))
    assert len(got) == 3 * 96
    assert _bits(got) == _bits(reference_replay_agc(report.schedule, scn.bess, range(3)))


def _replay_heap(fn):
    """The heap ``fn`` holds at its peak beyond what it returns, bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn()   # held while the heap is read, so ``current`` counts it
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - current


def test_replay_heap_does_not_grow_with_the_horizon(desk_case4):
    scn, report = desk_case4
    records = report.schedule.records
    # replays of one trace at a time hold a few arrays of at most a block each
    bound = 8 * 8 * agc.REPLAY_BLOCK
    # the desk day at 24 intervals, then 96 and 384 in a row, the last
    # over several blocks
    for days, seeds in ((1, 100), (4, 100), (16, 10)):
        tiled = [r._replace(t=i) for i, r in enumerate(records * days)]
        schedule = harness.BessSchedule(tiled, report.schedule.soc_init)
        heap = _replay_heap(lambda: harness.replay_agc(_report(schedule), scn.bess,
                                                       seeds=range(seeds)))
        assert heap <= bound, (len(tiled), heap)


def test_replay_heap_at_long_traces_stays_near_one_interval_at_a_time(desk_case4):
    scn, report = desk_case4
    samples = 200_000
    heap = _replay_heap(lambda: harness.replay_agc(report, scn.bess, seeds=range(2),
                                                   samples=samples))
    per_interval = _replay_heap(lambda: reference_replay_agc(report.schedule, scn.bess,
                                                             range(2), samples))
    assert heap <= per_interval + 8 * agc.REPLAY_BLOCK, (heap, per_interval)
