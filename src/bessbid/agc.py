"""Synthetic AGC signals and ex-post SOC tracking checks.

Regulation awards are settled on capacity and mileage, not on the energy the
AGC dispatch moves; the market model therefore books no SOC change for
regulation. That is only sound if the 4-second AGC signal really averages to
zero over each interval, so this module builds reproducible zero-mean,
bounded signals and replays them against a cleared schedule to confirm the
interval-boundary SOC is untouched and the intra-interval swing stays inside
the SOC limits reserved by the headroom constraints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

MEAN_TOL = 1e-12
DEFAULT_SAMPLES = 225  # 4-second samples over a 15-minute interval
# SOC samples the replay holds per array: a block of intervals, each of a
# trace's samples, stays within 256 kB; a trace longer than that replays one
# interval at a time
REPLAY_BLOCK = 1 << 15


@dataclass(frozen=True)
class AgcTrace:
    """Normalized regulation dispatch signal for one market interval.

    ``signal`` is in [-1, 1] with exact-to-tolerance zero mean; positive
    values call for discharge. Per-sample storage power is
    ``signal * awarded regulation capacity``.
    """

    signal: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.signal, dtype=float)
        object.__setattr__(self, "signal", s)
        if s.ndim != 1 or len(s) < 2:
            raise ValueError("signal must be a 1-d array with at least 2 samples")
        if np.max(np.abs(s)) > 1.0 + 1e-15:
            raise ValueError("signal exceeds the [-1, 1] band")
        if abs(float(s.mean())) > MEAN_TOL:
            raise ValueError(f"signal mean {s.mean():.3e} exceeds {MEAN_TOL}")

    @property
    def n_samples(self) -> int:
        return len(self.signal)


def normalize_signal(raw: np.ndarray) -> np.ndarray:
    """Force a raw series into the zero-mean [-1, 1] band.

    Alternates exact mean removal with clipping until both properties hold;
    the final pass rescales instead of clipping because scaling preserves the
    zero mean exactly. A constant input collapses to all zeros.
    """
    s = np.asarray(raw, dtype=float).copy()
    if s.ndim != 1 or len(s) < 2:
        raise ValueError("raw signal must be a 1-d array with at least 2 samples")
    for _ in range(64):
        s -= s.mean()
        peak = np.max(np.abs(s))
        if peak <= 1.0:
            if abs(float(s.mean())) <= MEAN_TOL:
                return s
            continue
        s = np.clip(s, -1.0, 1.0)
    s -= s.mean()
    peak = np.max(np.abs(s))
    if peak > 1.0:
        s /= peak
    s -= s.mean()
    peak = np.max(np.abs(s))
    if peak > 1.0:
        s /= peak
    return s


def generate_signal(seed: int, samples: int = DEFAULT_SAMPLES) -> AgcTrace:
    """Reproducible regulation-dispatch stand-in signal.

    A seeded random walk reflected at the +-1 band edges gives the rapid
    direction changes of a fast dispatch signal; normalization then pins the
    interval mean to zero.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, 0.25, size=samples)
    walk = np.cumsum(steps)
    # reflect into [-1, 1]: fold the line at every band edge
    folded = np.mod(walk + 1.0, 4.0)
    folded = np.where(folded > 2.0, 4.0 - folded, folded) - 1.0
    return AgcTrace(signal=normalize_signal(folded))


@dataclass(frozen=True)
class ExcursionReport:
    """SOC behavior of one interval under a replayed AGC trace."""

    end_soc: float
    regulation_soc_delta: float  # end-SOC shift attributable to regulation
    min_soc: float
    max_soc: float
    max_excursion: float         # largest |SOC deviation| caused by regulation
    breach_low: bool
    breach_high: bool
    # total absolute signal movement scaled by the award, MW: an ex-post
    # statistic of the trace, reported beside the market's cleared mileage
    # award and never reconciled with it
    trace_mileage_mw: float

    @property
    def breached(self) -> bool:
        return self.breach_low or self.breach_high


def replay(trace: AgcTrace, start_soc: np.ndarray, charge_mw: np.ndarray,
           discharge_mw: np.ndarray, regulation_mw: np.ndarray, delta_t: np.ndarray,
           soc_min: float, soc_max: float) -> list[ExcursionReport]:
    """Replay one trace against every interval of a cleared schedule, one
    report per interval; interval ``i`` starts at ``start_soc[i]`` (MWh) and
    lasts ``delta_t[i]`` hours.

    The arbitrage award (charge less discharge, MW) moves SOC linearly; the
    regulation award follows the trace. Violations of the SOC band (beyond
    1e-9) are flagged, never enforced, matching the market model's
    assumption that headroom reserved by the clearing is sufficient. The
    intervals replay in blocks of at most ``REPLAY_BLOCK`` SOC samples, or
    one at a time when a trace is longer.
    """
    n = trace.n_samples
    k = np.arange(1, n + 1)
    # the trace's total movement, summed once (pairwise) for every award
    movement = np.abs(np.diff(trace.signal, prepend=0.0)).sum()
    rows = max(1, REPLAY_BLOCK // n)
    out: list[ExcursionReport] = []
    for b in range(0, len(start_soc), rows):
        start, reg, dt = start_soc[b:b + rows], regulation_mw[b:b + rows], delta_t[b:b + rows]
        arb = charge_mw[b:b + rows] - discharge_mw[b:b + rows]
        h = dt / n
        regulation_energy = np.cumsum(trace.signal * reg[:, None], axis=1) * h[:, None]
        soc_path = start[:, None] + (arb * h)[:, None] * k - regulation_energy
        end_soc = soc_path[:, -1]
        # the start SOC, unless the path's extreme lies strictly beyond it
        lo, hi = soc_path.min(axis=1), soc_path.max(axis=1)
        lo, hi = np.where(lo < start, lo, start), np.where(hi > start, hi, start)
        out += itertools.starmap(ExcursionReport, zip(
            end_soc.tolist(), (end_soc - (start + arb * dt)).tolist(), lo.tolist(), hi.tolist(),
            np.abs(regulation_energy).max(axis=1, initial=0.0).tolist(),
            (lo < soc_min - 1e-9).tolist(), (hi > soc_max + 1e-9).tolist(),
            (movement * reg).tolist()))
    return out
