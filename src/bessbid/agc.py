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

from dataclasses import dataclass

import numpy as np

MEAN_TOL = 1e-12
DEFAULT_SAMPLES = 225  # 4-second samples over a 15-minute interval
SAMPLE_SECONDS = 4.0


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

    def power_mw(self, regulation_award_mw: float) -> np.ndarray:
        """Dispatch power per sample, MW (positive = discharging)."""
        return self.signal * regulation_award_mw

    def cumulative_energy_mwh(self, regulation_award_mw: float,
                              delta_t: float) -> np.ndarray:
        """Running discharged energy after each sample, MWh."""
        h = delta_t / self.n_samples
        return np.cumsum(self.power_mw(regulation_award_mw)) * h

    def mileage_mw(self, regulation_award_mw: float) -> float:
        """Total absolute signal movement scaled by the award, MW.

        An ex-post statistic of the trace; the market's mileage award is a
        cleared quantity and the two are reported side by side, never
        reconciled.
        """
        steps = np.abs(np.diff(self.signal, prepend=0.0))
        return float(steps.sum() * regulation_award_mw)


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
class TrackingInterval:
    """Cleared quantities of one interval, as seen by the AGC replay."""

    start_soc: float       # MWh at the interval start
    discharge_mw: float    # cleared energy sell award
    charge_mw: float       # cleared energy buy award
    regulation_mw: float   # cleared regulation capacity award
    delta_t: float         # hours


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
    trace_mileage_mw: float

    @property
    def breached(self) -> bool:
        return self.breach_low or self.breach_high


def simulate_tracking(interval: TrackingInterval, trace: AgcTrace,
                      soc_min: float, soc_max: float) -> ExcursionReport:
    """Replay a trace against one interval's cleared schedule.

    The arbitrage award moves SOC linearly; the regulation award follows the
    trace. Violations of the SOC band (beyond 1e-9) are flagged, never
    enforced, matching the market model's assumption that headroom reserved
    by the clearing is sufficient.
    """
    n = trace.n_samples
    h = interval.delta_t / n
    arb_mw = interval.charge_mw - interval.discharge_mw
    k = np.arange(1, n + 1)
    regulation_energy = trace.cumulative_energy_mwh(interval.regulation_mw,
                                                    interval.delta_t)
    soc_path = interval.start_soc + arb_mw * h * k - regulation_energy

    end_soc = float(soc_path[-1])
    end_without_regulation = interval.start_soc + arb_mw * interval.delta_t
    lo = float(min(interval.start_soc, soc_path.min()))
    hi = float(max(interval.start_soc, soc_path.max()))
    return ExcursionReport(
        end_soc=end_soc,
        regulation_soc_delta=end_soc - end_without_regulation,
        min_soc=lo,
        max_soc=hi,
        max_excursion=float(np.max(np.abs(regulation_energy), initial=0.0)),
        breach_low=lo < soc_min - 1e-9,
        breach_high=hi > soc_max + 1e-9,
        trace_mileage_mw=trace.mileage_mw(interval.regulation_mw),
    )
