"""Instance data and scenario synthesis from normalized price/load patterns.

A :class:`Scenario` carries everything one optimization run needs: the
generator fleet, the storage unit, per-interval loads, ancillary requirements,
and all price bids. Synthesis maps a normalized daily pattern onto a peak
load and per-generator base bids; ancillary prices and requirements are fixed
fractions of the energy bid and of load.
"""

from __future__ import annotations

import importlib.resources
import logging
import math
from dataclasses import dataclass, replace

import numpy as np
import yaml

log = logging.getLogger(__name__)

SCHEMA_TAG = "bessbid-scenario/1"

# libyaml's scanner and emitter when PyYAML was built with them; either pair
# writes and reads the same scenario text
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ScenarioError(ValueError):
    """Invalid scenario data or document."""


@dataclass(frozen=True)
class GeneratorParams:
    gen_id: str
    base_price_bid: float   # $/MWh
    p_max: float            # MW
    reserve_ramp: float     # MW
    regulation_ramp: float  # MW
    p_min: float = 0.0      # MW
    mileage_multiplier: float = 10.0


@dataclass(frozen=True)
class BessParams:
    energy_capacity: float  # MWh
    power_rate: float       # MW, charge and discharge limit
    soc_init: float = 0.0   # MWh
    soc_min: float = 0.0    # MWh
    soc_max: float | None = None  # MWh, defaults to energy_capacity
    mileage_multiplier: float = 10.0

    def __post_init__(self) -> None:
        if self.soc_max is None:
            object.__setattr__(self, "soc_max", self.energy_capacity)


@dataclass(frozen=True)
class MarketMask:
    """BESS participation flags; generators always clear in every market."""

    energy: bool = True
    reserve: bool = True
    regulation: bool = True

    @classmethod
    def from_case(cls, case: int) -> "MarketMask":
        table = {
            1: cls(True, False, False),
            2: cls(True, True, False),
            3: cls(True, False, True),
            4: cls(True, True, True),
        }
        if case not in table:
            raise ScenarioError(f"case must be 1..4, got {case}")
        return table[case]

    def label(self) -> str:
        for case in (1, 2, 3, 4):
            if self == MarketMask.from_case(case):
                return f"case{case}"
        parts = [n for n, on in (("energy", self.energy), ("reserve", self.reserve),
                                 ("regulation", self.regulation)) if on]
        return "+".join(parts) if parts else "none"


@dataclass(frozen=True)
class BessPriceBids:
    """Price bids of the storage unit, $/MWh (quantity bids live upstream)."""

    sell: float = 0.0
    buy: float = 0.0
    reserve: float = 0.0
    regcap: float = 0.0
    mileage: float = 0.0


@dataclass(frozen=True)
class IntervalData:
    index: int
    delta_t: float          # hours
    load: float             # MW
    reserve_req: float      # MW
    regcap_req: float       # MW
    mileage_req: float      # MW
    gen_energy_bids: tuple[float, ...]    # $/MWh per generator
    gen_reserve_bids: tuple[float, ...]
    gen_regcap_bids: tuple[float, ...]
    gen_mileage_bids: tuple[float, ...]
    bess_price_bids: BessPriceBids = BessPriceBids()


@dataclass(frozen=True)
class Scenario:
    generators: tuple[GeneratorParams, ...]
    bess: BessParams
    intervals: tuple[IntervalData, ...]
    market_mask: MarketMask = MarketMask()

    @property
    def n_intervals(self) -> int:
        return len(self.intervals)

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def with_mask(self, mask: MarketMask) -> "Scenario":
        return replace(self, market_mask=mask)


# The scenario document's keys in document order: its top level's, then each
# record's, which are also the record's field names. The mask's keys hold
# booleans, an interval's bid keys lists of numbers (one per generator), and
# the other keys numbers; a generator's keys follow its "id", and the price
# keys are those of an interval's "bess_price_bids". The writer builds each
# record from its tuple, the reader takes exactly its keys, and
# structure_violations checks that each number is finite.
DOCUMENT_KEYS = ("schema", "units", "market_mask", "bess", "generators", "intervals")
MASK_KEYS = ("energy", "reserve", "regulation")
BESS_KEYS = ("energy_capacity", "power_rate", "soc_init", "soc_min", "soc_max",
             "mileage_multiplier")
GENERATOR_KEYS = ("base_price_bid", "p_max", "p_min", "reserve_ramp", "regulation_ramp",
                  "mileage_multiplier")
INTERVAL_KEYS = ("delta_t", "load", "reserve_req", "regcap_req", "mileage_req")
INTERVAL_BID_KEYS = ("gen_energy_bids", "gen_reserve_bids", "gen_regcap_bids",
                     "gen_mileage_bids")
PRICE_KEYS = ("sell", "buy", "reserve", "regcap", "mileage")


# ancillary price bids as multiples of each unit's energy bid
RESERVE_PRICE_RATIO = 0.15
REGCAP_PRICE_RATIO = 0.4
MILEAGE_PRICE_RATIO = 0.07

# system requirements as fractions of interval load
RESERVE_REQ_FRAC = 0.10
REGCAP_REQ_FRAC = 0.04
MILEAGE_REQ_MULT = 1.75  # mileage requirement / regcap requirement


# five-unit reference fleet used by synthesized studies
DEFAULT_GENERATOR_TABLE: tuple[GeneratorParams, ...] = (
    GeneratorParams("g1", 10.0, 400.0, 80.0, 40.0),
    GeneratorParams("g2", 14.0, 300.0, 60.0, 30.0),
    GeneratorParams("g3", 15.0, 210.0, 42.0, 21.0),
    GeneratorParams("g4", 30.0, 350.0, 70.0, 35.0),
    GeneratorParams("g5", 40.0, 270.0, 54.0, 27.0),
)

DEFAULT_BESS = BessParams(energy_capacity=400.0, power_rate=40.0)


def default_patterns() -> tuple[np.ndarray, np.ndarray]:
    """The packaged 96-interval daily patterns (peak spanning the 73rd interval)."""
    data = importlib.resources.files("bessbid") / "data"
    return np.loadtxt(str(data / "price_pattern.csv")), np.loadtxt(str(data / "load_pattern.csv"))


def synthesize_scenario(
    patterns: tuple[np.ndarray, np.ndarray],
    generator_table: tuple[GeneratorParams, ...] = DEFAULT_GENERATOR_TABLE,
    bess_params: BessParams = DEFAULT_BESS,
    peak_load_mw: float = 1000.0,
    delta_t: float = 0.25,
    market_mask: MarketMask = MarketMask(),
    bess_price_bids: BessPriceBids = BessPriceBids(),
) -> Scenario:
    """Deterministically build a scenario from normalized patterns.

    Loads scale the load pattern to ``peak_load_mw``; each generator's energy
    bid scales its base bid by the price pattern; ancillary bids and system
    requirements are fixed ratios of those. Raises when the result violates
    scenario feasibility invariants.
    """
    price_pattern, load_pattern = patterns

    intervals = []
    for t, (pp, lp) in enumerate(zip(price_pattern, load_pattern)):
        energy_bids = tuple(float(g.base_price_bid * pp) for g in generator_table)
        load = float(peak_load_mw * lp)
        regcap = REGCAP_REQ_FRAC * load
        intervals.append(IntervalData(
            index=t,
            delta_t=float(delta_t),
            load=load,
            reserve_req=RESERVE_REQ_FRAC * load,
            regcap_req=regcap,
            mileage_req=MILEAGE_REQ_MULT * regcap,
            gen_energy_bids=energy_bids,
            gen_reserve_bids=tuple(RESERVE_PRICE_RATIO * b for b in energy_bids),
            gen_regcap_bids=tuple(REGCAP_PRICE_RATIO * b for b in energy_bids),
            gen_mileage_bids=tuple(MILEAGE_PRICE_RATIO * b for b in energy_bids),
            bess_price_bids=bess_price_bids,
        ))

    scn = Scenario(
        generators=tuple(generator_table),
        bess=bess_params,
        intervals=tuple(intervals),
        market_mask=market_mask,
    )
    violations = validate_scenario(scn)
    if violations:
        raise ScenarioError("synthesized scenario is invalid: " + violations_text(violations))
    return scn


def _not_finite(record, where: str, numbers=(), lists=()) -> list[str]:
    """A violation for each key of ``numbers`` whose value in ``record`` is
    not finite, and for each of ``lists`` that holds such a value."""
    bad = [k for k in numbers if not math.isfinite(getattr(record, k))]
    bad += [k for k in lists if not all(map(math.isfinite, getattr(record, k)))]
    return [f"{where}: {k} must be finite" for k in bad]


def structure_violations(scn: Scenario) -> list[str]:
    """The violations that leave no clearing LP to build: no generator, no
    interval, a number of the document's records that is not finite, or an
    interval without one bid per generator in a bid list or with a
    ``delta_t`` that is not positive, by which prices are divided."""
    v: list[str] = []
    if not scn.generators:
        v.append("scenario: needs at least one generator")
    if not scn.intervals:
        v.append("scenario: needs at least one interval")
    v += _not_finite(scn.bess, "bess", BESS_KEYS)
    for g in scn.generators:
        v += _not_finite(g, f"generator {g.gen_id}", GENERATOR_KEYS)
    n_gen = scn.n_generators
    for it in scn.intervals:
        where = f"interval {it.index}"
        v += _not_finite(it, where, INTERVAL_KEYS, INTERVAL_BID_KEYS)
        v += _not_finite(it.bess_price_bids, f"{where}: bess_price_bids", PRICE_KEYS)
        if it.delta_t <= 0:
            v.append(f"{where}: delta_t must be > 0")
        for name, bids in (("energy", it.gen_energy_bids), ("reserve", it.gen_reserve_bids),
                           ("regcap", it.gen_regcap_bids), ("mileage", it.gen_mileage_bids)):
            if len(bids) != n_gen:
                v.append(f"{where}: {name} bid count {len(bids)} != {n_gen} generators")
    return v


def validate_scenario(scn: Scenario) -> list[str]:
    """Named invariant violations, those of :func:`structure_violations`
    first; empty list means the scenario is usable."""
    v = structure_violations(scn)
    for g in scn.generators:
        if not (0.0 <= g.p_min <= g.p_max):
            v.append(f"{g.gen_id}: requires 0 <= p_min <= p_max, got ({g.p_min}, {g.p_max})")
        if g.reserve_ramp < 0 or g.regulation_ramp < 0:
            v.append(f"{g.gen_id}: ramps must be >= 0")
        if g.mileage_multiplier < 1:
            v.append(f"{g.gen_id}: mileage_multiplier must be >= 1")

    b = scn.bess
    if not (0.0 <= b.soc_min <= b.soc_init <= b.soc_max <= b.energy_capacity):
        v.append("bess: requires 0 <= soc_min <= soc_init <= soc_max <= energy_capacity")
    if b.power_rate <= 0:
        v.append("bess: power_rate must be > 0")
    if b.mileage_multiplier < 1:
        v.append("bess: mileage_multiplier must be >= 1")

    sum_pmax = sum(g.p_max for g in scn.generators)
    sum_rs_ramp = sum(g.reserve_ramp for g in scn.generators)
    sum_rg_ramp = sum(g.regulation_ramp for g in scn.generators)
    sum_mileage_cap = sum(g.mileage_multiplier * g.regulation_ramp for g in scn.generators)
    for it in scn.intervals:
        tag = f"interval {it.index}"
        if it.load <= 0:
            v.append(f"{tag}: load must be > 0")
        if min(it.reserve_req, it.regcap_req, it.mileage_req) < 0:
            v.append(f"{tag}: requirements must be >= 0")
        # feasibility of clearing without the storage unit
        if sum_pmax < it.load + it.reserve_req + it.regcap_req - 1e-9:
            v.append(
                f"{tag}: fleet p_max {sum_pmax} cannot cover load+reserve+regcap "
                f"{it.load + it.reserve_req + it.regcap_req}"
            )
        if it.reserve_req > sum_rs_ramp + 1e-9:
            v.append(f"{tag}: reserve_req {it.reserve_req} exceeds fleet reserve ramp {sum_rs_ramp}")
        if it.regcap_req > sum_rg_ramp + 1e-9:
            v.append(f"{tag}: regcap_req {it.regcap_req} exceeds fleet regulation ramp {sum_rg_ramp}")
        if it.mileage_req > sum_mileage_cap + 1e-9:
            v.append(f"{tag}: mileage_req {it.mileage_req} exceeds fleet mileage capability {sum_mileage_cap}")
    return v


def violations_text(violations: list[str]) -> str:
    """``violations`` as one line of an error message: the first ten, joined
    by "; ", and the count of the rest."""
    rest = len(violations) - 10
    return "; ".join(violations[:10] + ([f"and {rest} more"] if rest > 0 else []))


# ---------------------------------------------------------------------------
# scenario document serialization
# ---------------------------------------------------------------------------

_UNITS = {
    "power": "MW",
    "energy": "MWh",
    "price": "$/MWh",
    "delta_t": "hours",
}


def _fields(record, keys: tuple[str, ...]) -> dict:
    return {k: getattr(record, k) for k in keys}


def scenario_to_text(scn: Scenario) -> str:
    doc = dict(zip(DOCUMENT_KEYS, (
        SCHEMA_TAG,
        dict(_UNITS),
        _fields(scn.market_mask, MASK_KEYS),
        _fields(scn.bess, BESS_KEYS),
        [{"id": g.gen_id, **_fields(g, GENERATOR_KEYS)} for g in scn.generators],
        [
            {
                **_fields(it, INTERVAL_KEYS),
                **{k: list(getattr(it, k)) for k in INTERVAL_BID_KEYS},
                "bess_price_bids": _fields(it.bess_price_bids, PRICE_KEYS),
            }
            for it in scn.intervals
        ],
    )))
    return yaml.dump(doc, Dumper=_YAML_DUMPER, sort_keys=False, default_flow_style=None,
                     width=100)


def save_scenario(scn: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario_to_text(scn))
    log.info("wrote scenario: %s (%d intervals, %d generators)",
             path, scn.n_intervals, scn.n_generators)


# a YAML number loads as one of these; a YAML bool loads as bool, a subclass of int
_NUMBER_TYPES = frozenset((int, float))


def _record(node, where: str, numbers=(), lists=(), flags=(), other=()) -> dict:
    """The keys and values of document record ``node``, its lists as tuples.

    ``node`` must map exactly the keys of ``numbers`` to numbers, of
    ``lists`` to lists of numbers, of ``flags`` to booleans and of ``other``
    to any value. Raises a :class:`ScenarioError` naming ``where`` and the
    first key that is missing, unknown or of another kind.
    """
    if type(node) is not dict:
        raise ScenarioError(f"{where} must be a mapping, got {node!r}")
    keys = (*other, *flags, *numbers, *lists)
    for k in keys:
        if k not in node:
            raise ScenarioError(f"{where}: missing field {k}")
    for k in node:
        if k not in keys:
            raise ScenarioError(f"{where}: unknown field {k}")
    for k in numbers:
        if type(node[k]) not in _NUMBER_TYPES:
            raise ScenarioError(f"{where}: {k} must be a number, got {node[k]!r}")
    for k in lists:
        if type(node[k]) is not list or not _NUMBER_TYPES.issuperset(map(type, node[k])):
            raise ScenarioError(f"{where}: {k} must be a list of numbers, got {node[k]!r}")
    for k in flags:
        if type(node[k]) is not bool:
            raise ScenarioError(f"{where}: {k} must be a boolean, got {node[k]!r}")
    return {**node, **{k: tuple(node[k]) for k in lists}}


def _generator(node, k: int) -> GeneratorParams:
    # named by its id, or by its position while it has none
    named = type(node) is dict and "id" in node
    rec = _record(node, f"generator {node['id'] if named else k}", GENERATOR_KEYS,
                  other=("id",))
    return GeneratorParams(gen_id=rec.pop("id"), **rec)


def _interval(node, t: int) -> IntervalData:
    where = f"interval {t}"
    rec = _record(node, where, INTERVAL_KEYS, INTERVAL_BID_KEYS, other=("bess_price_bids",))
    prices = _record(rec.pop("bess_price_bids"), f"{where}: bess_price_bids", PRICE_KEYS)
    return IntervalData(index=t, **rec, bess_price_bids=BessPriceBids(**prices))


def parse_problem(exc: Exception) -> str:
    """A parse error of a YAML document, or of its text, on one line: the
    parser's problem and where it found it, when it names them."""
    mark = getattr(exc, "problem_mark", None)
    where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
    return " ".join(str(getattr(exc, "problem", None) or exc).split()) + where


def scenario_from_text(text: str) -> Scenario:
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"unparsable scenario document: {parse_problem(exc)}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    tag = doc.get("schema")
    if tag != SCHEMA_TAG:
        raise ScenarioError(f"unsupported schema tag {tag!r}, expected {SCHEMA_TAG!r}")
    doc = _record(doc, "scenario document", other=DOCUMENT_KEYS)
    for key in ("generators", "intervals"):
        if type(doc[key]) is not list:
            raise ScenarioError(f"scenario document: {key} must be a list, got {doc[key]!r}")
    # keyword order is reading order: the records are checked in document order
    return Scenario(
        market_mask=MarketMask(**_record(doc["market_mask"], "market_mask", flags=MASK_KEYS)),
        bess=BessParams(**_record(doc["bess"], "bess", BESS_KEYS)),
        generators=tuple(_generator(g, k) for k, g in enumerate(doc["generators"])),
        intervals=tuple(_interval(it, t) for t, it in enumerate(doc["intervals"])),
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"unreadable scenario file {path}: {exc}") from exc
    return scenario_from_text(text)
