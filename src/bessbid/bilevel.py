"""Single-level MILP reformulation of the strategic storage bidding problem.

The storage operator maximizes revenue over its quantity bids while the
market clears each interval at minimum cost. Because the clearing problem is
an LP, it is replaced by its KKT system: primal feasibility, stationarity,
dual feasibility, and complementary slackness. Complementarity pairs get one
binary each with big-M switching; the bilinear price-times-award revenue is
replaced by an exact linear expression obtained from the storage stationarity
rows, complementary slackness, and the clearing LP's strong duality.

Dual encoding: each inequality row r of the clearing LP gets a nonnegative
variable ``w_r`` holding the magnitude of its dual (sign sigma_r = +1 for
">=" rows, -1 for "<=" rows); the balance row's dual ``lambda`` is free. Each
finitely-bounded primal column gets a nonnegative reduced-cost variable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import clearing, solver
from .clearing import BessBids, LlLayout, LlVariables, Prices
from .scenario import MarketMask, Scenario, validate_scenario

log = logging.getLogger(__name__)

STATIONARITY_CHECK_TOL = 5e-6
PRIMAL_CHECK_TOL = 5e-6
CS_CHECK_TOL = 1e-7
LL_OBJECTIVE_REL_TOL = 1e-6
REVENUE_REL_TOL = 1e-5


class BilevelError(RuntimeError):
    pass


@dataclass(frozen=True)
class CompPair:
    """One complementarity pair: a constraint (or variable lower bound) and
    its dual, switched by a single binary."""

    kind: str        # "row" or "lower"
    index: int       # row index or column index in the clearing layout
    name: str
    m_primal: float  # cap on the slack when the dual may be nonzero
    m_dual: float    # cap on the dual when the slack may be nonzero


@dataclass
class KktSystem:
    """First-order optimality system of one interval's clearing LP."""

    layout: LlLayout
    sigma: np.ndarray            # +1 for ">=", -1 for "<=", 0 for the balance row
    comp_pairs: list[CompPair]
    m_dual: float
    m_registry: list["BigMRecord"]

    @property
    def lower_cols(self) -> list[int]:
        """Columns of the lower-bound pairs, in the order of their duals."""
        return [p.index for p in self.comp_pairs if p.kind == "lower"]


@dataclass(frozen=True)
class BigMRecord:
    t: int
    target: str
    value: float
    derivation: str


def _dual_bound(layout: LlLayout) -> tuple[float, str]:
    """Uniform dual cap from the interval's bid coefficients."""
    it = layout.interval
    beta = it.bess_price_bids
    max_bid = max(
        max(it.gen_energy_bids), max(it.gen_reserve_bids),
        max(it.gen_regcap_bids), max(it.gen_mileage_bids),
        abs(beta.sell), abs(beta.buy), abs(beta.reserve),
        abs(beta.regcap), abs(beta.mileage),
    )
    max_mult = max(
        max(g.mileage_multiplier for g in layout.scenario.generators),
        layout.scenario.bess.mileage_multiplier,
    )
    value = max(1.0, 2.0 * layout.delta_t * max_bid * (1.0 + max_mult))
    derivation = (
        f"2 * delta_t * max_bid * (1 + max_mileage_mult) = "
        f"2 * {layout.delta_t} * {max_bid} * (1 + {max_mult}), floored at 1"
    )
    return value, derivation


def derive_kkt(layout: LlLayout) -> KktSystem:
    """KKT system of an interval's clearing LP, with big-M values per pair.

    Primal-side M values bound each row's slack using the variable ranges
    implied by the clearing rows themselves plus the storage power rating as
    the cap on bid quantities; the dual-side M is a uniform cap derived from
    the bid coefficients.
    """
    scn = layout.scenario
    it = layout.interval
    rate = scn.bess.power_rate
    mult_b = scn.bess.mileage_multiplier
    t = layout.t

    md, md_note = _dual_bound(layout)
    registry: list[BigMRecord] = [BigMRecord(t, "dual_cap", md, md_note)]

    sigma = np.zeros(layout.n_rows)
    for r, sense in enumerate(layout.senses):
        sigma[r] = {"<": -1.0, ">": 1.0, "=": 0.0}[sense]

    pairs: list[CompPair] = []

    def add_row_pair(r: int, mp: float, note: str) -> None:
        name = layout.row_names[r]
        pairs.append(CompPair("row", r, name, mp, md))
        registry.append(BigMRecord(t, name, mp, note))

    for j, g in enumerate(scn.generators):
        span = g.p_max - g.p_min
        mcap = g.mileage_multiplier * g.regulation_ramp
        add_row_pair(layout.row_gen(j, 0), span,
                     "slack <= p_max - p_min given output cap and nonnegative awards")
        add_row_pair(layout.row_gen(j, 1), span,
                     "slack <= p_max - p_min given output floor")
        add_row_pair(layout.row_gen(j, 2), g.reserve_ramp, "slack <= reserve ramp")
        add_row_pair(layout.row_gen(j, 3), g.regulation_ramp, "slack <= regulation ramp")
        add_row_pair(layout.row_gen(j, 4), mcap,
                     "slack <= mileage cap given mileage <= mult * regulation ramp")
        add_row_pair(layout.row_gen(j, 5), mcap,
                     "slack <= mult * regcap award <= mult * regulation ramp")
    for key, r in layout.bid_rows.items():
        add_row_pair(r, rate, f"slack <= power rating (bid {key} <= rate)")
    add_row_pair(layout.row_mil_floor_bess, mult_b * rate,
                 "slack <= storage mileage cap = mult * rate")
    add_row_pair(layout.row_mil_cap_bess, mult_b * rate,
                 "slack <= mult * regcap award <= mult * rate")

    rs_cap = sum(g.reserve_ramp for g in scn.generators) + rate
    rg_cap = sum(g.regulation_ramp for g in scn.generators) + rate
    mil_cap = sum(g.mileage_multiplier * g.regulation_ramp for g in scn.generators) + mult_b * rate
    add_row_pair(layout.row_reserve_req, max(0.0, rs_cap - it.reserve_req),
                 "slack <= total reserve capability - requirement")
    add_row_pair(layout.row_regcap_req, max(0.0, rg_cap - it.regcap_req),
                 "slack <= total regulation capability - requirement")
    add_row_pair(layout.row_mileage_req, max(0.0, mil_cap - it.mileage_req),
                 "slack <= total mileage capability - requirement")

    def add_lower_pair(col: int, mp: float, note: str) -> None:
        name = layout.col_names[col]
        pairs.append(CompPair("lower", col, name, mp, md))
        registry.append(BigMRecord(t, f"lb:{name}", mp, note))

    for j, g in enumerate(scn.generators):
        add_lower_pair(layout.col_gen(j, 1), g.reserve_ramp, "value <= reserve ramp")
        add_lower_pair(layout.col_gen(j, 2), g.regulation_ramp, "value <= regulation ramp")
    add_lower_pair(layout.col_bs, rate, "award <= bid <= power rating")
    add_lower_pair(layout.col_bd, rate, "award <= bid <= power rating")
    add_lower_pair(layout.col_brs, rate, "award <= bid <= power rating")
    add_lower_pair(layout.col_brgc, rate, "award <= bid <= power rating")

    return KktSystem(layout=layout, sigma=sigma, comp_pairs=pairs,
                     m_dual=md, m_registry=registry)


def linearize_objective(layout: LlLayout) -> tuple[np.ndarray, np.ndarray]:
    """Exact linear form of one interval's storage revenue.

    The bilinear revenue (price times award) is removed in three steps:
    multiply each storage stationarity row by its award, cancel the resulting
    dual-times-slack products via complementary slackness, then substitute
    the clearing LP's strong-duality equality. Every product of a dual with a
    storage bid or award cancels, leaving the negated generator payment on
    the primal columns plus the duals weighted by the clearing LP's
    right-hand side at zero bids, ``layout.rhs_base``.

    Returns ``(x_coefs, dual_coefs)`` in layout column/row order, where
    ``dual_coefs`` (the layout's own ``rhs_base``) applies to signed duals in
    the original sense convention.
    """
    x_coefs = np.zeros(layout.n_cols)
    n_gen_cols = LlLayout.GEN_COLS * layout.n_gens
    x_coefs[:n_gen_cols] = -layout.c[:n_gen_cols]
    return x_coefs, layout.rhs_base


def direct_revenue_value(layout: LlLayout, v: LlVariables,
                         row_duals: np.ndarray) -> float | np.ndarray:
    """Price-times-award revenue evaluated directly from duals and awards;
    with one schedule per row (see :meth:`LlLayout.variables_from`) and one
    dual vector per row, one revenue per row."""
    return (
        row_duals[..., layout.row_balance] * (v.p_bs - v.p_bd)
        + row_duals[..., layout.row_reserve_req] * v.p_brs
        + row_duals[..., layout.row_regcap_req] * v.p_brgc
        + row_duals[..., layout.row_mileage_req] * v.p_brgm
    )


# ---------------------------------------------------------------------------
# MILP assembly
# ---------------------------------------------------------------------------


@dataclass
class ModelPart:
    """Rows and columns of a piece of the MILP: COO entries, then row and column data."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    senses: np.ndarray
    rhs: np.ndarray
    row_names: list[str]
    lower: np.ndarray
    upper: np.ndarray
    c: np.ndarray
    integrality: np.ndarray
    col_names: list[str]


@dataclass
class IntervalBlock:
    """One interval's columns in the assembled MILP, ``[ul | x | w | nu | z]``.

    From ``ul0``: the bids sbid, dbid, rsbid, rgbid, then ``u`` when energy
    is unmasked, then ``soc``. From ``x0``: the clearing columns. From
    ``w0``: one dual per clearing row, then one reduced cost per lower-bound
    pair. From ``z0``: one binary per pair of ``switched``, which switches the
    dual at ``w0 + slots[i]``.
    """

    ul0: int
    x0: int
    w0: int
    z0: int
    switched: list[CompPair]
    slots: np.ndarray
    kkt: KktSystem


@dataclass
class BilevelMilp:
    milp: solver.MilpProblem
    scenario: Scenario
    blocks: list[IntervalBlock]
    counts: dict[str, int]


def masked_indices(layout: LlLayout, mask: MarketMask) -> tuple[list[int], list[int]]:
    """Clearing rows and storage columns that ``mask`` pins to zero.

    The columns' awards are capped at zero. The rows and the columns' floors
    then always bind, so their complementarity pairs get no binary.
    """
    br = layout.bid_rows
    rows: list[int] = []
    cols: list[int] = []
    if not mask.energy:
        rows += [br["sell"], br["buy"]]
        cols += [layout.col_bs, layout.col_bd]
    if not mask.reserve:
        rows += [br["reserve"]]
        cols += [layout.col_brs]
    if not mask.regulation:
        rows += [br["regcap"], layout.row_mil_floor_bess, layout.row_mil_cap_bess]
        cols += [layout.col_brgc, layout.col_brgm]
    return rows, cols


def interval_block(kkt: KktSystem, mask: MarketMask) -> tuple[IntervalBlock, ModelPart]:
    """One interval's KKT block, with columns and rows numbered from 0.

    The inequalities are the clearing rows (``A`` plus -1 on each storage bid
    column), then the floors ``x_k >= 0`` of the lower-bound pairs; their
    duals ``[w | nu]`` follow the same order. Rows: the clearing rows; the
    stationarity rows (the inequalities' transpose on ``x``, each dual signed
    by sigma, 1 on the balance row and the floors); then per switched pair a
    ``cs_p`` row capping the slack and a ``cs_d`` row capping the dual.
    """
    layout = kkt.layout
    scn = layout.scenario
    bess = scn.bess
    rate = bess.power_rate
    md = kkt.m_dual
    pfx = f"t{layout.t}:"
    nx, nr = layout.n_cols, layout.n_rows
    masked_rows, masked_cols = masked_indices(layout, mask)
    lower_cols = kkt.lower_cols
    switched = [p for p in kkt.comp_pairs
                if p.index not in (masked_rows if p.kind == "row" else masked_cols)]
    ul_names = ["sbid", "dbid", "rsbid", "rgbid"] + (["u"] if mask.energy else []) + ["soc"]
    x0 = len(ul_names)
    w0 = x0 + nx
    z0 = w0 + nr + len(lower_cols)
    n_z = len(switched)
    eq = layout.senses == "="
    x_coefs, dual_coefs = linearize_objective(layout)

    # --- columns ---------------------------------------------------------
    lower = np.zeros(z0 + n_z)
    upper = np.full(z0 + n_z, md)
    c = np.zeros(z0 + n_z)
    integrality = np.zeros(z0 + n_z, dtype=np.int8)
    upper[:4] = np.where([mask.energy, mask.energy, mask.reserve, mask.regulation], rate, 0.0)
    if mask.energy:
        upper[4] = 1.0
        integrality[4] = 1
    lower[x0 - 1], upper[x0 - 1] = bess.soc_min, bess.soc_max
    # clearing columns carry redundant native bounds for relaxation tightness
    # (each is implied by the clearing rows plus bid limits)
    n_gen_cols = LlLayout.GEN_COLS * layout.n_gens
    lower[x0:x0 + n_gen_cols:LlLayout.GEN_COLS] = [g.p_min for g in scn.generators]
    upper[x0:x0 + n_gen_cols] = [v for g in scn.generators for v in (
        g.p_max, g.reserve_ramp, g.regulation_ramp, g.mileage_multiplier * g.regulation_ramp)]
    upper[x0 + n_gen_cols:w0] = [rate, rate, rate, rate, bess.mileage_multiplier * rate]
    upper[[x0 + k for k in masked_cols]] = 0.0
    c[x0:w0] = x_coefs
    # w holds magnitudes of inequality duals and the free lambda of the
    # balance row, so its objective coefficients carry the sense sign
    lower[w0:w0 + nr] = np.where(eq, -md, 0.0)
    c[w0:w0 + nr] = np.where(eq, dual_coefs, dual_coefs * kkt.sigma)
    upper[z0:] = 1.0
    integrality[z0:] = 1
    col_names = (
        [pfx + nm for nm in ul_names]
        + [pfx + nm for nm in layout.col_names]
        + [pfx + ("lam" if e else "w:" + nm) for e, nm in zip(eq, layout.row_names)]
        + [pfx + "nu:" + layout.col_names[k] for k in lower_cols]
        + [pfx + ("z:" if p.kind == "row" else "zlo:") + p.name for p in switched]
    )

    # --- rows --------------------------------------------------------------
    # the inequalities as COO entries over the block's columns
    a = layout.a.tocoo()
    n_lo = len(lower_cols)
    g_r = np.concatenate([a.row, list(layout.bid_rows.values()), nr + np.arange(n_lo)])
    g_c = np.concatenate([x0 + a.col, np.arange(4), x0 + np.array(lower_cols, dtype=int)])
    g_v = np.concatenate([a.data, np.full(4, -1.0), np.ones(n_lo)])
    g_sense = np.concatenate([layout.senses, np.full(n_lo, ">")])
    g_rhs = np.concatenate([layout.rhs_base, np.zeros(n_lo)])
    g_sign = np.concatenate([np.where(eq, 1.0, kkt.sigma), np.ones(n_lo)])
    clearing_entry = g_r < nr
    x_entry = g_c >= x0

    slots = np.array([p.index if p.kind == "row" else nr + lower_cols.index(p.index)
                      for p in switched], dtype=int)
    m_p = np.array([p.m_primal for p in switched])
    m_d = np.array([p.m_dual for p in switched])
    z = z0 + np.arange(n_z)
    cs_p = nr + nx + 2 * np.arange(n_z)
    cs_p_of = np.full(nr + n_lo, -1)
    cs_p_of[slots] = cs_p
    cs_entry = cs_p_of[g_r] >= 0
    # a "<" row's slack b - g x <= M (1 - z) becomes g x - M z >= b - M; a
    # ">" row's g x - b <= M (1 - z) becomes g x + M z <= b + M
    flip = g_sense[slots] == "<"

    part = ModelPart(
        rows=np.concatenate([g_r[clearing_entry], nr + g_c[x_entry] - x0,
                             cs_p_of[g_r[cs_entry]], cs_p, cs_p + 1, cs_p + 1]),
        cols=np.concatenate([g_c[clearing_entry], w0 + g_r[x_entry],
                             g_c[cs_entry], z, w0 + slots, z]),
        vals=np.concatenate([g_v[clearing_entry], g_v[x_entry] * g_sign[g_r[x_entry]],
                             g_v[cs_entry], np.where(flip, -m_p, m_p), np.ones(n_z), -m_d]),
        senses=np.concatenate([
            layout.senses, np.full(nx, "="),
            np.stack([np.where(flip, ">", "<"), np.full(n_z, "<")], axis=1).ravel(),
        ]),
        rhs=np.concatenate([
            layout.rhs_base, layout.c,
            np.stack([np.where(flip, g_rhs[slots] - m_p, g_rhs[slots] + m_p), np.zeros(n_z)],
                     axis=1).ravel(),
        ]),
        row_names=(
            [pfx + nm for nm in layout.row_names]
            + [pfx + "stat:" + nm for nm in layout.col_names]
            + [f"{pfx}cs_{side}:{'' if p.kind == 'row' else 'lb:'}{p.name}"
               for p in switched for side in "pd"]
        ),
        lower=lower, upper=upper, c=c, integrality=integrality, col_names=col_names,
    )
    return IntervalBlock(ul0=0, x0=x0, w0=w0, z0=z0, switched=switched, slots=slots,
                         kkt=kkt), part


def _ul_rows(scn: Scenario, blocks: list[IntervalBlock],
             terminal_soc_equality: bool) -> ModelPart:
    """Upper-level rows on the blocks' columns, interval by interval: bid
    mode exclusivity (only with energy), the power envelope, the SOC
    recursion and the SOC headroom; then the optional terminal-SOC row."""
    bess = scn.bess
    rate = bess.power_rate
    n_t = len(blocks)
    ul0 = np.array([b.ul0 for b in blocks])
    soc = np.array([b.x0 for b in blocks]) - 1
    bs, bd, brs, brgc = (soc + 1 + LlLayout.GEN_COLS * scn.n_generators + k for k in range(4))
    dt = np.array([it.delta_t for it in scn.intervals])
    soc_rhs = np.r_[bess.soc_init, np.zeros(n_t - 1)]
    # name, sense, rhs, (column, coefficient) terms; arrays run over intervals
    template = [
        ("power_envelope_low", ">", -rate, [(bd, 1.0), (bs, -1.0), (brs, -1.0), (brgc, -1.0)]),
        ("power_envelope_high", "<", rate, [(bd, 1.0), (bs, -1.0), (brs, -1.0), (brgc, 1.0)]),
        ("soc_recursion", "=", soc_rhs, [(soc, 1.0), (bd, -dt), (bs, dt)]),
        # regulation reserves energy in both directions, reserve only
        # downward in SOC terms
        ("soc_floor_headroom", ">", bess.soc_min, [(soc, 1.0), (brgc, -dt), (brs, -dt)]),
        ("soc_ceiling_headroom", "<", bess.soc_max, [(soc, 1.0), (brgc, dt)]),
    ]
    if scn.market_mask.energy:
        template[:0] = [
            ("sell_needs_discharge_mode", "<", 0.0, [(ul0, 1.0), (ul0 + 4, -rate)]),
            ("buy_needs_charge_mode", "<", rate, [(ul0 + 1, 1.0), (ul0 + 4, rate)]),
        ]
    first = np.arange(n_t) * len(template)
    entries = [(first + j, col, np.broadcast_to(coef, n_t))
               for j, (_, _, _, terms) in enumerate(template) for col, coef in terms]
    # the one cross-interval entry: -soc[t-1] in the recursion of t >= 1
    j_rec = [name for name, _, _, _ in template].index("soc_recursion")
    entries.append((first[1:] + j_rec, soc[:-1], np.full(n_t - 1, -1.0)))
    senses = np.tile([sense for _, sense, _, _ in template], n_t)
    rhs = np.stack([np.broadcast_to(b, n_t) for _, _, b, _ in template], axis=1).ravel()
    names = [f"t{t}:{name}" for t in range(n_t) for name, _, _, _ in template]
    if terminal_soc_equality:
        entries.append(([len(names)], soc[-1:], [1.0]))
        senses = np.append(senses, "=")
        rhs = np.append(rhs, bess.soc_init)
        names.append("terminal_soc")
    rows, cols, vals = (np.concatenate(e) for e in zip(*entries))
    empty = np.zeros(0)
    return ModelPart(rows=rows, cols=cols, vals=vals, senses=senses, rhs=rhs, row_names=names,
                     lower=empty, upper=empty, c=empty, integrality=empty.astype(np.int8),
                     col_names=[])


def assemble_milp(scn: Scenario, terminal_soc_equality: bool = False) -> BilevelMilp:
    """Build the full bidding MILP across all intervals.

    Each interval contributes one block from :func:`interval_block`; the
    blocks couple only through the SOC recursion among the upper-level rows
    that follow them. ``terminal_soc_equality`` adds an end-of-horizon row
    pinning the final SOC back to the initial level; the default leaves
    terminal SOC free.
    """
    violations = validate_scenario(scn)
    if violations:
        raise BilevelError("invalid scenario: " + "; ".join(violations))
    mask = scn.market_mask

    blocks: list[IntervalBlock] = []
    parts: list[ModelPart] = []
    n_rows = n_cols = 0
    for t in range(scn.n_intervals):
        kkt = derive_kkt(LlLayout(scn, t))
        block, part = interval_block(kkt, mask)
        blocks.append(replace(block, ul0=n_cols, x0=block.x0 + n_cols,
                              w0=block.w0 + n_cols, z0=block.z0 + n_cols))
        part.rows += n_rows
        part.cols += n_cols
        parts.append(part)
        n_rows += len(part.rhs)
        n_cols += len(part.c)
    ul = _ul_rows(scn, blocks, terminal_soc_equality)  # its columns are global already
    ul.rows += n_rows
    parts.append(ul)
    n_rows += len(ul.rhs)

    rows, cols, vals = (np.concatenate([getattr(p, f) for p in parts])
                        for f in ("rows", "cols", "vals"))
    keep = vals != 0.0
    a = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n_rows, n_cols)).tocsr()
    integrality = np.concatenate([p.integrality for p in parts])
    milp = solver.MilpProblem(
        c=np.concatenate([p.c for p in parts]),
        a=a,
        senses=np.concatenate([p.senses for p in parts]),
        rhs=np.concatenate([p.rhs for p in parts]),
        lower=np.concatenate([p.lower for p in parts]),
        upper=np.concatenate([p.upper for p in parts]),
        maximize=True,
        row_names=[nm for p in parts for nm in p.row_names],
        col_names=[nm for p in parts for nm in p.col_names],
        integrality=integrality,
    )
    milp.validate()

    counts = {
        "columns": n_cols,
        "rows": n_rows,
        "binaries": int(integrality.sum()),
        "mode_binaries": scn.n_intervals if mask.energy else 0,
        "complementarity_binaries": sum(len(b.switched) for b in blocks),
        "intervals": scn.n_intervals,
    }
    log.info("assembled bidding MILP: %(columns)d cols, %(rows)d rows, "
             "%(binaries)d binaries", counts)
    return BilevelMilp(milp=milp, scenario=scn, blocks=blocks, counts=counts)

# ---------------------------------------------------------------------------
# solution extraction and verification
# ---------------------------------------------------------------------------


@dataclass
class IntervalSolution:
    t: int
    bids: BessBids
    u: int
    soc: float
    variables: LlVariables
    prices: Prices
    row_duals: np.ndarray
    lower_duals: np.ndarray


@dataclass
class BilevelSolution:
    intervals: list[IntervalSolution]
    objective: float
    notes: list[str] = field(default_factory=list)  # extraction snaps, for the verifier


def extract_solution(bilevel: BilevelMilp, outcome: solver.SolveOutcome) -> BilevelSolution:
    """Per-interval bids, awards, and embedded duals from a solved MILP.

    Dual magnitudes whose complementarity binary selected the nonbinding
    branch are snapped to exact zero: the big-M row already caps them at
    solver tolerance, and the snap keeps downstream slackness products clean.
    Bids in ``[-FEASIBILITY_TOL, 0)`` are solver noise around a zero bid and
    are snapped to 0.0 as well, each with a note; the re-clear refuses
    negative bids, so a valid optimum would otherwise fail verification.
    """
    if outcome.x is None:
        raise BilevelError(f"no incumbent to extract (status {outcome.status})")
    x = outcome.x
    energy = bilevel.scenario.market_mask.energy
    out: list[IntervalSolution] = []
    notes: list[str] = []
    for block in bilevel.blocks:
        kkt = block.kkt
        layout = kkt.layout
        bid_values = dict(zip(("sell", "buy", "reserve", "regcap"),
                              map(float, x[block.ul0:block.ul0 + 4])))
        for market, v in bid_values.items():
            if -solver.FEASIBILITY_TOL <= v < 0.0:
                notes.append(f"t{layout.t}:{market}_bid {v!r} snapped to 0.0")
                bid_values[market] = 0.0

        # duals of the clearing rows, then of the floors; a binary below 0.5
        # selects its pair's nonbinding branch, where the dual is zero
        duals = x[block.w0:block.z0].copy()
        duals[block.slots[x[block.z0:block.z0 + len(block.slots)] < 0.5]] = 0.0
        w = duals[:layout.n_rows]
        row_duals = np.where(layout.senses == "=", w, kkt.sigma * w)
        lower_duals = np.zeros(layout.n_cols)
        lower_duals[kkt.lower_cols] = duals[layout.n_rows:]

        out.append(IntervalSolution(
            t=layout.t,
            bids=BessBids(**bid_values),
            u=int(round(float(x[block.ul0 + 4]))) if energy else 0,
            soc=float(x[block.x0 - 1]),
            variables=layout.variables_from(x[block.x0:block.w0]),
            prices=layout.prices_from(row_duals),
            row_duals=row_duals,
            lower_duals=lower_duals,
        ))
    return BilevelSolution(intervals=out, objective=float(outcome.objective), notes=notes)


@dataclass
class VerificationReport:
    passed: bool
    mismatches: list[str]
    notes: list[str]
    revenue_milp: float
    revenue_from_duals: float
    max_residuals: dict[str, float]

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        lines = [f"verification {state}: milp revenue {self.revenue_milp:.6f}, "
                 f"dual-recomputed revenue {self.revenue_from_duals:.6f}"]
        lines += [f"  mismatch: {m}" for m in self.mismatches]
        lines += [f"  note: {n}" for n in self.notes]
        return "\n".join(lines)


def verify_bilevel_solution(bilevel: BilevelMilp, sol: BilevelSolution) -> VerificationReport:
    """Independent checks of a solution extracted from a solved bidding MILP.

    Fixes the extracted bids, re-clears every interval, and demands the
    embedded schedule is clearing-optimal (cost equality; award/price
    equality up to degeneracy), the upper-level constraints hold, the
    embedded point satisfies the first-order system, and the dual-recomputed
    revenue matches the MILP objective. A failure here signals a wrong M or
    sign, so callers must reject the solve.
    """
    scn = bilevel.scenario
    mismatches: list[str] = []
    notes: list[str] = list(sol.notes)
    max_res = {"stationarity": 0.0, "primal": 0.0, "dual_sign": 0.0, "cs": 0.0}
    bess = scn.bess

    # upper-level feasibility on awards and SOC
    soc_prev = bess.soc_init
    for s in sol.intervals:
        it = scn.intervals[s.t]
        dt = it.delta_t
        v = s.variables
        tag = f"t{s.t}"
        rate = bess.power_rate

        def check(ok: bool, label: str) -> None:
            if not ok:
                mismatches.append(label)

        check(s.bids.sell <= (rate if scn.market_mask.energy else 0.0) + PRIMAL_CHECK_TOL
              and s.bids.buy <= (rate if scn.market_mask.energy else 0.0) + PRIMAL_CHECK_TOL,
              f"{tag}:bid_rate_caps")
        if scn.market_mask.energy:
            check(s.bids.sell <= s.u * rate + PRIMAL_CHECK_TOL, f"{tag}:sell_mode")
            check(s.bids.buy <= (1 - s.u) * rate + PRIMAL_CHECK_TOL, f"{tag}:buy_mode")
        net = v.p_bd - v.p_bs - v.p_brs
        check(net >= -rate + v.p_brgc - PRIMAL_CHECK_TOL, f"{tag}:power_envelope_low")
        check(net <= rate - v.p_brgc + PRIMAL_CHECK_TOL, f"{tag}:power_envelope_high")
        soc_expect = soc_prev + (v.p_bd - v.p_bs) * dt
        check(abs(s.soc - soc_expect) <= PRIMAL_CHECK_TOL, f"{tag}:soc_recursion")
        check(s.soc >= bess.soc_min + (v.p_brgc + v.p_brs) * dt - PRIMAL_CHECK_TOL,
              f"{tag}:soc_floor_headroom")
        check(s.soc <= bess.soc_max - v.p_brgc * dt + PRIMAL_CHECK_TOL,
              f"{tag}:soc_ceiling_headroom")
        check(v.p_bs * v.p_bd <= PRIMAL_CHECK_TOL, f"{tag}:simultaneous_buy_sell")
        soc_prev = s.soc

    # first-order system at the embedded point
    for block, s in zip(bilevel.blocks, sol.intervals):
        layout = block.kkt.layout
        xvec = layout.vector_from(s.variables)
        lp = layout.build_lp(s.bids)
        res = solver.kkt_residuals(lp, xvec, s.row_duals, s.lower_duals)
        for key in max_res:
            max_res[key] = max(max_res[key], res[key])
        tag = f"t{s.t}"
        if res["primal"] > PRIMAL_CHECK_TOL:
            mismatches.append(f"{tag}:{_worst_primal_row(lp, xvec)}")
        if res["stationarity"] > STATIONARITY_CHECK_TOL:
            mismatches.append(f"{tag}:stationarity")
        if res["dual_sign"] > STATIONARITY_CHECK_TOL:
            mismatches.append(f"{tag}:dual_sign")
        if res["cs"] > CS_CHECK_TOL:
            mismatches.append(f"{tag}:complementarity")

    # re-clear at the extracted bids and compare
    degenerate = []
    try:
        recleared = clearing.clear_horizon(scn, [s.bids for s in sol.intervals])
    except clearing.ClearingError as exc:
        mismatches.append(f"reclear:{exc}")
        recleared = None
    if recleared is not None:
        for block, s, rc in zip(bilevel.blocks, sol.intervals, recleared):
            layout = block.kkt.layout
            xvec = layout.vector_from(s.variables)
            embedded_cost = float(layout.c @ xvec)
            scale = max(1.0, abs(rc.objective))
            if abs(embedded_cost - rc.objective) > LL_OBJECTIVE_REL_TOL * scale:
                mismatches.append(f"t{s.t}:lower_level_optimality")
                continue
            x_rc = layout.vector_from(rc.variables)
            awards_differ = np.max(np.abs(xvec - x_rc), initial=0.0) > 1e-6 * max(1.0, float(np.max(np.abs(x_rc), initial=0.0)))
            prices_differ = any(
                abs(a - b) > 1e-6 * max(1.0, abs(b))
                for a, b in zip(
                    (s.prices.energy, s.prices.reserve, s.prices.regcap, s.prices.mileage),
                    (rc.prices.energy, rc.prices.reserve, rc.prices.regcap, rc.prices.mileage),
                )
            )
            if awards_differ or prices_differ:
                degenerate.append(s.t)
    if degenerate:
        notes.append(
            "degenerate clearing optima at intervals "
            f"{degenerate}: awards/prices differ, objectives match within 1e-6"
        )

    # revenue recomputation guards against big-M truncation
    revenue = sum(
        direct_revenue_value(block.kkt.layout, s.variables, s.row_duals)
        for block, s in zip(bilevel.blocks, sol.intervals)
    )
    scale = max(1.0, abs(sol.objective))
    if abs(revenue - sol.objective) > REVENUE_REL_TOL * scale:
        mismatches.append("objective_linearization")

    report = VerificationReport(
        passed=not mismatches,
        mismatches=mismatches,
        notes=notes,
        revenue_milp=sol.objective,
        revenue_from_duals=float(revenue),
        max_residuals=max_res,
    )
    log.info(report.summary())
    return report


def _worst_primal_row(lp: solver.LpProblem, x: np.ndarray) -> str:
    viol = solver.row_violation(lp.senses, lp.a.dot(x), lp.rhs)
    r = int(np.argmax(viol))
    return lp.row_names[r] if viol[r] > 0.0 else "bounds"
