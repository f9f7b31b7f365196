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

The same bidding problem has a second model with no big-M
(:func:`assemble_regime_milp`): given a certified cover of each interval's
bid box by clearing duals (:func:`clearing.regimes`), each interval chooses
one held dual, and its clearing point is optimal for that dual by
complementary slackness. The published solve uses that model; the big-M
MILP is the model ``export-mps`` writes and the reference tests solve
against. Both models' solutions are checked by the one verifier,
:func:`verify_bilevel_solution`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import clearing, solver
from .clearing import LlLayout
from .scenario import MarketMask, Scenario, validate_scenario, violations_text

log = logging.getLogger(__name__)

STATIONARITY_CHECK_TOL = 5e-6
PRIMAL_CHECK_TOL = 5e-6
CS_CHECK_TOL = 1e-7
LL_OBJECTIVE_REL_TOL = 1e-6
REVENUE_REL_TOL = 1e-5
_MARKETS = ("sell", "buy", "reserve", "regcap", "mileage")   # the awards; the bids the first 4


class BilevelError(RuntimeError):
    pass


@dataclass(frozen=True)
class CompPair:
    """One complementarity pair: a constraint (or variable lower bound) and
    its dual, switched by a single binary. Every interval has the same
    pairs; their big-Ms are in :class:`KktSystem`."""

    kind: str        # "row" or "lower"
    index: int       # row index or column index in the clearing layout
    name: str
    derivation: str  # of its m_primal


@dataclass
class KktSystem:
    """First-order optimality system of a scenario's clearing LPs: signs and
    pairs once, big-Ms per interval. ``m_primal[t, k]`` caps pair ``k``'s
    slack when its dual may be nonzero, ``m_dual[t]`` every dual when its
    slack may be nonzero."""

    layout: LlLayout
    sigma: np.ndarray            # +1 for ">=", -1 for "<=", 0 for the balance row
    comp_pairs: list[CompPair]
    m_primal: np.ndarray         # (intervals, pairs)
    m_dual: np.ndarray           # (intervals,)
    dual_cap_notes: list[str]    # the derivation of each interval's m_dual

    @property
    def lower_cols(self) -> list[int]:
        """Columns of the lower-bound pairs, in the order of their duals."""
        return [p.index for p in self.comp_pairs if p.kind == "lower"]

    @property
    def m_registry(self) -> list["BigMRecord"]:
        """Every big-M with its derivation, interval by interval: the dual
        cap, then one record per pair."""
        records = []
        for t, (md, md_note, m_primal) in enumerate(
                zip(self.m_dual.tolist(), self.dual_cap_notes, self.m_primal.tolist())):
            records.append(BigMRecord(t, "dual_cap", md, md_note))
            records += [BigMRecord(t, p.name if p.kind == "row" else f"lb:{p.name}", m,
                                   p.derivation) for p, m in zip(self.comp_pairs, m_primal)]
        return records


@dataclass(frozen=True)
class BigMRecord:
    t: int
    target: str
    value: float
    derivation: str


def _dual_bounds(scn: Scenario) -> tuple[np.ndarray, list[str]]:
    """Each interval's uniform dual cap from its bid coefficients, and its
    derivation."""
    max_mult = max(
        max(g.mileage_multiplier for g in scn.generators),
        scn.bess.mileage_multiplier,
    )
    values, notes = [], []
    for it in scn.intervals:
        beta = it.bess_price_bids
        max_bid = max(
            max(it.gen_energy_bids), max(it.gen_reserve_bids),
            max(it.gen_regcap_bids), max(it.gen_mileage_bids),
            abs(beta.sell), abs(beta.buy), abs(beta.reserve),
            abs(beta.regcap), abs(beta.mileage),
        )
        values.append(max(1.0, 2.0 * it.delta_t * max_bid * (1.0 + max_mult)))
        notes.append(
            f"2 * delta_t * max_bid * (1 + max_mileage_mult) = "
            f"2 * {it.delta_t} * {max_bid} * (1 + {max_mult}), floored at 1"
        )
    return np.array(values, dtype=float), notes


def derive_kkt(layout: LlLayout) -> KktSystem:
    """KKT system of a scenario's clearing LPs, with big-M values per pair and interval.

    Primal-side M values bound each row's slack using the variable ranges
    implied by the clearing rows themselves plus the storage power rating as
    the cap on bid quantities; the dual-side M is a uniform cap derived from
    the bid coefficients.
    """
    scn = layout.scenario
    rate = scn.bess.power_rate
    mult_b = scn.bess.mileage_multiplier

    md, md_notes = _dual_bounds(scn)
    sigma = np.where(layout.senses == "<", -1.0, np.where(layout.senses == ">", 1.0, 0.0))

    pairs: list[CompPair] = []
    caps: list = []        # per pair, one M for every interval or one per interval

    def add_pair(kind: str, index: int, mp, note: str) -> None:
        names = layout.row_names if kind == "row" else layout.col_names
        pairs.append(CompPair(kind, index, names[index], note))
        caps.append(mp)

    for j, g in enumerate(scn.generators):
        span = g.p_max - g.p_min
        mcap = g.mileage_multiplier * g.regulation_ramp
        add_pair("row", layout.row_gen(j, 0), span,
                 "slack <= p_max - p_min given output cap and nonnegative awards")
        add_pair("row", layout.row_gen(j, 1), span,
                 "slack <= p_max - p_min given output floor")
        add_pair("row", layout.row_gen(j, 2), g.reserve_ramp, "slack <= reserve ramp")
        add_pair("row", layout.row_gen(j, 3), g.regulation_ramp, "slack <= regulation ramp")
        add_pair("row", layout.row_gen(j, 4), mcap,
                 "slack <= mileage cap given mileage <= mult * regulation ramp")
        add_pair("row", layout.row_gen(j, 5), mcap,
                 "slack <= mult * regcap award <= mult * regulation ramp")
    for key, r in layout.bid_rows.items():
        add_pair("row", r, rate, f"slack <= power rating (bid {key} <= rate)")
    add_pair("row", layout.row_mil_floor_bess, mult_b * rate,
             "slack <= storage mileage cap = mult * rate")
    add_pair("row", layout.row_mil_cap_bess, mult_b * rate,
             "slack <= mult * regcap award <= mult * rate")

    rs_cap = sum(g.reserve_ramp for g in scn.generators) + rate
    rg_cap = sum(g.regulation_ramp for g in scn.generators) + rate
    mil_cap = sum(g.mileage_multiplier * g.regulation_ramp for g in scn.generators) + mult_b * rate
    # each interval's capability above its requirement, floored at 0 as max(0.0, .) does
    reqs = slice(layout.row_reserve_req, layout.row_mileage_req + 1)
    spare = np.array([rs_cap, rg_cap, mil_cap]) - layout.rhs_base[:, reqs]
    spare = np.where(spare > 0.0, spare, 0.0)
    for r, mp, what in zip(range(reqs.start, reqs.stop), spare.T,
                           ("reserve", "regulation", "mileage")):
        add_pair("row", r, mp, f"slack <= total {what} capability - requirement")

    for j, g in enumerate(scn.generators):
        add_pair("lower", layout.col_gen(j, 1), g.reserve_ramp, "value <= reserve ramp")
        add_pair("lower", layout.col_gen(j, 2), g.regulation_ramp, "value <= regulation ramp")
    for col in (layout.col_bs, layout.col_bd, layout.col_brs, layout.col_brgc):
        add_pair("lower", col, rate, "award <= bid <= power rating")

    m_primal = np.array([np.broadcast_to(m, scn.n_intervals) for m in caps], dtype=float).T
    return KktSystem(layout=layout, sigma=sigma, comp_pairs=pairs, m_primal=m_primal,
                     m_dual=md, dual_cap_notes=md_notes)


def linearize_objective(layout: LlLayout) -> tuple[np.ndarray, np.ndarray]:
    """Exact linear form of each interval's storage revenue.

    The bilinear revenue (price times award) is removed in three steps:
    multiply each storage stationarity row by its award, cancel the resulting
    dual-times-slack products via complementary slackness, then substitute
    the clearing LP's strong-duality equality. Every product of a dual with a
    storage bid or award cancels, leaving the negated generator payment on
    the primal columns plus the duals weighted by the clearing LP's
    right-hand side at zero bids, ``layout.rhs_base``.

    Returns ``(x_coefs, dual_coefs)``, one row per interval in layout
    column/row order, where ``dual_coefs`` (the layout's own ``rhs_base``)
    applies to signed duals in the original sense convention.
    """
    x_coefs = np.zeros_like(layout.c)
    n_gen_cols = LlLayout.GEN_COLS * layout.n_gens
    x_coefs[:, :n_gen_cols] = -layout.c[:, :n_gen_cols]
    return x_coefs, layout.rhs_base


def direct_revenue_value(layout: LlLayout, x: np.ndarray,
                         row_duals: np.ndarray) -> float | np.ndarray:
    """Price-times-award revenue evaluated directly from duals and the
    storage awards in clearing column vector ``x``; with one column vector
    and one dual vector per row, one revenue per row."""
    p_bs, p_bd, p_brs, p_brgc, p_brgm = np.moveaxis(x[..., layout.col_bs:], -1, 0)
    return (
        row_duals[..., layout.row_balance] * (p_bs - p_bd)
        + row_duals[..., layout.row_reserve_req] * p_brs
        + row_duals[..., layout.row_regcap_req] * p_brgc
        + row_duals[..., layout.row_mileage_req] * p_brgm
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
    lower: np.ndarray
    upper: np.ndarray
    c: np.ndarray
    integrality: np.ndarray


@dataclass
class IntervalBlock:
    """The columns of every interval's block in the assembled MILP,
    ``[ul | x | w | nu | z]``. Interval ``t``'s block starts at column
    ``t * width``, so the MILP's columns reshape to ``(intervals, width)``.

    Within a block: the bids sbid, dbid, rsbid, rgbid, then ``u`` when
    energy is unmasked, then ``soc``. From ``x0``: the clearing columns.
    From ``w0``: one dual per clearing row, then one reduced cost per
    lower-bound pair. From ``z0``: one binary per pair of ``switched``,
    which switches the dual at ``w0 + slots[i]``. The pairs and ``kkt`` are
    the scenario's.
    """

    x0: int
    w0: int
    z0: int
    width: int
    switched: list[CompPair]
    slots: np.ndarray
    kkt: KktSystem


@dataclass
class BilevelMilp:
    milp: solver.MilpProblem
    block: IntervalBlock
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


def _ul_width(mask: MarketMask) -> int:
    """The number of upper-level columns that open each interval's block:
    the bids sbid, dbid, rsbid, rgbid, then ``u`` with energy, then ``soc``."""
    return 5 + int(mask.energy)


def switched_pairs(kkt: KktSystem, mask: MarketMask) -> list[int]:
    """The pairs of ``kkt.comp_pairs`` that get a binary under ``mask``, by
    index: every pair but those of the rows and columns ``mask`` pins to
    zero (:func:`masked_indices`)."""
    masked_rows, masked_cols = masked_indices(kkt.layout, mask)
    return [k for k, p in enumerate(kkt.comp_pairs)
            if p.index not in (masked_rows if p.kind == "row" else masked_cols)]


def milp_counts(kkt: KktSystem, mask: MarketMask,
                terminal_soc_equality: bool = False) -> dict[str, int]:
    """The size of :func:`assemble_milp`'s model, from the layout's sizes
    and the pairs ``mask`` switches, without assembling it.

    Each interval's block (:func:`interval_blocks`) has the columns
    ``[ul | x | w | nu | z]`` and the rows: clearing, stationarity, then a
    ``cs_p`` and a ``cs_d`` row per switched pair. :func:`_ul_rows` adds per
    interval the two mode rows with energy, the power envelope's two rows
    and the SOC recursion and headroom's three, then the terminal-SOC row.
    """
    layout = kkt.layout
    n_t = layout.scenario.n_intervals
    mode = int(mask.energy)
    n_z = len(switched_pairs(kkt, mask))
    width = _ul_width(mask) + layout.n_cols + layout.n_rows + len(kkt.lower_cols) + n_z
    rows = layout.n_rows + layout.n_cols + 2 * n_z + 2 * mode + 5
    return {
        "columns": n_t * width,
        "rows": n_t * rows + int(terminal_soc_equality),
        "binaries": n_t * (mode + n_z),
        "mode_binaries": n_t * mode,
        "complementarity_binaries": n_t * n_z,
        "intervals": n_t,
    }


def interval_blocks(kkt: KktSystem, mask: MarketMask) -> tuple[IntervalBlock, ModelPart]:
    """The KKT block every interval has (one :class:`IntervalBlock`), and
    the rows and columns of all of them, in interval order, each block's
    numbered on from the block before it.

    The blocks share one pattern of entries, senses and integrality,
    built once; each interval adds only its values: costs, right-hand
    sides, bounds and big-Ms. The inequalities are the clearing rows
    (``A`` plus -1 on each storage bid column), then the floors
    ``x_k >= 0`` of the lower-bound pairs; their duals ``[w | nu]`` follow
    the same order. Rows: the clearing rows; the stationarity rows (the
    inequalities' transpose on ``x``, each dual signed by sigma, 1 on the
    balance row and the floors); then per switched pair a ``cs_p`` row
    capping the slack and a ``cs_d`` row capping the dual.
    """
    layout = kkt.layout
    scn = layout.scenario
    bess = scn.bess
    rate = bess.power_rate
    n_t = scn.n_intervals
    md = kkt.m_dual[:, None]
    nx, nr = layout.n_cols, layout.n_rows
    masked_cols = masked_indices(layout, mask)[1]
    lower_cols = kkt.lower_cols
    on = switched_pairs(kkt, mask)
    switched = [kkt.comp_pairs[k] for k in on]
    x0 = _ul_width(mask)
    w0 = x0 + nx
    z0 = w0 + nr + len(lower_cols)
    n_z = len(switched)
    width = z0 + n_z
    eq = layout.senses == "="
    x_coefs, dual_coefs = linearize_objective(layout)

    # --- columns, one row of values per interval ---------------------------
    lower = np.zeros((n_t, width))
    upper = np.empty((n_t, width))
    upper[:] = md
    c = np.zeros((n_t, width))
    integrality = np.zeros(width, dtype=np.int8)
    upper[:, :4] = np.where([mask.energy, mask.energy, mask.reserve, mask.regulation], rate, 0.0)
    if mask.energy:
        upper[:, 4] = 1.0
        integrality[4] = 1
    lower[:, x0 - 1], upper[:, x0 - 1] = bess.soc_min, bess.soc_max
    # clearing columns carry redundant native bounds for relaxation tightness
    # (each is implied by the clearing rows plus bid limits)
    n_gen_cols = LlLayout.GEN_COLS * layout.n_gens
    lower[:, x0:x0 + n_gen_cols:LlLayout.GEN_COLS] = [g.p_min for g in scn.generators]
    upper[:, x0:x0 + n_gen_cols] = [v for g in scn.generators for v in (
        g.p_max, g.reserve_ramp, g.regulation_ramp, g.mileage_multiplier * g.regulation_ramp)]
    upper[:, x0 + n_gen_cols:w0] = [rate, rate, rate, rate, bess.mileage_multiplier * rate]
    upper[:, [x0 + k for k in masked_cols]] = 0.0
    c[:, x0:w0] = x_coefs
    # w holds magnitudes of inequality duals and the free lambda of the
    # balance row, so its objective coefficients carry the sense sign
    lower[:, w0:w0 + nr] = np.where(eq, -md, 0.0)
    c[:, w0:w0 + nr] = np.where(eq, dual_coefs, dual_coefs * kkt.sigma)
    upper[:, z0:] = 1.0
    integrality[z0:] = 1

    # --- rows --------------------------------------------------------------
    # the inequalities as COO entries over the block's columns
    a = layout.a
    n_lo = len(lower_cols)
    g_r = np.concatenate([a.rows, list(layout.bid_rows.values()), nr + np.arange(n_lo)])
    g_c = np.concatenate([x0 + a.indices, np.arange(4), x0 + np.array(lower_cols, dtype=int)])
    g_v = np.concatenate([a.data, np.full(4, -1.0), np.ones(n_lo)])
    g_sense = np.concatenate([layout.senses, np.full(n_lo, ">")])
    g_rhs = np.concatenate([layout.rhs_base, np.zeros((n_t, n_lo))], axis=1)
    g_sign = np.concatenate([np.where(eq, 1.0, kkt.sigma), np.ones(n_lo)])
    clearing_entry = g_r < nr
    x_entry = g_c >= x0

    slots = np.array([p.index if p.kind == "row" else nr + lower_cols.index(p.index)
                      for p in switched], dtype=int)
    m_p = kkt.m_primal[:, on]
    z = z0 + np.arange(n_z)
    cs_p = nr + nx + 2 * np.arange(n_z)
    cs_p_of = np.full(nr + n_lo, -1)
    cs_p_of[slots] = cs_p
    cs_entry = cs_p_of[g_r] >= 0
    # a "<" row's slack b - g x <= M (1 - z) becomes g x - M z >= b - M; a
    # ">" row's g x - b <= M (1 - z) becomes g x + M z <= b + M
    flip = g_sense[slots] == "<"

    # the entries every block has, with their values; then the big-M
    # entries, whose values are each interval's
    rows = np.concatenate([g_r[clearing_entry], nr + g_c[x_entry] - x0,
                           cs_p_of[g_r[cs_entry]], cs_p + 1, cs_p, cs_p + 1])
    cols = np.concatenate([g_c[clearing_entry], w0 + g_r[x_entry], g_c[cs_entry], w0 + slots,
                           z, z])
    same = np.concatenate([g_v[clearing_entry], g_v[x_entry] * g_sign[g_r[x_entry]],
                           g_v[cs_entry], np.ones(n_z)])
    vals = np.concatenate([np.broadcast_to(same, (n_t, len(same))),
                           np.where(flip, -m_p, m_p),
                           np.broadcast_to(-md, (n_t, n_z))], axis=1)
    cs_rhs = np.stack([np.where(flip, g_rhs[:, slots] - m_p, g_rhs[:, slots] + m_p),
                       np.zeros((n_t, n_z))], axis=2).reshape(n_t, 2 * n_z)
    rhs = np.concatenate([layout.rhs_base, layout.c, cs_rhs], axis=1)
    senses = np.concatenate([
        layout.senses, np.full(nx, "="),
        np.stack([np.where(flip, ">", "<"), np.full(n_z, "<")], axis=1).ravel(),
    ])

    offsets = np.arange(n_t)[:, None]
    part = ModelPart(
        rows=(rows + len(senses) * offsets).ravel(),
        cols=(cols + width * offsets).ravel(),
        vals=vals.ravel(),
        senses=np.tile(senses, n_t),
        rhs=rhs.ravel(),
        lower=lower.ravel(), upper=upper.ravel(), c=c.ravel(),
        integrality=np.tile(integrality, n_t),
    )
    block = IntervalBlock(x0=x0, w0=w0, z0=z0, width=width, switched=switched, slots=slots,
                          kkt=kkt)
    return block, part


def _ul_rows(scn: Scenario, block: IntervalBlock, terminal_soc_equality: bool) -> ModelPart:
    """Upper-level rows on the blocks' columns, interval by interval: bid
    mode exclusivity (only with energy), the power envelope, the SOC
    recursion and the SOC headroom; then the optional terminal-SOC row."""
    rate = scn.bess.power_rate
    n_t = scn.n_intervals
    every, one = np.arange(n_t), np.ones(n_t)
    ul0 = block.width * every
    x0 = ul0 + block.x0 + block.kkt.layout.col_bs
    cols = {"soc": ul0 + block.x0 - 1, "bs": x0, "bd": x0 + 1, "brs": x0 + 2, "brgc": x0 + 3}
    bs, bd, brs, brgc = ((every, cols[k], one) for k in ("bs", "bd", "brs", "brgc"))
    sbid, dbid, u = ((every, ul0 + k, one) for k in (0, 1, 4))
    template = [
        (">", -rate, [(bd, 1.0), (bs, -1.0), (brs, -1.0), (brgc, -1.0)]),   # envelope low
        ("<", rate, [(bd, 1.0), (bs, -1.0), (brs, -1.0), (brgc, 1.0)]),     # envelope high
    ]
    if scn.market_mask.energy:
        template[:0] = [
            ("<", 0.0, [(sbid, 1.0), (u, -rate)]),    # sell needs discharge mode
            ("<", rate, [(dbid, 1.0), (u, rate)]),    # buy needs charge mode
        ]
    return _soc_rows(scn, template, {k: (every, c, one) for k, c in cols.items()},
                     terminal_soc_equality)


def _soc_rows(scn: Scenario, template: list, cols: dict[str, tuple[np.ndarray, np.ndarray]],
              terminal_soc_equality: bool) -> ModelPart:
    """The rows of ``template``, then the SOC recursion and the SOC
    headroom, interval by interval; then the optional terminal-SOC row.

    ``cols`` holds the ``soc`` column and the ``bs``, ``bd``, ``brs`` and
    ``brgc`` awards as ``(interval, column, weight)`` arrays: one ``soc``
    column per interval, in order, at weight 1, and any number of award
    columns per interval, whose weighted sum is the interval's award. A
    template row is (sense, rhs, terms), a term such a triple and its
    coefficient, which multiplies the weights; an rhs or a coefficient is
    one value or one per interval.
    """
    bess = scn.bess
    n_t = scn.n_intervals
    soc = cols["soc"]
    bs, bd, brs, brgc = (cols[k] for k in ("bs", "bd", "brs", "brgc"))
    dt = np.array([it.delta_t for it in scn.intervals])
    soc_rhs = np.r_[bess.soc_init, np.zeros(n_t - 1)]
    j_rec = len(template)   # the SOC recursion's row within an interval
    template = template + [
        ("=", soc_rhs, [(soc, 1.0), (bd, -dt), (bs, dt)]),
        # the SOC headroom: regulation reserves energy in both directions,
        # reserve only downward in SOC terms
        (">", bess.soc_min, [(soc, 1.0), (brgc, -dt), (brs, -dt)]),
        ("<", bess.soc_max, [(soc, 1.0), (brgc, dt)]),
    ]
    first = np.arange(n_t) * len(template)
    entries = [(first[t] + j, col, np.broadcast_to(coef, n_t)[t] * w)
               for j, (_, _, terms) in enumerate(template) for (t, col, w), coef in terms]
    # the one cross-interval entry: -soc[t-1] in the recursion of t >= 1
    entries.append((first[1:] + j_rec, soc[1][:-1], np.full(n_t - 1, -1.0)))
    senses = np.tile([sense for sense, _, _ in template], n_t)
    rhs = np.stack([np.broadcast_to(b, n_t) for _, b, _ in template], axis=1).ravel()
    if terminal_soc_equality:
        entries.append(([len(rhs)], soc[1][-1:], [1.0]))
        senses = np.append(senses, "=")
        rhs = np.append(rhs, bess.soc_init)
    rows, cols, vals = (np.concatenate(e) for e in zip(*entries))
    empty = np.zeros(0)
    return ModelPart(rows=rows, cols=cols, vals=vals, senses=senses, rhs=rhs,
                     lower=empty, upper=empty, c=empty, integrality=empty.astype(np.int8))


def assemble_milp(scn: Scenario, terminal_soc_equality: bool = False) -> BilevelMilp:
    """Build the full bidding MILP across all intervals.

    Each interval contributes one block from :func:`interval_blocks`; the
    blocks couple only through the SOC recursion among the upper-level rows
    that follow them. ``terminal_soc_equality`` adds an end-of-horizon row
    pinning the final SOC back to the initial level; the default leaves
    terminal SOC free.
    """
    violations = validate_scenario(scn)
    if violations:
        raise BilevelError("invalid scenario: " + violations_text(violations))
    mask = scn.market_mask
    kkt = derive_kkt(LlLayout(scn))
    block, part = interval_blocks(kkt, mask)
    ul = _ul_rows(scn, block, terminal_soc_equality)  # rows only, on the blocks' columns
    n_rows, n_cols = len(part.rhs) + len(ul.rhs), len(part.c)
    rows, cols, vals = (np.concatenate([part.rows, len(part.rhs) + ul.rows]),
                        np.concatenate([part.cols, ul.cols]), np.concatenate([part.vals, ul.vals]))
    keep = vals != 0.0
    a = solver.CsrMatrix.from_entries(rows[keep], cols[keep], vals[keep], (n_rows, n_cols))
    milp = solver.MilpProblem(
        c=part.c, a=a, senses=np.concatenate([part.senses, ul.senses]),
        rhs=np.concatenate([part.rhs, ul.rhs]), lower=part.lower, upper=part.upper,
        integrality=part.integrality, maximize=True,
    )
    milp.validate()

    counts = milp_counts(kkt, mask, terminal_soc_equality)
    log.info("assembled bidding MILP: %(columns)d cols, %(rows)d rows, "
             "%(binaries)d binaries", counts)
    return BilevelMilp(milp=milp, block=block, counts=counts)


# ---------------------------------------------------------------------------
# the bidding problem over certified clearing regimes
# ---------------------------------------------------------------------------


MAP_TOL = 1e-9   # a pivot, or a copy's coefficient, at or below it is 0 (relative on lam)


@dataclass
class CopyMaps:
    """Each copy of :func:`assemble_regime_milp` as a linear map from its own
    columns onto the clearing columns.

    In the copy of held dual ``k`` the rows in the dual's support bind (and
    the balance row) and the columns with a positive reduced cost are 0.
    Copies with the same binding rows, zero columns and side share one
    pattern. Gauss-Jordan elimination of a pattern's binding rows over its
    other columns, column by column in layout order, each pivot on its
    column's largest entry among the rows not yet pivoted, solves the pivot
    columns for the rows' right-hand sides (``lam`` times the interval's,
    the bids on the bid rows) and for the columns left without a pivot:
    the clearing directions the dual leaves free. The choice of pivots
    depends on the pattern alone. The copy is its dual's critical region
    (Gal & Nedoma, Management Science 18(7), 1972).

    A copy's columns are its binary ``lam``, then the entries of
    ``own[pattern[k]]``: its side's bids, then its free clearing columns,
    in layout order. With ``v`` the bids and clearing columns, 0 where not
    its own, copy ``k``'s clearing point is
    ``lam * x_lam[k] + q[pattern[k]] @ v``.
    """

    pattern: np.ndarray   # (copies,)
    own: np.ndarray       # (patterns, 4 + clearing columns), bool
    q: np.ndarray         # (patterns, clearing columns, 4 + clearing columns)
    x_lam: np.ndarray     # (copies, clearing columns)
    start: np.ndarray     # (copies + 1,) each copy's lam column, then the first SOC column

    @property
    def local(self) -> np.ndarray:
        """Each pattern's own entries of ``v`` as columns after ``lam``,
        from 1 on; 0 where not its own."""
        return np.cumsum(self.own, axis=1) * self.own


def copy_maps(cover: clearing.RegimeCover) -> CopyMaps:
    """The :class:`CopyMaps` of ``cover``'s copies; coefficients at or below
    ``MAP_TOL`` (times the interval's largest right-hand side, on ``lam``)
    are 0."""
    layout = cover.layout
    nr, nx = layout.n_rows, layout.n_cols
    binds = (layout.senses == "=") | (cover.row_duals != 0.0)
    zero = cover.lower_duals > 0.0
    _, first, pattern = np.unique(np.column_stack([binds, zero, cover.side]), axis=0,
                                  return_index=True, return_inverse=True)
    pattern = pattern.ravel()
    n_p = len(first)
    a = layout.a.toarray()
    own = np.zeros((n_p, 4 + nx), dtype=bool)
    q = np.zeros((n_p, nx, 4 + nx))
    per_rhs = np.zeros((n_p, nx, nr))   # the pivot columns per unit of each row's rhs
    for p, k in enumerate(first.tolist()):
        rows, cols = np.flatnonzero(binds[k]), np.flatnonzero(~zero[k])
        m = np.hstack([a[np.ix_(rows, cols)], np.eye(len(rows))])
        open_rows = np.ones(len(rows), dtype=bool)
        pivots = []
        for j in range(len(cols)):
            size = np.where(open_rows, np.abs(m[:, j]), 0.0)
            r = int(np.argmax(size))
            if size[r] <= MAP_TOL:
                continue
            m[r] /= m[r, j]
            other = np.arange(len(rows)) != r
            m[other] -= m[other, j, None] * m[r]
            open_rows[r] = False
            pivots.append((r, j))
        pr, pc = np.array(pivots, dtype=np.intp).reshape(-1, 2).T
        at_free = np.ones(len(cols), dtype=bool)
        at_free[pc] = False
        free = cols[at_free]
        per_rhs[p, cols[pc, None], rows] = m[pr, len(cols):]
        q[p, cols[pc, None], 4 + free] = -m[pr[:, None], np.flatnonzero(at_free)]
        q[p, free, 4 + free] = 1.0
        own[p, list(cover.sides[cover.side[k]])] = True
        own[p, 4 + free] = True
    # a bid enters its bid row's right-hand side
    sell = layout.bid_rows["sell"]
    q[:, :, :4] = per_rhs[:, :, sell:sell + 4] * own[:, None, :4]
    q[np.abs(q) <= MAP_TOL] = 0.0
    rhs = layout.rhs_base[cover.t]
    x_lam = np.empty((len(pattern), nx))
    for p in range(n_p):
        mine = pattern == p
        x_lam[mine] = np.einsum("kr,cr->kc", rhs[mine], per_rhs[p])
    x_lam[np.abs(x_lam) <= _lam_tol(rhs)] = 0.0
    start = np.concatenate(([0], np.cumsum(1 + own.sum(axis=1)[pattern])))
    return CopyMaps(pattern=pattern, own=own, q=q, x_lam=x_lam, start=start)


def _lam_tol(rhs: np.ndarray) -> np.ndarray:
    """``MAP_TOL`` on ``lam`` for each copy, from its interval's right-hand
    sides ``rhs``, as a column."""
    return MAP_TOL * np.maximum(1.0, np.abs(rhs).max(axis=1, initial=0.0))[:, None]


def assemble_regime_milp(cover: clearing.RegimeCover,
                         terminal_soc_equality: bool = False) -> solver.MilpProblem:
    """The bidding MILP over a certified ``cover``, in hull form (Balas
    1998), with no big-M: a disjunction over each interval's held duals.

    Held dual ``k`` gets one copy (:func:`copy_maps`): a binary ``lam``
    that chooses it, its side's bids and the clearing columns its dual
    leaves free, from column ``start[k]`` on; the interval SOCs follow the
    copies. The copy's clearing point is a linear map of them that meets
    the binding rows and the zero columns, so it is clearing-optimal at its
    bids, with its dual's prices. A copy's rows, over its own columns: the
    other clearing rows (right-hand sides times ``lam``), the floors
    ``x >= 0`` of the columns it does not own (its own columns keep their
    bounds), the power envelope on its awards, and ``bid <= rate * lam``
    for each of its bids. A row whose coefficients vanish is dropped, and
    so is one with no free column that holds for every bid in
    ``[0, rate * lam]``. Each interval chooses one copy, the revenue is
    each copy's prices times its awards, and the SOC rows act on the sums
    of an interval's copies' awards.
    """
    layout = cover.layout
    scn = layout.scenario
    bess = scn.bess
    rate = bess.power_rate
    n_t, nr, nx = scn.n_intervals, layout.n_rows, layout.n_cols
    maps = copy_maps(cover)
    pattern, own, q, x_lam, start = maps.pattern, maps.own, maps.q, maps.x_lam, maps.start
    k = len(cover.t)
    awards = layout.col_bs + np.arange(5)   # bs, bd, brs, brgc, brgm
    floors = np.flatnonzero(np.isfinite(layout.lower))
    # the power envelope on the awards: bd - bs - brs -+ brgc, against -+ rate * lam
    envelope = np.array([[-1.0, 1.0, -1.0, -1.0, 0.0], [-1.0, 1.0, -1.0, 1.0, 0.0]])

    # --- rows of each copy ---------------------------------------------------
    # the clearing rows, the floors, the envelope and the bid caps: their
    # coefficients on v per pattern, on lam per copy
    bid_terms = np.zeros((nr, 4 + nx))
    bid_terms[layout.bid_rows["sell"] + np.arange(4), np.arange(4)] = 1.0
    on_v = np.concatenate([
        np.einsum("rc,pcw->prw", layout.a.toarray(), q) - bid_terms,
        q[:, floors],
        np.einsum("ea,paw->pew", envelope, q[:, awards]),
        np.broadcast_to(np.eye(4, 4 + nx), (len(own), 4, 4 + nx)),
    ], axis=1) * own[:, None, :]
    on_v[np.abs(on_v) <= MAP_TOL] = 0.0
    rhs = layout.rhs_base[cover.t]
    tol = _lam_tol(rhs)
    on_lam = np.concatenate([
        layout.a.dot(x_lam) - rhs,
        x_lam[:, floors],
        np.einsum("ka,ea->ke", x_lam[:, awards], envelope) + [rate, -rate],
        np.full((k, 4), -rate),
    ], axis=1)
    on_lam[np.abs(on_lam) <= tol] = 0.0
    n_f = len(floors)
    binds = (layout.senses == "=") | (cover.row_duals != 0.0)
    senses = np.concatenate([np.where(binds, "=", layout.senses),
                             np.broadcast_to(np.array([">"] * n_f + [">", "<"] + ["<"] * 4),
                                             (k, n_f + 6))], axis=1)

    # which rows a copy keeps
    free_col = (on_v[:, :, 4:] != 0.0).any(axis=2)[pattern]
    vanish = ~(on_v != 0.0).any(axis=2)[pattern] & (on_lam == 0.0)
    # a row's least and largest value over the bids in [0, rate * lam], per lam
    low = on_lam + rate * np.minimum(on_v[:, :, :4], 0.0).sum(axis=2)[pattern]
    high = on_lam + rate * np.maximum(on_v[:, :, :4], 0.0).sum(axis=2)[pattern]
    holds = np.select([senses == ">", senses == "<"], [low >= -tol, high <= tol], vanish)
    keep = ~vanish & (free_col | ~holds)
    caps = nr + n_f + 2 + np.arange(4)
    keep[:, caps] = own[pattern, :4]           # the bid caps are the box itself
    keep[:, nr:nr + n_f] &= ~own[pattern][:, 4 + floors]   # an own column's floor is its bound

    # the kept rows' entries, copy by copy: a pattern's on v, then each on lam
    kk, ii = np.nonzero(keep)
    n_copy_rows = len(kk)
    n_cand = keep.shape[1]
    pp, pi, pw = np.nonzero(on_v)
    count = np.bincount(pp * n_cand + pi, minlength=len(own) * n_cand)
    key = pattern[kk] * n_cand + ii
    n_e = count[key]
    e = np.repeat(np.cumsum(count)[key] - count[key] - np.cumsum(n_e) + n_e, n_e) \
        + np.arange(n_e.sum())
    row_e = np.repeat(np.arange(n_copy_rows), n_e)
    local = maps.local
    lam_at = np.flatnonzero(on_lam[kk, ii])
    entries = [
        (row_e, start[kk[row_e]] + local[pp[e], pw[e]], on_v[pp[e], pi[e], pw[e]]),
        (lam_at, start[kk[lam_at]], on_lam[kk[lam_at], ii[lam_at]]),
    ]

    # --- columns ---------------------------------------------------------------
    soc0 = int(start[-1])
    lower = np.zeros(soc0 + n_t)
    upper = np.ones(soc0 + n_t)
    c = np.zeros(soc0 + n_t)
    integrality = np.zeros(soc0 + n_t, dtype=np.int8)
    integrality[start[:-1]] = 1
    ck, cw = np.nonzero(own[pattern])
    at = start[ck] + local[pattern[ck], cw]
    lower[at] = np.concatenate([np.zeros(4), layout.lower])[cw]
    upper[at] = np.where(cw < 4, rate, np.inf)
    lower[soc0:], upper[soc0:] = bess.soc_min, bess.soc_max
    # each copy's prices times its awards, as direct_revenue_value takes them
    y = cover.row_duals
    price = y[:, [layout.row_balance, layout.row_balance, layout.row_reserve_req,
                  layout.row_regcap_req, layout.row_mileage_req]] * [1, -1, 1, 1, 1]
    c[start[:-1]] = np.einsum("ka,ka->k", price, x_lam[:, awards])
    c[at] = np.einsum("ka,kaw->kw", price, q[:, awards][pattern])[ck, cw]

    # --- rows of each interval ---------------------------------------------------
    # one copy per interval, then the SOC rows on the sums of its copies' awards
    entries.append((n_copy_rows + cover.t, start[:-1], np.ones(k)))

    def award(j: int):
        """Every copy's award ``j`` as (interval, column, weight) entries."""
        on_q = np.nonzero(q[pattern, awards[j]])
        on_x = np.flatnonzero(x_lam[:, awards[j]])
        return (np.concatenate([cover.t[on_x], cover.t[on_q[0]]]),
                np.concatenate([start[on_x], start[on_q[0]] + local[pattern[on_q[0]], on_q[1]]]),
                np.concatenate([x_lam[on_x, awards[j]], q[pattern[on_q[0]], awards[j], on_q[1]]]))

    every = np.arange(n_t)
    ul = _soc_rows(scn, [], {"soc": (every, soc0 + every, np.ones(n_t)),
                             **{name: award(j) for j, name in
                                enumerate(("bs", "bd", "brs", "brgc"))}},
                   terminal_soc_equality)
    entries.append((n_copy_rows + n_t + ul.rows, ul.cols, ul.vals))
    rows, cols, vals = (np.concatenate(v) for v in zip(*entries))
    keep_entry = vals != 0.0
    n_rows = n_copy_rows + n_t + len(ul.rhs)
    matrix = solver.CsrMatrix.from_entries(rows[keep_entry], cols[keep_entry], vals[keep_entry],
                                           (n_rows, soc0 + n_t))
    milp = solver.MilpProblem(
        c=c, a=matrix,
        senses=np.concatenate([senses[kk, ii], np.full(n_t, "="), ul.senses]),
        rhs=np.concatenate([np.zeros(n_copy_rows), np.ones(n_t), ul.rhs]),
        lower=lower, upper=upper, integrality=integrality, maximize=True,
    )
    milp.validate()
    log.info("assembled regime MILP: %d cols, %d rows, %d binaries, %d copies with a free "
             "clearing column", milp.n_cols, milp.n_rows, k,
             int(own[pattern, 4:].any(axis=1).sum()))
    return milp


# ---------------------------------------------------------------------------
# solution extraction and verification
# ---------------------------------------------------------------------------


@dataclass
class BilevelSolution:
    """A solved bidding MILP's schedule, one row per interval: the bids
    (sell, buy, reserve, regcap), the mode ``u`` (0 without energy), the SOC,
    and the embedded clearing LP's columns, row duals (signed in the row's
    sense) and lower-bound duals, on ``layout``."""

    layout: LlLayout
    bids: np.ndarray          # (intervals, 4)
    u: np.ndarray             # (intervals,)
    soc: np.ndarray           # (intervals,)
    x: np.ndarray             # (intervals, clearing columns)
    row_duals: np.ndarray     # (intervals, clearing rows)
    lower_duals: np.ndarray   # (intervals, clearing columns)
    objective: float
    notes: list[str] = field(default_factory=list)  # extraction snaps, for the verifier


def _snap_zeros(values: np.ndarray, kind: str) -> tuple[np.ndarray, list[str]]:
    """A copy of the ``(intervals, n)`` bids (``kind`` "bid") or storage
    awards ("award"), in the order of ``_MARKETS``, with each one in
    ``[-FEASIBILITY_TOL, 0)``, solver noise around a zero, snapped to 0.0,
    and a note for each; the re-clear refuses negative bids, so a valid
    optimum would otherwise fail verification, and a report would print a
    negative zero award."""
    values = values.copy()
    snapped = (values >= -solver.FEASIBILITY_TOL) & (values < 0.0)
    rows, cols = np.nonzero(snapped)
    notes = [f"t{t}:{_MARKETS[k]}_{kind} {v!r} snapped to 0.0"
             for t, k, v in zip(rows.tolist(), cols.tolist(), values[snapped].tolist())]
    values[snapped] = 0.0
    return values, notes


def regime_solution(cover: clearing.RegimeCover, outcome: solver.SolveOutcome) -> BilevelSolution:
    """The schedule of a solved :func:`assemble_regime_milp` over ``cover``:
    each interval's chosen copy (its largest ``lam``, the first of equal
    ones), its clearing point read through the copy's map
    (:func:`copy_maps`) with its held dual's row and lower duals, and the
    SOC. The mode is 1 on the sell side, 0 on the buy side and without
    energy. Bids and awards are snapped by :func:`_snap_zeros`."""
    if outcome.x is None:
        raise BilevelError(f"no incumbent to extract (status {outcome.status})")
    layout = cover.layout
    n_t = layout.scenario.n_intervals
    maps = copy_maps(cover)
    lam = outcome.x[maps.start[:-1]]
    # copies run in interval order; each interval's first best lam
    start = np.searchsorted(cover.t, np.arange(n_t + 1))
    chosen = np.array([a + int(np.argmax(lam[a:b]))
                       for a, b in zip(start[:-1].tolist(), start[1:].tolist())], dtype=np.intp)
    p = maps.pattern[chosen]
    own = maps.own[p]
    v = np.zeros(own.shape)
    n = own.sum(axis=1)
    first = maps.start[chosen] + 1   # each chosen copy's columns after its lam
    v[own] = outcome.x[np.repeat(first - np.cumsum(n) + n, n) + np.arange(n.sum())]
    x = lam[chosen, None] * maps.x_lam[chosen] + np.einsum("tcw,tw->tc", maps.q[p], v)
    bids, notes = _snap_zeros(v[:, :4], "bid")
    x[:, layout.col_bs:], award_notes = _snap_zeros(x[:, layout.col_bs:], "award")
    sell_side = cover.side[chosen] == 0
    return BilevelSolution(
        layout=layout,
        bids=bids,
        u=(sell_side & layout.scenario.market_mask.energy).astype(int),
        soc=outcome.x[maps.start[-1]:].copy(),
        x=x,
        row_duals=cover.row_duals[chosen],
        lower_duals=cover.lower_duals[chosen],
        objective=float(outcome.objective),
        notes=notes + award_notes,
    )


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


def _tagged(checks: list[tuple[np.ndarray, object]]) -> list[str]:
    """``t<t>:<label>`` for each interval where a check failed, interval by
    interval and, within one, in check order. ``checks`` holds each check's
    failures over the intervals and its label: one, or one per interval."""
    fails = np.column_stack([f for f, _ in checks])
    labels = np.column_stack([np.broadcast_to(np.asarray(label, dtype=object), len(fails))
                              for _, label in checks])
    return [f"t{t}:{labels[t, k]}" for t, k in zip(*np.nonzero(fails))]


def verify_bilevel_solution(sol: BilevelSolution) -> VerificationReport:
    """Independent checks of a bidding schedule, on its own layout and
    that layout's scenario, whichever model it came from.

    Fixes the schedule's bids, re-clears every interval, and demands the
    embedded schedule is clearing-optimal (cost equality; award/price
    equality up to degeneracy), the upper-level constraints hold, the
    embedded point satisfies the first-order system, and the dual-recomputed
    revenue matches the MILP objective. A failure here signals a wrong M or
    sign, so callers must reject the solve.

    Each check runs over the whole horizon at once: the first-order system
    on one :class:`solver.Residuals` of ``sol.layout``, with each interval's
    costs and right-hand sides. The mismatches are listed check group by
    check group (upper level, first order, re-clear), each group interval
    by interval.
    """
    layout = sol.layout
    scn = layout.scenario
    bess = scn.bess
    rate = bess.power_rate
    n_t = len(sol.x)
    t = np.arange(n_t)
    dt = layout.delta_t
    p_bs, p_bd, p_brs, p_brgc = sol.x[:, layout.col_bs:layout.col_brgm].T
    sell, buy = sol.bids[:, 0], sol.bids[:, 1]
    notes: list[str] = list(sol.notes)

    # upper-level feasibility on awards and SOC, each rule one column
    cap = (rate if scn.market_mask.energy else 0.0) + PRIMAL_CHECK_TOL
    holds = {"bid_rate_caps": (sell <= cap) & (buy <= cap)}
    if scn.market_mask.energy:
        holds["sell_mode"] = sell <= sol.u * rate + PRIMAL_CHECK_TOL
        holds["buy_mode"] = buy <= (1 - sol.u) * rate + PRIMAL_CHECK_TOL
    net = p_bd - p_bs - p_brs
    soc_prev = np.concatenate(([bess.soc_init], sol.soc[:-1]))
    holds.update(
        power_envelope_low=net >= -rate + p_brgc - PRIMAL_CHECK_TOL,
        power_envelope_high=net <= rate - p_brgc + PRIMAL_CHECK_TOL,
        soc_recursion=np.abs(sol.soc - (soc_prev + (p_bd - p_bs) * dt)) <= PRIMAL_CHECK_TOL,
        soc_floor_headroom=sol.soc >= bess.soc_min + (p_brgc + p_brs) * dt - PRIMAL_CHECK_TOL,
        soc_ceiling_headroom=sol.soc <= bess.soc_max - p_brgc * dt + PRIMAL_CHECK_TOL,
        simultaneous_buy_sell=p_bs * p_bd <= PRIMAL_CHECK_TOL,
    )
    mismatches = _tagged([(~ok, name) for name, ok in holds.items()])

    # first-order system at the embedded point, every interval's at once
    core = solver.Residuals(layout.build_lp(0))
    rhs = layout.rhs_for(t, sol.bids)
    ax = core.activity(sol.x)
    res = {
        "stationarity": core.stationarity(sol.row_duals, sol.lower_duals, layout.c),
        "primal": core.primal(sol.x, ax, rhs),
        "dual_sign": core.dual_sign(sol.row_duals, sol.lower_duals),
        "cs": core.cs(sol.x, ax, rhs, sol.row_duals, sol.lower_duals),
    }
    # a primal failure names the interval's most violated row
    viol = solver.row_violation(layout.senses, ax, rhs)
    worst = np.argmax(viol, axis=1)
    worst_row = np.where(viol[t, worst] > 0.0, np.array(layout.row_names, dtype=object)[worst],
                         "bounds")
    mismatches += _tagged([
        (res["primal"] > PRIMAL_CHECK_TOL, worst_row),
        (res["stationarity"] > STATIONARITY_CHECK_TOL, "stationarity"),
        (res["dual_sign"] > STATIONARITY_CHECK_TOL, "dual_sign"),
        (res["cs"] > CS_CHECK_TOL, "complementarity"),
    ])

    # re-clear at the schedule's bids, on its own layout, and compare
    try:
        batch = clearing.clear_batch(layout, t, sol.bids)
    except (clearing.ClearingError, ValueError) as exc:  # a ValueError names a negative bid
        mismatches.append(f"reclear:{exc}")
        batch = None
    if batch is not None:
        cost = np.vecdot(layout.c, sol.x)
        suboptimal = (np.abs(cost - batch.objective)
                      > LL_OBJECTIVE_REL_TOL * np.maximum(1.0, np.abs(batch.objective)))
        mismatches += _tagged([(suboptimal, "lower_level_optimality")])
        awards_differ = (np.max(np.abs(sol.x - batch.x), axis=1, initial=0.0)
                         > 1e-6 * np.maximum(1.0, np.max(np.abs(batch.x), axis=1, initial=0.0)))
        prices, prices_rc = (layout.prices_from(t, d) for d in (sol.row_duals, batch.row_duals))
        prices_differ = (np.abs(prices - prices_rc)
                         > 1e-6 * np.maximum(1.0, np.abs(prices_rc))).any(axis=1)
        degenerate = np.flatnonzero(~suboptimal & (awards_differ | prices_differ)).tolist()
        if degenerate:
            notes.append(
                "degenerate clearing optima at intervals "
                f"{degenerate}: awards/prices differ, objectives match within 1e-6"
            )

    # revenue recomputation guards against big-M truncation; builtin sum
    # adds the intervals' np.float64 revenues one by one, in interval order
    revenue = sum(direct_revenue_value(layout, sol.x, sol.row_duals))
    scale = max(1.0, abs(sol.objective))
    if abs(revenue - sol.objective) > REVENUE_REL_TOL * scale:
        mismatches.append("objective_linearization")

    report = VerificationReport(
        passed=not mismatches,
        mismatches=mismatches,
        notes=notes,
        revenue_milp=sol.objective,
        revenue_from_duals=float(revenue),
        # the first of the largest, as Python's max picks: 0.0 when all are zeros
        max_residuals={key: max(0.0, *r.tolist()) for key, r in res.items()},
    )
    log.info(report.summary())
    return report
