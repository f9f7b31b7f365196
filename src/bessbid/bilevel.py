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
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import clearing, solver
from .clearing import BessBids, LlInstance, LlLayout, LlVariables, Prices
from .scenario import Scenario, validate_scenario

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

    def residuals(self, x: np.ndarray, row_duals: np.ndarray,
                  lower_duals: np.ndarray, bids: BessBids = clearing.ZERO_BIDS) -> dict[str, float]:
        lp = self.layout.build_lp(bids)
        return solver.kkt_residuals(lp, x, row_duals, lower_duals)


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


def derive_kkt(instance: LlInstance) -> KktSystem:
    """KKT system of a built clearing LP, with big-M values per pair.

    Primal-side M values bound each row's slack using the variable ranges
    implied by the clearing rows themselves plus the storage power rating as
    the cap on bid quantities; the dual-side M is a uniform cap derived from
    the bid coefficients.
    """
    layout = instance.layout
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


def linearize_objective(kkt: KktSystem) -> tuple[np.ndarray, np.ndarray]:
    """Exact linear form of one interval's storage revenue.

    The bilinear revenue (price times award) is removed in three steps:
    multiply each storage stationarity row by its award, cancel the resulting
    dual-times-slack products via complementary slackness, then substitute
    the clearing LP's strong-duality equality. Every product of a dual with a
    storage bid or award cancels, leaving the negated generator payment on
    the primal columns plus RHS-weighted duals on the generator limit rows,
    the requirement rows, and the balance row.

    Returns ``(x_coefs, dual_coefs)`` in layout column/row order, where
    ``dual_coefs`` applies to signed duals in the original sense convention.
    """
    layout = kkt.layout
    scn = layout.scenario
    it = layout.interval
    x_coefs = np.zeros(layout.n_cols)
    n_gen_cols = LlLayout.GEN_COLS * layout.n_gens
    x_coefs[:n_gen_cols] = -layout.c[:n_gen_cols]
    dual_coefs = np.zeros(layout.n_rows)
    for j, g in enumerate(scn.generators):
        dual_coefs[layout.row_gen(j, 0)] = g.p_min
        dual_coefs[layout.row_gen(j, 1)] = g.p_max
        dual_coefs[layout.row_gen(j, 2)] = g.reserve_ramp
        dual_coefs[layout.row_gen(j, 3)] = g.regulation_ramp
    dual_coefs[layout.row_reserve_req] = it.reserve_req
    dual_coefs[layout.row_regcap_req] = it.regcap_req
    dual_coefs[layout.row_mileage_req] = it.mileage_req
    dual_coefs[layout.row_balance] = it.load
    return x_coefs, dual_coefs


def linearized_revenue_value(layout: LlLayout, x: np.ndarray,
                             row_duals: np.ndarray) -> float:
    """Evaluate the linearized per-interval revenue at a KKT point."""
    kkt = derive_kkt(layout.instance())
    x_coefs, dual_coefs = linearize_objective(kkt)
    return float(x_coefs @ x + dual_coefs @ row_duals)


def direct_revenue_value(layout: LlLayout, x: np.ndarray,
                         row_duals: np.ndarray) -> float:
    """Price-times-award revenue evaluated directly from duals and awards."""
    lam = row_duals[layout.row_balance]
    return float(
        lam * (x[layout.col_bs] - x[layout.col_bd])
        + row_duals[layout.row_reserve_req] * x[layout.col_brs]
        + row_duals[layout.row_regcap_req] * x[layout.col_brgc]
        + row_duals[layout.row_mileage_req] * x[layout.col_brgm]
    )


# ---------------------------------------------------------------------------
# upper-level constraint set
# ---------------------------------------------------------------------------

VarKey = tuple[int, str]  # (interval, variable name)


@dataclass
class UlConstraintSet:
    """Upper-level rows and bounds over named per-interval variables.

    Variable names: sbid, dbid, rsbid, rgbid, u, soc, and the award names
    bs, bd, brs, brgc. Rows reference awards directly because the storage
    power coupling and SOC headroom act on cleared quantities.
    """

    rows: list[tuple[dict[VarKey, float], str, float, str]]
    bounds: dict[VarKey, tuple[float, float]]


def build_ul_constraints(scn: Scenario, terminal_soc_equality: bool = False) -> UlConstraintSet:
    """Bid limits, charge/discharge exclusivity, power coupling, SOC recursion
    and headroom, with masked markets pinned to zero bids.

    ``terminal_soc_equality`` adds an end-of-horizon row pinning the final
    SOC back to the initial level; the default leaves terminal SOC free.
    """
    mask = scn.market_mask
    bess = scn.bess
    rate = bess.power_rate
    rows: list[tuple[dict[VarKey, float], str, float, str]] = []
    bounds: dict[VarKey, tuple[float, float]] = {}

    for t, it in enumerate(scn.intervals):
        dt = it.delta_t
        if mask.energy:
            bounds[(t, "sbid")] = (0.0, rate)
            bounds[(t, "dbid")] = (0.0, rate)
            rows.append(({(t, "sbid"): 1.0, (t, "u"): -rate}, "<", 0.0, f"t{t}:sell_needs_discharge_mode"))
            rows.append(({(t, "dbid"): 1.0, (t, "u"): rate}, "<", rate, f"t{t}:buy_needs_charge_mode"))
        else:
            bounds[(t, "sbid")] = (0.0, 0.0)
            bounds[(t, "dbid")] = (0.0, 0.0)
        bounds[(t, "rsbid")] = (0.0, rate) if mask.reserve else (0.0, 0.0)
        bounds[(t, "rgbid")] = (0.0, rate) if mask.regulation else (0.0, 0.0)
        bounds[(t, "soc")] = (bess.soc_min, bess.soc_max)

        # net withdrawal +- ancillary headroom within the power rating
        rows.append((
            {(t, "bd"): 1.0, (t, "bs"): -1.0, (t, "brs"): -1.0, (t, "brgc"): -1.0},
            ">", -rate, f"t{t}:power_envelope_low",
        ))
        rows.append((
            {(t, "bd"): 1.0, (t, "bs"): -1.0, (t, "brs"): -1.0, (t, "brgc"): 1.0},
            "<", rate, f"t{t}:power_envelope_high",
        ))
        # SOC recursion on cleared energy awards
        coeffs: dict[VarKey, float] = {(t, "soc"): 1.0, (t, "bd"): -dt, (t, "bs"): dt}
        rhs = 0.0
        if t == 0:
            rhs = bess.soc_init
        else:
            coeffs[(t - 1, "soc")] = -1.0
        rows.append((coeffs, "=", rhs, f"t{t}:soc_recursion"))
        # headroom: regulation reserves energy in both directions, reserve
        # only downward in SOC terms
        rows.append((
            {(t, "soc"): 1.0, (t, "brgc"): -dt, (t, "brs"): -dt},
            ">", bess.soc_min, f"t{t}:soc_floor_headroom",
        ))
        rows.append((
            {(t, "soc"): 1.0, (t, "brgc"): dt},
            "<", bess.soc_max, f"t{t}:soc_ceiling_headroom",
        ))
    if terminal_soc_equality and scn.n_intervals > 0:
        last = scn.n_intervals - 1
        rows.append(({(last, "soc"): 1.0}, "=", bess.soc_init, "terminal_soc"))
    return UlConstraintSet(rows=rows, bounds=bounds)


# ---------------------------------------------------------------------------
# MILP assembly
# ---------------------------------------------------------------------------


@dataclass
class IntervalBlock:
    """Global column bookkeeping for one interval of the assembled MILP."""

    t: int
    ul_cols: dict[str, int]        # sbid/dbid/rsbid/rgbid/u/soc where present
    x0: int                        # base of the clearing primal block
    w0: int                        # base of the dual block (one per clearing row)
    nu_cols: dict[int, int]        # clearing column -> reduced-cost column
    z_cols: dict[tuple[str, int], int]   # ("row", r) / ("lower", k) -> binary column
    kkt: KktSystem


@dataclass
class BilevelMilp:
    milp: solver.MilpProblem
    scenario: Scenario
    blocks: list[IntervalBlock]
    m_registry: list[BigMRecord]
    counts: dict[str, int]


def assemble_milp(scn: Scenario, terminal_soc_equality: bool = False) -> BilevelMilp:
    """Build the full bidding MILP across all intervals.

    Intervals couple only through the SOC recursion; each interval carries
    its own clearing primal block, dual block, stationarity rows, and big-M
    complementarity switching. Masked markets pin their bid and award
    columns to zero and omit the complementarity binaries of rows that are
    then always binding.
    """
    violations = validate_scenario(scn)
    if violations:
        raise BilevelError("invalid scenario: " + "; ".join(violations))
    mask = scn.market_mask

    ul = build_ul_constraints(scn, terminal_soc_equality=terminal_soc_equality)

    names: list[str] = []
    lower: list[float] = []
    upper: list[float] = []
    integrality: list[int] = []
    objective: list[float] = []

    def add_var(name: str, lo: float, hi: float, is_int: bool = False,
                obj: float = 0.0) -> int:
        names.append(name)
        lower.append(lo)
        upper.append(hi)
        integrality.append(1 if is_int else 0)
        objective.append(obj)
        return len(names) - 1

    rows_data: list[dict[int, float]] = []
    rows_sense: list[str] = []
    rows_rhs: list[float] = []
    rows_name: list[str] = []

    def add_row(coeffs: dict[int, float], sense: str, rhs: float, name: str) -> None:
        rows_data.append(coeffs)
        rows_sense.append(sense)
        rows_rhs.append(float(rhs))
        rows_name.append(name)

    blocks: list[IntervalBlock] = []
    registry: list[BigMRecord] = []
    bid_row_by_name = {"bid_cap:sell": "sbid", "bid_cap:buy": "dbid",
                       "bid_cap:reserve": "rsbid", "bid_cap:regcap": "rgbid"}

    masked_rows: set[str] = set()
    masked_award_cols: set[str] = set()
    if not mask.energy:
        masked_rows |= {"bid_cap:sell", "bid_cap:buy"}
        masked_award_cols |= {"bs", "bd"}
    if not mask.reserve:
        masked_rows |= {"bid_cap:reserve"}
        masked_award_cols |= {"brs"}
    if not mask.regulation:
        masked_rows |= {"bid_cap:regcap", "mil_floor:bess", "mil_cap:bess"}
        masked_award_cols |= {"brgc", "brgm"}

    for t in range(scn.n_intervals):
        instance = clearing.build_ll_interval(scn, t)
        layout = instance.layout
        kkt = derive_kkt(instance)
        registry.extend(kkt.m_registry)
        md = kkt.m_dual
        rate = scn.bess.power_rate
        pfx = f"t{t}:"
        x_coefs, dual_coefs = linearize_objective(kkt)

        ul_cols: dict[str, int] = {}
        for nm in ("sbid", "dbid", "rsbid", "rgbid"):
            if (t, nm) in ul.bounds:
                lo, hi = ul.bounds[(t, nm)]
                ul_cols[nm] = add_var(pfx + nm, lo, hi)
        if mask.energy:
            ul_cols["u"] = add_var(pfx + "u", 0.0, 1.0, is_int=True)
        lo, hi = ul.bounds[(t, "soc")]
        ul_cols["soc"] = add_var(pfx + "soc", lo, hi)

        # clearing primal block, with redundant native bounds for relaxation
        # tightness (each is implied by the clearing rows plus bid limits)
        x0 = len(names)
        for j, g in enumerate(scn.generators):
            add_var(pfx + layout.col_names[layout.col_gen(j, 0)], g.p_min, g.p_max,
                    obj=x_coefs[layout.col_gen(j, 0)])
            add_var(pfx + layout.col_names[layout.col_gen(j, 1)], 0.0, g.reserve_ramp,
                    obj=x_coefs[layout.col_gen(j, 1)])
            add_var(pfx + layout.col_names[layout.col_gen(j, 2)], 0.0, g.regulation_ramp,
                    obj=x_coefs[layout.col_gen(j, 2)])
            add_var(pfx + layout.col_names[layout.col_gen(j, 3)], 0.0,
                    g.mileage_multiplier * g.regulation_ramp,
                    obj=x_coefs[layout.col_gen(j, 3)])
        award_caps = {
            "bs": rate, "bd": rate, "brs": rate, "brgc": rate,
            "brgm": scn.bess.mileage_multiplier * rate,
        }
        for nm, cap in award_caps.items():
            hi = 0.0 if nm in masked_award_cols else cap
            add_var(pfx + nm, 0.0, hi)

        # dual block: one magnitude variable per inequality row, a free
        # variable for the balance row; objective coefficients carry the
        # sense sign because the columns hold dual magnitudes
        w0 = len(names)
        for r, rname in enumerate(layout.row_names):
            if layout.senses[r] == "=":
                add_var(pfx + "lam", -md, md, obj=dual_coefs[r])
            else:
                add_var(pfx + "w:" + rname, 0.0, md, obj=dual_coefs[r] * kkt.sigma[r])

        nu_cols: dict[int, int] = {}
        for pair in kkt.comp_pairs:
            if pair.kind == "lower":
                nu_cols[pair.index] = add_var(pfx + "nu:" + pair.name, 0.0, md)

        z_cols: dict[tuple[str, int], int] = {}
        for pair in kkt.comp_pairs:
            if pair.kind == "row" and pair.name in masked_rows:
                continue
            if pair.kind == "lower" and layout.col_names[pair.index] in masked_award_cols:
                continue
            z_cols[(pair.kind, pair.index)] = add_var(
                pfx + "z:" + pair.name if pair.kind == "row" else pfx + "zlo:" + pair.name,
                0.0, 1.0, is_int=True,
            )

        block = IntervalBlock(t=t, ul_cols=ul_cols, x0=x0, w0=w0,
                              nu_cols=nu_cols, z_cols=z_cols, kkt=kkt)
        blocks.append(block)

        # --- clearing primal rows -----------------------------------------
        a_csr = layout.a
        row_coeffs_cache: list[dict[int, float]] = []
        for r in range(layout.n_rows):
            coeffs = {x0 + int(cc): float(v)
                      for cc, v in zip(a_csr.indices[a_csr.indptr[r]:a_csr.indptr[r + 1]],
                                       a_csr.data[a_csr.indptr[r]:a_csr.indptr[r + 1]])}
            rname = layout.row_names[r]
            if rname in bid_row_by_name and bid_row_by_name[rname] in ul_cols:
                coeffs[ul_cols[bid_row_by_name[rname]]] = -1.0
            row_coeffs_cache.append(coeffs)
            add_row(dict(coeffs), layout.senses[r], layout.rhs_base[r], pfx + rname)

        # --- stationarity: c_k = sum_r A[r,k] sigma_r w_r + A[bal,k] lam + nu_k
        a_csc = layout.a.tocsc()
        for k in range(layout.n_cols):
            coeffs = {}
            for p in range(a_csc.indptr[k], a_csc.indptr[k + 1]):
                r = int(a_csc.indices[p])
                v = float(a_csc.data[p])
                if layout.senses[r] == "=":
                    coeffs[w0 + r] = v
                else:
                    coeffs[w0 + r] = v * kkt.sigma[r]
            if k in nu_cols:
                coeffs[nu_cols[k]] = 1.0
            add_row(coeffs, "=", layout.c[k], pfx + "stat:" + layout.col_names[k])

        # --- complementarity switching ------------------------------------
        for pair in kkt.comp_pairs:
            key = (pair.kind, pair.index)
            if pair.kind == "row":
                r = pair.index
                dual_col = w0 + r
                if key in z_cols:
                    z = z_cols[key]
                    mp = pair.m_primal
                    coeffs = dict(row_coeffs_cache[r])
                    if layout.senses[r] == "<":
                        # slack (b - ax) <= mp * (1 - z)
                        coeffs[z] = -mp
                        add_row(coeffs, ">", layout.rhs_base[r] - mp, pfx + "cs_p:" + pair.name)
                    else:
                        coeffs[z] = mp
                        add_row(coeffs, "<", layout.rhs_base[r] + mp, pfx + "cs_p:" + pair.name)
                    add_row({dual_col: 1.0, z: -pair.m_dual}, "<", 0.0, pfx + "cs_d:" + pair.name)
                # masked rows are always binding at zero slack: dual stays free
            else:
                k = pair.index
                nu = nu_cols[k]
                if key in z_cols:
                    z = z_cols[key]
                    add_row({x0 + k: 1.0, z: pair.m_primal}, "<", pair.m_primal,
                            pfx + "cs_p:lb:" + pair.name)
                    add_row({nu: 1.0, z: -pair.m_dual}, "<", 0.0, pfx + "cs_d:lb:" + pair.name)

    # --- upper-level rows over named variables -----------------------------
    award_col = {"bs": 0, "bd": 1, "brs": 2, "brgc": 3}

    def resolve(key: VarKey) -> int:
        t, nm = key
        block = blocks[t]
        if nm in block.ul_cols:
            return block.ul_cols[nm]
        if nm in award_col:
            return block.x0 + LlLayout.GEN_COLS * scn.n_generators + award_col[nm]
        raise KeyError(f"unknown variable {key}")

    for coeffs_named, sense, rhs, name in ul.rows:
        coeffs: dict[int, float] = {}
        skip = False
        for key, v in coeffs_named.items():
            tt, nm = key
            if nm == "u" and "u" not in blocks[tt].ul_cols:
                skip = True  # mode-exclusivity rows vanish with the energy market
                break
            coeffs[resolve(key)] = v
        if not skip:
            add_row(coeffs, sense, rhs, name)

    # --- freeze into a MilpProblem -----------------------------------------
    n = len(names)
    data, ri, ci = [], [], []
    for i, coeffs in enumerate(rows_data):
        for cjol, v in coeffs.items():
            if v != 0.0:
                ri.append(i)
                ci.append(cjol)
                data.append(float(v))
    a = sp.coo_matrix((data, (ri, ci)), shape=(len(rows_data), n)).tocsr()
    milp = solver.MilpProblem(
        c=np.array(objective),
        a=a,
        senses=np.array(rows_sense),
        rhs=np.array(rows_rhs),
        lower=np.array(lower),
        upper=np.array(upper),
        maximize=True,
        row_names=rows_name,
        col_names=names,
        integrality=np.array(integrality, dtype=np.int8),
    )
    milp.validate()

    counts = {
        "columns": n,
        "rows": len(rows_data),
        "binaries": int(sum(integrality)),
        "mode_binaries": sum(1 for b in blocks if "u" in b.ul_cols),
        "complementarity_binaries": int(sum(len(b.z_cols) for b in blocks)),
        "intervals": scn.n_intervals,
    }
    log.info("assembled bidding MILP: %(columns)d cols, %(rows)d rows, "
             "%(binaries)d binaries", counts)
    return BilevelMilp(milp=milp, scenario=scn, blocks=blocks,
                       m_registry=registry, counts=counts)


# ---------------------------------------------------------------------------
# solution extraction and verification
# ---------------------------------------------------------------------------


@dataclass
class UlVariables:
    """Upper-level decision values per interval (arrays of length T)."""

    s_bid: np.ndarray
    d_bid: np.ndarray
    rs_bid: np.ndarray
    rg_bid: np.ndarray
    u: np.ndarray
    soc: np.ndarray


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

    @property
    def ul(self) -> UlVariables:
        return UlVariables(
            s_bid=np.array([s.bids.sell for s in self.intervals]),
            d_bid=np.array([s.bids.buy for s in self.intervals]),
            rs_bid=np.array([s.bids.reserve for s in self.intervals]),
            rg_bid=np.array([s.bids.regcap for s in self.intervals]),
            u=np.array([s.u for s in self.intervals], dtype=int),
            soc=np.array([s.soc for s in self.intervals]),
        )


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
    out: list[IntervalSolution] = []
    notes: list[str] = []
    for block in bilevel.blocks:
        layout = block.kkt.layout
        n_ll = layout.n_cols

        def ul_value(nm: str) -> float:
            return float(x[block.ul_cols[nm]]) if nm in block.ul_cols else 0.0

        bid_values = {"sell": ul_value("sbid"), "buy": ul_value("dbid"),
                      "reserve": ul_value("rsbid"), "regcap": ul_value("rgbid")}
        for market, v in bid_values.items():
            if -solver.FEASIBILITY_TOL <= v < 0.0:
                notes.append(f"t{block.t}:{market}_bid {v!r} snapped to 0.0")
                bid_values[market] = 0.0
        bids = BessBids(**bid_values)
        ll_x = np.array(x[block.x0:block.x0 + n_ll], dtype=float)

        row_duals = np.zeros(layout.n_rows)
        for r in range(layout.n_rows):
            v = float(x[block.w0 + r])
            if layout.senses[r] == "=":
                row_duals[r] = v
            else:
                if ("row", r) in block.z_cols and x[block.z_cols[("row", r)]] < 0.5:
                    v = 0.0
                row_duals[r] = block.kkt.sigma[r] * v
        lower_duals = np.zeros(layout.n_cols)
        for k, nu in block.nu_cols.items():
            v = float(x[nu])
            if ("lower", k) in block.z_cols and x[block.z_cols[("lower", k)]] < 0.5:
                v = 0.0
            lower_duals[k] = v

        out.append(IntervalSolution(
            t=block.t,
            bids=bids,
            u=int(round(ul_value("u"))),
            soc=float(x[block.ul_cols["soc"]]),
            variables=layout.variables_from(ll_x),
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


def verify_bilevel_solution(
    scn: Scenario,
    bilevel: BilevelMilp,
    outcome: solver.SolveOutcome,
    solution: BilevelSolution | None = None,
) -> VerificationReport:
    """Independent checks of a solved bidding MILP.

    Fixes the extracted bids, re-clears every interval, and demands the
    embedded schedule is clearing-optimal (cost equality; award/price
    equality up to degeneracy), the upper-level constraints hold, the
    embedded point satisfies the first-order system, and the dual-recomputed
    revenue matches the MILP objective. A failure here signals a wrong M or
    sign, so callers must reject the solve.
    """
    sol = solution if solution is not None else extract_solution(bilevel, outcome)
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
        xvec = _variables_to_vector(layout, s.variables)
        res = block.kkt.residuals(xvec, s.row_duals, s.lower_duals, bids=s.bids)
        for key in max_res:
            max_res[key] = max(max_res[key], res[key])
        tag = f"t{s.t}"
        if res["primal"] > PRIMAL_CHECK_TOL:
            mismatches.append(f"{tag}:{_worst_primal_row(layout, xvec, s.bids)}")
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
            xvec = _variables_to_vector(layout, s.variables)
            embedded_cost = float(layout.c @ xvec)
            scale = max(1.0, abs(rc.objective))
            if abs(embedded_cost - rc.objective) > LL_OBJECTIVE_REL_TOL * scale:
                mismatches.append(f"t{s.t}:lower_level_optimality")
                continue
            x_rc = _variables_to_vector(layout, rc.variables)
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
        direct_revenue_value(block.kkt.layout, _variables_to_vector(block.kkt.layout, s.variables), s.row_duals)
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


def _variables_to_vector(layout: LlLayout, v: LlVariables) -> np.ndarray:
    x = np.zeros(layout.n_cols)
    for j in range(layout.n_gens):
        x[layout.col_gen(j, 0)] = v.p_gs[j]
        x[layout.col_gen(j, 1)] = v.p_grs[j]
        x[layout.col_gen(j, 2)] = v.p_grgc[j]
        x[layout.col_gen(j, 3)] = v.p_grgm[j]
    x[layout.col_bs] = v.p_bs
    x[layout.col_bd] = v.p_bd
    x[layout.col_brs] = v.p_brs
    x[layout.col_brgc] = v.p_brgc
    x[layout.col_brgm] = v.p_brgm
    return x


def _worst_primal_row(layout: LlLayout, x: np.ndarray, bids: BessBids) -> str:
    lp = layout.build_lp(bids)
    viol = solver.row_violation(lp.senses, lp.a.dot(x), lp.rhs)
    r = int(np.argmax(viol))
    return lp.row_names[r] if viol[r] > 0.0 else "bounds"
