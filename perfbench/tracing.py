"""In-memory spans around calls into the program's public functions.

The benchmark never edits the program: it replaces each traced function
wherever a ``bessbid`` module holds a reference to it (``clearing`` calls
``solver.solve_lp`` through the module, ``cli`` imports ``load_scenario`` by
name), records one span per call, and puts the originals back afterwards.
A span's self time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from dataclasses import dataclass


def _bids_zero(args, kwargs, out):
    return {"zero": bool(args[0].bids.all_zero())}


def _horizon(args, kwargs, out):
    bids = args[1] if len(args) > 1 else kwargs.get("bids")
    return {"intervals": len(out), "passive": bids is None}


def _milp(args, kwargs, out):
    return {"nodes": out.node_count or 0, "gap": out.mip_gap or 0.0}


def _mps_bytes(args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _emit_bytes(args, kwargs, out):
    return {"bytes": sum(os.path.getsize(p) for p in out.values())}


# traced function -> extractor of the counts recorded on its span
TARGETS: dict[str, object] = {
    "solver.solve_milp": _milp,
    "solver.solve_lp": None,
    "solver.kkt_residuals": None,
    "solver.feasibility_residual": None,
    "solver.export_mps": _mps_bytes,
    "solver.import_mps": None,
    "clearing.build_ll_interval": None,
    "clearing.clear_interval": _bids_zero,
    "clearing.clear_horizon": _horizon,
    "bilevel.assemble_milp": lambda a, k, out: dict(out.counts),
    "bilevel.derive_kkt": None,
    "bilevel.extract_solution": None,
    "bilevel.verify_bilevel_solution": None,
    "scenario.synthesize_scenario": None,
    "scenario.scenario_to_text": None,
    "scenario.scenario_from_text": None,
    "scenario.validate_scenario": None,
    "scenario.load_scenario": None,
    "agc.generate_signal": None,
    "agc.simulate_tracking": lambda a, k, out: {"breached": bool(out.breached)},
    "harness.run_case": lambda a, k, out: {"label": out.label},
    "harness.brute_force_oracle": lambda a, k, out: {
        "evaluated": out.evaluated, "feasible": out.feasible},
    "harness.compare_cases": None,
    "harness.emit_outputs": _emit_bytes,
    "harness.replay_agc": None,
    "cli.main": None,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index into Tracer.spans, -1 at top level
    pass_id: str     # "setup" or "pass<k>"
    counts: dict | None = None


class Tracer:
    """Records spans for the functions in ``targets`` while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name, fn, extract):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.pass_id)
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if extract is not None:
                span.counts = extract(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        if self._undo:
            return
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "bessbid" or n.startswith("bessbid."))]
        self.missing = []
        for target, extract in TARGETS.items():
            mod_name, fn_name = target.split(".")
            original = getattr(sys.modules.get(f"bessbid.{mod_name}"), fn_name, None)
            if not callable(original):
                self.missing.append(target)
                continue
            wrapper = self._wrap(target, original, extract)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))
        if self.missing:
            print(f"perfbench: not traced (absent): {', '.join(self.missing)}",
                  file=sys.stderr)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo = []

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus the union of its children."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent >= 0:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out = []
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for a, b in sorted(children.get(i, ())):
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            out.append((s.end - s.start) - covered)
        return out

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.pass_id, s.counts]
                for s in self.spans]


def _median(values, default=0.0) -> float:
    return float(statistics.median(values)) if values else default


LAYERS = ("solver", "clearing", "bilevel", "scenario", "agc", "harness", "cli")


def layer_metrics(tracer: Tracer, traced_pass_s: dict[str, float],
                  untraced_pass_s: list[float]) -> dict[str, float]:
    """Per-layer metrics of the traced passes, keyed by pass id.

    Setup spans count toward the per-call self-time medians, not toward the
    per-pass counts.
    """
    pass_ids = list(traced_pass_s)
    selfs = tracer.self_times()
    spans = tracer.spans
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def per_call(name):
        return _median([selfs[i] for i in by_name.get(name, ())])

    groups: dict[str, list[int]] = {p: [] for p in pass_ids}
    for i, s in enumerate(spans):
        if s.pass_id in groups:
            groups[s.pass_id].append(i)

    def per_pass(fn):
        """Median over traced passes of fn(span indices of that pass)."""
        return _median([fn(groups[p]) for p in pass_ids])

    def calls(name):
        return per_pass(lambda idx: sum(1 for i in idx if spans[i].name == name))

    def returned(idx, name):
        """Spans of the calls to ``name`` that returned (a raise counts nothing)."""
        return [spans[i] for i in idx if spans[i].name == name and spans[i].counts]

    def count_sum(name, key, agg=sum):
        return per_pass(lambda idx: agg([s.counts[key] for s in returned(idx, name)] or [0]))

    m: dict[str, float] = {}
    for target in TARGETS:
        m[f"{target}.s"] = per_call(target)
    m["solver.solve_lp.calls"] = calls("solver.solve_lp")
    m["solver.milp_nodes"] = count_sum("solver.solve_milp", "nodes")
    m["solver.milp_gap"] = count_sum("solver.solve_milp", "gap", max)
    m["solver.mps_bytes"] = count_sum("solver.export_mps", "bytes")
    m["clearing.clear_interval.calls"] = calls("clearing.clear_interval")

    def zero_bid_frac(idx):
        """Interval clears on the zero-bid path: zero-bid clear_interval calls
        plus every interval of a passive clear_horizon."""
        single = returned(idx, "clearing.clear_interval")
        passive = sum(s.counts["intervals"] for s in returned(idx, "clearing.clear_horizon")
                      if s.counts["passive"])
        total = len(single) + passive
        return (sum(s.counts["zero"] for s in single) + passive) / total if total else 0.0

    m["clearing.zero_bid_frac"] = per_pass(zero_bid_frac)
    for key, name in (("columns", "model_cols"), ("rows", "model_rows"),
                      ("binaries", "model_binaries")):
        m[f"bilevel.{name}"] = count_sum("bilevel.assemble_milp", key, max)
    m["agc.simulate_tracking.calls"] = calls("agc.simulate_tracking")
    m["agc.breaches"] = count_sum("agc.simulate_tracking", "breached")
    for case in (1, 2, 3, 4):
        m[f"harness.run_case.case{case}_s"] = per_pass(lambda idx, c=f"case{case}": sum(
            s.end - s.start for s in returned(idx, "harness.run_case") if s.counts["label"] == c))
    m["harness.oracle_feasible_frac"] = per_pass(lambda idx: next(
        (s.counts["feasible"] / s.counts["evaluated"]
         for s in returned(idx, "harness.brute_force_oracle")), 0.0))
    m["harness.emit_bytes"] = count_sum("harness.emit_outputs", "bytes")

    # self time per layer per pass; bench.self_s is the rest of the traced
    # pass, the time of its steps outside every span, which the run checks
    # to be small
    layer_of = {i: s.name.split(".")[0] for i, s in enumerate(spans)}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_pass(
            lambda idx, l=layer: sum(selfs[i] for i in idx if layer_of[i] == l))
    unattributed = {p: traced_pass_s[p] for p in pass_ids}
    for i, s in enumerate(spans):
        if s.pass_id in unattributed:
            unattributed[s.pass_id] -= selfs[i]
    m["bench.self_s"] = _median(list(unattributed.values()))
    traced = _median(list(traced_pass_s.values()))
    m["trace.pass_s"] = traced
    m["trace.overhead_s"] = traced - _median(untraced_pass_s)
    return m
