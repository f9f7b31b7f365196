"""bessbid benchmark: one workload (or all three) for a fixed time budget.

    python3 perfbench/run.py --workload desk-compare --seed 0 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs one untraced pass, then traced passes, and reports per-layer metrics
and the tracing overhead. The last line of standard output is one JSON
object; a table with units and the run's environment come before it.

Any failure makes the run incorrect and its exit code 1: a correctness check
that finds a wrong output, or an operation that the program refuses (it
raises). The first pass with a failure ends the measuring, and no timing
median includes it. Outputs land in ``.perfbench_out/`` at the repository
root.
"""

from __future__ import annotations

import os

# one thread per BLAS/OpenMP pool keeps the load within the cores reported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

E2E_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
SETUP_MIN_REPS, SETUP_MIN_SECONDS, SETUP_MAX_REPS = 5, 0.5, 200
SETUP_PASS_SECONDS = 0.05
# a traced pass's time outside every span (bench.self_s) stays below this
# share of the pass, or a step calls into the program past the traced functions
UNTRACED_SHARE = 0.01


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac") or name.endswith("milp_gap"):
        return "frac"
    if name.endswith("bytes"):
        return "B"
    return "count"


@contextmanager
def c_stdout_to_stderr():
    """Send what the solver's C code prints to stderr, so that the result
    stays the last line of stdout."""
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        ctypes.CDLL(None).fflush(None)
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "git_sha": sha, "seed": seed}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def run_workload(cls, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Set up, warm up and run passes of one workload; returns its result."""
    from tracing import Tracer, layer_metrics
    from workloads import Clock, Gates

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{cls.name}-", dir=OUT))
    try:
        workload = cls(seed, smoke=smoke)
        tracer = Tracer()

        setup_s: list[float] = []

        def set_up(min_reps: int, min_seconds: float) -> None:
            """Build the seeded inputs again; the median of all builds is setup_s."""
            if smoke:
                min_reps, min_seconds = 1, 0.0
            tracer.pass_id = "setup"
            if trace:
                tracer.install()
            try:
                spent = 0.0
                for rep in range(SETUP_MAX_REPS):
                    if rep >= min_reps and spent >= min_seconds:
                        break
                    t0 = time.perf_counter()
                    workload.setup(workdir)
                    setup_s.append(time.perf_counter() - t0)
                    spent += setup_s[-1]
            finally:
                tracer.uninstall()

        set_up(SETUP_MIN_REPS, SETUP_MIN_SECONDS)
        if not smoke:
            # lazy imports and first-call costs land in an untimed small pass
            warm = cls(seed, smoke=True)
            (workdir / "warmup").mkdir()
            warm.setup(workdir / "warmup")
            warm.run_pass(Gates(), Clock())

        gates = Gates()
        passes: list[dict] = []

        def one_pass(traced: bool) -> None:
            t0 = time.perf_counter()
            # builds between passes sample set-up across the run, not only
            # in its first second
            set_up(1, SETUP_PASS_SECONDS)
            tracer.pass_id = f"pass{len(passes)}"
            clock = Clock()
            if traced:
                tracer.install()
            try:
                workload.run_pass(gates, clock)
            finally:
                tracer.uninstall()
            passes.append({"id": tracer.pass_id, "traced": traced,
                           "wall_s": time.perf_counter() - t0, "pass_s": clock.total,
                           "steps": clock.steps})

        start = time.perf_counter()
        if trace:
            one_pass(False)
        # a pass with a failure ends the run, which is then incorrect; only
        # the passes before it are timed
        while gates.failed == 0:
            mine = [p for p in passes if p["traced"] == trace]
            if mine and (smoke or time.perf_counter() - start
                         + _median([p["wall_s"] for p in passes]) > seconds):
                break
            one_pass(trace)
        if gates.failed:
            passes.pop()
        else:
            workload.finish(gates)
        # the host's speed drifts over seconds, so set-up is sampled at both
        # ends of the run as well as between passes
        set_up(SETUP_MIN_REPS, SETUP_MIN_SECONDS)

        untraced = [p["pass_s"] for p in passes if not p["traced"]]
        metrics: dict[str, float] = {}
        if trace:
            traced = {p["id"]: p["pass_s"] for p in passes if p["traced"]}
            if traced and untraced:
                metrics = layer_metrics(tracer, traced, untraced)
                gates.check(abs(metrics["bench.self_s"])
                            <= UNTRACED_SHARE * metrics["trace.pass_s"],
                            f"time outside every span {metrics['bench.self_s']:.6f} s "
                            f"<= {UNTRACED_SHARE} x traced pass {metrics['trace.pass_s']:.6f} s")
            units = {k: layer_unit(k) for k in metrics}
        else:
            if untraced:
                metrics["pass_s"] = _median(untraced)
            metrics["setup_s"] = _median(setup_s)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = E2E_UNITS
        steps = sorted({k for p in passes for k in p["steps"]})
        return {"workload": cls.name, "seed": seed, "trace": int(trace),
                "correct": gates.failed == 0, "attempted": gates.attempted,
                "failed": gates.failed, "messages": gates.messages,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
                "step_s": {k: _median([p["steps"].get(k, 0.0) for p in passes]) for k in steps},
                "passes": passes, "setup_s": setup_s,
                "spans": tracer.dump() if trace else None}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_table(result: dict) -> None:
    print(f"{result['workload']}: seed {result['seed']}, trace {result['trace']}, "
          f"{len(result['passes'])} passes, {result['attempted']} attempted, "
          f"{result['failed']} failed (failed_frac "
          f"{result['failed'] / max(1, result['attempted']):.4f})")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    for name, value in result["step_s"].items():
        print(f"  {'step ' + name:<40} {value:>16.6g} s (median, not a metric)")


def import_program() -> str | None:
    """Import ``bessbid`` from this checkout's ``src/``; a reason on failure."""
    if not (SRC / "bessbid" / "__init__.py").is_file():
        return f"no program source at {SRC}"
    sys.path.insert(0, str(SRC))
    import bessbid
    if Path(bessbid.__file__).resolve().parent != SRC / "bessbid":
        return f"bessbid imported from {bessbid.__file__}, not {SRC}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["desk-compare", "oracle-grid", "reference-export", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    problem = import_program()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(args.seed)
    results = []
    with c_stdout_to_stderr():
        for name in names:
            results.append(run_workload(WORKLOADS[name], args.seed, args.seconds,
                                        bool(args.trace)))
    for result in results:
        for message in result["messages"]:
            print(f"perfbench: {result['workload']}: {message}", file=sys.stderr)
        print_table(result)
        with open(OUT / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json",
                  "w", encoding="utf-8") as fh:
            json.dump({"env": env, **result}, fh)
    print("env " + json.dumps(env, sort_keys=True))

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    line = {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
