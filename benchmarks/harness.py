"""The benchmark proper: set-up, the timed loop, the traced run and the report.

``run.py`` pins the thread variables, times the import of tropiloc from the
checkout and then calls ``run``; see its docstring for the command line.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import dataclass, replace
from io import BytesIO, StringIO, TextIOWrapper
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import tropiloc
import workloads
from check import ERROR, OK, WRONG, box_members, check_cli, check_result, self_test, shift
from spans import SpanTotals, Tracer
from tropiloc import (
    ScaledChebyshevInstance,
    StripInstance,
    TiltedStripInstance,
    chebyshev,
    cli,
    rectilinear,
    semiring,
    solutions,
)
from tropiloc.errors import DomainError
from tropiloc.linear import Infeasible

SETUP_REPEATS = 3
# Enough calls that ten or more lie beyond the 90th percentile.
MIN_CALLS = 100
COLD_START_RUNS = 15
VERIFY_SAMPLES = 10
MIB = 1024.0 * 1024.0
# Per-layer metrics that are derived from array sizes, not measured.
COMPUTED = {"chebyshev.theta_temp_mb", "workload.total_m", "workload.total_n", "workload.instances"}


@dataclass(slots=True)
class Outcome:
    """One checked call: time in the call, verdict, and what it returned."""

    ns: int
    status: str
    why: str
    result: object = None
    bytes_out: int = 0


def call_solve(item) -> Outcome:
    t0 = perf_counter_ns()
    try:
        result = tropiloc.solve(item.inst)
    except Exception as exc:  # a raising call is a failed call, recorded below
        result = exc
    ns = perf_counter_ns() - t0
    status, why = check_result(item, result)
    return Outcome(ns, status, why, result)


def call_cli(item) -> Outcome:
    out, err = BytesIO(), StringIO()
    wrapper = TextIOWrapper(out, encoding="utf-8")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = wrapper, err
    try:
        t0 = perf_counter_ns()
        try:
            code = cli.main(["solve", item.path])
        except Exception as exc:  # a raising call is a failed call, recorded below
            code = exc
        ns = perf_counter_ns() - t0
        wrapper.flush()
    finally:
        sys.stdout, sys.stderr = saved
    payload = out.getvalue()
    wrapper.detach()
    if isinstance(code, Exception):
        return Outcome(ns, ERROR, f"raised {type(code).__name__}: {code}", bytes_out=len(payload))
    status, why = check_cli(item, code, payload, err.getvalue())
    return Outcome(ns, status, why, payload, len(payload))


CALLS = {"many_clients": call_solve, "wide_bounds": call_solve, "small_files": call_cli}


class Tally:
    """Attempted and failed operations, with the reason of each failed call.

    An operation is one pool instance under one kind of call (``solve`` or
    ``cli``); it fails if any of its calls fails, and is wrong if any of its
    calls returned a wrong answer.  The timed loop repeats each operation as
    often as the run's length allows, so counting operations rather than
    calls makes ``attempted`` and ``failed`` the same for every run of a
    seed.
    """

    def __init__(self):
        self.calls = 0
        self.status = {}
        self.reasons = Counter()

    def add(self, call, item, outcome: Outcome) -> None:
        self.calls += 1
        op = (call.__name__, item.name)
        if outcome.status == OK:
            self.status.setdefault(op, OK)
            return
        if self.status.get(op) != WRONG:
            self.status[op] = outcome.status
        self.reasons[f"{outcome.status}: {outcome.why.splitlines()[0] if outcome.why else ''}"] += 1

    @property
    def attempted(self) -> int:
        return len(self.status)

    @property
    def failed(self) -> int:
        return sum(status != OK for status in self.status.values())

    @property
    def wrong(self) -> int:
        return sum(status == WRONG for status in self.status.values())


def _git_sha(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none (not a git checkout)"


def _src_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "tropiloc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _header(args, root: Path, src: Path, thread_vars) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(root),
        "src_sha256": _src_sha256(src),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in thread_vars},
        "caller": "1 process, 1 caller, closed loop",
    }


def setup(workload: str, seed: int, directory: str, src: Path):
    """Generate and serialise the pool in a child process and parse it back."""
    subprocess.run(
        [sys.executable, workloads.__file__, "--workload", workload, "--seed", str(seed), "--out", directory],
        env=dict(os.environ, PYTHONPATH=str(src)), check=True, timeout=120,
    )
    return workloads.load(directory)


def warm_up(workload: str, pool, tally: Tally):
    """One checked call on every instance of the pool, before any timing.

    The first pass over a pool runs up to half again slower than the
    passes after it.  Returns the outcome of each call.
    """
    call = CALLS[workload]
    outcomes = []
    for item in pool:
        outcome = call(item)
        tally.add(call, item, outcome)
        outcomes.append((item, outcome))
    return outcomes


def _self_test(call, item, outcome) -> None:
    if call is call_solve:
        box = outcome.result
        delta = shift(item)
        shifted = replace(box, u_lo=box.u_lo + delta, u_hi=box.u_hi + delta)
        self_test(item, box.theta, box_members(box), box_members(shifted))
    else:
        doc = json.loads(outcome.result)
        members = np.asarray(doc["members"], dtype=np.float64)
        self_test(item, float(doc["theta"]), members, members + shift(item))


def timed_run(workload: str, pool, seconds: int, tally: Tally) -> list[dict]:
    """Whole passes over the pool until ``seconds`` and MIN_CALLS are reached.

    Whole passes keep the mix of shapes the same in every pass; the last
    pass may end after ``seconds``.  Returns, for each pass, its call rate
    and its latency percentiles.
    """
    call = CALLS[workload]
    passes = []
    calls = 0
    gc.collect()
    start = perf_counter()
    while perf_counter() - start < seconds or calls < MIN_CALLS:
        ms = []
        for item in pool:
            outcome = call(item)
            ms.append(outcome.ns / 1e6)
            tally.add(call, item, outcome)
        calls += len(ms)
        passes.append({
            "rate": len(ms) / (sum(ms) / 1e3),
            "p50": statistics.median(ms),
            "p90": statistics.quantiles(ms, n=10)[8],
        })
    return passes


def end_to_end(passes: list[dict], setup_s: float) -> dict:
    """The median over passes of each pass's rate and percentiles.

    The host's speed changes from second to second; a pass is short enough
    to see one speed, and the median over passes ignores the slow ones.
    """
    def median(key):
        return statistics.median(p[key] for p in passes)

    return {
        "solves_per_s": {"value": median("rate"), "unit": "1/s"},
        "solve_p50_ms": {"value": median("p50"), "unit": "ms"},
        "solve_p90_ms": {"value": median("p90"), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def _core(item):
    """The Chebyshev instance the solver works on: the reduction of a plane one."""
    if isinstance(item.inst, TiltedStripInstance):
        return rectilinear.tilted_to_scaled(item.inst)
    if isinstance(item.inst, StripInstance):
        return rectilinear.strip_to_chebyshev(item.inst)
    return item.inst


def _compute_theta(core):
    if isinstance(core, ScaledChebyshevInstance):
        return chebyshev.compute_theta_scaled(core)
    return chebyshev.compute_theta(core)


def _probe_stages(item, box) -> bool | None:
    """Stage calls the workload call does not expose; returns verify's verdict."""
    core = _core(item)
    report = chebyshev.check_feasibility(core)
    if item.cause is None and report.feasible:
        _compute_theta(core)
    if box is None or isinstance(box, (Infeasible, BaseException)):
        return None
    try:
        return solutions.verify(box, item.inst, VERIFY_SAMPLES).passed
    except DomainError:
        return False


def traced_run(workload: str, pool, seconds: int, tally: Tally, tracer: Tracer) -> dict:
    """An untraced and a traced call on each instance, in whole passes.

    Passes repeat until ``seconds`` have gone by; the pass-0 counts cover
    every instance exactly once.
    """
    call = CALLS[workload]
    plain_ns = traced_ns = 0
    bytes_in = bytes_out = 0
    verify_rejects = 0
    calls = 0
    gc.collect()
    start = perf_counter()
    while calls == 0 or perf_counter() - start < seconds:
        for item in pool:
            # Alternate which of the pair runs first, so that cache warmth
            # left by the previous instance does not bias the overhead.
            if calls % 2 == 0:
                plain = call(item)
            tracer.instance, tracer.pass_index = item.name, calls // len(pool)
            with tracer.patched():
                tracer.role, tracer.last_solve = "call", None
                traced = call(item)
                box = tracer.last_solve
                tracer.role = "probe"
                if call is call_solve:
                    probe = call_cli(item)
                    tally.add(call_cli, item, probe)
                else:
                    probe = traced
                passed = _probe_stages(item, box)
            if calls % 2 == 1:
                plain = call(item)
            tally.add(call, item, plain)
            tally.add(call, item, traced)
            plain_ns += plain.ns
            traced_ns += traced.ns
            bytes_in += item.bytes_in
            bytes_out += probe.bytes_out
            verify_rejects += tracer.pass_index == 0 and passed is False
            calls += 1
    return {
        "calls": calls,
        "plain_ms": plain_ns / 1e6,
        "traced_ms": traced_ns / 1e6,
        "bytes_in": bytes_in,
        "bytes_out": bytes_out,
        "verify_rejects": verify_rejects,
    }


def memory_peaks(pool) -> tuple[float, float]:
    """tracemalloc peaks (MiB) of the closure and of theta, max over the pool."""
    closure_peak = theta_peak = 0.0
    tracemalloc.start()
    try:
        for item in pool:
            core = _core(item)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            semiring.trace_and_closure(core.diff_bounds)
            closure_peak = max(closure_peak, (tracemalloc.get_traced_memory()[1] - base) / MIB)
            if item.cause is None:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                _compute_theta(core)
                theta_peak = max(theta_peak, (tracemalloc.get_traced_memory()[1] - base) / MIB)
    finally:
        tracemalloc.stop()
    return closure_peak, theta_peak


def cold_start_ms(seed: int, directory: str, root: Path, src: Path) -> float:
    """Median wall time of ``python -m tropiloc.cli solve`` on one small file."""
    path = os.path.join(directory, "cold-start.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(tropiloc.emit_instance(tropiloc.random_instance("chebyshev", 2, 5, seed)))
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(COLD_START_RUNS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "tropiloc.cli", "solve", path],
            cwd=str(root), env=env, capture_output=True, timeout=60, check=False,
        )
        times.append((perf_counter() - t0) * 1e3)
        if proc.returncode != 0:
            raise RuntimeError(f"cold-start run exited {proc.returncode}: {proc.stderr.decode(errors='replace')}")
    return statistics.median(times)


def layer_metrics(workload: str, pool, run: dict, tracer: Tracer, peaks, cold_ms: float) -> dict:
    totals = SpanTotals(tracer.spans)
    n = run["calls"]
    cli_role = "call" if CALLS[workload] is call_cli else "probe"

    def per_call(value):
        return value / n

    theta = 0.0
    for (role, name, inst, pass_index), ms in totals.by_instance.items():
        if role == "probe" and name == "chebyshev.compute_theta":
            theta += ms - totals.by_instance[(role, "chebyshev.certificates", inst, pass_index)]
    solve = per_call(totals.dur("call", "tropiloc.solve"))
    closure = per_call(totals.dur("call", "semiring.closure"))
    # Everything in solve outside the core Chebyshev solver: the variant
    # dispatch, strip_to_chebyshev/tilted_to_scaled and the result transform.
    reduce = per_call(totals.dur("call", "tropiloc.solve") - totals.dur("call", "chebyshev.core"))
    box = per_call(totals.dur("call", "linear.box.assemble") + totals.dur("call", "linear.box.upper_bound"))
    certificates = per_call(totals.dur("probe", "chebyshev.certificates"))
    theta = per_call(theta)
    first = [s for s in tracer.spans if s["role"] == "call" and s["pass"] == 0]
    closure_peak, theta_peak = peaks
    feasible = [it for it in pool if it.cause is None]
    values = {
        "tropiloc.solve_ms": (solve, "ms"),
        "chebyshev.theta_ms": (theta, "ms"),
        "chebyshev.theta_share_pct": (100.0 * theta / solve, "%"),
        "chebyshev.theta_peak_mb": (theta_peak, "MiB"),
        "chebyshev.theta_temp_mb": (max((8.0 * it.inst.m**2 * it.inst.dim / MIB for it in feasible), default=0.0), "MiB"),
        "chebyshev.certificates_ms": (certificates, "ms"),
        "semiring.closure_ms": (closure, "ms"),
        "semiring.closure_share_pct": (100.0 * closure / solve, "%"),
        "semiring.closure_peak_mb": (closure_peak, "MiB"),
        "semiring.closure_finite": (sum(s["finite"] for s in first if s["name"] == "semiring.closure"), "count"),
        "semiring.power_trace_calls": (sum(s["name"] == "semiring.power_trace" for s in first), "count"),
        "linear.box_ms": (box, "ms"),
        "rectilinear.reduce_ms": (reduce, "ms"),
        "tropiloc.solve_unattributed_ms": (solve - reduce - certificates - theta - box, "ms"),
        "io.parse_ms": (per_call(totals.dur(cli_role, "io.parse")), "ms"),
        "io.emit_ms": (per_call(totals.self_time(cli_role, "io.emit")), "ms"),
        "io.bytes_in": (per_call(run["bytes_in"]), "B"),
        "io.bytes_out": (per_call(run["bytes_out"]), "B"),
        "solutions.sample_ms": (per_call(totals.dur(cli_role, "solutions.sample")), "ms"),
        "cli.self_ms": (per_call(totals.self_time(cli_role, "cli.main")), "ms"),
        "solutions.verify_ms": (per_call(totals.dur("probe", "solutions.verify")), "ms"),
        "solutions.verify_rejects": (run["verify_rejects"], "count"),
        "cli.cold_start_ms": (cold_ms, "ms"),
        "trace.overhead_ms": (per_call(run["traced_ms"] - run["plain_ms"]), "ms"),
        "trace.overhead_pct": (100.0 * (run["traced_ms"] - run["plain_ms"]) / run["plain_ms"], "%"),
        "trace.calls": (n, "count"),
        "workload.instances": (len(pool), "count"),
        "workload.total_m": (sum(it.inst.m for it in pool), "count"),
        "workload.total_n": (sum(it.inst.dim for it in pool), "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run(args, import_s: float, root: Path, src: Path, thread_vars) -> int:
    work = root / ".bench_work"
    header = _header(args, root, src, thread_vars)
    for key, value in header.items():
        print(f"# {key}: {value}")

    work.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work)
    call = CALLS[args.workload]
    tally = Tally()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(directory)
            os.mkdir(directory)
            t0 = perf_counter()
            pool = setup(args.workload, args.seed, directory, src)
            setup_times.append(perf_counter() - t0)
        t0 = perf_counter()
        warm = warm_up(args.workload, pool, tally)
        warm_s = perf_counter() - t0
        self_tested = set()
        for item, outcome in warm:
            if outcome.status == OK and item.cause is None and item.variant not in self_tested:
                _self_test(call, item, outcome)
                self_tested.add(item.variant)
        setup_s = import_s + statistics.median(setup_times) + warm_s
        print(f"# setup: import {import_s:.4f} s, pool of {len(pool)} instances, "
              f"generate+parse {', '.join(f'{t:.3f}' for t in setup_times)} s, warm-up pass {warm_s:.3f} s; "
              f"answer-check self-test passed on {len(self_tested)} variants")
        if args.trace:
            tracer = Tracer()
            traced = traced_run(args.workload, pool, args.seconds, tally, tracer)
            peaks = memory_peaks(pool)
            cold_ms = cold_start_ms(args.seed, directory, root, src)
            metrics = layer_metrics(args.workload, pool, traced, tracer, peaks, cold_ms)
            spans_path = work / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans_path, header)
            print(f"# spans: {len(tracer.spans)} written to {spans_path.relative_to(root)}")
        else:
            passes = timed_run(args.workload, pool, args.seconds, tally)
            metrics = end_to_end(passes, setup_s)
            print(f"# timed: {len(passes) * len(pool)} calls in {len(passes)} passes")
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    for name, m in metrics.items():
        label = "  (computed)" if name in COMPUTED else ""
        print(f"{name:32s} {m['value']:>14.6g} {m['unit']}{label}")
    ratio = tally.failed / tally.attempted
    print(f"{'failed_ratio':32s} {ratio:>14.6g} ({tally.failed} of {tally.attempted} operations; "
          f"{tally.calls} checked calls)")
    for reason, count in tally.reasons.most_common():
        print(f"#   {count:6d} x {reason}")
    # Without one correct warm-up answer the self-test could not show that
    # the check rejects wrong ones, so nothing is vouched for.
    correct = tally.wrong == 0 and bool(self_tested)
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0
