"""Spans around the solver's layers, recorded from outside the package.

A ``Tracer`` wraps public functions of the tropiloc modules, in the module
namespace where their callers look them up, for the duration of a
``with tracer.patched():`` block.  Each call of a wrapped function records a
span: name, start, end, parent span, instance id, pass over the instance
pool, and role ("call" for the workload's own call, "probe" for the extra
stage calls the traced run makes).  Spans stay in memory and are written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

import tropiloc
from tropiloc import chebyshev, cli, rectilinear, semiring, solutions
from tropiloc import io as tio


def _assemble_name(args, kwargs) -> str:
    theta = args[1] if len(args) > 1 else kwargs.get("theta")
    return "chebyshev.assemble_fixed" if theta is None else "linear.box.assemble"


def _closure_note(out) -> dict:
    _, star = out
    return {"finite": 0 if star is None else int(np.isfinite(star).sum())}


# (module, attribute, span name or name(args, kwargs), note(result) or None).
# The attribute is the binding the caller uses: cli imports the typed solvers
# and the I/O functions into its own namespace, chebyshev imports the
# semiring closure and the linear parameter bound into its own.  A binding
# listed twice gets nested spans, the later entry outside: the plain and
# scaled solvers that cli calls are both its solve and the core solver.
TARGETS = (
    (tropiloc, "solve_particular", "chebyshev.core", None),
    (tropiloc, "solve_scaled", "chebyshev.core", None),
    (rectilinear, "solve_particular", "chebyshev.core", None),
    (rectilinear, "solve_scaled", "chebyshev.core", None),
    (cli, "solve_particular", "chebyshev.core", None),
    (cli, "solve_scaled", "chebyshev.core", None),
    (tropiloc, "solve", "tropiloc.solve", None),
    (cli, "main", "cli.main", None),
    (cli, "solve_particular", "tropiloc.solve", None),
    (cli, "solve_scaled", "tropiloc.solve", None),
    (cli, "solve_strip", "tropiloc.solve", None),
    (cli, "solve_tilted", "tropiloc.solve", None),
    (cli, "parse_instance", "io.parse", None),
    (cli, "emit_solution", "io.emit", None),
    (tio, "sample", "solutions.sample", None),
    (rectilinear, "strip_to_chebyshev", "rectilinear.reduce", None),
    (rectilinear, "tilted_to_scaled", "rectilinear.reduce", None),
    (chebyshev, "trace_and_closure", "semiring.closure", _closure_note),
    (semiring, "power_trace", "semiring.power_trace", None),
    (chebyshev, "assemble_bounds", _assemble_name, None),
    (chebyshev, "parameter_upper_bound", "linear.box.upper_bound", None),
    (chebyshev, "check_feasibility", "chebyshev.certificates", None),
    (chebyshev, "compute_theta", "chebyshev.compute_theta", None),
    (chebyshev, "compute_theta_scaled", "chebyshev.compute_theta", None),
    (solutions, "verify", "solutions.verify", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.instance = None
        self.pass_index = 0
        self.role = "call"
        self.last_solve = None

    def _wrap(self, fn, name, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = {
                "id": len(self.spans),
                "name": label,
                "parent": self._stack[-1] if self._stack else None,
                "instance": self.instance,
                "pass": self.pass_index,
                "role": self.role,
                "start_ns": perf_counter_ns(),
                "end_ns": None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end_ns"] = perf_counter_ns()
                self._stack.pop()
            if note is not None:
                span.update(note(out))
            if label == "tropiloc.solve":
                self.last_solve = out
            return out

        return traced

    @contextmanager
    def patched(self):
        """Install the span wrappers; restore the original functions on exit."""
        saved = []
        try:
            for module, attr, name, note in TARGETS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, note))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"header": header, "spans": self.spans}, fh)
            fh.write("\n")


class SpanTotals:
    """Sums of span durations and self times, by role and name, in ms.

    A span's self time is its duration minus the durations of its direct
    children.
    """

    def __init__(self, spans: list[dict]):
        child_ns = [0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
        self.total: dict[tuple[str, str], float] = {}
        self.self_: dict[tuple[str, str], float] = {}
        self.by_instance: dict[tuple[str, str, str, int], float] = {}
        for s, kids in zip(spans, child_ns):
            key = (s["role"], s["name"])
            dur = s["end_ns"] - s["start_ns"]
            self.total[key] = self.total.get(key, 0.0) + dur / 1e6
            self.self_[key] = self.self_.get(key, 0.0) + (dur - kids) / 1e6
            ikey = (s["role"], s["name"], s["instance"], s["pass"])
            self.by_instance[ikey] = self.by_instance.get(ikey, 0.0) + dur / 1e6

    def dur(self, role: str, name: str) -> float:
        return self.total.get((role, name), 0.0)

    def self_time(self, role: str, name: str) -> float:
        return self.self_.get((role, name), 0.0)
