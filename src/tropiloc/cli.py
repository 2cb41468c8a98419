"""Command line front end.

Subcommands: solve, check, oracle, verify, gen.  Exit codes are part of the
contract: 0 success, 1 parse/validation/resource error, 2 infeasible
instance (or an oracle window with no feasible lattice point), 3 internal
contract violation or failed verification.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# solve and check_feasibility are looked up on the package at call time, so
# wrappers installed there (the spans of benchmarks/spans.py) see CLI calls too.
import tropiloc

from .chebyshev import solve_particular, solve_scaled  # noqa: F401  (bound here only for benchmarks/spans.py)
from .errors import (
    ContractViolationError,
    DimensionError,
    DomainError,
    InstanceError,
    ResourceError,
    UnsupportedFormatError,
)
from .generate import VARIANTS, random_instance
from .io import emit_instance, emit_solution, parse_instance
from .linear import Infeasible
from .oracle import grid_minimize
from .rectilinear import solve_strip, solve_tilted  # noqa: F401  (bound here only for benchmarks/spans.py)
from .solutions import verify as verify_box


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this tool reserves
    # for infeasible instances; route usage errors to exit code 1 instead.
    def error(self, message):
        raise _UsageError(message)


def _load(path: str):
    try:
        text = Path(path).read_bytes()
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from None
    return parse_instance(text)


def _report_infeasible(result: Infeasible) -> None:
    if result.cause == "spectral":
        print(f"infeasible: positive cycle among difference bounds (weight {result.witness:g})", file=sys.stderr)
    else:
        print(f"infeasible: bound envelopes cross (gap {result.witness:g})", file=sys.stderr)


def _cmd_solve(args) -> int:
    inst = _load(args.file)
    result = tropiloc.solve(inst)
    if isinstance(result, Infeasible):
        _report_infeasible(result)
        return 2
    payload = emit_solution(result, inst, args.out, samples=args.samples, seed=args.seed)
    if args.svg is not None:
        # Build and write the sketch first: a failure must leave stdout empty.
        sketch = emit_solution(result, inst, "svg", samples=args.samples, seed=args.seed)
        try:
            Path(args.svg).write_bytes(sketch)
        except OSError as exc:
            raise ResourceError(f"cannot write {args.svg}: {exc}") from None
    sys.stdout.buffer.write(payload)
    return 0


def _cmd_check(args) -> int:
    inst = _load(args.file)
    report = tropiloc.check_feasibility(inst)
    gauge = f"{report.cycle_gauge:g}"
    print(f"spectral certificate: {'ok' if report.spectral_ok else 'FAILED'} (cycle gauge {gauge})")
    if report.bounds_gap is None:
        print("bounds certificate:   skipped (no closure)")
    else:
        print(f"bounds certificate:   {'ok' if report.bounds_ok else 'FAILED'} (gap {report.bounds_gap:g})")
    print("feasible" if report.feasible else "infeasible")
    return 0 if report.feasible else 2


def _cmd_oracle(args) -> int:
    inst = _load(args.file)
    result = grid_minimize(inst, args.lo, args.hi, args.step)
    doc = {
        "best_value": result.best_value,
        "best_points": result.best_points.tolist(),
        "grid_step": result.grid_step,
        "evaluated": result.evaluated,
    }
    print(json.dumps(doc, indent=2))
    return 0 if result.feasible else 2


def _cmd_verify(args) -> int:
    inst = _load(args.file)
    result = tropiloc.solve(inst)
    if isinstance(result, Infeasible):
        _report_infeasible(result)
        return 2
    report = verify_box(result, inst, args.samples, seed=args.seed)
    print(f"checked {report.checked_count} members")
    print(f"max objective deviation:  {report.max_objective_deviation:.3e}")
    print(f"max constraint violation: {report.max_constraint_violation:.3e}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 3


def _cmd_gen(args) -> int:
    try:
        inst = random_instance(args.variant, args.n, args.m, args.seed)
    except ValueError as exc:
        raise InstanceError(str(exc)) from None
    sys.stdout.write(emit_instance(inst))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="tropiloc", description="Exact minimax location solving over the max-plus semifield.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("solve", help="solve an instance file, print the solution box")
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=5, help="members to sample into the output (default 5)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", choices=("json", "csv"), default="json")
    p.add_argument("--svg", metavar="PATH", default=None, help="also write an SVG sketch (plane instances)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="run the feasibility certificates")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("oracle", help="brute-force lattice scan over a window")
    p.add_argument("file")
    p.add_argument("--lo", type=float, nargs="+", required=True, metavar="X")
    p.add_argument("--hi", type=float, nargs="+", required=True, metavar="X")
    p.add_argument("--step", type=float, required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="solve, then replay sampled members against the constraints")
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="emit a random feasible instance")
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (InstanceError, DomainError, DimensionError, UnsupportedFormatError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ContractViolationError as exc:
        print(f"internal contract violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
