"""Time solve() of two source trees side by side over one benchmark workload pool.

    python tools/side_by_side.py BASE CHANGE [--workload NAME] [--seed S] [--rounds R] [--call solve|cli]

BASE and CHANGE are source trees, each holding src/tropiloc: a checkout of
the parent commit and one of the change, say.  Each tree's package is
imported into this one process under its own name (tropiloc_base and
tropiloc_change), so both sides share one interpreter, one numpy and one
host state.

The pool is the benchmark's own: benchmarks/workloads.py of the tree this
script lives in generates it, run as a script in a child process, into a
temporary directory, and each side parses the files with its own
parse_instance.  The generator and its pool are only read.

With --call cli, each side runs its own `tropiloc solve FILE` in process
instead, cli.main(["solve", path]) per pool file, with stdout and stderr
captured as benchmarks/harness.py captures them; the capture is timed with
the call.  cli.py reads solve off the package it binds with `import
tropiloc`, so each side's cli module is imported with sys.modules["tropiloc"]
set to that side's package, and binds its own tree.

After one untimed pass per side, each round times one pass of solve over
the whole pool on each side, and the side that goes first alternates from
round to round.  The report gives, per side, the median time per solve over
the rounds with its quartiles, the rounds the change was faster in, and how
many answers the two sides give with the same bits: theta, or the cause and
witness of an Infeasible, or with --call cli the exit code and the
stdout bytes.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
from io import BytesIO, StringIO, TextIOWrapper
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "benchmarks" / "workloads.py"
NAMES = ("many_clients", "wide_bounds", "small_files")


def load_package(tree: Path, name: str):
    """The tropiloc package of tree's src, imported under name."""
    package = Path(tree).resolve() / "src" / "tropiloc"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py", submodule_search_locations=[str(package)])
    if spec is None:
        raise SystemExit(f"no tropiloc package under {package}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_cli(package):
    """package's cli module, imported with `import tropiloc` bound to package itself."""
    saved = sys.modules.get("tropiloc")
    sys.modules["tropiloc"] = package
    try:
        cli = importlib.import_module(package.__name__ + ".cli")
    finally:
        if saved is None:
            del sys.modules["tropiloc"]
        else:
            sys.modules["tropiloc"] = saved
    if cli.tropiloc is not package:
        raise SystemExit(f"{package.__name__}.cli binds another tropiloc")
    return cli


def generate_pool(workload: str, seed: int, directory: str) -> list[str]:
    """The paths of the workload's instance files, in manifest order, as generated by benchmarks/workloads.py."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(WORKLOADS), "--workload", workload, "--seed", str(seed), "--out", directory]
    subprocess.run(argv, env=env, check=True)
    manifest = json.loads(Path(directory, "manifest.json").read_text())
    return [str(Path(directory, entry["name"] + ".json")) for entry in manifest]


def run_cli(main, path: str) -> tuple[int, bytes]:
    """The exit code and stdout bytes of main(["solve", path]), stdout and stderr captured as the harness captures them."""
    out, err = BytesIO(), StringIO()
    wrapper = TextIOWrapper(out, encoding="utf-8")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = wrapper, err
    try:
        code = main(["solve", path])
        wrapper.flush()
    finally:
        sys.stdout, sys.stderr = saved
    payload = out.getvalue()
    wrapper.detach()
    return code, payload


def answer(package, inst) -> tuple:
    """theta's bits from package.solve(inst), or the cause and the witness's bits of an Infeasible."""
    result = package.solve(inst)
    if isinstance(result, package.Infeasible):
        return result.cause, float(result.witness).hex()
    return ("theta", float(result.theta).hex())


def time_pass(call, pool) -> float:
    """Seconds per call over one pass of the pool."""
    start = time.perf_counter()
    for item in pool:
        call(item)
    return (time.perf_counter() - start) / len(pool)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", choices=NAMES, default="wide_bounds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--call", choices=("solve", "cli"), default="solve", help="time solve() (default) or `tropiloc solve FILE` in process")
    args = parser.parse_args(argv)
    sides = {"base": load_package(args.base, "tropiloc_base"), "change": load_package(args.change, "tropiloc_change")}
    with tempfile.TemporaryDirectory() as directory:
        paths = generate_pool(args.workload, args.seed, directory)
        if args.call == "cli":
            calls = {side: functools.partial(run_cli, load_cli(package).main) for side, package in sides.items()}
            pools = {side: paths for side in sides}
            outcome = {side: calls[side] for side in sides}
            what, same_what = "call", "stdout with the same bytes"
        else:
            calls = {side: package.solve for side, package in sides.items()}
            pools = {side: [package.parse_instance(Path(path).read_bytes()) for path in paths] for side, package in sides.items()}
            outcome = {side: functools.partial(answer, package) for side, package in sides.items()}
            what, same_what = "solve", "answers with the same bits"
        # the untimed pass: both sides run the pool once, and their outcomes are compared
        same = sum(outcome["base"](a) == outcome["change"](b) for a, b in zip(pools["base"], pools["change"]))
        times = {side: [] for side in sides}
        for r in range(args.rounds):
            order = ("base", "change") if r % 2 == 0 else ("change", "base")
            for side in order:
                times[side].append(time_pass(calls[side], pools[side]))
    print(f"workload {args.workload}, seed {args.seed}: {len(paths)} instances, {args.rounds} rounds")
    for side in sides:
        q1, q2, q3 = np.percentile(times[side], [25, 50, 75]) * 1e6
        print(f"{side:<7} {q2:10.1f} us per {what} [{q1:.1f}, {q3:.1f}]")
    base, change = np.median(times["base"]), np.median(times["change"])
    wins = sum(c < b for b, c in zip(times["base"], times["change"]))
    print(f"change faster in {wins} of {args.rounds} rounds, median {100.0 * (change / base - 1.0):+.1f}%")
    print(f"{same_what}: {same} of {len(paths)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
