"""Time solve() of two source trees side by side over one benchmark workload pool.

    python tools/side_by_side.py BASE CHANGE [--workload NAME] [--seed S] [--rounds R]

BASE and CHANGE are source trees, each holding src/tropiloc: a checkout of
the parent commit and one of the change, say.  Each tree's package is
imported into this one process under its own name (tropiloc_base and
tropiloc_change), so both sides share one interpreter, one numpy and one
host state.

The pool is the benchmark's own: benchmarks/workloads.py of the tree this
script lives in generates it, run as a script in a child process, into a
temporary directory, and each side parses the files with its own
parse_instance.  The generator and its pool are only read.

After one untimed pass per side, each round times one pass of solve over
the whole pool on each side, and the side that goes first alternates from
round to round.  The report gives, per side, the median time per solve over
the rounds with its quartiles, the rounds the change was faster in, and how
many answers the two sides give with the same bits: theta, or the cause and
witness of an Infeasible.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
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


def generate_pool(workload: str, seed: int, directory: str) -> list[bytes]:
    """The workload's instance files, in manifest order, as generated by benchmarks/workloads.py."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(WORKLOADS), "--workload", workload, "--seed", str(seed), "--out", directory]
    subprocess.run(argv, env=env, check=True)
    manifest = json.loads(Path(directory, "manifest.json").read_text())
    return [Path(directory, entry["name"] + ".json").read_bytes() for entry in manifest]


def answer(package, result) -> tuple:
    """theta's bits, or the cause and the witness's bits of an Infeasible."""
    if isinstance(result, package.Infeasible):
        return result.cause, float(result.witness).hex()
    return ("theta", float(result.theta).hex())


def time_pass(solve, pool) -> float:
    """Seconds per solve over one pass of the pool."""
    start = time.perf_counter()
    for inst in pool:
        solve(inst)
    return (time.perf_counter() - start) / len(pool)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", choices=NAMES, default="wide_bounds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    sides = {"base": load_package(args.base, "tropiloc_base"), "change": load_package(args.change, "tropiloc_change")}
    with tempfile.TemporaryDirectory() as directory:
        files = generate_pool(args.workload, args.seed, directory)
    pools = {side: [package.parse_instance(data) for data in files] for side, package in sides.items()}
    # the untimed pass: both sides solve the pool once, and their answers are compared
    same = sum(
        answer(sides["base"], sides["base"].solve(a)) == answer(sides["change"], sides["change"].solve(b))
        for a, b in zip(pools["base"], pools["change"])
    )
    times = {side: [] for side in sides}
    for r in range(args.rounds):
        order = ("base", "change") if r % 2 == 0 else ("change", "base")
        for side in order:
            times[side].append(time_pass(sides[side].solve, pools[side]))
    print(f"workload {args.workload}, seed {args.seed}: {len(files)} instances, {args.rounds} rounds")
    for side in sides:
        q1, q2, q3 = np.percentile(times[side], [25, 50, 75]) * 1e6
        print(f"{side:<7} {q2:10.1f} us per solve [{q1:.1f}, {q3:.1f}]")
    base, change = np.median(times["base"]), np.median(times["change"])
    wins = sum(c < b for b, c in zip(times["base"], times["change"]))
    print(f"change faster in {wins} of {args.rounds} rounds, median {100.0 * (change / base - 1.0):+.1f}%")
    print(f"answers with the same bits: {same} of {len(files)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
