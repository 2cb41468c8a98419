"""Benchmark for tropiloc: three workloads, timed end to end or traced by layer.

Run from the repository root:

    python3 benchmarks/run.py --workload many_clients --seed 1 --seconds 25 --trace 0

One process, one caller, closed loop: the next call starts when the previous
one has returned and been checked.  BLAS and OpenMP threads are pinned to 1.
Set-up is the import, generating and serialising the instance pool and
parsing it back (three times; the median counts), and one warm-up pass over
the pool.  Then the workload calls repeat, in whole passes over the pool,
for ``--seconds`` and at least 100 calls.  Every call is checked by
``check.py``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes the
traced run: for each pool instance, one untraced call, then the same call
with span wrappers installed (``spans.py``), then probes of the stages the
call does not expose (certificates, theta, verify and, for the solve
workloads, the CLI path); it reports per-layer metrics and the tracing
overhead, and writes the spans to ``.bench_work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` and
``failed`` count operations, one per pool instance and kind of call, so
they are the same for every run of a seed.  ``correct`` is false when a
call returned a wrong answer; an operation with a call that raised, exited
nonzero or was wrong is counted in ``failed``.  Without ``src/tropiloc`` in the checkout the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("many_clients", "wide_bounds", "small_files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "tropiloc" / "__init__.py").is_file():
        print(f"error: no tropiloc sources under {SRC}", file=sys.stderr)
        return 2
    # Thread pools read these when numpy is first imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import numpy  # noqa: F401
    import tropiloc
    import tropiloc.cli  # noqa: F401

    import_s = perf_counter() - t0
    if Path(tropiloc.__file__).resolve().parent != SRC / "tropiloc":
        print(f"error: tropiloc was imported from {tropiloc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import harness

    return harness.run(args, import_s, ROOT, SRC, THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
