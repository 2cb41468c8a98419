"""
Trust, but brute-force
======================

Every closed-form answer in this library can be audited: generate random
instances whose data sits on a coarse lattice, then scan a fine grid and
compare.  The generator aligns its numbers so that an optimal point lies
exactly on the 0.05 lattice, which makes the comparison sharp instead of
statistical.
"""

import numpy as np

from tropiloc import (
    check_feasibility,
    grid_feasible,
    grid_minimize,
    random_infeasible,
    random_instance,
    solve,
)

print("solver vs oracle on ten random plane instances:")
for seed in range(10):
    inst = random_instance("chebyshev", 2, 3, seed, extent=8)
    box = solve(inst)
    res = grid_minimize(inst, inst.box_lo, inst.box_hi, 0.05)
    gap = abs(box.theta - res.best_value)
    print(f"  seed {seed}: theta {box.theta:9.4f}   oracle {res.best_value:9.4f}   gap {gap:.1e}")

# engineered infeasible instances: the certificates and the grid agree
print()
print("engineered infeasibility, certificates vs exhaustive scan:")
for mode in ("caps", "cycle"):
    inst = random_infeasible(2, 3, 5, mode=mode)
    rep = check_feasibility(inst)
    seen = grid_feasible(inst, inst.box_lo, inst.box_hi, 0.05)
    which = "spectral" if not rep.spectral_ok else "bounds"
    print(f"  {mode:5s}: certificate fails ({which}), grid finds feasible point: {seen}")

# the oracle also reports every lattice minimizer, in lexicographic order
inst = random_instance("chebyshev", 1, 2, 3)
res = grid_minimize(inst, inst.box_lo, inst.box_hi, 0.05)
print()
print("1-d instance:", res.evaluated, "points scanned,",
      len(res.best_points), "minimizers, best =", res.best_value)
print("solver theta =", solve(inst).theta)
print("minimizer span:", res.best_points[0], "..", res.best_points[-1])
