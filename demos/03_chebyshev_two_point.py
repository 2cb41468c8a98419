"""
Locating a facility: the two-point Chebyshev problem
====================================================

Place one point x in the plane minimizing the largest weighted Chebyshev
distance to two clients at (0,0) and (4,0), subject to a box, per-client
distance caps, and (optionally) difference bounds between coordinates.
The solver returns the optimal value AND every optimal point at once.
"""

import numpy as np

from tropiloc import (
    ChebyshevInstance,
    check_feasibility,
    grid_minimize,
    sample,
    solve,
    verify,
)
from tropiloc.semiring import BOTTOM

inst = ChebyshevInstance(
    points=[[0.0, 0.0], [4.0, 0.0]],
    weights=[1.0, 1.0],
    addends=[0.0, 0.0],
    caps=[10.0, 10.0],
    box_lo=[-10.0, -10.0],
    box_hi=[10.0, 10.0],
    diff_bounds=np.full((2, 2), BOTTOM),
)

# certificates first: Tr(B) <= 0 and the bound envelopes must not cross
report = check_feasibility(inst)
print("spectral ok:", report.spectral_ok, "| bounds ok:", report.bounds_ok)

box = solve(inst)
print("optimal value theta =", box.theta)
print("parameter interval u_lo..u_hi:", box.u_lo, box.u_hi)
print("extreme optimal points:", box.vertex_lo, box.vertex_hi)

# the optimal set here is the segment x1 = 2, -2 <= x2 <= 2
print()
print("five optimal points, sampled:")
for x in sample(box, 5, seed=0):
    print("  ", x)

# replay every sampled member against the raw constraints and objective
rep = verify(box, inst, 25, seed=1)
print()
print(f"verified {rep.checked_count} members:",
      f"max objective deviation {rep.max_objective_deviation:.2e},",
      f"max violation {rep.max_constraint_violation:.2e}")

# and cross-check against brute force on a 0.05 lattice
res = grid_minimize(inst, [-10.0, -10.0], [10.0, 10.0], 0.05)
print()
print("grid oracle best:", res.best_value, "over", res.evaluated, "lattice points")
print("first/last oracle minimizers:", res.best_points[0], res.best_points[-1])
