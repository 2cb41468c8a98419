"""
Per-axis scaling
================

The scaled variant attaches a nonzero coefficient c_i to each coordinate.
Difference bounds then constrain the scaled coordinates y_i = c_i x_i,
while the objective and caps keep measuring plain Chebyshev distance in
the original coordinates.  Negative c_i flip an axis; the machinery
handles that through |c_i| and min/max swaps, with no case analysis.
"""

import numpy as np

from tropiloc import ChebyshevInstance, ScaledChebyshevInstance, solve
from tropiloc.semiring import BOTTOM

# one dimension, c = -3: the answer matches the unscaled midpoint problem
inst = ScaledChebyshevInstance(
    points=[[0.0], [4.0]],
    weights=[1.0, 1.0],
    addends=[0.0, 0.0],
    caps=[100.0, 100.0],
    box_lo=[-100.0],
    box_hi=[100.0],
    diff_bounds=np.full((1, 1), BOTTOM),
    scale=[-3.0],
)
box = solve(inst)
print("theta =", box.theta)
print("optimal x:", box.vertex_lo, "(transform:", box.transform.kind + ")")

# a binding difference bound in scaled coordinates: y1 >= 1 + y2
inst = ScaledChebyshevInstance(
    points=[[0.0, 0.0]],
    weights=[1.0],
    addends=[0.0],
    box_lo=[-5.0, -5.0],
    box_hi=[5.0, 5.0],
    diff_bounds=[[BOTTOM, 1.0], [BOTTOM, BOTTOM]],
    scale=[2.0, 1.0],
)
box = solve(inst)
x = box.member(box.u_lo)
print()
print("constrained instance: theta =", box.theta, "member", x)
print("scaled constraint 2*x1 >= 1 + x2 holds:", 2 * x[0] >= 1 + x[1])

# with c = all ones the scaled instance solves as the plain one, bit for bit
plain = ScaledChebyshevInstance(
    points=[[1.0, 2.0], [3.0, -1.0]],
    weights=[2.0, 1.0],
    addends=[0.0, 0.5],
    box_lo=[-4.0, -4.0],
    box_hi=[4.0, 4.0],
    diff_bounds=np.full((2, 2), BOTTOM),
    scale=[1.0, 1.0],
)
unscaled = solve(
    ChebyshevInstance(
        points=plain.points,
        weights=plain.weights,
        addends=plain.addends,
        box_lo=plain.box_lo,
        box_hi=plain.box_hi,
        diff_bounds=plain.diff_bounds,
    )
)
scaled = solve(plain)
print()
print("all-ones reduction, theta equal exactly:", scaled.theta == unscaled.theta)
print("boxes equal exactly:", np.array_equal(scaled.u_lo, unscaled.u_lo)
      and np.array_equal(scaled.u_hi, unscaled.u_hi))
