"""
Rectilinear distance and the 45-degree trick
============================================

With the rectilinear (taxicab) metric, rotating the plane by
y = (x1 + x2, x2 - x1) turns d1 into Chebyshev distance exactly.  A
vertical strip a <= x1 <= b becomes a pair of difference bounds in the
rotated coordinates, so the plane problem rides on the Chebyshev solver.
"""

import numpy as np

from tropiloc import StripInstance, sample, solve
from tropiloc.boxes import rotate45
from tropiloc.semiring import d1, dinf

p = np.array([3.0, 1.0])
q = np.array([-2.0, 2.0])
print("d1(p, q)                       =", d1(p, q))
print("dinf(rotate45(p), rotate45(q)) =", dinf(rotate45(p), rotate45(q)))

# two clients, a wide strip: classic midline solution
inst = StripInstance(
    points=[[0.0, 0.0], [2.0, 2.0]],
    weights=[1.0, 1.0],
    addends=[0.0, 0.0],
    box_lo=[-100.0, -100.0],   # bounds on x1+x2 and x2-x1
    box_hi=[100.0, 100.0],
    strip_lo=-100.0,
    strip_hi=100.0,
)
box = solve(inst)
print()
print("wide strip: theta =", box.theta)
print("optimal points, sampled in plane coordinates:")
for x in sample(box, 4, seed=0):
    print("  ", x)

# pinch the strip to the line x1 = 0 and the optimum becomes unique
pinched = StripInstance(
    points=[[0.0, 0.0], [4.0, 0.0]],
    weights=[1.0, 1.0],
    addends=[0.0, 0.0],
    box_lo=[-100.0, -100.0],
    box_hi=[100.0, 100.0],
    strip_lo=0.0,
    strip_hi=0.0,
)
box = solve(pinched)
print()
print("pinched strip: theta =", box.theta, "unique optimum", box.vertex_lo)
