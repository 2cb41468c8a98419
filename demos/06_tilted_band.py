"""
A tilted band: a + x2 <= c*x1 <= b + x2
=======================================

Tilting the strip adds a slope c (any value except 1 and -1).  After the
45-degree rotation the band becomes difference bounds on unevenly scaled
coordinates, which is exactly the scaled Chebyshev variant.  The returned
transform composes the rotation and the scaling, so members come back in
plane coordinates.
"""

from tropiloc import TiltedStripInstance, check_feasibility, solve, verify

# a = b = 0 with slope 2 pins the facility to the line x2 = 2*x1
inst = TiltedStripInstance(
    points=[[0.0, 0.0], [0.0, 4.0]],
    weights=[1.0, 1.0],
    addends=[0.0, 0.0],
    box_lo=[-100.0, -100.0],
    box_hi=[100.0, 100.0],
    strip_lo=0.0,
    strip_hi=0.0,
    slope=2.0,
)
print("feasible:", check_feasibility(inst).feasible)
box = solve(inst)
print("theta =", box.theta)
print("optimum:", box.vertex_lo, "(on the line x2 = 2*x1)")
print("transform:", box.transform.kind, box.transform.coeffs)

rep = verify(box, inst, 10, seed=0)
print("replayed", rep.checked_count, "members:", "PASS" if rep.passed else "FAIL")

# widening the band relaxes the problem and theta can only drop
wide = TiltedStripInstance(
    points=[[0.0, 0.0], [0.0, 4.0]],
    weights=[1.0, 1.0],
    addends=[0.0, 0.0],
    box_lo=[-100.0, -100.0],
    box_hi=[100.0, 100.0],
    strip_lo=-6.0,
    strip_hi=6.0,
    slope=2.0,
)
print()
print("widened band: theta =", solve(wide).theta, "(was", box.theta, "when pinned)")
