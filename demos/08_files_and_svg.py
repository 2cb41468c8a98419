"""
Instance files, solution documents, pictures
============================================

Instances travel as JSON (one schema, four variants); solutions can be
emitted as JSON, CSV, or an SVG sketch of the feasible region and the
optimal set.  The same operations back the `tropiloc` command line tool.
"""

import json
import tempfile
from pathlib import Path

from tropiloc import emit_instance, emit_solution, parse_instance, random_instance, solve

# serialize a generated instance and read it back, bit for bit
inst = random_instance("rectilinear_strip", 2, 3, seed=7)
text = emit_instance(inst)
print("instance document:")
print(text)
assert emit_instance(parse_instance(text)) == text

# documents can of course be written by hand; null means "no bound"
doc = {
    "variant": "chebyshev",
    "n": 2,
    "m": 2,
    "points": [[0.0, 0.0], [4.0, 0.0]],
    "weights": [1.0, 1.0],
    "addends": [0.0, 0.0],
    "lower": [-10.0, -10.0],
    "upper": [10.0, 10.0],
    "B": [[None, None], [None, None]],
}
two_point = parse_instance(json.dumps(doc))
box = solve(two_point)

payload = json.loads(emit_solution(box, two_point, "json", samples=3, seed=0))
print("solution as JSON: theta =", payload["theta"], "members:", payload["members"])

csv_text = emit_solution(box, two_point, "csv", samples=3, seed=0).decode()
print()
print("solution as CSV:")
print(csv_text)

# the SVG shows the clipped feasible region, the client points, and the
# optimal segment; only plane instances can be drawn
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "solution.svg"
    out.write_bytes(emit_solution(box, two_point, "svg", samples=5, seed=0))
    print("wrote", out, f"({out.stat().st_size} bytes)")

# equivalent command line session:
#   tropiloc gen --variant chebyshev --seed 7 > inst.json
#   tropiloc check inst.json
#   tropiloc solve inst.json --out csv --svg sketch.svg
#   tropiloc verify inst.json --samples 20
#   tropiloc oracle inst.json --lo -10 -10 --hi 10 10 --step 0.05
