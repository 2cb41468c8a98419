"""Instance documents (JSON) and solution serialization (JSON, CSV, SVG).

One JSON schema covers all four variants:

    { "variant": "chebyshev", "n": 2, "m": 3,
      "points": [[..], ..], "weights": [..], "addends": [..],
      "caps": [..],                  # optional; null entry drops that cap
      "lower": [..], "upper": [..],
      "B": [[..]] }                  # null entry = no bound (bottom)

"chebyshev_scaled" adds "c": [..] (length n, nonzero entries).
"rectilinear_strip" fixes n = 2, drops "B", and adds
"strip": {"a": .., "b": ..}; "lower"/"upper" then bound the rotated
coordinates (x1+x2, x2-x1).  "rectilinear_tilted" adds a scalar "c"
(the band slope, never 1 or -1).

null is the only encoding of an absent bound; non-finite JSON tokens are
rejected.  Emission writes floats with repr, so parse(emit(parse(doc)))
reproduces every numeric field bit for bit.
"""

from __future__ import annotations

import json

import numpy as np

from .boxes import SolutionBox
from .chebyshev import ChebyshevInstance, ScaledChebyshevInstance, _scale_of
from .errors import InstanceError, UnsupportedFormatError
from .rectilinear import StripInstance, TiltedStripInstance
from .semiring import BOTTOM
from .solutions import objective_batch, sample
from .variants import lookup

_COMMON = {"variant", "n", "m", "points", "weights", "addends", "caps", "lower", "upper"}
_VARIANT_KEYS = {
    "chebyshev": _COMMON | {"B"},
    "chebyshev_scaled": _COMMON | {"B", "c"},
    "rectilinear_strip": _COMMON | {"strip"},
    "rectilinear_tilted": _COMMON | {"strip", "c"},
}


def _reject_constant(token: str):
    raise InstanceError(f"non-finite JSON token {token} is not allowed; use null for absent bounds")


def _real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceError(f"{where} must be a real number")
    return float(value)


def _size(doc: dict, key: str) -> int:
    if key not in doc:
        raise InstanceError(f"missing required field '{key}'")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InstanceError(f"'{key}' must be a positive integer")
    return value


def _vector(doc: dict, key: str, length: int, count_name: str) -> np.ndarray:
    if key not in doc:
        raise InstanceError(f"missing required field '{key}'")
    value = doc[key]
    if not isinstance(value, list):
        raise InstanceError(f"'{key}' must be a list of {length} numbers")
    if len(value) != length:
        raise InstanceError(f"'{key}' has {len(value)} entries but {count_name} = {length}")
    return np.array([_real(v, f"{key}[{i}]") for i, v in enumerate(value)], dtype=np.float64)


def _matrix(doc: dict, key: str, rows: int, cols: int, row_name: str, col_name: str, *, allow_null: bool) -> np.ndarray:
    if key not in doc:
        raise InstanceError(f"missing required field '{key}'")
    value = doc[key]
    if not isinstance(value, list) or len(value) != rows:
        raise InstanceError(f"'{key}' must be a list of {rows} rows ({row_name} = {rows})")
    out = np.empty((rows, cols), dtype=np.float64)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise InstanceError(f"{key}[{i}] must be a list of {cols} numbers ({col_name} = {cols})")
        for j, v in enumerate(row):
            if v is None:
                if not allow_null:
                    raise InstanceError(f"{key}[{i}][{j}] must be a real number")
                out[i, j] = BOTTOM
            else:
                out[i, j] = _real(v, f"{key}[{i}][{j}]")
    return out


def _caps(doc: dict, m: int) -> np.ndarray | None:
    if "caps" not in doc or doc["caps"] is None:
        return None
    value = doc["caps"]
    if not isinstance(value, list) or len(value) != m:
        raise InstanceError(f"'caps' must be a list of {m} entries (m = {m})")
    out = np.empty(m, dtype=np.float64)
    for j, v in enumerate(value):
        out[j] = np.inf if v is None else _real(v, f"caps[{j}]")
    return out


def _strip_bounds(doc: dict) -> tuple[float, float]:
    if "strip" not in doc:
        raise InstanceError("missing required field 'strip'")
    value = doc["strip"]
    if not isinstance(value, dict):
        raise InstanceError("'strip' must be an object with fields 'a' and 'b'")
    extra = set(value) - {"a", "b"}
    if extra:
        raise InstanceError(f"unexpected field {sorted(extra)[0]!r} inside 'strip'")
    if "a" not in value or "b" not in value:
        raise InstanceError("'strip' must carry both 'a' and 'b'")
    return _real(value["a"], "strip.a"), _real(value["b"], "strip.b")


def instance_from_document(doc):
    """Build a typed instance from an already-decoded JSON document."""
    if not isinstance(doc, dict):
        raise InstanceError("top-level JSON value must be an object")
    variant = doc.get("variant")
    if variant not in _VARIANT_KEYS:
        known = ", ".join(sorted(_VARIANT_KEYS))
        raise InstanceError(f"'variant' must be one of {known}; got {variant!r}")
    for key in doc:
        if key not in _VARIANT_KEYS[variant]:
            raise InstanceError(f"unexpected field {key!r} for variant '{variant}'")
    n = _size(doc, "n")
    m = _size(doc, "m")
    if variant.startswith("rectilinear") and n != 2:
        raise InstanceError(f"variant '{variant}' requires n = 2, got n = {n}")
    shared = dict(
        points=_matrix(doc, "points", m, n, "m", "n", allow_null=False),
        weights=_vector(doc, "weights", m, "m"),
        addends=_vector(doc, "addends", m, "m"),
        caps=_caps(doc, m),
        box_lo=_vector(doc, "lower", n, "n"),
        box_hi=_vector(doc, "upper", n, "n"),
    )
    if variant == "chebyshev":
        return ChebyshevInstance(**shared, diff_bounds=_matrix(doc, "B", n, n, "n", "n", allow_null=True))
    if variant == "chebyshev_scaled":
        return ScaledChebyshevInstance(
            **shared,
            diff_bounds=_matrix(doc, "B", n, n, "n", "n", allow_null=True),
            scale=_vector(doc, "c", n, "n"),
        )
    a, b = _strip_bounds(doc)
    if variant == "rectilinear_strip":
        return StripInstance(**shared, strip_lo=a, strip_hi=b)
    if "c" not in doc:
        raise InstanceError("missing required field 'c'")
    return TiltedStripInstance(**shared, strip_lo=a, strip_hi=b, slope=_real(doc["c"], "c"))


def parse_instance(text) -> ChebyshevInstance | StripInstance:
    """Parse a JSON instance document (bytes or str) into a typed instance."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InstanceError(f"instance document is not UTF-8: {exc}") from None
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"not valid JSON: {exc}") from None
    return instance_from_document(doc)


def variant_of(inst) -> str:
    """The schema tag for an instance object (most specific type wins)."""
    return lookup(inst).name


def _bounds_to_rows(bounds: np.ndarray) -> list:
    return [[None if v == BOTTOM else float(v) for v in row] for row in bounds]


def emit_instance(inst) -> str:
    """Serialize an instance back to its JSON document form."""
    variant = variant_of(inst)
    doc = {
        "variant": variant,
        "n": inst.dim,
        "m": inst.m,
        "points": inst.points.tolist(),
        "weights": inst.weights.tolist(),
        "addends": inst.addends.tolist(),
    }
    if inst.caps is not None:
        doc["caps"] = [None if np.isinf(v) else float(v) for v in inst.caps]
    doc["lower"] = inst.box_lo.tolist()
    doc["upper"] = inst.box_hi.tolist()
    if variant == "chebyshev":
        doc["B"] = _bounds_to_rows(inst.diff_bounds)
    elif variant == "chebyshev_scaled":
        doc["B"] = _bounds_to_rows(inst.diff_bounds)
        doc["c"] = inst.scale.tolist()
    else:
        doc["strip"] = {"a": inst.strip_lo, "b": inst.strip_hi}
        if variant == "rectilinear_tilted":
            doc["c"] = inst.slope
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def emit_solution(box: SolutionBox, inst, fmt: str = "json", *, samples: int = 5, seed: int = 0) -> bytes:
    """Serialize a solved box as JSON, CSV rows, or an SVG sketch.

    CSV rows are sampled members with a trailing objective column; SVG is
    only available for plane instances and shows the given points, the
    outline of the constraint region, and the sampled solution segment.
    """
    members = sample(box, samples, seed)
    objectives = objective_batch(inst, members)
    if fmt == "json":
        doc = {
            "theta": box.theta,
            "transform": {"kind": box.transform.kind, "coeffs": list(box.transform.coeffs)},
            "generator": _bounds_to_rows(box.generator),
            "u_lo": box.u_lo.tolist(),
            "u_hi": box.u_hi.tolist(),
            "members": members.tolist(),
            "objectives": objectives.tolist(),
        }
        return (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode("utf-8")
    if fmt == "csv":
        n = members.shape[1]
        lines = [",".join([f"x{i + 1}" for i in range(n)] + ["objective"])]
        for row, val in zip(members, objectives):
            lines.append(",".join(repr(float(v)) for v in row) + f",{repr(float(val))}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "svg":
        return _svg_document(box, inst, members).encode("utf-8")
    raise UnsupportedFormatError(f"unknown solution format {fmt!r}; use json, csv, or svg")


def _half_planes(inst) -> list[tuple[float, float, float]]:
    """Constraint region as half-planes a*x1 + b*x2 <= g (plane instances)."""
    planes = []
    f, g = inst.box_lo, inst.box_hi
    if lookup(inst).rotate45:
        planes += [(1.0, 1.0, g[0]), (-1.0, -1.0, -f[0]), (-1.0, 1.0, g[1]), (1.0, -1.0, -f[1])]
        if isinstance(inst, TiltedStripInstance):
            c = inst.slope
            planes += [(-c, 1.0, -inst.strip_lo), (c, -1.0, inst.strip_hi)]
        else:
            planes += [(1.0, 0.0, inst.strip_hi), (-1.0, 0.0, -inst.strip_lo)]
        if inst.caps is not None:
            for p, d in zip(inst.points, inst.caps):
                if np.isinf(d):
                    continue
                for s1 in (1.0, -1.0):
                    for s2 in (1.0, -1.0):
                        planes.append((s1, s2, d + s1 * p[0] + s2 * p[1]))
        return planes
    scale = _scale_of(inst)
    planes += [(1.0, 0.0, g[0]), (-1.0, 0.0, -f[0]), (0.0, 1.0, g[1]), (0.0, -1.0, -f[1])]
    for i in range(2):
        for k in range(2):
            b = inst.diff_bounds[i, k]
            if b == BOTTOM:
                continue
            coeff = [0.0, 0.0]
            coeff[k] += scale[k]
            coeff[i] -= scale[i]
            planes.append((coeff[0], coeff[1], -b))
    if inst.caps is not None:
        for p, d in zip(inst.points, inst.caps):
            if np.isinf(d):
                continue
            planes += [(1.0, 0.0, p[0] + d), (-1.0, 0.0, d - p[0]), (0.0, 1.0, p[1] + d), (0.0, -1.0, d - p[1])]
    return planes


def _clip(poly, a: float, b: float, g: float):
    """Sutherland-Hodgman step: keep the side a*x1 + b*x2 <= g."""
    if a == 0.0 and b == 0.0:
        return poly if g >= 0.0 else []
    out = []
    k = len(poly)
    for idx in range(k):
        cur = poly[idx]
        nxt = poly[(idx + 1) % k]
        c_val = a * cur[0] + b * cur[1] - g
        n_val = a * nxt[0] + b * nxt[1] - g
        if c_val <= 1e-9:
            out.append(cur)
        if (c_val <= 1e-9) != (n_val <= 1e-9):
            t = c_val / (c_val - n_val)
            out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
    return out


def _svg_document(box: SolutionBox, inst, members: np.ndarray) -> str:
    if inst.dim != 2:
        raise UnsupportedFormatError(f"svg output needs a plane instance, got dimension {inst.dim}")
    pts = inst.points
    anchors = np.vstack([pts, members])
    lo = anchors.min(axis=0)
    hi = anchors.max(axis=0)
    pad = max(float(np.max(hi - lo)), 1.0) * 0.5 + 1.0
    lo = lo - pad
    hi = hi + pad
    region = [(lo[0], lo[1]), (hi[0], lo[1]), (hi[0], hi[1]), (lo[0], hi[1])]
    for a, b, g in _half_planes(inst):
        region = _clip(region, a, b, g)
        if not region:
            break
    size = 480.0
    span = max(hi[0] - lo[0], hi[1] - lo[1])

    def sx(x: float) -> float:
        return (x - lo[0]) / span * size

    def sy(y: float) -> float:
        return size - (y - lo[1]) / span * size

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size:g} {size:g}" width="{size:g}" height="{size:g}">',
        '<style>.region{fill:#cfe3ff;stroke:#3a6ea5;stroke-width:1}'
        '.pt{fill:#c43d3d}.sol{fill:#1e7d32}'
        '.sol-path{fill:none;stroke:#1e7d32;stroke-width:2}</style>',
    ]
    if len(region) >= 3:
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in region)
        parts.append(f'<polygon class="region" points="{coords}"/>')
    order = np.lexsort((members[:, 1], members[:, 0]))
    path = members[order]
    coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in path)
    parts.append(f'<polyline class="sol-path" points="{coords}"/>')
    for p in pts:
        parts.append(f'<circle class="pt" cx="{sx(p[0]):.2f}" cy="{sy(p[1]):.2f}" r="4"/>')
    for x in members:
        parts.append(f'<circle class="sol" cx="{sx(x[0]):.2f}" cy="{sy(x[1]):.2f}" r="3"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


__all__ = [
    "parse_instance",
    "instance_from_document",
    "emit_instance",
    "emit_solution",
    "variant_of",
]
