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

null is the only encoding of an absent bound; every number must be a finite
real, so non-finite JSON tokens and numbers beyond the float range (1e400,
10**400) are rejected.

A document is validated once, at the boundary.  Each field is read in bulk,
one type scan and one array, and the instance constructor checks the
values.  Only a document that fails, or that the scan cannot vouch for, is
read again entry by entry, for a message that names its first fault.

One writer emits every JSON document: instances, solutions and the CLI's
oracle report.  It gives the bytes of json.dumps(doc, indent=2,
allow_nan=False) from float.__repr__ and str.join, so
parse(emit(parse(doc))) reproduces every numeric field bit for bit.

The SVG sketch of a plane instance draws its constraint region as the core
instance sees it: the reduction of the variant table gives the box and cap
envelopes and the difference bounds in internal coordinates, and the
solution transform maps each of them back to a half-plane.
"""

from __future__ import annotations

import json
import math
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .boxes import SolutionBox
from .chebyshev import ChebyshevInstance, ScaledChebyshevInstance, assemble_bounds
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
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):  # the JSON parser reads 1e400 as inf
        raise InstanceError(f"{where} must be a finite real number")
    return out


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
    out = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise InstanceError(f"{key}[{i}] must be a list of {cols} numbers ({col_name} = {cols})")
        out.append([BOTTOM if v is None and allow_null else _real(v, f"{key}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(out, dtype=np.float64)


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


def _header(doc) -> tuple[str, int, int]:
    """The variant, n and m of a document whose keys all belong to its variant."""
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
    return variant, n, m


def _construct(variant: str, shared: dict, bounds, c, strip):
    if variant == "chebyshev":
        return ChebyshevInstance(**shared, diff_bounds=bounds)
    if variant == "chebyshev_scaled":
        return ScaledChebyshevInstance(**shared, diff_bounds=bounds, scale=c)
    a, b = strip
    if variant == "rectilinear_strip":
        return StripInstance(**shared, strip_lo=a, strip_hi=b)
    return TiltedStripInstance(**shared, strip_lo=a, strip_hi=b, slope=c)


def _per_entry(doc: dict, variant: str, n: int, m: int):
    """Check every entry on its own, and report the first fault with its place."""
    shared = dict(
        points=_matrix(doc, "points", m, n, "m", "n", allow_null=False),
        weights=_vector(doc, "weights", m, "m"),
        addends=_vector(doc, "addends", m, "m"),
        caps=_caps(doc, m),
        box_lo=_vector(doc, "lower", n, "n"),
        box_hi=_vector(doc, "upper", n, "n"),
    )
    bounds = c = strip = None
    if variant.startswith("chebyshev"):
        bounds = _matrix(doc, "B", n, n, "n", "n", allow_null=True)
        if variant == "chebyshev_scaled":
            c = _vector(doc, "c", n, "n")
    else:
        strip = _strip_bounds(doc)
        if variant == "rectilinear_tilted":
            if "c" not in doc:
                raise InstanceError("missing required field 'c'")
            c = _real(doc["c"], "c")
    return _construct(variant, shared, bounds, c, strip)


class _Doubt(Exception):
    """The bulk scan cannot vouch for a field; the per-entry path decides."""


_REAL_TYPES = {float, int}
_REAL_OR_NULL_TYPES = {float, int, type(None)}


def _bulk_real(value):
    # The constructor checks that it is finite; an int beyond the float range
    # raises OverflowError there.
    if type(value) is not float and type(value) is not int:
        raise _Doubt
    return value


def _bulk_array(value, length: int, null_as: float | None = None, row_length: int | None = None) -> np.ndarray:
    """A list of length reals, or of length rows of row_length reals, as one array.

    One type scan, one np.array.  Where null_as is given, a JSON null entry
    reads as that infinity, which the constructor accepts; so any other
    non-finite entry (the JSON parser reads 1e400 as inf) is doubted here.
    """
    if type(value) is not list or len(value) != length:
        raise _Doubt
    entries = value
    if row_length is not None:
        if set(map(type, value)) != {list} or set(map(len, value)) != {row_length}:
            raise _Doubt
        entries = chain.from_iterable(value)
    kinds = set(map(type, entries))
    if not kinds <= (_REAL_TYPES if null_as is None else _REAL_OR_NULL_TYPES):
        raise _Doubt
    out = np.array(value, dtype=np.float64)  # a null reads as nan
    if null_as is not None:
        nulls = 0
        if type(None) in kinds:
            nulls = value.count(None) if row_length is None else sum(map(list.count, value, repeat(None)))
        bad = ~np.isfinite(out)
        if np.count_nonzero(bad) != nulls:
            raise _Doubt
        if nulls:
            out[bad] = null_as
    return out


def _bulk(doc: dict, variant: str, n: int, m: int):
    """The instance from one type scan and one array per field; only its constructor checks values."""
    caps = doc.get("caps")
    shared = dict(
        points=_bulk_array(doc.get("points"), m, row_length=n),
        weights=_bulk_array(doc.get("weights"), m),
        addends=_bulk_array(doc.get("addends"), m),
        caps=None if caps is None else _bulk_array(caps, m, null_as=math.inf),
        box_lo=_bulk_array(doc.get("lower"), n),
        box_hi=_bulk_array(doc.get("upper"), n),
    )
    bounds = c = strip = None
    if variant.startswith("chebyshev"):
        bounds = _bulk_array(doc.get("B"), n, null_as=BOTTOM, row_length=n)
        if variant == "chebyshev_scaled":
            c = _bulk_array(doc.get("c"), n)
    else:
        strip = doc.get("strip")
        if type(strip) is not dict or strip.keys() != {"a", "b"}:
            raise _Doubt
        strip = _bulk_real(strip["a"]), _bulk_real(strip["b"])
        if variant == "rectilinear_tilted":
            c = _bulk_real(doc.get("c"))
    return _construct(variant, shared, bounds, c, strip)


def instance_from_document(doc):
    """Build a typed instance from an already-decoded JSON document.

    A valid document is read in bulk and checked once, by the constructor.
    Anything the bulk scan doubts, and any error, reruns the per-entry path,
    which gives the first fault in the document's field order.
    """
    variant, n, m = _header(doc)
    try:
        return _bulk(doc, variant, n, m)
    except (_Doubt, InstanceError, OverflowError):
        return _per_entry(doc, variant, n, m)


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
    # tolist() first: comparing Python floats costs a fraction of numpy scalars.
    return [[None if v == BOTTOM else v for v in row] for row in bounds.tolist()]


_OUT_OF_RANGE = "Out of range float values are not JSON compliant: "


def _float_text(value) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    raise ValueError(_OUT_OF_RANGE + repr(value))


def _scalar_text(value) -> str:
    # json's order of tests, so a bool is true or false and not an int
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _text(value, pad: str) -> str:
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        sep = "," + inner
        if isinstance(value[0], (list, tuple, dict)):
            body = sep.join([_text(v, inner) for v in value])
        else:
            try:  # the common leaf: a row of floats, some of them null
                body = sep.join(["null" if v is None else float.__repr__(v) for v in value])
            except TypeError:
                body = sep.join([_text(v, inner) for v in value])
            else:  # only a non-finite float writes inf or nan: raise json's error on the first
                if "inf" in body or "nan" in body:
                    for v in value:
                        if v is not None:
                            _float_text(v)
        return "[" + inner + body + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = [encode_basestring_ascii(key) + ": " + _text(v, inner) for key, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return _scalar_text(value)


def _json_text(doc) -> str:
    """The text of json.dumps(doc, indent=2, allow_nan=False), and its errors.

    json.dumps runs its pure-Python encoder whenever indent is set; this
    writer builds the same bytes from float.__repr__ and str.join.  Keys
    must be strings.
    """
    return _text(doc, "\n")


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
        doc["caps"] = [None if v == math.inf else v for v in inst.caps.tolist()]
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
    return _json_text(doc) + "\n"


def emit_solution(box: SolutionBox, inst, fmt: str = "json", *, samples: int = 5, seed: int = 0) -> bytes:
    """Serialize a solved box as JSON, CSV rows, or an SVG sketch.

    CSV rows are sampled members with a trailing objective column; SVG is
    only available for plane instances and shows the given points, the
    outline of the constraint region, and the sampled solution segment.
    """
    return _render(box, inst, fmt, sample(box, samples, seed))


def _emit_with_svg(box: SolutionBox, inst, fmt: str, *, samples: int, seed: int) -> tuple[bytes, bytes]:
    """emit_solution's output in fmt and the SVG sketch, both from one sample of members."""
    members = sample(box, samples, seed)
    return _render(box, inst, fmt, members), _render(box, inst, "svg", members)


def _render(box: SolutionBox, inst, fmt: str, members: np.ndarray) -> bytes:
    if fmt == "svg":
        return _svg_document(box, inst, members).encode("utf-8")
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
        return (_json_text(doc) + "\n").encode("utf-8")
    if fmt == "csv":
        n = members.shape[1]
        lines = [",".join([f"x{i + 1}" for i in range(n)] + ["objective"])]
        for row, val in zip(members, objectives):
            lines.append(",".join(repr(float(v)) for v in row) + f",{repr(float(val))}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise UnsupportedFormatError(f"unknown solution format {fmt!r}; use json, csv, or svg")


def _half_planes(box: SolutionBox, inst) -> list[tuple[float, float, float]]:
    """Constraint region as half-planes a*x1 + b*x2 <= g (plane instances).

    Read off the core instance: its fixed envelopes (box and caps) and its
    finite difference bounds constrain y = T x, where the rows of T are those
    of the solution transform y = c * R(x).
    """
    core = lookup(inst).reduce(inst)
    env = assemble_bounds(core)
    rows = np.array([box.transform.to_internal(e) for e in np.eye(2)]).T
    planes = []
    for r, lo, hi in zip(rows, env.fixed_lo, env.fixed_hi):
        planes += [(r[0], r[1], hi), (-r[0], -r[1], -lo)]
    for i, k in np.argwhere(core.diff_bounds > BOTTOM):
        a, b = rows[k] - rows[i]
        planes.append((a, b, -core.diff_bounds[i, k]))
    return planes


def _clip(poly, a: float, b: float, g: float, made: dict | None = None):
    """Sutherland-Hodgman step: keep the side a*x1 + b*x2 <= g.

    made maps each vertex that an earlier step made to that step's (a, b, g),
    and receives the vertices this step makes.  A vertex made on a line lies
    on it only up to rounding, so it counts as exactly on the line when the
    opposite half-plane (-a, -b, -g) of that line clips it: a region of zero
    width, between the two half-planes of one line, keeps its segment.
    """
    if a == 0.0 and b == 0.0:
        return poly if g >= 0.0 else []
    made = {} if made is None else made
    opposite = (-a, -b, -g)
    vals = [0.0 if made.get(v) == opposite else a * v[0] + b * v[1] - g for v in poly]
    out = []
    k = len(poly)
    for idx in range(k):
        cur = poly[idx]
        nxt = poly[(idx + 1) % k]
        c_val = vals[idx]
        n_val = vals[(idx + 1) % k]
        # Exact signs: when they differ, |c_val| <= |c_val - n_val| in floats
        # too, so t lies in [0, 1] and the new vertex is on the edge.
        if c_val <= 0.0:
            out.append(cur)
        if (c_val <= 0.0) != (n_val <= 0.0):
            t = c_val / (c_val - n_val)
            new = (cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1]))
            made[new] = (a, b, g)
            out.append(new)
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
    span = max(hi[0] - lo[0], hi[1] - lo[1])
    # The drawing is the square [lo, lo + span]: clip to all of it, so that
    # the region ends only at its constraints or at the edge of the picture.
    top = lo + span
    region = [(lo[0], lo[1]), (top[0], lo[1]), (top[0], top[1]), (lo[0], top[1])]
    made = {}
    for a, b, g in _half_planes(box, inst):
        region = _clip(region, a, b, g, made)
        if not region:
            break
    size = 480.0

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
