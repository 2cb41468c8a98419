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

The schema lives in one record, _SCHEMA: each variant's fields in document
order, each with its reader and writer.  The instance class and the n = 2
rule of the plane variants come from the variant table.

A document is validated once, at the boundary.  One reader has two modes.
In bulk mode each field is read with one type scan and one array, and the
instance constructor checks the values.  Only a document that fails, or
that the scan cannot vouch for, is read again in per-entry mode, for a
message that names its first fault in document order.

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
from collections.abc import Callable
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .boxes import SolutionBox
from .chebyshev import ChebyshevInstance, assemble_bounds
from .errors import InstanceError, UnsupportedFormatError
from .rectilinear import StripInstance
from .semiring import BOTTOM
from .solutions import objective_batch, sample
from .variants import BY_NAME, lookup


def _reject_constant(token: str):
    raise InstanceError(f"non-finite JSON token {token} is not allowed; use null for absent bounds")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


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


def _required(doc: dict, key: str):
    if key not in doc:
        raise InstanceError(f"missing required field '{key}'")
    return doc[key]


def _size(doc: dict, key: str) -> int:
    value = _required(doc, key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InstanceError(f"'{key}' must be a positive integer")
    return value


class _Doubt(Exception):
    """The bulk scan cannot vouch for a field; the per-entry mode decides."""


_REAL_TYPES = {float, int}
_REAL_OR_NULL_TYPES = {float, int, type(None)}


def _bulk_real(value):
    # The constructor checks that it is finite, an int beyond the float range too.
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


class _Field(NamedTuple):
    """One field of an instance document after its header (variant, n, m).

    attrs are the instance fields, and the constructor's keywords, that it
    fills: read(doc, field, sizes, bulk) gives their values, and
    write(*values) gives them back as the field's JSON value.  An array has
    size entries (or rows), "m" or "n", and a row has n entries; a JSON null
    entry in it stands for null, and its writer turns null back into None.
    """

    key: str
    attrs: tuple[str, ...]
    read: Callable
    write: Callable
    size: str = ""
    null: float | None = None


def _rows(doc: dict, f: _Field, sizes: dict, bulk: bool) -> tuple:
    """size rows of n reals each: the points, or B with a null for no bound."""
    rows, cols = sizes[f.size], sizes["n"]
    if bulk:
        return (_bulk_array(doc.get(f.key), rows, f.null, cols),)
    value = _required(doc, f.key)
    if not isinstance(value, list) or len(value) != rows:
        raise InstanceError(f"'{f.key}' must be a list of {rows} rows ({f.size} = {rows})")
    out = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise InstanceError(f"{f.key}[{i}] must be a list of {cols} numbers (n = {cols})")
        out.append([f.null if v is None and f.null is not None else _real(v, f"{f.key}[{i}][{j}]") for j, v in enumerate(row)])
    return (np.array(out, dtype=np.float64),)


def _vector(doc: dict, f: _Field, sizes: dict, bulk: bool) -> tuple:
    """size reals: weights, addends, the box ends or the scale c."""
    length = sizes[f.size]
    if bulk:
        return (_bulk_array(doc.get(f.key), length),)
    value = _required(doc, f.key)
    if not isinstance(value, list):
        raise InstanceError(f"'{f.key}' must be a list of {length} numbers")
    if len(value) != length:
        raise InstanceError(f"'{f.key}' has {len(value)} entries but {f.size} = {length}")
    return (np.array([_real(v, f"{f.key}[{i}]") for i, v in enumerate(value)], dtype=np.float64),)


def _caps(doc: dict, f: _Field, sizes: dict, bulk: bool) -> tuple:
    """Optional: m reals, a null entry for no cap; absent or null, no caps."""
    value = doc.get(f.key)
    m = sizes[f.size]
    if value is None:
        return (None,)
    if bulk:
        return (_bulk_array(value, m, f.null),)
    if not isinstance(value, list) or len(value) != m:
        raise InstanceError(f"'{f.key}' must be a list of {m} entries ({f.size} = {m})")
    return (np.array([f.null if v is None else _real(v, f"{f.key}[{j}]") for j, v in enumerate(value)], dtype=np.float64),)


def _strip(doc: dict, f: _Field, sizes: dict, bulk: bool) -> tuple:
    """The object {"a": .., "b": ..}: the strip's two ends."""
    value = _required(doc, f.key)
    if bulk:
        if type(value) is not dict or value.keys() != {"a", "b"}:
            raise _Doubt
        return _bulk_real(value["a"]), _bulk_real(value["b"])
    if not isinstance(value, dict):
        raise InstanceError("'strip' must be an object with fields 'a' and 'b'")
    extra = set(value) - {"a", "b"}
    if extra:
        raise InstanceError(f"unexpected field {sorted(extra)[0]!r} inside 'strip'")
    if "a" not in value or "b" not in value:
        raise InstanceError("'strip' must carry both 'a' and 'b'")
    return _real(value["a"], "strip.a"), _real(value["b"], "strip.b")


def _scalar(doc: dict, f: _Field, sizes: dict, bulk: bool) -> tuple:
    """One real: the tilted band's slope c."""
    value = _required(doc, f.key)
    return (_bulk_real(value) if bulk else _real(value, f.key),)


def _bounds_to_rows(bounds: np.ndarray) -> list:
    # tolist() first: comparing Python floats costs a fraction of numpy scalars.
    return [[None if v == BOTTOM else v for v in row] for row in bounds.tolist()]


def _caps_to_list(caps: np.ndarray) -> list:
    return [None if v == math.inf else v for v in caps.tolist()]


_B = _Field("B", ("diff_bounds",), _rows, _bounds_to_rows, "n", BOTTOM)
_STRIP = _Field("strip", ("strip_lo", "strip_hi"), _strip, lambda lo, hi: {"a": lo, "b": hi})
_SHARED = (
    _Field("points", ("points",), _rows, np.ndarray.tolist, "m"),
    _Field("weights", ("weights",), _vector, np.ndarray.tolist, "m"),
    _Field("addends", ("addends",), _vector, np.ndarray.tolist, "m"),
    _Field("caps", ("caps",), _caps, _caps_to_list, "m", math.inf),
    _Field("lower", ("box_lo",), _vector, np.ndarray.tolist, "n"),
    _Field("upper", ("box_hi",), _vector, np.ndarray.tolist, "n"),
)
# Every variant's fields, in document order: the shared ones, then its own.
_SCHEMA = {
    "chebyshev": _SHARED + (_B,),
    "chebyshev_scaled": _SHARED + (_B, _Field("c", ("scale",), _vector, np.ndarray.tolist, "n")),
    "rectilinear_strip": _SHARED + (_STRIP,),
    "rectilinear_tilted": _SHARED + (_STRIP, _Field("c", ("slope",), _scalar, lambda slope: slope)),
}
_ATTRS = {variant: [a for f in fields for a in f.attrs] for variant, fields in _SCHEMA.items()}
_KEYS = {variant: {"variant", "n", "m", *(f.key for f in fields)} for variant, fields in _SCHEMA.items()}


def _header(doc) -> tuple[str, int, int]:
    """The variant, n and m of a document whose keys all belong to its variant."""
    if not isinstance(doc, dict):
        raise InstanceError("top-level JSON value must be an object")
    variant = doc.get("variant")
    if not isinstance(variant, str) or variant not in _SCHEMA:
        known = ", ".join(sorted(_SCHEMA))
        raise InstanceError(f"'variant' must be one of {known}; got {variant!r}")
    keys = _KEYS[variant]
    for key in doc:
        if key not in keys:
            raise InstanceError(f"unexpected field {key!r} for variant '{variant}'")
    n = _size(doc, "n")
    m = _size(doc, "m")
    if BY_NAME[variant].rotate45 and n != 2:
        raise InstanceError(f"variant '{variant}' requires n = 2, got n = {n}")
    return variant, n, m


def _read(doc: dict, variant: str, n: int, m: int, bulk: bool):
    """The instance of a document whose header _header has checked.

    In bulk mode each field is one type scan and one array, only the
    constructor checks values, and a field the scan cannot vouch for raises
    _Doubt.  In per-entry mode every entry is checked on its own, and the
    first fault in document order is reported with its place.
    """
    sizes = {"m": m, "n": n}
    values = []
    for f in _SCHEMA[variant]:
        values += f.read(doc, f, sizes, bulk)
    return BY_NAME[variant].instance(**dict(zip(_ATTRS[variant], values)))


def instance_from_document(doc):
    """Build a typed instance from an already-decoded JSON document.

    A valid document is read in bulk and checked once, by the constructor.
    Anything the bulk scan doubts, and any error, reads it again entry by
    entry, which gives the first fault in the document's field order.
    """
    variant, n, m = _header(doc)
    try:
        return _read(doc, variant, n, m, bulk=True)
    except (_Doubt, InstanceError, OverflowError):
        return _read(doc, variant, n, m, bulk=False)


def parse_instance(text) -> ChebyshevInstance | StripInstance:
    """Parse a JSON instance document (bytes or str) into a typed instance."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InstanceError(f"instance document is not UTF-8: {exc}") from None
    try:
        # json.loads(text, parse_constant=...) builds a decoder on every call;
        # it still takes a byte order mark or non-text input, for its errors.
        doc = _DECODER.decode(text) if type(text) is str and text[:1] != "\ufeff" else json.loads(text, parse_constant=_reject_constant)
    except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses once per nesting level
        raise InstanceError(f"not valid JSON: {exc}") from None
    return instance_from_document(doc)


def variant_of(inst) -> str:
    """The schema tag for an instance object (most specific type wins)."""
    return lookup(inst).name


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
    doc = {"variant": variant, "n": inst.dim, "m": inst.m}
    for f in _SCHEMA[variant]:
        values = [getattr(inst, attr) for attr in f.attrs]
        if values[0] is not None:  # absent caps stay absent
            doc[f.key] = f.write(*values)
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
