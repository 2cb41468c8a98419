"""JSON instance documents and JSON/CSV/SVG solution serialization."""

import dataclasses
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import python_frames, tilted_line_instance, two_point_instance, wide_strip_instance
from tropiloc import (
    ChebyshevInstance,
    ScaledChebyshevInstance,
    StripInstance,
    TiltedStripInstance,
    emit_instance,
    emit_solution,
    parse_instance,
    random_instance,
    sample,
    solve,
    solve_strip,
)
from tropiloc import cli
from tropiloc import io as tio
from tropiloc.errors import InstanceError, UnsupportedFormatError
from tropiloc.generate import VARIANTS
from tropiloc.io import _clip, _json_text, instance_from_document, variant_of
from tropiloc.semiring import BOTTOM
from tropiloc.solutions import sample, violation_batch
from tropiloc.variants import TABLE


def _minimal_doc():
    return {
        "variant": "chebyshev",
        "n": 1,
        "m": 1,
        "points": [[0.5]],
        "weights": [1.0],
        "addends": [0.0],
        "lower": [-1.0],
        "upper": [2.0],
        "B": [[None]],
    }


def test_minimal_document_parses():
    inst = parse_instance(json.dumps(_minimal_doc()))
    assert isinstance(inst, ChebyshevInstance)
    assert inst.m == 1 and inst.dim == 1
    assert inst.caps is None
    assert inst.diff_bounds[0, 0] == BOTTOM
    assert inst.points[0, 0] == 0.5


def test_parse_accepts_bytes():
    inst = parse_instance(json.dumps(_minimal_doc()).encode())
    assert inst.box_hi[0] == 2.0


def test_parse_rejects_bytes_that_are_not_utf8():
    text = json.dumps(_minimal_doc()).encode().replace(b'"chebyshev"', b'"chebyshev\xff"')
    with pytest.raises(InstanceError, match=r"^instance document is not UTF-8: 'utf-8' codec can't decode byte 0xff"):
        parse_instance(text)


def test_null_bound_entries_mean_bottom():
    doc = _minimal_doc()
    doc.update(n=2, points=[[0.0, 0.0]], lower=[-1.0, -1.0], upper=[1.0, 1.0])
    doc["B"] = [[None, 3.0], [-2.0, None]]
    inst = instance_from_document(doc)
    assert inst.diff_bounds[0, 0] == BOTTOM
    assert inst.diff_bounds[0, 1] == 3.0
    assert inst.diff_bounds[1, 0] == -2.0


def test_caps_encodings():
    doc = _minimal_doc()
    assert instance_from_document(doc).caps is None  # absent
    doc["caps"] = None
    assert instance_from_document(doc).caps is None  # whole-field null
    doc["caps"] = [None]
    inst = instance_from_document(doc)  # null entry = cap dropped
    assert inst.caps[0] == np.inf
    doc["caps"] = [2.5]
    assert instance_from_document(doc).caps[0] == 2.5


def test_scaled_and_strip_documents():
    doc = _minimal_doc()
    doc.update(variant="chebyshev_scaled", c=[-2.0])
    inst = instance_from_document(doc)
    assert isinstance(inst, ScaledChebyshevInstance)
    assert inst.scale[0] == -2.0

    strip_doc = {
        "variant": "rectilinear_strip",
        "n": 2,
        "m": 1,
        "points": [[0.0, 0.0]],
        "weights": [1.0],
        "addends": [0.0],
        "lower": [-4.0, -4.0],
        "upper": [4.0, 4.0],
        "strip": {"a": -1.0, "b": 1.0},
    }
    strip = instance_from_document(strip_doc)
    assert isinstance(strip, StripInstance) and not isinstance(strip, TiltedStripInstance)
    assert strip.strip_lo == -1.0 and strip.strip_hi == 1.0

    strip_doc = {**strip_doc, "variant": "rectilinear_tilted", "c": 2.0}
    tilted = instance_from_document(strip_doc)
    assert isinstance(tilted, TiltedStripInstance)
    assert tilted.slope == 2.0


def test_tilted_unit_slope_rejected():
    doc = {
        "variant": "rectilinear_tilted",
        "n": 2,
        "m": 1,
        "points": [[0.0, 0.0]],
        "weights": [1.0],
        "addends": [0.0],
        "lower": [-4.0, -4.0],
        "upper": [4.0, 4.0],
        "strip": {"a": 0.0, "b": 0.0},
        "c": 1,
    }
    with pytest.raises(InstanceError, match="c must differ from 1 and -1"):
        instance_from_document(doc)


def test_document_validation_messages():
    with pytest.raises(InstanceError, match="not valid JSON"):
        parse_instance("{not json")
    with pytest.raises(InstanceError, match="top-level JSON value must be an object"):
        parse_instance("[1, 2]")

    doc = _minimal_doc()
    doc["color"] = "red"
    with pytest.raises(InstanceError, match="unexpected field 'color'"):
        instance_from_document(doc)

    doc = _minimal_doc()
    del doc["weights"]
    with pytest.raises(InstanceError, match="missing required field 'weights'"):
        instance_from_document(doc)

    doc = _minimal_doc()
    doc["variant"] = "euclidean"
    with pytest.raises(InstanceError, match="'variant' must be one of"):
        instance_from_document(doc)

    doc = _minimal_doc()
    doc["weights"] = [True]
    with pytest.raises(InstanceError, match=r"weights\[0\] must be a real number"):
        instance_from_document(doc)

    doc = _minimal_doc()
    doc["n"] = 2
    with pytest.raises(InstanceError, match=r"points\[0\] must be a list of 2 numbers"):
        instance_from_document(doc)

    doc = _minimal_doc()
    doc["m"] = 0
    with pytest.raises(InstanceError, match="'m' must be a positive integer"):
        instance_from_document(doc)

    with pytest.raises(InstanceError, match="non-finite JSON token"):
        parse_instance('{"variant": "chebyshev", "n": 1, "m": 1, "points": [[Infinity]]}')
    with pytest.raises(InstanceError, match="non-finite JSON token"):
        parse_instance('{"x": NaN}')


def test_strip_field_validation():
    doc = {
        "variant": "rectilinear_strip",
        "n": 2,
        "m": 1,
        "points": [[0.0, 0.0]],
        "weights": [1.0],
        "addends": [0.0],
        "lower": [-4.0, -4.0],
        "upper": [4.0, 4.0],
        "strip": {"a": 0.0},
    }
    with pytest.raises(InstanceError, match="must carry both 'a' and 'b'"):
        instance_from_document(doc)
    doc["strip"] = {"a": 0.0, "b": 1.0, "width": 2.0}
    with pytest.raises(InstanceError, match="unexpected field 'width' inside 'strip'"):
        instance_from_document(doc)
    doc["strip"] = [0.0, 1.0]
    with pytest.raises(InstanceError, match="must be an object"):
        instance_from_document(doc)
    doc["variant"] = "chebyshev"
    doc["strip"] = {"a": 0.0, "b": 1.0}
    with pytest.raises(InstanceError, match="unexpected field 'strip'"):
        instance_from_document(doc)


def test_each_variant_has_its_own_fields():
    # The schema, pinned: the shared fields, then B; B, c; strip; strip, c.
    # Every variant rejects each key of another, and the plane variants
    # reject n = 3.  io's record names exactly the variants of the table.
    shared = ["variant", "n", "m", "points", "weights", "addends", "caps", "lower", "upper"]
    own = {"chebyshev": ["B"], "chebyshev_scaled": ["B", "c"], "rectilinear_strip": ["strip"], "rectilinear_tilted": ["strip", "c"]}
    assert list(tio._SCHEMA) == [v.name for v in TABLE] == list(own)
    for variant, keys in own.items():
        n = 2 if variant.startswith("rectilinear") else 3
        inst = random_instance(variant, n, 4, 1)
        doc = json.loads(emit_instance(dataclasses.replace(inst, caps=np.full(4, 9.0))))
        assert list(doc) == shared + keys
        for key in {"B", "c", "strip"} - set(keys):
            with pytest.raises(InstanceError, match=rf"^unexpected field '{key}' for variant '{variant}'$"):
                instance_from_document({**doc, key: doc.get(key, 1.0)})
        if variant.startswith("rectilinear"):
            with pytest.raises(InstanceError, match=rf"^variant '{variant}' requires n = 2, got n = 3$"):
                instance_from_document({**doc, "n": 3})


_FIELDS = ("points", "weights", "addends", "caps", "box_lo", "box_hi", "diff_bounds", "scale", "strip_lo", "strip_hi", "slope")


def _bits(inst) -> dict:
    """Every field of an instance as exact bits: array bytes, or a float's packed double."""
    out = {"type": type(inst)}
    for name in _FIELDS:
        value = getattr(inst, name, "absent")
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.shape, value.tobytes())
        elif isinstance(value, float):
            value = (type(value), struct.pack("<d", value))
        out[name] = value
    return out


def _per_entry(doc):
    return tio._read(doc, *tio._header(doc), bulk=False)


def _bulk(doc):
    return tio._read(doc, *tio._header(doc), bulk=True)


def _valid_documents():
    docs = []
    for variant in VARIANTS:
        for n, m, seed in ((1, 1, 0), (3, 4, 1), (6, 9, 2)):
            n = 2 if variant.startswith("rectilinear") else n
            docs.append(json.loads(emit_instance(random_instance(variant, n, m, seed))))
    # ints, signed zeros, subnormals, the float extremes and null entries
    edge = {
        "variant": "chebyshev",
        "n": 2,
        "m": 3,
        "points": [[0, -0.0], [5e-324, -1.7e308], [1.7e308, 2**70]],
        "weights": [1, 2.5e-308, 1e300],
        "addends": [-0.0, -5e-324, 10**20],
        "caps": [None, 3, 1e-320],
        "lower": [-1.7e308, -0.0],
        "upper": [1.7e308, 0],
        "B": [[None, -1.7e308], [7, None]],
    }
    docs += [edge, {**edge, "caps": None}, {**edge, "caps": [None, None, None], "B": [[None, None], [None, None]]}]
    docs.append({**edge, "variant": "chebyshev_scaled", "points": [[0, -0.0], [5e-324, -1.7e307], [1.7e307, 2**70]], "c": [-1, 5e-324]})
    plane = {key: edge[key] for key in ("n", "m", "points", "weights", "addends", "caps", "lower", "upper")}
    docs.append({**plane, "variant": "rectilinear_strip", "strip": {"b": 2, "a": -0.0}})
    docs.append({**plane, "variant": "rectilinear_tilted", "strip": {"a": -1, "b": 1.5}, "c": 3})
    return docs


def test_bulk_parse_matches_per_entry_bits():
    # The bulk read of a valid document gives the per-entry mode's arrays and
    # floats bit for bit, ints, signed zeros and subnormals included.
    docs = _valid_documents()
    assert {doc["variant"] for doc in docs} == set(VARIANTS)
    for doc in docs:
        fast = _bulk(doc)
        assert _bits(fast) == _bits(_per_entry(doc)), doc
        assert _bits(instance_from_document(doc)) == _bits(fast)


def _mutants(doc):
    """(place, token, JSON text) for every token put into a field, a row and an entry of doc."""
    targets = []
    for key in ("points", "weights", "addends", "caps", "lower", "upper", "B", "c", "strip"):
        if key in doc:
            targets.append([key])
    last = doc["m"] - 1
    targets += [["points", last], ["points", last, 1], ["weights", last], ["addends", 0], ["lower", 1], ["upper", 0]]
    if isinstance(doc.get("caps"), list):
        targets.append(["caps", last])
    if "B" in doc:
        targets += [["B", 1], ["B", 1, 0], ["B", 0, 0]]
    if isinstance(doc.get("c"), list):
        targets.append(["c", 1])
    if "strip" in doc:
        targets += [["strip", "a"], ["strip", "b"]]
    for where in targets:
        target = doc
        for key in where[:-1]:
            target = target[key]
        old = target[where[-1]]
        wrong = json.dumps([1.0] * (len(old) + 1 if isinstance(old, list) else 2))
        tokens = ['"s"', "true", "null", "1e400", "-1e400", str(10**400), "[]", wrong, "[[1.0]]", "0", "-1.0", "[0.0, 1.0]"]
        for token in tokens:
            target[where[-1]] = "@TOKEN@"
            yield where, token[:12], json.dumps(doc).replace('"@TOKEN@"', token)
            target[where[-1]] = old


def _outcome(build, doc):
    try:
        return _bits(build(doc))
    except InstanceError as exc:
        return str(exc)


def test_bulk_parse_falls_back_to_per_entry_messages():
    # On every mutant the parse gives the per-entry mode's message, or both
    # accept it with the same bits: the bulk read never accepts what the
    # per-entry mode rejects.  Each row is a document of one variant.
    rejected = accepted = 0
    for variant in VARIANTS:
        n = 2 if variant.startswith("rectilinear") else 3
        base = json.loads(emit_instance(random_instance(variant, n, 4, 7)))
        base["caps"] = base.get("caps") or [2.0, None, 3.0, 4.0]
        for where, token, text in _mutants(base):
            doc = json.loads(text)
            expected = _outcome(_per_entry, doc)
            assert _outcome(instance_from_document, doc) == expected, (where, token)
            if isinstance(expected, str):
                rejected += 1
                with pytest.raises((InstanceError, OverflowError, tio._Doubt)):
                    _bulk(doc)
            else:
                accepted += 1
    assert rejected > 500 and accepted > 50, (rejected, accepted)


def _solution_doc(theta=np.float64(2.5), member=-0.0, objective=2.5):
    return {
        "theta": theta,
        "transform": {"kind": "identity", "coeffs": []},
        "generator": [[None, -0.0], [5e-324, None]],
        "u_lo": [-1.7e308, 2.2250738585072014e-308 / 4],
        "u_hi": [1.7e308, 0.0],
        "members": [[1.0, member]],
        "objectives": [objective],
    }


def test_writer_matches_json_dumps():
    docs = [_solution_doc(), _solution_doc(theta=3), _solution_doc(theta=-1.7e308, member=5e-324)]
    docs.append({"a": [], "b": {}, "c": (1.5, None, True, False, "é\n"), "d": [[], [[]], [{}]], "e": [1, 2.0, None, "x"]})
    docs += [[], {}, 0.1, None, "tropiloc", [[1.0, None], [None, 2.0]]]
    docs += [json.loads(emit_instance(random_instance(v, 2, 3, 1))) for v in VARIANTS]
    for doc in docs:
        assert _json_text(doc) == json.dumps(doc, indent=2, allow_nan=False)


@pytest.mark.parametrize("variant", VARIANTS)
def test_emitted_json_is_json_dumps(variant):
    # The solution and instance documents of every variant, from a one-member
    # sample up, as json.dumps(indent=2) writes them.
    for seed in range(8):
        n = 2 if variant.startswith("rectilinear") else 1 + seed % 4
        inst = random_instance(variant, n, 1 + 3 * seed, seed)
        text = emit_instance(inst)
        assert text == json.dumps(json.loads(text), indent=2, allow_nan=False) + "\n"
        box = solve(inst)
        payload = emit_solution(box, inst, "json", samples=1 + seed, seed=seed).decode()
        assert payload == json.dumps(json.loads(payload), indent=2, allow_nan=False) + "\n"


def _raised(write, doc):
    with pytest.raises((ValueError, TypeError)) as info:
        write(doc)
    return type(info.value), str(info.value)


def test_writer_rejects_what_json_dumps_rejects():
    # A non-finite theta, member or objective raises json.dumps's ValueError,
    # with its message, and so does the first bad value of a document.
    dumps = lambda doc: json.dumps(doc, indent=2, allow_nan=False)  # noqa: E731
    bad = [math.inf, -math.inf, math.nan, np.float64(math.inf), np.float64(math.nan)]
    docs = [_solution_doc(theta=v) for v in bad]
    docs += [_solution_doc(member=v) for v in bad] + [_solution_doc(objective=v) for v in bad]
    docs += [_solution_doc(member=math.inf, objective=math.nan), [None, 1.0, -math.inf, math.nan], [np.float64(1.0), np.array([1.0])]]
    docs += [{"x": np.int64(1)}, [1.0, object()]]
    for doc in docs:
        expected = _raised(dumps, doc)
        assert _raised(_json_text, doc) == expected
    assert _raised(_json_text, _solution_doc(theta=math.inf))[1].startswith("Out of range float values are not JSON compliant")


def test_valid_documents_are_read_in_bulk_and_written_by_io(tmp_path, capsysbinary):
    # A valid document is checked once: the per-entry checker io._real never
    # runs.  JSON goes out through io's writer: json.dumps with indent set
    # would run the pure-Python encoder (_make_iterencode and its
    # _iterencode), and no frame of json.encoder runs.
    encoder = json.encoder.__file__
    probe = python_frames([lambda: json.dumps(_solution_doc(), indent=2)])
    assert {"_make_iterencode", "_iterencode"} <= {function for file, function in probe if file == encoder}
    docs = _valid_documents()
    paths = []
    for k, variant in enumerate(VARIANTS):
        path = tmp_path / f"{variant}.json"
        path.write_text(emit_instance(random_instance(variant, 2 if variant.startswith("rectilinear") else 3, 5, k)))
        paths.append(str(path))
    texts = [json.dumps(doc) for doc in docs]
    parsed = python_frames([lambda text=text: parse_instance(text) for text in texts])
    assert {"_read", "_bulk_array"} <= {function for file, function in parsed}
    assert "_real" not in {function for file, function in parsed if file == tio.__file__}
    calls = [lambda path=path: cli.main(["solve", path]) for path in paths]
    calls += [lambda path=path: cli.main(["solve", path, "--samples", "1"]) for path in paths]
    calls += [lambda doc=doc: emit_instance(instance_from_document(doc)) for doc in docs]
    calls.append(lambda: cli.main(["oracle", paths[-1], "--lo", "-4", "-4", "--hi", "4", "4", "--step", "1"]))
    frames = python_frames(calls)
    assert {"_text", "_json_text", "emit_solution", "emit_instance", "_cmd_oracle"} <= {function for file, function in frames}
    assert sorted(function for file, function in frames if file == encoder) == []
    assert "_real" not in {function for file, function in frames if file == tio.__file__}
    capsysbinary.readouterr()


def test_roundtrip_is_bit_stable():
    for variant in VARIANTS:
        for seed in (0, 3, 9):
            inst = random_instance(variant, 2, 3, seed)
            text = emit_instance(inst)
            again = emit_instance(parse_instance(text))
            assert text == again
            assert variant_of(parse_instance(text)) == variant


def test_emit_preserves_infinite_caps():
    inst = ChebyshevInstance(
        points=[[0.0]],
        weights=[1.0],
        addends=[0.0],
        caps=[np.inf],
        box_lo=[-1.0],
        box_hi=[1.0],
        diff_bounds=np.full((1, 1), BOTTOM),
    )
    doc = json.loads(emit_instance(inst))
    assert doc["caps"] == [None]
    assert parse_instance(emit_instance(inst)).caps[0] == np.inf


def test_emit_instance_rejects_foreign_objects():
    with pytest.raises(TypeError):
        emit_instance({"variant": "chebyshev"})


def test_solution_json_payload():
    inst = two_point_instance()
    box = solve(inst)
    payload = json.loads(emit_solution(box, inst, "json", samples=4, seed=1))
    assert payload["theta"] == 2.0
    assert payload["transform"] == {"kind": "identity", "coeffs": []}
    assert len(payload["members"]) == 4
    assert payload["objectives"] == [2.0] * 4
    assert payload["u_lo"] == [2.0, -2.0]
    assert payload["u_hi"] == [2.0, 2.0]


def test_solution_json_transform_payloads():
    plain = two_point_instance()
    scaled = ScaledChebyshevInstance(
        points=plain.points,
        weights=plain.weights,
        addends=plain.addends,
        caps=plain.caps,
        box_lo=plain.box_lo,
        box_hi=plain.box_hi,
        diff_bounds=plain.diff_bounds,
        scale=[2.0, -0.5],
    )
    cases = [
        (scaled, {"kind": "scale", "coeffs": [2.0, -0.5]}),
        (tilted_line_instance(), {"kind": "rotate_scaled", "coeffs": [1.0, 3.0]}),
    ]
    for inst, transform in cases:
        payload = json.loads(emit_solution(solve(inst), inst, "json"))
        assert payload["transform"] == transform


def test_solution_csv_payload():
    inst = two_point_instance()
    box = solve(inst)
    lines = emit_solution(box, inst, "csv", samples=6, seed=0).decode().splitlines()
    assert lines[0] == "x1,x2,objective"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert [float(first[0]), float(first[1])] == [2.0, -2.0]
    assert float(first[2]) == 2.0


def test_solution_svg_strip():
    inst = wide_strip_instance()
    box = solve_strip(inst)
    svg = emit_solution(box, inst, "svg", samples=5, seed=0).decode()
    assert svg.startswith("<svg")
    assert svg.count('class="pt"') == inst.m
    assert 'class="region"' in svg and 'class="sol-path"' in svg
    assert svg.count('class="sol"') == 5


def test_solution_svg_tilted():
    inst = tilted_line_instance()
    box = solve(inst)
    svg = emit_solution(box, inst, "svg", samples=3, seed=0).decode()
    assert svg.count('class="pt"') == inst.m


def _sketch_region(svg: str, inst, members: np.ndarray):
    """The region polygon of an SVG sketch in plane coordinates, and the drawn square.

    The points and members padded by half their spread plus one make a
    rectangle; the square on its lower corner with the rectangle's longer
    side spans the 480 pixels of the drawing.
    """
    anchors = np.vstack([inst.points, members])
    lo, hi = anchors.min(axis=0), anchors.max(axis=0)
    pad = max(float(np.max(hi - lo)), 1.0) * 0.5 + 1.0
    lo, hi = lo - pad, hi + pad
    span = float(np.max(hi - lo))
    found = re.search(r'<polygon class="region" points="([^"]*)"', svg)
    assert found, "a solved plane instance has a nonempty region"
    pixels = np.array([[float(v) for v in pair.split(",")] for pair in found.group(1).split()])
    return lo + np.column_stack([pixels[:, 0], 480.0 - pixels[:, 1]]) / 480.0 * span, lo, lo + span


def _inside_and_distance(poly: np.ndarray, xs: np.ndarray):
    """Even-odd membership of each row of xs in the polygon, and its distance to the outline."""
    inside = np.zeros(xs.shape[0], dtype=bool)
    dist = np.full(xs.shape[0], np.inf)
    for a, b in zip(poly, np.roll(poly, -1, axis=0)):
        edge = b - a
        t = np.clip((xs - a) @ edge / max(float(edge @ edge), 1e-300), 0.0, 1.0)
        dist = np.minimum(dist, np.hypot(*(xs - a - t[:, None] * edge).T))
        crosses = (a[1] > xs[:, 1]) != (b[1] > xs[:, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            at = a[0] + (xs[:, 1] - a[1]) * edge[0] / edge[1]
        inside ^= crosses & (xs[:, 0] < at)
    return inside, dist


@pytest.mark.parametrize("variant", VARIANTS)
def test_svg_region_is_the_feasible_region(variant):
    # Random points in the drawn square lie in the drawn region exactly when
    # they meet every constraint, outside a band of 1e-3 of the square around
    # its outline (the SVG keeps two decimals of 480 pixels); every sampled
    # member lies in it, up to the band.
    rng = np.random.default_rng(5)
    compared = 0
    for seed in range(12):
        inst = random_instance(variant, 2, 2 + seed % 5, seed)
        box = solve(inst)
        members = sample(box, 6, seed)
        svg = emit_solution(box, inst, "svg", samples=6, seed=seed).decode()
        poly, lo, hi = _sketch_region(svg, inst, members)
        band = 1e-3 * float(np.max(hi - lo))
        xs = lo + rng.random((4000, 2)) * (hi - lo)
        inside, dist = _inside_and_distance(poly, xs)
        clear = dist > band
        assert np.array_equal(inside[clear], violation_batch(inst, xs[clear]) <= 0)
        inside, dist = _inside_and_distance(poly, members)
        assert np.all(inside | (dist <= band))
        compared += int(clear.sum())
    assert compared > 12 * 3900


def test_zero_width_strip_keeps_its_segment():
    # With a = b the strip is the line x1 = a.  Its two half-planes clip the
    # vertices the first one made on the line; those count as exactly on it,
    # so the sketch keeps a segment with two distinct ends on x1 = a, and both
    # ends meet every constraint up to the two decimals of the drawing.
    inst = random_instance("rectilinear_strip", 2, 3, 12)
    assert inst.strip_lo == inst.strip_hi == -0.8
    box = solve(inst)
    members = sample(box, 5, 0)
    svg = emit_solution(box, inst, "svg", samples=5, seed=0).decode()
    poly, lo, hi = _sketch_region(svg, inst, members)
    ends = np.unique(poly, axis=0)
    pixel = float(np.max(hi - lo)) / 480.0
    assert ends.shape == (2, 2), ends
    assert np.all(np.abs(ends[:, 0] - inst.strip_lo) <= 0.01 * pixel)
    assert ends[1, 1] - ends[0, 1] > pixel
    assert np.all(violation_batch(inst, ends) <= 0.01 * pixel)


def test_a_region_of_one_point_is_clipped_to_nothing(monkeypatch):
    # The strip x1 = -3 and a box pinched to the rotated image of (-3, 0.6):
    # the feasible region is that one point, and the solve's box is it.  The
    # box's lines meet the strip's line there only up to rounding, and the
    # strip's second half-plane, the last one, clips the vertex left to
    # nothing.  The sketch draws no region then: only the clients and the
    # members, all one point within rounding of (-3, 0.6).
    inst = StripInstance(points=[[0.0, 0.0], [1.0, 1.0]], weights=[1.0, 1.0], addends=[0.0, 0.0],
                         box_lo=[-2.4, 3.6], box_hi=[-2.4, 3.6], strip_lo=-3.0, strip_hi=-3.0)
    box = solve(inst)
    assert box.theta == 4.4
    members = sample(box, 3, 0)
    assert np.all(members == members[0]) and np.allclose(members[0], [-3.0, 0.6], rtol=0.0, atol=1e-15)
    regions = []
    clip = tio._clip

    def spy(*args):
        regions.append(clip(*args))
        return regions[-1]

    monkeypatch.setattr(tio, "_clip", spy)
    svg = emit_solution(box, inst, "svg", samples=3, seed=0).decode()
    assert regions[-1] == [] and all(regions[:-1])
    assert '<polygon class="region"' not in svg
    assert svg.count('class="pt"') == 2 and svg.count('class="sol"') == 3


def test_clip_sign_test_is_exact():
    # The line passes 0.5e-9 below (0, 0): the unit square misses the half
    # plane, although its lower corners are within 2e-9 of the line.
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    assert _clip(square, 1.5e-9, 1.0, -0.5e-9) == []


coords = st.integers(-8, 8).map(float)
magnitudes = st.sampled_from([1.0, 1e-9, 1e6 + 0.3])


@settings(max_examples=300)
@given(
    st.lists(st.tuples(coords, coords), min_size=3, max_size=6),
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, 1.0, -1.0]),
    st.floats(-2.0, 2.0),
    magnitudes,
)
def test_clip_vertices_lie_on_the_input_outline(poly, a, b, g, magnitude):
    # Lines with a tiny slope or offset pass within rounding of the corners.
    out = _clip(poly, a * magnitude, b, g * magnitude)
    if out:
        _, dist = _inside_and_distance(np.array(poly), np.array(out))
        assert dist.max() <= 1e-12, out


def test_svg_needs_two_dimensions():
    inst = random_instance("chebyshev", 3, 2, 0)
    box = solve(inst)
    with pytest.raises(UnsupportedFormatError):
        emit_solution(box, inst, "svg")


def test_unknown_format_rejected():
    inst = two_point_instance()
    box = solve(inst)
    with pytest.raises(UnsupportedFormatError):
        emit_solution(box, inst, "yaml")
