"""JSON instance documents and JSON/CSV/SVG solution serialization."""

import json

import numpy as np
import pytest

from support import tilted_line_instance, two_point_instance, wide_strip_instance
from tropiloc import (
    ChebyshevInstance,
    ScaledChebyshevInstance,
    StripInstance,
    TiltedStripInstance,
    emit_instance,
    emit_solution,
    parse_instance,
    random_instance,
    solve,
    solve_strip,
)
from tropiloc.errors import InstanceError, UnsupportedFormatError
from tropiloc.generate import VARIANTS
from tropiloc.io import instance_from_document, variant_of
from tropiloc.semiring import BOTTOM


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
