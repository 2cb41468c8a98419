"""End-to-end command line flows, driven in process through cli.main."""

import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from support import tight_caps_instance, two_point_instance, wide_strip_instance
import tropiloc
from tropiloc import cli, emit_instance
from tropiloc.solutions import VerificationReport


@pytest.fixture
def two_point_file(tmp_path):
    path = tmp_path / "two_point.json"
    path.write_text(emit_instance(two_point_instance()))
    return str(path)


@pytest.fixture
def infeasible_file(tmp_path):
    path = tmp_path / "tight.json"
    path.write_text(emit_instance(tight_caps_instance()))
    return str(path)


def test_solve_json(two_point_file, capsysbinary):
    assert cli.main(["solve", two_point_file]) == 0
    payload = json.loads(capsysbinary.readouterr().out)
    assert payload["theta"] == 2.0
    assert len(payload["members"]) == 5


def test_solve_csv(two_point_file, capsysbinary):
    assert cli.main(["solve", two_point_file, "--out", "csv", "--samples", "3"]) == 0
    lines = capsysbinary.readouterr().out.decode().splitlines()
    assert lines[0] == "x1,x2,objective"
    assert len(lines) == 4


def test_solve_writes_svg(two_point_file, tmp_path, capsysbinary, monkeypatch):
    from tropiloc import emit_solution, solve
    from tropiloc import io as tio

    calls = []
    real_sample = tio.sample

    def counting_sample(*args, **kwargs):
        calls.append(args)
        return real_sample(*args, **kwargs)

    monkeypatch.setattr(tio, "sample", counting_sample)
    for out in ("json", "csv"):
        calls.clear()
        assert cli.main(["solve", two_point_file, "--out", out, "--samples", "4"]) == 0
        assert len(calls) == 1
        plain = capsysbinary.readouterr().out
        calls.clear()
        svg_path = tmp_path / f"sketch-{out}.svg"
        assert cli.main(["solve", two_point_file, "--out", out, "--samples", "4", "--svg", str(svg_path)]) == 0
        assert len(calls) == 1  # one sample feeds stdout and the sketch
        # stdout and the sketch are the bytes each format gives on its own
        assert capsysbinary.readouterr().out == plain
        inst = two_point_instance()
        sketch = svg_path.read_bytes()
        assert sketch.startswith(b"<svg")
        assert sketch == emit_solution(solve(inst), inst, "svg", samples=4, seed=0)


def test_solve_infeasible_exits_two(infeasible_file, capsys):
    assert cli.main(["solve", infeasible_file]) == 2
    err = capsys.readouterr().err
    assert "infeasible" in err and "gap" in err


def test_check_feasible(two_point_file, capsys):
    assert cli.main(["check", two_point_file]) == 0
    out = capsys.readouterr().out
    assert "spectral certificate: ok" in out
    assert "bounds certificate:   ok" in out
    assert out.strip().endswith("feasible")


def test_check_infeasible(infeasible_file, capsys):
    assert cli.main(["check", infeasible_file]) == 2
    out = capsys.readouterr().out
    assert "FAILED" in out and "gap 8" in out
    assert out.strip().endswith("infeasible")


def test_oracle_agrees_with_solver(two_point_file, capsys):
    code = cli.main(
        ["oracle", two_point_file, "--lo", "-10", "-10", "--hi", "10", "10", "--step", "0.5"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["best_value"] == 2.0
    assert doc["evaluated"] == 41 * 41
    assert [2.0, -2.0] in doc["best_points"]


def test_oracle_infeasible_window(infeasible_file, capsys):
    code = cli.main(["oracle", infeasible_file, "--lo", "-20", "--hi", "20", "--step", "0.5"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["best_value"] is None


def test_oracle_window_dimension_error(two_point_file, capsys):
    assert cli.main(["oracle", two_point_file, "--lo", "-1", "--hi", "1", "--step", "0.5"]) == 1
    assert "window dimension" in capsys.readouterr().err


def test_verify_passes(two_point_file, capsys):
    assert cli.main(["verify", two_point_file, "--samples", "8"]) == 0
    out = capsys.readouterr().out
    assert "checked 8 members" in out and out.strip().endswith("PASS")


def test_verify_infeasible(infeasible_file, capsys):
    assert cli.main(["verify", infeasible_file]) == 2


def test_verify_failure_exits_three(two_point_file, capsys, monkeypatch):
    forged = VerificationReport(
        checked_count=1, max_objective_deviation=0.5, max_constraint_violation=0.0
    )
    monkeypatch.setattr(cli, "verify_box", lambda *a, **k: forged)
    assert cli.main(["verify", two_point_file]) == 3
    assert capsys.readouterr().out.strip().endswith("FAIL")


def test_gen_roundtrip(tmp_path, capsys):
    assert cli.main(["gen", "--variant", "rectilinear_strip", "--seed", "3"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "gen.json"
    path.write_text(text)
    assert cli.main(["check", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 0


def test_gen_all_variants(capsys):
    for variant in ("chebyshev", "chebyshev_scaled", "rectilinear_strip", "rectilinear_tilted"):
        assert cli.main(["gen", "--variant", variant, "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["variant"] == variant


def test_gen_invalid_arguments(capsys):
    assert cli.main(["gen", "--variant", "rectilinear_strip", "--n", "3"]) == 1
    assert "plane" in capsys.readouterr().err


def test_missing_file(capsys):
    assert cli.main(["solve", "/nonexistent/nowhere.json"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_unreadable_paths_are_named_as_path_spells_them(two_point_file, tmp_path, capsys, monkeypatch):
    # The message names the path as pathlib spells it (no "." parts, no
    # extra or trailing slashes; the empty path is "."), and a file named
    # with a trailing slash is still read.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    cases = {
        "/nonexistent/nowhere.json": "[Errno 2] No such file or directory: '/nonexistent/nowhere.json'",
        "./missing.json": "[Errno 2] No such file or directory: 'missing.json'",
        "sub//missing.json": "[Errno 2] No such file or directory: 'sub/missing.json'",
        "sub": "[Errno 21] Is a directory: 'sub'",
        "sub/": "[Errno 21] Is a directory: 'sub'",
        "": "[Errno 21] Is a directory: '.'",
    }
    for path, reason in cases.items():
        assert cli.main(["check", path]) == 1
        assert capsys.readouterr().err == f"error: cannot read {path}: {reason}\n"
    for path in (f"{two_point_file}/", f"{two_point_file}/."):
        assert cli.main(["check", path]) == 0
        assert capsys.readouterr().out.endswith("feasible\n")


def test_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    assert cli.main(["solve", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def _with_number(doc_text: str, where: list, token: str) -> str:
    doc = json.loads(doc_text)
    target = doc
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = "@NUMBER@"
    return json.dumps(doc).replace('"@NUMBER@"', token)


@pytest.mark.parametrize(
    "where, token, message",
    [
        (["caps"], "[1e400, null]", r"caps\[0\] must be a finite real number"),
        (["points", 0, 0], str(10**400), r"points\[0\]\[0\] must be a finite real number"),
        (["n"], str(10**30), r"points\[0\] must be a list of 10+ numbers"),
    ],
    ids=["float_overflow", "int_overflow", "huge_n"],
)
def test_numbers_beyond_float_range_exit_one(tmp_path, capsys, where, token, message):
    # 1e400 parses as inf, which must not pass as an absent cap; 10**400
    # overflows float(); n = 10**30 must not reach an allocation
    path = tmp_path / "wide.json"
    path.write_text(_with_number(emit_instance(two_point_instance()), where, token))
    assert cli.main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert re.search(message, captured.err)


@pytest.mark.parametrize("command", ["solve", "check"])
@pytest.mark.parametrize(
    "text, message",
    [
        ('{"variant": ["x"]}', r"'variant' must be one of .*; got \['x'\]"),
        ('{"variant": {}}', r"'variant' must be one of .*; got \{\}"),
        ("[" * 100000, r"not valid JSON: maximum recursion depth exceeded"),
    ],
    ids=["list_variant", "object_variant", "deep_nesting"],
)
def test_malformed_documents_exit_one(tmp_path, capsys, command, text, message):
    # An unhashable variant and JSON nested beyond the recursion limit are
    # parse errors, not tracebacks.
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert cli.main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert re.search(message, captured.err)


_WIDE_BOX = '"lower": [-1.7e308, -1.7e308], "upper": [1.7e308, 1.7e308]'
# A box spanning more than the float range, with one client: at its center,
# and at x1 = 1e308 on the band -1 <= x2 <= 1, whose rotated coordinates
# (1e308, -1e308) differ by more than the float range.
_FAR_DOCUMENTS = {
    "chebyshev": '{"variant": "chebyshev", "n": 1, "m": 1, "points": [[0.0]], "weights": [1.0], "addends": [0.0], '
    '"lower": [-1.7e308], "upper": [1.7e308], "B": [[null]]}',
    "tilted": '{"variant": "rectilinear_tilted", "n": 2, "m": 1, "points": [[1e308, 0.0]], "weights": [1.0], '
    '"addends": [0.0], ' + _WIDE_BOX + ', "strip": {"a": -1.0, "b": 1.0}, "c": 0.0}',
}


@pytest.mark.parametrize("command", ["solve", "check", "verify"])
@pytest.mark.parametrize("document", sorted(_FAR_DOCUMENTS))
def test_boxes_wider_than_the_float_range_answer_quietly(tmp_path, capsys, command, document):
    # The bounds gap of such a box is -inf, and a member's rotated
    # coordinates can differ by more than the float range: no warning, and
    # finite answers, under the warnings-as-errors policy of the demos.
    path = tmp_path / "far.json"
    path.write_text(_FAR_DOCUMENTS[document])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if command == "solve":
        payload = json.loads(captured.out)
        assert payload["theta"] == 0.0
        assert payload["members"][0] == ([0.0] if document == "chebyshev" else [1e308, 0.0])
    elif command == "check":
        assert "bounds certificate:   ok (gap -inf)" in captured.out
    else:
        assert captured.out.strip().endswith("PASS")


@pytest.mark.parametrize("command", ["solve", "check", "verify"])
@pytest.mark.parametrize("variant", ["rectilinear_strip", "rectilinear_tilted"])
@pytest.mark.parametrize("a, b, entry", [("0.0", "1e308", "B[1][0]"), ("-1e308", "0.0", "B[0][1]")])
def test_strip_ends_that_double_beyond_the_float_range_exit_one(tmp_path, capsys, command, variant, a, b, entry):
    tilt = ', "c": 0.0' if variant == "rectilinear_tilted" else ""
    path = tmp_path / "strip.json"
    path.write_text(f'{{"variant": "{variant}", "n": 2, "m": 1, "points": [[1.5e308, 0.0]], "weights": [1.0], '
                    f'"addends": [0.0], {_WIDE_BOX}, "strip": {{"a": {a}, "b": {b}}}{tilt}}}')
    code = cli.main([command, str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {entry} must be real or absent\n")


# Two clients at +-1e308 with weight 10: the optimum, at 0, has the value 1e309.
_BEYOND_RANGE = ('{"variant": "chebyshev", "n": 1, "m": 2, "points": [[1e308], [-1e308]], "weights": [10.0, 10.0], '
                 '"addends": [0.0, 0.0], "lower": [-1.7e308], "upper": [1.7e308], "B": [[null]]}')


@pytest.mark.parametrize("command, options", [("solve", []), ("solve", ["--out", "csv"]), ("solve", ["--svg"]), ("verify", [])])
def test_an_optimum_beyond_the_float_range_exits_one(tmp_path, capsys, command, options):
    # No document could state theta = inf: one error line, nothing on
    # stdout and no sketch.  The Newton steps' own sums overflow on the way
    # and warn, which is not what this test checks.
    path = tmp_path / "far.json"
    path.write_text(_BEYOND_RANGE)
    sketch = tmp_path / "far.svg"
    if options == ["--svg"]:
        options = ["--svg", str(sketch)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = cli.main([command, str(path), *options])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", "error: the optimal value inf is beyond the float range\n")
    assert not sketch.exists()
    assert cli.main(["check", str(path)]) == 0
    assert capsys.readouterr().out.endswith("\nfeasible\n")


@pytest.mark.parametrize("command", ["solve", "check", "verify"])
@pytest.mark.parametrize("variant", ["rectilinear_strip", "rectilinear_tilted"])
def test_a_point_that_rotates_beyond_the_float_range_exits_one_quietly(tmp_path, capsys, command, variant):
    # x1 + x2 overflows in the reduction, which rejects the point with no
    # warning first.
    tilt = ', "c": 0.0' if variant == "rectilinear_tilted" else ""
    path = tmp_path / "far.json"
    path.write_text(f'{{"variant": "{variant}", "n": 2, "m": 1, "points": [[1.5e308, 1.5e308]], "weights": [1.0], '
                    f'"addends": [0.0], "lower": [-1.0, -1.0], "upper": [1.0, 1.0], "strip": {{"a": 0.0, "b": 1.0}}{tilt}}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", "error: points[0][0] must be finite\n")


def test_svg_for_high_dimension_fails_cleanly(tmp_path, capsys):
    from tropiloc import random_instance

    path = tmp_path / "cube.json"
    path.write_text(emit_instance(random_instance("chebyshev", 3, 2, 0)))
    assert cli.main(["solve", str(path), "--svg", str(tmp_path / "no.svg")]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "no.svg").exists()


def test_svg_to_unwritable_path_fails_cleanly(two_point_file, tmp_path, capsys):
    target = tmp_path / "missing-dir" / "sketch.svg"
    assert cli.main(["solve", two_point_file, "--svg", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {target}")
    assert captured.out == ""


def test_usage_errors_exit_one(capsys):
    assert cli.main([]) == 1
    assert "usage error" in capsys.readouterr().err
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()
    assert cli.main(["oracle", "x.json", "--lo", "0", "--hi", "1"]) == 1
    assert "--step" in capsys.readouterr().err


def test_strip_solve_svg_members_on_band(tmp_path, capsysbinary):
    path = tmp_path / "strip.json"
    path.write_text(emit_instance(wide_strip_instance()))
    assert cli.main(["solve", str(path), "--out", "json", "--samples", "4"]) == 0
    payload = json.loads(capsysbinary.readouterr().out)
    assert payload["theta"] == 2.0
    assert payload["transform"]["kind"] == "rotate45"


def test_calls_in_sequence_match_fresh_processes(two_point_file, tmp_path, capsysbinary):
    # main reuses one parser; a usage error, then --svg, then a plain solve
    # must each give the exit code and bytes of a call in a fresh process.
    sketch = tmp_path / "sketch.svg"
    calls = [
        ["solve", two_point_file, "--out", "xml"],
        ["solve", two_point_file, "--svg", str(sketch)],
        ["solve", two_point_file],
    ]
    code = "import sys; from tropiloc.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {"PYTHONPATH": str(Path(tropiloc.__file__).parents[1])}
    fresh = []
    for argv in calls:
        done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=env, timeout=60)
        fresh.append((done.returncode, done.stdout, done.stderr, sketch.read_bytes() if sketch.exists() else None))
        sketch.unlink(missing_ok=True)
    assert [run[0] for run in fresh] == [1, 0, 0]
    for argv, expected in zip(calls, fresh):
        status = cli.main(argv)
        out = capsysbinary.readouterr()
        assert (status, out.out, out.err, sketch.read_bytes() if sketch.exists() else None) == expected, argv
        sketch.unlink(missing_ok=True)
