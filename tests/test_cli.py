"""End-to-end command line flows, driven in process through cli.main."""

import json

import pytest

from support import tight_caps_instance, two_point_instance, wide_strip_instance
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


def test_solve_writes_svg(two_point_file, tmp_path, capsysbinary):
    svg_path = tmp_path / "sketch.svg"
    assert cli.main(["solve", two_point_file, "--svg", str(svg_path)]) == 0
    capsysbinary.readouterr()
    assert svg_path.read_text().startswith("<svg")


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


def test_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    assert cli.main(["solve", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


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
