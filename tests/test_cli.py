import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normgeom
from normgeom import (AnalysisRequest, LpNorm, QuadraticNorm, emit_plot_data,
                      run_request, spec_from_dict)
from normgeom import cli, errors
from normgeom.cli import run_cli, validate_report
from normgeom.geometric import GeometricCheck
from helpers import (EXTREME_SCALES, FAMILIES, generic_point, smooth_specs,
                     sphere_sample_reference, tie_point, to_unit_size)


@pytest.fixture
def circle_spec(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({"type": "quadratic", "q": [[1.0, 0.0], [0.0, 1.0]]}))
    return str(path)


@pytest.fixture
def square_spec(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"type": "linf", "dim": 2}))
    return str(path)


def test_grad_prints_base_point_coefficients(circle_spec, capsys):
    code = run_cli(["grad", circle_spec, "--point", "0.6,0.8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(0.6, 0.8)" in out  # closed form at (0.6, 0.8) is exactly that


def test_grad_reports_a_failed_tangent_fit_at_a_smooth_point(circle_spec, monkeypatch,
                                                              tmp_path):
    # no shipped input is smooth and not flat, so the fit's failure is forced
    error = errors.EstimationError("sphere samples are degenerate")
    monkeypatch.setattr(cli, "geometric_check",
                        lambda spec, point, **options: GeometricCheck(1e-2, error))
    out = tmp_path / "grad.json"
    assert run_cli(["grad", circle_spec, "--point", "0.6,0.8", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    validate_report(report)
    result = report["results"][0]["result"]
    assert result["smooth"] and result["grad_geometric"] is None
    assert result["geometric_error"] == str(error)
    assert result["grad_fd"] == pytest.approx([0.6, 0.8], abs=1e-9)
    # the worst finite discrepancy left is the closed form's against fd
    assert report["summary"]["max_discrepancy"] == result["max_discrepancy"] <= 1e-6
    assert not report["summary"]["all_passed"]


def test_classify_corner_exits_zero(square_spec, capsys):
    code = run_cli(["classify", square_spec, "--point", "1,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "NonSmooth" in out
    assert "witness" in out and "slopes" in out


def test_classify_smooth_point(square_spec, capsys):
    code = run_cli(["classify", square_spec, "--point", "1,0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Smooth, gradient (1, 0)" in out


@pytest.mark.parametrize("args", [["--point", "-1,0.5"], ["--point=-1,0.5"]],
                         ids=["separate", "joined"])
def test_point_may_start_with_a_minus(square_spec, capsys, args):
    code = run_cli(["classify", square_spec, *args])
    out = capsys.readouterr().out
    assert code == 0
    assert "point (-1, 0.5): Smooth, gradient (-1, 0)" in out


def test_chart_sample_leaving_the_domain_fails_the_check(tmp_path, capsys):
    # near the max norm's tie an image of a sample 0.5 radius away lies
    # beyond the radius, where the inverse is not checked
    spec = tmp_path / "cube.json"
    spec.write_text(json.dumps({"type": "linf", "dim": 3}))
    out_path = tmp_path / "report.json"
    code = run_cli(["chart", str(spec), "--point", "0.4798,-0.9871,-1.0",
                    "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 1
    report = json.loads(out_path.read_text())
    validate_report(report)
    result = report["results"][0]["result"]
    assert result["passed"] is False
    left = result["samples_outside_domain"]
    assert left >= 1
    assert f"{left} of 64 sample images left the inverse's domain radius" in out


def test_probe_three_decades(circle_spec, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = run_cli(["probe", circle_spec, "--point", "1,0", "--decades", "3",
                    "--out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    rows = report["results"][0]["result"]["rows"]
    assert len(rows) == 3
    values = [row["proj_diff_norm"] for row in rows]
    ratios = [a / b for a, b in zip(values, values[1:])]
    assert all(8.0 <= r <= 12.0 for r in ratios)


def test_chart_command_residuals(circle_spec, capsys):
    code = run_cli(["chart", circle_spec, "--point", "0.6,0.8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "normal-form residual" in out


def test_chart_at_corner_is_check_failure(square_spec, capsys):
    code = run_cli(["chart", square_spec, "--point", "1,1"])
    assert code == 1


def test_roundtrip_mixed_points(square_spec, tmp_path, capsys):
    points = tmp_path / "points.json"
    points.write_text(json.dumps([[1.0, 0.5], [1.0, 1.0], [0.2, -0.9]]))
    out_path = tmp_path / "report.json"
    code = run_cli(["roundtrip", square_spec, "--points-file", str(points),
                    "--out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    verdicts = [r["result"]["verdict"] for r in report["results"]]
    assert verdicts == ["consistent"] * 3
    assert report["summary"]["smooth"] == 2
    assert report["summary"]["non_smooth"] == 1
    assert report["summary"]["all_passed"] is True


def _roundtrip_file(folder, spec_file, points, seed):
    """``run_cli`` roundtrip on a points file: exit code and report results."""
    points_file, out = folder / "points.json", folder / "report.json"
    points_file.write_text(json.dumps(points))
    code = run_cli(["roundtrip", spec_file, "--points-file", str(points_file),
                    "--seed", str(seed), "--out", str(out)])
    return code, json.loads(out.read_text())["results"]


@pytest.mark.parametrize("family", FAMILIES)
@given(seed=st.integers(0, 2**32 - 1), first=st.integers(0, 1000),
       draws=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(1e-6, 1e-3),
                                          st.floats(0.05, 0.3)),
                                st.floats(-12.0, 12.0)), min_size=1, max_size=9))
@settings(max_examples=5, deadline=None)
def test_roundtrip_file_equals_one_point_files(family, seed, first, draws):
    # the m points of one file go through the roundtrip in one stacked call;
    # their results are those of m one-point files at seeds first + i
    rng = np.random.default_rng(seed)
    spec, points = None, []
    for offset, decade in draws:
        drawn, x = tie_point(family, rng, offset)
        spec = spec or drawn  # every point with the first point's norm
        points.append((10.0 ** decade * x).tolist())
    with tempfile.TemporaryDirectory() as folder, \
            contextlib.redirect_stdout(io.StringIO()):
        folder = Path(folder)
        spec_file = folder / "spec.json"
        spec_file.write_text(json.dumps(spec.to_dict()))
        code, results = _roundtrip_file(folder, str(spec_file), points, first)
        alone = [_roundtrip_file(folder, str(spec_file), [x], first + i)
                 for i, x in enumerate(points)]
    assert code == max(c for c, _ in alone)
    assert [json.dumps(r, sort_keys=True) for r in results] == \
        [json.dumps(r, sort_keys=True) for _, (r,) in alone]


def test_roundtrip_stops_at_the_first_failing_point(lp4_spec, tmp_path, capsys):
    points = tmp_path / "points.json"
    points.write_text(json.dumps([[0.3, -0.5, 0.8], [0.0, 0.0, 0.0], [0.1, 0.2, 0.3]]))
    assert run_cli(["roundtrip", lp4_spec, "--points-file", str(points)]) == 2
    out = capsys.readouterr()
    assert out.err == "error: base point must be nonzero\n" and out.out == ""
    # point 0's classifier refuses the seed before point 1's norm is checked
    assert run_cli(["roundtrip", lp4_spec, "--points-file", str(points), "--seed", "-1"]) == 2
    out = capsys.readouterr()
    assert out.err == "error: seed must be a non-negative integer, got -1\n" and out.out == ""


def test_roundtrip_forced_violation_exits_one(circle_spec, capsys):
    code = run_cli(["roundtrip", circle_spec, "--point", "0.6,0.8",
                    "--grad-tol", "1e-18"])
    assert code == 1


def test_sphere_sample_square_shape(square_spec, tmp_path, capsys):
    csv_path = tmp_path / "square.csv"
    code = run_cli(["sphere-sample", square_spec, "--count", "400",
                    "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "x0,x1"
    assert len(lines) == 401
    for line in lines[1:]:
        coords = [float(v) for v in line.split(",")]
        assert max(abs(c) for c in coords) == 1.0  # exactly on the square


@pytest.mark.parametrize("spec", [{"type": "linf", "dim": 2}, {"type": "lp", "p": 4.0, "dim": 3},
                                  {"type": "quadratic", "q": [[2.0, 0.3], [0.3, 1.0]]}],
                         ids=lambda s: s["type"])
def test_sphere_sample_report_matches_one_draw_per_point(spec, tmp_path):
    spec_path, out_path = tmp_path / "spec.json", tmp_path / "report.json"
    spec_path.write_text(json.dumps(spec))
    assert run_cli(["sphere-sample", str(spec_path), "--count", "50", "--seed", "7",
                    "--out", str(out_path)]) == 0
    text = out_path.read_text()
    expected = json.loads(text)
    expected["results"][0]["result"]["samples"] = sphere_sample_reference(
        spec_from_dict(spec), 50, 7)
    assert text == cli._dump_json(expected)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_sphere_sample_needs_a_positive_count(square_spec, capsys, count):
    assert run_cli(["sphere-sample", square_spec, "--count", count]) == 2
    assert "count must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_chart_needs_a_positive_sample_count(circle_spec, capsys, samples):
    assert run_cli(["chart", circle_spec, "--point", "0.6,0.8", "--samples", samples]) == 2
    assert "samples must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["chart", "roundtrip", "grad"])
def test_commands_pass_at_extreme_scales(tmp_path, capsys, command):
    # |x|_2 squared over- or underflows at these scales; every check must
    # still pass, as it does at unit size
    for name, spec in smooth_specs():
        spec_file = tmp_path / f"{name}.json"
        spec_file.write_text(json.dumps(spec.to_dict()))
        x = generic_point(np.random.default_rng(5), spec.dim)
        points_file = tmp_path / f"{name}-points.json"
        points_file.write_text(json.dumps([(t * x).tolist() for t in EXTREME_SCALES]))
        code = run_cli([command, str(spec_file), "--points-file", str(points_file)])
        captured = capsys.readouterr()
        assert code == 0, (name, captured.out, captured.err)
        assert "nan" not in captured.out


def test_sphere_sample_circle_shape(circle_spec, tmp_path):
    csv_path = tmp_path / "circle.csv"
    code = run_cli(["sphere-sample", circle_spec, "--count", "200",
                    "--csv", str(csv_path)])
    assert code == 0
    for line in csv_path.read_text().strip().splitlines()[1:]:
        x, y = (float(v) for v in line.split(","))
        assert abs(np.hypot(x, y) - 1.0) <= 1e-12


def test_probe_csv_columns(circle_spec, tmp_path):
    csv_path = tmp_path / "probe.csv"
    code = run_cli(["probe", circle_spec, "--point", "1,0",
                    "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "delta_norm,proj_diff_norm"
    assert len(lines) == 4


def test_byte_identical_reports_and_csv(square_spec, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    ca, cb = tmp_path / "a.csv", tmp_path / "b.csv"
    for out, csv in ((a, ca), (b, cb)):
        code = run_cli(["sphere-sample", square_spec, "--count", "50",
                        "--seed", "3", "--out", str(out), "--csv", str(csv)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert ca.read_bytes() == cb.read_bytes()


def test_python_m_normgeom_runs_the_cli():
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "normgeom", "--help"],
                          capture_output=True, text=True, env=_src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "sphere-sample" in proc.stdout


def _src_env():
    return {**os.environ, "PYTHONPATH": str(Path(normgeom.__file__).parents[1])}


def test_import_leaves_the_cli_unloaded():
    # a fresh interpreter: this one has imported jsonschema already
    code = (
        "import sys\n"
        "import normgeom\n"
        "loaded = [m for m in ('normgeom.cli', 'jsonschema', 'argparse') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "run_cli = normgeom.run_cli\n"
        "from normgeom import cli\n"
        "assert run_cli is cli.run_cli\n"
        "names = {}\n"
        "exec('from normgeom import *', names)\n"
        "missing = [n for n in normgeom.__all__ if n not in names]\n"
        "assert not missing, missing\n")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True, env=_src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_verdicts_leave_numpy_random_unloaded(lp4_spec):
    # the classifier draws from random.Random, so numpy.random stays out of
    # a process that classifies, round-trips and runs the point commands;
    # one seed gives the same verdict fields in two processes
    code = (
        "import contextlib, io, json, sys\n"
        "import normgeom as ng\n"
        "spec = ng.LInfNorm(3)\n"
        "out = []\n"
        "for seed, x in enumerate([[1.0, 1.0, 0.3], [1.0, 1.0 - 1e-6, 0.2],\n"
        "                          [0.9, 0.3, -0.5]]):\n"
        "    v = ng.classify_point(spec, x, seed=seed)\n"
        "    witness = None if v.witness_direction is None else v.witness_direction.tolist()\n"
        "    out.append([v.smooth, v.violation, witness, v.right_deriv, v.left_deriv])\n"
        "    out.append(ng.equivalence_roundtrip(spec, x, seed=seed).to_dict())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [ng.run_cli([c, sys.argv[1], '--point', '0.3,-0.5,0.8', '--seed', '3'])\n"
        "             for c in ('classify', 'grad', 'chart', 'roundtrip')]\n"
        "assert 'numpy.random' not in sys.modules\n"
        "print(json.dumps([codes, out]))\n")
    outputs = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code, lp4_spec],
                              capture_output=True, text=True, timeout=60,
                              env={**_src_env(), "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    codes, verdicts = json.loads(outputs[0])
    assert codes == [0, 0, 0, 0]
    assert [v[0] for v in verdicts[::2]] == [False, False, True]


def test_a_negative_seed_exits_two(lp4_spec, capsys):
    assert run_cli(["classify", lp4_spec, "--point", "0.3,-0.5,0.8", "--seed", "-1"]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err


def test_one_parser_and_validator_serve_a_process(tmp_path, capsys):
    # the same runs in this process and each in a fresh one: exit codes,
    # output and report bytes agree
    spec = tmp_path / "lp4.json"
    spec.write_text(json.dumps({"type": "lp", "p": 4, "dim": 3}))
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "lp", "p": }')
    runs = [["classify", str(bad), "--point", "1,1,1"],
            ["roundtrip", str(spec), "--point", "0.3,-0.5,0.8", "--out"],
            ["classify", str(spec), "--point", "1,x,0"],
            ["roundtrip", str(spec), "--point", "0.3,-0.5,0.8", "--out"]]
    seen = {}
    for mode in ("here", "fresh"):
        for i, args in enumerate(runs):
            out = tmp_path / f"{mode}-{i}.json"
            args = args + [str(out)] if args[-1] == "--out" else args
            if mode == "here":
                code = run_cli(args)
                captured = capsys.readouterr()
                got = (code, captured.out, captured.err)
            else:
                proc = subprocess.run([sys.executable, "-W", "error", "-m", "normgeom", *args],
                                      capture_output=True, text=True, env=_src_env(),
                                      timeout=60)
                got = (proc.returncode, proc.stdout, proc.stderr)
            seen[mode, i] = got + (out.read_bytes() if out.exists() else None,)
    for i in range(len(runs)):
        assert seen["here", i] == seen["fresh", i], runs[i]
    assert [seen["here", i][0] for i in range(len(runs))] == [2, 0, 2, 0]
    assert seen["here", 1][3] == seen["here", 3][3]
    assert cli._parser.cache_info().currsize == 1
    assert cli._validator.cache_info().currsize == 1


def test_seed_changes_report(square_spec, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["sphere-sample", square_spec, "--count", "50", "--seed", "3",
             "--out", str(a)])
    run_cli(["sphere-sample", square_spec, "--count", "50", "--seed", "4",
             "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


# ----------------------------------------------------------- input errors

def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "linf", "dim": }')
    code = run_cli(["classify", str(bad), "--point", "1,1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err or "column" in err or "char" in err


def test_unknown_norm_type_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for data in ({"type": "lorentz", "dim": 2}, {"type": ["lp"], "dim": 3}):
        bad.write_text(json.dumps(data))
        assert run_cli(["classify", str(bad), "--point", "1,1"]) == 2, data


def test_unknown_field_exits_two(tmp_path):
    # unknown fields and known fields of the wrong JSON type alike
    bad = tmp_path / "bad.json"
    for data in ({"type": "linf", "dim": 2, "radius": 3},
                 {"type": "lp", "p": None, "dim": 3},
                 {"type": "lp", "p": {}, "dim": 3}):
        bad.write_text(json.dumps(data))
        assert run_cli(["classify", str(bad), "--point", "1,1"]) == 2, data


@pytest.mark.parametrize("entry", ["Infinity", "NaN"])
def test_non_finite_quadratic_exits_two(tmp_path, capsys, entry):
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"type": "quadratic", "q": [[{entry}, 0], [0, 1]]}}')
    assert run_cli(["classify", str(bad), "--point", "0.6,0.8"]) == 2
    assert "q must be finite" in capsys.readouterr().err


def test_exponent_written_as_text_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "lp", "p": "4", "dim": 3}))
    assert run_cli(["classify", str(bad), "--point", "0.6,0.8,0"]) == 2
    assert "p must be a number" in capsys.readouterr().err


def test_bad_point_exits_two(square_spec):
    assert run_cli(["classify", square_spec, "--point", "1,x"]) == 2


def test_missing_points_exits_two(square_spec):
    assert run_cli(["classify", square_spec]) == 2


def test_dimension_mismatch_exits_two(square_spec):
    assert run_cli(["classify", square_spec, "--point", "1,1,1"]) == 2


@pytest.fixture
def lp4_spec(tmp_path):
    path = tmp_path / "lp4.json"
    path.write_text(json.dumps({"type": "lp", "p": 4, "dim": 3}))
    return str(path)


@pytest.mark.parametrize("command,flag,key", [
    ("classify", "--classify-tol", "classify_tol"),
    ("grad", "--grad-tol", "grad_tol"),
    ("roundtrip", "--grad-tol", "grad_tol"),
    ("grad", "--sample-radius", "sample_radius"),
    ("chart", "--radius", "chart_radius"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_tolerance_that_is_not_finite_and_positive_exits_two(lp4_spec, capsys, command,
                                                              flag, key, value):
    # a NaN --classify-tol used to read NonSmooth with all_passed=True
    code = run_cli([command, lp4_spec, "--point", "0.3,-0.5,0.8", f"{flag}={value}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: {key} must be finite and positive" in captured.err


def test_chart_results_do_not_depend_on_the_seed(lp4_spec, tmp_path):
    # the image check and the normal-form samples come from the fixed design
    results = []
    for seed in ("0", "7"):
        out = tmp_path / f"chart-{seed}.json"
        assert run_cli(["chart", lp4_spec, "--point", "0.3,-0.5,0.8", "--point", "1,2,-0.5",
                        "--seed", seed, "--out", str(out)]) == 0
        results.append(json.loads(out.read_text())["results"])
    assert results[0] == results[1]


@pytest.mark.parametrize("error,code", [
    (errors.ChartDomainError("outside the domain radius"), 1),
    (errors.DecompositionError("base point lies in the estimated tangent"), 1),
    (errors.ConvergenceError("newton stalled"), 1),
    (errors.EstimationError("samples are degenerate"), 1),
    (errors.NonManifoldSuspected(1e-3, 1e-3, 1e-4), 1),
    (errors.NotDifferentiableError("corner"), 1),
    (ValueError("malformed"), 2),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_each_error_class_maps_to_its_exit_code(lp4_spec, monkeypatch, capsys, error, code):
    # every GeometryError is a check failure; only a plain ValueError is bad input
    def fail(request):
        raise error

    monkeypatch.setattr(cli, "run_request", fail)
    assert run_cli(["roundtrip", lp4_spec, "--point", "0.3,-0.5,0.8"]) == code
    assert str(error) in capsys.readouterr().err


def test_request_rejects_a_tolerance_that_is_not_finite_and_positive():
    with pytest.raises(ValueError, match="classify_tol must be finite and positive"):
        AnalysisRequest(norm=QuadraticNorm(np.eye(2)), points=[[1.0, 0.0]],
                        commands=("classify",), tolerances={"classify_tol": float("nan")})



def test_a_points_file_that_is_not_an_array_exits_two(lp4_spec, tmp_path, capsys):
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"point": [0.3, -0.5, 0.8]}))
    assert run_cli(["classify", lp4_spec, "--points-file", str(points)]) == 2
    out = capsys.readouterr()
    assert out.err == "error: points file must hold a JSON array of points\n" and out.out == ""


@pytest.fixture
def l1_spec(tmp_path):
    path = tmp_path / "l1.json"
    path.write_text(json.dumps({"type": "l1", "dim": 3}))
    return str(path)


@pytest.mark.parametrize("command", ["classify", "grad", "chart", "probe"])
def test_a_norm_past_the_float_range_exits_two(l1_spec, capsys, command):
    # |x|_1 of 1e308 * (0.8, -0.8, 0.3) overflows; numpy warnings are errors here
    point = ",".join(repr(v) for v in (1e308 * np.array([0.8, -0.8, 0.3])).tolist())
    assert run_cli([command, l1_spec, f"--point={point}"]) == 2
    out = capsys.readouterr()
    assert out.err == "error: the norm of the base point overflows the float range\n"
    assert out.out == ""


def _one_result(command, spec_file, point, out, *options):
    arg = "--point=" + ",".join(repr(v) for v in np.asarray(point).tolist())
    assert run_cli([command, spec_file, arg, "--out", str(out), *options]) == 0
    return json.loads(out.read_text())["results"][0]["result"]


#: Scales of (3, -5, 8), all exact; at 1e-320 and 1e-322 the closed form
#: once missed by 5.0e-5 and 7.9e-3.
CLI_SCALES = [1e-322, 1e-320, 1e-317, 1.0, 1e300]


@pytest.mark.parametrize("t", CLI_SCALES)
def test_grad_and_chart_pass_at_every_scale(lp4_spec, tmp_path, t):
    # both run at the point brought to unit size by a power of two; at
    # 1e-317 grad once read an fd gap of 2.2e-3 and chart a Newton stall
    x = np.array([3.0, -5.0, 8.0])
    y = t * x
    assert _one_result("grad", lp4_spec, x, tmp_path / "grad1.json")["smooth"]
    grad = _one_result("grad", lp4_spec, y, tmp_path / "grad.json")
    assert grad["smooth"] and grad["max_discrepancy"] <= 1e-5
    chart = _one_result("chart", lp4_spec, y, tmp_path / "chart.json")
    assert chart["passed"]
    e = int(np.frexp(np.abs(y).max())[1])
    unit_radius = 0.25 * LpNorm(4.0, 3).value(to_unit_size(y))
    assert chart["domain_radius"] == math.ldexp(unit_radius, e)


@pytest.mark.parametrize("t", CLI_SCALES)
def test_classify_passes_at_every_scale(lp4_spec, tmp_path, t):
    # the smooth verdict's closed form is taken at unit size
    x = np.array([3.0, -5.0, 8.0])
    want = _one_result("classify", lp4_spec, x, tmp_path / "unit.json")
    got = _one_result("classify", lp4_spec, t * x, tmp_path / "scaled.json")
    assert got["smooth"] and want["smooth"]
    np.testing.assert_allclose(got["gradient"], want["gradient"], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("k", [-900, -1, 0, 5, 900])
def test_grad_and_chart_reports_keep_their_bits_under_powers_of_two(lp4_spec, tmp_path, k):
    # every result but the chart's radius has degree 0; the radius, given
    # or not, is stated in the caller's units
    x = np.array([0.3, -0.5, 0.8])
    for command, flag, length in (("grad", None, None), ("chart", None, None),
                                  ("chart", "--radius", 0.01), ("grad", "--sample-radius", 1e-4)):
        unit = [] if flag is None else [f"{flag}={length!r}"]
        scaled = [] if flag is None else [f"{flag}={math.ldexp(length, k)!r}"]
        want = _one_result(command, lp4_spec, x, tmp_path / "unit.json", *unit)
        got = _one_result(command, lp4_spec, np.ldexp(x, k), tmp_path / "scaled.json", *scaled)
        if command == "chart":
            assert got.pop("domain_radius") == math.ldexp(want.pop("domain_radius"), k)
        assert got == want, (command, flag)


def test_the_roundtrip_command_runs_where_the_norm_overflows(l1_spec, capsys):
    point = ",".join(repr(v) for v in (1e308 * np.array([0.8, -0.8, 0.3])).tolist())
    assert run_cli(["roundtrip", l1_spec, f"--point={point}"]) == 0
    assert "verdict consistent" in capsys.readouterr().out


def test_the_chart_command_raises_an_inverse_error_that_is_not_a_domain_error(
        lp4_spec, monkeypatch, capsys):
    # no shipped chart stalls on its own samples, so the first row's stall is forced
    inverse = cli.chart_inverse_rows

    def stalls(chart, C):
        E, errs = inverse(chart, C)
        return E, [errors.ConvergenceError("newton stalled (forced)")] + errs[1:]

    monkeypatch.setattr(cli, "chart_inverse_rows", stalls)
    assert run_cli(["chart", lp4_spec, "--point", "0.3,-0.5,0.8"]) == 1
    out = capsys.readouterr()
    assert out.err == "check failure: newton stalled (forced)\n" and out.out == ""


#: One option per override: command, flag, ``_DEFAULTS`` key and a value.
OPTIONS = [
    ("grad", "--sample-radius", "sample_radius", 1e-4),
    ("roundtrip", "--grad-tol", "grad_tol", 1e-3),
    ("classify", "--classify-tol", "classify_tol", 1e-5),
    ("chart", "--radius", "chart_radius", 0.1),
    ("chart", "--samples", "chart_samples", 16),
    ("probe", "--decades", "decades", 2),
    ("sphere-sample", "--count", "count", 5),
]


@pytest.mark.parametrize("command,flag,key,value", OPTIONS)
def test_each_option_sets_the_override_of_its_name(lp4_spec, command, flag, key, value):
    points = [] if command == "sphere-sample" else ["--point", "0.3,-0.5,0.8"]
    args = cli._parser().parse_args([command, lp4_spec, f"{flag}={value}", *points])
    assert dict(cli._request_from_args(args).tolerances) == {key: value}
    assert sorted(key for _, _, key, _ in OPTIONS) == sorted(cli._DEFAULTS)


# ----------------------------------------------------------- library surface

def test_run_request_is_deterministic():
    spec = spec_from_dict({"type": "linf", "dim": 2})
    request = AnalysisRequest(norm=spec, points=[[1.0, 0.5], [1.0, 1.0]],
                              commands=("classify", "grad"), seed=7)
    first, _ = run_request(request)
    second, _ = run_request(request)
    assert first.to_json() == second.to_json()


def test_report_validates_against_schema_and_pairs_unique():
    spec = QuadraticNorm(np.eye(2))
    request = AnalysisRequest(norm=spec, points=[[0.6, 0.8], [1.0, 0.0]],
                              commands=("classify", "probe"), seed=0)
    report, _ = run_request(request)
    payload = report.to_dict()
    validate_report(payload)
    pairs = [(tuple(r["point"]), r["command"]) for r in payload["results"]]
    assert len(pairs) == len(set(pairs)) == 4


def test_shipped_schema_is_valid_2020_12():
    jsonschema.Draft202012Validator.check_schema(cli._load_schema())


@pytest.mark.parametrize("breakage", ["missing summary", "seed as text"])
def test_validate_report_raises_what_jsonschema_validate_raises(breakage):
    request = AnalysisRequest(norm=QuadraticNorm(np.eye(2)), points=[[0.6, 0.8]],
                              commands=("classify",))
    payload = run_request(request)[0].to_dict()
    if breakage == "missing summary":
        del payload["summary"]
    else:
        payload["seed"] = "0"
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(payload, cli._load_schema())
    with pytest.raises(jsonschema.ValidationError) as got:
        validate_report(payload)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)
    assert got.value.message == expected.value.message


def test_out_file_holds_the_report_json(circle_spec, tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(["classify", circle_spec, "--point", "0.6,0.8", "--out", str(out)]) == 0
    request = AnalysisRequest(norm=QuadraticNorm(np.eye(2)), points=[[0.6, 0.8]],
                              commands=("classify",))
    assert out.read_text(encoding="utf-8") == run_request(request)[0].to_json()


def test_request_and_report_are_frozen():
    request = AnalysisRequest(norm=QuadraticNorm(np.eye(2)), points=[[0.6, 0.8]],
                              commands=["classify"])
    report, _ = run_request(request)
    assert isinstance(request.points, tuple) and isinstance(request.commands, tuple)
    assert isinstance(report.commands, tuple)
    for obj, name in [(request, "seed"), (request, "points"), (report, "seed"),
                      (report, "commands")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
    with pytest.raises(AttributeError):
        request.points.append(np.zeros(2))
    assert report.to_dict()["commands"] == ["classify"]


def test_request_rejects_unknown_command():
    spec = QuadraticNorm(np.eye(2))
    with pytest.raises(ValueError):
        AnalysisRequest(norm=spec, points=[[1.0, 0.0]], commands=("fly",))


def test_request_holds_a_read_only_copy_of_its_tolerances():
    # changing the caller's dict afterwards changes neither the request nor
    # its report; the request's own mapping refuses writes
    tolerances = {"classify_tol": 1e-6}
    request = AnalysisRequest(norm=spec_from_dict({"type": "linf", "dim": 2}),
                              points=[[1.0, 0.5], [1.0, 1.0 - 1e-7]],
                              commands=("classify",), tolerances=tolerances)
    before = run_request(request)[0].to_json()
    tolerances["classify_tol"] = 10.0
    tolerances["count"] = 5
    assert run_request(dataclasses.replace(request, tolerances=tolerances))[0].to_json() \
        != before
    assert run_request(request)[0].to_json() == before
    assert dict(request.tolerances) == {"classify_tol": 1e-6}
    with pytest.raises(TypeError):
        request.tolerances["classify_tol"] = 1.0
    assert run_request(request)[0].to_json() == before


def test_request_rejects_unknown_tolerance():
    spec = QuadraticNorm(np.eye(2))
    with pytest.raises(ValueError):
        AnalysisRequest(norm=spec, points=[[1.0, 0.0]], commands=("classify",),
                        tolerances={"fuzz": 1.0})


def test_analytic_tolerance_is_a_constant():
    # no flag set it, so it is ``cli.ANALYTIC_TOL``, not a tolerance override
    with pytest.raises(ValueError, match="analytic_tol"):
        AnalysisRequest(norm=QuadraticNorm(np.eye(2)), points=[[1.0, 0.0]],
                        commands=("grad",), tolerances={"analytic_tol": 1e-3})


def test_emit_plot_data_requires_plottable_results():
    with pytest.raises(ValueError):
        emit_plot_data({"results": [{"command": "classify", "result": {}}]},
                       "/tmp/nothing.csv")
