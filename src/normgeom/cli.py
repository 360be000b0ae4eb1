"""Command-line front end: analyze points of a norm sphere, emit reports.

Subcommands take a norm description in JSON plus points and produce a
human-readable summary on stdout, an optional machine-readable JSON
report (validated against the shipped schema), and optional plot-ready
CSV. All sampling is seeded, so identical inputs give byte-identical
reports.

Exit codes: 0 all checks passed, 1 a check failed (equivalence violation
or residual over tolerance), 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from ._linalg import sized_directions
from .charts import build_chart, chart_forward_rows, chart_inverse_rows, \
    projection_continuity_probe, sphere_chart_image_check
from .errors import ChartDomainError, GeometryError, NotDifferentiableError
from .geometric import equivalence_roundtrip, geometric_check
from .norms import (CLASSIFY_TOL, NormSpec, analytic_gradient, as_vector,
                    classify_point, eval_norm, fd_gradient, spec_from_dict)

COMMANDS = ("grad", "classify", "chart", "probe", "roundtrip", "sphere-sample")

_DEFAULTS = {
    "classify_tol": CLASSIFY_TOL,
    "grad_tol": None,        # geometric_check's default when absent
    "sample_radius": None,   # geometric_check's default when absent
    "chart_radius": None,
    "chart_samples": 64,
    "decades": 3,
    "count": 100,
    "analytic_tol": 1e-6,
}


@dataclass
class AnalysisRequest:
    """Everything one report run depends on; fixing it fixes the output bytes."""

    norm: NormSpec
    points: list
    commands: tuple
    tolerances: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        self.points = [as_vector(p, self.norm.dim) for p in self.points]
        unknown = set(self.commands) - set(COMMANDS)
        if unknown:
            raise ValueError(f"unknown commands: {sorted(unknown)}")
        bad = set(self.tolerances) - set(_DEFAULTS)
        if bad:
            raise ValueError(f"unknown tolerance overrides: {sorted(bad)}")

    def option(self, name):
        value = self.tolerances.get(name)
        return _DEFAULTS[name] if value is None else value


@dataclass
class Report:
    """Per-point results keyed by command plus a global summary."""

    tool: str
    version: str
    seed: int
    commands: list
    spec: dict
    results: list
    summary: dict

    def to_dict(self) -> dict:
        return {
            "tool": self.tool,
            "version": self.version,
            "seed": self.seed,
            "commands": list(self.commands),
            "spec": self.spec,
            "results": self.results,
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _load_schema() -> dict:
    text = resources.files("normgeom").joinpath("report_schema.json").read_text()
    return json.loads(text)


def validate_report(report: dict) -> None:
    jsonschema.validate(report, _load_schema())


def _fmt_vec(v) -> str:
    return "(" + ", ".join(f"{x:.12g}" for x in np.asarray(v).ravel()) + ")"


def _cmd_grad(request: AnalysisRequest, point, seed: int):
    spec = request.norm
    verdict = classify_point(spec, point, tol=request.option("classify_tol"),
                             seed=seed)
    geo = geometric_check(spec, point, sample_radius=request.option("sample_radius"),
                          gradient_tol=request.option("grad_tol"), seed=seed)
    lines = [f"point {_fmt_vec(point)}:"]
    if not verdict.smooth:
        lines.append(f"  NonSmooth, witness {_fmt_vec(verdict.witness_direction)}, "
                     f"slopes {verdict.right_deriv:.12g} / {verdict.left_deriv:.12g}")
        ok = geo.error is not None
        geometric = "not locally flat" if ok else "unexpectedly flat"
        lines.append(f"  geometric side: {geometric}")
        result = {"smooth": False, "geometric_side": geometric,
                  "witness_direction": verdict.witness_direction.tolist(),
                  "right_deriv": verdict.right_deriv,
                  "left_deriv": verdict.left_deriv}
        return result, ok, None, lines

    grad_fd = fd_gradient(spec, point).coeffs if geo.grad_fd is None else geo.grad_fd
    result = {"smooth": True, "grad_fd": grad_fd.tolist()}
    lines.append(f"  fd:        {_fmt_vec(grad_fd)}")
    discrepancies = []
    try:
        an = analytic_gradient(spec, point)
        result["grad_analytic"] = an.coeffs.tolist()
        gap = float(np.max(np.abs(an.coeffs - grad_fd)))
        discrepancies.append(("analytic", gap, request.option("analytic_tol")))
        lines.append(f"  analytic:  {_fmt_vec(an.coeffs)}")
    except NotDifferentiableError:
        result["grad_analytic"] = None

    if geo.error is None:
        result["grad_geometric"] = geo.grad_geom.tolist()
        discrepancies.append(("geometric", geo.discrepancy, geo.gradient_tol))
        lines.append(f"  geometric: {_fmt_vec(geo.grad_geom)}")
    else:
        result["grad_geometric"] = None
        result["geometric_error"] = str(geo.error)
        discrepancies.append(("geometric availability", np.inf, 0.0))

    ok = all(gap <= tol for _, gap, tol in discrepancies)
    worst = max((gap for _, gap, _ in discrepancies if np.isfinite(gap)), default=None)
    result["max_discrepancy"] = worst
    lines.append(f"  max discrepancy vs fd: "
                 f"{'n/a' if worst is None else format(worst, '.3e')}")
    return result, ok, worst, lines


def _cmd_classify(request: AnalysisRequest, point, seed: int):
    verdict = classify_point(request.norm, point,
                             tol=request.option("classify_tol"), seed=seed)
    if verdict.smooth:
        result = {"smooth": True, "gradient": verdict.gradient.coeffs.tolist(),
                  "violation": verdict.violation}
        lines = [f"point {_fmt_vec(point)}: Smooth, gradient "
                 f"{_fmt_vec(verdict.gradient.coeffs)}"]
    else:
        result = {"smooth": False,
                  "witness_direction": verdict.witness_direction.tolist(),
                  "right_deriv": verdict.right_deriv,
                  "left_deriv": verdict.left_deriv,
                  "violation": verdict.violation}
        lines = [f"point {_fmt_vec(point)}: NonSmooth, witness "
                 f"{_fmt_vec(verdict.witness_direction)}, slopes "
                 f"{verdict.right_deriv:.12g} / {verdict.left_deriv:.12g}"]
    return result, True, None, lines


def _cmd_chart(request: AnalysisRequest, point, seed: int):
    spec = request.norm
    chart = build_chart(spec, point, request.option("chart_radius"), seed=seed)
    image = sphere_chart_image_check(spec, chart,
                                     samples=int(request.option("chart_samples")),
                                     seed=seed)
    r = chart.base_norm
    samples = int(request.option("chart_samples"))
    D, sizes = sized_directions(np.random.default_rng(seed), samples, spec.dim, 0.05)
    E = chart.frame.base_point + D * (0.5 * chart.domain_radius * sizes / spec.values(D))[:, None]
    C = chart_forward_rows(chart, E)
    form = np.abs(spec.values(E) - C @ chart.frame.gradient.coeffs - r) / r
    max_form = float(form.max(initial=0.0))
    # an image beyond the domain radius has no checked preimage: the check fails
    back, errors = chart_inverse_rows(chart, C)
    outside = np.array([isinstance(err, ChartDomainError) for err in errors], dtype=bool)
    for err in errors:
        if err is not None and not isinstance(err, ChartDomainError):
            raise err
    roundtrip = (np.linalg.norm(back - E, axis=1) / np.linalg.norm(E, axis=1))[~outside]
    max_round = float(roundtrip.max(initial=0.0))
    left = int(outside.sum())
    ok = image.passed and max_form <= 1e-9 and max_round <= 1e-10 and left == 0
    result = {"domain_radius": chart.domain_radius,
              "max_normal_form_residual": max_form,
              "max_roundtrip_residual": max_round,
              "max_ray_component": image.max_ray_component,
              "max_norm_defect": image.max_norm_defect,
              "samples_outside_domain": left,
              "passed": ok}
    lines = [f"point {_fmt_vec(point)}: chart radius {chart.domain_radius:.6g}",
             f"  normal-form residual {max_form:.3e}, roundtrip {max_round:.3e}",
             f"  sphere image: ray {image.max_ray_component:.3e}, "
             f"defect {image.max_norm_defect:.3e} -> "
             f"{'ok' if ok else 'FAIL'}"]
    if left:
        lines.append(f"  {left} of {samples} sample images left the inverse's domain radius")
    return result, ok, None, lines


def _cmd_probe(request: AnalysisRequest, point, seed: int):
    rows = projection_continuity_probe(request.norm, point,
                                       decades=int(request.option("decades")),
                                       seed=seed)
    result = {"rows": [row.to_dict() for row in rows]}
    lines = [f"point {_fmt_vec(point)}: projection continuity probe"]
    lines.append(f"  {'delta_norm':>14}  {'proj_diff_norm':>16}")
    for row in rows:
        lines.append(f"  {row.delta_norm:14.6e}  {row.proj_diff_norm:16.6e}")
    return result, True, None, lines


def _cmd_roundtrip(request: AnalysisRequest, point, seed: int):
    report = equivalence_roundtrip(
        request.norm, point,
        sample_radius=request.tolerances.get("sample_radius"),
        gradient_tol=request.tolerances.get("grad_tol"), seed=seed)
    result = report.to_dict()
    ok = report.verdict == "consistent"
    kind = "smooth" if report.smooth else "non-smooth"
    lines = [f"point {_fmt_vec(point)}: {kind}, verdict {report.verdict}"]
    if report.max_discrepancy is not None:
        lines.append(f"  gradient discrepancy {report.max_discrepancy:.3e}")
    return result, ok, report.max_discrepancy, lines


def _cmd_sphere_sample(request: AnalysisRequest, seed: int):
    spec = request.norm
    rng = np.random.default_rng(seed)
    count = int(request.option("count"))
    points = []
    while len(points) < count:
        x = rng.standard_normal(spec.dim)
        r = eval_norm(spec, x)
        if r == 0.0:
            continue
        points.append((x / r).tolist())
    result = {"samples": points}
    lines = [f"sphere-sample: {count} points on the unit sphere"]
    return result, True, None, lines


def run_request(request: AnalysisRequest) -> tuple[Report, list[str]]:
    """Execute every (command, point) pair of a request deterministically."""
    results = []
    lines = []
    smooth = 0
    non_smooth = 0
    worst = None
    all_ok = True

    for command in request.commands:
        if command == "sphere-sample":
            result, ok, _, text = _cmd_sphere_sample(request, request.seed)
            results.append({"point": None, "command": command, "result": result})
            all_ok &= ok
            lines.extend(text)
            continue
        if not request.points:
            raise ValueError(f"command {command!r} needs at least one point")
        handler = {"grad": _cmd_grad, "classify": _cmd_classify,
                   "chart": _cmd_chart, "probe": _cmd_probe,
                   "roundtrip": _cmd_roundtrip}[command]
        for index, point in enumerate(request.points):
            result, ok, disc, text = handler(request, point, request.seed + index)
            results.append({"point": point.tolist(), "command": command,
                            "result": result})
            all_ok &= ok
            lines.extend(text)
            if "smooth" in result:
                smooth += bool(result["smooth"])
                non_smooth += not result["smooth"]
            if disc is not None and np.isfinite(disc):
                worst = disc if worst is None else max(worst, disc)

    summary = {"points": len(request.points), "smooth": smooth,
               "non_smooth": non_smooth, "max_discrepancy": worst,
               "all_passed": bool(all_ok)}
    report = Report(tool="normgeom", version=__version__, seed=request.seed,
                    commands=list(request.commands),
                    spec=request.norm.to_dict(), results=results, summary=summary)
    lines.append(f"summary: points={summary['points']} smooth={smooth} "
                 f"non_smooth={non_smooth} all_passed={summary['all_passed']}")
    return report, lines


def emit_plot_data(report: dict, path) -> None:
    """Write the plottable part of a report (samples or probe table) as CSV."""
    samples = []
    probe_rows = []
    for entry in report.get("results", []):
        if entry["command"] == "sphere-sample":
            samples.extend(entry["result"]["samples"])
        elif entry["command"] == "probe":
            probe_rows.extend(entry["result"]["rows"])
    if samples:
        header = ",".join(f"x{i}" for i in range(len(samples[0])))
        body = [",".join(repr(float(v)) for v in row) for row in samples]
    elif probe_rows:
        header = "delta_norm,proj_diff_norm"
        body = [f"{repr(float(r['delta_norm']))},{repr(float(r['proj_diff_norm']))}"
                for r in probe_rows]
    else:
        raise ValueError("report contains no sphere-sample or probe data to plot")
    Path(path).write_text(header + "\n" + "\n".join(body) + "\n", encoding="utf-8")


def _parse_point(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse point {text!r}; expected x,y,...")


def _gather_points(args) -> list:
    points = [_parse_point(p) for p in (args.point or [])]
    if getattr(args, "points_file", None):
        loaded = json.loads(Path(args.points_file).read_text(encoding="utf-8"))
        if not isinstance(loaded, list):
            raise ValueError("points file must hold a JSON array of points")
        points.extend(loaded)
    return points


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normgeom",
        description="Analyze smoothness and sphere geometry of a norm on R^n.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_points=True):
        p.add_argument("spec", help="path to the norm description JSON")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--csv", help="write plot-ready CSV here")
        if needs_points:
            p.add_argument("--point", action="append",
                           help="comma-separated coordinates; repeatable")
            p.add_argument("--points-file",
                           help="JSON array of points to analyze")

    p = sub.add_parser("grad", help="finite-difference, closed-form, and "
                                    "geometric gradients at each point")
    common(p)
    p.add_argument("--sample-radius", type=float)
    p.add_argument("--grad-tol", type=float)

    p = sub.add_parser("classify", help="smooth vs non-smooth verdict per point")
    common(p)
    p.add_argument("--classify-tol", type=float)

    p = sub.add_parser("chart", help="build the local chart and check residuals")
    common(p)
    p.add_argument("--radius", type=float, help="override the chart domain radius")
    p.add_argument("--samples", type=int, default=None)

    p = sub.add_parser("probe", help="projection-continuity convergence table")
    common(p)
    p.add_argument("--decades", type=int)

    p = sub.add_parser("roundtrip", help="cross-check analytic vs geometric routes")
    common(p)
    p.add_argument("--sample-radius", type=float)
    p.add_argument("--grad-tol", type=float)

    p = sub.add_parser("sphere-sample", help="sample points of the unit sphere")
    common(p, needs_points=False)
    p.add_argument("--count", type=int)

    return parser


def _request_from_args(args) -> AnalysisRequest:
    spec = spec_from_dict(json.loads(Path(args.spec).read_text(encoding="utf-8")))
    tolerances = {}
    for flag, key in (("sample_radius", "sample_radius"), ("grad_tol", "grad_tol"),
                      ("classify_tol", "classify_tol"), ("radius", "chart_radius"),
                      ("samples", "chart_samples"), ("decades", "decades"),
                      ("count", "count")):
        value = getattr(args, flag, None)
        if value is not None:
            tolerances[key] = value
    points = [] if args.command == "sphere-sample" else _gather_points(args)
    return AnalysisRequest(norm=spec, points=points, commands=(args.command,),
                           tolerances=tolerances, seed=args.seed)


def _attach_point_values(argv: list[str]) -> list[str]:
    """Join ``--point x,y`` into ``--point=x,y``.

    argparse reads a separate value that starts with '-' (``-1,0.5``) as an
    option, so a leading minus works only in the joined form.
    """
    out = []
    args = iter(argv)
    for arg in args:
        if arg == "--point":
            value = next(args, None)
            out.append(arg if value is None else f"{arg}={value}")
        else:
            out.append(arg)
    return out


def run_cli(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(_attach_point_values(sys.argv[1:] if argv is None else argv))
    try:
        request = _request_from_args(args)
        report, lines = run_request(request)
        payload = report.to_dict()
        validate_report(payload)
        print(f"normgeom {__version__}  commands={'+'.join(request.commands)}  "
              f"seed={request.seed}")
        for line in lines:
            print(line)
        if args.out:
            Path(args.out).write_text(report.to_json(), encoding="utf-8")
        if args.csv:
            emit_plot_data(payload, args.csv)
        return 0 if payload["summary"]["all_passed"] else 1
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, jsonschema.ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(run_cli())
