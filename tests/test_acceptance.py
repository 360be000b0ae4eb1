"""Acceptance suite: one criterion per test, one printed verdict per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import json
import time

import numpy as np
import pytest

from normgeom import (L1Norm, LInfNorm, LpNorm, PolyhedralNorm,
                      ProductMaxNorm, QuadraticNorm, alpha_operator,
                      analytic_gradient, build_chart, chart_forward,
                      chart_inverse, classify_point, equivalence_roundtrip,
                      estimate_tangent, eval_norm, fd_gradient,
                      geometric_gradient, projection_continuity_probe,
                      sphere_chart_image_check, tangent_frame)
from normgeom.cli import run_cli
from helpers import generic_point, smooth_specs, spd_matrix


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} [{name}]: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_01_plane_gradient_reproduction():
    # 100 random unit plane vectors: both derivative routes act as
    # h -> x0 h1 + y0 h2 (analytic to 1e-9, geometric to 1e-3 at radius 1e-3)
    start = time.perf_counter()
    spec = QuadraticNorm(np.eye(2))
    rng = np.random.default_rng(101)
    worst_analytic = 0.0
    worst_geometric = 0.0
    for i in range(100):
        e0 = rng.standard_normal(2)
        e0 /= np.linalg.norm(e0)
        h = rng.standard_normal(2)
        h /= np.linalg.norm(h)
        exact = e0[0] * h[0] + e0[1] * h[1]

        analytic = analytic_gradient(spec, e0).apply(h)
        worst_analytic = max(worst_analytic, abs(analytic - exact))

        geo = geometric_gradient(estimate_tangent(spec, e0, 1e-3), spec)
        worst_geometric = max(worst_geometric, abs(geo.apply(h) - exact))
    elapsed = time.perf_counter() - start
    ok = worst_analytic <= 1e-9 and worst_geometric <= 1e-3 and elapsed < 1.0
    _report(1, "plane gradient reproduction", ok,
            f"analytic {worst_analytic:.2e}, geometric {worst_geometric:.2e}, "
            f"{elapsed:.2f}s")


def test_criterion_02_quadratic_gradient_reproduction():
    # 20 random SPD quadratic norms in R^3..R^5: the derivative equals
    # Q e0 / |e0|_Q within 1e-8 of the central-difference oracle
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(20):
        dim = 3 + i % 3
        q = spd_matrix(rng, dim)
        spec = QuadraticNorm(q)
        e0 = rng.standard_normal(dim)
        closed = q @ e0 / eval_norm(spec, e0)
        assert analytic_gradient(spec, e0).coeffs == pytest.approx(closed, abs=1e-12)
        fd = fd_gradient(spec, e0).coeffs
        worst = max(worst, float(np.max(np.abs(fd - closed))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 2.0
    _report(2, "quadratic-form gradient reproduction", ok,
            f"max fd deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_gradient_norms_base_point():
    # every smooth family x 200 random points: g(e0) = |e0| to 1e-9 relative
    rng = np.random.default_rng(303)
    worst = 0.0
    for _, spec in smooth_specs():
        for _ in range(200):
            e0 = generic_point(rng, spec.dim)
            r = eval_norm(spec, e0)
            worst = max(worst, abs(analytic_gradient(spec, e0).apply(e0) - r) / r)
    ok = worst <= 1e-9
    _report(3, "derivative reproduces the norm on the base point", ok,
            f"max relative defect {worst:.2e}")


def test_criterion_04_chart_normal_form():
    # norm is affine in chart coordinates over 500+ (base, probe) pairs,
    # and the chart round trip is exact to 1e-10
    rng = np.random.default_rng(404)
    worst_form = 0.0
    worst_round = 0.0
    pairs = 0
    for _, spec in smooth_specs():
        for _ in range(8):
            e0 = generic_point(rng, spec.dim)
            e0 /= eval_norm(spec, e0)
            chart = build_chart(spec, e0)
            g = chart.frame.gradient
            for _ in range(8):
                d = rng.standard_normal(spec.dim)
                d *= 0.6 * chart.domain_radius * rng.uniform(0.1, 1.0) / eval_norm(spec, d)
                e = chart.frame.base_point + d
                image = chart_forward(chart, e)
                worst_form = max(worst_form,
                                 abs(eval_norm(spec, e) - g.apply(image) - 1.0))
                worst_round = max(worst_round,
                                  float(np.linalg.norm(chart_inverse(chart, image) - e)))
                pairs += 1
    ok = pairs >= 500 and worst_form <= 1e-9 and worst_round <= 1e-10
    _report(4, "local normal form and chart round trip", ok,
            f"{pairs} pairs, form {worst_form:.2e}, roundtrip {worst_round:.2e}")


def test_criterion_05_sphere_chart_exchange():
    # chart image of sphere samples stays in the tangent hyperplane and
    # tangent vectors come back onto the sphere, across families and dims
    rng = np.random.default_rng(505)
    worst_ray = 0.0
    worst_defect = 0.0
    all_passed = True
    for dim in range(2, 6):
        for spec in (LpNorm(1.5, dim), LpNorm(2.0, dim), LpNorm(4.0, dim),
                     QuadraticNorm(spd_matrix(rng, dim))):
            e0 = generic_point(rng, dim)
            e0 /= eval_norm(spec, e0)
            chart = build_chart(spec, e0)
            report = sphere_chart_image_check(spec, chart, samples=24)
            worst_ray = max(worst_ray, report.max_ray_component)
            worst_defect = max(worst_defect, report.max_norm_defect)
            all_passed &= report.passed
    ok = all_passed and worst_ray <= 1e-9 and worst_defect <= 1e-9
    _report(5, "sphere-chart image exchange", ok,
            f"ray {worst_ray:.2e}, defect {worst_defect:.2e}")


def test_criterion_06_parallel_tangents_under_scaling():
    # tangent bases at e0 and r e0 agree to 1e-12, gradients to 1e-9
    rng = np.random.default_rng(606)
    worst_basis = 0.0
    worst_grad = 0.0
    for _, spec in smooth_specs():
        for _ in range(3):
            e0 = generic_point(rng, spec.dim)
            frame = tangent_frame(spec, e0)
            for r in (0.5, 2.0, 10.0):
                scaled = tangent_frame(spec, r * e0)
                worst_basis = max(worst_basis,
                                  float(np.max(np.abs(scaled.basis - frame.basis))))
                worst_grad = max(worst_grad,
                                 float(np.max(np.abs(scaled.gradient.coeffs
                                                     - frame.gradient.coeffs))))
    ok = worst_basis <= 1e-12 and worst_grad <= 1e-9
    _report(6, "parallel tangents on scaled spheres", ok,
            f"basis {worst_basis:.2e}, gradient {worst_grad:.2e}")


def _oblique(onto_rows, along_rows):
    onto = np.atleast_2d(np.asarray(onto_rows, dtype=float))
    along = np.atleast_2d(np.asarray(along_rows, dtype=float))
    n = onto.shape[1]
    stacked = np.vstack([onto, along]).T
    inv = np.linalg.solve(stacked, np.eye(n))
    return onto.T @ inv[: onto.shape[0]]


def test_criterion_07_complement_graph_identities():
    # 50 random complement pairs per dimension, dims 2..8: the graph and
    # projection-difference identities hold to 1e-10
    worst = 0.0
    for dim in range(2, 9):
        rng = np.random.default_rng(700 + dim)
        for _ in range(50):
            k = int(rng.integers(1, dim))
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            n0 = q[:, : dim - k].T
            base = q[:, dim - k:].T
            r0 = base + 0.3 * rng.standard_normal((k, dim - k)) @ n0
            r1 = base + 0.3 * rng.standard_normal((k, dim - k)) @ n0

            alpha = alpha_operator(n0, r0, r1)
            p_r0 = _oblique(r0, n0)
            p_r1 = _oblique(r1, n0)
            worst = max(worst, float(np.abs(p_r1 - p_r0 - alpha.matrix @ p_r0).max()))
            for x in r0:
                y = x + alpha.apply(x)
                coeffs, *_ = np.linalg.lstsq(np.asarray(r1).T, y, rcond=None)
                worst = max(worst, float(np.linalg.norm(np.asarray(r1).T @ coeffs - y)))
    ok = worst <= 1e-10
    _report(7, "complement-graph operator identities", ok, f"max defect {worst:.2e}")


def test_criterion_08_projection_continuity():
    # smooth norms: the projection difference decays below 1e-3 by the
    # fourth decade, shrinking at least 5x per decade; across a max-norm
    # corner it stays above 0.5
    shrink_ok = True
    tail_ok = True
    for spec, point in ((QuadraticNorm(np.eye(2)), [1.0, 0.0]),
                        (LpNorm(4.0, 3), [1.0, 0.7, 0.4])):
        rows = projection_continuity_probe(spec, point, decades=4, seed=8)
        values = [row.proj_diff_norm for row in rows]
        tail_ok &= values[-1] <= 1e-3
        shrink_ok &= all(a / b >= 5.0 for a, b in zip(values, values[1:]))

    square = LInfNorm(2)
    e0 = np.array([1.0, 0.95])
    deltas = [np.array([1.0 - s, 1.0]) - e0 for s in (0.5, 0.3, 0.2, 0.1)]
    corner_rows = projection_continuity_probe(square, e0, deltas)
    corner_ok = all(row.proj_diff_norm >= 0.5 for row in corner_rows)

    ok = shrink_ok and tail_ok and corner_ok
    _report(8, "projection continuity and its corner failure", ok,
            f"shrink {shrink_ok}, tail {tail_ok}, corner jump {corner_ok}")


def _margin_ok(spec, x, margin=0.05):
    if isinstance(spec, LInfNorm):
        mags = np.sort(np.abs(x))
        return mags[-1] - mags[-2] >= margin * mags[-1]
    if isinstance(spec, L1Norm):
        return np.abs(x).min() >= margin
    if isinstance(spec, LpNorm) and spec.p < 2.0:
        return np.abs(x).min() >= margin
    if isinstance(spec, PolyhedralNorm):
        mags = np.sort(np.abs(spec.functionals @ x))
        return mags[-1] - mags[-2] >= margin * mags[-1]
    if isinstance(spec, ProductMaxNorm):
        na = spec.left.value(x[: spec.left.dim])
        nb = spec.right.value(x[spec.left.dim:])
        return abs(na - nb) >= margin * max(na, nb)
    return True


def _roundtrip_grid():
    rng = np.random.default_rng(909)
    hexagon = PolyhedralNorm([[np.cos(a), np.sin(a)]
                              for a in (0.0, np.pi / 3, 2 * np.pi / 3)])
    euclid2 = QuadraticNorm(np.eye(2))
    families = [
        euclid2,
        QuadraticNorm(np.eye(3)),
        QuadraticNorm(spd_matrix(rng, 3)),
        QuadraticNorm(spd_matrix(rng, 4)),
        LpNorm(1.5, 2),
        LpNorm(2.0, 3),
        LpNorm(4.0, 2),
        LpNorm(4.0, 4),
        LInfNorm(2),
        LInfNorm(3),
        L1Norm(2),
        L1Norm(3),
        hexagon,
        ProductMaxNorm(euclid2, QuadraticNorm(np.eye(2))),
    ]
    vertex = [np.cos(np.pi / 6), np.sin(np.pi / 6)]  # hexagon corner, two ties
    corners = [
        (LInfNorm(2), [1.0, 1.0]), (LInfNorm(2), [1.0, -1.0]),
        (LInfNorm(2), [2.0, 2.0]),
        (LInfNorm(3), [1.0, 1.0, 1.0]), (LInfNorm(3), [1.0, 1.0, 0.3]),
        (LInfNorm(3), [1.0, -1.0, -1.0]),
        (L1Norm(2), [1.0, 0.0]), (L1Norm(2), [0.0, -1.0]),
        (L1Norm(3), [1.0, 0.0, 0.0]), (L1Norm(3), [0.5, -0.5, 0.0]),
        (hexagon, vertex),
        (ProductMaxNorm(euclid2, QuadraticNorm(np.eye(2))), [0.6, 0.8, 0.0, 1.0]),
        (ProductMaxNorm(euclid2, QuadraticNorm(np.eye(2))), [1.0, 0.0, -1.0, 0.0]),
    ]
    grid = list(corners)
    for spec in families:
        for _ in range(14):
            x = rng.standard_normal(spec.dim)
            while not (np.any(x) and _margin_ok(spec, x)):
                x = rng.standard_normal(spec.dim)
            grid.append((spec, x))
    return grid


def test_criterion_09_equivalence_roundtrip_grid():
    # 200+ points across every family: no equivalence violations; corners
    # fail both routes, generic points pass both
    start = time.perf_counter()
    grid = _roundtrip_grid()
    violations = []
    smooth_count = 0
    for index, (spec, point) in enumerate(grid):
        report = equivalence_roundtrip(spec, point, seed=index)
        smooth_count += report.smooth
        if report.verdict != "consistent":
            violations.append((type(spec).__name__, np.round(point, 3).tolist()))
    elapsed = time.perf_counter() - start
    ok = len(grid) >= 200 and not violations and elapsed < 30.0
    _report(9, "two-route equivalence grid", ok,
            f"{len(grid)} points, {smooth_count} smooth, "
            f"violations {violations[:3]}, {elapsed:.1f}s")


def test_criterion_10_classifier_ground_truth():
    # exhaustive agreement with the combinatorial tie oracle
    cases = []

    def linf_tied(x):
        mags = np.abs(np.asarray(x, dtype=float))
        return int(np.sum(mags >= (1.0 - 1e-9) * mags.max())) > 1

    for point in ([1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0],
                  [2.0, 2.0], [0.3, 0.3], [1.0, 0.5], [-1.0, 0.25], [0.1, -0.9]):
        cases.append((LInfNorm(2), point, not linf_tied(point)))
    for point in ([1.0, 1.0, 1.0], [1.0, 1.0, 0.5], [1.0, -1.0, 0.0],
                  [2.0, -2.0, 2.0], [1.0, 0.5, -0.2], [0.2, 0.9, 0.5]):
        cases.append((LInfNorm(3), point, not linf_tied(point)))

    def l1_vertexish(x):
        mags = np.abs(np.asarray(x, dtype=float))
        return bool(mags.min() <= 1e-9 * mags.max())

    for point in ([1.0, 0.0], [0.0, -1.0], [2.0, 0.0], [0.4, -0.7]):
        cases.append((L1Norm(2), point, not l1_vertexish(point)))
    for point in ([1.0, 0.0, 0.0], [0.0, 0.5, -0.5], [0.3, 0.4, 0.6]):
        cases.append((L1Norm(3), point, not l1_vertexish(point)))

    rng = np.random.default_rng(1010)
    for _ in range(10):
        cases.append((QuadraticNorm(np.eye(3)), rng.standard_normal(3), True))

    disagreements = [
        (type(spec).__name__, point)
        for spec, point, expected in cases
        if classify_point(spec, point).smooth != expected
    ]
    _report(10, "classifier vs combinatorial tie oracle", not disagreements,
            f"{len(cases)} cases, disagreements {disagreements[:3]}")


def test_criterion_11_cli_determinism_and_shapes(tmp_path):
    square = tmp_path / "square.json"
    square.write_text(json.dumps({"type": "linf", "dim": 2}))
    circle = tmp_path / "circle.json"
    circle.write_text(json.dumps({"type": "quadratic", "q": [[1.0, 0.0], [0.0, 1.0]]}))

    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"report_{tag}.json"
        csv = tmp_path / f"square_{tag}.csv"
        code = run_cli(["sphere-sample", str(square), "--count", "400",
                        "--seed", "0", "--out", str(out), "--csv", str(csv)])
        assert code == 0
        outputs.append((out.read_bytes(), csv.read_bytes()))
    deterministic = outputs[0] == outputs[1]

    square_exact = all(
        max(abs(float(v)) for v in line.split(",")) == 1.0
        for line in (tmp_path / "square_a.csv").read_text().strip().splitlines()[1:])

    circle_csv = tmp_path / "circle.csv"
    run_cli(["sphere-sample", str(circle), "--count", "400", "--csv", str(circle_csv)])
    radius_exact = all(
        abs(np.hypot(*(float(v) for v in line.split(","))) - 1.0) <= 1e-12
        for line in circle_csv.read_text().strip().splitlines()[1:])

    ok = deterministic and square_exact and radius_exact
    _report(11, "deterministic reports and sphere shapes", ok,
            f"identical bytes {deterministic}, square exact {square_exact}, "
            f"circle radius exact {radius_exact}")
