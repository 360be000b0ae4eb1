import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normgeom import (ChartDomainError, ConvergenceError, DecompositionError,
                      L1Norm, LInfNorm, LpNorm, NotDifferentiableError,
                      PolyhedralNorm, ProductMaxNorm, QuadraticNorm, TangentFrame,
                      alpha_operator, build_chart, chart_forward, chart_inverse,
                      eval_norm, fd_gradient, projection_continuity_probe,
                      projection_pair, scale_chart, sphere_chart_image_check,
                      tangent_frame)
from normgeom.charts import chart_inverse_rows
from helpers import FAMILIES, fd_jacobian, generic_point, smooth_specs, tie_point

EUCLID2 = QuadraticNorm(np.eye(2))


def _parallel(u, v, tol=1e-12):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return abs(abs(u @ v) - np.linalg.norm(u) * np.linalg.norm(v)) <= tol


# ------------------------------------------------------------------ frames

def test_circle_tangent_is_perpendicular_to_radius():
    frame = tangent_frame(EUCLID2, [0.6, 0.8])
    assert frame.basis.shape == (1, 2)
    assert _parallel(frame.basis[0], [-0.8, 0.6])
    assert abs(frame.basis[0] @ [0.6, 0.8]) <= 1e-12


def test_circle_tangent_axis_case():
    frame = tangent_frame(EUCLID2, [0.0, 1.0])
    assert _parallel(frame.basis[0], [1.0, 0.0])


def test_max_norm_facet_tangent():
    frame = tangent_frame(LInfNorm(2), [1.0, 0.5])
    assert _parallel(frame.basis[0], [0.0, 1.0], tol=1e-9)


def test_tangent_frame_rejects_corner():
    with pytest.raises(NotDifferentiableError):
        tangent_frame(LInfNorm(2), [1.0, 1.0])


@pytest.mark.parametrize("name,spec", smooth_specs())
def test_frame_gradient_annihilates_basis(name, spec):
    rng = np.random.default_rng(23)
    frame = tangent_frame(spec, generic_point(rng, spec.dim))
    for row in frame.basis:
        assert abs(frame.gradient.apply(row)) <= 1e-9


@pytest.mark.parametrize("name,spec", smooth_specs())
@given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-12, 12))
@settings(max_examples=25, deadline=None)
def test_tangent_frame_rejects_a_tilted_basis_at_every_scale(name, spec, seed, exponent):
    # the annihilation test is relative to |g| and |row|, not to |g(e0)|,
    # which grows with the scale of the point
    point = 10.0 ** exponent * generic_point(np.random.default_rng(seed), spec.dim)
    frame = tangent_frame(spec, point)
    g = frame.gradient.coeffs
    tilted = frame.basis.copy()
    tilted[0] += 1e-6 * g / np.linalg.norm(g)
    with pytest.raises(ValueError, match="not annihilated"):
        TangentFrame(point, tilted, frame.gradient)
    TangentFrame(point, frame.basis, frame.gradient)


# -------------------------------------------------------------- projections

def test_projection_axis_closed_form():
    pair = projection_pair(tangent_frame(EUCLID2, [1.0, 0.0]))
    assert pair.onto_ray == pytest.approx(np.array([[1.0, 0.0], [0.0, 0.0]]), abs=1e-12)
    h = np.array([0.3, -2.0])
    assert pair.onto_ray @ h == pytest.approx([0.3, 0.0], abs=1e-12)


@pytest.mark.parametrize("name,spec", smooth_specs())
def test_projection_pair_algebra(name, spec):
    rng = np.random.default_rng(31)
    frame = tangent_frame(spec, generic_point(rng, spec.dim))
    pair = projection_pair(frame)
    n = spec.dim
    identity = np.eye(n)

    assert pair.onto_ray + pair.onto_tangent == pytest.approx(identity, abs=1e-12)
    assert pair.onto_ray @ pair.onto_ray == pytest.approx(pair.onto_ray, abs=1e-12)
    assert pair.onto_tangent @ pair.onto_tangent == pytest.approx(pair.onto_tangent, abs=1e-12)

    e0 = frame.base_point
    assert pair.onto_ray @ e0 == pytest.approx(e0, abs=1e-12 * np.linalg.norm(e0))
    assert pair.onto_tangent @ e0 == pytest.approx(np.zeros(n), abs=1e-12 * np.linalg.norm(e0))
    for row in frame.basis:
        assert pair.onto_ray @ row == pytest.approx(np.zeros(n), abs=1e-9)
    # ranges: ray images are multiples of e0, tangent images killed by g
    h = rng.standard_normal(n)
    assert _parallel(pair.onto_ray @ h, e0, tol=1e-9)
    assert abs(frame.gradient.apply(pair.onto_tangent @ h)) <= 1e-9 * np.linalg.norm(h)


# ------------------------------------------------------------------- charts

def test_chart_maps_base_point_to_zero():
    chart = build_chart(EUCLID2, [1.0, 0.0])
    assert chart_forward(chart, [1.0, 0.0]) == pytest.approx([0.0, 0.0], abs=1e-15)


def test_chart_forward_circle_closed_form():
    chart = build_chart(EUCLID2, [1.0, 0.0])
    theta = 0.2
    image = chart_forward(chart, [np.cos(theta), np.sin(theta)])
    assert image == pytest.approx([0.0, np.sin(theta)], abs=1e-12)
    assert abs(chart.frame.gradient.apply(image)) <= 1e-12


def test_chart_forward_pure_ray_displacement():
    chart = build_chart(EUCLID2, [1.0, 0.0], domain_radius=1.5)
    assert chart_forward(chart, [2.0, 0.0]) == pytest.approx([1.0, 0.0], abs=1e-12)


def test_chart_forward_domain_enforced():
    chart = build_chart(EUCLID2, [1.0, 0.0])
    with pytest.raises(ChartDomainError):
        chart_forward(chart, [2.0, 0.0])


@pytest.mark.parametrize("name,spec", smooth_specs())
def test_right_inverse_identities(name, spec):
    # g(t_plus(r)) = r on scalars and t_plus(g(h)) = ray projection on vectors
    rng = np.random.default_rng(41)
    chart = build_chart(spec, generic_point(rng, spec.dim))
    g = chart.frame.gradient
    for r in (-1.0, 0.37, 1.0):
        assert g.apply(chart.t_plus(r)) == pytest.approx(r, abs=1e-12)
    pair = chart.projections
    for _ in range(5):
        h = rng.standard_normal(spec.dim)
        assert chart.t_plus(g.apply(h)) == pytest.approx(pair.onto_ray @ h, abs=1e-12)


@pytest.mark.parametrize("name,spec", smooth_specs())
def test_norm_is_affine_in_chart_coordinates(name, spec):
    rng = np.random.default_rng(43)
    for _ in range(5):
        e0 = generic_point(rng, spec.dim)
        chart = build_chart(spec, e0)
        r = chart.base_norm
        g = chart.frame.gradient
        for _ in range(10):
            d = rng.standard_normal(spec.dim)
            d *= 0.8 * chart.domain_radius * rng.uniform(0.1, 1.0) / eval_norm(spec, d)
            e = chart.frame.base_point + d
            assert abs(eval_norm(spec, e) - g.apply(chart_forward(chart, e)) - r) \
                <= 1e-9 * max(1.0, r)


def test_chart_inverse_of_zero_is_base_point():
    chart = build_chart(EUCLID2, [1.0, 0.0])
    assert chart_inverse(chart, [0.0, 0.0]) == pytest.approx([1.0, 0.0], abs=1e-12)


def test_chart_inverse_circle_closed_form():
    chart = build_chart(EUCLID2, [1.0, 0.0])
    # the sphere point with second coordinate 0.1 solves the chart equation
    e = chart_inverse(chart, [0.0, 0.1])
    assert e == pytest.approx([0.99498743710662, 0.1], abs=1e-10)


@pytest.mark.parametrize("name,spec", smooth_specs())
def test_chart_roundtrip(name, spec):
    rng = np.random.default_rng(47)
    e0 = generic_point(rng, spec.dim)
    chart = build_chart(spec, e0)
    scale = max(1.0, float(np.linalg.norm(e0)))
    for _ in range(10):
        d = rng.standard_normal(spec.dim)
        d *= 0.6 * chart.domain_radius * rng.uniform(0.1, 1.0) / eval_norm(spec, d)
        e = chart.frame.base_point + d
        back = chart_inverse(chart, chart_forward(chart, e))
        assert np.linalg.norm(back - e) <= 1e-10 * scale


def test_chart_inverse_domain_enforced():
    chart = build_chart(EUCLID2, [1.0, 0.0])
    with pytest.raises(ChartDomainError):
        chart_inverse(chart, [0.0, 0.5])


@pytest.mark.parametrize("name,spec", smooth_specs())
def test_lockstep_newton_rows_match_scalar_inverse(name, spec):
    rng = np.random.default_rng(73)
    chart = build_chart(spec, generic_point(rng, spec.dim))
    C = []
    for _ in range(12):
        c = rng.standard_normal(spec.dim)
        C.append(c * (0.9 * chart.domain_radius * rng.uniform(0.05, 1.0) / eval_norm(spec, c)))
    C.append(C[0] * (1.5 * chart.domain_radius / eval_norm(spec, C[0])))  # fails alone
    E, errors = chart_inverse_rows(chart, C)
    for c, e, error in zip(C[:-1], E, errors):
        assert error is None
        assert np.abs(e - chart_inverse(chart, c)).max() <= 1e-12
    assert isinstance(errors[-1], ChartDomainError)
    assert np.isnan(E[-1]).all()


def test_lockstep_newton_isolates_a_singular_row():
    # the middle target starts Newton at (0, 1), where the circle's
    # gradient annihilates the base point and the Jacobian is singular
    chart = build_chart(EUCLID2, [1.0, 0.0], domain_radius=1.5)
    C = [[0.0, 0.1], [-1.0, 1.0], [0.0, -0.2]]
    E, errors = chart_inverse_rows(chart, C)
    with pytest.raises(ConvergenceError, match="newton step failed") as scalar:
        chart_inverse(chart, C[1])
    assert str(errors[1]) == str(scalar.value)
    assert errors[0] is None and errors[2] is None
    assert E[0] == pytest.approx(chart_inverse(chart, C[0]), abs=1e-12)
    assert E[2] == pytest.approx(chart_inverse(chart, C[2]), abs=1e-12)


def test_build_chart_keeps_its_radii():
    # the radii the one-target-at-a-time Newton self-test picked; none of
    # these needed a halving
    rng = np.random.default_rng(61)
    radii = [0.2997467859611191, 0.5900070620931881, 0.5079782772346558,
             1.9497804212340304, 0.3866438414468666, 0.4631980157268892,
             0.13760573017389735, 0.3244904759950248]
    for (name, spec), radius in zip(smooth_specs(), radii):
        assert build_chart(spec, generic_point(rng, spec.dim)).domain_radius == radius, name
    near_ties = [
        (PolyhedralNorm([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), [0.5, 0.45], 0.2375),
        (L1Norm(2), [1.0, 0.01], 0.2525),
        (LpNorm(16.0, 2), [1.0, 0.99], 0.25981224874128866),
        (LInfNorm(3), [0.4798, -0.9871, -1.0], 0.25),
        (ProductMaxNorm(EUCLID2, LpNorm(4.0, 2)), [0.6, 0.7, 0.7, 0.8], 0.2304886114323222),
    ]
    for spec, point, radius in near_ties:
        assert build_chart(spec, point).domain_radius == radius, type(spec).__name__


def _boundary_targets(chart, rng, count):
    """Targets at 0.9 of the domain radius along random tangent directions."""
    C = rng.standard_normal((count, chart.frame.dim - 1)) @ chart.frame.basis
    return C * (0.9 * chart.domain_radius / chart.spec.values(C))[:, None]


@pytest.mark.parametrize("family", FAMILIES)
@given(seed=st.integers(0, 2**32 - 1), offset=st.floats(0.01, 0.3))
@settings(max_examples=30, deadline=None)
def test_default_chart_inverts_at_its_boundary(family, seed, offset):
    # the property that lets build_chart skip a runtime radius test: Newton
    # converges on every target 0.9 of the default radius away, also on a
    # chart near a tie whose targets cross it
    rng = np.random.default_rng(seed)
    spec, point = tie_point(family, rng, offset)
    chart = build_chart(spec, point)
    assert chart.domain_radius == 0.25 * chart.base_norm
    C = _boundary_targets(chart, rng, 8)
    E, errors = chart_inverse_rows(chart, C)
    assert errors == [None] * len(C)
    assert spec.values(E) == pytest.approx(chart.base_norm, rel=1e-10)


@pytest.mark.parametrize("name,spec", smooth_specs())
@given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-12, 12))
@settings(max_examples=25, deadline=None)
def test_default_chart_inverts_at_every_scale(name, spec, seed, exponent):
    # Newton's residual target and the image check are relative to |e0|,
    # so a chart at 1e-12 * x is inverted as accurately as one at x
    rng = np.random.default_rng(seed)
    chart = build_chart(spec, 10.0 ** exponent * generic_point(rng, spec.dim))
    C = _boundary_targets(chart, rng, 8)
    E, errors = chart_inverse_rows(chart, C)
    assert errors == [None] * len(C)
    assert spec.values(E) == pytest.approx(chart.base_norm, rel=1e-10, abs=0.0)
    assert sphere_chart_image_check(spec, chart, samples=16, seed=seed).passed


@pytest.mark.parametrize("spec,point", [(LpNorm(4.0, 3), [0.3, -0.5, 0.8]),
                                        (QuadraticNorm([[2.0, 0.3], [0.3, 1.0]]), [0.6, -0.7])],
                         ids=["lp", "quadratic"])
def test_lockstep_newton_evaluates_each_iterate_once(monkeypatch, spec, point):
    chart = build_chart(spec, point)
    C = _boundary_targets(chart, np.random.default_rng(7), 6)
    calls = []
    values = type(spec).values

    def spy(self, X):
        calls.append(np.array(X))
        return values(self, X)

    monkeypatch.setattr(type(spec), "values", spy)
    chart_inverse_rows(chart, C)
    assert np.array_equal(calls[0], C)  # the domain check
    assert np.array_equal(calls[1], chart.frame.base_point + C)  # the first iterate
    # one call per iteration: residual and Jacobian share it, so no row
    # evaluated by one call comes back in the next
    assert len(calls) > 3
    for before, after in zip(calls[1:], calls[2:]):
        assert not (after[:, None, :] == before[None, :, :]).all(axis=2).any()


@pytest.mark.parametrize("name,spec", smooth_specs()[:5])
def test_chart_derivative_at_base_is_identity(name, spec):
    rng = np.random.default_rng(53)
    e0 = generic_point(rng, spec.dim)
    chart = build_chart(spec, e0)
    jac = fd_jacobian(lambda e: chart_forward(chart, e), chart.frame.base_point,
                      step=1e-6)
    assert jac == pytest.approx(np.eye(spec.dim), abs=1e-6)


def test_transition_between_nearby_charts_is_c1():
    # overlapping charts on the euclidean sphere in R^3: the transition map
    # restricted to sphere images has a continuously varying jacobian
    spec = QuadraticNorm(np.eye(3))
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([1.0, 0.05, 0.0])
    b /= np.linalg.norm(b)
    chart_a = build_chart(spec, a)
    chart_b = build_chart(spec, b)

    def transition(c):
        return chart_forward(chart_b, chart_inverse(chart_a, c))

    c1 = np.zeros(3)
    c2 = 0.01 * chart_a.frame.basis[0]
    j1 = fd_jacobian(transition, c1, step=1e-6)
    j2 = fd_jacobian(transition, c2, step=1e-6)
    gap = np.linalg.norm(j2 - j1, 2)
    assert gap <= 10.0 * np.linalg.norm(c2 - c1)


# --------------------------------------------------------------- image check

def test_sphere_image_check_circle():
    chart = build_chart(EUCLID2, [1.0, 0.0])
    report = sphere_chart_image_check(EUCLID2, chart, samples=40)
    assert report.passed
    assert report.max_ray_component <= 1e-9
    assert report.max_norm_defect <= 1e-9


def test_sphere_image_check_reports_failures_without_raising():
    chart = build_chart(EUCLID2, [1.0, 0.0])
    report = sphere_chart_image_check(EUCLID2, chart, samples=10, ray_tol=1e-20)
    assert not report.passed
    assert report.failures and report.failures[0]["kind"] == "ray_component"
    assert "point" in report.failures[0]


def test_image_check_draws_its_samples_one_at_a_time():
    # a negative tolerance fails every forward sample, so the report lists
    # them all: the points a per-sample loop of scalar evaluations draws
    spec = LpNorm(4.0, 2)
    chart = build_chart(spec, [0.6, 0.8])
    report = sphere_chart_image_check(spec, chart, samples=8, seed=3, ray_tol=-1.0)
    rng = np.random.default_rng(3)
    expected = []
    for _ in range(8):
        d = rng.standard_normal(2)
        e = chart.frame.base_point + d * (0.4 * chart.domain_radius
                                          * rng.uniform(0.05, 1.0) / eval_norm(spec, d))
        expected.append(e * (chart.base_norm / eval_norm(spec, e)))
    got = [f["point"] for f in report.failures if f["kind"] == "ray_component"]
    assert np.allclose(got, expected, rtol=1e-15, atol=0.0)


def test_image_check_reports_a_failing_inverse_alone():
    # with radius 5 the targets reach norm 2; those beyond 1 have no
    # preimage on the unit circle and fail, the rest invert
    chart = build_chart(EUCLID2, [1.0, 0.0], domain_radius=5.0)
    report = sphere_chart_image_check(EUCLID2, chart, samples=12)
    assert 0 < len(report.failures) < 12
    for failure in report.failures:
        assert failure["kind"] == "inverse_convergence"
        with pytest.raises(ConvergenceError) as scalar:
            chart_inverse(chart, failure["point"])
        assert failure["value"] == str(scalar.value)
    assert report.max_norm_defect <= 1e-9


# --------------------------------------------------------------- scaling

def test_scale_chart_identity():
    chart = build_chart(EUCLID2, [1.0, 0.0])
    same = scale_chart(chart, 1.0)
    assert np.array_equal(same.frame.base_point, chart.frame.base_point)
    assert np.array_equal(same.frame.basis, chart.frame.basis)
    assert np.array_equal(same.frame.gradient.coeffs, chart.frame.gradient.coeffs)
    assert same.domain_radius == chart.domain_radius
    assert same.base_norm == chart.base_norm


def test_scaled_sphere_has_parallel_tangent():
    chart = build_chart(EUCLID2, [1.0, 0.0])
    scaled = scale_chart(chart, 2.0)
    assert np.array_equal(scaled.frame.basis, chart.frame.basis)
    assert scaled.frame.base_point == pytest.approx([2.0, 0.0], abs=0.0)
    # independently rebuilt frame at the scaled point agrees
    rebuilt = tangent_frame(EUCLID2, [2.0, 0.0])
    assert rebuilt.basis == pytest.approx(chart.frame.basis, abs=1e-12)


def test_scaled_chart_normal_form():
    rng = np.random.default_rng(59)
    chart = build_chart(EUCLID2, [1.0, 0.0])
    scaled = scale_chart(chart, 2.0)
    g = scaled.frame.gradient
    # the scaled gradient agrees with a fresh finite-difference one
    fd = fd_gradient(EUCLID2, [2.0, 0.0])
    assert g.coeffs == pytest.approx(fd.coeffs, abs=1e-6)
    for _ in range(10):
        d = rng.standard_normal(2)
        d *= 0.5 * scaled.domain_radius * rng.uniform(0.1, 1.0) / np.linalg.norm(d)
        e = scaled.frame.base_point + d
        assert abs(eval_norm(EUCLID2, e) - g.apply(chart_forward(scaled, e)) - 2.0) <= 1e-9


def test_scale_chart_rejects_nonpositive():
    chart = build_chart(EUCLID2, [1.0, 0.0])
    with pytest.raises(ValueError):
        scale_chart(chart, 0.0)
    with pytest.raises(ValueError):
        scale_chart(chart, -2.0)


# ------------------------------------------------------------ alpha operator

def _oblique(onto_rows, along_rows):
    # independent construction by a dense linear solve, used as the oracle
    onto = np.atleast_2d(np.asarray(onto_rows, dtype=float))
    along = np.atleast_2d(np.asarray(along_rows, dtype=float))
    n = onto.shape[1]
    stacked = np.vstack([onto, along]).T
    inv = np.linalg.solve(stacked, np.eye(n))
    return onto.T @ inv[: onto.shape[0]]


def test_alpha_plane_example():
    # decompose h = a (1, 0.1) + b (0, 1) by a 2x2 solve: the projection
    # difference acts as h -> (0, 0.1 h1)
    alpha = alpha_operator([[0.0, 1.0]], [[1.0, 0.0]], [[1.0, 0.1]])
    x = np.array([2.0, 0.0])
    assert alpha.apply(x) == pytest.approx([0.0, 0.2], abs=1e-12)

    p_r1 = _oblique([[1.0, 0.1]], [[0.0, 1.0]])
    p_r0 = _oblique([[1.0, 0.0]], [[0.0, 1.0]])
    rng = np.random.default_rng(2)
    for _ in range(5):
        h = rng.standard_normal(2)
        assert (p_r1 - p_r0) @ h == pytest.approx([0.0, 0.1 * h[0]], abs=1e-12)
        assert alpha.matrix @ (p_r0 @ h) == pytest.approx([0.0, 0.1 * h[0]], abs=1e-12)


def test_alpha_same_complement_is_zero():
    r0 = [[1.0, 0.0, 0.3], [0.0, 1.0, -0.2]]
    alpha = alpha_operator([[0.2, 0.1, 1.0]], r0, r0)
    assert np.abs(alpha.matrix @ np.asarray(r0).T).max() <= 1e-12


@pytest.mark.parametrize("dim", range(2, 9))
def test_alpha_identities_random_complements(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(10):
        k = int(rng.integers(1, dim))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        n0 = q[:, :dim - k].T
        r_base = q[:, dim - k:].T
        r0 = r_base + 0.25 * rng.standard_normal((k, dim - k)) @ n0
        r1 = r_base + 0.25 * rng.standard_normal((k, dim - k)) @ n0

        alpha = alpha_operator(n0, r0, r1)

        p_r0 = _oblique(r0, n0)
        p_r1 = _oblique(r1, n0)
        # projection-difference identity against the oracle projections
        assert np.abs((p_r1 - p_r0) - alpha.matrix @ p_r0).max() <= 1e-10
        # graph property: r0 vectors plus their images land in span(r1)
        for x in r0:
            y = x + alpha.apply(x)
            coeffs, *_ = np.linalg.lstsq(np.asarray(r1).T, y, rcond=None)
            assert np.linalg.norm(np.asarray(r1).T @ coeffs - y) <= 1e-10


def test_alpha_rejects_non_complement():
    # r1 inside n0: not a complement
    with pytest.raises(DecompositionError):
        alpha_operator([[0.0, 1.0]], [[1.0, 0.0]], [[0.0, 2.0]])


# ------------------------------------------------------------------- probe

CIRCLE_PROBE_EXPECTED = {  # frozen from t / sqrt(1 + t^2)
    0.1: 0.09950371902099893,
    0.01: 0.009999500037496877,
    0.001: 0.000999999500000375,
}


def test_probe_circle_closed_form():
    deltas = [[0.0, 0.1], [0.0, 0.01], [0.0, 0.001]]
    rows = projection_continuity_probe(EUCLID2, [1.0, 0.0], deltas)
    for row in rows:
        assert row.proj_diff_norm == pytest.approx(
            CIRCLE_PROBE_EXPECTED[row.delta_norm], abs=1e-9)
    ratios = [a.proj_diff_norm / b.proj_diff_norm for a, b in zip(rows, rows[1:])]
    assert all(8.0 <= r <= 12.0 for r in ratios)


def test_probe_ray_perturbation_is_invisible():
    rows = projection_continuity_probe(EUCLID2, [1.0, 0.0],
                                       [[0.1, 0.0], [0.01, 0.0]])
    assert all(row.proj_diff_norm <= 1e-10 for row in rows)


def test_probe_across_corner_does_not_converge():
    # base on one facet of the max-norm square, perturbations landing on the
    # other facet: both rays stay nearly orthogonal, so the jump persists
    spec = LInfNorm(2)
    e0 = np.array([1.0, 0.95])
    deltas = [np.array([1.0 - s, 1.0]) - e0 for s in (0.5, 0.3, 0.2, 0.1)]
    rows = projection_continuity_probe(spec, e0, deltas)
    assert all(row.proj_diff_norm >= 0.5 for row in rows)


def test_probe_propagates_corner_classification():
    with pytest.raises(NotDifferentiableError):
        projection_continuity_probe(LInfNorm(2), [1.0, 0.5], [[0.0, 0.5]])


def test_probe_requires_decreasing_deltas():
    with pytest.raises(ValueError):
        projection_continuity_probe(EUCLID2, [1.0, 0.0],
                                    [[0.0, 0.01], [0.0, 0.1]])


@pytest.mark.parametrize("name,spec", [smooth_specs()[0], smooth_specs()[4],
                                       smooth_specs()[6]])
def test_probe_smooth_last_row_small(name, spec):
    rng = np.random.default_rng(61)
    rows = projection_continuity_probe(spec, generic_point(rng, spec.dim),
                                       decades=4, seed=5)
    assert rows[-1].proj_diff_norm <= 1e-3


def test_probe_row_serialization():
    rows = projection_continuity_probe(EUCLID2, [1.0, 0.0], [[0.0, 0.1]])
    assert rows[0].to_dict() == {"delta_norm": rows[0].delta_norm,
                                 "proj_diff_norm": rows[0].proj_diff_norm}

