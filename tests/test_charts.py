import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normgeom import (Chart, ChartDomainError, ConvergenceError, DecompositionError,
                      GradientFunctional, L1Norm, LInfNorm, LpNorm, NotDifferentiableError,
                      PolyhedralNorm, ProductMaxNorm, QuadraticNorm, TangentFrame,
                      alpha_operator, analytic_gradient, build_chart, chart_forward,
                      chart_inverse, eval_norm, fd_gradient, projection_continuity_probe,
                      scale_chart, sphere_chart_image_check, tangent_frame)
from normgeom import charts
from normgeom._linalg import oblique_projection, orthonormal_complement, sample_design
from normgeom.charts import chart_forward_rows, chart_inverse_rows
from helpers import (FAMILIES, chart_forward_rows_reference, chart_inverse_rows_reference,
                     fd_jacobian, generic_point, image_check_reference, smooth_specs,
                     tie_point)

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


@pytest.mark.parametrize("name,spec", smooth_specs())
def test_tangent_frame_requires_orthonormal_rows(name, spec):
    # full-rank bases of the tangent hyperplane that are not orthonormal:
    # every row is still annihilated by the gradient
    point = generic_point(np.random.default_rng(29), spec.dim)
    frame = tangent_frame(spec, point)
    bases = [2.0 * frame.basis]
    if spec.dim > 2:
        sheared = frame.basis.copy()
        sheared[1] += sheared[0]
        bases.append(sheared)
    for basis in bases:
        assert np.linalg.matrix_rank(basis) == spec.dim - 1
        with pytest.raises(ValueError, match="orthonormal"):
            TangentFrame(point, basis, frame.gradient)


# -------------------------------------------------------------- projections

def test_projection_axis_closed_form():
    onto_ray = tangent_frame(EUCLID2, [1.0, 0.0]).onto_ray
    assert onto_ray == pytest.approx(np.array([[1.0, 0.0], [0.0, 0.0]]), abs=1e-12)
    h = np.array([0.3, -2.0])
    assert onto_ray @ h == pytest.approx([0.3, 0.0], abs=1e-12)


@pytest.mark.parametrize("name,spec", smooth_specs())
def test_projection_pair_algebra(name, spec):
    # the frame's ray projection and its complement, the tangent projection
    rng = np.random.default_rng(31)
    frame = tangent_frame(spec, generic_point(rng, spec.dim))
    onto_ray = frame.onto_ray
    n = spec.dim
    onto_tangent = np.eye(n) - onto_ray

    assert onto_ray @ onto_ray == pytest.approx(onto_ray, abs=1e-12)
    assert onto_tangent @ onto_tangent == pytest.approx(onto_tangent, abs=1e-12)
    assert onto_ray @ onto_tangent == pytest.approx(np.zeros((n, n)), abs=1e-12)

    e0 = frame.base_point
    assert onto_ray @ e0 == pytest.approx(e0, abs=1e-12 * np.linalg.norm(e0))
    assert onto_tangent @ e0 == pytest.approx(np.zeros(n), abs=1e-12 * np.linalg.norm(e0))
    for row in frame.basis:
        assert onto_ray @ row == pytest.approx(np.zeros(n), abs=1e-9)
    # ranges: ray images are multiples of e0, tangent images killed by g
    h = rng.standard_normal(n)
    assert _parallel(onto_ray @ h, e0, tol=1e-9)
    assert abs(frame.gradient.apply(onto_tangent @ h)) <= 1e-9 * np.linalg.norm(h)


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
    for _ in range(5):
        h = rng.standard_normal(spec.dim)
        assert chart.t_plus(g.apply(h)) == pytest.approx(chart.frame.onto_ray @ h, abs=1e-12)


@pytest.mark.parametrize("name,spec", smooth_specs())
@given(seed=st.integers(0, 2**32 - 1), decade=st.floats(-8.0, 8.0))
@settings(max_examples=15, deadline=None)
def test_rank_one_forward_map_matches_the_projection_matrix(name, spec, seed, decade):
    # phi(E) = E - (g(E)/g(e0) - (|E| - r)/r) e0 against P_T E + ((|E| - r)/r) e0
    # with the matrix P_T = I - e0 g^T / g(e0)
    rng = np.random.default_rng(seed)
    x = 10.0 ** decade * generic_point(rng, spec.dim)
    chart = build_chart(spec, x)
    D = rng.standard_normal((16, spec.dim))
    E = x + D * (chart.domain_radius * rng.uniform(0.0, 1.0, 16) / spec.values(D))[:, None]
    got = chart_forward_rows(chart, E)
    want = chart_forward_rows_reference(chart, E)
    assert np.abs(got - want).max() <= 1e-14 * np.linalg.norm(x)


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


def _same_rows_as_the_reference(chart, C):
    """``chart_inverse_rows`` against the vector-residual reference, row by row."""
    E, errors = chart_inverse_rows(chart, C)
    # the reference may step an iterate onto the origin, where its slope is 0/0
    with np.errstate(divide="ignore", invalid="ignore"):
        ref, ref_errors = chart_inverse_rows_reference(chart, C)
    assert [type(err) for err in errors] == [type(err) for err in ref_errors]
    ok = np.array([err is None for err in errors])
    scale = float(np.linalg.norm(chart.frame.base_point))
    assert np.all(np.abs(E[ok] - ref[ok]) <= 1e-12 * scale)
    return errors


@pytest.mark.parametrize("name,spec", smooth_specs())
@given(seed=st.integers(0, 2**32 - 1), decade=st.floats(-8.0, 8.0))
@settings(max_examples=15, deadline=None)
def test_scalar_newton_matches_the_vector_residual(name, spec, seed, decade):
    # tangent parts up to 3 |e0| with ray parts lambda: the rows with
    # lambda <= -1 ask for |E| <= 0 and have no preimage, so they stall;
    # three rows at 0.2 |e0| invert (see ``build_chart``), and two more
    # lie beyond the domain radius 10 |e0|
    rng = np.random.default_rng(seed)
    x = 10.0 ** decade * generic_point(rng, spec.dim)
    r = eval_norm(spec, x)
    chart = build_chart(spec, x, domain_radius=10.0 * r)
    lam = np.array([0.0, 0.1, -0.5, -1.0, -2.0] * 3)
    T = rng.standard_normal((lam.size, spec.dim - 1)) @ chart.frame.basis
    unit = T / spec.values(T)[:, None]
    T = r * rng.uniform(0.01, 3.0, lam.size)[:, None] * unit
    C = np.vstack([T + lam[:, None] * x, 0.2 * r * unit[:3], 11.0 * x, 11.0 * r * unit[0]])
    errors = _same_rows_as_the_reference(chart, C)
    assert all(err is None for err in errors[lam.size:lam.size + 3])
    assert isinstance(errors[-1], ChartDomainError) and isinstance(errors[-2], ChartDomainError)
    assert all(isinstance(errors[i], ConvergenceError) for i in np.flatnonzero(lam <= -1.0))


@pytest.mark.parametrize("name,spec", [(name, spec) for name, spec in smooth_specs()
                                       if not name.startswith("spd")])
@given(seed=st.integers(0, 2**32 - 1), decade=st.floats(-8.0, 8.0))
@settings(max_examples=10, deadline=None)
def test_scalar_newton_fails_zero_slope_rows_as_the_vector_residual(name, spec, seed, decade):
    # at e0 on an axis the target c = -e0 + t, t off that axis, starts
    # Newton at t, where these norms' gradient annihilates e0 exactly. The
    # chart is assembled from the closed-form gradient: the classifier
    # reads an l^p axis point as a corner for p < 2 (README, known limitation)
    rng = np.random.default_rng(seed)
    axis = int(rng.integers(spec.dim))
    x = np.zeros(spec.dim)
    x[axis] = 10.0 ** decade * rng.choice([-1.0, 1.0])
    r = eval_norm(spec, x)
    g = analytic_gradient(spec, x)
    frame = TangentFrame(x, orthonormal_complement(g.coeffs), g)
    chart = Chart(spec, frame, 10.0 * r, r)
    T = rng.standard_normal((4, spec.dim))
    T[:, axis] = 0.0
    T *= (r * rng.uniform(0.1, 2.0, 4) / spec.values(T))[:, None]
    errors = _same_rows_as_the_reference(chart, T - x)
    assert all("zero slope" in str(err) for err in errors)


def test_build_chart_keeps_its_radii():
    # the radii the one-target-at-a-time Newton self-test picked; none of
    # these needed a halving. lp4d2 reads its base norm from the stacked
    # l^p formula, one ulp below the former scalar one
    rng = np.random.default_rng(61)
    radii = [0.2997467859611191, 0.5900070620931881, 0.5079782772346558,
             1.9497804212340304, 0.3866438414468666, 0.4631980157268892,
             0.13760573017389732, 0.3244904759950248]
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
    assert sphere_chart_image_check(spec, chart, samples=16).passed


@pytest.mark.parametrize("spec,point", [(LpNorm(4.0, 3), [0.3, -0.5, 0.8]),
                                        (QuadraticNorm([[2.0, 0.3], [0.3, 1.0]]), [0.6, -0.7])],
                         ids=["lp", "quadratic"])
def test_lockstep_newton_evaluates_each_iterate_once(monkeypatch, spec, point):
    chart = build_chart(spec, point)
    C = _boundary_targets(chart, np.random.default_rng(7), 6)
    calls = []
    values = type(spec)._values

    def spy(self, X):
        calls.append(np.array(X))
        return values(self, X)

    monkeypatch.setattr(type(spec), "_values", spy)
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


def _off_hyperplane(monkeypatch):
    """Shift every chart image by 1e-6 e0, a ray component of 1e-6 > 1e-9."""
    forward = charts._forward_rows

    def shifted(stack, E):
        return forward(stack, E) + 1e-6 * stack.bases[0]

    monkeypatch.setattr(charts, "_forward_rows", shifted)


def test_sphere_image_check_reports_failures_without_raising(monkeypatch):
    chart = build_chart(EUCLID2, [1.0, 0.0])
    _off_hyperplane(monkeypatch)
    report = sphere_chart_image_check(EUCLID2, chart, samples=10)
    assert not report.passed
    assert report.failures and report.failures[0]["kind"] == "ray_component"
    assert report.failures[0]["value"] == pytest.approx(1e-6, rel=1e-6)
    assert "point" in report.failures[0]


@pytest.mark.parametrize("family", FAMILIES)
@given(seed=st.integers(0, 2**32 - 1), offset=st.floats(0.05, 0.3),
       draws=st.lists(st.tuples(st.floats(-12.0, 12.0), st.floats(0.01, 8.0)),
                      min_size=1, max_size=5),
       samples=st.integers(1, 40))
@settings(max_examples=10, deadline=None)
def test_stacked_image_check_equals_the_one_chart_checks(family, seed, offset, draws, samples):
    # charts at several points and radii, up to 8 |e0|, where Newton and the
    # forward pass may fail: the stacked check reports every chart as its
    # own check does, failures and their order included
    rng = np.random.default_rng(seed)
    spec, built = None, []
    for decade, fraction in draws:
        drawn, x = tie_point(family, rng, offset)
        spec = spec or drawn  # every chart of the first point's norm
        x = 10.0 ** decade * x
        built.append(build_chart(spec, x, fraction * eval_norm(spec, x)))
    stacked = charts._image_checks(spec, built, samples)
    for chart, report in zip(built, stacked, strict=True):
        alone = sphere_chart_image_check(spec, chart, samples)
        assert (report.max_ray_component, report.max_norm_defect) == \
            (alone.max_ray_component, alone.max_norm_defect)
        assert report.failures == alone.failures


@pytest.mark.parametrize("family", FAMILIES)
@given(seed=st.integers(0, 2**32 - 1), offset=st.floats(0.05, 0.3),
       decade=st.floats(-12.0, 12.0), fraction=st.floats(0.01, 1.0),
       samples=st.integers(1, 40))
@settings(max_examples=20, deadline=None)
def test_image_check_samples_lie_inside_the_domain(family, seed, offset, decade,
                                                   fraction, samples):
    # why the image check may skip the domain checks of chart_forward_rows
    # and chart_inverse_rows: its sphere samples lie within 0.8 and its
    # tangent targets within 0.4 of the domain radius
    spec, x = tie_point(family, np.random.default_rng(seed), offset)
    x = 10.0 ** decade * x
    chart = build_chart(spec, x, fraction * eval_norm(spec, x))
    seen = {}
    forward, inverse = charts._forward_rows, charts._inverse_rows

    def spy_forward(chart, E):
        seen["forward"] = np.array(E)
        return forward(chart, E)

    def spy_inverse(chart, C, errors):
        seen["inverse"] = np.array(C)
        return inverse(chart, C, errors)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(charts, "_forward_rows", spy_forward)
        patch.setattr(charts, "_inverse_rows", spy_inverse)
        sphere_chart_image_check(spec, chart, samples)
    radius = chart.domain_radius * (1.0 + 1e-12)
    assert len(seen["forward"]) >= samples and len(seen["inverse"]) >= samples
    assert spec.values(seen["forward"] - chart.frame.base_point).max() <= 0.8 * radius
    assert spec.values(seen["inverse"]).max() <= 0.4 * radius


def test_sample_design_is_whole_sign_closed_classes(monkeypatch):
    for dim, rows in [(1, 5), (2, 12), (3, 18), (4, 7), (5, 30)]:
        D, U = sample_design(dim, rows, 0.05)
        again = sample_design(dim, rows, 0.05)
        assert np.array_equal(D, again[0]) and np.array_equal(U, again[1])
        assert not (D.flags.writeable or U.flags.writeable)  # shared by every caller
        assert D.shape == (len(U), dim) and rows <= len(U) < rows + 4
        assert np.all((0.05 <= U) & (U < 1.0))
        assert np.allclose(np.linalg.norm(D, axis=1), 1.0, rtol=0.0, atol=1e-15)
        # each size holds one whole class: ±e_i, or (±e_i ± e_j)/√2 with
        # j = i + 1, wrapping to (dim - 1, 0) when dim > 2
        classes = [[i] for i in range(dim)]
        classes += [sorted([i, (i + 1) % dim]) for i in range(dim if dim > 2 else dim - 1)]
        for size in np.unique(U):
            block = D[U == size]
            support = np.flatnonzero(np.any(block, axis=0))
            assert support.tolist() in classes
            signs = [tuple(row) for row in np.sign(block[:, support])]
            assert sorted(signs) == sorted(itertools.product((1.0, -1.0), repeat=len(support)))
        # so every coordinate sign flip maps the sized design onto itself
        design = {(*d, u) for d, u in zip(D, U)}
        for flip in itertools.product((1.0, -1.0), repeat=dim):
            assert {(*(np.array(flip) * d), u) for d, u in zip(D, U)} == design
    assert len(sample_design(3, 18, 0.5)[1]) == 18  # the tangent fit's 6n rows
    # images shifted off the hyperplane fail every forward sample of the
    # image check, so its report lists the sphere points built from the design
    spec = LpNorm(4.0, 2)
    chart = build_chart(spec, [0.6, 0.8])
    _off_hyperplane(monkeypatch)
    report = sphere_chart_image_check(spec, chart, samples=8)
    D, U = sample_design(2, 8, 0.05)
    E = chart.frame.base_point + D * (0.4 * chart.domain_radius * U / spec.values(D))[:, None]
    expected = E * (chart.base_norm / spec.values(E))[:, None]
    got = [f["point"] for f in report.failures if f["kind"] == "ray_component"]
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("family", FAMILIES)
@given(seed=st.integers(0, 2**32 - 1), offset=st.floats(0.05, 0.3),
       decade=st.floats(-12.0, 12.0), samples=st.integers(1, 40))
@settings(max_examples=20, deadline=None)
def test_image_check_matches_the_two_stack_reference(family, seed, offset, decade, samples):
    # one design-norm stack gives the same report, bit for bit, as the
    # sphere samples and the tangent targets each in a stack of their own
    spec, x = tie_point(family, np.random.default_rng(seed), offset)
    chart = build_chart(spec, 10.0 ** decade * x)
    report = sphere_chart_image_check(spec, chart, samples)
    ray, defect, failures = image_check_reference(spec, chart, samples)
    assert report.max_ray_component == ray and report.max_norm_defect == defect
    assert list(report.failures) == failures


@pytest.mark.parametrize("family", FAMILIES)
def test_image_check_evaluates_the_design_norms_in_one_stack(family):
    # the norms of the forward directions D and of the tangent targets
    # W @ basis, then the sphere samples once to scale them and once
    # forward; every later stack is a Newton iteration
    spec, x = tie_point(family, np.random.default_rng(7), 0.2)
    chart = build_chart(spec, x)
    n = spec.dim
    D, _ = sample_design(n, 32, 0.05)
    W, _ = sample_design(n - 1, 32, 0.05)
    stacks = []
    values = type(spec)._values

    def spy(self, X):
        stacks.append(np.shape(X))
        return values(self, X)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(type(spec), "_values", spy)
        assert sphere_chart_image_check(spec, chart, samples=32).passed
    assert stacks[:3] == [(len(D) + len(W), n), (len(D), n), (len(D), n)]
    assert stacks[3] == (len(W), n)
    assert all(rows <= len(W) for rows, _ in stacks[4:])


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


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), 0.0, -1.0])
def test_chart_radii_must_be_finite_and_positive(radius):
    # a NaN radius used to build a chart whose domain check never fired
    spec = LpNorm(4.0, 3)
    x = [0.3, -0.5, 0.8]
    with pytest.raises(ValueError, match="domain_radius must be finite and positive"):
        build_chart(spec, x, radius)
    chart = build_chart(spec, x)
    with pytest.raises(ValueError, match="finite and positive"):
        scale_chart(chart, radius)
    with pytest.raises(ValueError, match="base_norm must be finite and positive"):
        Chart(spec, chart.frame, chart.domain_radius, radius)


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


def test_probe_refuses_a_norm_past_the_float_range():
    # the default deltas scale with |e0|, which once overflowed to inf with
    # a RuntimeWarning and then failed the deltas' finiteness check
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="^the norm of the base point overflows the float range$"):
            projection_continuity_probe(L1Norm(3), 1e308 * np.array([0.8, -0.8, 0.3]))


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



# ------------------------------------------------------- unreached branches

def test_tangent_frame_refuses_the_origin():
    with pytest.raises(ValueError, match="^cannot classify the origin$"):
        tangent_frame(EUCLID2, [0.0, 0.0])


def test_newton_reports_an_iterate_that_leaves_the_float_range(monkeypatch):
    # slopes scaled down to 1e-320 make the first step overflow to an
    # infinite s; no shipped norm has such slopes
    spec = LpNorm(4.0, 3)
    chart = build_chart(spec, [0.3, -0.5, 0.8])
    rows = LpNorm._gradient_rows
    monkeypatch.setattr(LpNorm, "_gradient_rows",
                        lambda self, E, norms: 1e-320 * rows(self, E, norms))
    with np.errstate(over="ignore"):  # the overflowing step is the point of the test
        E, errors = chart_inverse_rows(chart, 0.05 * chart.frame.basis)
    assert [type(err) for err in errors] == [ConvergenceError] * 2
    assert all(str(err) == "iterate left the admissible region: vector entries must be finite"
               for err in errors)
    assert np.isnan(E).all()


def test_sphere_image_check_reports_a_norm_defect(monkeypatch):
    # Newton's preimages put 1e-6 off the sphere: each tangent target is a
    # norm_defect failure, and no sphere sample fails
    chart = build_chart(EUCLID2, [1.0, 0.0])
    inverse = charts._inverse_rows

    def off_sphere(stack, C, errors):
        back, norms, errors = inverse(stack, C, errors)
        return back, norms * (1.0 + 1e-6), errors

    monkeypatch.setattr(charts, "_inverse_rows", off_sphere)
    report = sphere_chart_image_check(EUCLID2, chart, samples=10)
    assert report.failures and {f["kind"] for f in report.failures} == {"norm_defect"}
    assert report.max_norm_defect == pytest.approx(1e-6, rel=1e-6)
    assert all(f["value"] > 1e-9 and len(f["point"]) == 2 for f in report.failures)


@pytest.mark.parametrize("build,error,message", [
    (lambda: TangentFrame([1.0, 0.0], [[0.0, 1.0]], GradientFunctional([1.0, 0.0, 0.0])),
     ValueError, "gradient dimension mismatch"),
    (lambda: TangentFrame([1.0, 0.0], [[1.0, 0.0]], GradientFunctional([0.0, 1.0])),
     ValueError, "base point lies in the tangent hyperplane"),
    (lambda: TangentFrame([1.0, 0.0], np.eye(2), GradientFunctional([1.0, 0.0])),
     ValueError, r"basis must have shape \(1, 2\)"),
    (lambda: orthonormal_complement(np.empty(0)), ValueError, "single nonempty row"),
    (lambda: orthonormal_complement([0.0, 0.0]), ValueError, "zero or non-finite row"),
    (lambda: oblique_projection([[1.0, 0.0]], [[1.0, 0.0, 0.0]]), ValueError,
     "different ambient dimensions"),
    (lambda: alpha_operator([[1.0, 0.0]], [[0.0, 1.0]], [[0.0, 1.0, 0.0]]), DecompositionError,
     "inconsistent shapes"),
    (lambda: projection_continuity_probe(EUCLID2, [1.0, 0.0], decades=0), ValueError,
     "decades must be >= 1"),
], ids=["gradient-dim", "base-in-hyperplane", "basis-shape", "empty-row", "zero-row",
        "ambient-dims", "alpha-shapes", "decades"])
def test_malformed_frames_and_subspaces_are_refused(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_a_frame_in_dimension_one_has_an_empty_tangent_basis():
    assert tangent_frame(LInfNorm(1), [2.0]).basis.shape == (0, 1)
