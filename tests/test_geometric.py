import dataclasses
import itertools
import json
import math
import re
import types
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from normgeom import (DecompositionError, EstimatedTangent, EstimationError, GeometryError,
                      L1Norm, LInfNorm, LpNorm, NonManifoldSuspected, QuadraticNorm,
                      analytic_gradient, classify_point,
                      directional_expansion_check, equivalence_roundtrip,
                      estimate_tangent, eval_norm, fd_gradient,
                      geometric_gradient, one_sided_derivative, sphere_chart_image_check,
                      tangent_frame)
from normgeom import charts, geometric
from helpers import (EXTREME_SCALES, FAMILIES, all_normal, central_diff_gradient,
                     expansion_reference, generic_point, geometric_gradient_coeffs_reference,
                     smooth_specs, spd_matrix, tie_point, to_unit_size)

EUCLID2 = QuadraticNorm(np.eye(2))


# --------------------------------------------------------------- estimation

def test_estimate_circle_tangent_is_vertical():
    tangent = estimate_tangent(EUCLID2, [1.0, 0.0], 1e-3)
    # exact tangent is the vertical line; the circle deviates quadratically
    assert abs(tangent.basis[0] @ [1.0, 0.0]) <= 1e-3
    assert tangent.residual <= 0.1 * tangent.sample_radius


def test_estimate_lp4_matches_analytic_tangent():
    spec = LpNorm(4.0, 2)
    e0 = np.array([1.0, 1.0]) / 2.0 ** 0.25
    tangent = estimate_tangent(spec, e0, 1e-3)
    normal = analytic_gradient(spec, e0).coeffs
    normal = normal / np.linalg.norm(normal)
    # basis vector should be orthogonal to the analytic normal
    assert abs(tangent.basis[0] @ normal) <= 1e-2


def test_estimate_flags_corner():
    with pytest.raises(NonManifoldSuspected) as err:
        estimate_tangent(LInfNorm(2), [1.0, 1.0], 1e-3)
    assert err.value.residual > 0.1 * err.value.sample_radius


def test_non_manifold_threshold_is_the_fits_own(monkeypatch):
    # the error reports the threshold the fit compared against, not a copy of it
    monkeypatch.setattr(geometric, "NON_MANIFOLD_RESIDUAL_FRACTION", 0.2)
    with pytest.raises(NonManifoldSuspected) as err:
        estimate_tangent(LInfNorm(2), [1.0, 1.0], 1e-3)
    assert err.value.threshold == 0.2 * 1e-3 < err.value.residual
    assert f"exceeds {0.2 * 1e-3:.3e} at sample radius" in str(err.value)


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate_tangent(EUCLID2, [1.0, 0.0], 0.5)  # radius > 5% of the norm
    with pytest.raises(ValueError):
        estimate_tangent(QuadraticNorm([[1.0]]), [1.0], 1e-3)


@pytest.mark.parametrize("field,value", [("sample_radius", np.nan), ("sample_radius", np.inf),
                                         ("sample_radius", 0.0), ("residual", np.nan),
                                         ("residual", np.inf), ("residual", -1e-6)])
def test_estimated_tangent_requires_a_finite_radius_and_residual(field, value):
    # a NaN passes every "exceeds the threshold" comparison, so it must be refused
    fields = {"sample_radius": 1e-3, "residual": 5e-5, field: value}
    with pytest.raises(ValueError, match=field):
        EstimatedTangent(np.array([1.0, 0.0]), np.array([[0.0, 1.0]]), **fields)


def _tangent_outcome(spec, x):
    """Whether ``estimate_tangent`` finds ``x`` flat, and the fit's residual."""
    try:
        return True, estimate_tangent(spec, x, 1e-3 * eval_norm(spec, x)).residual
    except NonManifoldSuspected as exc:
        return False, exc.residual


@pytest.mark.parametrize("family", ["lp", "l1", "linf"])
@given(seed=st.integers(0, 2**32 - 1),
       offset=st.sampled_from([0.0, 1e-6, 1e-3]) | st.floats(0.01, 0.3))
@settings(max_examples=20, deadline=None)
def test_tangent_fit_is_invariant_under_sign_flips(family, seed, offset):
    # the fixed design is closed under coordinate sign flips, and so are these norms
    spec, x = tie_point(family, np.random.default_rng(seed), offset)
    flat, residual = _tangent_outcome(spec, x)
    for flip in itertools.product((1.0, -1.0), repeat=spec.dim):
        flipped_flat, flipped_residual = _tangent_outcome(spec, np.array(flip) * x)
        assert flipped_flat == flat
        assert abs(flipped_residual - residual) <= 1e-10 * 1e-3 * eval_norm(spec, x)


def test_estimated_tangent_enforces_flatness_invariant():
    with pytest.raises(ValueError):
        EstimatedTangent(np.array([1.0, 0.0]), np.array([[0.0, 1.0]]),
                         sample_radius=1e-3, residual=5e-4)


@pytest.mark.parametrize("basis", [[[0.0, 2.0]], [[0.6, 0.6]], [[0.0, 0.0]]])
def test_estimated_tangent_requires_orthonormal_rows(basis):
    with pytest.raises(ValueError, match="orthonormal"):
        EstimatedTangent(np.array([1.0, 0.0]), np.array(basis),
                         sample_radius=1e-3, residual=0.0)


# ------------------------------------------------------------ reconstruction

def test_geometric_gradient_from_exact_tangent():
    tangent = EstimatedTangent(np.array([0.6, 0.8]), np.array([[-0.8, 0.6]]),
                               sample_radius=1e-3, residual=0.0)
    geo = geometric_gradient(tangent, EUCLID2)
    assert geo.coeffs == pytest.approx([0.6, 0.8], abs=1e-12)
    h = np.array([0.3, -1.1])
    assert geo.apply(h) == pytest.approx(0.6 * h[0] + 0.8 * h[1], abs=1e-12)


@pytest.mark.parametrize("name,spec", smooth_specs())
def test_geometric_gradient_reproduces_norm_on_base(name, spec):
    rng = np.random.default_rng(7)
    e0 = generic_point(rng, spec.dim)
    e0 /= eval_norm(spec, e0)
    tangent = estimate_tangent(spec, e0, 1e-3)
    geo = geometric_gradient(tangent, spec)
    # construction constraint: the functional recovers the norm at the base
    assert geo.apply(e0) == pytest.approx(eval_norm(spec, e0), rel=1e-9)


def test_geometric_gradient_quadratic_form_r3():
    q = np.diag([2.0, 1.0, 1.0])
    spec = QuadraticNorm(q)
    rng = np.random.default_rng(19)
    e0 = rng.standard_normal(3)
    e0 /= eval_norm(spec, e0)

    # independent oracle on sqrt(x' Q x), then the closed form against it
    def qnorm(x):
        return float(np.sqrt(x @ q @ x))

    oracle = central_diff_gradient(qnorm, e0, 1e-6)
    closed = q @ e0 / eval_norm(spec, e0)
    assert oracle == pytest.approx(closed, abs=1e-8)

    geo = geometric_gradient(estimate_tangent(spec, e0, 1e-3), spec)
    assert geo.coeffs == pytest.approx(closed, abs=1e-2)


def test_geometric_gradient_rejects_degenerate_tangent():
    # a "tangent" containing the base point direction cannot determine f
    tangent = types.SimpleNamespace(base_point=np.array([1.0, 0.0]),
                                    basis=np.array([[1.0, 0.0]]))
    with pytest.raises(DecompositionError):
        geometric_gradient(tangent, EUCLID2)


@pytest.mark.parametrize("name,spec", smooth_specs())
@given(seed=st.integers(0, 2**32 - 1), decade=st.floats(-8.0, 8.0))
@settings(max_examples=15, deadline=None)
def test_closed_form_geometric_gradient_matches_the_solve(name, spec, seed, decade):
    x = 10.0 ** decade * generic_point(np.random.default_rng(seed), spec.dim)
    tangent = estimate_tangent(spec, x, 1e-3 * eval_norm(spec, x))
    got = geometric_gradient(tangent, spec).coeffs
    want = geometric_gradient_coeffs_reference(tangent, spec)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@given(decade=st.floats(-8.0, 8.0), tilt=st.sampled_from([0.0, 1e-14, 1e-12]))
@settings(max_examples=20, deadline=None)
def test_closed_form_and_solve_both_reject_a_tangent_through_the_base(decade, tilt):
    spec = LpNorm(4.0, 3)
    x = 10.0 ** decade * np.array([0.6, 0.8, 0.0])
    row = np.array([0.6, 0.8, tilt]) / np.linalg.norm([0.6, 0.8, tilt])
    tangent = EstimatedTangent(x, [row, [0.0, 0.0, 1.0] - row[2] * row],
                               sample_radius=1e-3 * eval_norm(spec, x), residual=0.0)
    with pytest.raises(DecompositionError):
        geometric_gradient_coeffs_reference(tangent, spec)
    with pytest.raises(DecompositionError):
        geometric_gradient(tangent, spec)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0])
def test_gradient_tolerance_must_be_finite_and_positive(tol):
    # a NaN tolerance used to turn every comparison into a "violation"
    with pytest.raises(ValueError, match="gradient_tol must be finite and positive"):
        geometric.geometric_check(LpNorm(4.0, 3), [0.3, -0.5, 0.8], gradient_tol=tol)
    with pytest.raises(ValueError, match="gradient_tol must be finite and positive"):
        equivalence_roundtrip(LpNorm(4.0, 3), [0.3, -0.5, 0.8], gradient_tol=tol)


@pytest.mark.parametrize("name,spec", smooth_specs())
@pytest.mark.parametrize("radius", [1e-2, 1e-3])
def test_two_gradient_routes_agree(name, spec, radius):
    rng = np.random.default_rng(37)
    worst = 0.0
    for _ in range(5):
        e0 = generic_point(rng, spec.dim)
        e0 /= eval_norm(spec, e0)
        geo = geometric_gradient(estimate_tangent(spec, e0, radius), spec)
        fd = fd_gradient(spec, e0)
        worst = max(worst, float(np.max(np.abs(geo.coeffs - fd.coeffs))))
    assert worst <= 10.0 * radius


def test_route_agreement_improves_with_radius():
    rng = np.random.default_rng(41)
    errors = {}
    points = [generic_point(rng, 3) for _ in range(8)]
    for radius in (1e-2, 1e-3):
        worst = 0.0
        for e0 in points:
            spec = QuadraticNorm(np.eye(3))
            unit = e0 / eval_norm(spec, e0)
            geo = geometric_gradient(estimate_tangent(spec, unit, radius), spec)
            fd = fd_gradient(spec, unit)
            worst = max(worst, float(np.max(np.abs(geo.coeffs - fd.coeffs))))
        errors[radius] = worst
    assert errors[1e-3] < errors[1e-2]


def test_ray_invariance_of_geometric_gradient():
    spec = LpNorm(4.0, 3)
    rng = np.random.default_rng(43)
    e0 = generic_point(rng, 3)
    g1 = geometric_gradient(estimate_tangent(spec, e0, 1e-3 * eval_norm(spec, e0)), spec)
    g2 = geometric_gradient(estimate_tangent(spec, 2.0 * e0,
                                             1e-3 * eval_norm(spec, 2.0 * e0)), spec)
    assert g2.coeffs == pytest.approx(g1.coeffs, abs=5e-3)


def test_functional_bounded_by_ray_projection_norm():
    rng = np.random.default_rng(47)
    e0 = np.array([0.6, 0.8])
    onto_ray = tangent_frame(EUCLID2, e0).onto_ray
    bound = np.linalg.norm(onto_ray, 2)
    geo = geometric_gradient(estimate_tangent(EUCLID2, e0, 1e-3), EUCLID2)
    for _ in range(25):
        h = rng.standard_normal(2)
        # |f(h)| = |ray projection of h| <= |P| |h| (euclidean geometry)
        assert abs(geo.apply(h)) <= bound * np.linalg.norm(h) * (1.0 + 1e-3)
        assert np.linalg.norm(onto_ray @ h) <= bound * np.linalg.norm(h) * (1.0 + 1e-9)


# ----------------------------------------------------------- expansion check

def test_expansion_circle_ratios_decay_linearly():
    frame = tangent_frame(EUCLID2, [1.0, 0.0])
    report = directional_expansion_check(EUCLID2, [1.0, 0.0], frame)
    assert report.passed
    for row in report.rows:
        # |(1, t)| - 1 = sqrt(1 + t^2) - 1 ~ t^2 / 2, so the ratio is ~ t / 2
        assert row.tangent_ratio == pytest.approx(row.scale / 2.0, rel=1e-2)
    # the zero step trivially has zero increment
    assert eval_norm(EUCLID2, np.array([1.0, 0.0])) == eval_norm(EUCLID2, [1.0, 0.0])


def test_expansion_fails_across_facets():
    # a direction mixing the two facets at the corner keeps the ratio at 1
    fake = types.SimpleNamespace(basis=np.array([[-1.0, 1.0]]) / np.sqrt(2.0))
    report = directional_expansion_check(LInfNorm(2), [1.0, 1.0], fake)
    assert not report.passed
    assert report.rows[-1].tangent_ratio == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("family", FAMILIES)
@given(seed=st.integers(0, 2**32 - 1), corner=st.booleans(),
       decade=st.floats(-12.0, 12.0))
@settings(max_examples=20, deadline=None)
def test_expansion_rows_match_the_scalar_loop(family, seed, corner, decade):
    rng = np.random.default_rng(seed)
    spec, x = tie_point(family, rng, 0.0 if corner else 0.2)
    x = x * 10.0 ** decade
    # any orthonormal rows will do: the check only steps along them
    basis = np.linalg.qr(rng.standard_normal((spec.dim, spec.dim - 1)))[0].T
    report = directional_expansion_check(spec, x, types.SimpleNamespace(basis=basis))
    got = [(row.scale, row.tangent_ratio, row.mixed_ratio) for row in report.rows]
    assert got == expansion_reference(spec, x, basis)


def test_expansion_check_rejects_the_origin():
    # like estimate_tangent and fd_gradient: no 0/0 ratios and no NaN report
    frame = tangent_frame(EUCLID2, [1.0, 0.0])
    with pytest.raises(ValueError, match="base point must be nonzero"):
        directional_expansion_check(EUCLID2, [0.0, 0.0], frame)


def test_decaying_refuses_a_ratio_that_grows():
    # a ratio may exceed the one before it by at most 25 % (plus 1e-12)
    assert geometric._decaying([1e-2, 1e-3, 1.2e-3, 1e-5])
    assert not geometric._decaying([1e-2, 1e-3, 1.3e-3, 1e-5])


def test_expansion_report_serialization():
    frame = tangent_frame(EUCLID2, [1.0, 0.0])
    report = directional_expansion_check(EUCLID2, [1.0, 0.0], frame)
    data = report.to_dict()
    assert data["passed"] and len(data["rows"]) == 4
    assert set(data["rows"][0]) == {"scale", "tangent_ratio", "mixed_ratio"}


# -------------------------------------------------------------- round trip

def test_result_types_are_frozen():
    chart = charts.build_chart(EUCLID2, [1.0, 0.0])
    image = sphere_chart_image_check(EUCLID2, chart, samples=8)
    expansion = directional_expansion_check(EUCLID2, [1.0, 0.0], chart.frame)
    roundtrip = equivalence_roundtrip(EUCLID2, [0.6, 0.8])
    for report, name in [(image, "failures"), (expansion, "rows"),
                         (expansion.rows[0], "scale"), (roundtrip, "verdict")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(report, name, getattr(report, name))
    assert isinstance(image.failures, tuple) and isinstance(expansion.rows, tuple)


def test_roundtrip_circle_consistent():
    report = equivalence_roundtrip(EUCLID2, [0.6, 0.8])
    assert report.verdict == "consistent"
    assert report.smooth and report.manifold_flat
    assert report.max_discrepancy <= 1e-3
    assert report.chart_residual <= 1e-9


def test_roundtrip_corner_fails_both_ways():
    report = equivalence_roundtrip(LInfNorm(2), [1.0, 1.0])
    assert report.verdict == "consistent"
    assert not report.smooth and not report.manifold_flat
    assert report.grad_fd is None and report.grad_geom is None


def test_roundtrip_lp_near_one():
    spec = LpNorm(1.5, 2)
    rng = np.random.default_rng(53)
    e0 = generic_point(rng, 2)
    e0 /= eval_norm(spec, e0)
    report = equivalence_roundtrip(spec, e0)
    assert report.verdict == "consistent"
    assert report.max_discrepancy <= 1e-2


def test_roundtrip_violation_alarm_wiring():
    # an impossible tolerance forces the gradient comparison to fail while
    # the chart side succeeds, which must raise the violation alarm
    report = equivalence_roundtrip(EUCLID2, [0.6, 0.8], gradient_tol=1e-18)
    assert report.verdict == "violation"


@pytest.mark.parametrize("spec,point", [(LpNorm(4.0, 3), [0.3, -0.5, 0.8]),
                                        (LInfNorm(2), [1.0, 1.0])],
                         ids=["smooth", "corner"])
def test_roundtrip_classifies_once(monkeypatch, spec, point):
    # the chart's tangent frame classifies the point; the roundtrip reads
    # its verdict instead of classifying a second time
    calls = []
    classify = charts._classify

    def spy(*args, **kwargs):
        calls.append(args)
        return classify(*args, **kwargs)

    monkeypatch.setattr(charts, "_classify", spy)
    monkeypatch.setattr(geometric, "_classify", spy, raising=False)
    equivalence_roundtrip(spec, point)
    assert len(calls) == 1


@pytest.mark.parametrize("family", FAMILIES)
@given(seed=st.integers(0, 2**32 - 1), corner=st.booleans(),
       offset=st.floats(0.05, 0.3), decade=st.floats(-12.0, 12.0))
@settings(max_examples=15, deadline=None)
def test_roundtrip_shares_the_fd_oracle_and_the_verdict(family, seed, corner, offset, decade):
    # one fd oracle at e0 serves both routes, and the chart's classifier,
    # checked against it, gives classify_point's verdict
    spec, x = tie_point(family, np.random.default_rng(seed), 0.0 if corner else offset)
    x = 10.0 ** decade * x
    report = equivalence_roundtrip(spec, x)
    assert report.smooth == classify_point(spec, x).smooth
    if report.manifold_flat:
        assert report.grad_fd.tobytes() == fd_gradient(spec, x).coeffs.tobytes()


def test_roundtrip_makes_a_fixed_number_of_norm_evaluations(monkeypatch):
    # |e0| and the fd oracle once each, 2 for the tangent fit, 12 slope
    # probes, 3 for the image check's samples and 3 Newton iterations
    spec = LpNorm(4.0, 3)
    stacks = []
    values = LpNorm._values

    def spy(self, X):
        stacks.append(np.shape(X))
        return values(self, X)

    monkeypatch.setattr(LpNorm, "_values", spy)
    report = equivalence_roundtrip(spec, [0.3, -0.5, 0.8])
    assert report.verdict == "consistent"
    assert len(stacks) == 22
    assert sum(rows for rows, _ in stacks) == 311


def _count_stacks(monkeypatch):
    stacks = []
    values = LpNorm._values

    def spy(self, X):
        stacks.append(np.shape(X))
        return values(self, X)

    monkeypatch.setattr(LpNorm, "_values", spy)
    return stacks


def test_stacked_roundtrip_shares_every_stage_but_the_classifier(monkeypatch):
    # m points: |e0|, the fd oracle, the two tangent-fit stacks, the three
    # image-check stacks and three Newton iterations once for all, and the
    # classifier's 12 slopes per point
    spec = LpNorm(4.0, 3)
    rng = np.random.default_rng(8)
    P = np.array([generic_point(rng, 3) for _ in range(8)])
    stacks = _count_stacks(monkeypatch)
    reports = geometric._roundtrips(spec, P, list(range(8)), None, None)
    assert [report.verdict for report in reports] == ["consistent"] * 8
    assert len(stacks) == 10 + 12 * 8
    assert sum(rows for rows, _ in stacks) == 2114


# offsets from the nearest corner: exact corners, near ties and generic points
_OFFSETS = st.one_of(st.just(0.0), st.floats(1e-6, 1e-3), st.floats(0.05, 0.3))


def _stacked_points(family, seed, draws):
    """One norm of ``family`` and a point per (offset, decade) draw.

    The quadratic family draws a new matrix with every point, so every
    point is taken with the first one's norm.
    """
    rng = np.random.default_rng(seed)
    spec, points = None, []
    for offset, decade in draws:
        drawn, x = tie_point(family, rng, offset)
        spec = spec or drawn
        points.append(10.0 ** decade * x)
    return spec, np.array(points)


def _loop(spec, points, seed, **options):
    """``equivalence_roundtrip`` over the points, point i with seed + i:
    the reports' JSON text, or the first error raised."""
    reports = []
    for i, x in enumerate(points):
        try:
            reports.append(json.dumps(equivalence_roundtrip(spec, x, seed=seed + i,
                                                            **options).to_dict()))
        except (ValueError, GeometryError) as exc:
            return exc
    return reports


@pytest.mark.parametrize("family", FAMILIES)
@given(seed=st.integers(0, 2**32 - 1), first=st.integers(0, 1000),
       draws=st.lists(st.tuples(_OFFSETS, st.floats(-12.0, 12.0)), min_size=1, max_size=9))
@settings(max_examples=10, deadline=None)
def test_stacked_roundtrip_reports_equal_the_one_point_reports(family, seed, first, draws):
    spec, P = _stacked_points(family, seed, draws)
    _assert_stacked_equals_the_loop(spec, P, first)


def _assert_stacked_equals_the_loop(spec, P, seed, sample_radius=None):
    expected = _loop(spec, P, seed, sample_radius=sample_radius)
    seeds = [seed + i for i in range(len(P))]
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            geometric._roundtrips(spec, P, seeds, sample_radius, None)
    else:
        stacked = geometric._roundtrips(spec, P, seeds, sample_radius, None)
        assert [json.dumps(report.to_dict()) for report in stacked] == expected
    return expected


def test_stacked_roundtrip_raises_the_first_failing_points_error(monkeypatch):
    # each stage keeps the rows before its first failing row, so a late
    # stage's error at a low row beats an early stage's error at a higher
    # one: the stacked call raises what a loop over the points raises first
    spec = LpNorm(4.0, 3)
    P = np.array([[0.3, -0.5, 0.8], [0.5, 0.1, -0.2], [0.0, 0.0, 0.0]])
    fit = geometric._geometric_gradient

    def fails_at_row_1(tangent, r):
        if tangent.base_point[0] == 0.5:
            raise DecompositionError("forced at row 1")
        return fit(tangent, r)

    monkeypatch.setattr(geometric, "_geometric_gradient", fails_at_row_1)
    assert "forced at row 1" in str(_assert_stacked_equals_the_loop(spec, P, 0))
    assert "seed must be a non-negative" in str(_assert_stacked_equals_the_loop(spec, P, -1))
    # a sample radius that only the smaller point refuses, behind a negative seed
    P = np.array([[0.3, -0.5, 0.8], [0.03, -0.05, 0.08]])
    assert "sample_radius must" in str(_assert_stacked_equals_the_loop(spec, P, 0, 0.01))
    assert "seed must be" in str(_assert_stacked_equals_the_loop(spec, P, -1, 0.01))


@pytest.mark.parametrize("family", FAMILIES)
@given(seed=st.integers(0, 2**32 - 1), corner=st.booleans(),
       offset=st.floats(0.05, 0.3), decade=st.floats(-12.0, 12.0))
@settings(max_examples=25, deadline=None)
def test_roundtrip_verdict_is_scale_free(family, seed, corner, offset, decade):
    spec, x = tie_point(family, np.random.default_rng(seed), 0.0 if corner else offset)
    report = equivalence_roundtrip(spec, x)
    scaled = equivalence_roundtrip(spec, 10.0 ** decade * x)
    assert (scaled.smooth, scaled.verdict) == (report.smooth, report.verdict)
    assert report.verdict == "consistent"


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("corner", [False, True])
def test_roundtrip_verdict_at_extreme_scales(family, corner):
    # |t x|_2 squared over- or underflows at these scales; the smooth
    # families ignore ``corner`` and give a generic point
    spec, x = tie_point(family, np.random.default_rng(17), 0.0 if corner else 0.2)
    report = equivalence_roundtrip(spec, x)
    assert report.verdict == "consistent"
    for t in EXTREME_SCALES:
        scaled = equivalence_roundtrip(spec, t * x)
        assert (scaled.smooth, scaled.manifold_flat, scaled.verdict) == \
            (report.smooth, report.manifold_flat, report.verdict), t


@pytest.mark.parametrize("spec", [LpNorm(4.0, 3), QuadraticNorm(spd_matrix(np.random.default_rng(3), 3))],
                         ids=["lp4", "spd"])
def test_roundtrip_report_does_not_depend_on_the_seed(spec):
    # the seed reaches only the classifier, whose verdict and gradient are
    # the same at generic points
    rng = np.random.default_rng(29)
    for _ in range(5):
        x = generic_point(rng, spec.dim)
        assert equivalence_roundtrip(spec, x, seed=0).to_dict() == \
            equivalence_roundtrip(spec, x, seed=7).to_dict()


def test_roundtrip_report_schema_keys():
    report = equivalence_roundtrip(EUCLID2, [0.6, 0.8]).to_dict()
    assert set(report) == {"point", "smooth", "grad_fd", "grad_geom",
                           "max_discrepancy", "chart_residual", "verdict"}


CORNER_INVENTORY = [
    (LInfNorm(2), [1.0, 1.0]),
    (LInfNorm(2), [1.0, -1.0]),
    (LInfNorm(2), [-2.0, 2.0]),
    (LInfNorm(3), [1.0, 1.0, 1.0]),
    (LInfNorm(3), [1.0, -1.0, 0.3]),
    (L1Norm(2), [1.0, 0.0]),
    (L1Norm(2), [0.0, -1.0]),
    (L1Norm(3), [0.0, 0.0, 1.0]),
    (L1Norm(3), [0.5, -0.5, 0.0]),
]


@pytest.mark.parametrize("spec,point", CORNER_INVENTORY,
                         ids=lambda v: str(v) if not hasattr(v, "dim") else None)
def test_corners_fail_both_routes(spec, point):
    # classifier and geometric estimator must agree on every corner
    assert not classify_point(spec, point).smooth
    with pytest.raises(NonManifoldSuspected):
        estimate_tangent(spec, point, 1e-3 * eval_norm(spec, point))


# --------------------------------------------------------------- scale range

#: Five norms and two points whose roundtrip read "violation" at
#: 10**-318..10**-313, refused a zero fd step below that, or overflowed |e0|
#: at 10**308, before each row ran at the scale of its largest entry.
SCALE_NORMS = [LpNorm(4.0, 3), QuadraticNorm(np.diag([2.0, 1.0, 0.5])), LpNorm(1.5, 3),
               L1Norm(3), LInfNorm(3)]
SCALE_POINTS = [[0.3, -0.5, 0.8], [0.8, -0.8, 0.3]]


@pytest.mark.parametrize("spec", SCALE_NORMS, ids=["lp4", "quadratic", "lp1.5", "l1", "linf"])
@pytest.mark.parametrize("point", SCALE_POINTS, ids=["a", "b"])
def test_roundtrip_is_consistent_at_every_decade(spec, point):
    P = np.array([10.0 ** k * np.array(point) for k in range(-323, 309)])
    reports = geometric._roundtrips(spec, P, [0] * len(P), None, None)
    assert [report.verdict for report in reports] == ["consistent"] * len(P)
    assert len({(report.smooth, report.manifold_flat) for report in reports}) == 1
    assert [report.point.tobytes() for report in reports] == [x.tobytes() for x in P]


@pytest.mark.parametrize("family", FAMILIES)
@given(seed=st.integers(0, 2**32 - 1), offset=_OFFSETS, decade=st.floats(-300.0, 300.0),
       data=st.data())
@settings(max_examples=10, deadline=None)
def test_roundtrip_report_is_invariant_under_powers_of_two(family, seed, offset, decade, data):
    spec, x = tie_point(family, np.random.default_rng(seed), offset)
    x = 10.0 ** decade * x
    assume(all_normal(x))
    _, exponents = np.frexp(x[x != 0.0])
    k = data.draw(st.integers(-1021 - int(exponents.min()), 1024 - int(exponents.max())))
    y = np.ldexp(x, k)
    assert all_normal(y)
    report, scaled = equivalence_roundtrip(spec, x), equivalence_roundtrip(spec, y)
    assert scaled.point.tobytes() == y.tobytes()
    for field in dataclasses.fields(geometric.RoundtripReport):
        if field.name != "point":
            a, b = getattr(report, field.name), getattr(scaled, field.name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name


# ------------------------------------------------------------- base points

OVERFLOWS = [(L1Norm(3), 1e308 * np.array([0.8, -0.8, 0.3])), (LpNorm(4.0, 3), [1.7e308] * 3)]
BASE_ENTRIES = {
    "fd_gradient": fd_gradient,
    "analytic_gradient": analytic_gradient,
    "classify_point": classify_point,
    "tangent_frame": tangent_frame,
    "build_chart": charts.build_chart,
    "estimate_tangent": lambda spec, x: estimate_tangent(spec, x, 1.0),
    "geometric_check": geometric.geometric_check,
    "directional_expansion_check": lambda spec, x: directional_expansion_check(
        spec, x, types.SimpleNamespace(basis=np.eye(3)[1:])),
    "projection_continuity_probe": charts.projection_continuity_probe,
}


@pytest.mark.parametrize("spec,point", OVERFLOWS, ids=["l1", "lp4"])
@pytest.mark.parametrize("entry", BASE_ENTRIES.values(), ids=BASE_ENTRIES.keys())
def test_a_norm_past_the_float_range_is_refused_with_one_message(spec, point, entry):
    # numpy warnings are errors under pytest, so this also shows none escapes
    with pytest.raises(ValueError, match="^the norm of the base point overflows the float range$"):
        entry(spec, point)


@pytest.mark.parametrize("spec,point", OVERFLOWS, ids=["l1", "lp4"])
def test_the_roundtrip_runs_where_the_norm_overflows(spec, point):
    assert equivalence_roundtrip(spec, point).verdict == "consistent"


@pytest.mark.parametrize("spec,point", OVERFLOWS, ids=["l1", "lp4"])
def test_a_slope_where_the_norm_overflows_is_taken_at_unit_size(spec, point):
    # slopes have degree 0; beyond |e0|_2 = 1e150 they are taken at the
    # point brought to unit size, where no norm overflows. Before, this
    # raised "overflow encountered in reduce"
    v = np.random.default_rng(41).standard_normal(3)
    unit = to_unit_size(point)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w in [*np.eye(3), *-np.eye(3), v]:
            got = one_sided_derivative(spec, point, w)
            assert math.isfinite(got)
            assert got.hex() == one_sided_derivative(spec, unit, w).hex()


@pytest.mark.parametrize("family", FAMILIES)
def test_estimate_tangent_keeps_its_bits_under_powers_of_two(family):
    # the fit runs at the point brought to unit size, where LAPACK never
    # rescales the samples' differences; at the caller's scale the basis
    # once changed its bits at |k| >= 460. Lengths come back in the
    # caller's units, a NonManifoldSuspected's too
    rng = np.random.default_rng(31)
    for offset in (0.0, 0.2):
        spec, x = tie_point(family, rng, offset)
        radius = 1e-3 * spec.value(x)
        try:
            want = estimate_tangent(spec, x, radius)
        except NonManifoldSuspected as exc:
            want = exc
        for k in (-600, -460, 460, 600):
            y = np.ldexp(x, k)
            if isinstance(want, NonManifoldSuspected):
                with pytest.raises(NonManifoldSuspected) as info:
                    estimate_tangent(spec, y, math.ldexp(radius, k))
                for name in ("residual", "sample_radius", "threshold"):
                    assert getattr(info.value, name) == math.ldexp(getattr(want, name), k)
                continue
            got = estimate_tangent(spec, y, math.ldexp(radius, k))
            assert got.basis.tobytes() == want.basis.tobytes()
            assert got.residual == math.ldexp(want.residual, k)
            assert got.sample_radius == math.ldexp(radius, k)
            assert got.base_point.tobytes() == y.tobytes()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("t", [1e-317, 1e-300, 1e-150, 1.0, 1e150, 1e300])
def test_geometric_check_runs_at_unit_size(family, t):
    # the fit and the fd oracle run at the point brought to unit size by a
    # power of two: the gradients and the discrepancy have degree 0, and a
    # corner's NonManifoldSuspected states its lengths in the caller's units
    rng = np.random.default_rng(23)
    for offset in (0.0, 0.2):
        spec, x = tie_point(family, rng, offset)
        y = t * x
        e = int(np.frexp(np.abs(y).max())[1])
        got, want = geometric.geometric_check(spec, y), geometric.geometric_check(spec, to_unit_size(y))
        assert got.gradient_tol == want.gradient_tol
        for name in ("grad_fd", "grad_geom", "discrepancy"):
            assert np.asarray(getattr(got, name)).tobytes() == np.asarray(
                getattr(want, name)).tobytes(), name
        assert type(got.error) is type(want.error)
        if isinstance(want.error, NonManifoldSuspected):
            for name in ("residual", "sample_radius", "threshold"):
                assert getattr(got.error, name) == math.ldexp(getattr(want.error, name), e)


def test_geometric_check_checks_a_given_radius_in_the_callers_units():
    spec = LpNorm(4.0, 3)
    y = 2.0 ** 600 * np.array([3.0, -5.0, 8.0])
    r = spec.value(y)
    with pytest.raises(ValueError, match=re.escape(f"sample_radius must lie in (0, {0.05 * r:.3e}]")):
        geometric.geometric_check(spec, y, sample_radius=r)
    # a radius of the caller's units, scaled with the point
    radius, e = 1e-4 * r, int(np.frexp(np.abs(y).max())[1])
    got = geometric.geometric_check(spec, y, sample_radius=radius)
    want = geometric.geometric_check(spec, to_unit_size(y), sample_radius=math.ldexp(radius, -e))
    assert got.grad_geom.tobytes() == want.grad_geom.tobytes()


@pytest.mark.parametrize("entry", [
    lambda: estimate_tangent(EUCLID2, [0.0, 0.0], 1e-3),
    lambda: geometric.geometric_check(EUCLID2, [0.0, 0.0]),
], ids=["estimate_tangent", "geometric_check"])
def test_the_fit_refuses_the_origin(entry):
    with pytest.raises(ValueError, match="^base point must be nonzero$"):
        entry()


def test_a_degenerate_design_gives_a_rank_deficient_fit(monkeypatch):
    # every design direction along the base point's axis: all samples land
    # on one line, so no shipped design reaches this
    D = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]] * 9)
    monkeypatch.setattr(geometric, "sample_design", lambda n, rows, low: (D, np.full(18, 0.75)))
    with pytest.raises(EstimationError, match="degenerate; fit is rank deficient"):
        estimate_tangent(LpNorm(4.0, 3), [1.0, 0.0, 0.0], 1e-3)
    check = geometric.geometric_check(LpNorm(4.0, 3), [1.0, 0.0, 0.0])
    assert type(check.error) is EstimationError and check.grad_fd is None
