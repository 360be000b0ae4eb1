import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normgeom import (DEFAULT_STEP_SEQUENCE, L1Norm, LInfNorm, LpNorm,
                      NormSpec, NotDifferentiableError, PolyhedralNorm,
                      ProductMaxNorm, QuadraticNorm, analytic_gradient,
                      classify_point, equivalence_roundtrip, eval_norm,
                      fd_gradient, norms, one_sided_derivative, product_embed,
                      product_norm_constants, product_split, spec_from_dict,
                      spec_to_dict, tangent_frame)
from normgeom._linalg import extrapolate_to_zero
from helpers import (BLOCK_MAX, EXTREME_SCALES, FAMILIES, HEXAGON, TIE_FAMILIES,
                     all_normal, central_diff_gradient, closed_form_reference, corner_rows,
                     extrapolate_reference, generic_point, one_sided_reference,
                     smooth_specs, spd_matrix, tie_point, to_unit_size)

EUCLID2 = QuadraticNorm(np.eye(2))


# ---------------------------------------------------------------- evaluation

def test_eval_pythagorean():
    assert eval_norm(EUCLID2, [3.0, 4.0]) == pytest.approx(5.0, abs=1e-12)


def test_eval_max_of_abs():
    assert eval_norm(LInfNorm(2), [3.0, -4.0]) == 4.0


def test_eval_product_max_blocks():
    spec = ProductMaxNorm(EUCLID2, QuadraticNorm(np.eye(2)))
    assert eval_norm(spec, [3.0, 4.0, 0.0, 1.0]) == pytest.approx(5.0, abs=1e-12)


def test_eval_dim_mismatch():
    with pytest.raises(ValueError):
        eval_norm(EUCLID2, [1.0, 2.0, 3.0])


def test_eval_rejects_nan():
    with pytest.raises(ValueError):
        eval_norm(EUCLID2, [np.nan, 0.0])


AXIOM_SPECS = [
    QuadraticNorm([[2.0, 0.3], [0.3, 1.0]]),
    LpNorm(3.0, 3),
    LpNorm(1.5, 2),
    L1Norm(3),
    LInfNorm(3),
    PolyhedralNorm([[1.0, 0.0], [0.0, 1.0], [0.8, 0.6]]),
    ProductMaxNorm(QuadraticNorm(np.eye(2)), L1Norm(2)),
]

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@pytest.mark.parametrize("spec", AXIOM_SPECS, ids=lambda s: type(s).__name__)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_norm_axioms(spec, data):
    x = np.array(data.draw(st.lists(coords, min_size=spec.dim, max_size=spec.dim)))
    y = np.array(data.draw(st.lists(coords, min_size=spec.dim, max_size=spec.dim)))
    s = data.draw(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))

    assert eval_norm(spec, np.zeros(spec.dim)) == 0.0
    nx = eval_norm(spec, x)
    if np.any(x):
        assert nx > 0.0
    # absolute homogeneity, relative 1e-12
    assert eval_norm(spec, s * x) == pytest.approx(abs(s) * nx, rel=1e-12, abs=1e-300)
    # triangle inequality with additive slack for rounding
    lhs = eval_norm(spec, x + y)
    rhs = nx + eval_norm(spec, y)
    assert lhs <= rhs + 1e-12 * max(1.0, rhs)


@pytest.mark.parametrize("spec", AXIOM_SPECS, ids=lambda s: type(s).__name__)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_values_match_value_row_by_row(spec, data):
    k = data.draw(st.integers(min_value=1, max_value=5))
    unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    rows = np.array(data.draw(st.lists(st.lists(unit, min_size=spec.dim, max_size=spec.dim),
                                       min_size=k, max_size=k)))
    decades = np.array(data.draw(st.lists(st.floats(min_value=-12.0, max_value=12.0),
                                          min_size=k, max_size=k)))
    X = np.vstack([rows * 10.0 ** decades[:, None], np.zeros(spec.dim)])
    got = spec.values(X)
    assert got.shape == (k + 1,)
    assert got[-1] == 0.0
    for x, v in zip(X, got):
        assert v == spec.value(x)


def test_values_checks_the_stack():
    spec = LpNorm(3.0, 2)
    for bad in ([1.0, 2.0], [[1.0, 2.0, 3.0]], [[1.0, np.nan]], [[np.inf, 0.0]]):
        with pytest.raises(ValueError):
            spec.values(bad)
    assert spec.values(np.empty((0, 2))).shape == (0,)


#: A product of a product: ``values`` checks its stack once, and every block
#: below is a slice of that stack.
NESTED = ProductMaxNorm(ProductMaxNorm(LInfNorm(2), L1Norm(1)), HEXAGON)


@pytest.mark.parametrize("spec", AXIOM_SPECS + [NESTED],
                         ids=lambda s: type(s).__name__ + ("Nested" if s is NESTED else ""))
def test_values_refuses_a_bad_stack_with_one_message(spec):
    n = spec.dim
    shape = f"expected a (k, {n}) stack of vectors, got shape"
    nan, inf = np.ones((3, n)), np.ones((1, n))
    nan[1, -1], inf[0, 0] = np.nan, -np.inf
    for bad, message in ((np.ones(n), f"{shape} ({n},)"),
                         (np.ones((2, n + 1)), f"{shape} (2, {n + 1})"),
                         (np.ones((2, n - 1)), f"{shape} (2, {n - 1})"),
                         (nan, "vector entries must be finite"),
                         (inf, "vector entries must be finite")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            spec.values(bad)


def test_a_nested_norm_checks_its_stack_once(monkeypatch):
    checked = []
    as_rows = norms.as_rows

    def spy(X, dim):
        checked.append((np.shape(X), dim))
        return as_rows(X, dim)

    monkeypatch.setattr(norms, "as_rows", spy)
    NESTED.values(np.ones((4, 5)))
    assert checked == [((4, 5), 5)]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_a_nested_norm_is_the_block_maximum_of_its_parts(data):
    k = data.draw(st.integers(min_value=0, max_value=6))
    entry = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)
    X = np.array(data.draw(st.lists(st.lists(entry, min_size=5, max_size=5),
                                    min_size=k, max_size=k)), dtype=float).reshape(k, 5)
    inner, hexagon = NESTED.left, NESTED.right
    want = np.maximum(np.maximum(inner.left.values(X[:, :2]), inner.right.values(X[:, 2:3])),
                      hexagon.values(X[:, 3:]))
    assert NESTED.values(X).tobytes() == want.tobytes()


def test_families_write_their_norm_once():
    # ``_values`` is each family's one formula, at a checked stack; the
    # checked ``values`` and its one-row case ``value`` are NormSpec's alone
    assert norms._FAMILIES
    assert "values" in vars(NormSpec) and "value" in vars(NormSpec)
    for kind, family in norms._FAMILIES.items():
        assert "value" not in vars(family), kind
        assert "values" not in vars(family), kind
        assert "_values" in vars(family), kind


def test_families_write_their_derivative_once():
    # ``_closed_form_rows`` is each family's one derivative formula; the
    # pointwise gradient, the fd patch at corners and the JSON form are shared
    for kind, family in norms._FAMILIES.items():
        for inherited in ("gradient_coeffs", "_gradient_rows", "to_dict"):
            assert inherited not in vars(family), (kind, inherited)
        assert "values" not in vars(family), kind
        assert "_values" in vars(family), kind
        assert "_closed_form_rows" in vars(family), kind


DERIVATIVE_SPECS = AXIOM_SPECS + [
    LpNorm(4.0, 3), HEXAGON, BLOCK_MAX, ProductMaxNorm(LInfNorm(2), LpNorm(1.5, 2)),
    ProductMaxNorm(ProductMaxNorm(LInfNorm(2), L1Norm(1)), HEXAGON),
]


@pytest.mark.parametrize("spec", DERIVATIVE_SPECS, ids=lambda s: type(s).__name__)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_closed_form_rows_match_the_scalar_reference(spec, data):
    # bit for bit, over 24 decades of scale, at exact and near corners;
    # analytic_gradient takes the closed form at the point brought to unit
    # size, which is the caller's point scaled exactly while its nonzero
    # entries are normal floats
    unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    x = np.array(data.draw(st.lists(unit, min_size=spec.dim, max_size=spec.dim)))
    if not np.any(x):
        x[0] = 1.0
    rel = data.draw(st.sampled_from([0.0, 1e-10, 1e-8, 1e-3]))
    decade = data.draw(st.floats(min_value=-12.0, max_value=12.0))
    E = np.array([x] + corner_rows(spec, x, rel)) * 10.0 ** decade
    E = E[np.any(E, axis=1)]
    coeffs, corners = spec._closed_form_rows(E, spec.values(E))
    for e, c, corner in zip(E, coeffs, corners):
        ref, ref_corner = closed_form_reference(spec, e)
        assert c.tobytes() == ref.tobytes()
        assert corner == ref_corner
        unit_ref, unit_corner = closed_form_reference(spec, to_unit_size(e))
        if all_normal(e) and all_normal(to_unit_size(e)):
            assert (unit_ref.tobytes(), unit_corner) == (ref.tobytes(), ref_corner)
        if unit_corner:
            with pytest.raises(NotDifferentiableError):
                analytic_gradient(spec, e)
        else:
            assert analytic_gradient(spec, e).coeffs.tobytes() == unit_ref.tobytes()


@pytest.mark.parametrize("spec", AXIOM_SPECS, ids=lambda s: type(s).__name__)
def test_gradient_rows_reject_the_origin(spec):
    with pytest.raises(ValueError, match="origin"):
        spec.gradient_rows(np.vstack([np.ones(spec.dim), np.zeros(spec.dim)]))


@pytest.mark.parametrize("spec", AXIOM_SPECS, ids=lambda s: type(s).__name__)
def test_gradient_rows_match_the_pointwise_gradient(spec):
    # closed form where there is one, the fd oracle at corners (the max
    # norm's all-ones row, the l1 norm's axis row)
    rng = np.random.default_rng(67)
    E = np.array([generic_point(rng, spec.dim, min_abs=0.1) for _ in range(4)]
                 + [np.ones(spec.dim), np.eye(spec.dim)[0]])
    expected = []
    for e in E:
        try:
            expected.append(analytic_gradient(spec, e).coeffs)
        except NotDifferentiableError:
            expected.append(fd_gradient(spec, e).coeffs)
    np.testing.assert_allclose(spec.gradient_rows(E), expected, rtol=1e-14, atol=0.0)


def test_gradient_rows_take_every_corner_row_from_one_stack(monkeypatch):
    # the norms of E, then one stack of 2n shifted rows per corner row; each
    # corner row has the bits of its one-row fd_gradient
    spec = LInfNorm(3)
    E = np.array([[1.0, 1.0, 0.2], [0.3, -0.5, 0.8], [-2.0, 0.5, 2.0], [1e-7, -1e-7, 0.0]])
    expected = [fd_gradient(spec, e).coeffs if i != 1 else analytic_gradient(spec, e).coeffs
                for i, e in enumerate(E)]
    stacks = []
    values = LInfNorm._values

    def spy(self, X):
        stacks.append(np.shape(X))
        return values(self, X)

    monkeypatch.setattr(LInfNorm, "_values", spy)
    G = spec.gradient_rows(E)
    assert stacks == [(4, 3), (18, 3)]
    assert [row.tobytes() for row in G] == [row.tobytes() for row in expected]


# ------------------------------------------------------------ closed forms

def test_euclid_gradient_is_base_point():
    g = analytic_gradient(EUCLID2, [0.6, 0.8])
    assert g.apply([1.0, 0.0]) == pytest.approx(0.6, abs=1e-12)
    assert g.apply([0.0, 1.0]) == pytest.approx(0.8, abs=1e-12)


@pytest.mark.parametrize("name,spec", smooth_specs())
def test_gradient_reproduces_norm_on_base_point(name, spec):
    rng = np.random.default_rng(11)
    for _ in range(20):
        e0 = generic_point(rng, spec.dim)
        g = analytic_gradient(spec, e0)
        assert g.apply(e0) == pytest.approx(eval_norm(spec, e0), rel=1e-9)


def test_lp4_gradient_at_diagonal():
    # independent oracle first: central differences on the plain l4 norm,
    # swept over steps 1e-4 .. 1e-6, all agreeing with the frozen value
    def l4(x):
        return float(np.sum(np.abs(x) ** 4) ** 0.25)

    frozen = 0.5946035575013605  # = 2 ** -0.75
    for step in (1e-4, 1e-5, 1e-6):
        oracle = central_diff_gradient(l4, [1.0, 1.0], step)
        assert oracle == pytest.approx([frozen, frozen], abs=5e-8)

    g = analytic_gradient(LpNorm(4.0, 2), [1.0, 1.0])
    assert g.coeffs == pytest.approx([frozen, frozen], abs=1e-13)


def test_quadratic_gradient_matches_q_form():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    q = a @ a.T + np.eye(3)
    spec = QuadraticNorm(q)
    e0 = rng.standard_normal(3)
    expected = q @ e0 / eval_norm(spec, e0)
    assert analytic_gradient(spec, e0).coeffs == pytest.approx(expected, abs=1e-12)


def test_linf_gradient_unique_max():
    g = analytic_gradient(LInfNorm(2), [1.0, 0.5])
    assert g.coeffs == pytest.approx([1.0, 0.0], abs=0.0)
    g = analytic_gradient(LInfNorm(3), [0.1, -0.9, 0.2])
    assert g.coeffs == pytest.approx([0.0, -1.0, 0.0], abs=0.0)


def test_analytic_gradient_corner_errors():
    with pytest.raises(NotDifferentiableError):
        analytic_gradient(LInfNorm(2), [1.0, 1.0])
    with pytest.raises(NotDifferentiableError):
        analytic_gradient(L1Norm(2), [1.0, 0.0])
    with pytest.raises(NotDifferentiableError):
        analytic_gradient(PolyhedralNorm([[1.0, 0.0], [0.0, 1.0]]), [1.0, 1.0])
    tie = ProductMaxNorm(EUCLID2, QuadraticNorm(np.eye(2)))
    with pytest.raises(NotDifferentiableError):
        analytic_gradient(tie, [0.6, 0.8, 0.0, 1.0])
    with pytest.raises(ValueError):
        analytic_gradient(EUCLID2, [0.0, 0.0])


def test_product_max_gradient_lives_on_attaining_block():
    spec = ProductMaxNorm(EUCLID2, QuadraticNorm(np.eye(2)))
    g = analytic_gradient(spec, [0.6, 0.8, 0.0, 0.3])
    assert g.coeffs == pytest.approx([0.6, 0.8, 0.0, 0.0], abs=1e-12)


@pytest.mark.parametrize("name,spec", smooth_specs())
@pytest.mark.parametrize("r", [0.5, 2.0, 10.0])
def test_gradient_degree_zero_homogeneity(name, spec, r):
    rng = np.random.default_rng(13)
    e0 = generic_point(rng, spec.dim)
    base = analytic_gradient(spec, e0).coeffs
    scaled = analytic_gradient(spec, r * e0).coeffs
    assert scaled == pytest.approx(base, abs=1e-9)


# -------------------------------------------------------- finite differences

def test_fd_euclid_axis_point():
    g = fd_gradient(EUCLID2, [1.0, 0.0], step=1e-5)
    assert g.coeffs == pytest.approx([1.0, 0.0], abs=1e-9)


def test_fd_matches_analytic_lp4():
    g = fd_gradient(LpNorm(4.0, 2), [1.0, 1.0], step=1e-5)
    a = analytic_gradient(LpNorm(4.0, 2), [1.0, 1.0])
    assert g.coeffs == pytest.approx(a.coeffs, abs=1e-8)


def test_fd_at_corner_averages_one_sided_slopes():
    # max(1 + t, 1) differences give exactly one half per coordinate
    g = fd_gradient(LInfNorm(2), [1.0, 1.0], step=1e-5)
    assert g.coeffs == pytest.approx([0.5, 0.5], abs=1e-10)
    assert not classify_point(LInfNorm(2), [1.0, 1.0]).smooth


def test_fd_step_validation():
    with pytest.raises(ValueError):
        fd_gradient(EUCLID2, [1.0, 0.0], step=0.2)  # >= |e0| / 10
    with pytest.raises(ValueError):
        fd_gradient(EUCLID2, [1.0, 0.0], step=-1e-5)
    with pytest.raises(ValueError):
        fd_gradient(EUCLID2, [0.0, 0.0])


def _fd_gradient_loop(spec, x):
    """Reference: the central differences one coordinate at a time."""
    step = float(np.cbrt(np.finfo(float).eps)) * spec.value(x)
    return central_diff_gradient(spec.value, x, step)


@pytest.mark.parametrize("family", FAMILIES)
def test_fd_gradient_stack_matches_the_coordinate_loop(family):
    # l^p rows of ``values`` may differ from ``value`` by 1 ulp, so the
    # stacked differences move by rounding only
    rng = np.random.default_rng(41)
    for corner in (False, True):
        for decade in (-6.0, -3.0, 0.0, 3.0, 6.0):
            spec, x = tie_point(family, rng, 0.0 if corner else 0.2)
            x = 10.0 ** decade * x
            expected = _fd_gradient_loop(spec, x)
            got = fd_gradient(spec, x).coeffs
            tol = 1e-10 * max(1.0, float(np.abs(expected).max()))
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=tol)


def test_fd_gradient_evaluates_one_stack(monkeypatch):
    spec = LpNorm(4.0, 3)
    stacks, scalars = [], []
    values, value = LpNorm._values, LpNorm.value

    def spy_values(self, X):
        stacks.append(np.shape(X))
        return values(self, X)

    def spy_value(self, x):
        scalars.append(np.shape(x))
        return value(self, x)

    monkeypatch.setattr(LpNorm, "_values", spy_values)
    monkeypatch.setattr(LpNorm, "value", spy_value)
    fd_gradient(spec, [0.3, -0.5, 0.8])
    # one stack of the 2n shifted rows, after the norm of the point, which
    # sets the step: a one-row stack of the vector already checked, with no
    # scalar call to check it again
    assert stacks == [(1, 3), (6, 3)]
    assert scalars == []


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("t", [1e-317, 1e-300, 1e-150, 1.0, 1e150, 1e300])
def test_fd_gradient_is_taken_at_unit_size(family, t):
    # the differences run at the point brought to unit size by a power of
    # two, so every scale, subnormal ones included, gives the bits there;
    # a given step is scaled alike (one of 1e-7 |y| is itself subnormal,
    # and so rounded, at t = 1e-317)
    rng = np.random.default_rng(17)
    for offset in (0.0, 0.2):
        spec, x = tie_point(family, rng, offset)
        y = t * x
        unit = to_unit_size(y)
        assert fd_gradient(spec, y).coeffs.tobytes() == fd_gradient(spec, unit).coeffs.tobytes()
        if t < 1e-300:
            continue
        e = int(np.frexp(np.abs(y).max())[1])
        step = 1e-7 * spec.value(unit)
        assert (fd_gradient(spec, y, step=math.ldexp(step, e)).coeffs.tobytes()
                == fd_gradient(spec, unit, step=step).coeffs.tobytes())


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("t", [1e-322, 1e-320, 1e-318, 1e-300, 1.0, 1e300])
def test_closed_forms_are_taken_at_unit_size(family, t):
    # analytic_gradient and a smooth verdict take the closed form at the
    # point brought to unit size by a power of two, so every scale gives
    # the bits there
    spec, x = tie_point(family, np.random.default_rng(19), 0.2)
    y = t * x
    want = analytic_gradient(spec, to_unit_size(y)).coeffs.tobytes()
    assert analytic_gradient(spec, y).coeffs.tobytes() == want
    verdict = classify_point(spec, y)
    assert verdict.smooth and verdict.gradient.coeffs.tobytes() == want


@pytest.mark.parametrize("spec", [
    LpNorm(4.0, 3), QuadraticNorm(spd_matrix(np.random.default_rng(5), 3)),
], ids=["lp4", "spd3"])
@pytest.mark.parametrize("t", [1e-318, 1e-320, 1e-322])
def test_closed_forms_keep_their_digits_at_subnormal_points(spec, t):
    # t (3, -5, 8) is exact here, on the ray of (3, -5, 8); at the caller's
    # scale the norm has few digits, and the coefficients once missed by
    # 4.6e-7 (t = 1e-318) to 7.9e-3 (t = 1e-322)
    x = np.array([3.0, -5.0, 8.0])
    want = analytic_gradient(spec, x).coeffs
    for got in (analytic_gradient(spec, t * x), classify_point(spec, t * x).gradient):
        np.testing.assert_allclose(got.coeffs, want, rtol=0.0, atol=1e-15)


def test_fd_gradient_checks_a_given_step_in_the_callers_units():
    x = 2.0 ** 600 * np.array([0.3, -0.5, 0.8])
    r = LpNorm(4.0, 3).value(x)
    with pytest.raises(ValueError, match=re.escape(f"step must lie in (0, {r / 10.0:.3e})")):
        fd_gradient(LpNorm(4.0, 3), x, step=r)


def test_fd_gradient_matches_the_closed_form_at_a_subnormal_point():
    # once a gap of 2.2e-3 at 1e-317 (3, -5, 8), where the shifted norms
    # have about 21 bits
    spec, x = LpNorm(4.0, 3), 1e-317 * np.array([3.0, -5.0, 8.0])
    want = analytic_gradient(spec, to_unit_size(x)).coeffs
    np.testing.assert_allclose(fd_gradient(spec, x).coeffs, want, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("spec,point", [
    (QuadraticNorm([[2.0, 0.4], [0.4, 1.0]]), [0.8, -0.5]),
    (LpNorm(4.0, 2), [1.3, 0.7]),
    (LpNorm(1.5, 2), [0.9, -1.2]),
])
def test_fd_second_order_convergence(spec, point):
    exact = analytic_gradient(spec, point).coeffs

    def err(step):
        return float(np.max(np.abs(fd_gradient(spec, point, step).coeffs - exact)))

    # halving the step must cut the error by at least 3 (theoretical 4)
    for step in (1e-2, 5e-3):
        assert err(step) / err(step / 2.0) >= 3.0


# -------------------------------------------------------------- one-sided

def test_one_sided_derivative_refuses_the_origin():
    with pytest.raises(ValueError, match="^base point must be nonzero$"):
        one_sided_derivative(EUCLID2, [0.0, 0.0], [1.0, 0.0])


def test_one_sided_exact_corner_slopes():
    spec = LInfNorm(2)
    # |(1, 1 + t)| = 1 + t exactly; |(1, 1 - t)| = 1 exactly for 0 < t < 1
    assert one_sided_derivative(spec, [1.0, 1.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-10)
    assert one_sided_derivative(spec, [1.0, 1.0], [0.0, -1.0]) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("name,spec", smooth_specs()[:4])
def test_one_sided_along_the_ray_is_the_norm(name, spec):
    rng = np.random.default_rng(3)
    e0 = generic_point(rng, spec.dim)
    d = one_sided_derivative(spec, e0, e0)
    assert d == pytest.approx(eval_norm(spec, e0), rel=1e-9)


@pytest.mark.parametrize("family", FAMILIES)
@given(seed=st.integers(0, 2**32 - 1), corner=st.booleans(),
       decade=st.floats(-12.0, 12.0))
@settings(max_examples=40, deadline=None)
def test_one_sided_slope_is_scale_free(family, seed, corner, decade):
    # slopes have degree 0, and the default steps scale with |e0|_2
    rng = np.random.default_rng(seed)
    spec, x = tie_point(family, rng, 0.0 if corner else 0.2)
    v = rng.standard_normal(spec.dim)
    t = 10.0 ** decade
    for w in (v, -v):
        assert one_sided_derivative(spec, t * x, w) == pytest.approx(
            one_sided_derivative(spec, x, w), rel=0.0, abs=1e-8)


@pytest.mark.parametrize("name,spec", smooth_specs())
@pytest.mark.parametrize("t", EXTREME_SCALES)
def test_one_sided_slope_at_extreme_scales(name, spec, t):
    # |t x|_2 squared over- or underflows here, and the default steps scale
    # with it. The reference is the same point brought to unit size by a
    # power of two: a power of ten rounds t x, which alone moves a slope by
    # up to about 2e-10 relative, also at t = 1e10
    rng = np.random.default_rng(7)
    x = t * generic_point(rng, spec.dim)
    v = rng.standard_normal(spec.dim)
    for w in (v, -v):
        want = one_sided_derivative(spec, to_unit_size(x), w)
        assert one_sided_derivative(spec, x, w) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("family", FAMILIES)
@given(seed=st.integers(0, 2**32 - 1), corner=st.booleans(),
       decade=st.floats(-12.0, 12.0))
@settings(max_examples=30, deadline=None)
def test_one_sided_slope_is_one_stack(family, seed, corner, decade):
    rng = np.random.default_rng(seed)
    spec, x = tie_point(family, rng, 0.0 if corner else 0.2)
    x = x * 10.0 ** decade
    v = rng.standard_normal(spec.dim)
    stacks = []
    values = type(spec)._values

    def spy_values(self, X):
        stacks.append(np.shape(X))
        return values(self, X)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(type(spec), "_values", spy_values)
        got = one_sided_derivative(spec, x, v)
    # the base point and every step of the grid, in one stack
    assert stacks == [(len(DEFAULT_STEP_SEQUENCE) + 1, spec.dim)]
    assert got == one_sided_reference(spec, x, v)


def test_one_sided_step_sequence_validation():
    with pytest.raises(ValueError):
        one_sided_derivative(EUCLID2, [1.0, 0.0], [0.0, 0.0])
    # every step of the grid must stay a positive float
    with pytest.raises(ValueError):
        one_sided_derivative(EUCLID2, [1e-320, 0.0], [0.0, 1.0])


def test_default_step_sequence_matches_published_grid():
    assert DEFAULT_STEP_SEQUENCE == (1e-3, 1e-4, 1e-5)
    # the slope's read-only copy: |e0|_2 times it gives the scalar products
    assert norms._STEP_GRID.tolist() == list(DEFAULT_STEP_SEQUENCE)
    assert norms._STEP_GRID.dtype == np.float64
    assert not norms._STEP_GRID.flags.writeable


_MAGNITUDE = st.floats(1e-300, 1e300) | st.floats(-1e300, -1e-300)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_extrapolation_matches_the_numpy_scalar_tableau(data):
    # the same IEEE operations on Python floats: every bit agrees, and so
    # do the inf and NaN of a tableau that overflows
    steps = data.draw(st.lists(_MAGNITUDE, min_size=2, max_size=4, unique=True))
    values = data.draw(st.lists(_MAGNITUDE | st.just(0.0), min_size=len(steps),
                                max_size=len(steps)))
    got = extrapolate_to_zero(np.array(steps), np.array(values))
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(extrapolate_reference(steps, values)).tobytes()


# ------------------------------------------------------------- classifier

def test_classify_corner_of_max_norm():
    verdict = classify_point(LInfNorm(2), [1.0, 1.0])
    assert not verdict.smooth
    # worst violating direction must be at least as bad as the coordinate one
    assert verdict.violation >= 1.0 - 1e-9
    assert verdict.right_deriv - verdict.left_deriv > 1e-6


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0])
def test_classify_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    # at the smooth l^4 point a NaN or negative threshold used to read "corner"
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        classify_point(LpNorm(4.0, 3), [0.3, -0.5, 0.8], tol=tol)


def test_classify_smooth_facet_point():
    verdict = classify_point(LInfNorm(2), [1.0, 0.5])
    assert verdict.smooth
    assert verdict.gradient.coeffs == pytest.approx([1.0, 0.0], abs=1e-9)


def test_classify_l1_vertex():
    verdict = classify_point(L1Norm(2), [1.0, 0.0])
    assert not verdict.smooth
    # hand values: both one-sided slopes along (0, 1) equal +1
    assert one_sided_derivative(L1Norm(2), [1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-9)
    assert one_sided_derivative(L1Norm(2), [1.0, 0.0], [0.0, -1.0]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name,spec", smooth_specs()[:4])
def test_classify_quadratic_family_always_smooth(name, spec):
    rng = np.random.default_rng(17)
    for _ in range(10):
        assert classify_point(spec, generic_point(rng, spec.dim)).smooth


def _linf_tie(point):
    mags = np.abs(np.asarray(point, dtype=float))
    peak = mags.max()
    return int(np.sum(mags >= (1.0 - 1e-9) * peak)) > 1


@pytest.mark.parametrize("dim", [2, 3])
def test_classify_agrees_with_tie_oracle(dim):
    rng = np.random.default_rng(29)
    spec = LInfNorm(dim)
    points = [generic_point(rng, dim) for _ in range(8)]
    for p in list(points):
        tied = p.copy()
        tied[1] = np.sign(tied[1] or 1.0) * abs(tied).max()  # force a tie
        points.append(tied)
    for p in points:
        assert classify_point(spec, p).smooth == (not _linf_tie(p))


@pytest.mark.parametrize("family", FAMILIES)
@given(seed=st.integers(0, 2**32 - 1), corner=st.booleans(),
       offset=st.floats(0.05, 0.3), decade=st.floats(-12.0, 12.0))
@settings(max_examples=40, deadline=None)
def test_classify_verdict_is_scale_free(family, seed, corner, offset, decade):
    # exact corners (ties, zero coordinates, equal blocks) and generic points
    spec, x = tie_point(family, np.random.default_rng(seed), 0.0 if corner else offset)
    t = 10.0 ** decade
    verdict = classify_point(spec, x)
    scaled = classify_point(spec, t * x)
    assert scaled.smooth == verdict.smooth == (not corner or family not in TIE_FAMILIES)
    if verdict.smooth:
        assert scaled.gradient.coeffs == pytest.approx(verdict.gradient.coeffs, abs=1e-9)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("corner", [False, True])
def test_classify_evaluates_a_fixed_sequence_of_stacks(family, corner):
    spec, x = tie_point(family, np.random.default_rng(5), 0.0 if corner else 0.2)
    n = spec.dim
    stacks = []
    values = type(spec)._values

    def spy_values(self, X):
        stacks.append(np.shape(X))
        return values(self, X)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(type(spec), "_values", spy_values)
        classify_point(spec, x)
    # |x|, then fd_gradient's |u| and 2n shifts, then two slopes along each
    # of the 2n directions; the closed form at a smooth point reuses |x|
    slopes = [(len(DEFAULT_STEP_SEQUENCE) + 1, n)] * (4 * n)
    assert stacks == [(1, n), (1, n), (2 * n, n)] + slopes


@pytest.mark.parametrize("family", FAMILIES)
@given(seed=st.integers(0, 2**32 - 1), offset=st.floats(0.05, 0.3),
       decade=st.floats(-12.0, 12.0))
@settings(max_examples=25, deadline=None)
def test_smooth_verdict_gradient_is_the_closed_form(family, seed, offset, decade):
    # the classifier takes the closed form at the norm it already holds
    spec, x = tie_point(family, np.random.default_rng(seed), offset)
    x = 10.0 ** decade * x
    verdict = classify_point(spec, x)
    assert verdict.smooth
    assert verdict.gradient.coeffs.tobytes() == analytic_gradient(spec, x).coeffs.tobytes()


def test_classify_budget_validation():
    with pytest.raises(ValueError):
        classify_point(EUCLID2, [0.0, 0.0])


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_seed_must_be_a_non_negative_integer(seed):
    # random.Random would read -1 as 1 and hash 1.5; both are refused
    # wherever the classifier draws its directions
    for call in (classify_point, tangent_frame, equivalence_roundtrip):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            call(EUCLID2, [0.6, 0.8], seed=seed)
    x = [1.0, 1.0 - 1e-6, 0.3]
    assert classify_point(LInfNorm(3), x, seed=np.int64(4)).violation == \
        classify_point(LInfNorm(3), x, seed=4).violation


# ---------------------------------------------------------------- products

def test_product_embed_split_roundtrip_exact():
    a = np.array([1.5, -2.0])
    b = np.array([0.25, 3.0, -1.0])
    x = product_embed(a, b)
    left, right = product_split(x, 2)
    assert np.array_equal(left, a) and np.array_equal(right, b)


@given(st.lists(coords, min_size=1, max_size=4), st.lists(coords, min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_product_roundtrip_property(a, b):
    x = product_embed(a, b)
    left, right = product_split(x, len(a))
    assert np.array_equal(left, np.asarray(a, dtype=float))
    assert np.array_equal(right, np.asarray(b, dtype=float))


def test_product_split_validation():
    with pytest.raises(ValueError):
        product_split([1.0, 2.0], 2)


def test_block_constants_triangle_bound():
    # |xl + xr| <= 2 max(|xl|, |xr|) for any norm, so c2 <= 2 always
    for spec in (EUCLID2, L1Norm(3), LInfNorm(3), LpNorm(3.0, 4)):
        c1, c2 = product_norm_constants(spec, 1, samples=2000)
        assert c2 <= 2.0 + 1e-12
        # sampled estimate approaches the true constant 1 from below
        assert 0.99 <= c1 <= 1.0 + 1e-12


def test_block_constants_euclidean_diagonal():
    # orthogonal axes in the plane: the ratio peaks at sqrt(2) on the diagonal
    c1, c2 = product_norm_constants(EUCLID2, 1, samples=10_000)
    assert 1.40 <= c2 <= np.sqrt(2.0) + 1e-12
    assert 0.999 <= c1 <= 1.0 + 1e-12


def _block_constants_loop(spec, left_dim, samples, seed):
    """Reference: the constants from one scalar evaluation per draw and block."""
    rng = np.random.default_rng(seed)
    c1 = c2 = 0.0
    for _ in range(samples):
        x = rng.standard_normal(spec.dim)
        full = spec.value(x)
        left = np.concatenate([x[:left_dim], np.zeros(spec.dim - left_dim)])
        right = np.concatenate([np.zeros(left_dim), x[left_dim:]])
        block = max(spec.value(left), spec.value(right))
        if full == 0.0 or block == 0.0:
            continue
        c1 = max(c1, block / full)
        c2 = max(c2, full / block)
    return c1, c2


@pytest.mark.parametrize("spec,left_dim", [
    (EUCLID2, 1), (LpNorm(3.0, 4), 2), (L1Norm(3), 1),
    (PolyhedralNorm([[1.0, 0.0], [0.0, 1.0], [0.8, 0.6]]), 1),
    (ProductMaxNorm(EUCLID2, L1Norm(2)), 3)], ids=lambda v: getattr(v, "kind", str(v)))
def test_block_constants_match_the_scalar_loop(spec, left_dim):
    got = product_norm_constants(spec, left_dim, samples=3000, seed=5)
    assert got == pytest.approx(_block_constants_loop(spec, left_dim, 3000, 5), rel=1e-12)


def test_block_constants_max_norm_is_isometric():
    spec = ProductMaxNorm(EUCLID2, QuadraticNorm(np.eye(2)))
    c1, c2 = product_norm_constants(spec, 2, samples=2000)
    assert c1 == pytest.approx(1.0, abs=1e-9)
    assert c2 == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------------ construction

@pytest.mark.parametrize("build,message", [
    (lambda: norms.as_vector(np.empty(0)), "nonempty 1-D vector"),
    (lambda: LInfNorm(0), "dim must be >= 1"),
    (lambda: QuadraticNorm([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), "q must be a square matrix"),
    (lambda: PolyhedralNorm(np.zeros((0, 2))), "nonempty matrix of rows"),
    (lambda: ProductMaxNorm(EUCLID2, 2), "left and right must be norms"),
    (lambda: product_norm_constants(EUCLID2, 0), r"left_dim must lie in \(0, 2\)"),
    (lambda: product_norm_constants(EUCLID2, 1, samples=0), "samples must be positive"),
], ids=["empty-vector", "dim", "q-shape", "no-functionals", "product-blocks", "left-dim",
        "samples"])
def test_malformed_norms_and_arguments_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_spec_constructor_validation():
    with pytest.raises(ValueError):
        LpNorm(1.0, 2)
    with pytest.raises(ValueError):
        LpNorm(17.0, 2)
    with pytest.raises(ValueError):
        QuadraticNorm([[1.0, 0.5], [0.0, 1.0]])  # asymmetric
    with pytest.raises(ValueError):
        QuadraticNorm([[1.0, 0.0], [0.0, -1.0]])  # indefinite
    with pytest.raises(ValueError):
        PolyhedralNorm([[1.0, 0.0], [2.0, 0.0]])  # rank deficient


# ------------------------------------------------------------ serialization

ROUNDTRIP_SPECS = [
    {"type": "lp", "p": 4.0, "dim": 3},
    {"type": "l1", "dim": 2},
    {"type": "linf", "dim": 2},
    {"type": "quadratic", "q": [[2.0, 0.0], [0.0, 1.0]]},
    {"type": "polyhedral", "functionals": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]},
    {"type": "product_max", "left": {"type": "linf", "dim": 2},
     "right": {"type": "lp", "p": 1.5, "dim": 2}},
]


@pytest.mark.parametrize("data", ROUNDTRIP_SPECS, ids=lambda d: d["type"])
def test_spec_json_roundtrip(data):
    spec = spec_from_dict(data)
    assert spec_to_dict(spec) == data
    # the decoded copy is the same norm, derivative included
    copy = spec_from_dict(spec.to_dict())
    x = generic_point(np.random.default_rng(71), spec.dim, min_abs=0.1)
    assert copy.value(x) == spec.value(x)
    assert np.array_equal(analytic_gradient(copy, x).coeffs,
                          analytic_gradient(spec, x).coeffs)


AXIOM_DICTS = [
    {"type": "quadratic", "q": [[2.0, 0.3], [0.3, 1.0]]},
    {"type": "lp", "p": 3.0, "dim": 3},
    {"type": "lp", "p": 1.5, "dim": 2},
    {"type": "l1", "dim": 3},
    {"type": "linf", "dim": 3},
    {"type": "polyhedral", "functionals": [[1.0, 0.0], [0.0, 1.0], [0.8, 0.6]]},
    {"type": "product_max", "left": {"type": "quadratic", "q": [[1.0, 0.0], [0.0, 1.0]]},
     "right": {"type": "l1", "dim": 2}},
]


TO_DICT_CASES = list(zip(AXIOM_SPECS, AXIOM_DICTS)) + [
    (LpNorm(4, np.int64(3)), {"type": "lp", "p": 4.0, "dim": 3}),
    (L1Norm(np.int32(2)), {"type": "l1", "dim": 2}),
]


@pytest.mark.parametrize("spec,data", TO_DICT_CASES, ids=[d["type"] for _, d in TO_DICT_CASES])
def test_to_dict_is_the_type_tag_then_the_fields(spec, data):
    # json.dumps tells 4 from 4.0; fields are stored as JSON types at construction
    assert json.dumps(spec.to_dict()) == json.dumps(data)
    assert type(spec.dim) is int
    if isinstance(spec, LpNorm):
        assert type(spec.p) is float


def test_every_family_is_registered():
    # a NormSpec subclass missing from the registry could not be decoded
    families, todo = [], [NormSpec]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__ == norms.__name__ and cls is not NormSpec:
            families.append(cls)
    for cls in families:
        assert norms._FAMILIES.get(getattr(cls, "kind", None)) is cls, cls.__name__
    assert {d["type"] for d in ROUNDTRIP_SPECS} == set(norms._FAMILIES)


@pytest.mark.parametrize("data", [
    {"type": "lp", "p": None, "dim": 3},
    {"type": "lp", "p": {}, "dim": 3},
    {"type": "lp", "p": 4.0, "dim": 3.0},
    {"type": "quadratic", "q": {}},
    {"type": "polyhedral", "functionals": [[1.0, "a"]]},
    {"type": "product_max", "left": [], "right": {"type": "l1", "dim": 1}},
], ids=["p-null", "p-object", "dim-float", "q-object", "functionals-text",
        "left-list"])
def test_spec_from_dict_rejects_malformed_field_types(data):
    with pytest.raises(ValueError):
        spec_from_dict(data)


@pytest.mark.parametrize("data", [
    {"type": "lp", "p": "4", "dim": 3},
    {"type": "lp", "p": True, "dim": 3},
    {"type": "lp", "p": 10**400, "dim": 3},
    {"type": "quadratic", "q": [["1", "0"], ["0", "2"]]},
    {"type": "quadratic", "q": [[True, False], [False, True]]},
    {"type": "polyhedral", "functionals": [[True, False], [False, True]]},
    {"type": "polyhedral", "functionals": [["1", "0"], ["0", "1"]]},
], ids=["p-text", "p-bool", "p-huge-int", "q-text", "q-bool", "functionals-bool",
        "functionals-text"])
def test_spec_fields_must_be_float_numbers(data):
    # text and booleans are not numbers, and an exponent must fit a float
    with pytest.raises(ValueError):
        spec_from_dict(data)


@pytest.mark.parametrize("q", [[[np.inf, 0.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]])
def test_quadratic_rejects_non_finite_q(q):
    with pytest.raises(ValueError, match="q must be finite"):
        QuadraticNorm(q)


def test_polyhedral_leaves_the_callers_array_writable():
    f = np.array([[1.0, 0.0], [0.0, 1.0]])
    spec = PolyhedralNorm(f)
    assert f.flags.writeable and not spec.functionals.flags.writeable


def test_spec_from_dict_rejects_unknown_type():
    with pytest.raises(ValueError, match="unknown norm type"):
        spec_from_dict({"type": "lorentz", "dim": 2})
    with pytest.raises(ValueError, match="unknown norm type"):
        spec_from_dict({"type": ["lp"], "dim": 3})  # unhashable


def test_spec_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown fields"):
        spec_from_dict({"type": "linf", "dim": 2, "extra": 1})


def test_spec_from_dict_rejects_missing_fields():
    with pytest.raises(ValueError, match="missing fields"):
        spec_from_dict({"type": "lp", "dim": 2})
