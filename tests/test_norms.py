import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normgeom import (DEFAULT_STEP_SEQUENCE, L1Norm, LInfNorm, LpNorm,
                      NormSpec, NotDifferentiableError, PolyhedralNorm,
                      ProductMaxNorm, QuadraticNorm, analytic_gradient,
                      classify_point, eval_norm, fd_gradient, norms,
                      one_sided_derivative, product_embed,
                      product_norm_constants, product_split, spec_from_dict,
                      spec_to_dict)
from helpers import (FAMILIES, TIE_FAMILIES, central_diff_gradient, generic_point,
                     smooth_specs, tie_point)

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
        assert v == pytest.approx(spec.value(x), rel=1e-15, abs=0.0)


def test_values_checks_the_stack():
    spec = LpNorm(3.0, 2)
    for bad in ([1.0, 2.0], [[1.0, 2.0, 3.0]], [[1.0, np.nan]], [[np.inf, 0.0]]):
        with pytest.raises(ValueError):
            spec.values(bad)
    assert spec.values(np.empty((0, 2))).shape == (0,)


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


def test_one_sided_step_sequence_validation():
    with pytest.raises(ValueError):
        one_sided_derivative(EUCLID2, [1.0, 0.0], [0.0, 1.0],
                             step_sequence=(1e-4, 1e-3))
    with pytest.raises(ValueError):
        one_sided_derivative(EUCLID2, [1.0, 0.0], [0.0, 0.0])


def test_default_step_sequence_matches_published_grid():
    assert DEFAULT_STEP_SEQUENCE == (1e-3, 1e-4, 1e-5)


# ------------------------------------------------------------- classifier

def test_classify_corner_of_max_norm():
    verdict = classify_point(LInfNorm(2), [1.0, 1.0])
    assert not verdict.smooth
    # worst violating direction must be at least as bad as the coordinate one
    assert verdict.violation >= 1.0 - 1e-9
    assert verdict.right_deriv - verdict.left_deriv > 1e-6


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
    assert np.array_equal(scaled.point, t * x)
    if verdict.smooth:
        assert np.array_equal(scaled.gradient.base_point, t * x)
        assert scaled.gradient.coeffs == pytest.approx(verdict.gradient.coeffs, abs=1e-9)


def test_classify_budget_validation():
    with pytest.raises(ValueError):
        classify_point(EUCLID2, [0.0, 0.0])


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
