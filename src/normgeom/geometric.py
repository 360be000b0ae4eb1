"""Reconstruct the norm's derivative from sphere geometry alone.

Nothing here differentiates the norm directly. The tangent hyperplane is
estimated from nearby sphere samples, the derivative functional is then
pinned down by two linear conditions (vanish on the tangent, reproduce
the norm on the base point), and the central-difference oracle serves
only as the independent cross-check. The round-trip engine runs this
direction against the chart construction and flags any point where one
side succeeds while the other fails.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from ._linalg import (Array, frozen_copy, positive_finite, sample_design, tangent_basis,
                      vector_length)
from .errors import (DecompositionError, EstimationError, GeometryError, NonManifoldSuspected,
                     NotDifferentiableError)
from .charts import _build_chart, _image_checks
from .norms import (GradientFunctional, NormSpec, Rows, Vector, _checked_base, _fd_gradient,
                    _fd_step, _scaled_base, _unit_rows, as_vector, eval_norm)

#: Fit residuals above this fraction of the sample radius mean "not flat":
#: a smooth sphere's residual is o(radius) while a corner's is Theta(radius).
NON_MANIFOLD_RESIDUAL_FRACTION = 0.1

#: ``directional_expansion_check`` probes at scales 10**-k of |e0|, one per k.
_EXPANSION_EXPONENTS = (2, 3, 4, 5)
#: Largest ratio at the finest scale that still counts as first-order flat.
_EXPANSION_FINAL_TOL = 1e-3


@dataclass(frozen=True, eq=False)
class EstimatedTangent:
    """Tangent hyperplane of a sphere fitted from samples, with residual.

    ``residual`` is the largest distance of a fitting sample from the
    fitted hyperplane; the constructor enforces that it is finite, >= 0
    and below the non-manifold threshold of a finite positive radius, so
    holding an instance is itself a flatness certificate at that radius.
    """

    base_point: Array
    basis: Array  # (dim - 1, dim) orthonormal rows
    sample_radius: float
    residual: float

    def __post_init__(self):
        base = frozen_copy(as_vector(self.base_point))
        basis = tangent_basis(self.basis, base.size)
        radius = positive_finite(self.sample_radius, "sample_radius")
        if not (0.0 <= self.residual < np.inf):
            raise ValueError(f"residual must be finite and >= 0, got {self.residual!r}")
        if self.residual > NON_MANIFOLD_RESIDUAL_FRACTION * radius:
            raise ValueError("residual exceeds the flatness threshold")
        object.__setattr__(self, "base_point", base)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "sample_radius", radius)


def estimate_tangent(spec: NormSpec, e0, sample_radius: float) -> EstimatedTangent:
    """Fit the sphere's tangent hyperplane at ``e0`` from nearby samples.

    Samples are the 6n fixed ``sample_design`` perturbations of ``e0``
    scaled back onto the sphere through ``e0``; the hyperplane through
    ``e0`` is the span of the leading singular directions of the centered
    differences. Raises NonManifoldSuspected when the residual is too
    large a fraction of the radius (corner or edge detected geometrically)
    and EstimationError when the samples are degenerate.

    Like ``geometric_check``, the fit runs at ``e0`` scaled by a power of
    two, with ``sample_radius`` checked in the caller's units and then
    scaled: the basis has degree 0 and keeps its bits at every scale. The
    result holds the caller's point, radius and residual, and a
    NonManifoldSuspected states its lengths in the caller's units.
    """
    e0 = as_vector(e0, spec.dim)
    S, norm, e, r = _scaled_base(spec, e0)
    radius = _sample_radius(spec, r, sample_radius)
    (fit,) = _estimate_tangent(spec, S[None], np.array([norm]),
                               np.array([math.ldexp(radius, -e)]))
    if isinstance(fit, NonManifoldSuspected):
        raise NonManifoldSuspected(
            *(math.ldexp(x, e) for x in (fit.residual, fit.sample_radius, fit.threshold)))
    if isinstance(fit, EstimationError):
        raise fit
    return EstimatedTangent(e0, fit.basis, math.ldexp(fit.sample_radius, e),
                            math.ldexp(fit.residual, e))


def _sample_radius(spec: NormSpec, r: float, sample_radius) -> float:
    """``sample_radius`` as a float, checked for a base point whose norm is ``r``."""
    if spec.dim < 2:
        raise ValueError("tangent estimation needs dimension >= 2")
    if r == 0.0:
        raise ValueError("base point must be nonzero")
    sample_radius = float(sample_radius)
    if not (0.0 < sample_radius <= 0.05 * r):
        raise ValueError(f"sample_radius must lie in (0, {0.05 * r:.3e}]")
    return sample_radius


def _estimate_tangent(spec: NormSpec, P: Rows, r: Vector,
                      radii: Vector) -> list[EstimatedTangent | EstimationError]:
    """``estimate_tangent`` at every checked row of ``P``, whose norms are
    ``r``, each at its checked sample radius: per row its tangent or the
    EstimationError it raises. Raises the ValueError of a tangent that its
    own checks refuse.

    The design's norms, the samples' norms and the SVDs are one stack each
    for all rows.
    """
    m, n = P.shape
    # sizes in the upper half of the radius keep per-sample evidence strong
    D, sizes = sample_design(n, 6 * n, 0.5)
    X = P[:, None] + D * (radii[:, None] * sizes / spec.values(D))[:, :, None]
    norms = spec.values(X.reshape(-1, n)).reshape(m, len(D))
    diffs = X * (r[:, None] / norms)[:, :, None] - P[:, None]

    _, singular, vt = np.linalg.svd(diffs, full_matrices=False)
    fits: list[EstimatedTangent | EstimationError] = []
    for i, radius in enumerate(radii.tolist()):
        if singular[i, n - 2] <= 1e-12 * singular[i, 0]:
            fits.append(EstimationError("sphere samples are degenerate; fit is rank deficient"))
            continue
        residual = float(np.max(np.abs(diffs[i] @ vt[i, n - 1])))
        threshold = NON_MANIFOLD_RESIDUAL_FRACTION * radius
        fits.append(NonManifoldSuspected(residual, radius, threshold) if residual > threshold
                    else EstimatedTangent(P[i], vt[i, : n - 1], radius, residual))
    return fits


def geometric_gradient(tangent: EstimatedTangent, spec: NormSpec) -> GradientFunctional:
    """Derivative functional determined by the tangent hyperplane alone.

    The unique functional that vanishes on the tangent basis and sends
    the base point to its norm. Applied to any h = tau + lambda * e0 it
    returns lambda * |e0|: the component of h along the ray, measured in
    norm units. With orthonormal basis rows B it is the closed form
    |e0| * nu / (nu . e0), where nu is the unit vector along w = e0 -
    B^T B e0, the part of e0 normal to the hyperplane; the result does not
    depend on the scale of e0, and no step squares it. Raises
    DecompositionError if the base point (numerically) lies inside the
    fitted hyperplane, |w|_2 <= 1e-10 |e0|_2.
    """
    return _geometric_gradient(tangent, eval_norm(spec, tangent.base_point))


def _geometric_gradient(tangent: EstimatedTangent, r: float) -> GradientFunctional:
    """``geometric_gradient`` with the base point's norm ``r`` given."""
    e0 = tangent.base_point
    basis = tangent.basis
    w = e0 - basis.T @ (basis @ e0)
    w_len = vector_length(w)
    if w_len <= 1e-10 * vector_length(e0):
        raise DecompositionError("base point lies in the estimated tangent; "
                                 "the estimation must have failed")
    normal = w / w_len
    return GradientFunctional(r * normal / (normal @ e0))


@dataclass(frozen=True, eq=False)
class ExpansionRow:
    """Ratios of norm increments to step size at one probe scale."""

    scale: float
    tangent_ratio: float
    mixed_ratio: float

    def to_dict(self) -> dict:
        return {"scale": self.scale, "tangent_ratio": self.tangent_ratio,
                "mixed_ratio": self.mixed_ratio}


@dataclass(frozen=True, eq=False)
class ExpansionReport:
    """First-order expansion diagnostics along tangent and mixed directions."""

    rows: tuple[ExpansionRow, ...]
    tangent_ok: bool
    mixed_ok: bool

    @property
    def passed(self) -> bool:
        return self.tangent_ok and self.mixed_ok

    def to_dict(self) -> dict:
        return {"rows": [row.to_dict() for row in self.rows],
                "tangent_ok": self.tangent_ok, "mixed_ok": self.mixed_ok,
                "passed": self.passed}


def _decaying(ratios: list[float]) -> bool:
    for a, b in zip(ratios, ratios[1:]):
        if b > 1.25 * a + 1e-12:
            return False
    return ratios[-1] <= _EXPANSION_FINAL_TOL


def directional_expansion_check(spec: NormSpec, e0, tangent) -> ExpansionReport:
    """Check that norm increments are first-order flat along the tangent.

    For tangent steps tau the increment |e0 + tau| - |e0| must vanish
    faster than |tau| (ratios decay to ~0); for mixed steps tau +
    lambda * e0 the increment minus lambda * |e0| must vanish faster than
    the step. A direction that mixes facets of a corner keeps the ratio
    pinned at unit size and fails the report.

    Every step of every scale is evaluated in one stack.
    """
    e0, r = _checked_base(spec, e0)
    if r == 0.0:
        raise ValueError("base point must be nonzero")
    basis = np.atleast_2d(np.asarray(tangent.basis, dtype=float))
    # scalar powers: an array 10.0 ** k may differ from them in the last bit
    lam = np.array([10.0 ** (-float(k)) for k in _EXPANSION_EXPONENTS])
    tau = (r * lam)[:, None, None] * basis  # (scale, basis row, coordinate)
    h = tau + lam[:, None, None] * e0
    steps = np.stack([tau, e0 + tau, h, e0 + h])
    norms = spec.values(steps.reshape(-1, e0.size))
    tau_len, moved, h_len, mixed = norms.reshape(steps.shape[:3])
    worst_tangent = (np.abs(moved - r) / tau_len).max(axis=1, initial=0.0)
    worst_mixed = (np.abs(mixed - r - lam[:, None] * r) / h_len).max(axis=1, initial=0.0)
    rows = tuple(ExpansionRow(float(s), float(a), float(b))
                 for s, a, b in zip(r * lam, worst_tangent, worst_mixed))
    tangent_ok = _decaying([row.tangent_ratio for row in rows])
    mixed_ok = _decaying([row.mixed_ratio for row in rows])
    return ExpansionReport(rows, tangent_ok, mixed_ok)


@dataclass(frozen=True, eq=False)
class RoundtripReport:
    """Agreement record between the analytic and geometric routes at one point."""

    point: Array
    smooth: bool
    manifold_flat: bool
    grad_fd: Array | None
    grad_geom: Array | None
    max_discrepancy: float | None
    chart_residual: float | None
    verdict: str

    def to_dict(self) -> dict:
        return {
            "point": np.asarray(self.point, dtype=float).tolist(),
            "smooth": self.smooth,
            "grad_fd": None if self.grad_fd is None else np.asarray(self.grad_fd).tolist(),
            "grad_geom": None if self.grad_geom is None else np.asarray(self.grad_geom).tolist(),
            "max_discrepancy": self.max_discrepancy,
            "chart_residual": self.chart_residual,
            "verdict": self.verdict,
        }


@dataclass(frozen=True, eq=False)
class GeometricCheck:
    """The sample-only derivative route at one point, against the fd oracle.

    ``error`` says why the samples gave no tangent; without it, the two
    gradients and their discrepancy are set.
    """

    gradient_tol: float
    error: EstimationError | None = None
    grad_fd: Array | None = None
    grad_geom: Array | None = None
    discrepancy: float | None = None


def geometric_check(spec: NormSpec, e0, *, sample_radius: float | None = None,
                    gradient_tol: float | None = None) -> GeometricCheck:
    """Estimate the tangent at ``e0``, rebuild the derivative, compare with fd.

    Defaults: ``sample_radius`` = 1e-3 * |e0|, ``gradient_tol`` =
    10 * sample_radius / |e0|. A given ``gradient_tol`` must be finite and
    positive. Without a tangent, fd is not computed.

    Like the roundtrip, the check runs at ``e0`` scaled by a power of two,
    with a given ``sample_radius`` checked in the caller's units and then
    scaled; a NonManifoldSuspected reports its lengths in the caller's units.
    """
    S, norm, e, _ = _scaled_base(spec, e0)
    _, radius, tol = _scaled_settings(spec, norm, e, sample_radius, gradient_tol)
    (check,) = _geometric_checks(spec, S[None], np.array([norm]), np.array([radius]), [tol])
    error = check.error
    if isinstance(error, NonManifoldSuspected):
        check = GeometricCheck(tol, NonManifoldSuspected(
            *(math.ldexp(x, e) for x in (error.residual, error.sample_radius, error.threshold))))
    return check


def _fit_settings(spec: NormSpec, r: float, sample_radius: float | None,
                  gradient_tol: float | None) -> tuple[float, float]:
    """``geometric_check``'s sample radius and gradient tolerance at a point
    whose norm is ``r``, defaulted and checked."""
    if r == 0.0:
        raise ValueError("base point must be nonzero")
    if sample_radius is None:
        sample_radius = 1e-3 * r
    if gradient_tol is None:
        gradient_tol = 10.0 * sample_radius / r
    else:
        gradient_tol = positive_finite(gradient_tol, "gradient_tol")
    return _sample_radius(spec, r, sample_radius), gradient_tol


def _geometric_checks(spec: NormSpec, P: Rows, r: Vector, radii: Vector, tols: list[float],
                      fd: list[GradientFunctional] | None = None) -> list[GeometricCheck]:
    """``geometric_check`` at every checked row of ``P``, whose norms are
    ``r``, with its checked sample radius and gradient tolerance.

    ``fd`` holds the fd oracle at every row; without it, the oracle is
    computed at each row that gets a tangent.
    """
    checks: list[GeometricCheck] = []
    for i, fit in enumerate(_estimate_tangent(spec, P, r, radii)):
        if isinstance(fit, EstimationError):  # NonManifoldSuspected included
            checks.append(GeometricCheck(tols[i], fit))
            continue
        grad_geom = _geometric_gradient(fit, r[i]).coeffs
        if fd is None:
            grad_fd = frozen_copy(_fd_gradient(spec, P[i:i + 1], np.array([_fd_step(r[i])]))[0])
        else:
            grad_fd = fd[i].coeffs
        checks.append(GeometricCheck(tols[i], None, grad_fd, grad_geom,
                                     float(np.max(np.abs(grad_geom - grad_fd)))))
    return checks


def equivalence_roundtrip(spec: NormSpec, e0, *, sample_radius: float | None = None,
                          seed: int = 0, gradient_tol: float | None = None) -> RoundtripReport:
    """Run both derivative routes at ``e0`` and cross-check them.

    Route one: build the chart, whose tangent frame classifies the point,
    and verify it exchanges sphere and tangent hyperplane. Route two,
    ``geometric_check``: rebuild the derivative from sampled tangents and
    compare it with the central-difference oracle. A consistent point
    either passes both routes or fails both (corner detected analytically
    and geometrically); anything else is reported as a violation, which a
    correct implementation should never produce. The norm of ``e0`` and
    the central-difference oracle there are computed once and passed to
    both routes: the classifier checks its slopes against the oracle,
    and route two compares the rebuilt derivative with it. ``seed`` seeds
    only the classifier's random directions. This is the one-point case of
    the stacked roundtrip that the ``roundtrip`` command runs on a whole
    points file, with the same bits.
    """
    e0 = as_vector(e0, spec.dim)
    return _roundtrips(spec, e0[None], [seed], sample_radius, gradient_tol)[0]


def _roundtrips(spec: NormSpec, P: Rows, seeds: list[int], sample_radius: float | None,
                gradient_tol: float | None) -> list[RoundtripReport]:
    """``equivalence_roundtrip`` at every checked row of ``P``, row i with
    seed ``seeds[i]``.

    Every stage but the classifier makes one ``values`` call for all rows:
    |e0|, the fd oracle, the tangent fit, and the image check with each of
    its Newton iterations. The classifier runs per row. When a row raises,
    the rows run again one at a time, so the error raised is the one that
    a loop of ``equivalence_roundtrip`` over the rows raises first.
    """
    try:
        return _roundtrip_stack(spec, P, seeds, sample_radius, gradient_tol)
    except (ValueError, GeometryError):
        if len(P) == 1:
            raise
    return [_roundtrips(spec, P[i:i + 1], seeds[i:i + 1], sample_radius, gradient_tol)[0]
            for i in range(len(P))]


def _scaled_settings(spec: NormSpec, norm: float, e: int, sample_radius: float | None,
                     gradient_tol: float | None) -> tuple[float, float, float]:
    """The fd step, sample radius and gradient tolerance of a row scaled by
    2**-e, whose norm is ``norm``. A given ``sample_radius`` is checked in
    the caller's units, at the norm 2**e * norm, and then scaled."""
    if norm == 0.0:
        raise ValueError("base point must be nonzero")
    if sample_radius is not None:
        with np.errstate(over="ignore"):  # a norm past the float range reads inf
            radius, _ = _fit_settings(spec, float(np.ldexp(norm, e)), sample_radius, gradient_tol)
        sample_radius = math.ldexp(radius, -e)
    return (_fd_step(norm), *_fit_settings(spec, norm, sample_radius, gradient_tol))


def _roundtrip_stack(spec: NormSpec, P: Rows, seeds: list[int], sample_radius: float | None,
                     gradient_tol: float | None) -> list[RoundtripReport]:
    """``_roundtrips`` in one stack: the first stage that a row fails raises.

    Every stage runs on the rows scaled by the power of two that puts each
    row's largest |entry| in [0.5, 1). That is exact, and it keeps every
    norm, step and sample radius clear of over- and underflow; the reports
    hold the caller's points.
    """
    S, exponents = _unit_rows(P)
    r = spec.values(S)
    norms = r.tolist()
    steps, radii, tols = zip(*(_scaled_settings(spec, norm, e, sample_radius, gradient_tol)
                               for norm, e in zip(norms, exponents.tolist())))
    fd = [GradientFunctional(row) for row in _fd_gradient(spec, S, np.array(steps))]
    checks = _geometric_checks(spec, S, r, np.array(radii), tols, fd)

    charts = []
    for e0, norm, seed, grad in zip(S, norms, seeds, fd):
        try:
            charts.append(_build_chart(spec, e0, norm, None, seed, grad))
        except NotDifferentiableError:  # the chart's classifier found a corner
            charts.append(None)

    built = [chart for chart in charts if chart is not None]
    images = iter(_image_checks(spec, built, samples=32) if built else ())
    reports = []
    for x, check, chart in zip(P, checks, charts):
        smooth = chart is not None
        chart_residual = None
        chart_ok = False
        if smooth:
            image = next(images)
            chart_residual = max(image.max_ray_component, image.max_norm_defect)
            chart_ok = image.passed
        flat = check.error is None
        consistent = (smooth and flat and chart_ok and check.discrepancy <= check.gradient_tol) \
            or (not smooth and not flat)
        reports.append(RoundtripReport(
            point=frozen_copy(x), smooth=smooth, manifold_flat=flat,
            grad_fd=check.grad_fd, grad_geom=check.grad_geom,
            max_discrepancy=check.discrepancy, chart_residual=chart_residual,
            verdict="consistent" if consistent else "violation"))
    return reports
