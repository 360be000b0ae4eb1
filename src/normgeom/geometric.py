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

import numpy as np

from ._linalg import (Array, frozen_copy, positive_finite, sample_design, tangent_basis,
                      vector_length)
from .errors import (DecompositionError, EstimationError, NonManifoldSuspected,
                     NotDifferentiableError)
from .charts import _build_chart, sphere_chart_image_check
from .norms import GradientFunctional, NormSpec, _fd_gradient, as_vector, eval_norm

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
    """
    e0 = as_vector(e0, spec.dim)
    return _estimate_tangent(spec, e0, eval_norm(spec, e0), sample_radius)


def _estimate_tangent(spec: NormSpec, e0: Array, r: float,
                      sample_radius: float) -> EstimatedTangent:
    """``estimate_tangent`` at a checked ``e0`` whose norm is ``r``."""
    n = spec.dim
    if n < 2:
        raise ValueError("tangent estimation needs dimension >= 2")
    if r == 0.0:
        raise ValueError("base point must be nonzero")
    sample_radius = float(sample_radius)
    if not (0.0 < sample_radius <= 0.05 * r):
        raise ValueError(f"sample_radius must lie in (0, {0.05 * r:.3e}]")

    # sizes in the upper half of the radius keep per-sample evidence strong
    D, sizes = sample_design(n, 6 * n, 0.5)
    X = e0 + D * (sample_radius * sizes / spec.values(D))[:, None]
    diffs = X * (r / spec.values(X))[:, None] - e0

    _, singular, vt = np.linalg.svd(diffs, full_matrices=False)
    if singular[n - 2] <= 1e-12 * singular[0]:
        raise EstimationError("sphere samples are degenerate; fit is rank deficient")
    normal = vt[n - 1]
    residual = float(np.max(np.abs(diffs @ normal)))
    threshold = NON_MANIFOLD_RESIDUAL_FRACTION * sample_radius
    if residual > threshold:
        raise NonManifoldSuspected(residual, sample_radius, threshold)
    return EstimatedTangent(e0, vt[: n - 1], sample_radius, residual)


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
    e0 = as_vector(e0, spec.dim)
    r = eval_norm(spec, e0)
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
    """
    e0 = as_vector(e0, spec.dim)
    return _geometric_check(spec, e0, eval_norm(spec, e0), sample_radius, gradient_tol)


def _geometric_check(spec: NormSpec, e0: Array, r: float, sample_radius: float | None,
                     gradient_tol: float | None,
                     fd: GradientFunctional | None = None) -> GeometricCheck:
    """``geometric_check`` at a checked ``e0`` whose norm is ``r``, against
    the fd oracle ``fd`` at e0 when given."""
    if r == 0.0:
        raise ValueError("base point must be nonzero")
    if sample_radius is None:
        sample_radius = 1e-3 * r
    if gradient_tol is None:
        gradient_tol = 10.0 * sample_radius / r
    else:
        gradient_tol = positive_finite(gradient_tol, "gradient_tol")
    try:
        tangent = _estimate_tangent(spec, e0, r, sample_radius)
    except EstimationError as exc:  # NonManifoldSuspected included
        return GeometricCheck(gradient_tol, exc)
    grad_geom = _geometric_gradient(tangent, r).coeffs
    grad_fd = (_fd_gradient(spec, e0, r) if fd is None else fd).coeffs
    return GeometricCheck(gradient_tol, None, grad_fd, grad_geom,
                          float(np.max(np.abs(grad_geom - grad_fd))))


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
    only the classifier's random directions.
    """
    e0 = as_vector(e0, spec.dim)
    r = eval_norm(spec, e0)
    if r == 0.0:
        raise ValueError("base point must be nonzero")
    fd = _fd_gradient(spec, e0, r)
    geo = _geometric_check(spec, e0, r, sample_radius, gradient_tol, fd)
    smooth = True
    chart_residual = None
    chart_ok = False
    try:
        chart = _build_chart(spec, e0, r, None, seed, fd)
        image = sphere_chart_image_check(spec, chart, samples=32)
        chart_residual = max(image.max_ray_component, image.max_norm_defect)
        chart_ok = image.passed
    except NotDifferentiableError:  # the chart's classifier found a corner
        smooth = False

    flat = geo.error is None
    consistent = (smooth and flat and chart_ok and geo.discrepancy <= geo.gradient_tol) \
        or (not smooth and not flat)
    return RoundtripReport(
        point=frozen_copy(e0), smooth=smooth, manifold_flat=flat,
        grad_fd=geo.grad_fd, grad_geom=geo.grad_geom,
        max_discrepancy=geo.discrepancy, chart_residual=chart_residual,
        verdict="consistent" if consistent else "violation")
