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

from ._linalg import Array, frozen_copy, sized_directions
from .errors import (DecompositionError, EstimationError, NonManifoldSuspected,
                     NotDifferentiableError)
from .charts import build_chart, sphere_chart_image_check
from .norms import GradientFunctional, NormSpec, as_vector, eval_norm, fd_gradient

#: Fit residuals above this fraction of the sample radius mean "not flat":
#: a smooth sphere's residual is o(radius) while a corner's is Theta(radius).
NON_MANIFOLD_RESIDUAL_FRACTION = 0.1


@dataclass(frozen=True, eq=False)
class EstimatedTangent:
    """Tangent hyperplane of a sphere fitted from samples, with residual.

    ``residual`` is the largest distance of a fitting sample from the
    fitted hyperplane; the constructor enforces that it stays below the
    non-manifold threshold, so holding an instance is itself a flatness
    certificate at the given radius.
    """

    base_point: Array
    basis: Array  # (dim - 1, dim) orthonormal rows
    sample_radius: float
    residual: float

    def __post_init__(self):
        base = frozen_copy(as_vector(self.base_point))
        n = base.size
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if basis.shape != (n - 1, n):
            raise ValueError(f"basis must have shape {(n - 1, n)}")
        if self.sample_radius <= 0.0:
            raise ValueError("sample_radius must be positive")
        if self.residual > NON_MANIFOLD_RESIDUAL_FRACTION * self.sample_radius:
            raise ValueError("residual exceeds the flatness threshold")
        if np.linalg.matrix_rank(basis) < n - 1:
            raise ValueError("tangent basis is rank deficient")
        object.__setattr__(self, "base_point", base)
        object.__setattr__(self, "basis", frozen_copy(basis))


@dataclass(frozen=True, eq=False)
class GeometricDerivative:
    """Derivative functional obtained from an estimated tangent."""

    functional: GradientFunctional
    tangent: EstimatedTangent


def estimate_tangent(spec: NormSpec, e0, sample_radius: float,
                     samples: int | None = None, *, seed: int = 0) -> EstimatedTangent:
    """Fit the sphere's tangent hyperplane at ``e0`` from nearby samples.

    Samples are random perturbations of ``e0`` scaled back onto the
    sphere through ``e0``; the hyperplane through ``e0`` is the span of
    the leading singular directions of the centered differences. Raises
    NonManifoldSuspected when the residual is too large a fraction of the
    radius (corner or edge detected geometrically) and EstimationError
    when the samples are degenerate.
    """
    e0 = as_vector(e0, spec.dim)
    n = spec.dim
    if n < 2:
        raise ValueError("tangent estimation needs dimension >= 2")
    r = eval_norm(spec, e0)
    if r == 0.0:
        raise ValueError("base point must be nonzero")
    sample_radius = float(sample_radius)
    if not (0.0 < sample_radius <= 0.05 * r):
        raise ValueError(f"sample_radius must lie in (0, {0.05 * r:.3e}]")
    if samples is None:
        # enough samples that a corner cannot hide on one facet by chance
        samples = max(4 * n, 16)
    if samples < 4 * n:
        raise ValueError(f"need at least {4 * n} samples")

    # sizes in the upper half of the radius keep per-sample evidence strong
    D, sizes = sized_directions(np.random.default_rng(seed), samples, n, 0.5)
    X = e0 + D * (sample_radius * sizes / spec.values(D))[:, None]
    diffs = X * (r / spec.values(X))[:, None] - e0

    _, singular, vt = np.linalg.svd(diffs, full_matrices=True)
    if singular[n - 2] <= 1e-12 * singular[0]:
        raise EstimationError("sphere samples are degenerate; fit is rank deficient")
    normal = vt[n - 1]
    residual = float(np.max(np.abs(diffs @ normal)))
    if residual > NON_MANIFOLD_RESIDUAL_FRACTION * sample_radius:
        raise NonManifoldSuspected(e0, residual, sample_radius)
    return EstimatedTangent(e0, vt[: n - 1], sample_radius, residual)


def geometric_gradient(tangent: EstimatedTangent, spec: NormSpec) -> GeometricDerivative:
    """Derivative functional determined by the tangent hyperplane alone.

    Solves for the unique functional that vanishes on the tangent basis
    and sends the base point to its norm. Applied to any h = tau +
    lambda * e0 it returns lambda * |e0|: the component of h along the
    ray, measured in norm units. Raises DecompositionError if the base
    point (numerically) lies inside the fitted hyperplane. The base point
    enters as e0 / |e0| with right-hand side 1, so the system's
    conditioning does not depend on the scale of e0.
    """
    e0 = tangent.base_point
    system = np.vstack([tangent.basis, e0 / eval_norm(spec, e0)])
    singular = np.linalg.svd(system, compute_uv=False)
    if singular[-1] <= 1e-10 * singular[0]:
        raise DecompositionError("base point lies in the estimated tangent; "
                                 "the estimation must have failed")
    rhs = np.zeros(e0.size)
    rhs[-1] = 1.0
    coeffs = np.linalg.solve(system, rhs)
    return GeometricDerivative(GradientFunctional(coeffs, e0), tangent)


@dataclass(eq=False)
class ExpansionRow:
    """Ratios of norm increments to step size at one probe scale."""

    scale: float
    tangent_ratio: float
    mixed_ratio: float

    def to_dict(self) -> dict:
        return {"scale": self.scale, "tangent_ratio": self.tangent_ratio,
                "mixed_ratio": self.mixed_ratio}


@dataclass(eq=False)
class ExpansionReport:
    """First-order expansion diagnostics along tangent and mixed directions."""

    rows: list
    tangent_ok: bool
    mixed_ok: bool

    @property
    def passed(self) -> bool:
        return self.tangent_ok and self.mixed_ok

    def to_dict(self) -> dict:
        return {"rows": [row.to_dict() for row in self.rows],
                "tangent_ok": self.tangent_ok, "mixed_ok": self.mixed_ok,
                "passed": self.passed}


def _decaying(ratios: list[float], final_tol: float) -> bool:
    if not ratios:
        return True
    for a, b in zip(ratios, ratios[1:]):
        if b > 1.25 * a + 1e-12:
            return False
    return ratios[-1] <= final_tol


def directional_expansion_check(spec: NormSpec, e0, tangent, *,
                                exponents=(2, 3, 4, 5),
                                final_tol: float = 1e-3) -> ExpansionReport:
    """Check that norm increments are first-order flat along the tangent.

    For tangent steps tau the increment |e0 + tau| - |e0| must vanish
    faster than |tau| (ratios decay to ~0); for mixed steps tau +
    lambda * e0 the increment minus lambda * |e0| must vanish faster than
    the step. A direction that mixes facets of a corner keeps the ratio
    pinned at unit size and fails the report.
    """
    e0 = as_vector(e0, spec.dim)
    r = eval_norm(spec, e0)
    basis = np.atleast_2d(np.asarray(tangent.basis, dtype=float))
    rows = []
    for k in exponents:
        scale = r * 10.0 ** (-float(k))
        lam = 10.0 ** (-float(k))
        worst_tangent = 0.0
        worst_mixed = 0.0
        for b in basis:
            tau = scale * b
            tau_len = eval_norm(spec, tau)
            worst_tangent = max(worst_tangent,
                                abs(eval_norm(spec, e0 + tau) - r) / tau_len)
            h = tau + lam * e0
            worst_mixed = max(worst_mixed,
                              abs(eval_norm(spec, e0 + h) - r - lam * r)
                              / eval_norm(spec, h))
        rows.append(ExpansionRow(scale, worst_tangent, worst_mixed))
    tangent_ok = _decaying([row.tangent_ratio for row in rows], final_tol)
    mixed_ok = _decaying([row.mixed_ratio for row in rows], final_tol)
    return ExpansionReport(rows, tangent_ok, mixed_ok)


@dataclass(eq=False)
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
                    gradient_tol: float | None = None, seed: int = 0) -> GeometricCheck:
    """Estimate the tangent at ``e0``, rebuild the derivative, compare with fd.

    Defaults: ``sample_radius`` = 1e-3 * |e0|, ``gradient_tol`` =
    10 * sample_radius / |e0|. Without a tangent, fd is not computed.
    """
    e0 = as_vector(e0, spec.dim)
    r = eval_norm(spec, e0)
    if r == 0.0:
        raise ValueError("base point must be nonzero")
    if sample_radius is None:
        sample_radius = 1e-3 * r
    if gradient_tol is None:
        gradient_tol = 10.0 * sample_radius / r
    try:
        tangent = estimate_tangent(spec, e0, sample_radius, seed=seed)
    except EstimationError as exc:  # NonManifoldSuspected included
        return GeometricCheck(gradient_tol, exc)
    grad_geom = geometric_gradient(tangent, spec).functional.coeffs
    grad_fd = fd_gradient(spec, e0).coeffs
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
    correct implementation should never produce.
    """
    e0 = as_vector(e0, spec.dim)
    geo = geometric_check(spec, e0, sample_radius=sample_radius,
                          gradient_tol=gradient_tol, seed=seed)
    smooth = True
    chart_residual = None
    chart_ok = False
    try:
        chart = build_chart(spec, e0, seed=seed)
        image = sphere_chart_image_check(spec, chart, samples=32, seed=seed)
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
