"""Local charts on norm spheres and the projection algebra around a point.

Around a smooth nonzero base point the space splits into the tangent
hyperplane of the sphere (the null space of the norm's derivative) and
the ray through the point. The chart built here maps a neighborhood onto
that tangent hyperplane while absorbing the norm defect along the ray,
so the norm becomes affine in chart coordinates:

    |e| = g(phi(e)) + |e0|        with g the derivative functional at e0.

Sphere points map into the hyperplane, hyperplane points map back onto
the sphere, and the chart derivative at the base point is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import (Array, frozen_copy, oblique_projection,
                      orthonormal_complement, sized_directions)
from .errors import (ChartDomainError, ConvergenceError, DecompositionError,
                     GeometryError, NotDifferentiableError)
from .norms import (GradientFunctional, NormSpec, as_rows, as_vector, classify_point,
                    eval_norm)

#: Slack applied to domain-membership checks, relative to the radius.
_DOMAIN_SLACK = 1e-9

_NEWTON_MAX_ITER = 50


@dataclass(frozen=True, eq=False)
class TangentFrame:
    """Base point plus a basis of the sphere's tangent hyperplane there.

    The tangent hyperplane is the null space of ``gradient``; the base
    point never lies in it, which is what makes the hyperplane a
    codimension-1 complement of the ray.
    """

    base_point: Array
    basis: Array  # (dim - 1, dim), rows span the tangent hyperplane
    gradient: GradientFunctional

    def __post_init__(self):
        base = frozen_copy(as_vector(self.base_point))
        n = base.size
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if n == 1:
            basis = basis.reshape(0, 1)
        if basis.shape != (n - 1, n):
            raise ValueError(f"basis must have shape {(n - 1, n)}, got {basis.shape}")
        g = self.gradient.coeffs
        if g.size != n:
            raise ValueError("gradient dimension mismatch")
        g_len = np.linalg.norm(g)
        if abs(g @ base) <= 1e-12 * g_len * np.linalg.norm(base):
            raise ValueError("base point lies in the tangent hyperplane")
        if not np.all(np.abs(basis @ g) <= 1e-9 * g_len * np.linalg.norm(basis, axis=1)):
            raise ValueError("basis vector not annihilated by the gradient")
        if n > 1 and np.linalg.matrix_rank(basis) < n - 1:
            raise ValueError("tangent basis is rank deficient")
        object.__setattr__(self, "base_point", base)
        object.__setattr__(self, "basis", frozen_copy(basis))

    @property
    def dim(self) -> int:
        return self.base_point.size


@dataclass(frozen=True, eq=False)
class ProjectionPair:
    """The complementary projections induced by a tangent frame.

    ``onto_ray`` maps onto the ray through the base point along the
    tangent hyperplane; ``onto_tangent`` is its complement. They sum to
    the identity and are each idempotent.
    """

    frame: TangentFrame
    onto_ray: Array
    onto_tangent: Array

    def __post_init__(self):
        object.__setattr__(self, "onto_ray", frozen_copy(self.onto_ray))
        object.__setattr__(self, "onto_tangent", frozen_copy(self.onto_tangent))


def tangent_frame(spec: NormSpec, e0, *, seed: int = 0) -> TangentFrame:
    """Tangent frame of the sphere through ``e0``.

    Requires a smooth point; the classifier runs first and a corner
    raises NotDifferentiableError. The tangent basis is the orthogonal
    completion of the gradient row, computed by SVD rather than
    elimination so near-axis gradients stay well conditioned.
    """
    e0 = as_vector(e0, spec.dim)
    verdict = classify_point(spec, e0, seed=seed)
    if not verdict.smooth:
        raise NotDifferentiableError(
            f"no tangent frame at a non-smooth point (violation "
            f"{verdict.violation:.3e} along {verdict.witness_direction})")
    grad = verdict.gradient
    return TangentFrame(e0, orthonormal_complement(grad.coeffs), grad)


def projection_pair(frame: TangentFrame) -> ProjectionPair:
    """Build the ray/tangent projection matrices for a frame."""
    e0 = frame.base_point
    g = frame.gradient.coeffs
    onto_ray = np.outer(e0, g) / frame.gradient.apply(e0)
    return ProjectionPair(frame, onto_ray, np.eye(e0.size) - onto_ray)


@dataclass(frozen=True, eq=False)
class Chart:
    """Local normal-form chart of the norm around a smooth base point.

    ``t_plus`` is the right inverse of the gradient functional realized
    along the ray, t_plus(r) = r * e0 / |e0|; composing it with the
    gradient reproduces the ray projection, and the gradient undoes it on
    scalars. ``domain_radius`` bounds the neighborhood, measured by the
    chart's own norm, on which the chart is treated as invertible.
    """

    spec: NormSpec
    frame: TangentFrame
    projections: ProjectionPair
    domain_radius: float
    base_norm: float

    def __post_init__(self):
        if self.domain_radius <= 0.0:
            raise ValueError("domain_radius must be positive")
        if self.base_norm <= 0.0:
            raise ValueError("base_norm must be positive")

    def t_plus(self, r: float) -> Array:
        return (float(r) / self.base_norm) * self.frame.base_point


def _forward(chart: Chart, E: Array, norms: Array) -> Array:
    """Chart images of the (checked) rows of ``E``, whose norms are ``norms``."""
    tangent_part = (chart.projections.onto_tangent @ E[:, :, None])[:, :, 0]
    defect = norms - chart.base_norm
    return tangent_part + (defect / chart.base_norm)[:, None] * chart.frame.base_point


def chart_forward_rows(chart: Chart, E) -> Array:
    """Chart images of the rows of ``E``; ``chart_forward`` on a whole stack."""
    E = as_rows(E, chart.frame.dim)
    offsets = chart.spec.values(E - chart.frame.base_point)
    outside = np.flatnonzero(offsets > chart.domain_radius * (1.0 + _DOMAIN_SLACK))
    if outside.size:
        raise ChartDomainError(
            f"point at distance {offsets[outside[0]]:.3e} exceeds domain radius "
            f"{chart.domain_radius:.3e}")
    return _forward(chart, E, chart.spec.values(E))


def chart_forward(chart: Chart, e) -> Array:
    """Chart image of ``e``: tangent component plus the norm defect on the ray."""
    return chart_forward_rows(chart, as_vector(e, chart.frame.dim)[None])[0]


def chart_inverse_rows(chart: Chart, C) -> tuple[Array, list[GeometryError | None]]:
    """Invert the chart at every row of ``C`` by one lockstep Newton iteration.

    Newton runs along the base ray only: the first iterate e0 + c already
    has the exact tangent part P_T c, and every step moves along e0 by the
    ray part of the residual over the slope g_E(e0) of the norm there (see
    ``build_chart``). All rows iterate together, and each retires once its
    residual is at most 1e-12 * |e0|. A row fails alone: outside the
    domain radius (ChartDomainError), or stalled, at a zero slope or at a
    non-finite iterate (ConvergenceError). Each iteration evaluates the
    norm of its iterates once. Returns the preimages, NaN on failed rows,
    and per row its error or None.
    """
    C = as_rows(C, chart.frame.dim)
    k = C.shape[0]
    errors: list[GeometryError | None] = [None] * k
    for i in np.flatnonzero(chart.spec.values(C) > chart.domain_radius * (1.0 + _DOMAIN_SLACK)):
        errors[i] = ChartDomainError("chart coordinates outside the domain radius")
    base = chart.frame.base_point
    g0 = chart.frame.gradient.coeffs
    g0_base = chart.frame.gradient.apply(base)
    scale = float(np.linalg.norm(base))
    E = base + C
    out = np.full_like(C, np.nan)
    best_res = np.full(k, np.inf)
    active = np.flatnonzero([err is None for err in errors])
    for _ in range(_NEWTON_MAX_ITER):
        finite = np.isfinite(E[active]).all(axis=1)
        for i in active[~finite]:
            errors[i] = ConvergenceError(
                "iterate left the admissible region: vector entries must be finite")
        active = active[finite]
        if not active.size:
            break
        Ea = E[active]
        norms = chart.spec.values(Ea)
        residuals = _forward(chart, Ea, norms) - C[active]
        res = np.linalg.norm(residuals, axis=1)
        better = res < best_res[active]
        out[active[better]] = Ea[better]
        best_res[active[better]] = res[better]
        done = res <= 1e-12 * scale
        out[active[done]] = Ea[done]
        active, Ea, norms, residuals = active[~done], Ea[~done], norms[~done], residuals[~done]
        slope = chart.spec._gradient_rows(Ea, norms) @ base
        usable = slope != 0.0
        for i in active[~usable]:
            errors[i] = ConvergenceError("newton step failed: zero slope along the ray")
        active, Ea, residuals, slope = (active[usable], Ea[usable], residuals[usable],
                                        slope[usable])
        step = chart.base_norm * (residuals @ g0) / g0_base / slope
        E[active] = Ea - step[:, None] * base
    for i in active:  # out of iterations: keep the best iterate if close enough
        if best_res[i] > 1e-10 * scale:
            errors[i] = ConvergenceError(
                f"newton stalled at residual {best_res[i]:.3e}; domain_radius "
                f"{chart.domain_radius:.3e} is likely too large")
    out[[i for i, err in enumerate(errors) if err is not None]] = np.nan
    return out, errors


def chart_inverse(chart: Chart, c) -> Array:
    """Invert the chart by Newton iteration on phi(e) = c along the base ray.

    Raises ConvergenceError when 50 iterations fail to reach the residual
    target, the sign of a too-large domain radius. The one-row case of
    ``chart_inverse_rows``.
    """
    E, (error,) = chart_inverse_rows(chart, as_vector(c, chart.frame.dim)[None])
    if error is not None:
        raise error
    return E[0]


def build_chart(spec: NormSpec, e0, domain_radius: float | None = None, *,
                seed: int = 0) -> Chart:
    """Construct the chart at ``e0``.

    An explicit ``domain_radius`` is used as given. The default is a
    quarter of the base norm, where Newton inverts every target c of the
    tangent hyperplane with |c| <= 0.9 * 0.25|e0|, so it needs no runtime
    test:

    - the Jacobian is J = P_T + e0 g^T / |e0| with P_T e0 = 0, so
      P_T J = P_T: the start e0 + c has the exact tangent part P_T c,
      and every Newton step moves along e0 alone, which is how
      ``chart_inverse_rows`` steps;
    - what remains is 1-D Newton on the convex map s -> |(1+s)e0 + c|
      from s = 0, where its slope is at least |e0| - 2|c| > 0 (the
      subgradient inequality |y - e0| >= |y| - g_y(e0) at y = e0 + c);
    - Newton on an increasing convex function converges monotonically
      from such a start, also with subgradients at a nearby kink
      (Ortega & Rheinboldt, *Iterative Solution of Nonlinear Equations
      in Several Variables*, 1970, section 13.3).

    A row that fails anyway stays visible as its error in
    ``chart_inverse_rows``.
    """
    frame = tangent_frame(spec, e0, seed=seed)
    r = eval_norm(spec, frame.base_point)
    if domain_radius is None:
        domain_radius = 0.25 * r
    elif domain_radius <= 0.0:
        raise ValueError("domain_radius must be positive")
    return Chart(spec, frame, projection_pair(frame), float(domain_radius), r)


@dataclass(eq=False)
class ChartImageReport:
    """Result of checking that a chart exchanges sphere and hyperplane."""

    samples: int
    max_ray_component: float
    max_norm_defect: float
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "max_ray_component": self.max_ray_component,
            "max_norm_defect": self.max_norm_defect,
            "failures": list(self.failures),
            "passed": self.passed,
        }


def sphere_chart_image_check(spec: NormSpec, chart: Chart, samples: int = 64, *,
                             seed: int = 0, ray_tol: float = 1e-9,
                             norm_tol: float = 1e-9) -> ChartImageReport:
    """Check both inclusions behind the chart's normal form.

    Sphere points near the base must map into the tangent hyperplane
    (vanishing ray component), and tangent vectors must map back onto the
    sphere (vanishing norm defect). Violations are collected into the
    report together with the offending points; nothing is raised.
    Components are measured relative to the sphere radius.
    """
    e0 = chart.frame.base_point
    n = e0.size
    r = chart.base_norm
    rng = np.random.default_rng(seed)
    rho = 0.4 * chart.domain_radius
    failures: list[dict] = []

    D, U = sized_directions(rng, samples, n, 0.05)
    E = e0 + D * (rho * U / spec.values(D))[:, None]
    E *= (r / spec.values(E))[:, None]
    ray = np.abs(chart_forward_rows(chart, E) @ chart.frame.gradient.coeffs) / r
    for e, value in zip(E, ray):
        if value > ray_tol:
            failures.append({"kind": "ray_component", "point": e.tolist(),
                             "value": float(value)})

    defect = np.empty(0)
    if n > 1:
        W, U = sized_directions(rng, samples, n - 1, 0.05)
        C = (chart.frame.basis.T @ W[:, :, None])[:, :, 0]
        C *= (rho * U / spec.values(C))[:, None]
        E, errors = chart_inverse_rows(chart, C)
        inverted = np.array([err is None for err in errors], dtype=bool)
        defect = np.abs(spec.values(E[inverted]) - r) / r
        defects = iter(defect)
        for c, e, err in zip(C, E, errors):
            if err is not None:
                failures.append({"kind": "inverse_convergence",
                                 "point": c.tolist(), "value": str(err)})
                continue
            value = float(next(defects))
            if value > norm_tol:
                failures.append({"kind": "norm_defect", "point": e.tolist(),
                                 "value": value})

    return ChartImageReport(samples=samples,
                            max_ray_component=float(ray.max(initial=0.0)),
                            max_norm_defect=float(defect.max(initial=0.0)),
                            failures=failures)


def scale_chart(chart: Chart, r: float) -> Chart:
    """Chart at r * e0 for the sphere of radius r * |e0|.

    The tangent basis is reused unchanged: spheres of a common norm have
    parallel tangent hyperplanes along each ray, and the gradient
    functional is degree-0 homogeneous.
    """
    r = float(r)
    if r <= 0.0:
        raise ValueError("scale factor must be positive")
    frame = chart.frame
    base = r * frame.base_point
    grad = GradientFunctional(frame.gradient.coeffs, base)
    new_frame = TangentFrame(base, frame.basis, grad)
    return Chart(chart.spec, new_frame, projection_pair(new_frame),
                 r * chart.domain_radius, r * chart.base_norm)


@dataclass(frozen=True, eq=False)
class AlphaOperator:
    """Linear map whose graph over one complement produces another.

    For a fixed subspace N and two complements R0, R1 of it, every vector
    of R1 is x + map(x) for exactly one x in R0. ``matrix`` realizes the
    map on ambient vectors; it is meaningful on inputs from R0.
    """

    matrix: Array
    r0_basis: Array
    n0_basis: Array

    def __post_init__(self):
        object.__setattr__(self, "matrix", frozen_copy(self.matrix))
        object.__setattr__(self, "r0_basis", frozen_copy(np.atleast_2d(self.r0_basis)))
        object.__setattr__(self, "n0_basis", frozen_copy(np.atleast_2d(self.n0_basis)))

    def apply(self, x) -> Array:
        return self.matrix @ as_vector(x, self.matrix.shape[1])


def alpha_operator(n0, r0_basis, r1_basis) -> AlphaOperator:
    """Express the complement R1 of N0 as a graph over the complement R0.

    ``n0`` may be a TangentFrame (its tangent basis is used) or a basis
    given row-wise. Returns the operator alpha with
    R1 = {x + alpha(x) : x in R0}, equivalently the projection difference
    identity P(R1 along N0) - P(R0 along N0) = alpha o P(R0 along N0).
    Both identities are verified to 1e-10 before returning.
    """
    n0_basis = n0.basis if isinstance(n0, TangentFrame) else n0
    n0_basis = np.atleast_2d(np.asarray(n0_basis, dtype=float))
    r0 = np.atleast_2d(np.asarray(r0_basis, dtype=float))
    r1 = np.atleast_2d(np.asarray(r1_basis, dtype=float))
    if r0.shape != r1.shape or r0.shape[1] != n0_basis.shape[1]:
        raise DecompositionError("complement bases have inconsistent shapes")

    try:
        p_r0 = oblique_projection(r0, n0_basis)
        p_r1 = oblique_projection(r1, n0_basis)
        p_n0_along_r0 = oblique_projection(n0_basis, r0)
    except ValueError as exc:
        raise DecompositionError(str(exc))

    matrix = p_n0_along_r0 @ p_r1

    scale = max(1.0, float(np.abs(p_r0).max()), float(np.abs(p_r1).max()))
    if not np.allclose(p_r1 - p_r0, matrix @ p_r0, rtol=0.0, atol=1e-10 * scale):
        raise DecompositionError("projection-difference identity failed; "
                                 "the complements are too ill conditioned")
    for x in r0:
        y = x + matrix @ x
        coords, *_ = np.linalg.lstsq(r1.T, y, rcond=None)
        if float(np.linalg.norm(r1.T @ coords - y)) > 1e-10 * max(1.0, float(np.linalg.norm(y))):
            raise DecompositionError("graph point does not lie in the target complement")

    return AlphaOperator(matrix, r0, n0_basis)


@dataclass(frozen=True)
class ProbeRow:
    """One row of a projection-continuity table."""

    delta_norm: float
    proj_diff_norm: float

    def to_dict(self) -> dict:
        return {"delta_norm": self.delta_norm, "proj_diff_norm": self.proj_diff_norm}


def projection_continuity_probe(spec: NormSpec, e0, deltas=None, *,
                                decades: int = 3, seed: int = 0) -> list[ProbeRow]:
    """Tabulate how the ray projection moves as the base point is perturbed.

    For each perturbation the tangent frame at the displaced point is
    rebuilt (on its own sphere of radius |e0 + delta|) and the largest
    singular value of the projection difference is reported. For a smooth
    norm the table decays to zero with the perturbation; across a corner
    it stalls at a unit-size jump. Default perturbations decay
    geometrically by decade along a fixed seeded direction.

    A non-smooth intermediate point raises NotDifferentiableError.
    """
    e0 = as_vector(e0, spec.dim)
    rng = np.random.default_rng(seed)
    if deltas is None:
        if decades < 1:
            raise ValueError("decades must be >= 1")
        d = rng.standard_normal(spec.dim)
        d /= eval_norm(spec, d)
        r = eval_norm(spec, e0)
        deltas = [d * (r * 10.0 ** (-k)) for k in range(1, decades + 1)]
    else:
        deltas = [as_vector(d, spec.dim) for d in deltas]
        sizes = [eval_norm(spec, d) for d in deltas]
        if any(a <= b for a, b in zip(sizes, sizes[1:])):
            raise ValueError("deltas must be strictly decreasing in norm")

    reference = projection_pair(tangent_frame(spec, e0, seed=seed)).onto_ray
    rows = []
    for delta in deltas:
        pair = projection_pair(tangent_frame(spec, e0 + delta, seed=seed))
        diff = float(np.linalg.norm(pair.onto_ray - reference, 2))
        rows.append(ProbeRow(eval_norm(spec, delta), diff))
    return rows
