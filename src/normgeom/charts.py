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

from dataclasses import dataclass

import numpy as np

from ._linalg import (Array, euclidean_norm, frozen_copy, oblique_projection,
                      orthonormal_complement, positive_finite, sample_design,
                      tangent_basis)
from .errors import (ChartDomainError, ConvergenceError, DecompositionError,
                     GeometryError, NotDifferentiableError)
from .norms import (CLASSIFY_TOL, GradientFunctional, NormSpec, _classify, as_rows, as_vector,
                    eval_norm)

#: Slack applied to domain-membership checks, relative to the radius.
_DOMAIN_SLACK = 1e-9

_NEWTON_MAX_ITER = 50

#: Largest ray component and norm defect, relative to |e0|, that
#: ``sphere_chart_image_check`` accepts.
_IMAGE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class TangentFrame:
    """Base point plus a basis of the sphere's tangent hyperplane there.

    The tangent hyperplane is the null space of ``gradient``; the base
    point never lies in it, which is what makes the hyperplane a
    codimension-1 complement of the ray. The frame determines both
    projections of that splitting (``onto_ray``).
    """

    base_point: Array
    basis: Array  # (dim - 1, dim), orthonormal rows spanning the tangent hyperplane
    gradient: GradientFunctional

    def __post_init__(self):
        base = frozen_copy(as_vector(self.base_point))
        n = base.size
        basis = tangent_basis(self.basis, n)
        g = self.gradient.coeffs
        if g.size != n:
            raise ValueError("gradient dimension mismatch")
        g_len = np.linalg.norm(g)
        if abs(g @ base) <= 1e-12 * g_len * euclidean_norm(base):
            raise ValueError("base point lies in the tangent hyperplane")
        if not np.all(np.abs(basis @ g) <= 1e-9 * g_len):
            raise ValueError("basis vector not annihilated by the gradient")
        object.__setattr__(self, "base_point", base)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.base_point.size

    @property
    def onto_ray(self) -> Array:
        """Projection onto the ray along the tangent hyperplane, e0 g^T / g(e0).

        Its complement I - onto_ray projects onto the tangent hyperplane.
        """
        return np.outer(self.base_point, self.gradient.coeffs) / self.gradient.apply(
            self.base_point)


def tangent_frame(spec: NormSpec, e0, *, seed: int = 0) -> TangentFrame:
    """Tangent frame of the sphere through ``e0``.

    Requires a smooth point; the classifier runs first and a corner
    raises NotDifferentiableError. The tangent basis is the orthogonal
    completion of the gradient row, computed by SVD rather than
    elimination so near-axis gradients stay well conditioned.
    """
    e0 = as_vector(e0, spec.dim)
    return _tangent_frame(spec, e0, eval_norm(spec, e0), seed)


def _tangent_frame(spec: NormSpec, e0: Array, r: float, seed: int,
                   fd: GradientFunctional | None = None) -> TangentFrame:
    """``tangent_frame`` at a checked ``e0`` whose norm is ``r``.

    ``fd``, the central-difference functional at e0, saves the classifier
    from computing its own.
    """
    if not np.any(e0):
        raise ValueError("cannot classify the origin")
    verdict = _classify(spec, e0, r, CLASSIFY_TOL, seed, fd)
    if not verdict.smooth:
        raise NotDifferentiableError(
            f"no tangent frame at a non-smooth point (violation "
            f"{verdict.violation:.3e} along {verdict.witness_direction})")
    grad = verdict.gradient
    return TangentFrame(e0, orthonormal_complement(grad.coeffs), grad)


@dataclass(frozen=True, eq=False)
class Chart:
    """Local normal-form chart of the norm around a smooth base point.

    ``t_plus`` is the right inverse of the gradient functional realized
    along the ray, t_plus(r) = r * e0 / |e0|; composing it with the
    gradient reproduces the ray projection, and the gradient undoes it on
    scalars. ``domain_radius`` bounds the neighborhood, measured by the
    chart's own norm, on which the chart is treated as invertible. Both
    radii must be finite and positive.
    """

    spec: NormSpec
    frame: TangentFrame
    domain_radius: float
    base_norm: float

    def __post_init__(self):
        for name in ("domain_radius", "base_norm"):
            object.__setattr__(self, name, positive_finite(getattr(self, name), name))

    def t_plus(self, r: float) -> Array:
        return (float(r) / self.base_norm) * self.frame.base_point


def chart_forward_rows(chart: Chart, E) -> Array:
    """Chart images of the rows of ``E``; ``chart_forward`` on a whole stack.

    The split is a rank-1 update of each row: with r = |e0|,
    phi(E) = E - (g(E) / g(e0) - (|E| - r) / r) e0.
    """
    E = as_rows(E, chart.frame.dim)
    offsets = chart.spec.values(E - chart.frame.base_point)
    outside = np.flatnonzero(offsets > chart.domain_radius * (1.0 + _DOMAIN_SLACK))
    if outside.size:
        raise ChartDomainError(
            f"point at distance {offsets[outside[0]]:.3e} exceeds domain radius "
            f"{chart.domain_radius:.3e}")
    return _forward_rows(chart, E)


def _forward_rows(chart: Chart, E: Array) -> Array:
    """``chart_forward_rows`` at checked rows ``E`` known to lie in the domain."""
    base = chart.frame.base_point
    r = chart.base_norm
    g = chart.frame.gradient.coeffs
    ray = E @ g / (g @ base) - (chart.spec.values(E) - r) / r
    return E - ray[:, None] * base


def chart_forward(chart: Chart, e) -> Array:
    """Chart image of ``e``: tangent component plus the norm defect on the ray."""
    return chart_forward_rows(chart, as_vector(e, chart.frame.dim)[None])[0]


def chart_inverse_rows(chart: Chart, C) -> tuple[Array, list[GeometryError | None]]:
    """Invert the chart at every row of ``C`` by one lockstep Newton iteration.

    Newton runs along the base ray only: the first iterate e0 + c already
    has the exact tangent part P_T c (see ``build_chart``), so on the
    iterates (1 + s) e0 + c the chart equation phi(E) = c is the scalar
    equation f = |E| - r (1 + lambda) = 0, with r = |e0| and lambda =
    g(c) / g(e0) the ray part of c. Every step moves s by f over the slope
    g_E(e0) of the norm there, and each iterate is formed afresh from s,
    so a far step cannot round c's tangent part away. All rows iterate
    together, and each retires once |f| is at most 1e-12 * r. A row fails
    alone: outside the domain radius (ChartDomainError), or stalled, at a
    zero slope or at a non-finite iterate (ConvergenceError). Each
    iteration evaluates the norm of its iterates once. Returns the
    preimages, NaN on failed rows, and per row its error or None.
    """
    C = as_rows(C, chart.frame.dim)
    outside = chart.spec.values(C) > chart.domain_radius * (1.0 + _DOMAIN_SLACK)
    E, _, errors = _inverse_rows(chart, C, [
        ChartDomainError("chart coordinates outside the domain radius") if far else None
        for far in outside])
    return E, errors


def _inverse_rows(chart: Chart, C: Array, errors: list[GeometryError | None]
                  ) -> tuple[Array, Array, list[GeometryError | None]]:
    """The Newton iteration of ``chart_inverse_rows`` at checked rows ``C``.

    Rows whose ``errors`` entry is set are skipped. Returns the preimages,
    their norms (both NaN on failed rows) and the updated ``errors``.
    """
    k = C.shape[0]
    base = chart.frame.base_point
    r = chart.base_norm
    g = chart.frame.gradient.coeffs
    target = r * (1.0 + C @ g / (g @ base))
    s = np.zeros(k)
    out = np.full_like(C, np.nan)
    out_norms = np.full(k, np.nan)
    best_res = np.full(k, np.inf)
    active = np.flatnonzero([err is None for err in errors])
    for _ in range(_NEWTON_MAX_ITER):
        Ea = (1.0 + s[active])[:, None] * base + C[active]
        finite = np.isfinite(Ea).all(axis=1)
        if not finite.all():
            for i in active[~finite]:
                errors[i] = ConvergenceError(
                    "iterate left the admissible region: vector entries must be finite")
            active, Ea = active[finite], Ea[finite]
        if not active.size:
            break
        norms = chart.spec.values(Ea)
        f = norms - target[active]
        res = np.abs(f)
        # a retiring row is better too: no earlier residual of it was this small
        better = res < best_res[active]
        kept = active[better]
        out[kept] = Ea[better]
        out_norms[kept] = norms[better]
        best_res[kept] = res[better]
        done = res <= 1e-12 * r
        active, Ea, norms, f = active[~done], Ea[~done], norms[~done], f[~done]
        if not active.size:
            break
        slope = chart.spec._gradient_rows(Ea, norms) @ base
        usable = slope != 0.0
        if not usable.all():
            for i in active[~usable]:
                errors[i] = ConvergenceError("newton step failed: zero slope along the ray")
            active, f, slope = active[usable], f[usable], slope[usable]
        s[active] -= f / slope
    for i in active:  # out of iterations: keep the best iterate if close enough
        if best_res[i] > 1e-10 * r:
            errors[i] = ConvergenceError(
                f"newton stalled at residual {best_res[i]:.3e}; domain_radius "
                f"{chart.domain_radius:.3e} is likely too large")
    failed = [i for i, err in enumerate(errors) if err is not None]
    if failed:
        out[failed] = np.nan
        out_norms[failed] = np.nan
    return out, out_norms, errors


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

    An explicit ``domain_radius`` (finite and positive) is used as given.
    The default is a quarter of the base norm, where Newton inverts every
    target c of the tangent hyperplane with |c| <= 0.9 * 0.25|e0|, so it
    needs no runtime test:

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
    e0 = as_vector(e0, spec.dim)
    return _build_chart(spec, e0, eval_norm(spec, e0), domain_radius, seed)


def _build_chart(spec: NormSpec, e0: Array, r: float, domain_radius: float | None,
                 seed: int, fd: GradientFunctional | None = None) -> Chart:
    """``build_chart`` at a checked ``e0`` whose norm is ``r``; ``fd`` as in
    ``_tangent_frame``."""
    frame = _tangent_frame(spec, e0, r, seed, fd)
    radius = 0.25 * r if domain_radius is None else domain_radius
    return Chart(spec, frame, radius, r)


@dataclass(frozen=True, eq=False)
class ChartImageReport:
    """Result of checking that a chart exchanges sphere and hyperplane."""

    max_ray_component: float
    max_norm_defect: float
    failures: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _near_base(spec: NormSpec, chart: Chart, samples: int, fraction: float) -> Array:
    """``sample_design`` points around the base at fraction * domain_radius * U."""
    D, U = sample_design(chart.frame.dim, samples, 0.05)
    return chart.frame.base_point + _at_sizes(chart, D, U, spec.values(D), fraction)


def _at_sizes(chart: Chart, X: Array, sizes: Array, norms: Array, fraction: float) -> Array:
    """The rows of ``X``, whose norms are ``norms``, rescaled to norms
    fraction * domain_radius * sizes."""
    return X * (fraction * chart.domain_radius * sizes / norms)[:, None]


def sphere_chart_image_check(spec: NormSpec, chart: Chart, samples: int) -> ChartImageReport:
    """Check both inclusions behind the chart's normal form.

    Sphere points near the base must map into the tangent hyperplane
    (vanishing ray component), and tangent vectors must map back onto the
    sphere (vanishing norm defect). Each pass takes at least ``samples``
    points of the fixed ``sample_design``. Components are measured relative
    to the sphere radius, and either one above 1e-9 is a violation.
    Violations are collected into the report together with the offending
    points; nothing is raised.

    Neither pass re-checks the chart domain: a sphere sample lies within
    0.4 * domain_radius of a point at that distance from the base, so
    within 0.8 * domain_radius of the base (triangle inequality), and
    every tangent target has norm 0.4 * domain_radius * U with U < 1. The
    norm defects come from the norms Newton ends at, and the norms of both
    passes' design rows are evaluated in one stack.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    n = chart.frame.dim
    r = chart.base_norm
    failures: list[dict] = []

    D, U = sample_design(n, samples, 0.05)
    # at n = 1 the tangent hyperplane is {0}: there are no tangent targets
    W, V = sample_design(n - 1, samples, 0.05) if n > 1 else (np.empty((0, 0)), np.empty(0))
    C = W @ chart.frame.basis
    design_norms = spec.values(np.concatenate([D, C]))

    E = chart.frame.base_point + _at_sizes(chart, D, U, design_norms[:len(D)], 0.4)
    E *= (r / spec.values(E))[:, None]
    ray = np.abs(_forward_rows(chart, E) @ chart.frame.gradient.coeffs) / r
    for i in np.flatnonzero(ray > _IMAGE_TOL):
        failures.append({"kind": "ray_component", "point": E[i].tolist(),
                         "value": float(ray[i])})

    C = _at_sizes(chart, C, V, design_norms[len(D):], 0.4)
    E, norms, errors = _inverse_rows(chart, C, [None] * len(C))
    failed = np.array([err is not None for err in errors], dtype=bool)
    defect = np.zeros(len(C))
    defect[~failed] = np.abs(norms[~failed] - r) / r
    for i in np.flatnonzero(failed | (defect > _IMAGE_TOL)):
        if failed[i]:
            failures.append({"kind": "inverse_convergence",
                             "point": C[i].tolist(), "value": str(errors[i])})
        else:
            failures.append({"kind": "norm_defect", "point": E[i].tolist(),
                             "value": float(defect[i])})

    return ChartImageReport(max_ray_component=float(ray.max(initial=0.0)),
                            max_norm_defect=float(defect.max(initial=0.0)),
                            failures=tuple(failures))


def scale_chart(chart: Chart, r: float) -> Chart:
    """Chart at r * e0 for the sphere of radius r * |e0|.

    The tangent basis and the gradient are reused unchanged: spheres of a
    common norm have parallel tangent hyperplanes along each ray, and the
    gradient functional is degree-0 homogeneous.
    """
    r = positive_finite(r, "scale factor")
    frame = chart.frame
    new_frame = TangentFrame(r * frame.base_point, frame.basis, frame.gradient)
    return Chart(chart.spec, new_frame, r * chart.domain_radius, r * chart.base_norm)


@dataclass(frozen=True, eq=False)
class AlphaOperator:
    """Linear map whose graph over one complement produces another.

    For a fixed subspace N and two complements R0, R1 of it, every vector
    of R1 is x + map(x) for exactly one x in R0. ``matrix`` realizes the
    map on ambient vectors; it is meaningful on inputs from R0.
    """

    matrix: Array

    def __post_init__(self):
        object.__setattr__(self, "matrix", frozen_copy(self.matrix))

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

    return AlphaOperator(matrix)


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
    if deltas is None:
        if decades < 1:
            raise ValueError("decades must be >= 1")
        d = np.random.default_rng(seed).standard_normal(spec.dim)
        d /= eval_norm(spec, d)
        r = eval_norm(spec, e0)
        deltas = [d * (r * 10.0 ** (-k)) for k in range(1, decades + 1)]
    else:
        deltas = [as_vector(d, spec.dim) for d in deltas]
    sizes = spec.values(np.reshape(deltas, (-1, spec.dim)))
    if np.any(sizes[:-1] <= sizes[1:]):
        raise ValueError("deltas must be strictly decreasing in norm")

    reference = tangent_frame(spec, e0, seed=seed).onto_ray
    rows = []
    for delta, size in zip(deltas, sizes):
        moved = tangent_frame(spec, e0 + delta, seed=seed).onto_ray
        diff = float(np.linalg.norm(moved - reference, 2))
        rows.append(ProbeRow(float(size), diff))
    return rows
