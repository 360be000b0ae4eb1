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
from typing import NamedTuple

import numpy as np

from ._linalg import (Array, frozen_copy, oblique_projection, orthonormal_complement,
                      positive_finite, sample_design, tangent_basis, vector_length)
from .errors import (ChartDomainError, ConvergenceError, DecompositionError,
                     GeometryError, NotDifferentiableError)
from .norms import (CLASSIFY_TOL, GradientFunctional, NormSpec, _checked_base, _classify,
                    as_rows, as_vector, eval_norm)

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
        g_len = vector_length(g)
        if abs(g @ base) <= 1e-12 * g_len * vector_length(base):
            raise ValueError("base point lies in the tangent hyperplane")
        if not (np.abs(basis @ g) <= 1e-9 * g_len).all():
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
    return _tangent_frame(spec, *_checked_base(spec, e0), seed)


def _tangent_frame(spec: NormSpec, e0: Array, r: float, seed: int,
                   fd: GradientFunctional | None = None) -> TangentFrame:
    """``tangent_frame`` at a checked ``e0`` whose norm is ``r``.

    ``fd``, the central-difference functional at e0, saves the classifier
    from computing its own.
    """
    if not e0.any():
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
    return _forward_rows(_stack([chart]), E)


class _ChartStack(NamedTuple):
    """Charts of one norm and dimension, with the per-chart arrays that the
    stacked cores read: base points, gradient coefficients, base norms,
    domain radii and each gradient at its base point, g(e0)."""

    charts: list[Chart]
    bases: Array
    grads: Array
    norms: Array
    radii: Array
    slopes: Array


def _stack(charts: list[Chart]) -> _ChartStack:
    return _ChartStack(
        charts, np.array([chart.frame.base_point for chart in charts]),
        np.array([chart.frame.gradient.coeffs for chart in charts]),
        np.array([chart.base_norm for chart in charts]),
        np.array([chart.domain_radius for chart in charts]),
        np.array([chart.frame.gradient.coeffs @ chart.frame.base_point for chart in charts]))


def _each(a: Array, k: int) -> Array:
    """The per-chart array ``a`` repeated for the ``k`` rows of each chart;
    one chart's values broadcast over its rows as they are."""
    return a if len(a) == 1 else np.repeat(a, k, axis=0)


def _chart_dots(A: Array, V: Array, cuts: Array | None = None) -> Array:
    """The products A[cuts[c]:cuts[c + 1]] @ V[c] over every chart c, in
    order; without ``cuts``, the c-th of len(V) equal blocks of rows.

    One matrix-vector product per chart gives each row the bits it gets
    among its own chart's rows; a row-wise einsum or (A * B).sum(1) may
    differ from them in the last bit.
    """
    if len(V) == 1:
        return A @ V[0]
    if cuts is None:
        cuts = np.arange(len(V) + 1) * (len(A) // len(V))
    return np.concatenate([A[lo:hi] @ v for lo, hi, v in zip(cuts[:-1], cuts[1:], V)])


def _forward_rows(stack: _ChartStack, E: Array) -> Array:
    """``chart_forward_rows`` at checked rows ``E`` known to lie in the
    domain: block c of len(stack.charts) equal blocks under chart c, with
    one ``values`` call for all rows."""
    k = len(E) // len(stack.charts)
    r = _each(stack.norms, k)
    ray = (_chart_dots(E, stack.grads) / _each(stack.slopes, k)
           - (stack.charts[0].spec.values(E) - r) / r)
    return E - ray[:, None] * _each(stack.bases, k)


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
    outside = chart.spec._values(C) > chart.domain_radius * (1.0 + _DOMAIN_SLACK)
    E, _, errors = _inverse_rows(_stack([chart]), C, [
        ChartDomainError("chart coordinates outside the domain radius") if far else None
        for far in outside])
    return E, errors


def _inverse_rows(stack: _ChartStack, C: Array, errors: list[GeometryError | None]
                  ) -> tuple[Array, Array, list[GeometryError | None]]:
    """The Newton iteration of ``chart_inverse_rows`` at checked rows ``C``:
    block c of len(stack.charts) equal blocks under chart c.

    The rows of all charts iterate in lockstep, with one ``values`` call
    per iteration; each row's slope is its own chart's product, so a row
    takes the steps it takes among its chart's rows alone. Rows whose
    ``errors`` entry is set are skipped. Returns the preimages, their
    norms (both NaN exactly on the failed rows) and the updated ``errors``.
    """
    charts, bases = stack.charts, stack.bases
    spec = charts[0].spec
    m, k = len(charts), len(C)
    per = k // m
    base = _each(bases, per)
    target = _each(stack.norms, per) * (1.0 + _chart_dots(C, stack.grads)
                                        / _each(stack.slopes, per))
    tiny = 1e-12 * _each(stack.norms, per)
    s = np.zeros(k)
    out = np.full_like(C, np.nan)
    out_norms = np.full(k, np.nan)
    best_res = np.full(k, np.inf)
    active = np.flatnonzero([err is None for err in errors])
    for _ in range(_NEWTON_MAX_ITER):
        # every row's iterate, then the active ones: one chart's base broadcasts
        Ea = ((1.0 + s)[:, None] * base + C)[active]
        finite = np.isfinite(Ea).all(axis=1)
        if not finite.all():
            for i in active[~finite]:
                errors[i] = ConvergenceError(
                    "iterate left the admissible region: vector entries must be finite")
            active, Ea = active[finite], Ea[finite]
        if not active.size:
            break
        norms = spec.values(Ea)
        f = norms - target[active]
        res = np.abs(f)
        # a retiring row is better too: no earlier residual of it was this small
        better = res < best_res[active]
        kept = active[better]
        out[kept] = Ea[better]
        out_norms[kept] = norms[better]
        best_res[kept] = res[better]
        done = res <= (tiny if m == 1 else tiny[active])  # one chart's tiny broadcasts
        active, Ea, norms, f = active[~done], Ea[~done], norms[~done], f[~done]
        if not active.size:
            break
        slope = _chart_dots(spec._gradient_rows(Ea, norms), bases,
                            None if m == 1 else np.searchsorted(active, np.arange(m + 1) * per))
        usable = slope != 0.0
        if not usable.all():
            for i in active[~usable]:
                errors[i] = ConvergenceError("newton step failed: zero slope along the ray")
            active, f, slope = active[usable], f[usable], slope[usable]
        s[active] -= f / slope
    for i in active:  # out of iterations: keep the best iterate if close enough
        chart = charts[i // per]
        if best_res[i] > 1e-10 * chart.base_norm:
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
    return _build_chart(spec, *_checked_base(spec, e0), domain_radius, seed)


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
    return chart.frame.base_point + D * (fraction * chart.domain_radius * U
                                         / spec.values(D))[:, None]


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
    return _image_checks(spec, [chart], samples)[0]


def _image_checks(spec: NormSpec, charts: list[Chart], samples: int) -> list[ChartImageReport]:
    """``sphere_chart_image_check`` on every chart of ``charts``, all of one
    dimension, with one ``values`` call per stage for all of them: the
    design norms, the sphere samples, their chart images and each Newton
    iteration."""
    if samples < 1:
        raise ValueError("samples must be positive")
    stack = _stack(charts)
    m, n = stack.bases.shape
    reach = 0.4 * stack.radii

    D, U = sample_design(n, samples, 0.05)
    # at n = 1 the tangent hyperplane is {0}: there are no tangent targets
    W, V = sample_design(n - 1, samples, 0.05) if n > 1 else (np.empty((0, 0)), np.empty(0))
    k, kw = len(D), len(W)
    design = np.concatenate([D, *(W @ chart.frame.basis for chart in charts)])
    design_norms = spec.values(design)

    sizes = (reach[:, None] * U / design_norms[:k]).ravel()
    E = _each(stack.bases, k) + (D if m == 1 else np.tile(D, (m, 1))) * sizes[:, None]
    r = _each(stack.norms, k)
    E *= (r / spec.values(E))[:, None]
    ray = np.abs(_chart_dots(_forward_rows(stack, E), stack.grads)) / r

    C = design[k:]
    C *= ((reach[:, None] * V).ravel() / design_norms[k:])[:, None]
    back, back_norms, errors = _inverse_rows(stack, C, [None] * len(C))
    r = _each(stack.norms, kw)
    failed = np.isnan(back_norms)  # exactly the rows with an error
    defect = np.where(failed, 0.0, np.abs(back_norms - r) / r)
    bad = failed | (defect > _IMAGE_TOL)

    reports = []
    for c in range(m):
        rows, targets = slice(c * k, (c + 1) * k), slice(c * kw, (c + 1) * kw)
        failures: list[dict] = []
        for i in np.flatnonzero(ray[rows] > _IMAGE_TOL):
            i += rows.start
            failures.append({"kind": "ray_component", "point": E[i].tolist(),
                             "value": float(ray[i])})
        for i in np.flatnonzero(bad[targets]):
            i += targets.start
            if failed[i]:
                failures.append({"kind": "inverse_convergence",
                                 "point": C[i].tolist(), "value": str(errors[i])})
            else:
                failures.append({"kind": "norm_defect", "point": back[i].tolist(),
                                 "value": float(defect[i])})
        reports.append(ChartImageReport(max_ray_component=float(ray[rows].max(initial=0.0)),
                                        max_norm_defect=float(defect[targets].max(initial=0.0)),
                                        failures=tuple(failures)))
    return reports


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
    e0, r = _checked_base(spec, e0)
    if deltas is None:
        if decades < 1:
            raise ValueError("decades must be >= 1")
        d = np.random.default_rng(seed).standard_normal(spec.dim)
        d /= eval_norm(spec, d)
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
