"""Shared test utilities: independent oracles and spec inventories."""

import numpy as np

from normgeom import (DEFAULT_STEP_SEQUENCE, TIE_REL_TOL, ChartDomainError,
                      ConvergenceError, DecompositionError, L1Norm, LInfNorm, LpNorm,
                      PolyhedralNorm, ProductMaxNorm, QuadraticNorm, product_split)
from normgeom._linalg import sample_design
from normgeom.charts import _near_base, chart_forward_rows, chart_inverse_rows
from normgeom.norms import as_rows


def central_diff_gradient(fn, x, step):
    """Independent central-difference oracle (not the package's fd_gradient)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        unit = np.zeros_like(x)
        unit[i] = step
        out[i] = (fn(x + unit) - fn(x - unit)) / (2.0 * step)
    return out


def fd_jacobian(func, x, step=1e-6):
    """Central-difference Jacobian of a vector-valued map."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        unit = np.zeros_like(x)
        unit[i] = step
        hi = np.asarray(func(x + unit), dtype=float)
        lo = np.asarray(func(x - unit), dtype=float)
        cols.append((hi - lo) / (2.0 * step))
    return np.stack(cols, axis=1)


def extrapolate_reference(steps, values):
    """Neville extrapolation to step 0 on numpy scalars, entry by entry.

    The loop ``extrapolate_to_zero`` runs on Python floats; overflow gives
    inf or NaN here with no warning.
    """
    t = np.asarray(steps, dtype=float)
    q = np.asarray(values, dtype=float).copy()
    n = t.size
    with np.errstate(all="ignore"):
        for level in range(1, n):
            for i in range(n - level):
                q[i] = (t[i] * q[i + 1] - t[i + level] * q[i]) / (t[i] - t[i + level])
    return float(q[0])


def one_sided_reference(spec, e0, v):
    """The right slope of ``one_sided_derivative``, one scalar norm per step."""
    e0, v = np.asarray(e0, dtype=float), np.asarray(v, dtype=float)
    steps = [s * float(np.linalg.norm(e0)) for s in DEFAULT_STEP_SEQUENCE]
    r = spec.value(e0)
    return extrapolate_reference(steps, [(spec.value(e0 + t * v) - r) / t for t in steps])


def expansion_reference(spec, e0, basis, exponents=(2, 3, 4, 5)):
    """``directional_expansion_check`` rows as (scale, tangent ratio, mixed ratio).

    One scalar norm per step.
    """
    e0 = np.asarray(e0, dtype=float)
    r = spec.value(e0)
    rows = []
    for k in exponents:
        scale = r * 10.0 ** (-float(k))
        lam = 10.0 ** (-float(k))
        worst_tangent = worst_mixed = 0.0
        for b in np.atleast_2d(basis):
            tau = scale * b
            worst_tangent = max(worst_tangent, abs(spec.value(e0 + tau) - r) / spec.value(tau))
            h = tau + lam * e0
            worst_mixed = max(worst_mixed,
                              abs(spec.value(e0 + h) - r - lam * r) / spec.value(h))
        rows.append((scale, worst_tangent, worst_mixed))
    return rows


def sphere_sample_reference(spec, count, seed):
    """The ``sphere-sample`` points, one draw and one scalar norm per point."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        x = rng.standard_normal(spec.dim)
        points.append((x / spec.value(x)).tolist())
    return points


def geometric_gradient_coeffs_reference(tangent, spec):
    """``geometric_gradient``'s coefficients by SVD plus a linear solve.

    Stacks the tangent basis over e0 / |e0| and solves for the functional
    that is 0 on the basis and 1 on e0 / |e0|; raises DecompositionError
    when the smallest singular value is below 1e-10 of the largest.
    """
    e0 = tangent.base_point
    system = np.vstack([tangent.basis, e0 / spec.value(e0)])
    singular = np.linalg.svd(system, compute_uv=False)
    if singular[-1] <= 1e-10 * singular[0]:
        raise DecompositionError("base point lies in the estimated tangent")
    rhs = np.zeros(e0.size)
    rhs[-1] = 1.0
    return np.linalg.solve(system, rhs)


def chart_inverse_rows_reference(chart, C):
    """The former ``chart_inverse_rows``: lockstep Newton on the vector residual.

    Each iteration maps its iterates forward through the tangent
    projection matrix and takes the Euclidean norm of phi(E) - c; a row
    retires at 1e-12 |e0|_2 and stalls above 1e-10 |e0|_2, and each step
    moves along e0 by the residual's ray part over the slope.
    """
    C = as_rows(C, chart.frame.dim)
    k = C.shape[0]
    errors = [None] * k
    for i in np.flatnonzero(chart.spec.values(C) > chart.domain_radius * (1.0 + 1e-9)):
        errors[i] = ChartDomainError("chart coordinates outside the domain radius")
    base = chart.frame.base_point
    g0 = chart.frame.gradient.coeffs
    g0_base = chart.frame.gradient.apply(base)
    scale = float(np.linalg.norm(base))
    E = base + C
    out = np.full_like(C, np.nan)
    best_res = np.full(k, np.inf)
    active = np.flatnonzero([err is None for err in errors])
    for _ in range(50):
        finite = np.isfinite(E[active]).all(axis=1)
        for i in active[~finite]:
            errors[i] = ConvergenceError("iterate left the admissible region")
        active = active[finite]
        if not active.size:
            break
        Ea = E[active]
        norms = chart.spec.values(Ea)
        tangent_part = ((np.eye(base.size) - chart.frame.onto_ray) @ Ea[:, :, None])[:, :, 0]
        forward = tangent_part + ((norms - chart.base_norm) / chart.base_norm)[:, None] * base
        residuals = forward - C[active]
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
    for i in active:
        if best_res[i] > 1e-10 * scale:
            errors[i] = ConvergenceError("newton stalled")
    out[[i for i, err in enumerate(errors) if err is not None]] = np.nan
    return out, errors


def image_check_reference(spec, chart, samples):
    """``sphere_chart_image_check`` as (max ray, max defect, failures), from
    two design-norm stacks.

    The sphere samples come from ``charts._near_base`` and the tangent
    targets' norms from a ``values`` call of their own; the passes run
    through the public ``chart_forward_rows`` and ``chart_inverse_rows``,
    and each defect re-evaluates the norm of its preimage.
    """
    n = chart.frame.dim
    r = chart.base_norm
    failures = []
    E = _near_base(spec, chart, samples, 0.4)
    E = E * (r / spec.values(E))[:, None]
    ray = np.abs(chart_forward_rows(chart, E) @ chart.frame.gradient.coeffs) / r
    for i in np.flatnonzero(ray > 1e-9):
        failures.append({"kind": "ray_component", "point": E[i].tolist(),
                         "value": float(ray[i])})
    defect = np.zeros(0)
    if n > 1:
        W, U = sample_design(n - 1, samples, 0.05)
        C = W @ chart.frame.basis
        C = C * (0.4 * chart.domain_radius * U / spec.values(C))[:, None]
        back, errors = chart_inverse_rows(chart, C)
        defect = np.zeros(len(C))
        for i, err in enumerate(errors):
            if err is not None:
                failures.append({"kind": "inverse_convergence", "point": C[i].tolist(),
                                 "value": str(err)})
                continue
            defect[i] = abs(spec.value(back[i]) - r) / r
            if defect[i] > 1e-9:
                failures.append({"kind": "norm_defect", "point": back[i].tolist(),
                                 "value": float(defect[i])})
    return float(ray.max(initial=0.0)), float(defect.max(initial=0.0)), failures


def chart_forward_rows_reference(chart, E):
    """The former ``chart_forward_rows``: the tangent projection as a matrix.

    P_T = I - e0 g^T / g(e0) applied to every row, plus the norm defect
    (|E| - r) / r along e0; no domain check.
    """
    E = as_rows(E, chart.frame.dim)
    e0 = chart.frame.base_point
    onto_ray = np.outer(e0, chart.frame.gradient.coeffs) / chart.frame.gradient.apply(e0)
    tangent_part = ((np.eye(e0.size) - onto_ray) @ E[:, :, None])[:, :, 0]
    defect = chart.spec.values(E) - chart.base_norm
    return tangent_part + (defect / chart.base_norm)[:, None] * e0


def _sole_attainer(vals):
    """The first largest |vals| entry's index and sign, and whether it is tied."""
    mags = np.abs(vals)
    tied = np.flatnonzero(mags >= (1.0 - TIE_REL_TOL) * float(mags.max())).size > 1
    j = int(np.argmax(mags))
    return j, np.sign(vals[j]), tied


def closed_form_reference(spec, e0):
    """The derivative at one nonzero point, per family and scalar, and whether
    the point is a corner, where it holds the first max-attainer's subgradient.

    The closed forms and tie tests that ``_closed_form_rows`` stacks.
    """
    e0 = np.asarray(e0, dtype=float)
    if isinstance(spec, LpNorm):
        return np.sign(e0) * (np.abs(e0) / spec.value(e0)) ** (spec.p - 1.0), False
    if isinstance(spec, QuadraticNorm):
        return spec.q @ e0 / spec.value(e0), False
    if isinstance(spec, L1Norm):
        mags = np.abs(e0)
        return np.sign(e0), float(mags.min()) <= TIE_REL_TOL * float(mags.max())
    if isinstance(spec, LInfNorm):
        j, sign, tied = _sole_attainer(e0)
        coeffs = np.zeros_like(e0)
        coeffs[j] = sign
        return coeffs, tied
    if isinstance(spec, PolyhedralNorm):
        j, sign, tied = _sole_attainer(spec.functionals @ e0)
        return sign * spec.functionals[j], tied
    if isinstance(spec, ProductMaxNorm):
        a, b = product_split(e0, spec.left.dim)
        na, nb = spec.left.value(a), spec.right.value(b)
        tied = abs(na - nb) <= TIE_REL_TOL * max(na, nb)
        if na > nb:  # the active block's derivative, zero on the other block
            block, corner = closed_form_reference(spec.left, a)
            return np.concatenate([block, np.zeros(spec.right.dim)]), tied or corner
        block, corner = closed_form_reference(spec.right, b)
        return np.concatenate([np.zeros(spec.left.dim), block]), tied or corner
    raise TypeError(type(spec).__name__)


def corner_rows(spec, x, rel):
    """Rows at relative offset ``rel`` from corners of ``spec`` near ``x``.

    A coordinate at ``rel`` of the largest (an l1 corner), a coordinate
    tied with the largest, two functionals tied, equal block norms and a
    zero block. Offset 0 gives exact corners.
    """
    x = np.asarray(x, dtype=float)
    peak = float(np.abs(x).max())
    rows = []
    for i in range(x.size):
        for value in (rel * peak, -(1.0 - rel) * peak):
            y = x.copy()
            y[i] = value
            rows.append(y)
    if isinstance(spec, PolyhedralNorm):
        F = spec.functionals
        for i in range(len(F)):
            for j in range(i + 1, len(F)):
                for d in (F[i] - F[j], F[i] + F[j]):
                    if np.any(d):
                        y = x - (d @ x) / (d @ d) * d
                        rows.append(y + rel * np.linalg.norm(y) * d / np.linalg.norm(d))
    if isinstance(spec, ProductMaxNorm):
        a, b = product_split(x, spec.left.dim)
        na, nb = spec.left.value(a), spec.right.value(b)
        if na and nb:
            rows.append(np.concatenate([a / na * nb * (1.0 + rel), b]))
        rows += [np.concatenate([a, 0.0 * b]), np.concatenate([0.0 * a, b])]
    return [y for y in rows if np.any(y)]


def spd_matrix(rng, dim):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + np.eye(dim)


def smooth_specs(rng=None):
    """Inventory of smooth norm families used across the suite."""
    rng = rng or np.random.default_rng(2024)
    return [
        ("euclid2", QuadraticNorm(np.eye(2))),
        ("euclid3", QuadraticNorm(np.eye(3))),
        ("spd3", QuadraticNorm(spd_matrix(rng, 3))),
        ("spd4", QuadraticNorm(spd_matrix(rng, 4))),
        ("lp1.5d2", LpNorm(1.5, 2)),
        ("lp2d3", LpNorm(2.0, 3)),
        ("lp4d2", LpNorm(4.0, 2)),
        ("lp4d4", LpNorm(4.0, 4)),
    ]


def generic_point(rng, dim, min_abs=0.05):
    """Random point with coordinates bounded away from the axes.

    Keeps l^p curvature (p < 2) within the resolving power of the
    difference-quotient machinery.
    """
    while True:
        x = rng.standard_normal(dim)
        if np.abs(x).min() >= min_abs:
            return x


HEXAGON = PolyhedralNorm([[np.cos(a), np.sin(a)] for a in (0.0, np.pi / 3, 2 * np.pi / 3)])
BLOCK_MAX = ProductMaxNorm(QuadraticNorm(np.eye(2)), LpNorm(4.0, 2))


def _signed(rng, x):
    """``x`` with random signs and coordinate order."""
    return rng.permutation(np.asarray(x, dtype=float) * rng.choice([-1.0, 1.0], len(x)))


def _unit(rng, spec):
    d = rng.standard_normal(spec.dim)
    return d / spec.value(d)


def tie_point(family, rng, offset):
    """A point of ``family`` at relative ``offset`` from its nearest corner.

    Offset 0 gives an exact corner of the four families with corners: a
    linf tie, an l1 zero coordinate, a hexagon vertex, equal block norms.
    The smooth families ignore ``offset`` and give a generic point.
    """
    if family == "lp":
        return LpNorm(4.0, 3), generic_point(rng, 3)
    if family == "quadratic":
        return QuadraticNorm(spd_matrix(rng, 3)), rng.standard_normal(3)
    if family == "linf":
        top = 1.0 - offset
        return LInfNorm(3), _signed(rng, [1.0, top, top * rng.uniform(-0.9, 0.9)])
    if family == "l1":
        return L1Norm(3), _signed(rng, [rng.uniform(0.2, 1.0), 1.0, offset])
    if family == "hexagon":
        angle = np.pi / 6 + np.pi / 3 * rng.integers(6) + offset * rng.choice([-1.0, 1.0])
        return HEXAGON, np.array([np.cos(angle), np.sin(angle)])
    if family == "block_max":
        blocks = [_unit(rng, BLOCK_MAX.left), _unit(rng, BLOCK_MAX.right)]
        blocks[rng.integers(2)] *= 1.0 - offset
        return BLOCK_MAX, np.concatenate(blocks)
    raise ValueError(family)


TIE_FAMILIES = ("linf", "l1", "hexagon", "block_max")

#: Scales at which the square of |x|_2 over- or underflows for |x| ~ 1.
EXTREME_SCALES = (1e-300, 1e-200, 1e-160, 1e155, 1e200, 1e300)


def to_unit_size(x):
    """``x`` times the power of two that brings its largest |entry| into [0.5, 1).

    The product is exact, so it is the same point of the same ray.
    """
    x = np.asarray(x, dtype=float)
    return np.ldexp(x, -np.frexp(np.abs(x).max())[1])


def all_normal(x):
    """Whether every nonzero entry of ``x`` is a normal float."""
    x = np.asarray(x, dtype=float)
    nonzero = np.abs(x[x != 0.0])
    return bool(((nonzero >= np.finfo(float).tiny) & (nonzero <= np.finfo(float).max)).all())


FAMILIES = ("lp", "quadratic") + TIE_FAMILIES
