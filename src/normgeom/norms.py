"""Norms on R^n: evaluation, derivatives, and smoothness classification.

Each norm family is one value class holding its norm (of one vector with
``value``, of every row of a stack with ``values``), closed-form
derivative and JSON form. Derivatives come in two independent flavors:
closed forms where the family is differentiable (``analytic_gradient``)
and a central-difference oracle (``fd_gradient``). ``classify_point``
decides smooth vs corner by probing one-sided directional slopes, which
exist for every norm by convexity.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Integral
from typing import ClassVar, TypeAlias

import numpy as np
from numpy.typing import NDArray

from ._linalg import extrapolate_to_zero, frozen_copy
from .errors import NotDifferentiableError

Vector: TypeAlias = NDArray[np.float64]
#: A (k, n) stack of k vectors of R^n, one per row.
Rows: TypeAlias = NDArray[np.float64]

#: Relative tolerance below which two competing max-attainers count as tied.
TIE_REL_TOL = 1e-9

#: Threshold separating one-sided slope disagreement from extrapolation noise.
CLASSIFY_TOL = 1e-6

#: Step grid for one-sided difference quotients (scaled by the point size).
DEFAULT_STEP_SEQUENCE = (1e-3, 1e-4, 1e-5)

_MAX_LP_EXPONENT = 16.0


def as_vector(x, dim: int | None = None) -> Vector:
    """Validate and convert an array-like to a finite 1-D float vector."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    if dim is not None and v.size != dim:
        raise ValueError(f"expected dimension {dim}, got {v.size}")
    return v


def as_rows(X, dim: int) -> Rows:
    """Validate and convert an array-like to a finite (k, dim) float stack."""
    a = np.asarray(X, dtype=float)
    if a.ndim != 2 or a.shape[1] != dim:
        raise ValueError(f"expected a (k, {dim}) stack of vectors, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector entries must be finite")
    return a


def _row_peaks(A: Rows) -> tuple[Vector, Vector]:
    """Largest |entry| of each row, and the same with zero rows read as 1."""
    peak = np.abs(A).max(axis=1)
    return peak, np.where(peak == 0.0, 1.0, peak)


#: JSON ``type`` tag -> family class; each family registers itself.
_FAMILIES: dict[str, type[NormSpec]] = {}


class NormSpec:
    """A norm on R^n. Each family is one immutable dataclass subclass.

    ``class F(NormSpec, kind="f")`` registers F under the JSON type "f";
    its JSON fields are its dataclass fields.
    """

    kind: ClassVar[str]
    dim: int

    def __init_subclass__(cls, kind: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if kind is not None:
            cls.kind = kind
            _FAMILIES[kind] = cls

    def value(self, x) -> float:
        raise NotImplementedError

    def values(self, X) -> Vector:
        """The norm of every row of a (k, dim) stack, checked once as a whole."""
        raise NotImplementedError

    def __call__(self, x) -> float:
        return self.value(x)

    def gradient_coeffs(self, e0: Vector) -> Vector:
        """Closed-form derivative at a checked nonzero ``e0``; raises at corners."""
        raise TypeError(f"no closed-form gradient for {type(self).__name__}")

    def gradient_rows(self, E) -> Rows:
        """Derivative coefficients at every row of ``E``."""
        E = as_rows(E, self.dim)
        return self._gradient_rows(E, self.values(E))

    def _gradient_rows(self, E: Rows, norms: Vector) -> Rows:
        """``gradient_rows`` at checked rows ``E`` whose norms are ``norms``.

        The closed form where it exists, the central-difference oracle at
        corners; families without corners override this with one stacked
        closed form, which takes the norms a caller already has.
        """
        rows = []
        for e in E:
            try:
                rows.append(analytic_gradient(self, e).coeffs)
            except NotDifferentiableError:
                rows.append(fd_gradient(self, e).coeffs)
        return np.array(rows).reshape(-1, self.dim)

    def to_dict(self) -> dict:
        raise TypeError(f"cannot serialize {type(self).__name__}")

    @classmethod
    def from_fields(cls, data: dict) -> NormSpec:
        """Build the family from a JSON object holding exactly its fields."""
        return cls(**{name: value for name, value in data.items() if name != "type"})


def _require_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _sole_attainer(vals: Vector, message: str) -> int:
    """Index of the largest |vals| entry; a relative tie for it is a corner."""
    mags = np.abs(vals)
    attained = np.flatnonzero(mags >= (1.0 - TIE_REL_TOL) * float(mags.max()))
    if attained.size > 1:
        raise NotDifferentiableError(message)
    return int(attained[0])


@dataclass(frozen=True, eq=False)
class LpNorm(NormSpec, kind="lp"):
    """The l^p norm with exponent in (1, 16]; the smooth power family.

    Exponents above 16 are rejected: |x|**(p-1) loses too many digits to
    cancellation there, and p = 1 or infinity have dedicated variants.
    """

    p: float
    dim: int

    def __post_init__(self):
        if not (1.0 < float(self.p) <= _MAX_LP_EXPONENT):
            raise ValueError(f"p must lie in (1, {_MAX_LP_EXPONENT}], got {self.p}")
        if _require_int(self.dim, "dim") < 1:
            raise ValueError("dim must be >= 1")

    def value(self, x) -> float:
        v = np.abs(as_vector(x, self.dim))
        peak = float(v.max())
        if peak == 0.0:
            return 0.0
        return peak * float(np.sum((v / peak) ** self.p) ** (1.0 / self.p))

    def values(self, X) -> Vector:
        A = np.abs(as_rows(X, self.dim))
        peak, safe = _row_peaks(A)
        return peak * np.sum((A / safe[:, None]) ** self.p, axis=1) ** (1.0 / self.p)

    def gradient_coeffs(self, e0: Vector) -> Vector:
        return np.sign(e0) * (np.abs(e0) / self.value(e0)) ** (self.p - 1.0)

    def _gradient_rows(self, E: Rows, norms: Vector) -> Rows:
        return np.sign(E) * (np.abs(E) / norms[:, None]) ** (self.p - 1.0)

    def to_dict(self) -> dict:
        return {"type": self.kind, "p": float(self.p), "dim": int(self.dim)}

    @classmethod
    def from_fields(cls, data: dict) -> LpNorm:
        return cls(p=float(data["p"]), dim=data["dim"])


@dataclass(frozen=True, eq=False)
class L1Norm(NormSpec, kind="l1"):
    """Sum of absolute values; non-smooth on the coordinate hyperplanes."""

    dim: int

    def __post_init__(self):
        if _require_int(self.dim, "dim") < 1:
            raise ValueError("dim must be >= 1")

    def value(self, x) -> float:
        return float(np.sum(np.abs(as_vector(x, self.dim))))

    def values(self, X) -> Vector:
        return np.sum(np.abs(as_rows(X, self.dim)), axis=1)

    def gradient_coeffs(self, e0: Vector) -> Vector:
        peak = float(np.abs(e0).max())
        if float(np.abs(e0).min()) <= TIE_REL_TOL * peak:
            raise NotDifferentiableError(
                "l1 norm is not differentiable where a coordinate vanishes")
        return np.sign(e0)

    def to_dict(self) -> dict:
        return {"type": self.kind, "dim": int(self.dim)}


@dataclass(frozen=True, eq=False)
class LInfNorm(NormSpec, kind="linf"):
    """Max of absolute values; non-smooth where the max is tied."""

    dim: int

    def __post_init__(self):
        if _require_int(self.dim, "dim") < 1:
            raise ValueError("dim must be >= 1")

    def value(self, x) -> float:
        return float(np.max(np.abs(as_vector(x, self.dim))))

    def values(self, X) -> Vector:
        return np.abs(as_rows(X, self.dim)).max(axis=1)

    def gradient_coeffs(self, e0: Vector) -> Vector:
        j = _sole_attainer(e0, "max norm has tied attaining coordinates")
        coeffs = np.zeros_like(e0)
        coeffs[j] = np.sign(e0[j])
        return coeffs

    def to_dict(self) -> dict:
        return {"type": self.kind, "dim": int(self.dim)}


@dataclass(frozen=True, eq=False)
class QuadraticNorm(NormSpec, kind="quadratic"):
    """sqrt(x' Q x) for a symmetric positive-definite Q."""

    q: Vector

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] < 1:
            raise ValueError("q must be a square matrix")
        scale = float(np.abs(q).max()) or 1.0
        if not np.allclose(q, q.T, rtol=0.0, atol=1e-12 * scale):
            raise ValueError("q must be symmetric")
        q = 0.5 * (q + q.T)
        if float(np.linalg.eigvalsh(q)[0]) <= 0.0:
            raise ValueError("q must be positive definite")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    def value(self, x) -> float:
        v = as_vector(x, self.dim)
        peak = float(np.abs(v).max())
        if peak == 0.0:
            return 0.0
        w = v / peak  # scale out before squaring so tiny vectors do not underflow
        return peak * float(np.sqrt(max(float(w @ self.q @ w), 0.0)))

    def values(self, X) -> Vector:
        X = as_rows(X, self.dim)
        peak, safe = _row_peaks(X)
        W = X / safe[:, None]
        # stacked products repeat the scalar w @ q @ w bit for bit
        form = (W[:, None, :] @ self.q @ W[:, :, None])[:, 0, 0]
        return peak * np.sqrt(np.maximum(form, 0.0))

    def gradient_coeffs(self, e0: Vector) -> Vector:
        return self.q @ e0 / self.value(e0)

    def _gradient_rows(self, E: Rows, norms: Vector) -> Rows:
        return (self.q @ E[:, :, None])[:, :, 0] / norms[:, None]

    def to_dict(self) -> dict:
        return {"type": self.kind, "q": self.q.tolist()}


@dataclass(frozen=True, eq=False)
class PolyhedralNorm(NormSpec, kind="polyhedral"):
    """max_i |<f_i, x>| over a full-rank family of row functionals.

    Full rank guarantees the max vanishes only at the origin, so the
    expression is a genuine norm.
    """

    functionals: Vector

    def __post_init__(self):
        f = np.atleast_2d(np.asarray(self.functionals, dtype=float))
        if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] < 1:
            raise ValueError("functionals must be a nonempty matrix of rows")
        if not np.all(np.isfinite(f)):
            raise ValueError("functionals must be finite")
        if np.linalg.matrix_rank(f) < f.shape[1]:
            raise ValueError("functionals must have full column rank")
        f.setflags(write=False)
        object.__setattr__(self, "functionals", f)

    @property
    def dim(self) -> int:
        return self.functionals.shape[1]

    def value(self, x) -> float:
        v = as_vector(x, self.dim)
        return float(np.max(np.abs(self.functionals @ v)))

    def values(self, X) -> Vector:
        X = as_rows(X, self.dim)
        return np.abs(self.functionals @ X[:, :, None])[:, :, 0].max(axis=1)

    def gradient_coeffs(self, e0: Vector) -> Vector:
        vals = self.functionals @ e0
        j = _sole_attainer(vals, "tied attaining functionals")
        return np.sign(vals[j]) * self.functionals[j]

    def to_dict(self) -> dict:
        return {"type": self.kind, "functionals": self.functionals.tolist()}


@dataclass(frozen=True, eq=False)
class ProductMaxNorm(NormSpec, kind="product_max"):
    """max(|left block|, |right block|) on the concatenated space."""

    left: NormSpec
    right: NormSpec

    def __post_init__(self):
        if not isinstance(self.left, NormSpec) or not isinstance(self.right, NormSpec):
            raise ValueError("left and right must be norms")

    @property
    def dim(self) -> int:
        return self.left.dim + self.right.dim

    def value(self, x) -> float:
        v = as_vector(x, self.dim)
        return max(self.left.value(v[: self.left.dim]),
                   self.right.value(v[self.left.dim:]))

    def values(self, X) -> Vector:
        X = as_rows(X, self.dim)
        return np.maximum(self.left.values(X[:, : self.left.dim]),
                          self.right.values(X[:, self.left.dim:]))

    def gradient_coeffs(self, e0: Vector) -> Vector:
        a, b = product_split(e0, self.left.dim)
        na, nb = self.left.value(a), self.right.value(b)
        if abs(na - nb) <= TIE_REL_TOL * max(na, nb):
            raise NotDifferentiableError("both factors attain the product max")
        if na > nb:  # the active block's derivative, zero on the other block
            return np.concatenate([analytic_gradient(self.left, a).coeffs,
                                   np.zeros(self.right.dim)])
        return np.concatenate([np.zeros(self.left.dim),
                               analytic_gradient(self.right, b).coeffs])

    def to_dict(self) -> dict:
        return {"type": self.kind, "left": self.left.to_dict(),
                "right": self.right.to_dict()}

    @classmethod
    def from_fields(cls, data: dict) -> ProductMaxNorm:
        return cls(left=spec_from_dict(data["left"]), right=spec_from_dict(data["right"]))


def eval_norm(spec: NormSpec, x) -> float:
    """Evaluate ``spec`` at ``x`` (dimension-checked)."""
    return spec.value(x)


@dataclass(frozen=True, eq=False)
class GradientFunctional:
    """A linear functional representing the norm's derivative at a point.

    The coefficients are degree-0 homogeneous in the base point: the same
    functional serves every positive multiple of ``base_point``.
    """

    coeffs: Vector
    base_point: Vector

    def __post_init__(self):
        object.__setattr__(self, "coeffs", frozen_copy(as_vector(self.coeffs)))
        object.__setattr__(self, "base_point",
                           frozen_copy(as_vector(self.base_point, self.coeffs.size)))

    def apply(self, h) -> float:
        return float(self.coeffs @ as_vector(h, self.coeffs.size))

    def __call__(self, h) -> float:
        return self.apply(h)


@dataclass(frozen=True, eq=False)
class SmoothnessVerdict:
    """Outcome of probing a point for differentiability of the norm.

    For a non-smooth verdict, ``right_deriv``/``left_deriv`` are the two
    one-sided slopes along ``witness_direction``; their disagreement is
    what breaks linearity.
    """

    point: Vector
    smooth: bool
    gradient: GradientFunctional | None = None
    witness_direction: Vector | None = None
    right_deriv: float | None = None
    left_deriv: float | None = None
    violation: float = 0.0


def analytic_gradient(spec: NormSpec, e0) -> GradientFunctional:
    """Closed-form derivative functional of the norm at ``e0``.

    Raises NotDifferentiableError at corner points (tied max attainers,
    zero coordinates of the l1 norm) and ValueError at the origin.
    """
    e0 = as_vector(e0, spec.dim)
    if not np.any(e0):
        raise ValueError("the norm is not differentiable at the origin")
    return GradientFunctional(spec.gradient_coeffs(e0), e0)


def default_fd_step(spec: NormSpec, e0) -> float:
    """Cube root of machine epsilon times the norm of the point."""
    return float(np.cbrt(np.finfo(float).eps)) * eval_norm(spec, e0)


def fd_gradient(spec: NormSpec, e0, step: float | None = None) -> GradientFunctional:
    """Central-difference derivative functional, one coordinate at a time.

    Carries no smoothness guarantee: at a corner it averages the two
    one-sided slopes. Callers that need a certificate validate the result
    against one-sided derivatives (see ``classify_point``).
    """
    e0 = as_vector(e0, spec.dim)
    if not np.any(e0):
        raise ValueError("cannot differentiate at the origin")
    r = eval_norm(spec, e0)
    if step is None:
        step = default_fd_step(spec, e0)
    step = float(step)
    if not (0.0 < step < r / 10.0):
        raise ValueError(f"step must lie in (0, {r / 10.0:.3e}), got {step:.3e}")
    coeffs = np.empty_like(e0)
    for i in range(e0.size):
        unit = np.zeros_like(e0)
        unit[i] = step
        coeffs[i] = (spec.value(e0 + unit) - spec.value(e0 - unit)) / (2.0 * step)
    return GradientFunctional(coeffs, e0)


def one_sided_derivative(spec: NormSpec, e0, v,
                         step_sequence=None) -> float:
    """Right-sided directional slope lim_{t->0+} (|e0 + t v| - |e0|) / t.

    The quotient is evaluated on a decreasing step grid and polynomially
    extrapolated to zero. Convexity of the norm guarantees the limit
    exists in every direction, smooth point or not.
    """
    e0 = as_vector(e0, spec.dim)
    v = as_vector(v, spec.dim)
    if not np.any(e0):
        raise ValueError("base point must be nonzero")
    if not np.any(v):
        raise ValueError("direction must be nonzero")
    if step_sequence is None:
        scale = max(1.0, float(np.linalg.norm(e0)))
        step_sequence = tuple(s * scale for s in DEFAULT_STEP_SEQUENCE)
    steps = [float(t) for t in step_sequence]
    if any(t <= 0.0 for t in steps) or any(a <= b for a, b in zip(steps, steps[1:])):
        raise ValueError("step_sequence must be positive and strictly decreasing")
    r = eval_norm(spec, e0)
    quotients = [(spec.value(e0 + t * v) - r) / t for t in steps]
    return extrapolate_to_zero(steps, quotients)


def classify_point(spec: NormSpec, e0, *, tol: float = CLASSIFY_TOL,
                   seed: int = 0) -> SmoothnessVerdict:
    """Decide whether the norm is differentiable at ``e0`` by probing slopes.

    Probes the n coordinate directions plus n random directions drawn from
    ``seed``. A point is smooth when, in every probed direction, the two
    one-sided slopes are negatives of each other and both agree with the
    central-difference gradient. Otherwise the worst violating direction
    is returned with its one-sided slopes.

    The probes run at u = e0 / |e0|: slopes and the gradient have degree
    0, so the verdict does not depend on the scale of ``e0``.
    """
    e0 = as_vector(e0, spec.dim)
    if not np.any(e0):
        raise ValueError("cannot classify the origin")
    u = e0 / eval_norm(spec, e0)
    n = spec.dim

    rng = np.random.default_rng(seed)
    directions = [np.eye(n)[i] for i in range(n)]
    while len(directions) < 2 * n:
        d = rng.standard_normal(n)
        length = np.linalg.norm(d)
        if length > 1e-12:
            directions.append(d / length)

    grad = fd_gradient(spec, u)
    worst_violation = -np.inf
    worst = None
    for v in directions:
        d_plus = one_sided_derivative(spec, u, v)
        d_minus = one_sided_derivative(spec, u, -v)
        gap = d_plus + d_minus  # zero iff the two-sided derivative exists
        linearity = max(abs(d_plus - grad.apply(v)), abs(d_minus + grad.apply(v)))
        violation = max(abs(gap), linearity)
        if violation > worst_violation:
            worst_violation = violation
            worst = (v, d_plus, d_minus)

    v, d_plus, d_minus = worst
    if worst_violation <= tol:
        try:  # prefer the exact closed form; the fd oracle validated it above
            gradient = analytic_gradient(spec, e0)
        except NotDifferentiableError:
            gradient = GradientFunctional(grad.coeffs, e0)
        return SmoothnessVerdict(point=frozen_copy(e0), smooth=True,
                                 gradient=gradient, violation=worst_violation)
    return SmoothnessVerdict(point=frozen_copy(e0), smooth=False,
                             witness_direction=frozen_copy(v),
                             right_deriv=d_plus, left_deriv=-d_minus,
                             violation=worst_violation)


def product_embed(left, right) -> Vector:
    """Concatenate two block vectors into the product space."""
    return np.concatenate([as_vector(left), as_vector(right)])


def product_split(x, left_dim: int) -> tuple[Vector, Vector]:
    """Split a product-space vector back into its two blocks."""
    x = as_vector(x)
    if not (0 < left_dim < x.size):
        raise ValueError(f"left_dim must lie in (0, {x.size})")
    return x[:left_dim].copy(), x[left_dim:].copy()


def product_norm_constants(spec: NormSpec, left_dim: int,
                           samples: int = 10_000, *,
                           seed: int = 0) -> tuple[float, float]:
    """Sampled equivalence constants between a norm and its block-max form.

    Returns (c1, c2) with max(|x_left|, |x_right|) <= c1 * |x| and
    |x| <= c2 * max(|x_left|, |x_right|), each block measured by ``spec``
    after zero-padding. Estimated by maximizing ratios over random
    directions, so the values are lower bounds of the true constants,
    not certified ones.
    """
    if not (0 < left_dim < spec.dim):
        raise ValueError(f"left_dim must lie in (0, {spec.dim})")
    if samples < 1:
        raise ValueError("samples must be positive")
    X = np.random.default_rng(seed).standard_normal((samples, spec.dim))
    full = spec.values(X)
    padded_left, padded_right = X.copy(), X.copy()
    padded_left[:, left_dim:] = 0.0
    padded_right[:, :left_dim] = 0.0
    block = np.maximum(spec.values(padded_left), spec.values(padded_right))
    keep = (full != 0.0) & (block != 0.0)
    full, block = full[keep], block[keep]
    return (float(np.max(block / full, initial=0.0)),
            float(np.max(full / block, initial=0.0)))


def spec_from_dict(data) -> NormSpec:
    """Build a norm from its JSON object form. Unknown fields are rejected."""
    if not isinstance(data, dict):
        raise ValueError("norm description must be a JSON object")
    kind = data.get("type")
    family = _FAMILIES.get(kind) if isinstance(kind, str) else None
    if family is None:
        raise ValueError(f"unknown norm type {kind!r}")
    allowed = {"type", *(f.name for f in fields(family))}
    extra = set(data) - allowed
    if extra:
        raise ValueError(f"unknown fields for norm type {kind!r}: {sorted(extra)}")
    missing = allowed - set(data)
    if missing:
        raise ValueError(f"missing fields for norm type {kind!r}: {sorted(missing)}")
    try:
        return family.from_fields(data)
    except TypeError as exc:  # a field holds the wrong kind of JSON value
        raise ValueError(f"malformed fields for norm type {kind!r}: {exc}") from None


def spec_to_dict(spec: NormSpec) -> dict:
    """Serialize a norm to its JSON object form."""
    return spec.to_dict()
