"""Norms on R^n: evaluation, derivatives, and smoothness classification.

Each norm family is one value class holding two formulas over a checked
(k, n) stack of rows: ``_values``, the norm, and ``_closed_form_rows``, the
closed-form derivative plus a mask of the corner rows. The inherited
``values`` checks a stack once and evaluates ``_values``. The one-row
cases are ``value`` and ``analytic_gradient`` (which raises at a corner),
so scalar and stacked results agree bit for bit. ``gradient_rows`` puts
the central-difference oracle (``fd_gradient``) in the corner rows.
``classify_point`` decides smooth vs corner by probing one-sided
directional slopes, which exist for every norm by convexity.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
import functools
import math
from numbers import Integral, Real
import random
from typing import ClassVar, TypeAlias

import numpy as np
from numpy.typing import NDArray

from ._linalg import extrapolate_to_zero, frozen_copy, positive_finite, vector_length
from .errors import NotDifferentiableError

Vector: TypeAlias = NDArray[np.float64]
#: A (k, n) stack of k vectors of R^n, one per row.
Rows: TypeAlias = NDArray[np.float64]
#: One flag per row of a stack.
Mask: TypeAlias = NDArray[np.bool_]

#: Relative tolerance below which two competing max-attainers count as tied.
TIE_REL_TOL = 1e-9

#: Threshold separating one-sided slope disagreement from extrapolation noise.
CLASSIFY_TOL = 1e-6

#: Step grid for one-sided difference quotients (scaled by |point|_2).
DEFAULT_STEP_SEQUENCE = (1e-3, 1e-4, 1e-5)
_STEP_GRID = frozen_copy(DEFAULT_STEP_SEQUENCE)

_MAX_LP_EXPONENT = 16.0

#: ``fd_gradient``'s default step, relative to the norm of the point: cbrt(eps).
_FD_STEP = float(np.cbrt(np.finfo(float).eps))


def as_vector(x, dim: int | None = None) -> Vector:
    """Validate and convert an array-like to a finite 1-D float vector."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty 1-D vector")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    if dim is not None and v.size != dim:
        raise ValueError(f"expected dimension {dim}, got {v.size}")
    return v


def as_rows(X, dim: int) -> Rows:
    """Validate and convert an array-like to a finite (k, dim) float stack."""
    a = np.asarray(X, dtype=float)
    if a.ndim != 2 or a.shape[1] != dim:
        raise ValueError(f"expected a (k, {dim}) stack of vectors, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("vector entries must be finite")
    return a


def _row_peaks(A: Rows) -> tuple[Vector, Vector]:
    """Largest entry of each row of ``A`` >= 0, and the same with zero rows read as 1."""
    peak = A.max(axis=1)
    return peak, peak + (peak == 0.0)


#: JSON ``type`` tag -> family class; each family registers itself.
_FAMILIES: dict[str, type[NormSpec]] = {}


class NormSpec:
    """A norm on R^n. Each family is one immutable dataclass subclass.

    ``class F(NormSpec, kind="f")`` registers F under the JSON type "f";
    its JSON fields are its dataclass fields. A family writes ``_values``
    and ``_closed_form_rows``; everything else, the checked ``values``
    included, is inherited.
    """

    kind: ClassVar[str]
    dim: int

    def __init_subclass__(cls, kind: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if kind is not None:
            cls.kind = kind
            _FAMILIES[kind] = cls

    def value(self, x) -> float:
        """The norm of one vector: the one-row case of ``values``."""
        return float(self._values(as_vector(x, self.dim)[None])[0])

    def values(self, X) -> Vector:
        """The norm of every row of a (k, dim) stack, checked once as a whole."""
        return self._values(as_rows(X, self.dim))

    def _values(self, X: Rows) -> Vector:
        """The family's one norm formula, at every row of a checked stack ``X``."""
        raise NotImplementedError

    def _closed_form_rows(self, E: Rows, norms: Vector) -> tuple[Rows, Mask]:
        """The family's one derivative formula, at checked nonzero rows ``E``.

        Returns the coefficients at every row given its norm, and the mask
        of the corner rows, which hold one subgradient instead.
        """
        raise NotImplementedError

    def gradient_rows(self, E) -> Rows:
        """Derivative coefficients at every row of ``E``."""
        E = as_rows(E, self.dim)
        if not np.all(np.any(E, axis=1)):
            raise ValueError("the norm is not differentiable at the origin")
        return self._gradient_rows(E, self._values(E))

    def _gradient_rows(self, E: Rows, norms: Vector) -> Rows:
        """``gradient_rows`` at checked nonzero rows ``E`` whose norms are ``norms``.

        The closed form, with the central-difference oracle at corners, all
        corner rows in one stack.
        """
        coeffs, corners = self._closed_form_rows(E, norms)
        if corners.any():
            steps = np.array([_fd_step(r) for r in norms[corners].tolist()])
            coeffs[corners] = _fd_gradient(self, E[corners], steps)
        return coeffs

    def to_dict(self) -> dict:
        """The JSON object form: the ``type`` tag, then each dataclass field."""
        out = {"type": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, NormSpec):
                value = value.to_dict()
            elif isinstance(value, np.ndarray):
                value = value.tolist()
            out[f.name] = value
        return out

    @classmethod
    def from_fields(cls, data: dict) -> NormSpec:
        """Build the family from a JSON object holding exactly its fields."""
        return cls(**{name: value for name, value in data.items() if name != "type"})


def _require_dim(spec: NormSpec) -> None:
    """Check that ``spec.dim`` is a positive integer and store it as an int."""
    dim = spec.dim
    if isinstance(dim, bool) or not isinstance(dim, Integral):
        raise ValueError(f"dim must be an integer, got {dim!r}")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    object.__setattr__(spec, "dim", int(dim))


def _real_matrix(value, name: str) -> NDArray[np.float64]:
    """``value`` as a finite float array; strings and booleans are not numbers."""
    a = np.asarray(value)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold numbers")
    a = a.astype(float)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def _max_attainers(V: Rows) -> tuple[NDArray[np.intp], Vector, Mask]:
    """Per row: the first largest |entry|, its sign, and whether another
    entry ties it within relative ``TIE_REL_TOL`` (a corner of the max)."""
    mags = np.abs(V)
    j = mags.argmax(axis=1)
    rows = np.arange(len(V))
    ties = np.count_nonzero(mags >= (1.0 - TIE_REL_TOL) * mags[rows, j][:, None], axis=1) > 1
    return j, np.sign(V[rows, j]), ties


@dataclass(frozen=True, eq=False)
class LpNorm(NormSpec, kind="lp"):
    """The l^p norm with exponent in (1, 16]; the smooth power family.

    Exponents above 16 are rejected: |x|**(p-1) loses too many digits to
    cancellation there, and p = 1 or infinity have dedicated variants.
    """

    p: float
    dim: int

    def __post_init__(self):
        p = self.p
        if isinstance(p, bool) or not isinstance(p, Real) or not 1.0 < p <= _MAX_LP_EXPONENT:
            raise ValueError(f"p must be a number in (1, {_MAX_LP_EXPONENT}], got {p!r}")
        object.__setattr__(self, "p", float(self.p))
        _require_dim(self)

    def _values(self, X: Rows) -> Vector:
        A = np.abs(X)
        peak, safe = _row_peaks(A)
        return peak * ((A / safe[:, None]) ** self.p).sum(axis=1) ** (1.0 / self.p)

    def _closed_form_rows(self, E: Rows, norms: Vector) -> tuple[Rows, Mask]:
        coeffs = np.sign(E) * (np.abs(E) / norms[:, None]) ** (self.p - 1.0)
        return coeffs, np.zeros(len(E), dtype=bool)


@dataclass(frozen=True, eq=False)
class L1Norm(NormSpec, kind="l1"):
    """Sum of absolute values; non-smooth on the coordinate hyperplanes."""

    dim: int

    def __post_init__(self):
        _require_dim(self)

    def _values(self, X: Rows) -> Vector:
        return np.abs(X).sum(axis=1)

    def _closed_form_rows(self, E: Rows, norms: Vector) -> tuple[Rows, Mask]:
        # a coordinate below TIE_REL_TOL of the largest counts as zero
        A = np.abs(E)
        return np.sign(E), A.min(axis=1) <= TIE_REL_TOL * A.max(axis=1)


@dataclass(frozen=True, eq=False)
class LInfNorm(NormSpec, kind="linf"):
    """Max of absolute values; non-smooth where the max is tied."""

    dim: int

    def __post_init__(self):
        _require_dim(self)

    def _values(self, X: Rows) -> Vector:
        return np.abs(X).max(axis=1)

    def _closed_form_rows(self, E: Rows, norms: Vector) -> tuple[Rows, Mask]:
        j, sign, corners = _max_attainers(E)
        coeffs = np.zeros_like(E)
        coeffs[np.arange(len(E)), j] = sign
        return coeffs, corners


@dataclass(frozen=True, eq=False)
class QuadraticNorm(NormSpec, kind="quadratic"):
    """sqrt(x' Q x) for a symmetric positive-definite Q."""

    q: Vector

    def __post_init__(self):
        q = _real_matrix(self.q, "q")
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

    def _values(self, X: Rows) -> Vector:
        peak, safe = _row_peaks(np.abs(X))
        W = X / safe[:, None]  # scale out before squaring so tiny rows do not underflow
        form = (W[:, None, :] @ self.q @ W[:, :, None])[:, 0, 0]
        return peak * np.sqrt(np.maximum(form, 0.0))

    def _closed_form_rows(self, E: Rows, norms: Vector) -> tuple[Rows, Mask]:
        coeffs = (self.q @ E[:, :, None])[:, :, 0] / norms[:, None]
        return coeffs, np.zeros(len(E), dtype=bool)


@dataclass(frozen=True, eq=False)
class PolyhedralNorm(NormSpec, kind="polyhedral"):
    """max_i |<f_i, x>| over a full-rank family of row functionals.

    Full rank guarantees the max vanishes only at the origin, so the
    expression is a genuine norm.
    """

    functionals: Vector

    def __post_init__(self):
        f = np.atleast_2d(_real_matrix(self.functionals, "functionals"))
        if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] < 1:
            raise ValueError("functionals must be a nonempty matrix of rows")
        if np.linalg.matrix_rank(f) < f.shape[1]:
            raise ValueError("functionals must have full column rank")
        f.setflags(write=False)
        object.__setattr__(self, "functionals", f)

    @property
    def dim(self) -> int:
        return self.functionals.shape[1]

    def _values(self, X: Rows) -> Vector:
        return np.abs(self.functionals @ X[:, :, None])[:, :, 0].max(axis=1)

    def _closed_form_rows(self, E: Rows, norms: Vector) -> tuple[Rows, Mask]:
        j, sign, corners = _max_attainers((self.functionals @ E[:, :, None])[:, :, 0])
        return sign[:, None] * self.functionals[j], corners


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

    def _values(self, X: Rows) -> Vector:
        # each block is a slice of the stack checked once by ``values``
        return np.maximum(self.left._values(X[:, : self.left.dim]),
                          self.right._values(X[:, self.left.dim:]))

    def _closed_form_rows(self, E: Rows, norms: Vector) -> tuple[Rows, Mask]:
        # the active block's derivative, zero on the other block; a tie of
        # the block norms is a corner, and so is a corner of the active block
        cut = self.left.dim
        na, nb = self.left._values(E[:, :cut]), self.right._values(E[:, cut:])
        corners = np.abs(na - nb) <= TIE_REL_TOL * np.maximum(na, nb)
        coeffs = np.zeros_like(E)
        left = na > nb
        for spec, cols, active, block_norms in ((self.left, slice(None, cut), left, na),
                                                (self.right, slice(cut, None), ~left, nb)):
            block, block_corners = spec._closed_form_rows(E[active, cols], block_norms[active])
            coeffs[active, cols] = block
            corners[active] |= block_corners
        return coeffs, corners

    @classmethod
    def from_fields(cls, data: dict) -> ProductMaxNorm:
        return cls(left=spec_from_dict(data["left"]), right=spec_from_dict(data["right"]))


def eval_norm(spec: NormSpec, x) -> float:
    """Evaluate ``spec`` at ``x`` (dimension-checked)."""
    return spec.value(x)


#: The refusal of a base point whose norm lies beyond the float range.
_OVERFLOW = "the norm of the base point overflows the float range"


def _checked_base(spec: NormSpec, e0) -> tuple[Vector, float]:
    """``e0`` checked as a point of ``spec``'s space, and its norm.

    The base-point check of the public entries: raises ValueError when the
    norm lies beyond the float range.
    """
    e0 = as_vector(e0, spec.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        r = float(spec._values(e0[None])[0])
    if not math.isfinite(r):
        raise ValueError(_OVERFLOW)
    return e0, r


def _unit_rows(P: Rows) -> tuple[Rows, NDArray[np.intc]]:
    """Each row of ``P`` times the power of two 2**-e that puts its largest
    |entry| in [0.5, 1), and the exponents e (0 at a zero row).

    The scaling is exact, and so is every family's norm of the scaled rows
    while their entries stay normal floats: results of degree 0 keep their
    bits, and norms, steps and radii at the scaled rows stay clear of over-
    and underflow.
    """
    _, exponents = np.frexp(np.abs(P).max(axis=1))
    return np.ldexp(P, -exponents[:, None]), exponents


def _scaled_base(spec: NormSpec, e0) -> tuple[Vector, float, int, float]:
    """``_checked_base`` at ``e0`` scaled by its power of two (``_unit_rows``).

    Returns the scaled point, its norm, the exponent e and the norm of
    ``e0`` itself, 2**e times the scaled norm, which raises the same
    ValueError beyond the float range.
    """
    S, exponents = _unit_rows(as_vector(e0, spec.dim)[None])
    e = int(exponents[0])
    norm = float(spec._values(S)[0])
    try:
        r = math.ldexp(norm, e)
    except OverflowError:
        raise ValueError(_OVERFLOW) from None
    return S[0], norm, e, r


@dataclass(frozen=True, eq=False)
class GradientFunctional:
    """A linear functional representing the norm's derivative at a point.

    The coefficients are degree-0 homogeneous in the point: the same
    functional serves every positive multiple of it.
    """

    coeffs: Vector

    def __post_init__(self):
        object.__setattr__(self, "coeffs", frozen_copy(as_vector(self.coeffs)))

    def apply(self, h) -> float:
        return float(self.coeffs @ as_vector(h, self.coeffs.size))


@dataclass(frozen=True, eq=False)
class SmoothnessVerdict:
    """Outcome of probing a point for differentiability of the norm.

    For a non-smooth verdict, ``right_deriv``/``left_deriv`` are the two
    one-sided slopes along ``witness_direction``; their disagreement is
    what breaks linearity.
    """

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

    Like ``fd_gradient``, the closed form is taken at ``e0`` scaled by a
    power of two: the coefficients have degree 0, so they keep their bits
    at normal scales and their digits at subnormal and huge ones.
    """
    S, norm, _, _ = _scaled_base(spec, e0)
    if not S.any():
        raise ValueError("the norm is not differentiable at the origin")
    coeffs, corners = spec._closed_form_rows(S[None], np.array([norm]))
    if corners[0]:
        raise NotDifferentiableError(f"{type(spec).__name__} has a corner at this point")
    return GradientFunctional(coeffs[0])


def fd_gradient(spec: NormSpec, e0, step: float | None = None) -> GradientFunctional:
    """Central-difference derivative functional from one stack of 2n rows.

    The default step is the cube root of machine epsilon times the norm
    of the point. Carries no smoothness guarantee: at a corner it averages
    the two one-sided slopes. Callers that need a certificate validate the
    result against one-sided derivatives (see ``classify_point``).

    The differences are taken at ``e0`` scaled by a power of two, and so is
    the step (a given step is checked in the caller's units first): the
    coefficients have degree 0, so they keep their bits at normal scales
    and stay accurate at subnormal and huge ones.
    """
    S, norm, e, r = _scaled_base(spec, e0)
    if not S.any():
        raise ValueError("cannot differentiate at the origin")
    step = _fd_step(norm) if step is None else math.ldexp(_fd_step(r, step), -e)
    return GradientFunctional(_fd_gradient(spec, S[None], np.array([step]))[0])


def _fd_step(r: float, step: float | None = None) -> float:
    """``fd_gradient``'s step at a nonzero point whose norm is ``r``, checked."""
    step = _FD_STEP * r if step is None else float(step)
    if not (0.0 < step < r / 10.0):
        raise ValueError(f"step must lie in (0, {r / 10.0:.3e}), got {step:.3e}")
    return step


def _fd_gradient(spec: NormSpec, P: Rows, steps: Vector) -> Rows:
    """``fd_gradient``'s coefficients at every checked nonzero row of ``P``,
    each with its checked step, from one ``values`` stack of 2n rows per row."""
    m, n = P.shape
    X = P[:, None] + steps[:, None, None] * _axis_pairs(n)
    norms = spec.values(X.reshape(-1, n)).reshape(2, m, n)
    return (norms[0] - norms[1]) / (2.0 * steps)[:, None]


@functools.cache
def _axis_pairs(n: int) -> NDArray[np.float64]:
    """The rows of I and of -I in R^n, as one read-only (2, 1, n, n) array.

    p + t * (-e_i) has the bits of p - t * e_i: negation is exact.
    """
    pairs = np.eye(n) * np.array([1.0, -1.0])[:, None, None, None]
    pairs.setflags(write=False)
    return pairs


def one_sided_derivative(spec: NormSpec, e0, v) -> float:
    """Right-sided directional slope lim_{t->0+} (|e0 + t v| - |e0|) / t.

    The quotients come from one stack of the rows e0, e0 + t_1 v, ...,
    e0 + t_k v, with t the ``DEFAULT_STEP_SEQUENCE`` times |e0|_2, and are
    polynomially extrapolated to zero. Convexity of the norm guarantees the
    limit exists in every direction, smooth point or not.

    Beyond |e0|_2 = 1e150 the slope is taken at e0 scaled by its power of
    two (``_unit_rows``), where no norm overflows: slopes have degree 0,
    and the scaling is exact while the entries stay normal.
    """
    e0 = as_vector(e0, spec.dim)
    v = as_vector(v, spec.dim)
    if not np.any(e0):
        raise ValueError("base point must be nonzero")
    if not np.any(v):
        raise ValueError("direction must be nonzero")
    scale = vector_length(e0)
    if scale > 1e150:
        (e0,), _ = _unit_rows(e0[None])
        scale = vector_length(e0)
    t = scale * _STEP_GRID
    if t[-1] == 0.0:  # |e0| so far below the least normal float that a step rounds to 0
        raise ValueError("base point is too small for the step grid")
    norms = spec.values(np.concatenate((e0[None], e0 + t[:, None] * v)))
    return extrapolate_to_zero(t, (norms[1:] - norms[0]) / t)


def classify_point(spec: NormSpec, e0, *, tol: float = CLASSIFY_TOL,
                   seed: int = 0) -> SmoothnessVerdict:
    """Decide whether the norm is differentiable at ``e0`` by probing slopes.

    Probes the n coordinate directions plus n random directions, each a
    normalised draw of one ``random.Random(seed).gauss(0.0, 1.0)`` per
    coordinate; ``seed`` must be a non-negative integer. A point is smooth
    when, in every probed direction, the two one-sided slopes are
    negatives of each other and both agree with the central-difference
    gradient. Otherwise the worst violating direction is returned with its
    one-sided slopes.

    The probes run at u = e0 / |e0|: slopes and the gradient have degree
    0, so the verdict does not depend on the scale of ``e0``. A smooth
    verdict holds the closed form, with ``analytic_gradient``'s bits
    wherever the nonzero entries of ``e0`` are normal floats. ``tol`` must
    be finite and positive.
    """
    e0, r = _checked_base(spec, e0)
    if not np.any(e0):
        raise ValueError("cannot classify the origin")
    tol = positive_finite(tol, "tol")
    return _classify(spec, e0, r, tol, seed)


def _classify(spec: NormSpec, e0: Vector, r: float, tol: float, seed: int,
              fd: GradientFunctional | None = None) -> SmoothnessVerdict:
    """``classify_point`` at a checked nonzero ``e0`` whose norm is ``r``.

    ``fd`` is the central-difference functional at any positive multiple
    of e0 (its coefficients have degree 0); without it, it is computed at
    e0 / |e0|.
    """
    u = e0 / r
    n = spec.dim

    # random.Random would read a negative seed as its absolute value
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    rng = random.Random(int(seed))
    directions = list(np.eye(n))
    while len(directions) < 2 * n:
        d = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
        length = vector_length(d)
        if length > 1e-12:
            directions.append(d / length)

    grad = fd_gradient(spec, u) if fd is None else fd
    worst_violation = -np.inf
    worst = None
    for v in directions:
        d_plus = one_sided_derivative(spec, u, v)
        d_minus = one_sided_derivative(spec, u, -v)
        gap = d_plus + d_minus  # zero iff the two-sided derivative exists
        slope = grad.apply(v)
        linearity = max(abs(d_plus - slope), abs(d_minus + slope))
        violation = max(abs(gap), linearity)
        if violation > worst_violation:
            worst_violation = violation
            worst = (v, d_plus, d_minus)

    v, d_plus, d_minus = worst
    if worst_violation <= tol:
        # prefer the exact closed form, at the norm already in hand; the
        # fd oracle validated it above. Beyond [1e-150, 1e150] it is taken
        # at e0 scaled by its power of two, as analytic_gradient takes it,
        # since a subnormal norm has too few digits; within, that scaling
        # changes no bit while the entries stay normal, so it is skipped
        if not 1e-150 <= r <= 1e150:
            (e0,), _ = _unit_rows(e0[None])
            r = float(spec._values(e0[None])[0])
        coeffs, corners = spec._closed_form_rows(e0[None], np.array([r]))
        gradient = grad if corners[0] else GradientFunctional(coeffs[0])
        return SmoothnessVerdict(smooth=True, gradient=gradient, violation=worst_violation)
    return SmoothnessVerdict(smooth=False,
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
