"""Small dense linear-algebra and argument helpers shared across the package."""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

Array = NDArray[np.float64]


def frozen_copy(a) -> Array:
    """Owned, read-only float copy of an array-like."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def positive_finite(value, name: str) -> float:
    """``value`` as a float; raise ValueError unless it is finite and > 0."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return value


def euclidean_norm(x, axis: int | None = None):
    """|x|_2, or the norm of each vector along ``axis``, free of over- and underflow.

    Each vector is scaled by the power of two of its largest |entry| first,
    which is exact, so where the squares stay in range the result equals
    ``np.linalg.norm``'s bit for bit.
    """
    x = np.asarray(x, dtype=float)
    _, exp = np.frexp(np.abs(x).max(axis=axis, keepdims=True))
    return np.ldexp(np.linalg.norm(np.ldexp(x, -exp), axis=axis), np.squeeze(exp, axis))


def tangent_basis(basis, dim: int) -> Array:
    """``basis`` as a read-only (dim - 1, dim) array of orthonormal rows.

    The one check of a tangent basis, for frames and fitted tangents
    alike: raises ValueError unless the shape fits and B B^T = I to 1e-9.
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    if basis.size == 0:
        basis = basis.reshape(0, dim)
    if basis.shape != (dim - 1, dim):
        raise ValueError(f"basis must have shape {(dim - 1, dim)}, got {basis.shape}")
    if not np.abs(basis @ basis.T - np.eye(dim - 1)).max(initial=0.0) <= 1e-9:
        raise ValueError("tangent basis rows must be orthonormal")
    return frozen_copy(basis)


def orthonormal_complement(row: Array) -> Array:
    """Orthonormal basis (as rows) of the hyperplane {x : row @ x = 0}.

    Uses the SVD of the single row, which stays stable when the row is
    nearly axis-aligned.
    """
    row = np.asarray(row, dtype=float)
    if row.ndim != 1 or row.size == 0:
        raise ValueError("expected a single nonempty row functional")
    scale = np.linalg.norm(row)
    if scale == 0.0 or not np.isfinite(scale):
        raise ValueError("cannot complete a zero or non-finite row")
    _, _, vt = np.linalg.svd(row.reshape(1, -1))
    return vt[1:]


def oblique_projection(onto_rows: Array, along_rows: Array) -> Array:
    """Matrix of the projection with range span(onto) and kernel span(along).

    Both inputs are stacked row-wise; together they must form a basis of
    the ambient space.
    """
    onto = np.atleast_2d(np.asarray(onto_rows, dtype=float))
    along = np.atleast_2d(np.asarray(along_rows, dtype=float))
    n = onto.shape[1]
    if along.shape[1] != n:
        raise ValueError("subspace bases live in different ambient dimensions")
    stacked = np.vstack([onto, along])
    if stacked.shape[0] != n or np.linalg.matrix_rank(stacked) < n:
        raise ValueError("the two subspaces do not form a direct sum")
    k = onto.shape[0]
    inv = np.linalg.solve(stacked.T, np.eye(n))
    return onto.T @ inv[:k]


def sized_directions(rng: np.random.Generator, samples: int, dim: int,
                     low: float) -> tuple[Array, Array]:
    """Seeded directions in R^dim as rows, each with a size drawn from [low, 1).

    One standard-normal draw of all directions, then one uniform draw of
    the sizes of those that are nonzero; zero directions are dropped.
    """
    directions = rng.standard_normal((samples, dim))
    directions = directions[np.any(directions, axis=1)]
    return directions, rng.uniform(low, 1.0, len(directions))


def extrapolate_to_zero(steps, values) -> float:
    """Neville polynomial extrapolation of samples (step, value) to step -> 0."""
    t = np.asarray(steps, dtype=float)
    q = np.asarray(values, dtype=float).copy()
    n = t.size
    for level in range(1, n):
        for i in range(n - level):
            q[i] = (t[i] * q[i + 1] - t[i + level] * q[i]) / (t[i] - t[i + level])
    return float(q[0])
