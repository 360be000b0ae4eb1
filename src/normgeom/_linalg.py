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
