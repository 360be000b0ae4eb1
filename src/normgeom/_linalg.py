"""Small dense linear-algebra and argument helpers shared across the package."""

from __future__ import annotations

import functools
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


def vector_length(x: Array) -> float:
    """|x|_2 of one vector: one dot product while the square is in range.

    ``np.vdot`` sets no overflow warning; where the square over- or
    underflows, ``euclidean_norm`` takes over. Both give the same bits. A
    length beyond the float range is inf, with no warning either.
    """
    length = math.sqrt(np.vdot(x, x))
    if not 1e-150 <= length <= 1e150:
        with np.errstate(over="ignore"):
            length = float(euclidean_norm(x))
    return length


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
    scale = vector_length(row)
    if scale == 0.0 or not math.isfinite(scale):
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


@functools.cache
def sample_design(dim: int, rows: int, low: float) -> tuple[Array, Array]:
    """At least ``rows`` fixed directions in R^dim as rows, and their sizes.

    A class is ±e_i, or ±(e_i ± e_j)/√2 with j = i + 1 (mod dim when dim >
    2); classes are taken in turn until ``rows`` is reached, and class k of
    the K taken has size low + (1 - low)(k + 1/2)/K in [low, 1). No class
    is split, so the design is closed under coordinate sign flips. Built
    once per argument tuple; both arrays are read-only.
    """
    eye = np.eye(dim)
    halves = [eye[[i]] for i in range(dim)] + [
        (eye[i] + [[1.0], [-1.0]] * eye[(i + 1) % dim]) / math.sqrt(2.0)
        for i in range(dim if dim > 2 else dim - 1)]
    taken = []
    while 2 * sum(map(len, taken)) < rows:
        taken.append(halves[len(taken) % len(halves)])
    half = np.vstack(taken)
    sizes = np.repeat(low + (1.0 - low) * (np.arange(len(taken)) + 0.5) / len(taken),
                      [len(h) for h in taken])
    return frozen_copy(np.vstack([half, -half])), frozen_copy(np.tile(sizes, 2))


def extrapolate_to_zero(steps, values) -> float:
    """Neville polynomial extrapolation of samples (step, value) to step -> 0.

    The tableau runs on Python floats: the same IEEE double operations as
    on numpy scalars, without boxing one at every entry.
    """
    t = np.asarray(steps, dtype=float).tolist()
    q = np.asarray(values, dtype=float).tolist()
    n = len(t)
    for level in range(1, n):
        for i in range(n - level):
            q[i] = (t[i] * q[i + 1] - t[i + level] * q[i]) / (t[i] - t[i + level])
    return q[0]
