"""Shared test utilities: independent oracles and spec inventories."""

import numpy as np

from normgeom import LpNorm, QuadraticNorm


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
