"""Seeded inputs for the benchmark workloads.

Every workload is a list of groups. A group is one norm description (the
JSON form the ``normgeom`` CLI reads) plus points and one ground-truth
label per point:

- ``corner``: an exact corner, built from exact ties, zero coordinates or
  equal block norms; the norm is not differentiable there.
- ``near_corner``: a smooth point within a relative offset of 1e-6..1e-1
  of a corner. No verdict is required: a slope probe whose steps straddle
  the near tie may see a kink.
- ``generic``: a smooth point whose tie margin is at least 0.05.
- ``smooth``: a point of a norm that is C^1 away from the origin, at any
  radius in [1e-3, 1e3].

The labels come from the construction alone; this module uses numpy and
never calls normgeom, so the program under test only receives files.
"""

from __future__ import annotations

import numpy as np

#: Per-group sizes. ``points`` are timed every pass, the first ``traced``
#: are replayed under the tracer, and the first ``cli`` go to the CLI in
#: point files of ``cli_file`` points each. Short CLI runs let the best
#: of several rounds find the host's quiet moments.
SIZES = {
    "smooth_roundtrip": {"points": 128, "traced": 24, "cli": 32, "cli_file": 8},
    "highdim_roundtrip": {"points": 100, "traced": 6, "cli": 8, "cli_file": 4},
    "corner_classify": {"points": 90, "traced": 30, "cli": 45, "cli_file": 15},
}

CALLS = {"smooth_roundtrip": "roundtrip", "highdim_roundtrip": "roundtrip",
         "corner_classify": "classify"}

NEAR_OFFSETS = (1e-6, 1e-1)
GENERIC_MARGIN = 0.05


def _lp_unit(rng, p: float, n: int) -> np.ndarray:
    x = rng.standard_normal(n)
    return x / np.sum(np.abs(x) ** p) ** (1.0 / p)


def _spd(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    q = a @ a.T / n + 0.5 * np.eye(n)
    return 0.5 * (q + q.T)  # bitwise symmetric, so the JSON form is too


def _quad_unit(rng, q: np.ndarray) -> np.ndarray:
    x = rng.standard_normal(q.shape[0])
    return x / np.sqrt(x @ q @ x)


def _spread_radii(rng, count: int, lo: float, hi: float) -> np.ndarray:
    """Log-uniform radii whose every prefix covers [lo, hi] evenly.

    The van der Corput sequence, shifted by one random offset, puts the
    same share of points at small radii in every seed and in every prefix
    (the traced and CLI subsets), so verdict rates and costs move little
    from seed to seed.
    """
    u = np.zeros(count)
    for i in range(count):
        k, base = i, 0.5
        while k:
            u[i] += base * (k & 1)
            k, base = k >> 1, base / 2
    return lo * (hi / lo) ** ((u + rng.uniform()) % 1.0)


def _group(spec: dict, points, labels) -> dict:
    return {"spec": spec, "points": [np.asarray(p, dtype=float).tolist() for p in points],
            "labels": list(labels)}


def smooth_roundtrip(rng, count: int) -> list[dict]:
    q = _spd(rng, 3)
    groups = []
    for spec, unit in (({"type": "lp", "p": 4.0, "dim": 3}, lambda: _lp_unit(rng, 4.0, 3)),
                       ({"type": "quadratic", "q": q.tolist()}, lambda: _quad_unit(rng, q))):
        radii = _spread_radii(rng, count, 1e-3, 1e3)
        groups.append(_group(spec, [r * unit() for r in radii], ["smooth"] * count))
    return groups


def highdim_roundtrip(rng, count: int) -> list[dict]:
    q = _spd(rng, 20)
    lp = _group({"type": "lp", "p": 3.0, "dim": 20},
                [_lp_unit(rng, 3.0, 20) for _ in range(count)], ["generic"] * count)
    quad = _group({"type": "quadratic", "q": q.tolist()},
                  [_quad_unit(rng, q) for _ in range(count)], ["generic"] * count)
    return [lp, quad]


def _signs(rng, n: int) -> np.ndarray:
    return rng.choice((-1.0, 1.0), n)


def _near_offset(rng) -> float:
    """A relative distance to a corner, log-uniform over ``NEAR_OFFSETS``."""
    lo, hi = np.log10(NEAR_OFFSETS)
    return float(10.0 ** rng.uniform(lo, hi))


def _linf_point(rng, kind: str) -> np.ndarray:
    """Max norm in dim 3: a corner is a tie of the largest magnitudes."""
    top = {"corner": int(rng.integers(2, 4)), "near_corner": 2, "generic": 1}[kind]
    mags = rng.uniform(0.0, 1.0 - GENERIC_MARGIN, 3)
    mags[:top] = 1.0
    if kind == "near_corner":
        mags[1] = 1.0 - _near_offset(rng)
        mags[2] *= mags[1]
    return (_signs(rng, 3) * mags)[rng.permutation(3)]


def _l1_point(rng, kind: str) -> np.ndarray:
    """l1 norm in dim 3: a corner has a zero coordinate."""
    mags = rng.uniform(3.0 * GENERIC_MARGIN, 1.0, 3)
    if kind == "corner":
        mags[: int(rng.integers(1, 3))] = 0.0
    elif kind == "near_corner":
        mags[0] = _near_offset(rng) * mags[1:].sum()
    x = (_signs(rng, 3) * mags)[rng.permutation(3)]
    return x / np.abs(x).sum()


#: Unit-ball vertices of max(|x|, |y|, |x + y|), in boundary order; the
#: edge from vertex j to vertex j + 1 is where one functional attains.
_HEXAGON = np.array([[1, 0], [0, 1], [-1, 1], [-1, 0], [0, -1], [1, -1]], dtype=float)


def _hexagon_point(rng, kind: str) -> np.ndarray:
    """A corner is a vertex; ``s`` is the relative distance along an edge."""
    j = int(rng.integers(6))
    if kind == "corner":
        return _HEXAGON[j].copy()
    if kind == "near_corner":
        s = _near_offset(rng)
        s = s if rng.uniform() < 0.5 else 1.0 - s
    else:
        s = rng.uniform(GENERIC_MARGIN, 1.0 - GENERIC_MARGIN)
    return (1.0 - s) * _HEXAGON[j] + s * _HEXAGON[(j + 1) % 6]


def _lp15_unit(rng) -> np.ndarray:
    """Unit l^1.5 vector in dim 2 whose smaller coordinate is >= 0.05 of the larger."""
    mags = np.array([1.0, rng.uniform(GENERIC_MARGIN, 1.0)])
    x = (_signs(rng, 2) * mags)[rng.permutation(2)]
    return x / np.sum(np.abs(x) ** 1.5) ** (1.0 / 1.5)


def _linf2_point(rng, tied: bool, offset: float = 0.0) -> np.ndarray:
    mags = np.array([1.0, 1.0 - offset if tied else rng.uniform(0.0, 1.0 - GENERIC_MARGIN)])
    return (_signs(rng, 2) * mags)[rng.permutation(2)]


def _product_point(rng, kind: str) -> np.ndarray:
    """max(|a|_inf, |b|_1.5): corners are equal block norms or ties inside a."""
    by_blocks = rng.uniform() < 0.5
    b = _lp15_unit(rng)
    if kind == "corner":
        if by_blocks:
            return np.concatenate([_linf2_point(rng, tied=False), b])
        return np.concatenate([_linf2_point(rng, tied=True),
                               b * rng.uniform(0.1, 1.0 - GENERIC_MARGIN)])
    if kind == "near_corner":
        offset = _near_offset(rng)
        if by_blocks:
            return np.concatenate([_linf2_point(rng, tied=False), b * (1.0 - offset)])
        return np.concatenate([_linf2_point(rng, tied=True, offset=offset),
                               b * rng.uniform(0.1, 1.0 - GENERIC_MARGIN)])
    ratio = rng.uniform(0.1, 1.0 - GENERIC_MARGIN)
    if by_blocks:  # the a block dominates
        return np.concatenate([_linf2_point(rng, tied=False), b * ratio])
    return np.concatenate([_linf2_point(rng, tied=False) * ratio, b])


def corner_classify(rng, count: int) -> list[dict]:
    families = (
        ({"type": "linf", "dim": 3}, _linf_point),
        ({"type": "l1", "dim": 3}, _l1_point),
        ({"type": "polyhedral", "functionals": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]},
         _hexagon_point),
        ({"type": "product_max", "left": {"type": "linf", "dim": 2},
          "right": {"type": "lp", "p": 1.5, "dim": 2}}, _product_point),
    )
    groups = []
    for spec, make in families:
        labels = [("corner", "near_corner", "generic")[i % 3] for i in range(count)]
        groups.append(_group(spec, [make(rng, kind) for kind in labels], labels))
    return groups


WORKLOADS = {"smooth_roundtrip": smooth_roundtrip,
             "highdim_roundtrip": highdim_roundtrip,
             "corner_classify": corner_classify}


def generate(workload: str, seed: int) -> list[dict]:
    """The groups of ``workload`` for ``seed``; equal seeds give equal groups."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng, SIZES[workload]["points"])
