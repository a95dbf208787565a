"""Hyperboloid-model primitives shared by the tiling generators.

Points live on the upper sheet of <x, x> = 1 where the bilinear form has
signature (+, -, ..., -).  Geodesic lines (2D) and planes (3D) are stored as
unit spacelike normals with <n, n> = -1; a point x lies on the object iff
<x, n> = 0.
"""
from __future__ import annotations

import numpy as np


def mdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minkowski inner product, broadcasting over leading axes."""
    prod = a * b
    return prod[..., 0] - prod[..., 1:].sum(axis=-1)


def normalize_point(x: np.ndarray) -> np.ndarray:
    """Scale a timelike vector back onto the unit hyperboloid."""
    return x / np.sqrt(mdot(x, x))[..., None]


def normalize_spacelike(n: np.ndarray) -> np.ndarray:
    return n / np.sqrt(-mdot(n, n))[..., None]


def reflection(n: np.ndarray) -> np.ndarray:
    """Lorentz reflection across the plane with unit spacelike normal n."""
    d = n.shape[-1]
    j = np.ones(d)
    j[1:] = -1.0
    return np.eye(d) + 2.0 * np.outer(n, n * j)


def plane_normal_through(p: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Unit normal of the geodesic at distance d along `direction` from the
    base point (1, 0, ...), orthogonal to that geodesic ray.

    `p` is the foot distance, `direction` a Euclidean unit vector in the
    spatial coordinates.
    """
    d = direction.shape[-1] + 1
    n = np.zeros(d)
    n[0] = np.sinh(p)
    n[1:] = np.cosh(p) * direction
    return n


def point_at(dist: float, direction: np.ndarray) -> np.ndarray:
    """Hyperboloid point at hyperbolic distance `dist` from the base point."""
    d = direction.shape[-1] + 1
    x = np.zeros(d)
    x[0] = np.cosh(dist)
    x[1:] = np.sinh(dist) * direction
    return x


def line_frame(normals: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal (timelike, spacelike) frame spanning the geodesic line cut
    out by the given plane normals (one normal in 2D, two in 3D).

    Returns (p0, w) with <p0,p0> = 1, <w,w> = -1, <p0,w> = 0.  Points of the
    line are cosh(t) p0 + sinh(t) w.
    """
    d = normals[0].shape[-1]
    j = np.ones(d)
    j[1:] = -1.0
    rows = np.stack([n * j for n in normals])
    basis = _null_space(rows)
    if basis.shape[1] != 2:
        raise ValueError("normals do not cut out a line")
    a, b = basis[:, 0], basis[:, 1]
    # Gram step in the Minkowski form; the 2-subspace has signature (+, -).
    if mdot(a, a) < 0:
        a, b = b, a
    if mdot(a, a) <= 0:
        a = a + b if mdot(a + b, a + b) > 0 else a - b
    p0 = normalize_point(a if a[0] > 0 else -a)
    b = b - mdot(b, p0) * p0
    w = normalize_spacelike(b)
    return p0, w


def _null_space(rows: np.ndarray) -> np.ndarray:
    _, s, vt = np.linalg.svd(rows, full_matrices=True)
    rank = int((s > 1e-9 * s.max()).sum())
    return vt[rank:].T


def to_poincare_disk(x: np.ndarray) -> np.ndarray:
    """Project hyperboloid points to the Poincare disk/ball."""
    return x[..., 1:] / (1.0 + x[..., 0:1])
