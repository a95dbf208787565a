"""Base cells of the three supported tilings and their step operators.

Each supported grid is generated from one base cell centered at
(1, 0, ...) on the hyperboloid.  ``step_matrices[i]`` is a proper Lorentz
matrix carrying the base cell onto its neighbor across side i, numbering the
neighbor's sides by image.  With this choice the shared side is numbered i
in both cells of a polygonal grid, and op(i) in the neighbor for the
dodecahedral grid.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import geometry as geo
from . import symmetry as sym


@dataclass(frozen=True)
class CellShape:
    name: str
    dim: int                       # hyperbolic dimension, 2 or 3
    n_sides: int
    inradius: float
    side_directions: np.ndarray    # (n_sides, dim) Euclidean unit vectors
    side_normals: np.ndarray       # (n_sides, dim+1)
    step_matrices: np.ndarray      # (n_sides, dim+1, dim+1)
    vertices: np.ndarray           # (n_vertices, dim+1)
    side_vertex_cycles: tuple[tuple[int, ...], ...]


def _polygon(name: str, p: int, q: int) -> CellShape:
    rho = np.arccosh(np.cos(np.pi / q) / np.sin(np.pi / p))
    circ = np.arccosh(1.0 / (np.tan(np.pi / p) * np.tan(np.pi / q)))
    # side i points at pi/2 - 2*pi*i/p: numbering runs clockwise on screen
    angles = np.pi / 2 - 2 * np.pi * np.arange(p) / p
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    normals = np.stack([geo.plane_normal_through(rho, d) for d in dirs])
    steps = []
    for i in range(p):
        refl = geo.reflection(normals[i])
        axis_normal = np.array([0.0, -dirs[i, 1], dirs[i, 0]])
        steps.append(refl @ geo.reflection(axis_normal))
    # vertex i sits between sides i and i+1
    vangles = angles - np.pi / p
    verts = np.stack(
        [geo.point_at(circ, np.array([np.cos(a), np.sin(a)])) for a in vangles]
    )
    cycles = tuple(((i - 1) % p, i) for i in range(p))
    return CellShape(
        name=name,
        dim=2,
        n_sides=p,
        inradius=float(rho),
        side_directions=dirs,
        side_normals=normals,
        step_matrices=np.stack(steps),
        vertices=verts,
        side_vertex_cycles=cycles,
    )


@lru_cache(maxsize=1)
def pentagrid() -> CellShape:
    """Regular pentagon with right angles, four meeting at each vertex."""
    return _polygon("pentagrid", 5, 4)


@lru_cache(maxsize=1)
def heptagrid() -> CellShape:
    """Regular heptagon, three meeting at each vertex."""
    return _polygon("heptagrid", 7, 3)


def _dodeca_face_directions() -> np.ndarray:
    u = np.zeros((12, 3))
    u[0] = (0.0, 0.0, -1.0)
    u[11] = (0.0, 0.0, 1.0)
    r = 2.0 / np.sqrt(5.0)
    z = 1.0 / np.sqrt(5.0)
    for k in range(1, 6):
        phi = np.deg2rad(-90.0 - (k - 1) * 72.0)
        u[k] = (r * np.cos(phi), r * np.sin(phi), -z)
    for k, deg in zip(range(6, 11), (-54.0, -126.0, 162.0, 90.0, 18.0)):
        phi = np.deg2rad(deg)
        u[k] = (r * np.cos(phi), r * np.sin(phi), z)
    return u


@lru_cache(maxsize=1)
def dodecagrid() -> CellShape:
    """Right-angled regular dodecahedron, eight meeting at each vertex."""
    u = _dodeca_face_directions()
    rho = np.arctanh(5.0 ** -0.25)
    normals = np.stack([geo.plane_normal_through(rho, d) for d in u])
    flip = np.diag([1.0, -1.0, -1.0, -1.0])
    steps = np.stack([geo.reflection(n) @ flip for n in normals])

    # vertices: one per mutually adjacent face triple
    triples = []
    for i in range(12):
        for j in sym.FACE_RINGS[i]:
            if j < i:
                continue
            for k in sym.FACE_RINGS[i]:
                if k < j or k not in sym.FACE_RINGS[j]:
                    continue
                triples.append((i, j, k))
    vdirs = np.stack([u[list(t)].sum(axis=0) for t in triples])
    vdirs /= np.linalg.norm(vdirs, axis=1, keepdims=True)
    cos_fv = float(vdirs[0] @ u[triples[0][0]])
    circ = np.arctanh(np.tanh(rho) / cos_fv)
    verts = np.stack([geo.point_at(circ, d) for d in vdirs])
    index = {t: n for n, t in enumerate(triples)}
    cycles = []
    for i in range(12):
        ring = sym.FACE_RINGS[i]
        cyc = []
        for k in range(5):
            t = tuple(sorted((i, ring[k], ring[(k + 1) % 5])))
            cyc.append(index[t])
        cycles.append(tuple(cyc))
    return CellShape(
        name="dodecagrid",
        dim=3,
        n_sides=12,
        inradius=float(rho),
        side_directions=u,
        side_normals=normals,
        step_matrices=steps,
        vertices=verts,
        side_vertex_cycles=tuple(cycles),
    )


def by_name(name: str) -> CellShape:
    try:
        return {"pentagrid": pentagrid, "heptagrid": heptagrid,
                "dodecagrid": dodecagrid}[name]()
    except KeyError:
        raise ValueError(f"unknown grid {name!r}") from None
