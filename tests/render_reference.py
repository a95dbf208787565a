"""The per-cell SVG renderer, kept as the reference for `hypca.render`.

It walks the drawn cells one at a time: place the vertices, sample each
geodesic edge, project, and format every number on its own.  The array
renderer in `hypca.render` must reproduce its output byte for byte.
"""
from __future__ import annotations

import numpy as np

from hypca import geometry as geo
from hypca.region import Region
from hypca.render import (RenderSpec, _fmt, _plane_coords, _svg_document,
                          _trace_basis, blank_render_spec, blank_states)


def render_svg(region: Region, spec: RenderSpec,
               states: np.ndarray | None = None) -> str:
    if spec.grid != region.grid:
        raise ValueError(f"render spec is for {spec.grid}, "
                         f"region is {region.grid}")
    if states is None:
        states = blank_states(region)
        spec = RenderSpec(grid=spec.grid, colors=dict(spec.colors)
                          or dict(blank_render_spec(spec.grid).colors),
                          size=spec.size,
                          samples_per_edge=spec.samples_per_edge,
                          stroke=spec.stroke, stroke_width=spec.stroke_width,
                          background=spec.background, depth=spec.depth,
                          quiet=0)
    if region.grid == "dodecagrid":
        return _render_trace_plane(region, spec, states)
    return _render_polygons(region, spec, states)


def geodesic_points(p: np.ndarray, q: np.ndarray, count: int) -> np.ndarray:
    """`count` evenly spaced points of the geodesic segment from p to q."""
    c = float(np.clip(geo.mdot(p, q), 1.0, None))
    d = np.arccosh(c)
    ts = np.linspace(0.0, 1.0, count)
    if d < 1e-12:
        return np.outer(1.0 - ts, p) + np.outer(ts, q)
    pts = (np.outer(np.sinh((1.0 - ts) * d), p) + np.outer(np.sinh(ts * d), q)) / np.sinh(d)
    return pts


def _path(points: np.ndarray) -> str:
    parts = [f"M {_fmt(points[0, 0])} {_fmt(-points[0, 1])}"]
    parts.extend(f"L {_fmt(u)} {_fmt(-v)}" for u, v in points[1:])
    return " ".join(parts) + " Z"


def _polygon_disk_points(vertices: np.ndarray, samples: int) -> np.ndarray:
    pts = []
    k = len(vertices)
    for i in range(k):
        seg = geodesic_points(vertices[i], vertices[(i + 1) % k],
                              samples + 1)[:-1]
        pts.append(geo.to_poincare_disk(seg))
    return np.concatenate(pts)


def _render_polygons(region: Region, spec: RenderSpec,
                     states: np.ndarray) -> str:
    base = region.shape.vertices
    body = []
    for c in range(region.n_cells):
        if spec.depth is not None and region.dist[c] > spec.depth:
            continue
        verts = base @ region.matrices[c].T
        pts = _polygon_disk_points(verts, spec.samples_per_edge)
        body.append(f'<path d="{_path(pts)}" '
                    f'fill="{spec.color(states[c])}" '
                    f'stroke="{spec.stroke}" '
                    f'stroke-width="{_fmt(spec.stroke_width)}"/>')
    return _svg_document(spec, body)


def _render_trace_plane(region: Region, spec: RenderSpec,
                        states: np.ndarray) -> str:
    shape = region.shape
    n0, e0, e1, e2 = _trace_basis(region.grid)
    centers = region.centers
    heights = geo.mdot(centers, n0)
    ref_side = np.sign(heights[0])

    sinh_rho = np.sinh(shape.inradius)
    body = []
    for c in range(region.n_cells):
        if spec.depth is not None and region.dist[c] > spec.depth:
            continue
        if np.sign(heights[c]) != ref_side \
                or abs(abs(heights[c]) - sinh_rho) > 1e-6:
            continue
        m = region.matrices[c]
        face = None
        for f in range(12):
            wn = m @ shape.side_normals[f]
            if min(np.abs(wn - n0).max(), np.abs(wn + n0).max()) < 1e-6:
                face = f
                break
        if face is None:
            continue
        cycle = list(shape.side_vertex_cycles[face])
        verts = shape.vertices[cycle] @ m.T
        plane_verts = _plane_coords(verts, e0, e1, e2)
        pts = _polygon_disk_points(plane_verts, spec.samples_per_edge)
        body.append(f'<path d="{_path(pts)}" '
                    f'fill="{spec.color(states[c])}" '
                    f'stroke="{spec.stroke}" '
                    f'stroke-width="{_fmt(spec.stroke_width)}"/>')

        centroid = geo.normalize_point(plane_verts.mean(axis=0))
        c2 = geo.to_poincare_disk(centroid)
        apparent = float(np.linalg.norm(
            geo.to_poincare_disk(plane_verts[0]) - c2))
        behind = region.adjacency[c, face]
        if behind >= 0:
            body.append(f'<circle cx="{_fmt(c2[0])}" cy="{_fmt(-c2[1])}" '
                        f'r="{_fmt(0.38 * apparent)}" '
                        f'fill="{spec.color(states[behind])}" '
                        f'stroke="{spec.stroke}" '
                        f'stroke-width="{_fmt(spec.stroke_width)}"/>')
        for g in range(12):
            nb = region.adjacency[c, g]
            if g == face or nb < 0 or np.sign(heights[nb]) != ref_side:
                continue
            if spec.quiet is not None and states[nb] == spec.quiet:
                continue
            toward = centers[nb] + geo.mdot(centers[nb], n0) * n0
            toward = geo.normalize_point(toward)
            spot = geo.normalize_point(
                0.45 * centroid + 0.55 * _plane_coords(toward, e0, e1, e2))
            s2 = geo.to_poincare_disk(spot)
            body.append(f'<circle cx="{_fmt(s2[0])}" cy="{_fmt(-s2[1])}" '
                        f'r="{_fmt(0.17 * apparent)}" '
                        f'fill="{spec.color(states[nb])}" '
                        f'stroke="{spec.stroke}" '
                        f'stroke-width="{_fmt(spec.stroke_width)}"/>')
    return _svg_document(spec, body)
