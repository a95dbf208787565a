"""SVG pictures of regions and configurations.

The polygonal grids are drawn in the Poincare disk, each cell a filled
polygon with edges sampled along geodesics.  The dodecahedral grid is
drawn through its trace plane: the cells with a face lying in the tape
line's carrier plane tile that plane like the five-sided grid, and each
such cell from the tape side contributes one filled pentagon.  The cell
behind the shared face shows as a central dot, and any neighbour on the
tape side holding a non-quiet state as a smaller dot pushed toward it.

Both views work on whole arrays: the drawn cells are picked, their
vertices placed, every geodesic edge sampled and every point projected
in a few numpy passes over all drawn cells, with the arithmetic of the
reference `geodesic_points` in tests/render_reference.py kept term for
term.  Each element is then written with one prebuilt %-format string.
The per-cell renderer this replaced is kept in the tests as the
byte-for-byte reference.

Output is deterministic: cells are emitted in id order and every number
is formatted to six decimals, with signed zero normalised to
``0.000000``, so renders are identical across runs and platforms and
diff cleanly.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import geometry as geo
from . import polytopes as poly
from .jsonfile import exactly, json_object, read_key
from .region import Region

# letter fill cycle, warm shades so multi-letter tapes stay readable
LETTER_COLORS = ("#f2d12e", "#e8a33d", "#d07c2a", "#b85f1f", "#9c4a18",
                 "#7f3a12")
BLUE = "#4a6fd4"
GREEN = "#57a85c"
RED = "#d44a4a"
LINE_BLANK = "#f2d12e"
OFF_BLANK = "#f7f5ef"

_CHUNK = 4096       # cells per array pass, bounding the float temporaries


@dataclass
class RenderSpec:
    """How to draw: one colour per state, plus projection details."""

    grid: str
    colors: dict[int, str] = field(default_factory=dict)
    size: int = 720
    samples_per_edge: int = 8
    stroke: str = "#3c3c3c"
    stroke_width: float = 0.0025
    background: str = "#ffffff"
    depth: int | None = None        # draw only cells this close to the tape
    quiet: int | None = None        # state not worth an above-plane dot

    def color(self, state: int) -> str:
        try:
            return self.colors[int(state)]
        except KeyError:
            raise ValueError(f"no colour for state {state}") from None


def default_render_spec(automaton) -> RenderSpec:
    """Figure colours for a produced automaton: warm letters, the added
    state blue, the compact background green and the marker state red."""
    colors = {s: LETTER_COLORS[s % len(LETTER_COLORS)]
              for s in automaton.letters}
    quiet = automaton.blue
    if quiet is not None:
        colors[quiet] = BLUE
    if automaton.kind == "compact":
        quiet = automaton.padding_state
        colors[quiet] = GREEN
        colors[automaton.marker] = RED
    return RenderSpec(grid=automaton.grid, colors=colors, quiet=quiet)


def blank_render_spec(grid: str) -> RenderSpec:
    """Role colours for a bare region: the tape line against background."""
    return RenderSpec(grid=grid, colors={0: OFF_BLANK, 1: LINE_BLANK},
                      quiet=0)


def blank_states(region: Region) -> np.ndarray:
    states = np.zeros(region.n_cells, dtype=np.int16)
    states[region.guideline.cell_ids] = 1
    return states


def spec_from_json(text: str) -> RenderSpec:
    read = partial(read_key, json_object(text, "render spec"), "render spec")

    def optional(value):
        return value if value is None else exactly(int)(value)

    def positive(value):
        if exactly(int)(value) < 1:
            raise ValueError(f"must be at least 1, not {value}")
        return value

    string = exactly(str)
    return RenderSpec(
        grid=read("grid", string),
        colors=read("colors",
                    lambda c: {int(k): string(v) for k, v in c.items()}),
        size=read("size", positive, 720),
        samples_per_edge=read("samples_per_edge", positive, 8),
        stroke=read("stroke", string, "#3c3c3c"),
        stroke_width=read("stroke_width",
                          lambda v: float(exactly(int, float)(v)), 0.0025),
        background=read("background", string, "#ffffff"),
        depth=read("depth", optional, None),
        quiet=read("quiet", optional, None),
    )


def _fmt(x: float) -> str:
    # coordinates that are zero in theory arrive as float noise of either
    # sign; one spelling for zero keeps renders equal across platforms
    s = f"{float(x):.6f}"
    return "0.000000" if s == "-0.000000" else s


def _numbers(fmt: str, values) -> str:
    """`fmt`, whose fields are all %.6f, filled with `values` and with
    signed zero spelt as `_fmt` spells it.  Every number carries exactly
    six decimals, so each "-0.000000" in the text is a whole number."""
    return (fmt % tuple(values)).replace("-0.000000", "0.000000")


def _outline_disk_points(vertices: np.ndarray, samples: int) -> np.ndarray:
    """Disk coordinates of hyperbolic polygon outlines, (m, k, d+1)
    vertices in, (m, k * samples, d) points out.  Each edge is sampled at
    `samples` evenly spaced points, its end point left out, with the
    arithmetic of the reference `geodesic_points` (tests/render_reference.py)
    applied to every edge at once.  A cell's edges have positive length,
    so its short-segment branch is not needed."""
    m, k, d1 = vertices.shape
    p = vertices.reshape(-1, d1)
    q = np.roll(vertices, -1, axis=1).reshape(-1, d1)
    d = np.arccosh(np.clip(geo.mdot(p, q), 1.0, None))[:, None, None]
    ts = np.linspace(0.0, 1.0, samples + 1)[:-1, None]
    pts = (np.sinh((1.0 - ts) * d) * p[:, None]
           + np.sinh(ts * d) * q[:, None]) / np.sinh(d)
    return geo.to_poincare_disk(pts).reshape(m, k * samples, d1 - 1)


def _path_elements(spec: RenderSpec, outlines: np.ndarray,
                   fills: list[str]) -> list[str]:
    """One filled <path> per outline, in order."""
    n = outlines.shape[1]
    fmt = "M %.6f %.6f" + " L %.6f %.6f" * (n - 1) + " Z"
    xy = outlines * (1.0, -1.0)          # SVG's y axis points down
    tail = (f' stroke="{spec.stroke}" '
            f'stroke-width="{_fmt(spec.stroke_width)}"/>')
    return [f'<path d="{_numbers(fmt, row)}" fill="{fill}"{tail}'
            for row, fill in zip(xy.reshape(len(xy), -1).tolist(), fills)]


def _circle(spec: RenderSpec, xy, r: float, fill: str) -> str:
    return (_numbers('<circle cx="%.6f" cy="%.6f" r="%.6f"',
                     (xy[0], -xy[1], r))
            + f' fill="{fill}" stroke="{spec.stroke}" '
            f'stroke-width="{_fmt(spec.stroke_width)}"/>')


def _drawn_cells(region: Region, spec: RenderSpec) -> np.ndarray:
    """Ids of the cells within the spec's depth, in id order."""
    if spec.depth is None:
        return np.arange(region.n_cells)
    return np.flatnonzero(region.dist <= spec.depth)


def _svg_document(spec: RenderSpec, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{spec.size}" height="{spec.size}" '
        f'viewBox="-1.05 -1.05 2.10 2.10">\n'
        f'<rect x="-1.05" y="-1.05" width="2.10" height="2.10" '
        f'fill="{spec.background}"/>\n'
        f'<circle cx="0" cy="0" r="1" fill="none" '
        f'stroke="{spec.stroke}" stroke-width="{_fmt(spec.stroke_width)}"/>\n'
    )
    return head + "\n".join(body) + ("\n" if body else "") + "</svg>\n"


def render_svg(region: Region, spec: RenderSpec,
               states: np.ndarray | None = None) -> str:
    """One configuration (or the bare region) as an SVG document."""
    if spec.grid != region.grid:
        raise ValueError(f"render spec is for {spec.grid}, "
                         f"region is {region.grid}")
    if states is None:
        states = blank_states(region)
        spec = dataclasses.replace(spec, quiet=0, colors=dict(
            spec.colors or blank_render_spec(spec.grid).colors))
    if region.grid == "dodecagrid":
        return _render_trace_plane(region, spec, states)
    return _render_polygons(region, spec, states)


def _render_polygons(region: Region, spec: RenderSpec,
                     states: np.ndarray) -> str:
    cells = _drawn_cells(region, spec)
    base = region.shape.vertices
    body = []
    for i in range(0, len(cells), _CHUNK):
        part = cells[i:i + _CHUNK]
        verts = base @ region.matrices[part].transpose(0, 2, 1)
        outlines = _outline_disk_points(verts, spec.samples_per_edge)
        body += _path_elements(spec, outlines,
                               [spec.color(s) for s in states[part].tolist()])
    return _svg_document(spec, body)


@lru_cache(maxsize=None)
def _trace_basis(grid: str):
    """The trace plane's normal and an orthonormal frame of the plane: a
    base point, the tape line's direction and a spacelike direction
    across it.  The plane carries face 0 of the base cell, the tape line
    is its cut with the face 2 plane, and the direction points toward the
    cell across face 1, the next tape cell."""
    shape = poly.by_name(grid)
    n0 = np.array(shape.side_normals[0])
    e0, e1 = geo.line_frame([n0, np.array(shape.side_normals[2])])
    base = np.eye(4)[0]
    # the null space behind the frame has no fixed sign
    if float(geo.mdot(shape.step_matrices[1] @ base, e1)) < float(
            geo.mdot(base, e1)):
        e1 = -e1
    e2 = None
    for trial in np.eye(4)[::-1]:
        v = trial - geo.mdot(trial, e0) * e0 + geo.mdot(trial, e1) * e1 \
            + geo.mdot(trial, n0) * n0
        if geo.mdot(v, v) < -1e-6:
            e2 = geo.normalize_spacelike(v)
            break
    for x in (n0, e0, e1, e2):
        x.flags.writeable = False
    return n0, e0, e1, e2


def _plane_coords(x: np.ndarray, e0, e1, e2) -> np.ndarray:
    """Coordinates of in-plane points in the frame's own hyperboloid."""
    return np.stack([geo.mdot(x, e0), -geo.mdot(x, e1), -geo.mdot(x, e2)],
                    axis=-1)


def _render_trace_plane(region: Region, spec: RenderSpec,
                        states: np.ndarray) -> str:
    shape = region.shape
    n0, e0, e1, e2 = _trace_basis(region.grid)
    centers = region.centers
    heights = geo.mdot(centers, n0)
    tape_side = np.sign(heights) == np.sign(heights[0])

    # the cells on the tape side one inradius from the plane, and the face
    # of each that lies in it
    cells = _drawn_cells(region, spec)
    cells = cells[tape_side[cells] & (np.abs(
        np.abs(heights[cells]) - np.sinh(shape.inradius)) <= 1e-6)]
    mats = region.matrices[cells]
    wn = (mats @ shape.side_normals.T).transpose(0, 2, 1)     # (m, 12, 4)
    in_plane = np.minimum(np.abs(wn - n0).max(axis=2),
                          np.abs(wn + n0).max(axis=2)) < 1e-6
    has_face = in_plane.any(axis=1)
    cells, mats = cells[has_face], mats[has_face]
    face = in_plane[has_face].argmax(axis=1)

    cycles = np.array(shape.side_vertex_cycles)[face]
    verts = shape.vertices[cycles] @ mats.transpose(0, 2, 1)
    plane_verts = _plane_coords(verts, e0, e1, e2)
    paths = _path_elements(
        spec, _outline_disk_points(plane_verts, spec.samples_per_edge),
        [spec.color(s) for s in states[cells].tolist()])

    centroid = geo.normalize_point(plane_verts.mean(axis=1))
    c2 = geo.to_poincare_disk(centroid)
    apparent = np.linalg.norm(
        geo.to_poincare_disk(plane_verts[:, 0]) - c2, axis=1)
    behind = region.adjacency[cells, face]

    # a dot for every tape-side neighbour off the plane face, unless quiet
    nbs = region.adjacency[cells]
    dot = (nbs >= 0) & tape_side[nbs]
    dot[np.arange(len(cells)), face] = False
    if spec.quiet is not None:
        dot &= states[nbs] != spec.quiet
    owner, g = np.nonzero(dot)
    nb = nbs[owner, g]
    toward = geo.normalize_point(
        centers[nb] + geo.mdot(centers[nb], n0)[:, None] * n0)
    spot = geo.normalize_point(0.45 * centroid[owner]
                               + 0.55 * _plane_coords(toward, e0, e1, e2))
    s2 = geo.to_poincare_disk(spot)
    dots_end = np.cumsum(np.bincount(owner, minlength=len(cells)))

    body = []
    for i in range(len(cells)):
        body.append(paths[i])
        if behind[i] >= 0:
            body.append(_circle(spec, c2[i], 0.38 * apparent[i],
                                spec.color(states[behind[i]])))
        for j in range(dots_end[i - 1] if i else 0, dots_end[i]):
            body.append(_circle(spec, s2[j], 0.17 * apparent[owner[j]],
                                spec.color(states[nb[j]])))
    return _svg_document(spec, body)
