import collections
import dataclasses
import hashlib
import itertools
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hypca import cli, embed, engine
from hypca import geometry as geo
from hypca import polytopes as poly
from hypca import region as reg
from hypca import symmetry as sym

import region_reference as float_ref

GOLDEN = Path(__file__).parent / "golden"

# cell counts are frozen: a change means the generator walked a different
# portion of the tiling
FROZEN_SIZES = {
    ("pentagrid", 1, 0): 6,
    ("heptagrid", 1, 0): 8,
    ("dodecagrid", 1, 0): 13,
    ("pentagrid", 3, 2): 177,
    ("heptagrid", 3, 2): 201,
    ("dodecagrid", 3, 1): 2369,
}


@pytest.mark.parametrize("key", sorted(FROZEN_SIZES))
def test_frozen_cell_counts(region_of, key):
    grid, radius, hw = key
    assert region_of(grid, radius, hw).n_cells == FROZEN_SIZES[key]


@pytest.mark.parametrize("grid,radius,hw", [
    ("pentagrid", 3, 2), ("heptagrid", 3, 2), ("dodecagrid", 3, 1),
    ("pentagrid", 7, 2), ("heptagrid", 6, 3), ("dodecagrid", 3, 2)])
def test_adjacency_symmetric(region_of, grid, radius, hw):
    """Every neighbour lists the cell back; the verify scan's recode of
    changed cells' neighbourhoods relies on it."""
    r = region_of(grid, radius, hw)
    c, s = np.nonzero(r.adjacency >= 0)
    back = (r.adjacency[r.adjacency[c, s]] == c[:, None]).any(axis=1)
    assert back.all(), (c[~back][:3], s[~back][:3])


@pytest.mark.parametrize("grid", ["pentagrid", "heptagrid"])
def test_polygonal_neighbors_share_the_side_plane(region_of, grid):
    """Side numbers are local to each cell's frame, but the two numbered
    sides of an adjacent pair must be the same geometric plane."""
    r = region_of(grid, 3, 2)
    normals = r.shape.side_normals
    for c in range(r.n_cells):
        for s in range(r.shape.n_sides):
            d = r.adjacency[c, s]
            if d < 0:
                continue
            back = np.nonzero(r.adjacency[d] == c)[0]
            assert len(back) == 1, (c, s, d)
            nc = r.matrices[c] @ normals[s]
            nd = r.matrices[d] @ normals[back[0]]
            assert min(np.abs(nc - nd).max(), np.abs(nc + nd).max()) < 1e-9


def test_centers_well_separated(region_of):
    r = region_of("pentagrid", 3, 2)
    c = r.centers
    diff = np.abs(c[:, None, :] - c[None, :, :]).max(axis=2)
    np.fill_diagonal(diff, np.inf)
    assert diff.min() > 0.02     # distinct cells, well-separated centres


@pytest.mark.parametrize("grid,gap", [("pentagrid", 3), ("heptagrid", 4)])
def test_guideline_side_gap(region_of, grid, gap):
    r = region_of(grid, 3, 2)
    gl = r.guideline
    p = r.shape.n_sides
    assert all((int(b) - int(a)) % p == gap
               for a, b in zip(gl.left_sides, gl.right_sides))


def test_guideline_positions_and_lookup(region_of):
    r = region_of("heptagrid", 3, 2)
    gl = r.guideline
    extent = r.radius + r.halfwidth
    assert list(gl.positions) == list(range(-extent, extent + 1))
    assert gl.id_at(0) == 0
    # the chain takes ids 0..2 extent, the rest of it in position order
    assert sorted(gl.cell_ids.tolist()) == list(range(2 * extent + 1))
    assert (np.diff(gl.cell_ids[gl.positions != 0]) > 0).all()


@pytest.mark.parametrize("grid,radius,hw", [
    ("pentagrid", 3, 2), ("heptagrid", 3, 2), ("dodecagrid", 3, 1)])
def test_guideline_triples_walk_the_chain(region_of, grid, radius, hw):
    r = region_of(grid, radius, hw)
    triples = float_ref.guideline_triples(r)
    extent = r.radius + r.halfwidth
    for (c, left, right), pos in zip(triples, range(-extent, extent + 1)):
        if pos > -extent:
            assert float_ref.neighbor(r, c, left) == r.guideline.id_at(pos - 1)
        if pos < extent:
            assert float_ref.neighbor(r, c, right) == r.guideline.id_at(pos + 1)


@pytest.mark.parametrize("side", ["left", "right"])
def test_check_chain_refuses_a_broken_chain(side):
    """One chain cell that does not meet its neighbour across the side the
    guideline names is refused, on either side."""
    r = reg.build_region("pentagrid", 2, 1)
    gl = r.guideline
    sides = gl.left_sides if side == "left" else gl.right_sides
    adj = r.adjacency.copy()
    adj[gl.cell_ids[2], sides[2]] = -1
    with pytest.raises(AssertionError, match=f"mismatch on the {side}"):
        reg._check_chain(dataclasses.replace(r, adjacency=adj))


@pytest.mark.parametrize("grid,radius,hw", [
    ("pentagrid", 3, 2), ("heptagrid", 3, 2), ("dodecagrid", 3, 1)])
def test_guideline_chain_follows_the_line(region_of, grid, radius, hw):
    """Chain cells keep the base cell's offsets from the guide planes and
    advance along the line's direction w with their position."""
    r = region_of(grid, radius, hw)
    gl = r.guideline
    normals, _, w = float_ref.guide_frame(grid)
    c = r.centers[gl.cell_ids]
    for n in normals:
        off = geo.mdot(c, n)
        assert np.abs(off - off[gl.positions == 0]).max() < 1e-6
    assert (np.diff(geo.mdot(c, w)) > 0).all()


def test_dodecagrid_chain_uses_canonical_faces(region_of):
    r = region_of("dodecagrid", 3, 1)
    gl = r.guideline
    assert set(gl.left_sides.tolist()) == {1}
    assert set(gl.right_sides.tolist()) == {4}


def test_dodecagrid_mirror_row_across_the_plane(region_of):
    r = region_of("dodecagrid", 3, 1)
    gl = r.guideline
    n0 = float_ref.guide_frame("dodecagrid")[0][0]
    heights = geo.mdot(r.centers, n0)
    ref = np.sign(heights[0])
    for c, m in zip(gl.cell_ids, gl.mirror_ids):
        if r.dist[c] <= r.radius - 1:
            assert m >= 0, "interior chain cell without its reflection"
        if m >= 0:
            assert np.sign(heights[m]) == -ref
            assert abs(heights[m] + heights[c]) < 1e-9


def test_pentagrid_markers_one_side_past_left(region_of):
    r = region_of("pentagrid", 3, 2)
    sides = float_ref.marker_sides_internal(r)
    gl = r.guideline
    for k, c in enumerate(gl.cell_ids):
        assert sides[int(c)] == ((int(gl.left_sides[k]) + 1) % 5,)


def test_heptagrid_markers_two_sides(region_of):
    r = region_of("heptagrid", 3, 2)
    sides = float_ref.marker_sides_internal(r)
    gl = r.guideline
    for k, c in enumerate(gl.cell_ids):
        lam = int(gl.left_sides[k])
        assert sides[int(c)] == ((lam + 1) % 7, (lam + 3) % 7)


def test_dodecagrid_marker_cells_distinct(region_of):
    r = region_of("dodecagrid", 3, 1)
    cells = float_ref.marker_cells(r)
    for sides in cells.values():
        assert sides == {0, 3, 9, 10}
    painted = r.marker_cell_ids(reg.TAPE_SLOTS["dodecagrid"].markers)
    interior = [c for c in r.guideline.cell_ids if r.dist[c] < r.radius]
    # marker sets of distinct tape cells never share a cell
    assert len(np.unique(painted[painted >= 0])) >= 4 * len(interior)


def test_marker_cells_skip_frozen_rim_only(region_of):
    r = region_of("pentagrid", 3, 2)
    cells = float_ref.marker_cells(r)
    for c in r.guideline.cell_ids:
        if r.dist[c] < r.radius:
            assert int(c) in cells


def test_neighbor_public_numbering(region_of):
    r = region_of("pentagrid", 2, 1)
    with pytest.raises(ValueError):
        float_ref.neighbor(r, 0, 0)
    with pytest.raises(ValueError):
        float_ref.neighbor(r, 0, 6)
    assert float_ref.neighbor(r, 0, 1) == r.adjacency[0, 0]
    rd = region_of("dodecagrid", 2, 1)
    assert float_ref.neighbor(rd, 0, 0) == rd.adjacency[0, 0]
    with pytest.raises(ValueError):
        float_ref.neighbor(rd, 0, 12)


def test_size_caps_enforced():
    with pytest.raises(reg.RegionTooLarge):
        reg.build_region("pentagrid", 11, 0)
    with pytest.raises(reg.RegionTooLarge):
        reg.build_region("dodecagrid", 7, 0)
    # past the placement bound a region builds, and only placing it fails
    r = reg.build_region("pentagrid", 10, 9)
    with pytest.raises(reg.RegionTooLarge, match="placement bound"):
        r.matrices


@pytest.mark.parametrize("grid,radius,hw,cells", [
    ("pentagrid", 2, 300, 6621), ("dodecagrid", 2, 100, 18315)])
def test_long_regions_build_without_floats(grid, radius, hw, cells):
    """The build is integer work only, so a region far past the placement
    bound builds with no float warning and is not placed."""
    with np.errstate(all="raise"):
        r = reg.build_region(grid, radius, hw)
    assert r.n_cells == cells
    assert "matrices" not in vars(r)
    c, s = np.nonzero(r.adjacency >= 0)
    assert (r.adjacency[r.adjacency[c, s]] == c[:, None]).any(axis=1).all()
    with pytest.raises(reg.RegionTooLarge, match="placement bound"):
        r.matrices
    assert "matrices" not in vars(r)


def test_region_json_round_trip(region_of):
    r = region_of("dodecagrid", 2, 1)
    r2 = reg.region_from_json(reg.region_to_json(r))
    assert r2.grid == r.grid and r2.n_cells == r.n_cells
    assert (r2.adjacency == r.adjacency).all()
    assert (r2.dist == r.dist).all()
    assert (r2.guideline.positions == r.guideline.positions).all()
    assert np.allclose(r2.matrices, r.matrices)
    assert (r2.guideline.cell_ids == r.guideline.cell_ids).all()
    assert (r2.guideline.mirror_ids == r.guideline.mirror_ids).all()


def test_region_file_holds_parameters_only(region_of):
    r = region_of("dodecagrid", 2, 1)
    doc = json.loads(reg.region_to_json(r))
    assert doc == {"format": reg.REGION_FORMAT, "grid": "dodecagrid",
                   "radius": 2, "halfwidth": 1}


# the benchmark's scan regions, then three of its certify sizes per grid
COMPLETE_CELL_SIZES = [
    ("pentagrid", 7, 2), ("heptagrid", 6, 3), ("dodecagrid", 3, 2),
    ("pentagrid", 7, 1), ("pentagrid", 6, 4), ("pentagrid", 5, 9),
    ("heptagrid", 6, 1), ("heptagrid", 7, 2), ("heptagrid", 5, 8),
    ("dodecagrid", 3, 1), ("dodecagrid", 2, 6), ("dodecagrid", 3, 5),
]


def full_rows(region: reg.Region) -> np.ndarray:
    return np.flatnonzero(~(region.adjacency < 0).any(axis=1))


@pytest.mark.parametrize("grid,radius,hw", COMPLETE_CELL_SIZES)
def test_complete_cells_are_the_full_rows(region_of, grid, radius, hw):
    """The column-wise blocked pass finds the cells whose adjacency row
    holds no -1, once: later reads return the same read-only array."""
    r = region_of(grid, radius, hw)
    cells = r.complete_cells
    assert np.array_equal(cells, full_rows(r))
    assert r.complete_cells is cells and not cells.flags.writeable
    # a rim cell lacks several neighbours; so that every side is read,
    # cut one neighbour of a complete cell on each side
    adj = r.adjacency.copy()
    rng = np.random.default_rng(radius * 100 + hw)
    cut = rng.choice(cells, size=adj.shape[1], replace=False)
    adj[cut, np.arange(adj.shape[1])] = -1
    cut_region = dataclasses.replace(r, adjacency=adj)
    assert np.array_equal(cut_region.complete_cells, full_rows(cut_region))
    assert len(cut_region.complete_cells) == len(cells) - adj.shape[1]


def test_loaded_regions_find_the_same_complete_cells(region_of):
    """A region loaded from a file finds its complete cells like a built
    one: 8,502 cells, past one block of rows."""
    r = region_of("pentagrid", 7, 2)
    assert r.n_cells > reg._CHUNK
    loaded = reg.region_from_json(reg.region_to_json(r))
    assert "complete_cells" not in vars(loaded)
    assert np.array_equal(loaded.complete_cells, full_rows(loaded))
    assert np.array_equal(loaded.complete_cells, r.complete_cells)


@pytest.mark.parametrize("grid,radius,hw", [
    ("pentagrid", 7, 2), ("heptagrid", 6, 3), ("dodecagrid", 3, 2),
    ("pentagrid", 2, 0), ("heptagrid", 2, 0), ("dodecagrid", 2, 0)])
def test_complete_neighbours_index_the_complete_cells(region_of, grid,
                                                      radius, hw):
    """Each complete cell's context row, its neighbours' ids in side order
    and then its own, and through `complete_index` the row of each of
    them in `complete_cells`, -1 exactly where the neighbour is not
    complete, by a per-cell loop over the adjacency: at the benchmark's
    scan sizes and at r2 hw0.  `complete_index` gives -1 for every cell
    that is not complete and for the missing neighbour -1.  Both tables
    are int32, read-only and kept, and a loaded region finds the same
    ones."""
    r = region_of(grid, radius, hw)
    cells = r.complete_cells.tolist()
    index = {c: k for k, c in enumerate(cells)}
    contexts = r.complete_contexts
    assert contexts.dtype == np.int32 and not contexts.flags.writeable
    assert contexts.shape == (len(cells), r.adjacency.shape[1] + 1)
    assert contexts.tolist() == [r.adjacency[c].tolist() + [c]
                                 for c in cells]
    got = r.complete_index
    assert got.dtype == np.int32 and not got.flags.writeable
    assert got.tolist() == [index.get(c, -1)
                            for c in range(r.n_cells)] + [-1]
    want = [[index.get(d, -1) for d in r.adjacency[c].tolist()] + [k]
            for k, c in enumerate(cells)]
    assert got.take(contexts).tolist() == want
    assert np.array_equal(got.take(r.adjacency), [
        [index.get(d, -1) for d in row] for row in r.adjacency.tolist()])
    assert r.complete_contexts is contexts and r.complete_index is got
    assert (got.take(contexts) < 0).any()
    loaded = reg.region_from_json(reg.region_to_json(r))
    assert "complete_contexts" not in vars(loaded)
    assert "complete_index" not in vars(loaded)
    assert np.array_equal(loaded.complete_contexts, contexts)
    assert np.array_equal(loaded.complete_index, got)


@pytest.mark.parametrize("grid", ["pentagrid", "heptagrid", "dodecagrid"])
def test_marker_ids_match_the_per_cell_reference(region_of, grid):
    """The array pass over the paper's marker slots finds, chain cell by
    chain cell, the int32 cells the per-cell set collects."""
    markers = reg.TAPE_SLOTS[grid].markers
    for radius, hw in ((1, 0), (2, 1), (3, 2), (4, 2)):
        r = region_of(grid, radius, hw)
        got = r.marker_cell_ids(markers)
        want = float_ref.marker_cell_ids(r)
        assert got.dtype == want.dtype == np.int32
        assert got.shape == (len(r.guideline.cell_ids), len(markers))
        assert np.array_equal(np.unique(got[got >= 0]), want), \
            (grid, radius, hw)


def test_region_file_errors_name_the_problem():
    with pytest.raises(ValueError, match="object"):
        reg.region_from_json("[]")
    with pytest.raises(ValueError, match="format 99"):
        reg.region_from_json(json.dumps({"format": 99, "grid": "pentagrid",
                                         "radius": 2, "halfwidth": 1}))
    # the version is a JSON int: not a float or a string equal to it
    for version in (2.0, "2"):
        with pytest.raises(ValueError, match="^region key 'format' has the "
                                             "wrong form$"):
            reg.read_region_file(json.dumps({"format": version,
                                             "grid": "pentagrid",
                                             "radius": 2, "halfwidth": 1}))
    with pytest.raises(ValueError, match="radius"):
        reg.region_from_json(json.dumps({"format": reg.REGION_FORMAT,
                                         "grid": "pentagrid",
                                         "halfwidth": 1}))
    with pytest.raises(ValueError, match="unknown grid 'hexgrid'"):
        reg.region_from_json(json.dumps({"format": reg.REGION_FORMAT,
                                         "grid": "hexgrid", "radius": 2,
                                         "halfwidth": 1}))


def test_region_file_refuses_an_unknown_grid(monkeypatch):
    """The file's grid is checked when the file is read, before any build
    or placement bound looks it up."""
    def no_build(*args):
        raise AssertionError("build_region called for an unknown grid")

    monkeypatch.setattr(reg, "build_region", no_build)
    for grid in ("foo", "Pentagrid", ""):
        doc = json.dumps({"format": reg.REGION_FORMAT, "grid": grid,
                          "radius": 2, "halfwidth": 1})
        with pytest.raises(ValueError) as err:
            reg.region_from_json(doc)
        assert str(err.value) == f"region key 'grid': unknown grid {grid!r}"


def _edges_of_cell(shape, matrix):
    verts = shape.vertices @ matrix.T
    edges = set()
    for cycle in shape.side_vertex_cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            edges.add(frozenset((a, b)))
    keyed = []
    for e in edges:
        a, b = sorted(e)
        ka = tuple(np.round(verts[a], 6))
        kb = tuple(np.round(verts[b], 6))
        keyed.append(tuple(sorted((ka, kb))))
    return keyed


def test_dodecagrid_four_cells_per_interior_edge(region_of):
    r = region_of("dodecagrid", 3, 1)
    shape = r.shape
    incident: dict[tuple, set[int]] = {}
    for c in range(r.n_cells):
        for key in _edges_of_cell(shape, r.matrices[c]):
            incident.setdefault(key, set()).add(c)
    counts = {key: len(cells) for key, cells in incident.items()}
    assert max(counts.values()) == 4
    # any edge of a cell two steps below the rim is fully surrounded
    for c in range(r.n_cells):
        if r.dist[c] <= r.radius - 2:
            for key in _edges_of_cell(shape, r.matrices[c]):
                assert counts[key] == 4, (c, key)


# Fingerprints of regions built by the scalar (one lookup per cell and side)
# builder that preceded the batched one; goldens in tests/golden/.  Any
# change to cell ids, adjacency, dist, positions or the guideline shows here.
FINGERPRINT_SIZES = [
    (grid, radius, hw)
    for grid, radii in (("pentagrid", (1, 2, 3)), ("heptagrid", (1, 2, 3)),
                        ("dodecagrid", (1, 2)))
    for radius in radii
    for hw in (0, 2)
]
FINGERPRINTS = GOLDEN / "region_fingerprints.json"
MATRICES = GOLDEN / "region_matrices.npz"


def _digest(a) -> str | None:
    if a is None:
        return None
    a = np.ascontiguousarray(a, dtype="<i4")
    h = hashlib.sha256(str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


def region_fingerprint(r: reg.Region) -> dict:
    gl = r.guideline
    return {
        "n_cells": r.n_cells,
        "adjacency": _digest(r.adjacency),
        "dist": _digest(r.dist),
        "positions": _digest(float_ref.tape_positions(r)),
        "guideline.cell_ids": _digest(gl.cell_ids),
        "guideline.positions": _digest(gl.positions),
        "guideline.left_sides": _digest(gl.left_sides),
        "guideline.right_sides": _digest(gl.right_sides),
        "guideline.mirror_ids": _digest(gl.mirror_ids),
    }


def _size_key(grid: str, radius: int, hw: int) -> str:
    return f"{grid}-r{radius}-hw{hw}"


@pytest.mark.parametrize("grid,radius,hw", FINGERPRINT_SIZES)
def test_region_matches_fingerprint_golden(region_of, grid, radius, hw):
    r = region_of(grid, radius, hw)
    key = _size_key(grid, radius, hw)
    want = json.loads(FINGERPRINTS.read_text())[key]
    assert region_fingerprint(r) == want
    with np.load(MATRICES) as golden:
        ref = golden[key]
    assert ref.shape == r.matrices.shape
    scale = np.maximum(1.0, np.abs(ref))
    assert (np.abs(r.matrices - ref) <= 1e-9 * scale).all()


@pytest.mark.parametrize("grid,radius,hw", FINGERPRINT_SIZES + [
    ("pentagrid", 2, 300), ("dodecagrid", 2, 100)])
def test_tape_window_rests_on_chain_distances(region_of, grid, radius, hw):
    """What `Region.tape_window` rests on: tape position p lies at
    distance max(|p| - hw, 0) from the initial segment, and the complete
    chain cells, the tape cells a step updates, are exactly those with
    |p| <= hw + radius - 1, the window at time 1.  The window shrinks by
    one a step and is refused past time radius, and before time 0, where
    it would reach past the chain's ends."""
    r = region_of(grid, radius, hw)
    gl = r.guideline
    p = np.abs(gl.positions)
    assert np.array_equal(r.dist[gl.cell_ids], np.maximum(p - hw, 0))
    complete = np.isin(gl.cell_ids, r.complete_cells)
    assert np.array_equal(complete, p <= hw + radius - 1)
    assert [r.tape_window(t) for t in range(radius + 1)] == \
        list(range(hw + radius, hw - 1, -1))
    with pytest.raises(reg.ValidityExhausted,
                       match=f"^time {radius + 1} is past the {radius} "
                             f"steps a radius {radius} region certifies$"):
        r.tape_window(radius + 1)
    with pytest.raises(ValueError,
                       match=r"^time -1 is before the start of a run at "
                             r"time 0$"):
        r.tape_window(-1)
    # the chain holds positions -(hw + radius)..hw + radius and no more
    end = hw + radius
    assert [gl.id_at(q) for q in (-end, end)] == \
        [int(gl.cell_ids[0]), int(gl.cell_ids[-1])]
    for q in (-end - 1, end + 1):
        with pytest.raises(IndexError,
                           match=f"^no guideline cell at position {q}$"):
            gl.id_at(q)


# Exact cell keys.  The float builder in region_reference.py is the
# reference: both must give the same cells in the same order.  The radius-1
# sizes run the chain out to each grid's PLACEMENT_EXTENT, so the side
# arithmetic meets the float chain walk on the longest chain that can be
# placed.
DIFFERENTIAL_SIZES = [("pentagrid", 7, 2), ("pentagrid", 6, 8),
                      ("heptagrid", 6, 3), ("heptagrid", 7, 1),
                      ("dodecagrid", 3, 2), ("dodecagrid", 4, 1),
                      ("pentagrid", 1, reg.PLACEMENT_EXTENT["pentagrid"] - 1),
                      ("heptagrid", 1, reg.PLACEMENT_EXTENT["heptagrid"] - 1),
                      ("dodecagrid", 1,
                       reg.PLACEMENT_EXTENT["dodecagrid"] - 1)]


def assert_same_region(a: reg.Region, b: reg.Region) -> None:
    assert a.n_cells == b.n_cells
    for x, y in [(a.adjacency, b.adjacency), (a.dist, b.dist),
                 (a.matrices, b.matrices)]:
        assert x.dtype == y.dtype and np.array_equal(x, y)
    ga, gb = a.guideline, b.guideline
    for name in ("cell_ids", "positions", "left_sides", "right_sides",
                 "mirror_ids"):
        x, y = getattr(ga, name), getattr(gb, name)
        assert (x is None and y is None) or np.array_equal(x, y), name


@pytest.mark.parametrize("grid,radius,hw", DIFFERENTIAL_SIZES)
def test_region_matches_float_reference(region_of, grid, radius, hw):
    assert_same_region(region_of(grid, radius, hw),
                       float_ref.build_region(grid, radius, hw))


def test_certify_path_places_no_cells(rule110, all_six):
    """Building, verifying and checking against the oracle read only the
    combinatorics; the placement matrices are computed on first read, and
    then equal the float builder's, chain cells included."""
    sizes = {"pentagrid": (3, 1), "heptagrid": (3, 1), "dodecagrid": (2, 1)}
    for (method, grid), b in sorted(all_six.items()):
        r = reg.build_region(grid, *sizes[grid])
        init = engine.init_configuration(r, b, [1])
        assert embed.verify_unique_applicability(b, r, init, 2).ok
        assert engine.equivalence_check(rule110, b, r, [1],
                                        r.radius - 1).ok
        assert "matrices" not in vars(r), (method, grid)
        ref = float_ref.build_region(grid, *sizes[grid]).matrices
        assert r.matrices.dtype == ref.dtype
        assert np.array_equal(r.matrices, ref), (method, grid)


def test_build_memory_is_bounded():
    """No placement matrices and no keys: the dodecagrid r4 hw1 build
    (18,691 cells) peaked at 8.9 MB of traced allocations while it placed
    every cell with int64 keys, at 5.3 MB without, and at 2.0 MB once the
    walks around each edge replaced the keys."""
    reg.build_region("dodecagrid", 1, 0)       # warm the per-grid caches
    tracemalloc.start()
    try:
        r = reg.build_region("dodecagrid", 4, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.n_cells == 18691
    assert peak < 7_000_000


def test_build_frees_each_levels_misses():
    """A level's walk records, candidates and pairs are dropped once its
    new cells are entered: the pentagrid r8 hw2 build (22,265 cells)
    peaks at 1.5 MB of traced allocations.  The keyed build that the
    walks replaced peaked at 4.58 MB while its misses stayed bound
    through the next level's candidate pass, and at 3.63 MB without."""
    reg.build_region("pentagrid", 1, 0)        # warm the per-grid caches
    tracemalloc.start()
    try:
        r = reg.build_region("pentagrid", 8, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.n_cells == 22265
    assert peak < 4_100_000


def test_build_level_bookkeeping_is_narrow():
    """Cell and frontier numbers are int32, and sides and mates int8, in
    the level bookkeeping, and each array is freed once used up: the
    dodecagrid r5 hw2 build (236,665 cells) peaks at 25.6 MB of traced
    allocations, most of it the adjacency copied as it grows.  The keyed
    build peaked at 48.8 MB with int64 bookkeeping and at 36.8 MB with
    narrow bookkeeping (43.0 MB with int64 side numbers alone)."""
    reg.build_region("dodecagrid", 1, 0)       # warm the per-grid caches
    tracemalloc.start()
    try:
        r = reg.build_region("dodecagrid", 5, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.n_cells == 236665
    assert peak < 40_000_000


def _coxeter_matrix(grid: str) -> np.ndarray:
    """Orders of products of generator pairs, 0 for infinity, from the
    tiling's combinatorics."""
    if grid == "heptagrid":
        return np.array([[1, 7, 3], [7, 1, 2], [3, 2, 1]])
    p = {"pentagrid": 5, "dodecagrid": 12}[grid]
    rings = sym.FACE_RINGS if grid == "dodecagrid" else \
        [((i - 1) % 5, (i + 1) % 5) for i in range(5)]
    m = np.zeros((p, p), dtype=int)
    for i in range(p):
        m[i, i] = 1
        m[i, list(rings[i])] = 2
    return m


@pytest.mark.parametrize("grid", ["pentagrid", "heptagrid", "dodecagrid"])
def test_mirrors_satisfy_coxeter_relations(grid):
    gens = float_ref._mirrors(grid)
    eye = np.eye(gens.shape[1], dtype=np.int64)
    for (i, j), order in np.ndenumerate(_coxeter_matrix(grid)):
        prod = gens[i] @ gens[j]
        powers = [np.linalg.matrix_power(prod, k) for k in range(1, 13)]
        first = [k for k, x in enumerate(powers, 1) if np.array_equal(x, eye)]
        assert first[:1] == ([order] if order else []), (i, j)


@pytest.mark.parametrize("grid", ["pentagrid", "heptagrid", "dodecagrid"])
def test_base_cell_and_neighbours_have_distinct_keys(grid):
    ck = float_ref._cell_keys(grid)
    p = len(ck.steps)
    keys = [tuple(ck.f0)] + [tuple(ck.steps[t] @ ck.f0) for t in range(p)]
    assert len(set(keys)) == p + 1


@pytest.mark.parametrize("grid", ["pentagrid", "heptagrid", "dodecagrid"])
def test_shared_neighbours_are_step_identities(grid):
    """The walk tables against the exact step matrices.  The cell across
    side s faces back by side back[s]: T_s T_back[s] f0 == f0; on the
    polygonal grids back[s] = s, and on the dodecagrid back takes each
    face direction u to -u.  A walk that leaves the base cell by s
    in state j and then turns as the tables say, each cell in the frame of
    its path, meets `cells` distinct cells: the last is the base cell's
    neighbour across target[s, j], and one more hop closes the cycle."""
    ck, walk = float_ref._cell_keys(grid), reg._walk(grid)
    p, n_aux = walk.target.shape
    t_f0 = [tuple(ck.steps[t] @ ck.f0) for t in range(p)]
    for s in range(p):
        assert np.array_equal(ck.steps[s] @ ck.steps[walk.back[s]] @ ck.f0,
                              ck.f0)
    if grid != "dodecagrid":
        assert np.array_equal(walk.back, np.arange(p))
    else:
        # the antipode of the face rings is the map u -> -u of the face
        # directions that `_place` and render use
        u = poly.dodecagrid().side_directions
        assert np.allclose(u[walk.back], -u)
    for s in range(p):
        for j in range(n_aux):
            q, side, state, seen = np.eye(len(ck.f0), dtype=np.int64), s, \
                j, [tuple(ck.f0)]
            for _ in range(walk.cells):
                q = q @ ck.steps[side]
                seen.append(tuple(q @ ck.f0))
                k = walk.back[side] * n_aux + state
                side, state = walk.turn[k], walk.aux[k]
            assert seen[-2] == t_f0[walk.target[s, j]], (s, j)
            assert seen[-1] == tuple(ck.f0), (s, j)
            assert len(set(seen[:-1])) == walk.cells, (s, j)


def _tits_keys(r: reg.Region) -> tuple[np.ndarray, np.ndarray]:
    """(N, m) every cell's exact key Q f0, and (N, p, m) the key Q T_s f0
    of the cell across each of its sides, with Q the Tits matrix of the
    path the build numbers the cell's sides by: the chain walk for chain
    cells, renumbered as the dodecagrid chain is, and for every other
    cell its parent's Q times the step across its placement side.  The
    products are int64 where the bound of the chain's row sums times
    ||T||_inf ** (radius + 1) keeps them from wrapping, and Python ints
    where it does not."""
    ck = float_ref._cell_keys(r.grid)
    p, m = len(ck.steps), len(ck.f0)
    extent = r.halfwidth + r.radius
    _, left, right = reg._chain_labels(r.grid, p,
                                       np.arange(-extent, extent + 1))
    steps = ck.steps.astype(object)
    chain = np.empty((2 * extent + 1, m, m), dtype=object)
    chain[extent] = np.eye(m, dtype=np.int64).astype(object)
    for k, k0, s in reg._chain_walk(extent, left, right):
        chain[k] = chain[k0].dot(steps[s])
    rows = max(sum(map(abs, row)) for row in chain.reshape(-1, m).tolist())
    bound = rows * int(np.abs(ck.steps).sum(axis=2).max()) ** (r.radius + 1)
    dtype = np.int64 if bound < 2**63 else object
    q = np.empty((r.n_cells, m, m), dtype=dtype)
    gl, pl = r.guideline, r.placement
    q[gl.cell_ids] = chain[gl.positions + extent]
    n_chain = len(gl.cell_ids)
    steps = steps.astype(dtype)
    for level in range(1, r.radius + 1):
        at = n_chain + np.flatnonzero(r.dist[n_chain:] == level)
        k = at - n_chain
        q[at] = np.matmul(q[pl.parent[k]], steps[pl.side[k]])
    keys = np.matmul(q, ck.f0.astype(dtype))
    across = np.matmul(q, (steps @ ck.f0.astype(dtype)).T).transpose(0, 2, 1)
    if r.grid == "dodecagrid":
        mirror = reg._chain_labels(r.grid, p, gl.positions)[0]
        for mf, motion, _ in reg._chain_renumbering():
            c = gl.cell_ids[mirror == mf]
            across[c] = across[c][:, motion]
    return keys, across


def _exact_adjacency(r: reg.Region, adjacency: np.ndarray) -> bool:
    """Whether every cell's key is distinct and each entry (c, s) of
    `adjacency` holds the cell keyed Q_c T_s f0, or -1 only where no cell
    of the region has that key."""
    keys, across = _tits_keys(r)
    index = {k: c for c, k in enumerate(map(tuple, keys.tolist()))}
    want = [index.get(tuple(k), -1)
            for k in across.reshape(-1, keys.shape[1]).tolist()]
    return len(index) == r.n_cells \
        and np.array_equal(adjacency.reshape(-1), want)


@pytest.mark.parametrize("grid,radius,hw", FINGERPRINT_SIZES
                         + DIFFERENTIAL_SIZES
                         + [("pentagrid", 2, 300), ("dodecagrid", 2, 100),
                            ("heptagrid", 2, 30)])
def test_sizes_build_on_either_row(region_of, grid, radius, hw):
    """Exact integer identity, read from either row of each shared side:
    every cell's key is distinct, and each entry (c, s) holds the cell
    keyed Q_c T_s f0, or -1 only where no cell of the region has that
    key, so the neighbour's row lists c back across the side facing it."""
    r = region_of(grid, radius, hw)
    assert _exact_adjacency(r, r.adjacency)


_IDENTITY_SIZES = [("pentagrid", 3, 2), ("heptagrid", 3, 2),
                   ("dodecagrid", 2, 1)]


@pytest.mark.parametrize("grid,radius,hw,change", [
    *(pytest.param(*size, None, id="-".join(map(str, size)))
      for size in _IDENTITY_SIZES),
    *(pytest.param(*size, "difference",
                   id="-".join(map(str, size)) + "-difference")
      for size in _IDENTITY_SIZES),
    pytest.param("pentagrid", 3, 2, "stored", id="pentagrid-3-2-stored")])
def test_full_keys_decide_identity(region_of, grid, radius, hw, change):
    """The exact keys tell a wrong entry from the right one: the region as
    built passes, and it fails with two cells swapped in one row of the
    outermost level (a difference in side numbering), or with one entry
    that holds a stored cell emptied."""
    r = region_of(grid, radius, hw)
    adj = r.adjacency.copy()
    if change is not None:
        c = np.flatnonzero((r.dist == radius)
                           & ((adj >= 0).sum(axis=1) > 1))[-1]
        s = np.flatnonzero(adj[c] >= 0)
        if change == "difference":
            adj[c, s[:2]] = adj[c, s[1::-1]]
        else:
            adj[c, s[0]] = -1
    assert _exact_adjacency(r, adj) == (change is None)


@pytest.mark.parametrize("grid,radius,hw", DIFFERENTIAL_SIZES)
def test_lookup_shortcuts_change_no_cell(monkeypatch, region_of, grid,
                                         radius, hw):
    """A level's walks run over blocks of frontier cells, and a block
    looks up the entries that the blocks before it found instead of
    walking for them.  With blocks of three cells the region must be the
    same."""
    want = region_of(grid, radius, hw)
    monkeypatch.setattr(reg, "_CHUNK", 3 * want.adjacency.shape[1])
    got = reg.build_region(grid, radius, hw)
    for a, b in ((got.adjacency, want.adjacency), (got.dist, want.dist),
                 (got.placement.parent, want.placement.parent),
                 (got.placement.side, want.placement.side)):
        assert np.array_equal(a, b)


# the three collisions of walks that disagree: a walk hits an entry that
# holds another cell, a walk chains two candidates into one cell where
# another walk finds them, and a run of one cell's candidates is paired
# only in part
_DISAGREE = {"hit": "two walks give one entry different cells",
             "chain": "a walk pairs two entries that another walk finds",
             "run": "the walks pair a cell's candidates only in part"}
_WRONG_TABLES: dict[str, collections.Counter] = {}


def _wrong_table_outcomes(grid: str) -> collections.Counter:
    """What the r2 hw0 and r3 hw2 builds do with one entry of the walk
    tables `turn`, `aux` or `target` wrong, over every entry and every
    wrong value: the error they raise, or "same" for the region of the
    true tables, or "other" for any other region."""
    if grid not in _WRONG_TABLES:
        real, walk = reg._walk, reg._walk(grid)
        sizes = [(2, 0), (3, 2)]
        want = [reg.build_region(grid, *size).adjacency for size in sizes]
        seen = collections.Counter()
        try:
            for name, size in itertools.product(("turn", "aux", "target"),
                                                range(len(sizes))):
                table = getattr(walk, name)
                values = walk.target.shape[1] if name == "aux" \
                    else len(walk.back)
                for k, delta in itertools.product(range(table.size),
                                                  range(1, values)):
                    wrong = table.copy()
                    wrong.flat[k] = (wrong.flat[k] + delta) % values
                    tables = dataclasses.replace(walk, **{name: wrong})
                    reg._walk = lambda g: tables
                    try:
                        adj = reg.build_region(grid, *sizes[size]).adjacency
                        seen["same" if np.array_equal(adj, want[size])
                             else "other"] += 1
                    except AssertionError as e:
                        seen[str(e)] += 1
        finally:
            reg._walk = real
        _WRONG_TABLES[grid] = seen
    return _WRONG_TABLES[grid]


@pytest.mark.parametrize("grid", ["pentagrid", "heptagrid", "dodecagrid"])
@pytest.mark.parametrize("kind", list(_DISAGREE))
def test_each_collision_restarts(grid, kind):
    """With any one entry of the walk tables wrong, the build raises one
    of the three errors of walks that disagree: two walks give an entry
    different cells, a walk pairs an entry that another walk finds, or a
    cell's candidates are paired only in part.  Where no walk reads the
    wrong entry it builds the same region; it never returns another.
    Each check is the one that sees some wrong entry on each grid, and
    once the true tables are back a build starts from them again."""
    outcomes = _wrong_table_outcomes(grid)
    assert set(outcomes) <= {"same", *_DISAGREE.values()}
    assert outcomes[_DISAGREE[kind]] > 0
    want = json.loads(FINGERPRINTS.read_text())[_size_key(grid, 2, 0)]
    assert region_fingerprint(reg.build_region(grid, 2, 0)) == want


@pytest.mark.parametrize("radius,hw,step", [(2, 60, 22), (3, 45, 58)])
def test_heptagrid_builds_past_40(radius, hw, step):
    """The build forms no key, so nothing bounds the heptagrid's extent:
    past halfwidth + radius 40, where its int64 keys ran out, it builds
    a symmetric adjacency on the chain its labels name, and each unit of
    halfwidth adds as many cells as it does at halfwidth 20 to 30."""
    counts = [reg.build_region("heptagrid", radius, h).n_cells
              for h in range(20, 31)]
    assert set(np.diff(counts).tolist()) == {step}
    r = reg.build_region("heptagrid", radius, hw)
    assert r.n_cells == counts[0] + step * (hw - 20)
    reg._check_chain(r)
    c, s = np.nonzero(r.adjacency >= 0)
    assert (r.adjacency[r.adjacency[c, s]] == c[:, None]).sum(axis=1).min() \
        == 1


# Precision limits of the centre lookup of the float reference builder.
# Points are placed well inside a bucket unless a test is about a bucket
# boundary.
A = np.array([1.0, 0.31, -0.69])


def _table(*points):
    t = float_ref._CenterTable(3)
    t.insert(np.array(points, dtype=float))
    return t


def _resolve(table, *points, grow=True):
    return table.resolve([np.array(points, dtype=float)], grow=grow).tolist()


def test_lookup_exact_and_drifted_hit():
    t = _table(A)
    assert _resolve(t, A, A + 1e-9, A - 1e-9) == [0, 0, 0]
    assert t.n == 1


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_lookup_straddles_bucket_boundary(side):
    edge = 2 * float_ref.DEDUP_BUCKET
    stored = np.array([1.0, edge + side * 4e-4, 0.3])
    other = np.array([1.0, edge - side * 6e-4, 0.3])     # 1e-3 away
    assert np.floor(stored[1] / float_ref.DEDUP_BUCKET) \
        != np.floor(other[1] / float_ref.DEDUP_BUCKET)
    t = _table(stored)
    assert _resolve(t, other) == [0]
    assert t.n == 1


def test_lookup_ambiguous_gap_raises_with_the_gap():
    t = _table(A)
    with pytest.raises(reg.RegionTooLarge, match="5.00e-03"):
        _resolve(t, A + np.array([0.0, 5e-3, 0.0]))
    with pytest.raises(reg.RegionTooLarge, match="5.00e-03"):
        _resolve(t, A + np.array([0.0, 5e-3, 0.0]), grow=False)


def test_lookup_far_gap_is_a_miss():
    t = _table(A)
    far = A + np.array([0.0, 0.0, 3e-2])
    assert _resolve(t, far, grow=False) == [-1]
    assert t.n == 1
    assert _resolve(t, far) == [1]
    assert t.n == 2


def test_lookup_dedups_misses_in_first_occurrence_order():
    t = _table(A)
    b = np.array([2.0, 1.1, 1.7])
    c = np.array([3.0, -2.1, 0.4])
    ids = _resolve(t, c, A, b, c + 1e-10, b - 1e-10, c, A + 1e-9)
    assert ids == [1, 0, 2, 1, 2, 1, 0]
    assert t.n == 3
    assert np.array_equal(t.coords[1], c) and np.array_equal(t.coords[2], b)


@pytest.mark.parametrize("collide", [False, True])
def test_lookup_sees_only_touched_buckets(collide, monkeypatch):
    """A center in the near-miss band but outside every bucket the
    tolerance box touches is not compared, so the candidate is a miss."""
    if collide:      # every bucket hashes alike; keys must tell them apart
        monkeypatch.setattr(float_ref, "_hash_keys",
                            lambda keys: np.zeros(len(keys), dtype=np.uint64))
    edge = 2 * float_ref.DEDUP_BUCKET
    t = _table([1.0, edge + 1e-4, 0.3])
    assert _resolve(t, [1.0, edge - 4.9e-3, 0.3], grow=False) == [-1]


def test_lookup_ambiguous_between_misses_raises():
    t = _table(A)
    b = np.array([2.0, 1.1, 1.7])
    with pytest.raises(reg.RegionTooLarge, match="5.00e-03"):
        _resolve(t, b, b + np.array([5e-3, 0.0, 0.0]))


def _scalar_resolve(stored: list, x: np.ndarray, grow: bool) -> list:
    """One lookup per candidate against everything stored so far: the
    scalar rule the batched table must agree with."""
    out = []
    for c in x:
        gaps = [float(np.max(np.abs(s - c))) for s in stored
                if (np.floor(s / float_ref.DEDUP_BUCKET) >= np.floor(
                    (c - float_ref.DEDUP_TOL) / float_ref.DEDUP_BUCKET)).all()
                and (np.floor(s / float_ref.DEDUP_BUCKET) <= np.floor(
                    (c + float_ref.DEDUP_TOL) / float_ref.DEDUP_BUCKET)).all()]
        best = int(np.argmin(gaps)) if gaps else -1
        gap = gaps[best] if gaps else np.inf
        if gap < float_ref.DEDUP_TOL:
            out.append([i for i, s in enumerate(stored)
                        if float(np.max(np.abs(s - c))) == gap][0])
        elif gap < float_ref.NEAR_MISS_FACTOR * float_ref.DEDUP_TOL:
            raise reg.RegionTooLarge("ambiguous")
        elif grow:
            stored.append(c)
            out.append(len(stored) - 1)
        else:
            out.append(-1)
    return out


@pytest.mark.parametrize("collide", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_lookup_agrees_with_scalar_rule(seed, collide, monkeypatch):
    if collide:      # every bucket hashes alike; keys must tell them apart
        monkeypatch.setattr(float_ref, "_hash_keys",
                            lambda keys: np.zeros(len(keys), dtype=np.uint64))
    rng = np.random.default_rng(seed)
    # centers on a lattice of bucket corners, so most boxes straddle, with
    # repeats, small drift and a few shifted well past the near-miss band
    base = rng.integers(-6, 6, size=(40, 4)) * float_ref.DEDUP_BUCKET
    base += rng.choice([0.0, 0.5, 0.03], size=(40, 1)) * float_ref.DEDUP_BUCKET
    x = base[rng.integers(0, 40, size=300)]
    x += rng.normal(scale=1e-8, size=x.shape)
    t = float_ref._CenterTable(4)
    t.insert(x[:20])
    stored = list(x[:20])
    for lo, hi, grow in ((20, 120, True), (120, 200, False), (200, 300, True)):
        blocks = [x[lo:lo + 7], x[lo + 7:hi]]
        try:
            want = _scalar_resolve(stored, x[lo:hi], grow)
        except reg.RegionTooLarge:
            with pytest.raises(reg.RegionTooLarge):
                t.resolve(blocks, grow=grow)
            return
        assert t.resolve(blocks, grow=grow).tolist() == want
    assert t.n == len(stored)
