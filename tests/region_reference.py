"""The float-centre region builder, kept as the reference for
`hypca.region.build_region`.

It decides cell identity by centre coordinates: a bucket table with a
straddle-aware lookup, where distinct centres are separated by order 1 at
every supported size and drift between generation paths to the same cell
stays many orders of magnitude below the tolerance DEDUP_TOL.  A best gap in
the dead zone [DEDUP_TOL, NEAR_MISS_FACTOR * DEDUP_TOL) raises
RegionTooLarge instead of guessing; a larger one is a new cell.  Apart
from that it is the builder of `hypca.region`: the same chain walk,
level-at-a-time search, first-occurrence numbering and guideline arrays.

It also finds the guideline by float geometry, independently of the side
arithmetic `hypca.region` uses: the chain walk tests every neighbour's
centre against the guide planes, and a dodecagrid chain cell's mirror face
is the one whose neighbour is the cell's reflection in the guide plane.
`guide_frame` gives those planes and the line's frame, for the chain
tests too.

`marker_cells`, `guideline_triples` and `neighbor` spell out a region's
marker sides, guideline sides and neighbours in public numbering, for the
region tests.  `marker_sides_internal` lists each chain cell's marker
sides one cell at a time, from its own copy of the marker tables, and
`marker_cell_ids` collects the cells across them in a set: the per-cell
form of `hypca.region.Region.marker_cell_ids`.  `tape_positions` spreads
the guideline's positions over every cell, as regions once stored them.
"""
from __future__ import annotations

import numpy as np

from hypca import geometry as geo
from hypca import polytopes as poly
from hypca import symmetry as sym
from hypca.region import (MAX_RADIUS, PLACEMENT_EXTENT, Guideline, Region,
                          RegionTooLarge, _CHUNK, _check_chain)

DEDUP_BUCKET = 0.125
DEDUP_TOL = 2e-3
NEAR_MISS_FACTOR = 10.0

NO_POS = -(10**9)               # the tape position of a cell off the line

# marker sides as offsets from the left side (2D) or as fixed faces (3D)
_MARKER_OFFSETS = {"pentagrid": (1,), "heptagrid": (1, 3)}
_MARKER_FACES = (0, 3, 9, 10)

_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)


def _grown(a: np.ndarray, need: int, fill=0) -> np.ndarray:
    """`a` with room for at least `need` rows, doubling its capacity."""
    if need <= len(a):
        return a
    out = np.full((max(need, 2 * len(a)),) + a.shape[1:], fill, dtype=a.dtype)
    out[:len(a)] = a
    return out


def _bucket_keys(x: np.ndarray) -> np.ndarray:
    """The bucket each row of x is stored under."""
    return np.floor(x / DEDUP_BUCKET).astype(np.int64)


def _hash_keys(keys: np.ndarray) -> np.ndarray:
    """One uint64 per row of integer bucket keys.  Equal keys hash equal;
    lookups compare the keys themselves, so collisions cost time only."""
    cols = keys.view(np.uint64)
    h = np.zeros(len(keys), dtype=np.uint64)
    for j in range(cols.shape[1]):
        h = (h ^ cols[:, j]) * _HASH_MUL
    return h


def _straddle_keys(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every bucket the box x +- DEDUP_TOL touches, as (row of x, key)
    pairs.  The box is narrower than a bucket, so it touches one or two
    buckets per coordinate."""
    lo = np.floor((x - DEDUP_TOL) / DEDUP_BUCKET).astype(np.int64)
    up = np.floor((x + DEDUP_TOL) / DEDUP_BUCKET).astype(np.int64) > lo
    rows, keys = np.arange(len(x)), lo
    for j in range(x.shape[1]):
        s = np.flatnonzero(up[rows, j])
        if s.size:
            extra = keys[s]
            extra[:, j] += 1
            rows = np.concatenate([rows, rows[s]])
            keys = np.concatenate([keys, extra])
    return rows, keys


def _pairs(x: np.ndarray, hashes: np.ndarray, ids: np.ndarray,
           coords: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row of x, stored id, max-norm gap) for every stored center whose
    bucket the row's tolerance box touches.  `hashes` is sorted, `ids` are
    the stored ids in the same order and `coords` is indexed by id."""
    rows, keys = _straddle_keys(x)
    h = _hash_keys(keys)
    order = np.argsort(h)               # sorted probes search faster
    h = h[order]
    a = np.searchsorted(hashes, h, "left")
    cnt = np.searchsorted(hashes, h, "right") - a
    k = order[np.repeat(np.arange(len(h)), cnt)]
    found = ids[np.arange(len(k)) + np.repeat(a - (np.cumsum(cnt) - cnt), cnt)]
    c = coords[found]
    same = (_bucket_keys(c) == keys[k]).all(axis=1)
    q = rows[k[same]]
    gap = np.abs(c[same] - x[q]).max(axis=1)
    return q, found[same], gap


def _ambiguous(gap: float) -> RegionTooLarge:
    return RegionTooLarge(
        f"center match ambiguous at gap {gap:.2e}; the requested "
        "region exceeds the supported precision"
    )


class _CenterTable:
    """Bucketed center table with batched lookups; see the module docstring
    for the scales.  Ids are assigned in insertion order, and a bucket keeps
    every center stored in it."""

    def __init__(self, dim1: int):
        self.coords = np.empty((64, dim1))
        self.n = 0
        self.hashes = np.empty(0, dtype=np.uint64)   # sorted
        self.ids = np.empty(0, dtype=np.int64)       # in hash order

    def insert(self, x: np.ndarray) -> None:
        """Store the rows of x under ids n, n + 1, ..."""
        k = len(x)
        self.coords = _grown(self.coords, self.n + k)
        self.coords[self.n:self.n + k] = x
        h = _hash_keys(_bucket_keys(x))
        order = np.argsort(h, kind="stable")
        at = np.searchsorted(self.hashes, h[order])
        self.hashes = np.insert(self.hashes, at, h[order])
        self.ids = np.insert(self.ids, at, self.n + order)
        self.n += k

    def nearest(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row of x, the nearest stored center in the buckets its
        tolerance box touches and the gap to it (-1 and inf if none)."""
        q, found, gap = _pairs(x, self.hashes, self.ids, self.coords)
        best = np.full(len(x), np.inf)
        np.minimum.at(best, q, gap)
        who = np.full(len(x), -1, dtype=np.int64)
        m = gap == best[q]
        who[q[m]] = found[m]
        return who, best

    def resolve(self, blocks, grow: bool) -> np.ndarray:
        """Ids of the candidate centers of one search level, given as an
        iterable of (k, d+1) blocks in order.

        A candidate within DEDUP_TOL of a center stored before the level
        started, or of an earlier candidate of the level, is that cell.
        With `grow`, every other candidate becomes a new cell, numbered in
        order of first occurrence; without it, it gets -1.  A best gap in
        [DEDUP_TOL, NEAR_MISS_FACTOR * DEDUP_TOL) raises RegionTooLarge.
        """
        out, miss_pos, miss_x, miss_gap = [], [], [], []
        base = 0
        for x in blocks:
            who, gap = self.nearest(x)
            hit = gap < DEDUP_TOL
            out.append(np.where(hit, who, -1))
            miss = np.flatnonzero(~hit)
            if grow:
                miss_pos.append(base + miss)
                miss_x.append(x[miss])
                miss_gap.append(gap[miss])
            else:
                near = miss[gap[miss] < NEAR_MISS_FACTOR * DEDUP_TOL]
                if near.size:
                    raise _ambiguous(float(gap[near[0]]))
            base += len(x)
        ids = np.concatenate(out)
        if grow:
            pos = np.concatenate(miss_pos)
            if pos.size:
                ids[pos] = self._add_misses(np.concatenate(miss_x),
                                            np.concatenate(miss_gap))
        return ids

    def _add_misses(self, x: np.ndarray, gap0: np.ndarray) -> np.ndarray:
        """Ids for a level's misses, in order: the misses are deduplicated
        among themselves the way the table deduplicates, and each distinct
        one is stored."""
        k = len(x)
        h = _hash_keys(_bucket_keys(x))
        order = np.argsort(h, kind="stable")
        hs = h[order]
        first = np.full(k, k, dtype=np.int64)    # earliest earlier duplicate
        near = gap0.copy()                       # best gap if not a duplicate
        for s in range(0, k, _CHUNK):
            q, e, gap = _pairs(x[s:s + _CHUNK], hs, order, x)
            q += s
            earlier = e < q
            q, e, gap = q[earlier], e[earlier], gap[earlier]
            dup = gap < DEDUP_TOL
            np.minimum.at(first, q[dup], e[dup])
            np.minimum.at(near, q[~dup], gap[~dup])
        own = np.arange(k)
        is_dup = first < k
        bad = np.flatnonzero(~is_dup & (near < NEAR_MISS_FACTOR * DEDUP_TOL))
        if bad.size:
            raise _ambiguous(float(near[bad[0]]))
        rep = np.where(is_dup, first, own)
        while True:
            up = rep[rep]
            if np.array_equal(up, rep):
                break
            rep = up
        fresh = np.flatnonzero(rep == own)
        new_id = np.empty(k, dtype=np.int64)
        new_id[fresh] = self.n + np.arange(fresh.size)
        self.insert(x[fresh])
        return new_id[rep]


# per grid: the side whose neighbor lies forward of the base cell
# (increasing position)
_FORWARD_SIDE = {"pentagrid": 4, "heptagrid": 6, "dodecagrid": 1}
# per grid: sides whose planes carry the guideline (None: the heptagrid's
# midpoint line, built separately)
_GUIDE_SIDES = {"pentagrid": (0,), "heptagrid": None, "dodecagrid": (0, 2)}


def guide_normals(shape: poly.CellShape) -> list[np.ndarray]:
    """Unit normals of the planes that cut out the guideline."""
    sides = _GUIDE_SIDES[shape.name]
    if sides is not None:
        return [np.array(shape.side_normals[i]) for i in sides]
    mids = [geo.point_at(shape.inradius, shape.side_directions[i]) for i in (0, 1)]
    j = np.ones(3)
    j[1:] = -1.0
    rows = np.stack([m * j for m in mids])
    _, _, vt = np.linalg.svd(rows)
    n = geo.normalize_spacelike(vt[-1])
    if n[0] < 0:           # keep the base cell center on the positive side
        n = -n
    return [n]


def guide_frame(grid: str):
    """(guide plane normals, p0, w): the guideline is cosh(t) p0 + sinh(t) w,
    with w pointing toward increasing position."""
    shape = poly.by_name(grid)
    normals = guide_normals(shape)
    p0, w = geo.line_frame(normals)
    e0 = np.eye(shape.dim + 1)[0]
    ahead = shape.step_matrices[_FORWARD_SIDE[grid]] @ e0
    if float(geo.mdot(ahead, w)) < float(geo.mdot(e0, w)):
        w = -w
    return normals, p0, w


def _is_guide_center(c: np.ndarray, normals, values, tol: float = 1e-3) -> bool:
    return all(abs(float(geo.mdot(c, n)) - v) < tol for n, v in zip(normals, values))


def _chain_sides(g: np.ndarray, steps: np.ndarray, normals, values,
                 w: np.ndarray) -> tuple[int, int]:
    """(side toward previous, side toward next) of a placed guideline cell."""
    here = float(geo.mdot(g[:, 0], w))
    cands = []
    for i in range(steps.shape[0]):
        c = (g @ steps[i])[:, 0]
        if _is_guide_center(c, normals, values):
            cands.append((i, float(geo.mdot(c, w))))
    if len(cands) != 2:
        raise AssertionError(f"guideline cell has {len(cands)} chain neighbors")
    cands.sort(key=lambda t: t[1])
    if not cands[0][1] < here < cands[1][1]:
        raise AssertionError("guideline chain is not monotone")
    return cands[0][0], cands[1][0]


def _canonicalize_chain(shape, mats, adj, n_chain, normals, left, right):
    """Renumber the faces of every chain cell of a dodecagrid region so that
    face 0 faces the reflected cell, face 1 the previous chain cell and
    face 4 the next one.  Returns the reflected-row cell ids."""
    refl0 = geo.reflection(normals[0])
    steps = shape.step_matrices
    u = shape.side_directions
    mirror_ids = np.full(n_chain, -1, dtype=np.int32)
    for k in range(n_chain):
        g = mats[k]
        target = refl0 @ g[:, 0]
        scale = max(1.0, abs(float(target[0])))
        j_mirror = -1
        for s in range(12):
            c = (g @ steps[s])[:, 0]
            if float(np.max(np.abs(c - target))) < 1e-6 * scale:
                j_mirror = s
                break
        if j_mirror < 0:
            raise AssertionError("chain cell has no reflected neighbor face")
        motion = sym.complete_motion(j_mirror, int(left[k]))
        # the rotation carrying each face direction u[i] to u[motion[i]],
        # since u^T u = 4 I
        rot = np.eye(4)
        rot[1:, 1:] = (u.T @ u[list(motion)] / 4.0).T
        mats[k] = g @ rot
        adj[k] = adj[k][list(motion)]
        if motion[4] != right[k]:
            raise AssertionError("chain renumbering does not place the next "
                                 "cell at face 4")
        mirror_ids[k] = adj[k, 0]
    return mirror_ids


def build_region(grid: str, radius: int, halfwidth: int) -> Region:
    """`hypca.region.build_region`, with cells told apart by their float
    centres: all cells within `radius` steps of the guideline segment spanning
    positions -halfwidth..halfwidth.

    Guideline cells are generated out to position halfwidth + radius, the
    full stretch the region can contain, and all of them carry positions.
    Cell id 0 is the central cell; the rest of the chain follows in
    position order, then the remaining cells in search order.
    """
    if radius < 1 or halfwidth < 0:
        raise ValueError("radius must be >= 1 and halfwidth >= 0")
    if radius > MAX_RADIUS[grid]:
        raise RegionTooLarge(
            f"radius {radius} exceeds the {grid} limit {MAX_RADIUS[grid]}"
        )
    shape = poly.by_name(grid)
    extent = halfwidth + radius
    if extent > PLACEMENT_EXTENT[grid]:
        raise RegionTooLarge(
            f"halfwidth + radius = {extent} exceeds the {grid} placement "
            f"bound {PLACEMENT_EXTENT[grid]}"
        )
    dim1 = shape.dim + 1
    e0 = np.zeros(dim1)
    e0[0] = 1.0
    steps = shape.step_matrices
    p = shape.n_sides

    normals, _, w = guide_frame(grid)
    values = [float(geo.mdot(e0, n)) for n in normals]

    # walk the chain outwards in both directions from the base cell
    chain: dict[int, np.ndarray] = {0: np.eye(dim1)}
    for direction in (+1, -1):
        g = np.eye(dim1)
        for k in range(1, extent + 1):
            back, ahead = _chain_sides(g, steps, normals, values, w)
            g = g @ steps[ahead if direction > 0 else back]
            chain[k * direction] = g

    n_chain = 2 * extent + 1
    chain_order = [0] + [q for q in range(-extent, extent + 1) if q != 0]
    mats = np.stack([chain[q] for q in chain_order])
    dist = np.array([0 if abs(q) <= halfwidth else -1 for q in chain_order],
                    dtype=np.int32)
    adj = np.full((n_chain, p), -1, dtype=np.int32)
    table = _CenterTable(dim1)
    table.insert(mats[:, :, 0])

    step_centers = steps[:, :, 0]
    chunk = max(1, _CHUNK // p)
    frontier = np.flatnonzero(dist == 0)
    level = 0
    while frontier.size:
        n0 = table.n
        blocks = (np.einsum("mab,sb->msa", mats[frontier[i:i + chunk]],
                            step_centers, optimize=True).reshape(-1, dim1)
                  for i in range(0, frontier.size, chunk))
        ids = table.resolve(blocks, grow=level < radius)
        n1 = table.n
        mats = _grown(mats, n1)
        adj = _grown(adj, n1, fill=-1)
        dist = _grown(dist, n1, fill=-1)
        adj[frontier] = ids.reshape(-1, p)
        # the next level: new cells and chain cells reached for the first
        # time, in order of first occurrence
        cand = np.flatnonzero(ids >= 0)
        cand = cand[dist[ids[cand]] < 0]
        reached, first = np.unique(ids[cand], return_index=True)
        first = cand[first]
        src = first[reached >= n0]          # new ids follow first occurrence
        for i in range(0, src.size, chunk):
            part = src[i:i + chunk]
            mats[n0 + i:n0 + i + part.size] = np.einsum(
                "mab,mbc->mac", mats[frontier[part // p]], steps[part % p])
        frontier = reached[np.argsort(first, kind="stable")]
        dist[frontier] = level + 1
        level += 1

    n = table.n
    mats, adj, dist = (a if len(a) == n else a[:n].copy()
                       for a in (mats, adj, dist))
    positions = np.full(n, NO_POS, dtype=np.int32)
    positions[:n_chain] = chain_order

    left = np.zeros(n_chain, dtype=np.int32)
    right = np.zeros(n_chain, dtype=np.int32)
    for k in range(n_chain):
        left[k], right[k] = _chain_sides(mats[k], steps, normals, values, w)

    mirror_by_id = None
    if grid == "dodecagrid":
        mirror_by_id = _canonicalize_chain(shape, mats, adj, n_chain, normals,
                                           left, right)
        left[:] = 1
        right[:] = 4

    # guideline arrays run left to right; chain ids are permuted relative
    # to that order because the central cell is id 0
    order = np.argsort(positions[:n_chain]).astype(np.int32)
    guideline = Guideline(
        cell_ids=order,
        positions=positions[order],
        left_sides=left[order],
        right_sides=right[order],
        mirror_ids=None if mirror_by_id is None else mirror_by_id[order],
    )
    region = Region(
        grid=grid,
        radius=radius,
        halfwidth=halfwidth,
        adjacency=adj,
        dist=dist,
        guideline=guideline,
    )
    region.matrices = mats          # its own placements, not a Placement
    _check_chain(region)
    return region


def tape_positions(region: Region) -> np.ndarray:
    """(N,) int32: each chain cell's tape position, NO_POS off the line."""
    positions = np.full(region.n_cells, NO_POS, dtype=np.int32)
    positions[region.guideline.cell_ids] = region.guideline.positions
    return positions


def marker_sides_internal(region: Region) -> dict[int, tuple[int, ...]]:
    """For each guideline cell id, the 0-based sides toward its red markers."""
    gl = region.guideline
    p = region.shape.n_sides
    out: dict[int, tuple[int, ...]] = {}
    for k, ident in enumerate(gl.cell_ids):
        if region.grid == "dodecagrid":
            sides = _MARKER_FACES
        else:
            lam = int(gl.left_sides[k])
            sides = tuple((lam + off) % p
                          for off in _MARKER_OFFSETS[region.grid])
        out[int(ident)] = sides
    return out


def marker_cell_ids(region: Region) -> np.ndarray:
    """Ids of the cells a compact embedding paints with the marker state."""
    ids = {
        int(region.adjacency[ident, s])
        for ident, sides in marker_sides_internal(region).items()
        for s in sides
        if region.adjacency[ident, s] >= 0
    }
    return np.array(sorted(ids), dtype=np.int32)


def marker_cells(region: Region) -> dict[int, set[int]]:
    """For each guideline cell id, its marker sides in public numbering.

    The cells across those sides are the ones a compact embedding paints
    with the marker state.  The frozen chain cells at the very ends of the
    generated stretch are skipped, their markers lie outside the region;
    anywhere else a missing marker neighbor means the region is too small.
    """
    base = 0 if region.grid == "dodecagrid" else 1
    out: dict[int, set[int]] = {}
    for ident, sides in marker_sides_internal(region).items():
        if any(region.adjacency[ident, s] < 0 for s in sides):
            if region.dist[ident] < region.radius:
                raise RegionTooLarge(
                    f"guideline cell {ident} is missing a marker neighbor"
                )
            continue
        out[ident] = {s + base for s in sides}
    return out


def guideline_triples(region: Region) -> list[tuple[int, int, int]]:
    """The guideline as (cell id, left side, right side), left to right,
    sides in public numbering."""
    base = 0 if region.grid == "dodecagrid" else 1
    gl = region.guideline
    return [
        (int(c), int(l) + base, int(r) + base)
        for c, l, r in zip(gl.cell_ids, gl.left_sides, gl.right_sides)
    ]


def neighbor(region: Region, c: int, side: int) -> int | None:
    """The cell across a side of c, or None outside the generated region.

    Sides run 1..5 and 1..7 on the polygonal grids, 0..11 on the
    dodecagrid.
    """
    p = region.shape.n_sides
    if region.grid == "dodecagrid":
        if not 0 <= side < p:
            raise ValueError(f"face {side} out of range 0..{p - 1}")
        s = side
    else:
        if not 1 <= side <= p:
            raise ValueError(f"side {side} out of range 1..{p}")
        s = side - 1
    hit = int(region.adjacency[c, s])
    return hit if hit >= 0 else None
