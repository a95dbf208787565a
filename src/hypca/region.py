"""Finite patches of the supported tilings around a guideline segment.

A region is grown from a chain of guideline cells, the cells that carry tape
letters.  The chain is walked first, ordered by a monotone statistic along
the guideline, then a breadth-first search from the central segment adds
every cell within the requested graph distance, a level at a time in numpy.

Cell identity is local.  Two paths from the segment to one cell close a
cycle, and in these tilings cycles are filled by the cycles around single
vertices (pentagrid, heptagrid) or edges (dodecagrid): the cell graphs of
the right-angled grids are median graphs, the 1-skeletons of the CAT(0)
cube complexes dual to them (V. Chepoi, "Graphs of some CAT(0)
complexes", Adv. Appl. Math. 24, 2000), and the heptagrid's dual {3,7} is
a systolic triangulation (T. Januszkiewicz and J. Swiatkowski, "Simplicial
nonpositive curvature", Publ. IHES 104, 2006).  The argument needs the
segment to be convex, and it is.  On the right-angled grids it is cut out
by halfspaces and hyperplane carriers: its cells have a side on the
guideline's hyperplane (on the dodecagrid, on two hyperplanes), lie on
one side of it, and lie between the hyperplanes of the two end sides.
On the heptagrid it is a geodesic run of cells along a line.  So the
distance to the segment counts the hyperplanes that separate a cell
from it (cube complexes), or its balls are convex (systolic), and for a
cell x at distance L and its neighbour w:

- if w is at distance L, a cycle around a vertex or edge of their shared
  side runs from x to w through cells at distance L - 1 only;
- if w is at distance L + 1 and touches another cell x' at distance L,
  a cycle around a vertex or edge of that side runs from x to x' through
  cells at distance L - 1 only, and then on to w; on the heptagrid x and
  x' are adjacent, and the cycle is x, x', w.

The build runs a level at a time.  Each adjacency entry carries its mate,
the side of the neighbour that faces back (int8, dropped after the build),
and the entry across that side is set with it, so a cell's entries toward
the level below are copied, not found.  Every other entry of a frontier
cell x is found by walking around the vertex or edge that its side shares
with a known entry of a complete cell, a cell of a lower level: 2 hops on
the heptagrid, where three cells meet at a vertex, and 3 on the pentagrid
and the dodecagrid, where four meet at a vertex or an edge.  A hop enters a
cell by its mate m and leaves it by the next side around, which the walk
tables give for m and the vertex or edge.  A walk that ends on a known
entry has found the cell.  One that ends on an unfinished frontier cell
pairs the two candidates as one new cell, and a candidate that no walk
pairs is a cell of the next level that touches no other frontier cell, new
below the radius and outside the region at it.  On the heptagrid the walks
through frontier cells come second, once the adjacencies within the level
are known.  New cells are numbered in (frontier, side) order of first
occurrence, and each takes its first path's frame: its side facing that
path is the one the step across it names.  Two walks that give one entry
different cells, a pair that another walk finds, or a cell whose candidates
are paired only in part raise an error.

The walk tables follow from the face rings, one derivation for all three
grids.  target[s] lists the sides that meet side s at a vertex or an edge:
s + 1 and s - 1 on the polygonal grids, FACE_RINGS[s] on the dodecagrid.
sigma_s is the side map of the base-cell symmetry inside the step across
s: a -> 2s - a mod p, the axis reflection of the polygonal half-turn, and
on the dodecagrid a -> antipode(a), the central inversion, where the
antipode is the one face more than two rings away.  The step's reflection
carries side a of the base cell onto the neighbour's side at the same
vertex or edge, and the neighbour numbers that side sigma_s(a).  So the
mate across s is back[s] = sigma_s(s), and a walk that enters by back[s]
toward target[s, j] leaves by turn[back[s], j] = sigma_s(target[s, j]).
The build forms no cell key; the cells' exact Tits keys are the tests'
reference (tests/region_reference.py).

Float placement is computed on demand, in `Region.matrices`, the one place
that makes floats.  The build records, for each cell off the chain, the
cell it was placed from and the side between them; `Region.matrices` walks
the chain by its side labels and places every other cell from those
records, a level at a time, on its first read.  Only render and the
geometry checks read it; the engine, the verify scan and the oracle check
never do.  Float coordinates grow exponentially with the distance from the
base cell, so `require_placeable` refuses a region whose halfwidth +
radius passes PLACEMENT_EXTENT: `Region.matrices` asks it, and so does a
command that will place cells, before it builds them.  The build has no
such bound.

The chain's side labels need no floats either.  The paper's tape line is
built by the shift along the guideline that carries one neighbour of a tape
cell onto the cell itself; that shift is a symmetry of the tiling, so each
tape cell's labels follow from the previous cell's by one fixed map.  On
the polygonal grids a shared side keeps its number in both cells and the
step is a half-turn, which keeps orientation, so the cell at position k
has left side l0 + k gap and right side l0 + (k + 1) gap, mod p.  On the
dodecagrid a step numbers the shared face op(s) in the neighbour, so
(mirror face, left, right) goes to (op m, op r, op l) and alternates
between two triples with the parity of k.  No float test decides which
cells form the chain, their sides or the mirror face.
`Region.marker_cell_ids` reads the labels to find the cells across a tape
cell's pattern slots, which a run paints as the pattern says.

A region is a pure function of (grid, radius, halfwidth), so a region file
holds those three values and a format version, and loading one rebuilds
the region.  Rebuilding costs less than storing the arrays: the dodecagrid
r4 hw1 ball (18,691 cells) builds in 9 to 14 ms (medians of 10 builds in
one process after a warm-up build, on a shared 2-core x86 host), while its
arrays take 7.5 MB of JSON.  A file without the version key, or with
another version, is refused.

Guideline definitions:

- pentagrid: the line carried by side 0 of the base cell; tape cells keep an
  edge on it, consecutive ones share the sides adjacent to that edge.
- heptagrid: the line through the midpoints of sides 0 and 1 of the base
  cell; it crosses a bi-infinite sequence of cells, and the tape is the
  crossed cells whose center lies on the base cell's side of the line.
- dodecagrid: the plane carrying face 0 of the base cell plays the role the
  pentagrid line plays one dimension down; the tape runs along the line cut
  on that plane by the face 2 plane.  Tape cells are renumbered afterwards
  so that face 0 faces the reflected cell below the plane, face 1 the
  previous tape cell and face 4 the next one.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np

from . import polytopes as poly
from . import symmetry as sym
from .jsonfile import exactly, json_object, read_key
from .symmetry import TAPE_SLOTS

# float placements stay accurate up to these extents, halfwidth + radius
PLACEMENT_EXTENT = {"pentagrid": 18, "heptagrid": 18, "dodecagrid": 8}
MAX_RADIUS = {"pentagrid": 10, "heptagrid": 10, "dodecagrid": 6}

REGION_FORMAT = 2       # region files hold (grid, radius, halfwidth) only


class RegionTooLarge(ValueError):
    pass


class ValidityExhausted(ValueError):
    """No step can be trusted: the region is too small for more time."""


def require_placeable(grid: str, radius: int, halfwidth: int) -> None:
    """Refuse a region that `Region.matrices` cannot place, before it is
    built: float coordinates grow with the distance from the base cell,
    so halfwidth + radius may not pass PLACEMENT_EXTENT."""
    extent, bound = halfwidth + radius, PLACEMENT_EXTENT[grid]
    if extent > bound:
        raise RegionTooLarge(
            f"halfwidth + radius = {extent} exceeds the {grid} placement "
            f"bound PLACEMENT_EXTENT = {bound}; float placements lose "
            "accuracy further out")


@dataclass
class Guideline:
    cell_ids: np.ndarray        # chain cells, ordered by position
    positions: np.ndarray       # tape position of each chain cell
    left_sides: np.ndarray      # side toward position - 1
    right_sides: np.ndarray     # side toward position + 1
    mirror_ids: np.ndarray | None = None   # dodecagrid reflected row

    def id_at(self, position: int) -> int:
        k = int(position - self.positions[0])
        if not 0 <= k < len(self.cell_ids):
            raise IndexError(f"no guideline cell at position {position}")
        return int(self.cell_ids[k])


@dataclass
class Placement:
    """How build_region placed the cells: the chain by its walk, then every
    later cell across one side of a cell placed before it."""
    parent: np.ndarray          # (N - n_chain,) int32 cell placed from
    side: np.ndarray            # (N - n_chain,) int8 parent's side crossed


@dataclass
class Region:
    """The cells within `radius` steps of the guideline segment: their
    adjacency, their distances, and the guideline.
    What follows from these alone is worked out on first read and kept:
    `matrices`, the placements; `complete_cells`, the cells with every
    neighbour in the region; `complete_contexts`, the ids that make up
    each one's context; and `complete_index`, each cell's row in those
    two.  Every run and verify scan on the region shares the last
    three."""

    grid: str
    radius: int
    halfwidth: int
    adjacency: np.ndarray       # (N, n_sides), -1 where no cell was built
    dist: np.ndarray            # (N,) graph distance to the central segment
    guideline: Guideline
    # `matrices` follows from this on first read; a region made without it
    # is given its matrices by assigning them
    placement: Placement | None = field(default=None, repr=False,
                                        compare=False)

    @property
    def shape(self) -> poly.CellShape:
        return poly.by_name(self.grid)

    @property
    def n_cells(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def matrices(self) -> np.ndarray:
        """(N, d+1, d+1) base-to-placed isometries, placed on first read.
        Their float coordinates grow with the distance from the base cell,
        so regions past PLACEMENT_EXTENT are refused here."""
        if self.placement is None:
            raise ValueError("region has neither matrices nor a placement")
        require_placeable(self.grid, self.radius, self.halfwidth)
        return _place(self)

    @property
    def centers(self) -> np.ndarray:
        return self.matrices[:, :, 0]

    def marker_cell_ids(self, slots) -> np.ndarray:
        """(chain cells, len(slots)) ids of the cells across the pattern
        slots `slots` of every chain cell, in chain order, -1 where no
        cell was built: the one map from a tape cell's pattern slot to
        its side, an offset from the left side on the polygonal grids and
        the face itself on the dodecagrid.  A cell across slots of two
        chain cells is listed for each."""
        gl = self.guideline
        sides = np.array(slots, dtype=np.intp)
        if self.grid != "dodecagrid":
            sides = (gl.left_sides[:, None] + sides) % self.shape.n_sides
        return self.adjacency[gl.cell_ids[:, None], sides]

    def tape_window(self, time: int) -> int:
        """Largest |position| of the tape the region certifies at `time`.
        A step can be trusted only where a cell's whole neighbourhood
        was, so the certified cells lose one unit of distance from the
        initial segment per step: a region of radius r certifies r
        steps, and at time t the tape positions |p| <= halfwidth + r - t.
        Past time r nothing is certified, and asking raises; so does a
        time before the run's start at 0."""
        if time < 0:
            raise ValueError(f"time {time} is before the start of a run "
                             "at time 0")
        if time > self.radius:
            raise ValidityExhausted(
                f"time {time} is past the {self.radius} steps a radius "
                f"{self.radius} region certifies")
        return self.halfwidth + self.radius - time

    @cached_property
    def complete_cells(self) -> np.ndarray:
        """Ids of the cells with every neighbour in the region, ascending
        and read-only: the cells an automaton steps.  Found on first read,
        once per region, so the adjacency must not change after.  The
        least neighbour id of each cell is taken a column at a time over
        blocks of rows: on small regions numpy is several times faster
        along columns than reducing each short row, and blocks that stay
        in cache keep it faster on large ones too."""
        adj = self.adjacency
        least = np.empty(len(adj), dtype=adj.dtype)
        for i in range(0, len(adj), _CHUNK):
            block, out = adj[i:i + _CHUNK].T, least[i:i + _CHUNK]
            np.copyto(out, block[0])
            for side in block[1:]:
                np.minimum(out, side, out=out)
        cells = np.flatnonzero(least >= 0)
        cells.flags.writeable = False
        return cells

    @cached_property
    def complete_contexts(self) -> np.ndarray:
        """(len(complete_cells), n_sides + 1) int32, read-only: each
        complete cell's neighbours' ids in digit order, then its own id,
        the cells whose states make up its context code.  Found on first
        read, once per region; a run codes a set of rows of it with one
        gather of the states."""
        cells = self.complete_cells
        out = np.empty((len(cells), self.adjacency.shape[1] + 1),
                       dtype=np.int32)
        out[:, :-1] = self.adjacency.take(cells, axis=0)
        out[:, -1] = cells
        out.flags.writeable = False
        return out

    @cached_property
    def complete_index(self) -> np.ndarray:
        """(n_cells + 1,) int32, read-only: the row of each complete cell
        in `complete_cells` and `complete_contexts`, -1 for every other
        cell and, in the last entry, for the missing neighbour -1.  Found
        on first read, once per region; a step finds the rows to code
        again with one gather of it at its movers' context rows."""
        index = np.full(self.n_cells + 1, -1, dtype=np.int32)
        index[self.complete_cells] = np.arange(len(self.complete_cells),
                                               dtype=np.int32)
        index.flags.writeable = False
        return index


# polygonal grids: the left side of the base cell
_CHAIN_LEFT = {"pentagrid": 1, "heptagrid": 2}
# dodecagrid: (mirror face, left, right) at even and at odd positions
_CHAIN_FACES = ((0, 3, 1), (11, 9, 6))


_CHUNK = 8192                        # entries per block of a level's walks


@dataclass(frozen=True)
class _Walk:
    """Walks around a vertex (polygonal grids) or an edge (dodecagrid).  A
    walk's state in a cell is the side s it leaves by and j, which picks
    the vertex or edge of that side: the one shared with side s + 1
    (j = 0) or s - 1 (j = 1) on the polygonal grids, and on the dodecagrid
    the edge of face s and face FACE_RINGS[s][j].  `turn` and `aux` are
    flat, indexed by m J + j for the cell a walk enters by side m."""
    cells: int            # cells around a vertex or edge
    back: np.ndarray      # (p,) int8: the side facing back across side s
    target: np.ndarray    # (p, J) int8: the other side at (s, j)
    turn: np.ndarray      # (p J,) int8: the side the walk leaves by
    aux: np.ndarray       # (p J,) int8: and its j there


@lru_cache(maxsize=None)
def _walk(grid: str) -> _Walk:
    """The walk tables, from target and sigma as the module docstring
    derives them: sigma[s, a] is sigma_s(a)."""
    p = poly.by_name(grid).n_sides
    sides = np.arange(p)
    if grid == "dodecagrid":
        target = np.array(sym.FACE_RINGS)
        near = np.eye(p, dtype=np.int64)
        near[sides[:, None], target] = 1
        sigma = np.broadcast_to((near @ near == 0).argmax(axis=1), (p, p))
        cells = 4
    else:
        target = (sides[:, None] + [1, -1]) % p
        sigma = (2 * sides[:, None] - sides) % p
        cells = {"pentagrid": 4, "heptagrid": 3}[grid]
    back = sigma[sides, sides]
    turn = np.empty_like(target)
    turn[back] = np.take_along_axis(sigma, target, axis=1)
    # the j at which the walk leaves: the index of its entry side m in
    # target[turn[m, j]]
    aux = (target[turn] == sides[:, None, None]).argmax(axis=2)
    return _Walk(cells, back.astype(np.int8),
                 target.astype(np.int8), turn.astype(np.int8).ravel(),
                 aux.astype(np.int8).ravel())


def _extend(v: np.ndarray, k: int, fill: int) -> np.ndarray:
    """v with k more rows, set to `fill`."""
    out = np.empty((len(v) + k,) + v.shape[1:], dtype=v.dtype)
    out[:len(v)] = v
    out[len(v):] = fill
    return out


def _enter(adj: np.ndarray, mate: np.ndarray, at: np.ndarray,
           cell: np.ndarray, side: np.ndarray) -> None:
    """Enter `cell`, whose side `side` faces back, at the flat adjacency
    entries `at`.  An entry that holds another cell already, or that two
    of these give different cells, means that two walks disagree."""
    held = adj.take(at)
    if not ((held < 0) | ((held == cell) & (mate.take(at) == side))).all():
        raise AssertionError("two walks give one entry different cells")
    adj[at], mate[at] = cell, side
    if not ((adj.take(at) == cell) & (mate.take(at) == side)).all():
        raise AssertionError("two walks give one entry different cells")


def _chain_labels(grid: str, p: int, pos: np.ndarray):
    """(mirror face, left side, right side) of the tape cells at positions
    `pos`, numbered as the chain walk places them; no mirror face off the
    dodecagrid."""
    if grid == "dodecagrid":
        return np.array(_CHAIN_FACES, dtype=np.int32)[pos % 2].T
    gap = TAPE_SLOTS[grid].right
    left = ((_CHAIN_LEFT[grid] + pos * gap) % p).astype(np.int32)
    return None, left, (left + gap) % p


def _chain_walk(extent: int, left: np.ndarray, right: np.ndarray):
    """(index, index placed from, side crossed) of every chain cell but the
    base cell, in walk order: out to position extent, then to -extent.
    Index k holds position k - extent; `left` and `right` are its labels."""
    left, right = left.tolist(), right.tolist()
    for k in range(extent + 1, 2 * extent + 1):
        yield k, k - 1, right[k - 1]
    for k in range(extent - 1, -1, -1):
        yield k, k + 1, left[k + 1]


def build_region(grid: str, radius: int, halfwidth: int) -> Region:
    """All cells within `radius` steps of the guideline segment spanning
    positions -halfwidth..halfwidth.

    Guideline cells are generated out to position halfwidth + radius, the
    full stretch the region can contain, and all of them carry positions.
    Cell id 0 is the central cell; the rest of the chain follows in
    position order, then the remaining cells in search order.
    """
    poly.by_name(grid)                  # refuses an unknown grid
    if radius < 1 or halfwidth < 0:
        raise ValueError("radius must be >= 1 and halfwidth >= 0")
    if radius > MAX_RADIUS[grid]:
        raise RegionTooLarge(
            f"radius {radius} exceeds the {grid} limit {MAX_RADIUS[grid]}"
        )
    walk = _walk(grid)
    p = len(walk.back)
    extent = halfwidth + radius

    # the chain, each cell in the frame of the walk from the base cell;
    # index k holds position k - extent
    n_chain = 2 * extent + 1
    mirror, left, right = _chain_labels(grid, p, np.arange(-extent, extent + 1))
    chain_order = [0] + [q for q in range(-extent, extent + 1) if q != 0]
    chain_at = np.array(chain_order) + extent    # index of each chain id
    order = np.argsort(chain_at).astype(np.int32)    # chain id at each index
    dist = np.array([0 if abs(q) <= halfwidth else -1 for q in chain_order],
                    dtype=np.int32)
    adj = np.full((n_chain, p), -1, dtype=np.int32)
    mate = np.full((n_chain, p), -1, dtype=np.int8)
    prev, succ = order[:-1], order[1:]
    adj[prev, right[:-1]], mate[prev, right[:-1]] = succ, left[1:]
    adj[succ, left[1:]], mate[succ, left[1:]] = prev, right[:-1]
    placed_from, placed_side = [], []

    # slot[c] is cell c's index in the frontier, read for frontier cells only
    slot = np.zeros(n_chain, dtype=np.int32)
    n_aux = walk.target.shape[1]
    chunk = max(1, _CHUNK // p)
    frontier = np.flatnonzero(dist == 0).astype(np.int32)
    level, n = 0, n_chain
    while frontier.size:
        f = frontier.size
        slot[frontier] = np.arange(f, dtype=np.int32)
        adj_f, mate_f = adj.reshape(-1), mate.reshape(-1)
        pairs = []
        # walks whose first hop is a complete cell; then, with three cells
        # at a vertex and below the radius, those whose first hop is a
        # frontier cell, once the level's own adjacencies are known.  Only
        # a walk whose last cell is a frontier cell may end on no entry.
        for near in (False, True)[:1 + (walk.cells == 3 and level < radius)]:
            for i0 in range(0, f, chunk):
                cell = frontier[i0:i0 + chunk]
                nb = adj.take(cell, axis=0)
                d = dist.take(nb)
                # the walks' first entries, at index q = i p + s of nb, and
                # the entries i p + t that they find
                q = np.flatnonzero((nb >= 0) & ((d == level) if near else
                                                d.view(np.uint32) < level))
                s = q % p
                t = walk.target.take(s, axis=0) + (q - s)[:, None]
                q = np.flatnonzero(nb.reshape(-1).take(t) < 0)
                k = q // n_aux
                j, s, t = q - k * n_aux, s.take(k), t.reshape(-1).take(q)
                e = cell.take(t // p) * p + s
                for _ in range(walk.cells - 2):
                    k = mate_f.take(e) * n_aux + j
                    c = adj_f.take(e)
                    s, j = walk.turn.take(k), walk.aux.take(k)
                    e = c * p + s
                v = adj_f.take(e)
                ok = v >= 0
                if level < radius and (near or walk.cells > 3):
                    miss = np.flatnonzero(~ok)
                    pairs.append((i0 * p + t.take(miss), c.take(miss),
                                  s.take(miss), j.take(miss)))
                hit = np.flatnonzero(ok)
                v = v.take(hit)
                u = walk.turn.take(mate_f.take(e.take(hit)) * n_aux
                                   + j.take(hit))
                x, t = cell.take(t.take(hit) // p), t.take(hit) % p
                _enter(adj_f, mate_f, x * p + t, v, u)
                _enter(adj_f, mate_f, v * p + u, x, t)
        n0 = n
        new_x = np.zeros(0, dtype=np.int32)
        if level < radius:
            # the candidates, entries that no walk found.  A pair (a, b, u)
            # says that a and b are one new cell, and that a's mate is u if
            # b is its first occurrence, the least of its candidates, which
            # are all paired with each other
            vals = adj.take(frontier, axis=0).reshape(-1)
            cand = np.flatnonzero(vals < 0).astype(np.int32)
            a, c, s, j = (np.concatenate(v) for v in zip(*pairs))
            del pairs
            b = slot.take(c) * p + s
            u = walk.turn.take(walk.back.take(s) * n_aux + j)
            del c, s, j
            va = vals.take(a)
            if (va != vals.take(b)).any():
                raise AssertionError("a walk pairs two entries that another "
                                     "walk finds")
            keep = np.flatnonzero(va < 0)
            a, b, u = a.take(keep), b.take(keep), u.take(keep)
            del vals, va, keep
            first = np.arange(f * p, dtype=np.int32)
            np.minimum.at(first, a, b)
            on = np.flatnonzero(first.take(a) == b)
            a, u = a.take(on), u.take(on)
            del b, on
            head = first.take(cand)
            if (first.take(head) != head).any():
                raise AssertionError("the walks pair a cell's candidates "
                                     "only in part")
            new_x = cand[head == cand]
            n = n0 + new_x.size
            first[new_x] = np.arange(n0, n, dtype=np.int32)
            ids = first.take(head)
            del first, head
            side = (cand % p).astype(np.int8)
            mates = walk.back.take(side)
            mates[np.searchsorted(cand, a)] = u
            x = frontier.take(cand // p)
            del cand, a, u
            adj = _extend(adj, new_x.size, -1)
            mate = _extend(mate, new_x.size, -1)
            dist = _extend(dist, new_x.size, -1)
            slot = _extend(slot, new_x.size, 0)
            adj_f, mate_f = adj.reshape(-1), mate.reshape(-1)
            _enter(adj_f, mate_f, x * p + side, ids, mates)
            _enter(adj_f, mate_f, ids * p + mates, x, side)
            del ids, mates, x, side
            placed_from.append(frontier.take(new_x // p))
            placed_side.append((new_x % p).astype(np.int8))
        # the next level: new cells and chain cells reached for the first
        # time, in order of first occurrence
        frontier = np.arange(n0, n, dtype=np.int32)
        wait = order[dist.take(order) < 0]
        nb = adj.take(wait, axis=0)
        seen = (nb >= 0) & (dist.take(nb) == level)
        occ = np.where(seen, slot.take(nb) * p + mate.take(wait, axis=0),
                       f * p).min(axis=1)
        reached = np.flatnonzero(occ < f * p)
        if reached.size:
            reached = reached[np.argsort(occ[reached], kind="stable")]
            frontier = np.insert(frontier, np.searchsorted(new_x,
                                                           occ[reached]),
                                 wait[reached])
        dist[frontier] = level + 1
        level += 1
    del mate, slot

    # guideline arrays run left to right; chain ids are permuted relative
    # to that order because the central cell is id 0
    mirror_ids = None
    if grid == "dodecagrid":
        for mf, motion, _ in _chain_renumbering():
            k = np.flatnonzero(mirror[chain_at] == mf)
            adj[k] = adj[k][:, motion]
        faces = TAPE_SLOTS[grid]
        mirror_ids = adj[order, faces.mirror]
        left = np.full(n_chain, faces.left, dtype=np.int32)
        right = np.full(n_chain, faces.right, dtype=np.int32)
    guideline = Guideline(
        cell_ids=order,
        positions=np.arange(-extent, extent + 1, dtype=np.int32),
        left_sides=left,
        right_sides=right,
        mirror_ids=mirror_ids,
    )
    region = Region(
        grid=grid,
        radius=radius,
        halfwidth=halfwidth,
        adjacency=adj,
        dist=dist,
        guideline=guideline,
        placement=Placement(
            parent=np.concatenate(placed_from),
            side=np.concatenate(placed_side)),
    )
    _check_chain(region)
    return region


@lru_cache(maxsize=None)
def _chain_renumbering():
    """For each dodecagrid face triple (mirror face, left, right): the
    mirror face, the face permutation that renumbers a chain cell so that
    face 0 faces the reflected cell, face 1 the previous chain cell and
    face 4 the next one, and the base rotation that performs it, a 4x4
    matrix made from the face directions u (u^T u = 4 I)."""
    u = poly.by_name("dodecagrid").side_directions
    out = []
    for mf, lf, rf in _CHAIN_FACES:
        motion = list(sym.complete_motion(mf, lf))
        if motion[TAPE_SLOTS["dodecagrid"].right] != rf:
            raise AssertionError("chain renumbering does not place the "
                                 "next cell at face 4")
        rot = np.eye(4)
        rot[1:, 1:] = (u.T @ u[motion] / 4.0).T
        out.append((mf, motion, rot))
    return out


def _place(region: Region) -> np.ndarray:
    """Every cell's placement: the chain's by the walk along its side
    labels, then each later cell's as its parent's times the step
    across its side, a BFS level at a time (a level's cells have
    consecutive ids and parents placed before them).  Last, the dodecagrid
    chain renumbering turns each chain cell by its base rotation."""
    pl, shape, gl = region.placement, region.shape, region.guideline
    steps = shape.step_matrices
    extent = region.halfwidth + region.radius
    n_chain, dim1 = 2 * extent + 1, shape.dim + 1
    _, left, right = _chain_labels(region.grid, shape.n_sides,
                                   np.arange(-extent, extent + 1))
    walk = np.empty((n_chain, dim1, dim1))
    walk[extent] = np.eye(dim1)
    for k, k0, s in _chain_walk(extent, left, right):
        walk[k] = walk[k0] @ steps[s]
    mats = np.empty((region.n_cells, dim1, dim1))
    mats[gl.cell_ids] = walk[gl.positions + extent]
    chunk = max(1, _CHUNK // shape.n_sides)
    bounds = n_chain + np.searchsorted(region.dist[n_chain:],
                                       np.arange(1, region.radius + 2))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        for j in range(lo, hi, chunk):
            end = min(j + chunk, hi)
            k = slice(j - n_chain, end - n_chain)
            mats[j:end] = np.einsum("mab,mbc->mac", mats[pl.parent[k]],
                                    steps[pl.side[k]])
    if region.grid == "dodecagrid":
        mirror = _chain_labels(region.grid, shape.n_sides, gl.positions)[0]
        for mf, _, rot in _chain_renumbering():
            k = gl.cell_ids[mirror == mf]
            mats[k] = mats[k] @ rot
    return mats


def _check_chain(region: Region) -> None:
    """Consecutive chain cells meet across the sides the guideline names."""
    gl, adj = region.guideline, region.adjacency
    ids = gl.cell_ids
    if (adj[ids[1:], gl.left_sides[1:]] != ids[:-1]).any():
        raise AssertionError("chain adjacency mismatch on the left")
    if (adj[ids[:-1], gl.right_sides[:-1]] != ids[1:]).any():
        raise AssertionError("chain adjacency mismatch on the right")


def region_to_json(region: Region) -> str:
    """The region as a file: its three parameters and the format version.
    The cells are not stored; `region_from_json` rebuilds them."""
    return json.dumps({"format": REGION_FORMAT, "grid": region.grid,
                       "radius": region.radius,
                       "halfwidth": region.halfwidth})


def read_region_file(text: str) -> tuple[str, int, int]:
    """The (grid, radius, halfwidth) a region file names, building
    nothing."""
    read = partial(read_key, json_object(text, "region"), "region")
    version = read("format", exactly(int))
    if version != REGION_FORMAT:
        raise ValueError(f"region file format {version} is not supported; "
                         f"this version reads format {REGION_FORMAT}")
    return (read("grid", _grid_of), read("radius", exactly(int)),
            read("halfwidth", exactly(int)))


def _grid_of(value) -> str:
    if exactly(str)(value) not in MAX_RADIUS:
        raise ValueError(f"unknown grid {value!r}")
    return value


def region_from_json(text: str) -> Region:
    return build_region(*read_region_file(text))
