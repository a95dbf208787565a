"""Finite patches of the supported tilings around a guideline segment.

A region is grown from a chain of guideline cells, the cells that carry tape
letters.  The chain is walked first, ordered by a monotone statistic along
the guideline, then a breadth-first search from the central segment adds
every cell within the requested graph distance, a level at a time in numpy.

Cell identity is exact.  Each tiling is the orbit of its base cell under a
reflection group, and each step operator has an integer image T_s in a
faithful linear representation of that group (J. Tits, 1969; M. W. Davis,
The Geometry and Topology of Coxeter Groups, 2008):

- pentagrid and dodecagrid: the group is right-angled.  T_s is the side
  reflection in the contragredient Tits representation (B_ii = 1, B_ij = 0
  for adjacent sides and -1 otherwise), composed with the side permutation
  of the base-cell symmetry the step includes; f0 = (1, ..., 1).
- heptagrid: the [7,3] triangle group over Z[alpha], alpha = 2 cos(pi/7),
  written as 9 x 9 integer matrices.  f0 is the weight fixed by the two
  mirrors through the base centre, which generate the centre's order-14
  stabilizer.

A cell reached by steps s1..sk carries Q = T_s1 ... T_sk and the key Q f0;
two paths share a key exactly when they reach the same cell.  A frontier
cell is held as its grandparent's Q and two steps, so only the shell two
levels in stores matrices.  Two kinds of neighbour need no lookup.  The
side a cell x was entered by leads back to its parent y.  And where
T_s T_t f0 == T_s' f0, an identity of the step operators tabulated once per
grid, x entered across side s of y has y's neighbour across s' across its
side t; it is read off y's row, complete since the previous level.  On the
heptagrid, where three cells meet at each vertex, that is two sides of
every cell with a parent; on the right-angled grids, two cells that share
a side share no neighbour and the table is empty.  Every other candidate
is hashed by the linear hash r . key mod 2**64, computed as (r^T Q) times a
fixed table of step products.  A presence map holds one bit per bucket of
stored hashes, a bucket being a hash's top bits, with at least eight
buckets per stored cell; a candidate whose bucket is empty is a miss.  The
rest, about one candidate in ten, are probed in chunks against a sorted
table.  While the table holds no hash twice, one search and an equality
test find a candidate's one entry; the first insertion that repeats a
hash switches the build to a two-sided search, which meets every equal
entry.  A level's misses are sorted by hash once, and each member of a run
of equal hashes is paired with the run's least index.  Only a run that
holds two cells, a true 64-bit collision, makes the level pair every two
equal hashes instead.  Full keys are formed only to confirm hits and pairs
and for new cells, and they alone decide identity.  New cells are numbered
in order of first occurrence in (frontier, side) order.

A key entry is at most the largest row sum of |Q|, since ||f0||_inf = 1.
Every cell lies within `radius` steps of a segment cell, so that is at
most the larger of the chain's row sums and the segment's times
||T||_inf ** radius.  The table stores keys in the narrowest integer type
that holds this bound, taken from the chain walk's own matrices; products
are formed in int64.  ||T||_inf is 3 on the pentagrid and the dodecagrid,
where the entries of Q grow quadratically along the chain, to 45,300 on
the extent-300 pentagrid chain: keys are int16 on pentagrid r2 hw20 and
int32 on pentagrid r2 hw300 and dodecagrid r2 hw100.  On the heptagrid
||T||_inf is 53 and the entries grow exponentially, to about 1.6e8 on the
extent-18 chain.  So no bound is relied on to keep int64 from wrapping:
the chain walk checks each product's left factor, and each level its
largest entry, against the int64 limit over the largest column sum of a
step or of a precomputed `via` vector, and raises RegionTooLarge before a
product could pass it.  On the heptagrid that refuses every halfwidth +
radius past 40.

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

The chain's side labels are integers too.  The paper's tape line is built by
the shift along the guideline that carries one neighbour of a tape cell onto
the cell itself; that shift is a symmetry of the tiling, so each tape cell's
labels follow from the previous cell's by one fixed map.  On the polygonal
grids a shared side keeps its number in both cells and the step is a
half-turn, which keeps orientation, so the cell at position k has left side
l0 + k gap and right side l0 + (k + 1) gap, mod p.  On the dodecagrid a step
numbers the shared face op(s) in the neighbour, so (mirror face, left, right)
goes to (op m, op r, op l) and alternates between two triples with the
parity of k.  No float test decides which cells form the chain, their sides
or the mirror face.  `Region.marker_cell_ids` reads the labels to find the
cells across a tape cell's pattern slots, which a run paints as the pattern
says.

A region is a pure function of (grid, radius, halfwidth), so a region file
holds those three values and a format version, and loading one rebuilds
the region.  Rebuilding costs less than storing the arrays: the dodecagrid
r4 hw1 ball (18,691 cells) builds in 26 to 40 ms (medians of 10 builds on
a shared 2-core x86 host), while its arrays take 7.5 MB of JSON.  A file
without the version key, or with another version, is refused.

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

from . import geometry as geo
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


_CHUNK = 8192                        # candidates per batched lookup
_BUCKETS_PER_CELL = 8                # least presence-map buckets per cell
_KEY_LIMIT = 2**63 - 1               # int64
# the linear hash r . key mod 2**64, r_k = c**(k + 1) for an odd constant c
_HASH_ROW = np.array([pow(0x9E3779B97F4A7C15, k, 2**64) for k in range(1, 13)],
                     dtype=np.uint64)


@dataclass(frozen=True)
class _CellKeys:
    steps: np.ndarray     # (p + 1, m, m): T_0 .. T_{p-1}, then the identity
    via: np.ndarray       # (p + 1, p + 1, p, m): steps[a] steps[b] T_t f0
    f0: np.ndarray        # (m,)
    back: np.ndarray      # (p,): the side of the cell across s facing back
    # (p + 1, p): the side s' with T_s T_t f0 == T_s' f0, or -1; the
    # neighbour across t of the cell across s is the base cell's across s'.
    # Row p, entry by no side, is all -1.
    shared: np.ndarray
    growth: int           # largest column sum of |steps|, |via| vector


def _mirrors(grid: str) -> np.ndarray:
    """Integer reflections generating the grid's reflection group, in its
    contragredient Tits representation: column j of reflection j is
    e_j - 2 B_j."""
    if grid == "heptagrid":
        # s1, s2, s3 through the centre and vertex 0, through the centre and
        # the midpoint of side 0, and along side 0, over Z[alpha] in the basis
        # 1, alpha, alpha**2; a multiplies by alpha (alpha**3 = alpha**2 +
        # 2 alpha - 1), and 2 B_12 = -alpha, 2 B_13 = -1, 2 B_23 = 0
        o, z = np.eye(3, dtype=np.int64), np.zeros((3, 3), dtype=np.int64)
        a = np.array([[0, 0, -1], [1, 0, 2], [0, 1, 1]])
        return np.stack([np.block([[-o, z, z], [a, o, z], [o, z, o]]),
                         np.block([[o, a, z], [z, -o, z], [z, z, o]]),
                         np.block([[o, z, o], [z, o, z], [z, z, -o]])])
    # right-angled: B_ij = 0 for adjacent sides and -1 for the others
    n = poly.by_name(grid).side_normals
    b = np.where(np.abs(geo.mdot(n[:, None], n[None])) < 1e-9, 0, -1)
    np.fill_diagonal(b, 1)
    gens = np.repeat(np.eye(len(n), dtype=np.int64)[None], len(n), axis=0)
    gens[np.arange(len(n)), :, np.arange(len(n))] -= 2 * b
    return gens


@lru_cache(maxsize=None)
def _cell_keys(grid: str) -> _CellKeys:
    shape = poly.by_name(grid)
    gens = _mirrors(grid)
    if grid == "heptagrid":
        # step s is the half-turn s3 s2 about the midpoint of side 0, carried
        # to side s by r**s, where the rotation r = s1 s2 takes side 0 to 1
        r = [np.linalg.matrix_power(gens[0] @ gens[1], k) for k in range(8)]
        t = np.stack([r[k] @ gens[2] @ gens[1] @ r[7 - k] for k in range(7)])
        f0 = np.zeros(9, dtype=np.int64)
        f0[6] = 1                       # fixed by s1 and s2
    else:
        # step s is a symmetry of the base cell, carrying side j onto side
        # perm[j], followed by the reflection in side s
        n = shape.side_normals
        t = []
        for s in range(shape.n_sides):
            img = n @ (geo.reflection(n[s]) @ shape.step_matrices[s]).T
            perm = np.abs(img[:, None] - n[None]).max(axis=2).argmin(axis=1)
            if not np.allclose(n[perm], img):
                raise AssertionError("step does not permute the sides")
            t.append(gens[s][:, perm])
        t = np.stack(t)
        f0 = np.ones(shape.n_sides, dtype=np.int64)
    steps = np.concatenate([t, np.eye(len(f0), dtype=np.int64)[None]])
    via = np.swapaxes(steps[:, None] @ steps[None] @ (t @ f0).T, 2, 3).copy()
    back = (via[-1, :-1] == f0).all(axis=2).argmax(axis=1)
    # [s, t, s']: T_s T_t f0 == T_s' f0
    hit = (via[-1, :-1, :, None] == via[-1, -1]).all(axis=3)
    shared = np.full((len(t) + 1, len(t)), -1, dtype=np.int8)
    shared[:-1] = np.where(hit.any(axis=2), hit.argmax(axis=2), -1)
    growth = max(int(np.abs(steps).sum(axis=1).max()),
                 int(np.abs(via).sum(axis=3).max()))
    return _CellKeys(steps, via, f0, back, shared, growth)


def _probe(h: np.ndarray, table: np.ndarray, ids: np.ndarray,
           repeats: bool) -> tuple[np.ndarray, np.ndarray]:
    """(index into h, stored id) for every stored entry whose hash equals
    h's.  `table` is sorted and `ids` lists the stored ids in its order.
    While no hash is stored twice, one search and an equality test find
    each probe's one entry; once `repeats` is set, each probe meets the
    run of equal hashes between its two searches."""
    if not repeats:
        at = np.searchsorted(table, h)
        np.minimum(at, table.size - 1, out=at)
        q = np.flatnonzero(table[at] == h)
        return q, ids[at[q]]
    order = np.argsort(h)               # sorted probes search faster
    h = h[order]
    lo = np.searchsorted(table, h)
    cnt = np.searchsorted(table, h, "right") - lo
    q = order[np.repeat(np.arange(len(h)), cnt)]
    slot = np.arange(len(q)) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)
    return q, ids[slot]


def _run_pairs(order: np.ndarray, dup: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """(member, least member) of every run of equal hashes, the least
    member itself left out.  `order` sorts the hashes and `dup` lists the
    sorted positions equal to the one before; each run is its head, the
    position before its first dup, and the dups that follow."""
    starts = np.ones(dup.size, dtype=bool)
    starts[1:] = dup[1:] != dup[:-1] + 1
    at = np.flatnonzero(starts)
    head = order[dup[at] - 1]
    least = np.minimum(head, np.minimum.reduceat(order[dup], at))
    member = np.concatenate([head, order[dup]])
    to = np.concatenate([least, least[np.cumsum(starts) - 1]])
    keep = member != to
    return member[keep], to[keep]


def _merge(table: np.ndarray, ids: np.ndarray, new: np.ndarray,
           new_ids: np.ndarray, at: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """The sorted table and its ids with the sorted hashes `new` inserted
    before positions `at`, as np.insert would, with one index pass."""
    at = at + np.arange(new.size)       # their places in the merged table
    old = np.ones(table.size + new.size, dtype=bool)
    old[at] = False
    out = []
    for v, w in ((table, new), (ids, new_ids)):
        merged = np.empty(old.size, dtype=v.dtype)
        merged[at] = w
        merged[old] = v
        out.append(merged)
    return out[0], out[1]


def _extend(v: np.ndarray, k: int, fill: int) -> np.ndarray:
    """v with k more rows, set to `fill`."""
    out = np.empty((len(v) + k,) + v.shape[1:], dtype=v.dtype)
    out[:len(v)] = v
    out[len(v):] = fill
    return out


class _Presence:
    """One bit per bucket of stored hashes, the bucket of a hash being its
    top `width` bits.  A hash whose bucket is empty is not stored.  The map
    keeps at least _BUCKETS_PER_CELL buckets per stored cell: past that it
    grows by doublings to four times as many and is filled again from the
    sorted table; otherwise a level's new hashes set their bits in place."""

    def __init__(self, table: np.ndarray):
        self.width, self.bits = 3, np.zeros(1, dtype=np.uint8)
        self.add(table, table)

    def _bit(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The byte and the bit in it of each hash's bucket."""
        b = h >> np.uint64(64 - self.width)
        return b >> np.uint64(3), np.left_shift(
            np.uint8(1), (b & np.uint64(7)).astype(np.uint8))

    def _set(self, h: np.ndarray) -> None:
        """Set the bits of sorted hashes h: one OR per byte touched."""
        for j in range(0, h.size, _CHUNK):
            byte, bit = self._bit(h[j:j + _CHUNK])
            start = np.flatnonzero(
                np.concatenate([[True], byte[1:] != byte[:-1]]))
            self.bits[byte[start]] |= np.bitwise_or.reduceat(bit, start)

    def add(self, new: np.ndarray, table: np.ndarray) -> None:
        """Record the sorted hashes `new`; `table` holds every stored hash,
        `new` included."""
        need = _BUCKETS_PER_CELL * table.size
        if need > 2 ** self.width:
            while 2 ** self.width < 4 * need:
                self.width += 1
            self.bits = np.zeros(2 ** (self.width - 3), dtype=np.uint8)
            new = table
        self._set(new)

    def __call__(self, h: np.ndarray) -> np.ndarray:
        """Whether each hash's bucket holds a stored hash."""
        byte, bit = self._bit(h)
        return (self.bits[byte] & bit).astype(bool)


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


def _key_dtype(chain: np.ndarray, segment: np.ndarray, ck: _CellKeys,
               radius: int):
    """The narrowest of int16, int32 and int64 that holds the key bound of
    the module docstring.  Row sums are formed in int64 only where they
    cannot wrap: a chain entry past the int32 limit asks for int64."""
    if int(np.abs(chain).max()) > np.iinfo(np.int32).max:
        return np.int64
    rows = [int(np.abs(q).sum(axis=-1).max()) for q in (chain, segment)]
    step = int(np.abs(ck.steps).sum(axis=2).max())
    bound = max(rows[0], rows[1] * step ** radius)
    return next((t for t in (np.int16, np.int32)
                 if bound <= np.iinfo(t).max), np.int64)


def build_region(grid: str, radius: int, halfwidth: int) -> Region:
    """All cells within `radius` steps of the guideline segment spanning
    positions -halfwidth..halfwidth.

    Guideline cells are generated out to position halfwidth + radius, the
    full stretch the region can contain, and all of them carry positions.
    Cell id 0 is the central cell; the rest of the chain follows in
    position order, then the remaining cells in search order.
    """
    shape = poly.by_name(grid)
    if radius < 1 or halfwidth < 0:
        raise ValueError("radius must be >= 1 and halfwidth >= 0")
    if radius > MAX_RADIUS[grid]:
        raise RegionTooLarge(
            f"radius {radius} exceeds the {grid} limit {MAX_RADIUS[grid]}"
        )
    extent = halfwidth + radius
    p = shape.n_sides
    ck = _cell_keys(grid)
    m = len(ck.f0)

    # walk the chain outwards in both directions from the base cell; index
    # k holds position k - extent.  A product's entries are at most its
    # left factor's largest entry times ck.growth, so that factor is checked
    # before each product.
    n_chain = 2 * extent + 1
    mirror, left, right = _chain_labels(grid, p, np.arange(-extent, extent + 1))
    q_pos = np.empty((n_chain, m, m), dtype=np.int64)
    q_pos[extent] = np.eye(m, dtype=np.int64)
    for k, k0, s in _chain_walk(extent, left, right):
        top = int(np.abs(q_pos[k0]).max())
        if top > _KEY_LIMIT // ck.growth:
            raise RegionTooLarge(
                f"{grid} chain key matrix at position {k0 - extent} reaches "
                f"{top}; its product with a step could pass the int64 key "
                "limit")
        q_pos[k] = q_pos[k0] @ ck.steps[s]

    chain_order = [0] + [q for q in range(-extent, extent + 1) if q != 0]
    chain_at = np.array(chain_order) + extent    # index of each chain id
    q_chain = q_pos[chain_at]
    dist = np.array([0 if abs(q) <= halfwidth else -1 for q in chain_order],
                    dtype=np.int32)
    adj = np.full((n_chain, p), -1, dtype=np.int32)
    keys = q_chain @ ck.f0
    h = keys.view(np.uint64) @ _HASH_ROW[:m]
    table_ids = np.argsort(h).astype(np.int32)
    table = h[table_ids]
    repeats = bool((table[1:] == table[:-1]).any())
    keys = keys.astype(_key_dtype(q_pos, q_pos[extent - halfwidth:
                                               extent + halfwidth + 1],
                                  ck, radius))
    present = _Presence(table)
    placed_from, placed_side = [], []

    # frontier cell k has Q = par[rows[k]] @ T[sa[k]] @ T[sb[k]]: par holds
    # the chain's Q, then that of the frontier's grandparents; step p is the
    # identity.  parent[k] is the cell it was placed from, or -1.
    chunk = max(1, _CHUNK // p)
    frontier = np.flatnonzero(dist == 0).astype(np.int32)
    rows, parent = frontier, np.full(frontier.size, -1, dtype=np.int32)
    sa = sb = np.full(frontier.size, p, dtype=np.int8)
    par = q_chain
    shares = bool((ck.shared >= 0).any())
    # via by one index: [a (p + 1) + b] for the hashes, whose products run
    # over all p sides, and [(a (p + 1) + b) p + t] for the keys
    via_h = ck.via.reshape(-1, p, m).view(np.uint64)
    via_k = ck.via.reshape(-1, m)

    def keys_at(x):
        """Full keys of the candidates x = frontier index * p + side."""
        out = np.empty((len(x), m, 1), dtype=np.int64)
        for j in range(0, len(x), chunk):
            k, t = np.divmod(x[j:j + chunk], p)
            np.matmul(par.take(rows[k], axis=0),
                      via_k.take(pair[k] * p + t, axis=0)[:, :, None],
                      out=out[j:j + chunk])
        return out[:, :, 0]

    level = 0
    n = n_chain
    while frontier.size:
        top = max(int(par.max()), -int(par.min()))
        if top > _KEY_LIMIT // ck.growth:
            raise RegionTooLarge(
                f"{grid} key matrices reach {top} at level {level}; their "
                "products could pass the int64 key limit")
        rp = _HASH_ROW[:m] @ par.view(np.uint64)   # uint64 wraps: mod 2**64
        pair = sa.astype(np.int16) * (p + 1) + sb  # (sa, sb) as one index
        miss_x, miss_h, reached = [], [], {}
        for i0 in range(0, frontier.size, chunk):
            r, b = rows[i0:i0 + chunk], sb[i0:i0 + chunk]
            h = (via_h.take(pair[i0:i0 + chunk], axis=0)
                 @ rp.take(r, axis=0)[:, :, None]).ravel()
            ids = np.full(h.size, -1, dtype=np.int32)
            up = np.flatnonzero(b < p)
            ids[up * p + ck.back[b[up]]] = parent[i0 + up]
            if shares:
                # neighbours shared with the parent, whose row is complete
                k, t = np.nonzero(ck.shared[b] >= 0)
                ids[k * p + t] = adj[parent[i0 + k], ck.shared[b[k], t]]
            ask = np.flatnonzero(ids < 0)
            ask = ask[present(h[ask])]
            q, found = _probe(h[ask], table, table_ids, repeats)
            q = ask[q]
            same = (keys_at(i0 * p + q) == keys[found]).all(axis=1)
            q, found = q[same], found[same]
            ids[q] = found
            adj[frontier[i0:i0 + chunk]] = ids.reshape(-1, p)
            c = dist[found] < 0                  # chain cells reached
            for x, cell in zip((i0 * p + q[c]).tolist(), found[c].tolist()):
                reached[cell] = min(x, reached.get(cell, x))
            if level < radius:
                miss = np.flatnonzero(ids < 0)
                miss_x.append(i0 * p + miss)
                miss_h.append(h[miss])
        n0 = n
        new_x = np.zeros(0, dtype=np.int64)
        if miss_x:
            # misses that are one cell take the id of its first occurrence.
            # Each member of a run of equal hashes is taken to be the cell
            # at the run's least index, and its full key is checked against
            # the key stored for that cell; only if a run holds two cells is
            # every pair of equal hashes checked.  Each array is freed once
            # used up, the last ones when the new cells are in the table,
            # before the next level's candidate pass.
            mx, mh = np.concatenate(miss_x), np.concatenate(miss_h)
            del miss_x, miss_h
            order = np.argsort(mh)
            sorted_h = mh[order]
            q, e = _run_pairs(order, np.flatnonzero(
                sorted_h[1:] == sorted_h[:-1]) + 1)
            exact = False
            while True:
                first = np.arange(mx.size)
                np.minimum.at(first, q, e)
                fresh = first == np.arange(mx.size)
                new_x = mx[fresh]
                new_id = n0 - 1 + np.cumsum(fresh, dtype=np.int32)
                keys = _extend(keys[:n0], new_x.size, 0)
                for j in range(0, new_x.size, chunk):
                    x = new_x[j:j + chunk]
                    keys[n0 + j:n0 + j + x.size] = keys_at(x)
                if exact or (keys_at(mx[q]) == keys[new_id[e]]).all():
                    break
                q, e = _probe(mh, sorted_h, order, True)
                q, e = q[e < q], e[e < q]
                same = (keys_at(mx[q]) == keys_at(mx[e])).all(axis=1)
                q, e, exact = q[same], e[same], True
            del sorted_h, q, e
            n = n0 + new_x.size
            adj[frontier[mx // p], mx % p] = new_id[first]
            del mx, first
            adj, dist = (_extend(v, new_x.size, -1) for v in (adj, dist))
            placed_from.append(frontier[new_x // p])
            placed_side.append((new_x % p).astype(np.int8))
            order = order[fresh[order]]          # the new cells by hash
            new_h, new_id = mh[order], new_id[order]
            del mh, fresh, order
            at = np.searchsorted(table, new_h)
            repeats = repeats or bool(
                (table[np.minimum(at, table.size - 1)] == new_h).any()
                or (new_h[1:] == new_h[:-1]).any())
            table, table_ids = _merge(table, table_ids, new_h, new_id, at)
            present.add(new_h, table)
            del new_h, new_id, at
        # the next level: new cells and chain cells reached for the first
        # time, in order of first occurrence.  A new cell's grandparent is
        # par[rows] @ T[sa] at its parent, stored once per run of parents
        # that share it; a chain grandparent keeps its row.
        k = new_x // p
        g_row, g_step = rows[k], sa[k]
        run = g_step < p
        run[1:] &= (g_row[1:] != g_row[:-1]) | (g_step[1:] != g_step[:-1])
        g_row = np.where(g_step < p,
                         n_chain - 1 + np.cumsum(run, dtype=np.int32), g_row)
        src, g_step = rows[k[run]], g_step[run]
        grand = np.empty((n_chain + src.size, m, m), dtype=np.int64)
        grand[:n_chain] = q_chain
        for j in range(0, src.size, chunk):
            np.matmul(par[src[j:j + chunk]], ck.steps[g_step[j:j + chunk]],
                      out=grand[n_chain + j:n_chain + j + chunk])
        par = grand
        # a candidate is a miss or a hit, so the new cells' and the chain
        # cells' first occurrences are distinct and one sort orders them
        chain_ids = np.array(list(reached), dtype=np.int32)
        order = np.argsort(np.concatenate(
            [new_x, np.array(list(reached.values()), dtype=np.int64)]),
            kind="stable")
        none = np.full(chain_ids.size, p, dtype=np.int8)
        rows, sa, sb, parent = (np.concatenate(v)[order] for v in (
            (g_row, chain_ids), (sb[k], none),
            ((new_x % p).astype(np.int8), none),
            (frontier[k], np.full(chain_ids.size, -1, dtype=np.int32))))
        frontier = np.concatenate([np.arange(n0, n, dtype=np.int32),
                                   chain_ids])[order]
        dist[frontier] = level + 1
        level += 1

    # guideline arrays run left to right; chain ids are permuted relative
    # to that order because the central cell is id 0
    order = np.argsort(chain_at).astype(np.int32)
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
    """Every cell's placement: the chain's by the walk build_region makes
    over the keys, then each later cell's as its parent's times the step
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
    return (read("grid", exactly(str)), read("radius", exactly(int)),
            read("halfwidth", exactly(int)))


def region_from_json(text: str) -> Region:
    return build_region(*read_region_file(text))
