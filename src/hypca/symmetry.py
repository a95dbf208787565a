"""Rotation groups of the supported cells, as pure face combinatorics.

For the polygonal grids the rotation group of a cell is the cyclic group on
its p sides.  For the right-angled dodecahedron it is the rotation group of
the dodecahedron, 60 elements, each represented as a permutation of the face
numbers 0..11, found as the closure of two of them under composition.

A motion is stored as a tuple ``m`` of 12 face numbers with ``m[i]`` the face
onto which face ``i`` is carried.

`TAPE_SLOTS` names, per grid, the sides of a tape cell that the
constructions read: the one table that `automaton`'s patterns, the
region's chain labels and `Region.marker_cell_ids` share.  It sits here,
with the other face combinatorics that `automaton` and `region` both
read, so that building a pattern needs no region; and numpy is imported
only by the functions that make arrays, so that it needs no numpy.

A cell's rotations have one form in use, `rotation_indices`: one index row
per rotation, re-reading a side-indexed array.  `embed.context_table` lays
the pattern out under each row.  On the dodecagrid the rows are
`all_motions`.

The rotation-invariance check, `embed.check_invariance`, works on a
`RuleArrays`, a rule set held as int64 arrays of context codes and next
states.  `embed.context_table` points each single-reading context at the
least code over its rotations, found in its own enumeration, whose
column of one letter assignment is that context's whole orbit; the check
compares each rule's next state with that of its orbit's least rule.  A
keying by matrix product over every rotation, which takes the least
lexicographic re-reading, and a per-rule version, which groups
(context, next state) pairs by their least re-reading one rotation at a
time, are kept in `tests/symmetry_reference.py` as references.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Faces around each face, in clockwise order as seen from outside the
# dodecahedron.  Face 0 is the bottom, faces 1..5 the lower belt, 6..10 the
# upper belt (face i touching faces i-5 and i-4 of the lower belt), 11 the
# top.
FACE_RINGS: tuple[tuple[int, int, int, int, int], ...] = (
    (1, 5, 4, 3, 2),
    (0, 2, 7, 6, 5),
    (0, 3, 8, 7, 1),
    (0, 4, 9, 8, 2),
    (0, 5, 10, 9, 3),
    (0, 1, 6, 10, 4),
    (1, 7, 11, 10, 5),
    (1, 2, 8, 11, 6),
    (2, 3, 9, 11, 7),
    (3, 4, 10, 11, 8),
    (4, 5, 6, 11, 9),
    (6, 7, 8, 9, 10),
)

Motion = tuple[int, ...]


@dataclass(frozen=True)
class TapeSlots:
    """The sides of a tape cell that the constructions read: its left and
    right tape neighbours, the reflected row's cell (dodecagrid only) and
    the paper's markers for the compact construction.  On the polygonal
    grids each is an offset from the cell's left side, on the dodecagrid
    a face of the renumbered chain cell; either way it is also the index
    of the pattern slot that reads the side
    (`Region.marker_cell_ids`)."""
    left: int
    right: int
    markers: tuple[int, ...]
    mirror: int | None = None


TAPE_SLOTS = {
    "pentagrid": TapeSlots(left=0, right=3, markers=(1,)),
    "heptagrid": TapeSlots(left=0, right=4, markers=(1, 3)),
    "dodecagrid": TapeSlots(left=1, right=4, markers=(0, 3, 9, 10), mirror=0),
}


def _ring_from(face: int, start: int) -> tuple[int, ...]:
    ring = FACE_RINGS[face]
    k = ring.index(start)
    return tuple(ring[(k + j) % 5] for j in range(5))


def complete_motion(f0: int, f1: int) -> Motion:
    """The unique rotation carrying face 0 onto f0 and face 1 onto f1.

    f1 must be adjacent to f0.  The permutation is completed by matching the
    ring of a face, anchored at one already-determined neighbour, against the
    ring of its image.
    """
    if f1 not in FACE_RINGS[f0]:
        raise ValueError(f"faces {f0} and {f1} are not adjacent")
    mu: dict[int, int] = {0: f0, 1: f1}
    for anchor in (1, 5, 7, 8):
        known = [f for f in FACE_RINGS[anchor] if f in mu]
        src = _ring_from(anchor, known[0])
        dst = _ring_from(mu[anchor], mu[known[0]])
        for s, d in zip(src, dst):
            if s in mu:
                if mu[s] != d:
                    raise AssertionError("inconsistent ring alignment")
            else:
                mu[s] = d
    return tuple(mu[i] for i in range(12))


@lru_cache(maxsize=1)
def all_motions() -> tuple[Motion, ...]:
    """All 60 rotations, identity first, then ascending: the closure under
    composition of the fifth turns about face 0 and about face 1."""
    turns = (complete_motion(0, 5), complete_motion(2, 1))
    ident = tuple(range(12))
    found = new = {ident}
    while new:
        new = {tuple(t[i] for i in m) for m in new for t in turns} - found
        found = found | new
    return tuple(sorted(found, key=lambda m: (m != ident, m)))


@lru_cache(maxsize=None)
def rotation_indices(arity: int) -> np.ndarray:
    """Every rotation of a cell as an index array, identity first.

    Row g holds, for each side (or face) i, the side whose state the
    rotated cell reads at i: `values[rows[g]]` re-reads a side-indexed
    array under the g-th shift, or under the g-th motion, whose face i
    reads face m[i].  The array is built once per arity and shared by
    every caller, so it is read-only.
    """
    import numpy as np

    if arity == 12:
        rows = np.array(all_motions(), dtype=np.intp)
    else:
        k = np.arange(arity)
        rows = (k[:, None] + k[None, :]) % arity
    rows.setflags(write=False)
    return rows


def require_codes_fit(n_states: int, arity: int) -> None:
    """Refuse a state count whose context codes overflow int64.

    A context is coded as a number with arity + 1 digits in base n_states,
    so n_states ** (arity + 1) must not exceed 2 ** 63.
    """
    if n_states ** (arity + 1) > 2 ** 63:
        raise ValueError(
            f"context codes overflow int64: {n_states} states at arity "
            f"{arity} need {n_states}**{arity + 1} codes, more than the "
            f"limit n_states**(arity + 1) <= 2**63")


@dataclass(frozen=True, eq=False)
class RuleArrays:
    """A rule set as arrays: rule k reads the context of code `codes[k]`
    and gives next state `outs[k]`."""

    codes: np.ndarray       # (N,) int64
    outs: np.ndarray        # (N,) int64

    def __len__(self) -> int:
        return len(self.outs)


def motions_table_text() -> str:
    """All 60 rotations as lines 'f0 f1 : images of faces 0..11'."""
    lines = []
    for m in all_motions():
        imgs = " ".join(f"{x:2d}" for x in m)
        lines.append(f"{m[0]:2d} {m[1]:2d} : {imgs}")
    return "\n".join(lines) + "\n"
