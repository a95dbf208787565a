"""Per-rule references for the array code of `hypca.symmetry` and
`hypca.embed`.

`check_rotation_invariance` groups (context, next state) pairs by
`minimal_form`, one rotation at a time; `orbit_conflicts`, which groups
a `RuleArrays` with `orbits` and reports the groups whose next states
disagree, must report the same groups, in the same order.  `pack` codes
such pairs as a `RuleArrays` and `unpack` reads one back, both at a
given base and arity, an automaton's from `coding`; `contexts` lists the
pairs' states as arrays.  `orbits` keys each context by a matrix product
over every rotation, its least lexicographic re-reading, as the package
did before `embed.context_table` found each context's least code in its
own enumeration; the partition by `ContextTable.least` must be the same,
and `embed.check_invariance` must report `orbit_conflicts`' groups,
though it orders them by least code.
`match_alignments` tries the pattern under every rotated alignment of
one context, a shift count on the polygonal grids or a face permutation
on the dodecagrid, one slot at a time by `slot_accepts`;
`HcaAutomaton.readings` and the compiled `RuleTable` must give the same
readings and next states.  `value_at` reads one position of a
`ca1d.Tape`, for the per-position references of the 1D run and the
oracle check.
`compile_rules_reference` enumerates one automaton's pattern and
tabulates its readings and its least and greatest next states in one
pass, as the package did before the contexts were kept per construction,
as a `ReferenceTable`; `embed.compile_rules` must give the same codes,
readings and least next states, and the verdicts those imply, and
`expanded_rules_reference` the same rules.
`frozen_rim_run` steps a configuration past the validity budget and
through ambiguous contexts, as the verify scan does.  `encode` codes
contexts one digit at a time; `ContextTable.encode` must give the same
codes.  `lookup` finds their rows in a dict of the table's codes;
`ContextTable.lookup` must give the same rows, and `decode_codes` splits
codes back into own and neighbour states, which the package, where a
context is its code, never does; `decode` splits a table's codes.
`compose`, `inverse` and `is_adjacency_automorphism` check the rotation
group of the dodecahedron, and `motions_by_face_pairs` lists it by
`complete_motion` for each ordered pair of adjacent faces, as the
package did before `symmetry.all_motions` built it by closure.
`symbolic_rows` walks a breadth-first ball around the centre and names
its cells, tape cells by `letter_name`, for the table goldens
`table2_pentagrid.txt` and `table3_heptagrid.txt`; `canonical` turns
each row's neighbours to their least re-reading.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from hypca import ca1d, embed, engine
from hypca import symmetry as sym
from hypca.symmetry import FACE_RINGS, Motion, all_motions


def compose(a: Motion, b: Motion) -> Motion:
    """a after b: (a . b)(i) = a[b[i]]."""
    return tuple(a[b[i]] for i in range(12))


def inverse(a: Motion) -> Motion:
    inv = [0] * 12
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def motions_by_face_pairs() -> tuple[Motion, ...]:
    """All 60 rotations, one per (face 0 image, face 1 image) pair,
    identity first, then ascending."""
    out = [sym.complete_motion(f0, f1)
           for f0 in range(12) for f1 in FACE_RINGS[f0]]
    ident = tuple(range(12))
    out.sort(key=lambda m: (m != ident, m))
    return tuple(out)


def is_adjacency_automorphism(m: Motion) -> bool:
    """Does m preserve face adjacency with clockwise ring order?"""
    if sorted(m) != list(range(12)):
        return False
    for f in range(12):
        image = tuple(m[x] for x in FACE_RINGS[f])
        ring = FACE_RINGS[m[f]]
        if set(image) != set(ring):
            return False
        k = ring.index(image[0])
        if ring[k:] + ring[:k] != image:
            return False
    return True


@dataclass(frozen=True)
class RuleContext:
    """The neighbourhood a transition rule reads: the cell's own state plus
    the states of its neighbours in side (or face) order."""

    self_state: int
    neighbor_states: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "neighbor_states", tuple(self.neighbor_states))
        if len(self.neighbor_states) not in (5, 7, 12):
            raise ValueError(f"unsupported arity {len(self.neighbor_states)}")


def rotated_context(ctx: RuleContext, motion) -> RuleContext:
    """Re-read a context after rotating the cell.

    For 5 or 7 neighbours `motion` is a cyclic shift count; for 12 it is a
    Motion tuple.
    """
    nb = ctx.neighbor_states
    if len(nb) == 12:
        if not isinstance(motion, tuple) or len(motion) != 12:
            raise ValueError("a 12-neighbour context needs a face permutation")
        return RuleContext(ctx.self_state,
                           tuple(nb[motion[i]] for i in range(12)))
    if isinstance(motion, tuple):
        raise ValueError("a cyclic context needs a shift count")
    p = len(nb)
    k = motion % p
    return RuleContext(ctx.self_state, tuple(nb[(i + k) % p] for i in range(p)))


def context_orbit(ctx: RuleContext) -> list[RuleContext]:
    """All distinct re-readings of a context under the cell's rotations."""
    if len(ctx.neighbor_states) == 12:
        motions: Sequence = all_motions()
    else:
        motions = range(len(ctx.neighbor_states))
    seen = []
    for m in motions:
        r = rotated_context(ctx, m)
        if r not in seen:
            seen.append(r)
    return seen


def minimal_form(ctx: RuleContext,
                 state_order: Sequence[int] | None = None) -> RuleContext:
    """The least re-reading of `ctx` over the cell's rotations.

    `state_order` lists the states from smallest to largest; by default the
    numeric values compare directly.  The result is the same for every
    context in a rotation orbit.
    """
    if state_order is None:
        def rank(s: int) -> int:
            return s
    else:
        ranks = {s: i for i, s in enumerate(state_order)}
        if len(ranks) != len(tuple(state_order)):
            raise ValueError("state_order must not repeat states")

        def rank(s: int) -> int:
            return ranks[s]

    def key(c: RuleContext) -> tuple:
        return (rank(c.self_state), tuple(rank(s) for s in c.neighbor_states))

    return min(context_orbit(ctx), key=key)


def check_rotation_invariance(
    rules: Iterable[tuple[RuleContext, int]],
    state_order: Sequence[int] | None = None,
) -> list[list[tuple[RuleContext, int]]]:
    """Group rules by context orbit and report the groups whose outcomes
    disagree.

    `rules` yields (context, new_state) pairs.  Each reported group lists
    the offending rules themselves; an empty list means the rule set is
    rotation invariant.
    """
    groups: dict[tuple, list[tuple[RuleContext, int]]] = {}
    for ctx, new_state in rules:
        m = minimal_form(ctx, state_order)
        key = (m.self_state, m.neighbor_states)
        groups.setdefault(key, []).append((ctx, new_state))
    conflicts = []
    for key in sorted(groups):
        members = groups[key]
        if len({out for _, out in members}) > 1:
            conflicts.append(members)
    return conflicts


def contexts(rules: Iterable[tuple[RuleContext, int]]
             ) -> tuple[np.ndarray, np.ndarray]:
    """(own states, (N, arity) neighbour states) of (context, next state)
    pairs, as int64 arrays in the same order."""
    rules = list(rules)
    return (np.array([ctx.self_state for ctx, _ in rules], dtype=np.int64),
            np.array([ctx.neighbor_states for ctx, _ in rules],
                     dtype=np.int64))


def coding(automaton: embed.HcaAutomaton) -> tuple[int, int]:
    """The base and arity of an automaton's context codes."""
    return automaton.n_states, len(automaton.pattern.slots)


def pack(rules: Iterable[tuple[RuleContext, int]], base: int, arity: int
         ) -> sym.RuleArrays:
    """(context, next state) pairs as a `RuleArrays`, in the same order:
    each context coded s*B**p + sum(n_i * B**i), one digit at a time."""
    sym.require_codes_fit(base, arity)
    rules = list(rules)
    selfs, nbs = contexts(rules)
    codes = selfs.copy()
    for i in range(arity - 1, -1, -1):
        codes *= base
        codes += nbs[:, i]
    return sym.RuleArrays(
        codes, np.array([out for _, out in rules], dtype=np.int64))


def unpack(rules: sym.RuleArrays, base: int, arity: int
           ) -> list[tuple[RuleContext, int]]:
    """A `RuleArrays` as (context, next state) pairs of Python ints, its
    codes split into digits at the given base and arity."""
    selfs, nbs = decode_codes(rules.codes, base, arity)
    return [(RuleContext(s, tuple(nb)), out)
            for s, nb, out in zip(selfs.tolist(), nbs.tolist(),
                                  rules.outs.tolist())]


# rules keyed at once by `orbits`.  The chunk's (|G|, chunk) key matrix
# stays under half a megabyte on the dodecagrid, and OpenBLAS runs a
# (60 x 12) by (12 x 1,024) float product on one thread; at 2,048 columns
# it already starts a second one, so the chunk stays at 1,024 rules or
# fewer.
_ORBIT_CHUNK = 1024


def orbits(selfs: np.ndarray, nbs: np.ndarray) -> list[np.ndarray]:
    """Group contexts, own states `selfs` and neighbour states `nbs`, by
    the rotation orbit of each: the indices of each orbit's contexts in
    input order, the orbits in ascending order of key.

    Each context is coded with the cell's own state as the most
    significant digit and side 0 next, so that comparing codes compares
    (self, neighbours) lexicographically; the least code over the
    rotations is the orbit key.  Rotation g reads side rows[g, i] at digit
    i, rows being `rotation_indices(p)`, so side j lands at digit
    pos[g, j], pos[g] the inverse of rows[g]; the neighbour part of every
    rotated code is then one (rotations x contexts) product `W @ nbs.T`
    per chunk of contexts, with W[g, j] = base ** (p - 1 - pos[g, j]), and
    the key is its least entry per column.  Every neighbour part is below
    base ** p, so when base ** p <= 2 ** 53 each term and partial sum is
    an integer that float64 holds exactly, in any summation order, and
    the product runs in float64 on BLAS.  Larger bases take the int64
    product, exact because `require_codes_fit` keeps every code below
    2**63.  The own-state digit is added in int64.
    """
    if not len(selfs):
        return []
    arity = nbs.shape[1]
    base = int(max(selfs.max(), nbs.max())) + 1
    sym.require_codes_fit(base, arity)
    pos = np.argsort(sym.rotation_indices(arity), axis=1)
    weight = base ** (arity - 1 - pos).astype(np.int64)
    if base ** arity <= 2 ** 53:
        weight = weight.astype(np.float64)
    nbs = nbs.T
    keys = np.empty(len(selfs), dtype=np.int64)
    for lo in range(0, len(selfs), _ORBIT_CHUNK):
        chunk = weight @ nbs[:, lo:lo + _ORBIT_CHUNK].astype(weight.dtype,
                                                          copy=False)
        keys[lo:lo + chunk.shape[1]] = chunk.min(axis=0)
    keys += selfs * base ** arity
    order = np.argsort(keys, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)


def orbit_conflicts(rules: sym.RuleArrays, base: int, arity: int
                    ) -> list[sym.RuleArrays]:
    """Group rules, their codes at the given base and arity, by the
    rotation orbit of their contexts, as `orbits` does, and report the
    groups whose next states disagree, each its rules in input order; an
    empty list means the rule set is rotation invariant."""
    groups = orbits(*decode_codes(rules.codes, base, arity))
    return [sym.RuleArrays(rules.codes[g], rules.outs[g]) for g in groups
            if len(set(rules.outs[g].tolist())) > 1]


def orbit_conflict_pairs(rules: Sequence[tuple[RuleContext, int]]
                         ) -> list[list[tuple[RuleContext, int]]]:
    """`orbit_conflicts` on pairs, coded at the least base their states
    admit, its groups read back as pairs, for comparison with
    `check_rotation_invariance`."""
    selfs, nbs = contexts(rules)
    at = int(max(selfs.max(), nbs.max())) + 1, nbs.shape[1]
    return [unpack(g, *at) for g in orbit_conflicts(pack(rules, *at), *at)]


def alignments(automaton: embed.HcaAutomaton):
    """All rotated readings the matcher tries: shift counts for the
    polygonal grids, face permutations for the dodecagrid."""
    p = embed.GRID_SIDES[automaton.grid]
    if p == 12:
        return all_motions()
    return range(p)


def read_aligned(neighbors, alignment, i: int) -> int:
    """The neighbour a pattern slot i sees under an alignment."""
    if isinstance(alignment, tuple):
        return neighbors[alignment[i]]
    return neighbors[(i + alignment) % len(neighbors)]


def slot_accepts(slot: embed.Slot, value: int,
                 letters: frozenset[int]) -> bool:
    """A fixed slot accepts its state, every other slot any letter."""
    if slot.kind == "fixed":
        return value == slot.state
    return value in letters


def value_at(tape: ca1d.Tape, position: int) -> int:
    """The state at one position of the tape, padding off its window."""
    if tape.start <= position < tape.end:
        return tape.cells[position - tape.start]
    return tape.padding


def match_alignments(automaton: embed.HcaAutomaton, self_state: int,
                     neighbors) -> list[tuple[int, int]]:
    """All (left, right) readings under which the pattern matches.

    Duplicates are collapsed; a context is admissible when exactly one
    reading remains.
    """
    if self_state not in automaton.letters:
        return []
    pat = automaton.pattern
    letters = automaton.letters
    found: list[tuple[int, int]] = []
    for al in alignments(automaton):
        for i, slot in enumerate(pat.slots):
            if not slot_accepts(slot, read_aligned(neighbors, al, i),
                                letters):
                break
        else:
            lr = (read_aligned(neighbors, al, pat.left_index),
                  read_aligned(neighbors, al, pat.right_index))
            if lr not in found:
                found.append(lr)
    return found


def reading_outcomes(automaton: embed.HcaAutomaton, self_state: int,
                     neighbors) -> tuple[list[tuple[int, int]], list[int]]:
    """`match_alignments`' readings and the sorted next states they give:
    each reading run through the source rule."""
    readings = match_alignments(automaton, self_state, neighbors)
    outs = {automaton.action.apply(l, self_state, r) for l, r in readings}
    return readings, sorted(outs)


def encode(table: embed.ContextTable, states: np.ndarray,
           adjacency: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Context codes of `cells`, one base-`table.base` digit at a time:
    the own state first, then the neighbours from the last side down."""
    code = states[cells].astype(np.int64)
    for i in range(table.arity - 1, -1, -1):
        code *= table.base
        code += states[adjacency[cells, i]]
    return code


def lookup(table: embed.ContextTable, codes: np.ndarray) -> np.ndarray:
    """Table row of each code, -1 where the context has no reading, from
    a dict of the table's codes: it shares only the table's arrays with
    `ContextTable.lookup`."""
    row = {code: k for k, code in enumerate(table.codes.tolist())}
    return np.array([row.get(code, -1) for code in codes.tolist()],
                    dtype=np.intp)


def decode_codes(codes: np.ndarray, base: int, arity: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(self states, (len, arity) neighbour states) of context codes.

    The digits are taken one row at a time, least significant first; the
    neighbour states come back as a transposed view of the rows."""
    digits = np.empty((arity + 1, len(codes)), dtype=np.int64)
    rest = codes.astype(np.int64)
    for row in digits[:-1]:
        np.divmod(rest, base, out=(rest, row))
    digits[-1] = rest
    return digits[-1], digits[:-1].T


def decode(table: embed.ContextTable | ReferenceTable, codes: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """(self states, (len, arity) neighbour states) of a table's context
    codes."""
    return decode_codes(codes, table.base, table.arity)


def frozen_rim_run(automaton: embed.HcaAutomaton, region,
                   states: np.ndarray, steps: int) -> list[np.ndarray]:
    """The states at times 0..steps, every complete cell stepping by the
    rule table and every other cell frozen.  Unlike `engine.run_hca` it
    has no validity budget, and a cell whose readings disagree keeps its
    state instead of raising.  Contexts are coded by `encode` and looked
    up by `lookup`."""
    table = automaton.rule_table
    ctx = table.context
    cells = np.flatnonzero(~(region.adjacency < 0).any(axis=1))
    out = [states.copy()]
    for _ in range(steps):
        s = out[-1].copy()
        at = lookup(ctx, encode(ctx, s, region.adjacency, cells))
        lo = table.lo[at]
        moved = np.flatnonzero((at >= 0) & ~table.split[at]
                               & (lo != s[cells]))
        s[cells[moved]] = lo[moved]
        out.append(s)
    return out


@dataclass(frozen=True, eq=False)
class ReferenceTable:
    """Every context an automaton's pattern matches, as ascending codes,
    with its distinct readings and the least and greatest next state
    they give."""

    base: int
    arity: int
    codes: np.ndarray
    readings: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def compile_rules_reference(automaton: embed.HcaAutomaton
                            ) -> ReferenceTable:
    """Enumerate the pattern over every alignment, self letter and letter
    assignment to its free slots, and tabulate the readings per context,
    the next states with them, for this automaton alone.

    An alignment carries slot i to neighbour `rotation_indices(p)[g, i]`.
    The reading (left, right) is the pair of letters put in the left and
    right slots, whatever the alignment, so one context's readings are
    the distinct pairs among the (alignment, assignment) entries that
    produce its code.
    """
    pat = automaton.pattern
    p = len(pat.slots)
    base = automaton.n_states
    sym.require_codes_fit(base, p)
    letters = np.array(sorted(automaton.letters), dtype=np.int64)
    pinned = [s.state for s in pat.slots if s.kind == "fixed"]
    if not len(letters):
        raise ValueError("the automaton has no letters")
    if any(not 0 <= int(v) < base for v in [*letters, *pinned]):
        raise ValueError(f"pattern states must lie in 0..{base - 1}")
    free = pat.free_indices()
    n = len(letters)

    # letter indices of (self, free slots...) for every assignment
    pick = np.indices((n,) * (len(free) + 1)).reshape(len(free) + 1, -1)
    left = pick[1 + free.index(pat.left_index)]
    right = pick[1 + free.index(pat.right_index)]
    out = automaton.action.table[letters[left], letters[pick[0]],
                                 letters[right]]

    # one row per alignment, one column per assignment
    weight = base ** sym.rotation_indices(p).astype(np.int64)
    codes = np.zeros((len(weight), pick.shape[1]), dtype=np.int64)
    codes += letters[pick[0]] * base ** p
    for i, slot in enumerate(pat.slots):
        if slot.kind == "fixed":
            codes += weight[:, i, None] * slot.state
    for j, i in enumerate(free):
        codes += weight[:, i, None] * letters[pick[1 + j]]
    codes = codes.ravel()
    reading = np.broadcast_to(left * n + right, (len(weight), pick.shape[1]))
    out = np.broadcast_to(out, reading.shape).ravel()
    reading = reading.ravel()

    order = np.lexsort((reading, codes))
    codes, reading, out = codes[order], reading[order], out[order]
    new_code = np.r_[True, codes[1:] != codes[:-1]]
    distinct = new_code | np.r_[True, reading[1:] != reading[:-1]]
    codes, out, new_code = codes[distinct], out[distinct], new_code[distinct]
    starts = np.flatnonzero(new_code)
    return ReferenceTable(
        base=base, arity=p, codes=codes[starts],
        readings=np.diff(np.r_[starts, len(codes)]),
        lo=np.minimum.reduceat(out, starts),
        hi=np.maximum.reduceat(out, starts))


def expanded_rules_reference(automaton: embed.HcaAutomaton
                             ) -> sym.RuleArrays:
    """The single-reading contexts of `compile_rules_reference`'s table
    as rules, in code order."""
    table = compile_rules_reference(automaton)
    single = table.readings == 1
    return sym.RuleArrays(table.codes[single], table.lo[single])


def canonical(values) -> tuple:
    """The lexicographically least re-reading of a side-indexed sequence
    over the cell's rotations, the rows of `rotation_indices`."""
    return min(tuple(values[i] for i in row)
               for row in sym.rotation_indices(len(values)).tolist())


def letter_name(offset: int) -> str:
    """The symbolic name of the tape cell at `offset` from the centre:
    X, Y, Z for the left, central and right cells, U and T one further
    out, Y-3 or Y+3 beyond."""
    fixed_names = {-2: "U", -1: "X", 0: "Y", 1: "Z", 2: "T"}
    return fixed_names.get(offset, f"Y{offset:+d}")


def symbolic_rows(automaton: embed.HcaAutomaton, region,
                  max_dist: int = 2) -> list[str]:
    """Canonical context rows around the centre with letters named by tape
    position, for table regression.

    Each cell within `max_dist` steps of the central cell contributes
    'self | n1 .. nk' with the neighbour list rotated to its least form,
    so the rows do not depend on generated side numbering.  A tape cell
    is named by its position; any other cell by its initial state: W the
    padding, b the added state, B any other.
    """
    cfg = engine.init_configuration(
        region, automaton, [automaton.padding_state])
    states = cfg.states
    gl = region.guideline
    pos_of = {int(c): int(p) for c, p in zip(gl.cell_ids, gl.positions)}

    def name_of(cell: int) -> str:
        if cell in pos_of:
            return letter_name(pos_of[cell])
        s = int(states[cell])
        if automaton.blue is not None and s == automaton.blue:
            return "b"
        return "W" if s == automaton.padding_state else "B"

    # breadth-first ball around the centre
    ball = {0}
    frontier = [0]
    for _ in range(max_dist):
        nxt = []
        for c in frontier:
            for d in region.adjacency[c]:
                if d >= 0 and int(d) not in ball:
                    ball.add(int(d))
                    nxt.append(int(d))
        frontier = nxt
    rows = set()
    for c in sorted(ball & set(region.complete_cells.tolist())):
        nb = [name_of(int(d)) for d in region.adjacency[c]]
        rows.add(f"{name_of(c)} | " + " ".join(canonical(nb)))
    return sorted(rows)
