"""The tables a tiling automaton runs by, and the scan that verifies it.

The automaton, its two constructions and its file are `hypca.automaton`'s,
which needs no numpy; this module names them too, so that
`embed.embed_compact` and the rest still work.

Every context a construction's pattern matches is coded as one int64.
The contexts and their readings depend on the construction alone, its
pattern and state counts, not on the source rule, so `context_table`
enumerates them once per construction and keeps them, with the letter
assignment behind each reading, in a cache bounded by bytes.  That
`ContextTable` is the construction's one code space: it codes a set of
cells with one gather of the states at their rows of the region's
`complete_contexts` and one int64 product with the digit weights, and
looks a code up with one gather of its dense row index where the code
space has at most 2**16 codes, and by a sorted search where it has more.
The enumeration is one int64 product of each alignment's weights with
each assignment's slot states.  `compile_rules` turns an automaton into
a `RuleTable`, which holds only what the action decides: one gather of
the action at the construction's assignments gives each code's least
next state and its verdicts.  A context is its code throughout: no
code in the package decodes one.
`TableRun` steps a configuration by the table, for the engine and the
unique-applicability scan alike, and `expanded_rules` lists its
single-reading codes as explicit rules, held as the table's arrays,
so the invariance checker can say independently that matching is
rotation invariant.  A column of the enumeration, one letter assignment
under every alignment, is a context's whole orbit, so its least code is
the least code of every context in it; the construction keeps, for each
single-reading code, the index of that least code among the
single-reading codes, and an automaton's check is one gather of its next
states at those indices, compared with its own.  Error
messages spell out a context's readings with `HcaAutomaton.readings`,
read off the same table: the table is the one matcher.

Rotation invariance holds by construction, for any pattern and any
action.  `context_table` enumerates every alignment, and the alignments
that match a rotated context g.c are those that match c, composed with
g.  So c and g.c have the same readings, and so the same next state:
`check_invariance` finds no conflict for any compiled automaton whenever
`rotation_indices(p)` is a group, which the tests check for p = 5, 7 and
12; `hypca verify` states it rather than checking it.  The enumeration
tests one consequence of that hypothesis, not the hypothesis itself: it
refuses a rotation set under which the least code of a single-reading
context's column, the least of its rotations, has several readings.
Under a group a column holds rotations of one context, which read
alike, so this cannot happen; a set that is no group may still pass.

A `TableRun` step costs in proportion to the cells it changes, not to
the region: it carries each complete cell's table row and codes again
only the closed neighbourhoods of changed cells, found with one gather
of the region's `complete_index` at their context rows.  The scan codes
each table row's verdicts once as bits, and after a step that coded any
cell recounts every verdict with one gather of those bits by the carried
rows; past a fixed point it codes nothing and repeats that time's counts
and violation lines.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import symmetry as sym
# the automaton, its constructions and its file live in `automaton`, so
# that making one loads no numpy; they are named here too
from .automaton import (FREE_LETTER, GRID_SIDES, LEFT, RIGHT,
                        ContextPattern, HcaAutomaton, NotFixable, Slot,
                        automaton_from_json, automaton_to_json,
                        embed_compact, embed_extra_state, fixed)

if TYPE_CHECKING:
    from .region import Region


@dataclass(frozen=True, eq=False)
class RuleTable:
    """An automaton's next states over its construction's contexts.

    `context` is the construction's `ContextTable`, which codes contexts
    and looks them up: row k here is its code k.  Per row the table holds
    the least next state the code's readings give, and two read-only
    verdicts, which a row alone gives since a code's leading digit is the
    cell's own state.  A code that is absent has no reading, so the cell
    keeps its state: row -1, each verdict's last entry, reads False.
    """

    context: ContextTable
    lo: np.ndarray          # (M,) least next state over the readings
    moves: np.ndarray       # (M + 1,) readings agree, on a new state
    split: np.ndarray       # (M + 1,) readings disagree


class TableRun:
    """A rule table stepping `states` in place on a region: the one
    stepper behind `engine.run_hca` and `verify_unique_applicability`.

    Only `cells`, the region's `complete_cells`, step; each carries its
    table row in `rows` (-1 for none), all looked up once at the start
    from the region's `complete_contexts`.  A step moves the cells whose
    rows `RuleTable.moves`, then codes again only the complete cells in
    the closed neighbourhood of a moved cell, since no other context can
    change; this needs the adjacency to be symmetric.  A moved cell's
    context row holds that neighbourhood, itself included, so one gather
    of the region's `complete_index` at the movers' rows finds it as
    indices into `cells`, made distinct and ascending by one boolean
    mark over `cells`.  Every cell not coded again keeps a row that did
    not move it, so the next movers are among those coded again.

    The states must be one per region cell, each in 0..n-1 for the
    construction's n states, which its codes and its row index assume;
    others are refused with a ValueError naming the first cell that holds
    one.
    """

    def __init__(self, table: RuleTable, region: Region,
                 states: np.ndarray) -> None:
        ctx = table.context
        if states.shape != (region.n_cells,):
            raise ValueError(f"{len(states)} states for a region of "
                             f"{region.n_cells} cells")
        if not 0 <= states.min() <= states.max() < ctx.base:
            c = int(np.flatnonzero((states < 0) | (states >= ctx.base))[0])
            raise ValueError(f"cell {c} holds state {int(states[c])}, "
                             f"outside 0..{ctx.base - 1}")
        self.table, self.context_table, self.states = table, ctx, states
        self.cells = region.complete_cells
        self.contexts = region.complete_contexts
        self.index = region.complete_index
        self.rows = ctx.lookup(ctx.encode(states, self.contexts))
        self._movers = table.moves.take(self.rows).nonzero()[0]

    def step(self) -> np.ndarray:
        """One synchronous update.  Returns the indices into `cells` of
        the cells coded again, ascending: none at a fixed point, which
        codes nothing."""
        movers, table, ctx = self._movers, self.table, self.context_table
        if not len(movers):
            return movers
        self.states.put(self.cells[movers], table.lo.take(self.rows[movers]))
        # the last entry takes the -1 of every neighbour that is not
        # complete
        near = np.zeros(len(self.cells) + 1, dtype=bool)
        near.put(self.index.take(self.contexts.take(movers, axis=0)), True)
        j = near[:-1].nonzero()[0]
        self.rows[j] = rows = ctx.lookup(
            ctx.encode(self.states, self.contexts.take(j, axis=0)))
        self._movers = j[table.moves.take(rows)]
        return j


# the bytes of context tables kept.  A kept table holds six arrays of at
# most 8 bytes per (alignment, assignment) pair of its enumeration, 37
# bytes a pair on the dodecagrid, where every pair gives its own code:
# 0.18 MB for a 3-state source, and 23.6 MB for a 22-state compact one.
# A table of at most _DENSE_CODES codes adds its `row_index`, 4 bytes a
# code: at most 256 KB.  So 64 MB keeps all six (grid, method) pairs at
# two and three source states, under 1 MB together, beside two of the
# 22-state tables.
_CONTEXT_BYTES = 64 * 2 ** 20
# the largest code space, base**(arity + 1), that gets a dense row index:
# every polygonal construction at 2 or 3 source states, and dodecagrid
# compact at 2
_DENSE_CODES = 2 ** 16


@dataclass(frozen=True, eq=False)
class ContextTable:
    """Every context one construction's pattern matches, whatever the
    source rule: the construction's code space, which its automata's
    `RuleTable`s share.

    A context (s; n_0 .. n_{p-1}) is coded s*B**p + sum(n_i * B**i), B
    the state count, and `codes` lists the matched ones in ascending
    order, with the number of distinct (left, right) `readings` of each.
    Each distinct (code, reading) entry, code by code, keeps the letters
    (left, self, right) that produce it as one index
    `assignments[e] = (l * n + s) * n + r` into the action's (n, n, n)
    table, n the letter count; the entries of code k start at
    `starts[k]`, in the order of the first alignment that gives each.
    `least[k]` is the index, among the single-reading codes, of the least
    code over the rotations of single-reading code k's context: a
    rotated context reads as the context does, so that code is a
    single-reading one too.  Equal indices mark one orbit, and the
    indices order the orbits as their least codes do.  The arrays are
    read-only, since every automaton of the construction shares them.
    """

    base: int
    arity: int
    codes: np.ndarray           # (M,) int64, ascending
    readings: np.ndarray        # (M,) distinct readings per code
    starts: np.ndarray          # (M,) first entry of each code
    assignments: np.ndarray     # (E,) (left, self, right) letters
    single: np.ndarray          # (M,) bool, exactly one reading
    least: np.ndarray           # (S,) int32, the orbit's least single code
    # (base**(arity + 1),) int32 row of every code, -1 where the pattern
    # matches no context, for a code space of at most `_DENSE_CODES`
    # codes; None for a larger one, which `lookup` searches
    row_index: np.ndarray | None

    @cached_property
    def _weights(self) -> np.ndarray:
        """B**i for neighbour digit i, then B**p for the own state."""
        return self.base ** np.arange(self.arity + 1, dtype=np.int64)

    def encode(self, states: np.ndarray, contexts: np.ndarray) -> np.ndarray:
        """Context codes of the cells whose ids `contexts` lists a row
        each, the neighbours in digit order and then the cell itself, as
        `Region.complete_contexts` holds them: one gather of the states
        and one int64 product with the digit weights, exact since
        `require_codes_fit` keeps every code and partial sum below
        2**63."""
        return states.take(contexts) @ self._weights

    def lookup(self, codes: np.ndarray) -> np.ndarray:
        """Table row of each code, -1 where the context has no reading.
        With a `row_index` that is one gather, so every code must lie in
        0..base**(arity + 1) - 1; without one it is one search, clipped
        to the last row, and one equality gather."""
        if self.row_index is not None:
            return self.row_index.take(codes)
        at = self.codes.searchsorted(codes)
        np.minimum(at, len(self.codes) - 1, out=at)
        return np.where(self.codes.take(at) == codes, at, -1)

    @property
    def nbytes(self) -> int:
        """The bytes its arrays hold."""
        held = [self.codes, self.readings, self.starts, self.assignments,
                self.single, self.least, self.row_index]
        return sum(a.nbytes for a in held if a is not None)


# the kept context tables by (pattern, n, base), least recently used
# first: a dict keeps insertion order, and a table is inserted again on
# each use
_CONTEXT_TABLES: dict[tuple, ContextTable] = {}


def context_table(pattern: ContextPattern, n: int, base: int
                  ) -> ContextTable:
    """The construction's `ContextTable`, enumerated on first use and
    kept.  A miss sums the kept tables' `nbytes`, the new one included,
    and drops the least recently used until the sum is at most
    `_CONTEXT_BYTES`; the table just built is never dropped."""
    key = (pattern, n, base)
    table = _CONTEXT_TABLES.pop(key, None)
    if table is None:
        table = _enumerate_contexts(pattern, n, base)
        held = table.nbytes + sum(t.nbytes for t in _CONTEXT_TABLES.values())
        for old in list(_CONTEXT_TABLES):
            if held <= _CONTEXT_BYTES:
                break
            held -= _CONTEXT_TABLES.pop(old).nbytes
    _CONTEXT_TABLES[key] = table
    return table


def _enumerate_contexts(pattern: ContextPattern, n: int, base: int
                        ) -> ContextTable:
    """Enumerate the pattern over every alignment, self letter and letter
    assignment to its free slots, and tabulate the distinct readings per
    context.  The letters are the states 0..n-1, so a letter's index is
    its state.

    An alignment carries slot i to neighbour `rotation_indices(p)[g, i]`.
    The reading (left, right) is the pair of letters put in the left and
    right slots, whatever the alignment, so one context's readings are
    the distinct pairs among the (alignment, assignment) entries that
    produce its code.  With the self letter, which the code holds, a
    reading fixes the action's (left, self, right) triple.
    """
    p = len(pattern.slots)
    sym.require_codes_fit(base, p)
    if any(not 0 <= s.state < base for s in pattern.slots
           if s.kind == "fixed"):
        raise ValueError(f"pattern states must lie in 0..{base - 1}")
    free = pattern.free_indices()

    # the letters of (self, free slots...) for every assignment
    pick = np.indices((n,) * (len(free) + 1),
                      dtype=np.int64).reshape(len(free) + 1, -1)
    left = pick[1 + free.index(pattern.left_index)]
    right = pick[1 + free.index(pattern.right_index)]

    # each assignment's state in every slot, then its own state
    states = np.empty((p + 1, pick.shape[1]), dtype=np.int64)
    for i, slot in enumerate(pattern.slots):
        if slot.kind == "fixed":
            states[i] = slot.state
    states[[p, *free]] = pick
    # one row per alignment, one column per assignment: the product of
    # the alignment's digit weights, B**rows[g, i] for slot i and B**p
    # for the own state, with the states, exact since
    # `require_codes_fit` keeps every partial sum below 2**63
    rows = sym.rotation_indices(p)
    codes = base ** np.c_[rows, np.full(len(rows), p)].astype(np.int64) \
        @ states
    # a column holds every rotation of its assignment's context, so its
    # least code is the least code of the orbit of each entry in it
    lowest = codes.min(axis=0)
    codes = codes.ravel()
    triple = np.tile((left * n + pick[0]) * n + right, len(rows))

    # within one code the self letter is fixed, so triples tell apart
    # the readings as (left, right) pairs do; the stable sort lists each
    # code's entries in (alignment, assignment) order, so the first place
    # of each (code, triple) pair, in ascending order, keeps a code's
    # distinct readings in the order of the first alignment that gives each
    # (a pair's index, below n**3 per entry, cannot overflow int64 for an
    # enumeration that fits in memory)
    order = np.argsort(codes, kind="stable")
    codes, triple = codes[order], triple[order]
    new_code = np.r_[True, codes[1:] != codes[:-1]]
    pair = (np.cumsum(new_code) - 1) * n ** 3 + triple
    distinct = np.sort(np.unique(pair, return_index=True)[1])
    codes, triple = codes[distinct], triple[distinct]
    starts = np.flatnonzero(new_code[distinct])
    readings = np.diff(np.r_[starts, len(codes)])
    codes, single = codes[starts], readings == 1
    # entry g * A + a of the raveled rows lies in column a, A columns;
    # each column's least code is found among the single-reading codes,
    # where a single-reading code's least rotation must lie
    column = order[new_code][single] % len(lowest)
    singles = codes[single]
    at = singles.searchsorted(lowest).astype(np.int32)[column]
    if not np.array_equal(singles.take(at), lowest[column]):
        raise RuntimeError("the least rotation of a single-reading "
                           "context has several readings, which no group "
                           "of rotations allows")
    row_index = None
    if base ** (p + 1) <= _DENSE_CODES:
        row_index = np.full(base ** (p + 1), -1, dtype=np.int32)
        row_index[codes] = np.arange(len(codes), dtype=np.int32)
        row_index.setflags(write=False)
    for a in (codes, readings, starts, triple, single, at):
        a.setflags(write=False)
    return ContextTable(base=base, arity=p, codes=codes, readings=readings,
                        starts=starts, assignments=triple, single=single,
                        least=at, row_index=row_index)


def compile_rules(automaton: HcaAutomaton) -> RuleTable:
    """The next states of each code's readings in the construction's
    `context_table` under the automaton's action: the action's table is
    gathered once at the table's assignments, then reduced to the least
    and greatest per code, which give the verdicts with the code's own
    state."""
    ctx = automaton.context_table
    out = automaton.action.table.ravel()[ctx.assignments]
    lo = np.minimum.reduceat(out, ctx.starts)
    hi = np.maximum.reduceat(out, ctx.starts)
    own = ctx.codes // ctx.base ** ctx.arity
    moves = np.append((lo == hi) & (lo != own), False)
    split = np.append(lo != hi, False)
    for flags in (moves, split):
        flags.setflags(write=False)
    return RuleTable(context=ctx, lo=lo, moves=moves, split=split)


def expanded_rules(automaton: HcaAutomaton) -> sym.RuleArrays:
    """The pattern unfolded into explicit (context, new state) rules over
    every rotated alignment and letter assignment: one rule per context
    with exactly one reading, in code order, held as the table's codes
    and next states, one gather of each.  A context with several
    readings has no single rule and is left out.  The codes are the
    construction's; only the next states are the automaton's own."""
    table = automaton.rule_table
    ctx = table.context
    return sym.RuleArrays(ctx.codes[ctx.single], table.lo[ctx.single])


def check_invariance(automaton: HcaAutomaton) -> list[sym.RuleArrays]:
    """The orbits whose next states disagree in the expanded rule list;
    an empty list means the rule set is rotation invariant.

    Rule k conflicts when its next state differs from that of its orbit's
    least rule, `ContextTable.least[k]`: one gather.  Each conflicting
    orbit is reported whole, as a `RuleArrays` of its rules in code
    order, and the orbits ascend by least code.  A rule list whose length
    is not the construction's single-reading count is refused with a
    ValueError."""
    rules = expanded_rules(automaton)
    least = automaton.context_table.least
    if len(rules) != len(least):
        raise ValueError(f"{len(rules)} rules for the {len(least)} "
                         "single-reading contexts of the construction")
    split = rules.outs != rules.outs.take(least)
    if not split.any():
        return []
    # the rules of the split orbits, grouped by least index in code order
    members = np.flatnonzero(np.isin(least, least[split]))
    members = members[np.argsort(least[members], kind="stable")]
    cuts = np.flatnonzero(np.diff(least[members])) + 1
    return [sym.RuleArrays(rules.codes[m], rules.outs[m])
            for m in np.split(members, cuts)]


# row origin used when printing a tape cell's context in table form: the
# pentagrid row starts one side past the left neighbour, the heptagrid row
# at the left neighbour itself
_ROW_START = {"pentagrid": 1, "heptagrid": 0}


def central_context_row(automaton: HcaAutomaton) -> str:
    """The admissible context of a tape cell, one symbolic table row.

    Letters are shown as X (left), Y (self), Z (right); fixed background
    and marker states as W and B.
    """
    if automaton.grid not in _ROW_START:
        raise ValueError("table rows are defined for the polygonal grids")
    if automaton.kind != "compact":
        raise ValueError("table rows describe the compact construction")
    pat = automaton.pattern
    q = automaton.padding_state
    names = []
    for slot in pat.slots:
        if slot.kind == "left":
            names.append("X")
        elif slot.kind == "right":
            names.append("Z")
        else:
            names.append("W" if slot.state == q else "B")
    start = (pat.left_index + _ROW_START[automaton.grid]) % len(names)
    row = [names[(start + i) % len(names)] for i in range(len(names))]
    return "Y | " + " ".join(row)


@dataclass
class Violation:
    kind: str
    time: int
    cell: int
    detail: str


@dataclass
class VerifyReport:
    violations: list[Violation] = field(default_factory=list)
    multi_reading_cells: int = 0
    matched_cells: int = 0
    scanned_cells: int = 0
    context_rows: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def text(self) -> str:
        lines = [
            f"cells scanned: {self.scanned_cells}",
            f"admissible matches: {self.matched_cells}",
            f"multi-reading cells: {self.multi_reading_cells}",
            f"violations: {len(self.violations)}",
        ]
        for v in self.violations:
            lines.append(f"  {v.kind} t={v.time} cell={v.cell}: {v.detail}")
        if self.context_rows:
            lines.append("context rows:")
            lines.extend(f"  {r}" for r in self.context_rows)
        return "\n".join(lines) + "\n"


_KINDS = ("ambiguous", "line-unmatched", "off-line-changed")
# a row's verdict bits for the scan: one per kind of `_KINDS`, in order
# (readings disagree, no reading, a reading moves the cell), then
# several readings
_KIND_BITS = (1, 2, 4)
_SEVERAL = 8


def _may_change(automaton: HcaAutomaton, region: Region) -> np.ndarray:
    """The cells a run of the automaton may change, as a mask: the tape,
    and the cells across the pattern's letter slots, which carry letters.
    On dodecagrid extra those are the reflected row, which steps by the
    mirrored rule A'(l, s, r) = A(r, s, l), rule 124 for rule 110, not by
    the tape's."""
    mask = np.zeros(region.n_cells, dtype=bool)
    mask[region.guideline.cell_ids] = True
    ids = region.marker_cell_ids(automaton.pattern.letter_slots)
    mask[ids[ids >= 0]] = True
    return mask


def verify_unique_applicability(automaton: HcaAutomaton, region: Region,
                                init, horizon: int) -> VerifyReport:
    """Scan every complete-neighbourhood cell over a run and count the
    admissible readings of its context.

    Violations: a cell whose readings disagree on the resulting state, an
    off-line cell some reading would change (the cells across a letter
    slot are exempt: they carry letters, and the dodecagrid extra
    reflected row runs the mirrored rule, see `_may_change`), and a line
    cell with no reading at all.
    They are listed by time, then cell, then in that order of kinds.  The
    scan keeps stepping with a frozen rim past the validity window;
    staleness there only widens the sample of contexts.

    The run is a `TableRun`, so a step costs in proportion to the cells
    it codes again, not to the region.  Every verdict is a fact of a
    cell's carried row, so the scan codes each table row once as verdict
    bits (`_KIND_BITS` and `_SEVERAL`; row -1 alone has no reading), and
    each cell once as the kind bits that apply to it: every cell can be
    ambiguous, a line cell unmatched and a guarded cell moved.  A time
    after a step that coded some cell then recounts everything with one
    gather of the bits by row, a count of the unmatched and of the
    multi-reading bits, and one AND with the cell's bits for the
    violations; no running totals are kept.  Once a step moves no cell
    the configuration is a fixed point: later times code nothing and
    repeat its counts and violation lines.
    """
    report = VerifyReport()
    if automaton.grid in _ROW_START and automaton.kind == "compact":
        report.context_rows.append(central_context_row(automaton))
    table = automaton.rule_table
    run = TableRun(table, region, init.states.copy())
    cells = run.cells
    ambiguous, unmatched, moved = _KIND_BITS
    verdicts = np.zeros(len(table.moves), dtype=np.uint8)
    verdicts[:-1][~table.context.single] = _SEVERAL
    for bit, flags in ((ambiguous, table.split),
                       (moved, table.split | table.moves)):
        verdicts[flags] |= bit
    verdicts[-1] = unmatched
    applies = np.full(region.n_cells, ambiguous | moved, dtype=np.uint8)
    applies[_may_change(automaton, region)] = ambiguous
    applies[region.guideline.cell_ids] |= unmatched
    applies = applies[cells]
    lines = None
    for t in range(max(horizon, 0) + 1):
        if t and len(run.step()):
            lines = None
        if lines is None:
            rows = run.rows
            found = verdicts.take(rows)
            matched = len(cells) - int(np.count_nonzero(found & unmatched))
            multi_reading = int(np.count_nonzero(found & _SEVERAL))
            found &= applies
            lines = []
            for k in found.nonzero()[0]:
                c, row, bits = int(cells[k]), rows[k], int(found[k])
                readings, outs = automaton.readings(row) \
                    if row >= 0 else ([], [])
                detail = {
                    "ambiguous": f"readings {readings} give states {outs}",
                    "line-unmatched": "no admissible reading",
                    "off-line-changed": f"reading would move state to {outs}",
                }
                lines.extend((kind, c, detail[kind])
                             for kind, bit in zip(_KINDS, _KIND_BITS)
                             if bits & bit)
        report.scanned_cells += len(cells)
        report.matched_cells += matched
        report.multi_reading_cells += multi_reading
        report.violations.extend(Violation(kind, t, c, detail)
                                 for kind, c, detail in lines)
    return report
