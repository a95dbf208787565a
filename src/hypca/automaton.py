"""Tiling automata: the two constructions of a 1D automaton, and their file.

Both constructions carry the source automaton's cells onto a line of
tiles unchanged: its n states are the letters.  The extra-state
construction works on all three grids and adds one state, n: every cell
off the tape line holds it, and a tape cell recognizes itself by seeing
that state everywhere except where its two tape neighbours sit.  The
compact construction keeps the n states by marking the line with cells
held in a designated non-quiescent state; on the pentagrid it needs the
source automaton to be fixable, and on the heptagrid to have a quiescent
state, so that the markers and the background hold still under the rules
that unavoidably fire on them.

A produced automaton is intensional: one admissible context pattern, an
action applied as (left, self, right) when the pattern matches in exactly
one rotated alignment, and state-unchanged everywhere else.  Both pad the
tape with the least quiescent source state, or 0 when there is none.
Everything else, its state count and added state among them, follows
from the kind and the source rule, and its file stores none of it.

Making an automaton and reading or writing its file needs no numpy, so
`hypca transform` loads none.  Its compiled tables, `context_table` and
`rule_table`, are `hypca.embed`'s, imported on first read.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import TYPE_CHECKING

from . import ca1d
from . import symmetry as sym
from .jsonfile import exactly, json_object, read_key

if TYPE_CHECKING:
    from .embed import ContextTable, RuleTable

GRID_SIDES = {"pentagrid": 5, "heptagrid": 7, "dodecagrid": 12}


class NotFixable(ValueError):
    """The source rule lacks what the grid's compact construction needs:
    fixability on the pentagrid, a quiescent state on the heptagrid."""


@dataclass(frozen=True)
class Slot:
    """One neighbour position of a context pattern.

    kind "fixed" pins an exact state; "left" and "right" accept any letter
    and name the 1D neighbours the action reads; "letter" accepts any
    letter and is ignored by the action.
    """

    kind: str
    state: int | None = None


LEFT = Slot("left")
RIGHT = Slot("right")
FREE_LETTER = Slot("letter")


def fixed(state: int) -> Slot:
    return Slot("fixed", state)


@dataclass(frozen=True)
class ContextPattern:
    """A tape cell's admissible context, one slot per side.  The indices
    of its letter slots, and the state each fixed slot pins by slot
    index, are worked out once from the slots, for the runs that paint
    them."""

    slots: tuple[Slot, ...]
    letter_slots: tuple[int, ...] = field(init=False, repr=False,
                                          compare=False)
    fixed_states: dict[int, int] = field(init=False, repr=False,
                                         compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "slots", tuple(self.slots))
        kinds = [s.kind for s in self.slots]
        if kinds.count("left") != 1 or kinds.count("right") != 1:
            raise ValueError("pattern needs exactly one left and one right slot")
        object.__setattr__(self, "letter_slots", tuple(
            i for i, k in enumerate(kinds) if k == "letter"))
        object.__setattr__(self, "fixed_states", {
            i: s.state for i, s in enumerate(self.slots)
            if s.kind == "fixed"})

    @property
    def left_index(self) -> int:
        return next(i for i, s in enumerate(self.slots) if s.kind == "left")

    @property
    def right_index(self) -> int:
        return next(i for i, s in enumerate(self.slots) if s.kind == "right")

    def free_indices(self) -> list[int]:
        return [i for i, s in enumerate(self.slots) if s.kind != "fixed"]


@dataclass(frozen=True)
class HcaAutomaton:
    """A tiling automaton: one admissible pattern over a grid, an action,
    and the default of leaving the state unchanged.

    The letters are the source states 0..n-1; the extra kind adds one
    state, n, and the compact kind adds none.  The padding state is the
    source state that pads the tape, on either kind.  One whose context
    codes overflow int64 is refused when it is made, so that no command
    writes an automaton that no other can compile."""

    grid: str
    pattern: ContextPattern
    action: ca1d.Rule1D
    kind: str               # "extra" or "compact"
    padding_state: int      # source state used to pad the tape
    name: str = ""

    def __post_init__(self) -> None:
        if self.grid not in GRID_SIDES:
            raise ValueError(f"unknown grid {self.grid!r}")
        if len(self.pattern.slots) != GRID_SIDES[self.grid]:
            raise ValueError("pattern arity does not fit the grid")
        _source_state(self.padding_state, self.action.n)
        sym.require_codes_fit(self.n_states, len(self.pattern.slots))

    @property
    def letters(self) -> range:
        """The states that carry source letters: the source states."""
        return self.action.states()

    @property
    def n_states(self) -> int:
        return self.action.n + (self.kind == "extra")

    @property
    def blue(self) -> int | None:
        """The added state, extra kind only."""
        return self.action.n if self.kind == "extra" else None

    @property
    def marker(self) -> int:
        """The state that marks the tape line: the state the compact
        pattern pins other than the background, the padding state."""
        if self.kind == "compact":
            for slot in self.pattern.slots:
                if slot.kind == "fixed" and slot.state != self.padding_state:
                    return slot.state
        raise ValueError(f"the {self.kind} pattern pins no state other "
                         "than the background")

    @cached_property
    def context_table(self) -> ContextTable:
        """The contexts the pattern matches, shared by every automaton
        with the same pattern and state counts: taken from the cache on
        first use."""
        return _embed().context_table(self.pattern, self.action.n,
                                      self.n_states)

    @cached_property
    def rule_table(self) -> RuleTable:
        """The compiled transitions, built on first use."""
        return _embed().compile_rules(self)

    def readings(self, row: int) -> tuple[list[tuple[int, int]], list[int]]:
        """The (left, right) readings of the context in rule table row
        `row`, in the order of the first alignment that gives each, and
        the sorted next states they give: the row's `context_table`
        entries, as error messages spell them out."""
        ctx, n = self.context_table, self.action.n
        start = ctx.starts[row]
        entries = ctx.assignments[start:start + ctx.readings[row]]
        outs = self.action.table.ravel()[entries]
        return ([(t // (n * n), t % n) for t in entries.tolist()],
                sorted(set(outs.tolist())))


@lru_cache(maxsize=1)
def _embed():
    """`hypca.embed`, which makes the tables with numpy: imported on the
    first table read, and then held, so that a later read goes through no
    import statement."""
    from . import embed

    return embed


def _source_state(value, n: int) -> int:
    """`value` if it is an int source state in 0..n-1, and no bool."""
    if type(value) is not int or not 0 <= value < n:
        raise ValueError(f"padding_state {value!r} is not a source state "
                         f"in 0..{n - 1}")
    return value


def _pattern(grid: str, fill: int, marker: int | None = None
             ) -> ContextPattern:
    """A tape cell's pattern, slot i reading the side that
    `symmetry.TAPE_SLOTS` numbers i: the left and right neighbours, every
    other slot pinned to `fill` except the markers, pinned to `marker`
    when one is given, or else the reflected row, which carries
    letters."""
    tape = sym.TAPE_SLOTS[grid]
    slots = [fixed(fill)] * GRID_SIDES[grid]
    if marker is not None:
        for i in tape.markers:
            slots[i] = fixed(marker)
    elif tape.mirror is not None:
        slots[tape.mirror] = FREE_LETTER
    slots[tape.left], slots[tape.right] = LEFT, RIGHT
    return ContextPattern(tuple(slots))


def _padding(rule: ca1d.Rule1D) -> int:
    """The state that pads the tape: the least quiescent state, else 0."""
    return next(iter(ca1d.quiescent_states(rule)), 0)


def embed_extra_state(rule: ca1d.Rule1D, grid: str) -> HcaAutomaton:
    """Add one state and use it to carve the tape line out of the tiling.

    Works for every source rule; the produced automaton has n + 1 states,
    the letters keep their values and the added state is the largest.
    The tape is padded with `_padding`'s state, which the 1D oracle
    accepts only if it is quiescent.
    """
    if grid not in GRID_SIDES:
        raise ValueError(f"unknown grid {grid!r}")
    return HcaAutomaton(
        grid=grid,
        pattern=_pattern(grid, rule.n),
        action=rule,
        kind="extra",
        padding_state=_padding(rule),
        name=f"extra[{rule.name or rule.n}] on {grid}",
    )


def embed_compact(rule: ca1d.Rule1D, grid: str) -> HcaAutomaton:
    """Keep the state count and mark the tape line with red neighbours.

    On the pentagrid the source rule must be fixable; the witness pair
    (q, u) supplies the background and marker states.  On the heptagrid
    and the dodecagrid q is `_padding`'s state, the least quiescent state
    or else 0, and u the least other state.  The heptagrid markers hold
    still only if A(q,q,q) = q, so there a rule with no quiescent state
    is refused; on the dodecagrid the markers hold still whatever the
    rule.  The padding state is q.
    """
    if grid not in GRID_SIDES:
        raise ValueError(f"unknown grid {grid!r}")
    if grid == "pentagrid":
        ok, witness = ca1d.is_fixable(rule)
        if not ok:
            raise NotFixable(
                "the pentagrid compact construction needs a fixable rule"
            )
        q, u = witness
    else:
        if rule.n < 2:
            raise ValueError("the compact construction needs at least 2 states")
        q = _padding(rule)
        if grid == "heptagrid" and rule.apply(q, q, q) != q:
            raise NotFixable(
                "the heptagrid compact construction needs a quiescent "
                "state: A(q,q,q)=q for some state q")
        u = 1 if q == 0 else 0
    return HcaAutomaton(
        grid=grid,
        pattern=_pattern(grid, q, u),
        action=rule,
        kind="compact",
        padding_state=q,
        name=f"compact[{rule.name or rule.n}] on {grid}",
    )


def _slot_to_doc(slot: Slot) -> dict:
    return {"kind": slot.kind, "state": slot.state}


def automaton_to_json(automaton: HcaAutomaton) -> str:
    """The automaton's own fields; what they fix is not stored."""
    doc = {
        "grid": automaton.grid,
        "kind": automaton.kind,
        "name": automaton.name,
        "action": json.loads(ca1d.rule_to_json(automaton.action)),
        "patterns": [[_slot_to_doc(s) for s in automaton.pattern.slots]],
        "padding_state": automaton.padding_state,
    }
    return json.dumps(doc, indent=2)


def automaton_from_json(text: str) -> HcaAutomaton:
    """The automaton a file holds.  Besides the form of each key, the
    keys must agree: the kind is extra or compact; the pattern has one
    slot per side of the grid's cells, every slot is of a known kind, a
    fixed slot pins one of the automaton's n + 1 (extra) or n (compact)
    states and no other slot pins one; the padding is a source state,
    no JSON float or boolean, and a compact pattern pins a marker state.
    A ValueError names the first key that does not.  Keys the automaton
    does not hold are ignored, among them the four that older files
    stored and that the kind and the action fix: the state count, the
    state map, the letters and the added state."""
    read = partial(read_key, json_object(text, "automaton"), "automaton")

    def slot(doc):
        kind, state = doc["kind"], doc["state"]
        if kind not in ("fixed", "left", "right", "letter"):
            raise ValueError(f"unknown slot kind {kind!r}")
        if kind == "fixed":
            if type(state) is not int or not 0 <= state < n_states:
                raise ValueError(f"a fixed slot pins a state in "
                                 f"0..{n_states - 1}, not {state!r}")
        elif state is not None:
            raise ValueError(f"a {kind} slot pins no state, not {state!r}")
        return Slot(kind, state)

    def pattern(patterns):
        if len(patterns) != 1:
            raise ValueError("exactly one admissible pattern is supported")
        if len(patterns[0]) != GRID_SIDES[grid]:
            raise ValueError(f"a {grid} pattern has {GRID_SIDES[grid]} "
                             f"slots, not {len(patterns[0])}")
        return ContextPattern(tuple(map(slot, patterns[0])))

    def kind_of(value):
        if value not in ("extra", "compact"):
            raise ValueError(f"{value!r} is neither 'extra' nor 'compact'")
        return value

    def grid_of(value):
        if exactly(str)(value) not in GRID_SIDES:
            raise ValueError(f"unknown grid {value!r}")
        return value

    grid = read("grid", grid_of)
    action = read("action", lambda a: ca1d.rule_from_json(json.dumps(a)))
    kind = read("kind", kind_of)
    n_states = action.n + (kind == "extra")
    automaton = HcaAutomaton(
        grid=grid,
        pattern=read("patterns", pattern),
        action=action,
        kind=kind,
        padding_state=read("padding_state",
                           partial(_source_state, n=action.n)),
        name=read("name", exactly(str), ""),
    )
    if kind == "compact":
        read("patterns", lambda _: automaton.marker)
    return automaton
