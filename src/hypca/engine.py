"""Running a produced automaton on a bounded region.

A bounded region only approximates the infinite tiling, so a configuration
carries a validity budget: after t steps the states within graph distance
radius - t of the initial segment are exactly what the infinite tiling
would hold, and stepping is refused once that budget is spent.  The
unique-applicability scan in `embed` keeps stepping past the budget with
a frozen rim, without this module: it wants breadth of contexts, not
fidelity at the edge.  It carries each complete cell's table row from
step to step, and `RuleTable.moving`, the step rule this module applies
too, marks the cells whose rows change their state.

Cells with a neighbour outside the region never update.  Everything else
updates by the automaton: a uniquely readable pattern match applies the
action, no match leaves the state alone, and readings that disagree on
the resulting state are an error.  A step codes the contexts of its
candidate cells as integers and looks them up in the automaton's compiled
`RuleTable`, all in numpy; a cheap count of pinned states first narrows
the candidates, so no step codes the whole of a large region.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ca1d
from . import embed as emb
from .region import Region, marker_cell_ids


class AmbiguousMatch(ValueError):
    """A context matched under readings that disagree on the next state."""


class ValidityExhausted(ValueError):
    """No step can be trusted: the region is too small for more time."""


@dataclass
class Configuration:
    states: np.ndarray          # (N,) current state per cell
    time: int
    valid_radius: int           # trusted distance from the initial segment

    def copy(self) -> "Configuration":
        return Configuration(self.states.copy(), self.time, self.valid_radius)


def init_configuration(region: Region, automaton: emb.HcaAutomaton,
                       word) -> Configuration:
    """Lay a word on the tape line and fill the rest of the region.

    The word is centred; the line is padded with the designated quiescent
    state out to the region's edge.  The extra-state fill is the added
    state everywhere off the line, with the reflected row on the
    dodecagrid carrying each tape cell's letter.  The compact fill is the
    background state everywhere, with the marker cells set to the marker
    state.
    """
    if automaton.grid != region.grid:
        raise ValueError(f"automaton is for {automaton.grid}, "
                         f"region is {region.grid}")
    word = [int(a) for a in word]
    states_a = set(automaton.action.states())
    if not set(word) <= states_a:
        raise ValueError("word uses states outside the source automaton")
    if automaton.padding_state is None:
        raise ValueError("the source automaton has no quiescent state "
                         "to pad the tape with")
    start = -(len(word) // 2)
    if word and not (-region.halfwidth <= start
                     and start + len(word) - 1 <= region.halfwidth):
        raise ValueError(f"word of length {len(word)} does not fit the "
                         f"initial segment (halfwidth {region.halfwidth})")

    if automaton.kind == "extra":
        fill = automaton.blue
    else:
        fill = automaton.encode(automaton.padding_state)
    states = np.full(region.n_cells, fill, dtype=np.int16)

    gl = region.guideline
    letter_at = {}
    for cell, pos in zip(gl.cell_ids, gl.positions):
        p = int(pos)
        a = word[p - start] if 0 <= p - start < len(word) \
            else automaton.padding_state
        letter_at[int(cell)] = automaton.encode(a)
        states[int(cell)] = letter_at[int(cell)]

    if automaton.kind == "extra" and region.grid == "dodecagrid":
        for cell, mirror in zip(gl.cell_ids, gl.mirror_ids):
            if mirror >= 0:
                states[int(mirror)] = letter_at[int(cell)]
    if automaton.kind == "compact":
        states[marker_cell_ids(region, automaton.marker_scheme)] = \
            automaton.encode(1 if automaton.grid != "pentagrid"
                             else _marker_source(automaton))
    return Configuration(states, 0, region.radius)


def _marker_source(automaton: emb.HcaAutomaton) -> int:
    """The source state whose image paints the markers."""
    b = next(s.state for s in automaton.pattern.slots if s.kind == "fixed"
             and s.state != automaton.encode(automaton.padding_state))
    return automaton.inverse_map()[b]


def _pinned_counts(automaton: emb.HcaAutomaton) -> dict[int, int]:
    pinned: dict[int, int] = {}
    for slot in automaton.pattern.slots:
        if slot.kind == "fixed":
            pinned[slot.state] = pinned.get(slot.state, 0) + 1
    return pinned


def _filter_candidates(automaton: emb.HcaAutomaton, region: Region,
                       states: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Subset of `cells` passing the cheap necessary match conditions:
    complete neighbourhood, letter self state, and at least the pattern's
    count of every pinned state among the neighbours.  The neighbours are
    read one side at a time, so memory stays linear in len(cells)."""
    if automaton.blue is not None:
        cells = cells[states[cells] != automaton.blue]
    pinned = _pinned_counts(automaton)
    mask = np.ones(len(cells), dtype=bool)
    seen = np.zeros((len(pinned), len(cells)), dtype=np.int8)
    for side in range(region.adjacency.shape[1]):
        nb = region.adjacency[cells, side]
        mask &= nb >= 0
        nb_states = states[nb]          # nb = -1 reads a cell masked out
        for k, state in enumerate(pinned):
            seen[k] += nb_states == state
    for k, count in enumerate(pinned.values()):
        mask &= seen[k] >= count
    return cells[mask]


def _first_candidates(automaton: emb.HcaAutomaton, region: Region,
                      states: np.ndarray) -> np.ndarray:
    """`_filter_candidates` over the whole region.  A compact automaton's
    background is a letter, so the pass starts from the neighbours of the
    cells holding the pinned state that fewest cells hold: every match
    sees one.  The extra kind's added-state test already drops almost
    every cell."""
    cells = np.arange(region.n_cells)
    pinned = list(_pinned_counts(automaton))
    if automaton.blue is None and pinned:
        held = np.bincount(states, minlength=automaton.n_states)[pinned]
        seeds = states == pinned[int(np.argmin(held))]
        nb = region.adjacency[seeds].ravel()
        near = np.zeros(region.n_cells, dtype=bool)
        near[nb[nb >= 0]] = True
        cells = cells[near]
    return _filter_candidates(automaton, region, states, cells)


def _apply(automaton: emb.HcaAutomaton, region: Region, cfg: Configuration,
           candidates: np.ndarray) -> tuple[Configuration, np.ndarray]:
    """Update the candidate cells from the automaton's rule table;
    everything else keeps its state.  Returns the new configuration and
    the cells that changed, in candidate order."""
    states = cfg.states
    table = automaton.rule_table
    at = table.lookup(table.encode(states, region.adjacency, candidates))
    split = (at >= 0) & (table.lo[at] != table.hi[at])
    if split.any():
        c = int(candidates[split][0])
        nb = tuple(int(v) for v in states[region.adjacency[c]])
        readings, outs = emb.reading_outcomes(automaton, int(states[c]), nb)
        raise AmbiguousMatch(
            f"cell {c} at time {cfg.time}: readings {readings} "
            f"disagree, states {outs}")
    moved = np.flatnonzero(table.moving(states[candidates], at))
    changed = candidates[moved].astype(np.int64)
    new_states = states.copy()
    new_states[changed] = table.lo[at[moved]]
    return (Configuration(new_states, cfg.time + 1,
                          max(cfg.valid_radius - 1, 0)),
            changed)


def step_hca(automaton: emb.HcaAutomaton, region: Region,
             cfg: Configuration) -> Configuration:
    """One synchronous update.  The step consumes one unit of validity
    and is refused once none is left."""
    return run_hca(automaton, region, cfg, 1)[-1]


def run_hca(automaton: emb.HcaAutomaton, region: Region,
            cfg: Configuration, steps: int) -> list[Configuration]:
    """The trajectory [cfg, step(cfg), ...] with `steps` updates.

    The candidate set is carried across steps: after the first full scan,
    only cells whose neighbourhood changed are re-examined.  On large
    regions almost every cell sits in an unchanging background, so this
    turns each step into work proportional to the activity.
    """
    out = [cfg]
    if steps <= 0:
        return out
    if cfg.valid_radius < steps:
        raise ValidityExhausted(
            f"{steps} step(s) from time {cfg.time} exceed the remaining "
            f"validity {cfg.valid_radius}")
    adj = region.adjacency
    cand = _first_candidates(automaton, region, cfg.states)
    while True:
        new_cfg, changed = _apply(automaton, region, cfg, cand)
        out.append(new_cfg)
        if len(out) > steps:
            return out
        if len(changed):
            near = adj[changed].ravel()
            affected = np.sort(np.concatenate([cand, changed, near[near >= 0]]))
            affected = affected[np.r_[True, affected[1:] != affected[:-1]]]
        else:
            affected = cand
        cand = _filter_candidates(automaton, region, new_cfg.states,
                                  affected)
        cfg = new_cfg


def trace_window(region: Region, time: int) -> int:
    """Largest |position| of the tape trusted at the given time."""
    return region.halfwidth + region.radius - time


def _tape_letters(automaton: emb.HcaAutomaton, region: Region,
                  states: np.ndarray, w: int) -> np.ndarray:
    """Source letters on tape positions -w..w, -1 where a cell holds a
    state that is no letter."""
    gl = region.guideline
    if w < 0:
        return np.zeros(0, dtype=np.int64)
    gl.id_at(-w), gl.id_at(w)      # raise past the ends of the chain
    first = -w - int(gl.positions[0])
    tape = states[gl.cell_ids[first:first + 2 * w + 1]]
    letter = np.full(max(automaton.n_states, int(tape.max()) + 1), -1)
    for s, a in automaton.inverse_map().items():
        letter[s] = a
    return letter[tape]


def yellow_trace(automaton: emb.HcaAutomaton, region: Region,
                 cfgs) -> list[tuple[int, int, tuple[int, ...]]]:
    """The tape contents over time, decoded to source states.

    Each entry is (time, start position, letters) covering the positions
    still trusted at that configuration's time.  A non-letter state on
    the line is a simulation failure and raises.
    """
    gl = region.guideline
    rows = []
    for cfg in cfgs:
        w = trace_window(region, cfg.time)
        letters = _tape_letters(automaton, region, cfg.states, w)
        bad = np.flatnonzero(letters < 0)
        if len(bad):
            p = int(bad[0]) - w
            cell = gl.id_at(p)
            raise ValueError(
                f"cell {cell} (position {p}) holds non-letter state "
                f"{int(cfg.states[cell])} at time {cfg.time}")
        rows.append((cfg.time, -w, tuple(letters.tolist())))
    return rows


def trace_to_text(trace) -> str:
    """Tab-separated rows 'time  start  states', one per configuration."""
    lines = [f"{t}\t{start}\t" + " ".join(str(v) for v in letters)
             for t, start, letters in trace]
    return "\n".join(lines) + "\n"


def config_to_json(region: Region, cfg: Configuration) -> str:
    import json
    return json.dumps({
        "grid": region.grid,
        "time": cfg.time,
        "valid_radius": cfg.valid_radius,
        "states": cfg.states.tolist(),
    })


def config_from_json(text: str, region: Region) -> Configuration:
    import json
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a snapshot file holds one JSON object")
    try:
        grid, states = doc["grid"], doc["states"]
        time, valid_radius = doc["time"], doc["valid_radius"]
    except KeyError as e:
        raise ValueError(f"snapshot file lacks the {e} key") from None
    if not isinstance(grid, str):
        raise ValueError("snapshot key 'grid' must be a string")
    for key, value in (("time", time), ("valid_radius", valid_radius)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"snapshot key '{key}' must be an integer")
    if not isinstance(states, list):
        raise ValueError("snapshot key 'states' must be a list")
    if grid != region.grid:
        raise ValueError(f"snapshot is for {grid}, region is {region.grid}")
    try:
        # a float or a boolean would be cast to an integer state
        if any(type(s) is not int for s in states):
            raise TypeError
        states = np.asarray(states, dtype=np.int16)
    except (TypeError, OverflowError):
        raise ValueError("snapshot key 'states' must list integer "
                         "states") from None
    if states.shape != (region.n_cells,):
        raise ValueError("snapshot does not fit the region")
    return Configuration(states, time, valid_radius)


@dataclass
class Divergence:
    time: int
    position: int
    expected: int
    got: int | None


@dataclass
class EquivalenceReport:
    steps: int
    compared: int = 0
    divergence: Divergence | None = None
    stability_violations: list[tuple[int, int]] = field(default_factory=list)
    # the full run, times 0..steps, whether or not checking stopped early
    configurations: list[Configuration] = field(default_factory=list,
                                                repr=False)

    @property
    def ok(self) -> bool:
        return self.divergence is None and not self.stability_violations

    def text(self) -> str:
        lines = [f"steps: {self.steps}",
                 f"tape positions compared: {self.compared}"]
        if self.divergence is None:
            lines.append("tape trace: matches the 1D run")
        else:
            d = self.divergence
            lines.append(f"divergence at t={d.time} position {d.position}: "
                         f"expected {d.expected}, got {d.got}")
        if self.stability_violations:
            t, c = self.stability_violations[0]
            lines.append(f"off-line drift: {len(self.stability_violations)} "
                         f"cells, first at t={t} cell {c}")
        else:
            lines.append("off-line cells: stable")
        return "\n".join(lines) + "\n"


def equivalence_check(rule: ca1d.Rule1D, automaton: emb.HcaAutomaton,
                      region: Region, word, steps: int) -> EquivalenceReport:
    """Run the produced automaton against the 1D automaton it came from.

    The tape line is compared position by position inside the trusted
    window at every time, and every off-line cell is required to hold
    still for the whole run.  Checking stops at the first tape mismatch.
    """
    if steps > region.radius - 1:
        raise ValueError(f"{steps} steps exceed the trusted horizon of a "
                         f"radius {region.radius} region")
    init = init_configuration(region, automaton, word)
    tape = ca1d.word_tape(list(word), padding=automaton.padding_state)
    oracle = ca1d.run_1d(rule, tape, steps)
    cfgs = run_hca(automaton, region, init, steps)
    report = EquivalenceReport(steps=steps, configurations=cfgs)

    gl = region.guideline
    on_line = np.zeros(region.n_cells, dtype=bool)
    on_line[gl.cell_ids] = True
    baseline = init.states[~on_line].copy()
    off_ids = np.nonzero(~on_line)[0]

    for t, cfg in enumerate(cfgs):
        w = trace_window(region, t)
        got = _tape_letters(automaton, region, cfg.states, w)
        expected = oracle[t].window(-w, w + 1)
        wrong = np.flatnonzero(got != expected)
        if len(wrong):
            i = int(wrong[0])
            report.compared += i + 1
            report.divergence = Divergence(
                t, i - w, int(expected[i]),
                int(got[i]) if got[i] >= 0 else None)
            return report
        report.compared += len(got)
        if automaton.kind == "extra" and automaton.grid == "dodecagrid":
            # the reflected row holds letters and may step; judge only the
            # cells that started in the added state
            drifted = (cfg.states[~on_line] != baseline) \
                & (baseline == automaton.blue)
        else:
            drifted = cfg.states[~on_line] != baseline
        for c in off_ids[drifted]:
            report.stability_violations.append((t, int(c)))
        if report.stability_violations:
            return report
    return report
