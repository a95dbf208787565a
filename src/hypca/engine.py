"""Running a produced automaton on a bounded region.

A bounded region only approximates the infinite tiling: after t steps the
states within graph distance radius - t of the initial segment are exactly
what the infinite tiling would hold.  `Region.tape_window` is that rule,
read on the tape: the trace and the oracle check read the window it gives
at each time, and `run_hca` refuses to step past the radius, the last
time it certifies.  The unique-applicability scan in `embed` keeps
stepping past that time with a frozen rim: it wants breadth of contexts,
not fidelity at the edge.
Both step through `embed.TableRun`, the one stepper, which carries each
complete cell's table row from step to step and codes again only the
closed neighbourhoods of the cells a step changed, reading each cell's
context from the region's `complete_contexts`.  It refuses a
configuration with a state outside the automaton's, which no table code
holds.

Cells with a neighbour outside the region never update.  Everything else
updates by the automaton: a uniquely readable pattern match applies the
action, no match leaves the state alone, and readings that disagree on
the resulting state are an error.  Contexts are coded as integers and
looked up in the construction's `ContextTable`, and each row's next
state and verdicts are read from the automaton's compiled `RuleTable`,
all in numpy.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import ca1d
from . import embed as emb
from .jsonfile import exactly, json_object, read_key
from .region import Region, ValidityExhausted


class AmbiguousMatch(ValueError):
    """A context matched under readings that disagree on the next state."""


@dataclass
class Configuration:
    states: np.ndarray          # (N,) current state per cell
    time: int


def init_configuration(region: Region, automaton: emb.HcaAutomaton,
                       word) -> Configuration:
    """Lay a word on the tape line and fill the rest of the region.

    The fill is the added state (extra) or the padding state (compact).
    The tape is `ca1d.word_tape`'s, the word centred and padded with the
    automaton's padding state, laid on the chain out to the region's
    edge.  The rest is the pattern's: the cell across a chain cell's
    letter slot gets its letter (the dodecagrid extra reflected row), and
    the cell across a slot pinned to a state other than the fill gets
    that state (the compact markers).
    """
    if automaton.grid != region.grid:
        raise ValueError(f"automaton is for {automaton.grid}, "
                         f"region is {region.grid}")
    word = [int(a) for a in word]
    states_a = set(automaton.action.states())
    if not set(word) <= states_a:
        raise ValueError("word uses states outside the source automaton")
    word_tape = ca1d.word_tape(word, automaton.padding_state)
    if not (-region.halfwidth <= word_tape.start
            and word_tape.end - 1 <= region.halfwidth):
        raise ValueError(f"word of length {len(word)} does not fit the "
                         f"initial segment (halfwidth {region.halfwidth})")

    fill = automaton.blue if automaton.kind == "extra" \
        else automaton.padding_state
    # one entry past the cells takes the -1 of every side with no cell
    states = np.full(region.n_cells + 1, fill, dtype=np.int16)

    # the chain runs over positions -extent..extent in order
    extent = region.halfwidth + region.radius
    tape = word_tape.window(-extent, extent + 1)
    states[region.guideline.cell_ids] = tape
    # one gather for every painted slot; pinned states go last, so a cell
    # across a letter slot and a pinned one holds the pinned letter
    letters = automaton.pattern.letter_slots
    pinned = {i: s for i, s in automaton.pattern.fixed_states.items()
              if s != fill}
    ids = region.marker_cell_ids([*letters, *pinned])
    states[ids[:, :len(letters)]] = tape[:, None]
    states[ids[:, len(letters):]] = list(pinned.values())
    return Configuration(states[:-1], 0)


def run_hca(automaton: emb.HcaAutomaton, region: Region,
            cfg: Configuration, steps: int) -> list[Configuration]:
    """The trajectory [cfg, step(cfg), ...] with `steps` updates.

    The steps are an `embed.TableRun`: after one lookup of every complete
    cell, a step codes again only the closed neighbourhoods of the cells
    it changed.  On large regions almost every cell sits in an unchanging
    background, so this turns each step into work proportional to the
    activity.  A context whose readings disagree raises before it steps,
    at the first such cell of its time; the final configuration is not
    stepped, so it is not judged.  Steps past the last time the region
    certifies are refused before any is taken.
    """
    out = [cfg]
    if steps <= 0:
        return out
    left = region.tape_window(cfg.time) - region.halfwidth
    if left < steps:
        raise ValidityExhausted(
            f"{steps} step(s) from time {cfg.time} exceed the remaining "
            f"validity {left}")
    table = automaton.rule_table
    run = emb.TableRun(table, region, cfg.states.copy())
    coded = np.arange(len(run.cells))
    for _ in range(steps):
        # cells not coded again keep rows that were not split
        split = coded[table.split.take(run.rows.take(coded))]
        if len(split):
            c = int(run.cells[split[0]])
            readings, outs = automaton.readings(run.rows[split[0]])
            raise AmbiguousMatch(
                f"cell {c} at time {cfg.time}: readings {readings} "
                f"disagree, states {outs}")
        coded = run.step()
        cfg = Configuration(run.states.copy(), cfg.time + 1)
        out.append(cfg)
    return out


def _tape_letters(automaton: emb.HcaAutomaton, region: Region,
                  states: np.ndarray, w: int) -> np.ndarray:
    """Source letters on tape positions -w..w, -1 where a cell holds a
    state that is no letter.  `w` is a `Region.tape_window`, which lies
    within the chain."""
    gl = region.guideline
    first = -w - int(gl.positions[0])
    tape = states[gl.cell_ids[first:first + 2 * w + 1]]
    return np.where(tape < automaton.action.n, tape, -1)


def yellow_trace(automaton: emb.HcaAutomaton, region: Region,
                 cfgs) -> list[tuple[int, int, tuple[int, ...]]]:
    """The tape contents over time, as source states.

    Each entry is (time, start position, letters) covering the positions
    still trusted at that configuration's time.  A non-letter state on
    the line is a simulation failure and raises.
    """
    gl = region.guideline
    rows = []
    for cfg in cfgs:
        w = region.tape_window(cfg.time)
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
        "valid_radius": region.tape_window(cfg.time) - region.halfwidth,
        "states": cfg.states.tolist(),
    })


def config_from_json(text: str, region: Region) -> Configuration:
    """The configuration a snapshot holds, which must fit `region`: its
    grid and cell count, a time the region certifies, and the remaining
    validity `config_to_json` writes for that time."""
    read = partial(read_key, json_object(text, "snapshot"), "snapshot")
    grid = read("grid", exactly(str))
    states = read("states", lambda v: np.array(list(map(exactly(int), v)),
                                               dtype=np.int16))
    time = read("time", exactly(int))
    valid_radius = read("valid_radius", exactly(int))
    if grid != region.grid:
        raise ValueError(f"snapshot is for {grid}, region is {region.grid}")
    if states.shape != (region.n_cells,):
        raise ValueError("snapshot does not fit the region")
    # tape_window refuses a time the region does not certify
    left = read("time", region.tape_window) - region.halfwidth
    if valid_radius != left:
        raise ValueError(f"snapshot key 'valid_radius': {valid_radius} is "
                         f"not the remaining validity {left} of the region "
                         f"at time {time}")
    return Configuration(states, time)


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
    The run refuses steps past the radius, the last time the region
    certifies.
    """
    init = init_configuration(region, automaton, word)
    tape = ca1d.word_tape(list(word), padding=automaton.padding_state)
    oracle = ca1d.run_1d(rule, tape, steps)
    cfgs = run_hca(automaton, region, init, steps)
    report = EquivalenceReport(steps=steps, configurations=cfgs)

    guarded = ~emb._may_change(automaton, region)

    for t, cfg in enumerate(cfgs):
        w = region.tape_window(t)
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
        drift = np.flatnonzero((cfg.states != init.states) & guarded)
        report.stability_violations.extend((t, int(c)) for c in drift)
        if report.stability_violations:
            return report
    return report
