"""Correctness checks for the benchmark's cases.

Every check compares a program output with something computed here, apart
from the program (a 1D run from the rule table, an XML parse, a count
formula), or tests a property the construction must have (symmetric
adjacency, off-line cells holding still).  Each returns None when the
output passes and a one-line reason when it does not.
"""
from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np

ROTATIONS = {"pentagrid": 5, "heptagrid": 7, "dodecagrid": 60}


def reference_run(table: np.ndarray, word, padding: int, steps: int,
                  half: int) -> np.ndarray:
    """States at positions -half..half for times 0..steps of the 1D rule
    `table[left, self, right]`, the word placed from position
    -(len(word) // 2) on a tape of `padding`.

    The tape is computed wide enough that its fixed ends cannot reach the
    returned window within `steps` steps.
    """
    table = np.asarray(table)
    wide = half + steps + len(word) + 2
    tape = np.full(2 * wide + 1, padding, dtype=np.int64)
    start = -(len(word) // 2)
    for i, a in enumerate(word):
        tape[wide + start + i] = int(a)
    rows = [tape.copy()]
    for _ in range(steps):
        nxt = tape.copy()
        nxt[1:-1] = table[tape[:-2], tape[1:-1], tape[2:]]
        tape = nxt
        rows.append(tape.copy())
    return np.stack(rows)[:, wide - half:wide + half + 1]


def check_trace(rows, reference: np.ndarray) -> str | None:
    """Compare tape rows (time, start, letters) with a reference from
    `reference_run`, whose window -half..half is the region's trusted
    window at time 0 (half = halfwidth + radius).  The window shrinks by
    one cell on each side per step, so row t must cover exactly
    -(half - t)..half - t."""
    if len(rows) != reference.shape[0]:
        return f"trace has {len(rows)} rows, expected {reference.shape[0]}"
    half = reference.shape[1] // 2
    for t, (time, start, letters) in enumerate(rows):
        if time != t:
            return f"trace row {t} is labelled time {time}"
        w = half - t
        if start != -w or len(letters) != 2 * w + 1:
            return (f"trace row {t} covers {start}..{start + len(letters) - 1}"
                    f", expected the trusted window {-w}..{w}")
        want = reference[t, half + start:half - start + 1]
        got = np.asarray(letters)
        if not np.array_equal(got, want):
            p = int(np.nonzero(got != want)[0][0]) + start
            return (f"tape differs from the 1D run at t={t} position {p}: "
                    f"expected {want[p - start]}, got {got[p - start]}")
    return None


def parse_trace_text(text: str):
    """Rows of a `simulate` trace file: 'time<TAB>start<TAB>letters'."""
    rows = []
    for line in text.splitlines():
        t, start, letters = line.split("\t")
        rows.append((int(t), int(start),
                     tuple(int(v) for v in letters.split())))
    return rows


def check_region(adjacency: np.ndarray, dist: np.ndarray,
                 radius: int) -> str | None:
    """Adjacency is symmetric, and every cell closer than the radius to
    the central segment has all its neighbours."""
    adj = np.asarray(adjacency)
    n = adj.shape[0]
    back = adj[np.clip(adj, 0, None)]                 # (n, p, p)
    ok = (adj < 0) | (back == np.arange(n)[:, None, None]).any(axis=2)
    if not ok.all():
        c, s = np.argwhere(~ok)[0]
        return f"cell {c} side {s} points at a cell that does not point back"
    inner = np.asarray(dist) < radius
    if (adj[inner] < 0).any():
        c = int(np.nonzero(inner & (adj < 0).any(axis=1))[0][0])
        return f"cell {c} at distance {dist[c]} < {radius} lacks a neighbour"
    return None


def check_still(initial: np.ndarray, later, may_change: np.ndarray
                ) -> str | None:
    """Cells outside `may_change` keep their initial state at every time."""
    fixed = ~np.asarray(may_change)
    for t, states in enumerate(later):
        moved = (np.asarray(states) != initial) & fixed
        if moved.any():
            return (f"off-line cell {int(np.nonzero(moved)[0][0])} "
                    f"changed by t={t}")
    return None


def expected_rule_count(grid: str, n_letters: int, free_slots: int) -> int:
    """|rotations| x n^(k+1): every alignment of the pattern, every letter
    for the cell itself and for each of the k non-fixed slots."""
    return ROTATIONS[grid] * n_letters ** (free_slots + 1)


def check_svg(text: str, lo: int, hi: int) -> str | None:
    """The SVG parses as XML and holds between lo and hi paths."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as e:
        return f"SVG does not parse: {e}"
    paths = sum(1 for el in root.iter() if el.tag.endswith("path"))
    if not lo <= paths <= hi:
        return f"SVG has {paths} paths, expected {lo}..{hi}"
    return None
