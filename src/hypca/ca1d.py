"""One-dimensional radius-1 cellular automata.

These are the source automata of the workbench: every transformation embeds
one of them into a tiling, and the finite simulator here doubles as the
verification oracle the embeddings are compared against.  A rule is a total
table over state triples (left, self, right).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .jsonfile import exactly, json_object, read_key


@dataclass(frozen=True)
class Rule1D:
    """An n-state transition table over (left, self, right) triples."""

    n: int
    table: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        tab = np.asarray(self.table, dtype=np.int64)
        if self.n < 1:
            raise ValueError("state count must be at least 1")
        if tab.shape != (self.n, self.n, self.n):
            raise ValueError(f"table shape {tab.shape} != {(self.n,) * 3}")
        if tab.min() < 0 or tab.max() >= self.n:
            raise ValueError("table outputs must be states")
        tab.setflags(write=False)
        object.__setattr__(self, "table", tab)

    def apply(self, x: int, s: int, y: int) -> int:
        return int(self.table[x, s, y])

    def states(self) -> range:
        return range(self.n)


def elementary(rule_number: int) -> Rule1D:
    """The two-state rule whose table entry for (a, b, c) is bit 4a+2b+c
    of the rule number."""
    if not 0 <= rule_number <= 255:
        raise ValueError("elementary rule numbers run 0..255")
    tab = np.zeros((2, 2, 2), dtype=np.int64)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                tab[a, b, c] = (rule_number >> (4 * a + 2 * b + c)) & 1
    return Rule1D(2, tab, name=f"elementary:{rule_number}")


def is_fixable(rule: Rule1D) -> tuple[bool, tuple[int, int] | None]:
    """Scan for a quiescent state q that is also kept by (u, q, q), with a
    second state u kept by (q, u, q).

    Returns the first such (q, u) in ascending order, or (False, None).
    """
    for q in rule.states():
        if rule.apply(q, q, q) != q:
            continue
        for u in rule.states():
            if u == q:
                continue
            if rule.apply(u, q, q) == q and rule.apply(q, u, q) == u:
                return True, (q, u)
    return False, None


def quiescent_states(rule: Rule1D) -> list[int]:
    return [s for s in rule.states() if rule.apply(s, s, s) == s]


@dataclass(frozen=True)
class Tape:
    """A finite window of cells on an infinite line of padding."""

    cells: tuple[int, ...]
    start: int = 0
    padding: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(int(c) for c in self.cells))

    @property
    def end(self) -> int:
        """One past the last stored position."""
        return self.start + len(self.cells)

    def window(self, lo: int, hi: int) -> np.ndarray:
        """The values at positions lo..hi-1."""
        out = np.full(max(hi - lo, 0), self.padding, dtype=np.int64)
        a, b = max(lo, self.start), min(hi, self.end)
        if a < b:
            out[a - lo:b - lo] = self.cells[a - self.start:b - self.start]
        return out


def step_1d(rule: Rule1D, tape: Tape) -> Tape:
    """One synchronous update; the window grows one cell on each side."""
    if not tape.cells:
        raise ValueError("tape window must be nonempty")
    q = tape.padding
    if rule.apply(q, q, q) != q:
        raise ValueError(f"padding state {q} is not quiescent for this "
                         f"rule: A({q},{q},{q}) = {rule.apply(q, q, q)}")
    # cell i of the grown window reads positions i - 1, i and i + 1
    w = tape.window(tape.start - 2, tape.end + 2)
    new = rule.table[w[:-2], w[1:-1], w[2:]]
    return Tape(tuple(new.tolist()), tape.start - 1, tape.padding)


def run_1d(rule: Rule1D, tape: Tape, steps: int) -> list[Tape]:
    """The trace of `steps` updates, initial tape included."""
    out = [tape]
    for _ in range(steps):
        tape = step_1d(rule, tape)
        out.append(tape)
    return out


def word_tape(word: list[int] | tuple[int, ...], padding: int = 0) -> Tape:
    """A word centered on position 0 (leaning left for even lengths)."""
    word = tuple(word)
    return Tape(word if word else (padding,), -(len(word) // 2), padding)


def random_rule(n: int, rng: np.random.Generator, *, quiescent_zero: bool = False,
                fixable: bool = False, name: str = "") -> Rule1D:
    """A uniformly random rule, optionally resampled until fixable and
    optionally forced to keep the all-zero background still."""
    for _ in range(10_000):
        tab = rng.integers(0, n, size=(n, n, n))
        if quiescent_zero:
            tab[0, 0, 0] = 0
        rule = Rule1D(n, tab, name=name)
        if not fixable or is_fixable(rule)[0]:
            return rule
    raise RuntimeError(f"no fixable rule found among {n}-state samples")


def rule_to_json(rule: Rule1D) -> str:
    """n plus the n^3 outputs in lexicographic (left, self, right) order."""
    return json.dumps({
        "n": rule.n,
        "name": rule.name,
        "table": [int(v) for v in rule.table.reshape(-1)],
    })


def rule_from_json(text: str) -> Rule1D:
    read = partial(read_key, json_object(text, "rule"), "rule")
    n = read("n", exactly(int))
    flat = read("table", lambda t: np.array([exactly(int)(v) for v in t],
                                            dtype=np.int64))
    if flat.shape != (n ** 3,):
        raise ValueError(f"expected {n ** 3} table entries, got {flat.size}")
    return Rule1D(n, flat.reshape(n, n, n), name=read("name", str, ""))


def parse_rule_spec(spec: str) -> Rule1D:
    """Either 'elementary:NNN' or the path of a rule file."""
    if spec.startswith("elementary:"):
        return elementary(int(spec.split(":", 1)[1]))
    with open(spec, "r", encoding="utf-8") as fh:
        return rule_from_json(fh.read())
