"""One-dimensional radius-1 cellular automata.

These are the source automata of the workbench: every transformation embeds
one of them into a tiling, and the finite simulator here doubles as the
verification oracle the embeddings are compared against.  A rule is a total
table over state triples (left, self, right), held as plain ints, so that
making and writing one needs no numpy; numpy is imported only where an
array is made.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property, partial
from typing import TYPE_CHECKING

from .jsonfile import exactly, json_object, read_key

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True, init=False)
class Rule1D:
    """An n-state transition table over (left, self, right) triples.

    It keeps its n**3 outputs as a tuple of ints in lexicographic
    (left, self, right) order, as a rule file stores them, so a rule
    compares and hashes by value.  `table` holds them as a read-only
    (n, n, n) int64 array, made on first read, or at once from a numpy
    array."""

    n: int
    outputs: tuple[int, ...]
    name: str = ""

    def __init__(self, n: int, table, name: str = "") -> None:
        """`table[left][self][right]` is the output: an (n, n, n) integer
        array or nested lists of ints, which the rule copies.  An output
        that is no int, a bool or a float among them, or no state, is
        refused with a ValueError."""
        if n < 1:
            raise ValueError("state count must be at least 1")
        array = hasattr(table, "tolist")
        level = [table.tolist() if array else table]
        try:
            for _ in range(3):
                if any(len(row) != n for row in level):
                    raise TypeError
                level = [v for row in level for v in row]
        except TypeError:
            raise ValueError(f"table is not of shape {(n,) * 3}") from None
        outputs = tuple(level)
        for v in outputs:
            if type(v) is not int:
                raise ValueError(f"table outputs must be ints, not {v!r}")
            if not 0 <= v < n:
                raise ValueError("table outputs must be states")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "name", name)
        if array:
            # a caller with an array has numpy loaded: make the table now,
            # not in the first computation that reads it
            self.table

    @cached_property
    def table(self) -> np.ndarray:
        """The outputs as a read-only (n, n, n) int64 array."""
        import numpy as np

        tab = np.array(self.outputs, dtype=np.int64).reshape((self.n,) * 3)
        tab.setflags(write=False)
        return tab

    def apply(self, x: int, s: int, y: int) -> int:
        n = self.n
        if not (0 <= x < n and 0 <= s < n and 0 <= y < n):
            raise ValueError(f"({x}, {s}, {y}) holds a state outside "
                             f"0..{n - 1}")
        return self.outputs[(x * n + s) * n + y]

    def states(self) -> range:
        return range(self.n)


def elementary(rule_number: int) -> Rule1D:
    """The two-state rule whose table entry for (a, b, c) is bit 4a+2b+c
    of the rule number."""
    if not 0 <= rule_number <= 255:
        raise ValueError("elementary rule numbers run 0..255")
    return Rule1D(2, [[[(rule_number >> (4 * a + 2 * b + c)) & 1
                        for c in range(2)] for b in range(2)]
                      for a in range(2)], name=f"elementary:{rule_number}")


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
        import numpy as np

        out = np.full(max(hi - lo, 0), self.padding, dtype=np.int64)
        a, b = max(lo, self.start), min(hi, self.end)
        if a < b:
            out[a - lo:b - lo] = self.cells[a - self.start:b - self.start]
        return out


def step_1d(rule: Rule1D, tape: Tape) -> Tape:
    """One synchronous update; the window grows one cell on each side.
    A tape that holds a state outside the rule's 0..n-1 is refused with a
    ValueError naming the state and its position."""
    if not tape.cells:
        raise ValueError("tape window must be nonempty")
    lo, hi = min(tape.cells), max(tape.cells)
    if lo < 0 or hi >= rule.n:
        s = lo if lo < 0 else hi
        raise ValueError(f"tape position {tape.start + tape.cells.index(s)} "
                         f"holds state {s}, outside the rule's states "
                         f"0..{rule.n - 1}")
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
        "table": list(rule.outputs),
    })


def rule_from_json(text: str) -> Rule1D:
    read = partial(read_key, json_object(text, "rule"), "rule")
    n = read("n", exactly(int))
    flat = read("table", lambda t: [exactly(int)(v) for v in t])
    if len(flat) != n ** 3:
        raise ValueError(f"expected {n ** 3} table entries, got {len(flat)}")
    rows = [flat[i:i + n] for i in range(0, len(flat), n)]
    return Rule1D(n, [rows[i:i + n] for i in range(0, len(rows), n)],
                  name=read("name", exactly(str), ""))


# the number of an elementary rule spec: decimal digits, leading zeros
# aside at most three, so that no sign, space or underscore passes
_ELEMENTARY_NUMBER = re.compile(r"0*([0-9]{1,3})")


def parse_rule_spec(spec: str, option: str = "--rule") -> Rule1D:
    """Either 'elementary:N', N in 0..255, or the path of a rule file.  A
    malformed N is refused with a ValueError naming `option`, the command
    line option that gave the spec."""
    if spec.startswith("elementary:"):
        number = _ELEMENTARY_NUMBER.fullmatch(spec[len("elementary:"):])
        if number is None or int(number[1]) > 255:
            raise ValueError(f"{option} {spec}: give elementary:N with N "
                             "in 0..255, or a rule file")
        return elementary(int(number[1]))
    with open(spec, "r", encoding="utf-8") as fh:
        return rule_from_json(fh.read())
