import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypca import ca1d

from symmetry_reference import value_at


def test_elementary_110_transitions():
    r = ca1d.elementary(110)
    expected = {
        (1, 1, 1): 0, (1, 1, 0): 1, (1, 0, 1): 1, (1, 0, 0): 0,
        (0, 1, 1): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 0,
    }
    for (x, s, y), out in expected.items():
        assert r.apply(x, s, y) == out


def test_elementary_bounds():
    assert ca1d.elementary(0).apply(1, 1, 1) == 0
    assert ca1d.elementary(255).apply(0, 0, 0) == 1
    with pytest.raises(ValueError):
        ca1d.elementary(256)
    with pytest.raises(ValueError):
        ca1d.elementary(-1)
    # a state outside the rule is refused, not read as another triple
    for triple in ((0, 0, 2), (0, -1, 0), (2, 0, 0)):
        with pytest.raises(ValueError, match="outside 0..1"):
            ca1d.elementary(110).apply(*triple)


def brute_fixable(rule):
    """Direct transition inspection, smallest witness first."""
    for q in rule.states():
        if rule.apply(q, q, q) != q:
            continue
        for u in rule.states():
            if u == q:
                continue
            if rule.apply(u, q, q) == q and rule.apply(q, u, q) == u:
                return True, (q, u)
    return False, None


def test_fixable_matches_brute_force_on_all_elementary_rules():
    for k in range(256):
        rule = ca1d.elementary(k)
        assert ca1d.is_fixable(rule) == brute_fixable(rule), k


def test_rule_110_fixable_with_smallest_witness():
    ok, witness = ca1d.is_fixable(ca1d.elementary(110))
    assert ok and witness == (0, 1)


def test_run_110_from_single_one():
    tape = ca1d.word_tape([1])
    rows = ca1d.run_1d(ca1d.elementary(110), tape, 4)
    # the live part of each row; the stored window also carries padding
    live = [((1,), 0), ((1, 1), -1), ((1, 1, 1), -2),
            ((1, 1, 0, 1), -3), ((1, 1, 1, 1, 1), -4)]
    for row, (cells, start) in zip(rows, live):
        got = tuple(value_at(row, p)
                    for p in range(start, start + len(cells)))
        assert got == cells
        assert value_at(row, start - 1) == 0
        assert value_at(row, start + len(cells)) == 0
        assert row.start <= start and row.end >= start + len(cells)


def test_tape_value_outside_window_is_padding():
    t = ca1d.Tape((1, 0, 1), -1, 0)
    assert t.window(-3, 5).tolist() == [0, 0, 1, 0, 1, 0, 0, 0]
    assert value_at(t, -1) == 1 and value_at(t, 1) == 1
    assert value_at(t, -2) == 0 and value_at(t, 5) == 0
    assert t.end == 2


def test_step_refuses_non_quiescent_padding():
    rule = ca1d.elementary(1)       # 000 -> 1, padding cannot hold still
    with pytest.raises(ValueError):
        ca1d.step_1d(rule, ca1d.word_tape([1]))


def _step_per_cell(rule, tape):
    """One update, one `rule.apply` per cell: the loop `step_1d` replaced,
    kept as its reference."""
    new = [
        rule.apply(value_at(tape, i - 1), value_at(tape, i),
                   value_at(tape, i + 1))
        for i in range(tape.start - 1, tape.end + 1)
    ]
    return ca1d.Tape(tuple(new), tape.start - 1, tape.padding)


def test_step_matches_per_cell_reference():
    rng = np.random.default_rng(1401)
    runs = 0
    while runs < 200:
        n = int(rng.integers(2, 5))
        rule = ca1d.random_rule(n, rng)
        quiet = ca1d.quiescent_states(rule)
        if not quiet:
            continue
        word = rng.integers(0, n, size=int(rng.integers(1, 9)))
        start, padding = int(rng.integers(-6, 6)), int(rng.choice(quiet))
        tape = ca1d.Tape(word, start, padding)
        for _ in range(5):
            got, want = ca1d.step_1d(rule, tape), _step_per_cell(rule, tape)
            assert got == want
            assert all(type(c) is int for c in got.cells)
            tape = got
        runs += 1


def test_step_errors_unchanged():
    """The refusals of a step; a padding that is not quiescent is named
    with the equality it fails."""
    rule = ca1d.elementary(110)
    with pytest.raises(ValueError, match="^tape window must be nonempty$"):
        ca1d.step_1d(rule, ca1d.Tape((), 0, 0))
    quiescent = (r"^padding state 1 is not quiescent for this rule: "
                 r"A\(1,1,1\) = 0$")
    with pytest.raises(ValueError, match=quiescent):
        ca1d.step_1d(rule, ca1d.Tape((1,), 0, 1))


def test_step_refuses_states_outside_the_rule():
    """A tape state outside the rule's 0..n-1 is refused, naming the
    state, its position and the rule's states: a 2-state rule's table
    read state 2 with an IndexError, and read state -1 as state 1."""
    rule = ca1d.elementary(110)
    for tape, position, state in ((ca1d.Tape((0, -1, 0)), 1, -1),
                                  (ca1d.word_tape([1, 2]), 0, 2),
                                  (ca1d.Tape((3, 0, -2), 5), 7, -2)):
        with pytest.raises(ValueError, match=(
                rf"^tape position {position} holds state {state}, "
                r"outside the rule's states 0\.\.1$")):
            ca1d.step_1d(rule, tape)


def test_identity_rule_keeps_word():
    rule = ca1d.elementary(204)     # new state = own state
    rows = ca1d.run_1d(rule, ca1d.word_tape([1, 0, 1]), 3)
    for row in rows:
        assert value_at(row, -1) == 1 and value_at(row, 0) == 0 \
            and value_at(row, 1) == 1


@given(st.integers(0, 255), st.lists(st.integers(0, 1), min_size=1,
                                     max_size=6), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_window_grows_one_cell_per_side(number, word, steps):
    rule = ca1d.elementary(number)
    tape = ca1d.word_tape(word)
    if rule.apply(0, 0, 0) != 0:
        return
    rows = ca1d.run_1d(rule, tape, steps)
    for t, row in enumerate(rows):
        assert row.start == tape.start - t
        assert len(row.cells) == len(word) + 2 * t


def test_random_rule_constraints():
    rng = np.random.default_rng(7)
    for _ in range(20):
        r = ca1d.random_rule(3, rng, quiescent_zero=True)
        assert r.apply(0, 0, 0) == 0
    for _ in range(20):
        r = ca1d.random_rule(3, rng, fixable=True)
        ok, witness = ca1d.is_fixable(r)
        assert ok and witness is not None


def test_rule_json_round_trip():
    rng = np.random.default_rng(3)
    r = ca1d.random_rule(3, rng, name="sample")
    r2 = ca1d.rule_from_json(ca1d.rule_to_json(r))
    assert r2.n == r.n and r2.name == r.name
    assert np.array_equal(r2.table, r.table)


def test_parse_rule_spec(tmp_path):
    assert ca1d.parse_rule_spec("elementary:110").apply(0, 1, 1) == 1
    path = tmp_path / "rule.json"
    path.write_text(ca1d.rule_to_json(ca1d.elementary(90)))
    assert np.array_equal(ca1d.parse_rule_spec(str(path)).table,
                          ca1d.elementary(90).table)
    with pytest.raises(ValueError):
        ca1d.parse_rule_spec("elementary:999")


def test_rule_keeps_its_own_copy_of_the_callers_table():
    """A rule copies the outputs it is given: the caller's array stays
    writeable and unchanged, and a later write to it does not reach the
    rule.  Its own `table` is read-only."""
    given = ca1d.elementary(110).table.copy()
    rule = ca1d.Rule1D(2, given)
    assert given.flags.writeable
    assert given.tolist() == ca1d.elementary(110).table.tolist()
    given[0, 0, 0] = 1
    assert rule.apply(0, 0, 0) == 0 and rule.table[0, 0, 0] == 0
    assert not rule.table.flags.writeable
    assert rule.table.dtype == np.int64 and rule.table.shape == (2, 2, 2)
    nested = [[[0, 1], [1, 1]], [[0, 1], [1, 0]]]
    assert ca1d.Rule1D(2, nested).outputs == (0, 1, 1, 1, 0, 1, 1, 0)
    assert nested == [[[0, 1], [1, 1]], [[0, 1], [1, 0]]]


def test_rule_refuses_outputs_that_are_no_ints():
    """Floats and bools are refused, as the rule file's reader refuses
    them, rather than truncated to states; so is a table of another
    shape."""
    zeros = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    for table, bad in ((np.full((2, 2, 2), 0.7), 0.7),
                       (np.zeros((2, 2, 2), dtype=bool), False),
                       ([[[0, 0], [0, 0]], [[0, 0], [0, True]]], True),
                       ([[[0, 0], [0, 0]], [[0, 0], [0, 1.0]]], 1.0),
                       ([[[0, 0], [0, 0]], [[0, 0], [0, "1"]]], "1")):
        with pytest.raises(ValueError, match=re.escape(
                f"table outputs must be ints, not {bad!r}")):
            ca1d.Rule1D(2, table)
    for table in (zeros[0], [*zeros, zeros[0]], [zeros[0], [[0, 0], [0]]],
                  np.zeros((2, 2, 2, 1), dtype=np.int64)):
        with pytest.raises(ValueError):
            ca1d.Rule1D(2, table)
    with pytest.raises(ValueError, match="^table outputs must be states$"):
        ca1d.Rule1D(2, [*zeros[:1], [[0, 0], [0, 2]]])
    assert ca1d.Rule1D(2, np.zeros((2, 2, 2), dtype=np.uint8)).outputs \
        == (0,) * 8


def test_rules_compare_and_hash_by_value():
    """Two rules with the same state count, outputs and name are equal
    and hash alike, whatever form their table was given in."""
    a, b = ca1d.elementary(110), ca1d.elementary(110)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != ca1d.elementary(30)
    assert ca1d.Rule1D(2, a.table, name=a.name) == a
    assert ca1d.Rule1D(2, a.table.tolist()) != a         # its name differs
    assert ca1d.rule_from_json(ca1d.rule_to_json(a)) == a


def test_rule_file_name_must_be_a_string():
    """A rule file's `name` is a JSON string, or absent; any other value
    is refused naming the key."""
    doc = json.loads(ca1d.rule_to_json(ca1d.elementary(110)))
    for name in ({"x": 1}, [1, 2], 5, True, None):
        with pytest.raises(ValueError, match="^rule key 'name'"):
            ca1d.rule_from_json(json.dumps(dict(doc, name=name)))
    del doc["name"]
    assert ca1d.rule_from_json(json.dumps(doc)).name == ""


def test_elementary_spec_takes_decimal_digits_only():
    """`elementary:N` takes N as decimal digits in 0..255; anything else
    is refused with a message that names the option and the form."""
    for spec in ("elementary:abc", "elementary: 30", "elementary:+30",
                 "elementary:3_0", "elementary:", "elementary:-1",
                 "elementary:256", "elementary:30 ", "elementary:３０",
                 "elementary:" + "9" * 5000):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"--rule {spec}: give elementary:N with N in 0..255, "
                "or a rule file") + "$"):
            ca1d.parse_rule_spec(spec)
    with pytest.raises(ValueError, match="^--check-oracle elementary:x: "):
        ca1d.parse_rule_spec("elementary:x", "--check-oracle")
    for spec, number in (("elementary:0", 0), ("elementary:255", 255),
                         ("elementary:030", 30), ("elementary:000", 0)):
        assert ca1d.parse_rule_spec(spec) == ca1d.elementary(number)
