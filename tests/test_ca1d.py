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
