import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypca import ca1d, embed, engine
from hypca import symmetry as sym

import symmetry_reference as ref

GOLDEN = Path(__file__).parent / "golden"


def test_extra_state_counts(rule110):
    for grid in ("pentagrid", "heptagrid", "dodecagrid"):
        b = embed.embed_extra_state(rule110, grid)
        assert b.n_states == 3
        assert b.blue == 2 and b.letters == range(2)


def test_compact_state_counts(rule110):
    for grid in ("pentagrid", "heptagrid", "dodecagrid"):
        b = embed.embed_compact(rule110, grid)
        assert b.n_states == 2
        assert b.blue is None and b.letters == range(2)


def test_extra_pattern_layout(rule110):
    b = embed.embed_extra_state(rule110, "pentagrid")
    p = b.pattern
    assert (p.right_index - p.left_index) % 5 == 3
    assert sum(s.kind == "fixed" for s in p.slots) == 3
    b = embed.embed_extra_state(rule110, "heptagrid")
    p = b.pattern
    assert (p.right_index - p.left_index) % 7 == 4
    assert sum(s.kind == "fixed" for s in p.slots) == 5
    b = embed.embed_extra_state(rule110, "dodecagrid")
    p = b.pattern
    assert p.left_index == 1 and p.right_index == 4
    assert p.slots[0].kind == "letter"
    assert sum(s.kind == "fixed" for s in p.slots) == 9


def test_compact_pattern_layout(rule110):
    b = embed.embed_compact(rule110, "pentagrid")
    kinds = [(s.kind, s.state) for s in b.pattern.slots]
    assert kinds == [("left", None), ("fixed", 1), ("fixed", 0),
                     ("right", None), ("fixed", 0)]
    b = embed.embed_compact(rule110, "dodecagrid")
    marked = {i for i, s in enumerate(b.pattern.slots)
              if s.kind == "fixed" and s.state == 1}
    assert marked == {0, 3, 9, 10}
    assert b.pattern.left_index == 1 and b.pattern.right_index == 4


def test_pentagrid_compact_needs_fixable():
    with pytest.raises(embed.NotFixable):
        embed.embed_compact(ca1d.elementary(30), "pentagrid")
    # fine on the heptagrid, which has no fixability gate
    embed.embed_compact(ca1d.elementary(30), "heptagrid")


@pytest.mark.parametrize("grid", ["heptagrid", "dodecagrid"])
def test_compact_background_is_the_least_quiescent_state(region_of, grid):
    """Off the pentagrid the compact background q is the least quiescent
    state and the marker the least other state.  The heptagrid refuses a
    rule with no quiescent state, naming A(q,q,q)=q; the dodecagrid takes
    (0, 1) for it.  Every automaton built from the 256 elementary rules
    verifies clean: 192 on the heptagrid, where 64 rules have no
    quiescent state, and all 256 on the dodecagrid."""
    r = region_of(grid, 3, 2)
    built = 0
    for k in range(256):
        rule = ca1d.elementary(k)
        quiescent = ca1d.quiescent_states(rule)
        if not quiescent and grid == "heptagrid":
            with pytest.raises(embed.NotFixable, match=re.escape("A(q,q,q)=q")):
                embed.embed_compact(rule, grid)
            continue
        b = embed.embed_compact(rule, grid)
        q = quiescent[0] if quiescent else 0
        assert (b.padding_state, b.marker) == (q, 1 - q), k
        init = engine.init_configuration(r, b, [1, 0, 1])
        assert embed.verify_unique_applicability(b, r, init, 10).ok, k
        built += 1
    assert built == {"heptagrid": 192, "dodecagrid": 256}[grid]


def test_compact_needs_two_states():
    one = ca1d.Rule1D(1, np.zeros((1, 1, 1), dtype=np.int64))
    with pytest.raises(ValueError):
        embed.embed_compact(one, "heptagrid")
    # the extra-state construction accepts a single-letter source
    b = embed.embed_extra_state(one, "pentagrid")
    assert b.n_states == 2


EXPANSION_SIZES = {
    ("extra", "pentagrid"): 40,
    ("extra", "heptagrid"): 56,
    ("extra", "dodecagrid"): 960,
    ("compact", "pentagrid"): 40,
    ("compact", "heptagrid"): 56,
    ("compact", "dodecagrid"): 480,
}


def test_expansion_sizes_and_invariance(all_six):
    for key, b in all_six.items():
        rules = embed.expanded_rules(b)
        assert len(rules) == EXPANSION_SIZES[key], key
        assert embed.check_invariance(b) == [], key


def test_expansion_contains_action_rule(rule110):
    b = embed.embed_compact(rule110, "pentagrid")
    rules = {(c.self_state, c.neighbor_states): out
             for c, out in ref.unpack(embed.expanded_rules(b),
                                            *ref.coding(b))}
    # the identity alignment of the pattern with both letters 1
    assert rules[(1, (1, 1, 0, 1, 0))] == rule110.apply(1, 1, 1)


def test_match_unique_on_tape_context(rule110):
    b = embed.embed_extra_state(rule110, "pentagrid")
    blue = b.blue
    nb = (1, blue, blue, 0, blue)       # left letter 1, right letter 0
    assert ref.match_alignments(b, 1, nb) == [(1, 0)]
    assert ref.match_alignments(b, blue, nb) == []
    # a context with too few letters cannot match
    assert ref.match_alignments(b, 1, (blue,) * 5) == []


@given(st.integers(0, 4), st.integers(0, 1),
       st.lists(st.integers(0, 1), min_size=2, max_size=2))
def test_match_readings_rotation_invariant_2d(k, self_state, letters):
    b = embed.embed_compact(ca1d.elementary(110), "pentagrid")
    nb = (letters[0], 1, 0, letters[1], 0)
    rotated = tuple(nb[(i + k) % 5] for i in range(5))
    assert sorted(ref.match_alignments(b, self_state, nb)) == \
        sorted(ref.match_alignments(b, self_state, rotated))


@given(st.integers(0, 59), st.integers(0, 1),
       st.lists(st.integers(0, 1), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_match_readings_rotation_invariant_3d(k, self_state, letters):
    b = embed.embed_extra_state(ca1d.elementary(110), "dodecagrid")
    nb = [b.blue] * 12
    nb[0], nb[1], nb[4] = letters
    m = sym.all_motions()[k]
    rotated = tuple(nb[m[i]] for i in range(12))
    assert sorted(ref.match_alignments(b, self_state, tuple(nb))) == \
        sorted(ref.match_alignments(b, self_state, rotated))


def test_central_row_goldens(rule110):
    assert embed.central_context_row(
        embed.embed_compact(rule110, "pentagrid")) == "Y | B W Z W X"
    assert embed.central_context_row(
        embed.embed_compact(rule110, "heptagrid")) == "Y | X B W B Z W W"


# frozen admissible-context rows, as (self, neighbours); neighbour order
# is only meaningful up to rotation, so rows are compared by
# rotation-canonical content
TABLE_ROWS_PENTAGRID = [
    ("Y", ("B", "W", "Z", "W", "X")),
    ("B", ("Y", "W", "W", "W", "W")),
    ("W", ("B", "W", "W", "W", "W")),
    ("W", ("Y", "W", "W", "W", "B")),
    ("B", ("W", "W", "W", "W", "Z")),
    ("Z", ("Y", "B", "W", "T", "W")),
    ("W", ("Z", "W", "W", "W", "W")),
    ("W", ("Y", "W", "W", "W", "W")),
    ("W", ("W", "W", "W", "W", "X")),
    ("X", ("Y", "W", "U", "B", "W")),
    ("W", ("X", "W", "W", "W", "B")),
]
TABLE_ROWS_HEPTAGRID = [
    ("Y", ("X", "B", "W", "B", "Z", "W", "W")),
    ("X", ("Y", "W", "W", "U", "B", "W", "B")),
    ("B", ("Y", "X", "W", "W", "W", "W", "W")),
    ("W", ("Y", "B", "W", "W", "W", "W", "B")),
    ("B", ("Y", "W", "W", "W", "W", "W", "Z")),
    ("Z", ("Y", "B", "W", "B", "T", "W", "W")),
    ("W", ("Y", "Z", "W", "W", "W", "W", "W")),
    ("W", ("Y", "W", "W", "W", "W", "W", "X")),
]


def _canon_row(self_name, nbrs):
    return f"{self_name} | " + " ".join(ref.canonical(tuple(nbrs)))


@pytest.mark.parametrize("grid,table,golden", [
    ("pentagrid", TABLE_ROWS_PENTAGRID, "table2_pentagrid.txt"),
    ("heptagrid", TABLE_ROWS_HEPTAGRID, "table3_heptagrid.txt"),
])
def test_symbolic_rows_cover_frozen_rows(region_of, rule110, grid,
                                         table, golden):
    b = embed.embed_compact(rule110, grid)
    rows = ref.symbolic_rows(b, region_of(grid, 3, 2))
    generated = set(rows)
    for self_name, nbrs in table:
        assert _canon_row(self_name, nbrs) in generated, (self_name, nbrs)
    assert "\n".join(rows) + "\n" == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("method,grid", [
    ("extra", "pentagrid"), ("extra", "heptagrid"), ("extra", "dodecagrid"),
    ("compact", "pentagrid"), ("compact", "heptagrid"),
    ("compact", "dodecagrid"),
])
def test_uniqueness_scan_clean(region_of, all_six, method, grid):
    b = all_six[(method, grid)]
    r = region_of(grid, 3, 1 if grid == "dodecagrid" else 2)
    init = engine.init_configuration(r, b, [1])
    report = embed.verify_unique_applicability(b, r, init, 4)
    assert report.ok, report.text()
    assert report.matched_cells > 0


def test_unrepaired_solid_pattern_is_ambiguous(region_of, rule110):
    """Pinning the reflected-row slot kills the free letter that breaks the
    left/right symmetry; the context then reads both ways."""
    good = embed.embed_extra_state(rule110, "dodecagrid")
    slots = list(good.pattern.slots)
    slots[0] = embed.fixed(good.blue)
    bad = dataclasses.replace(
        good, pattern=embed.ContextPattern(tuple(slots)), name="unrepaired")
    r = region_of("dodecagrid", 3, 1)
    init = engine.init_configuration(r, good, [1])
    for m in r.guideline.mirror_ids:
        if m >= 0:
            init.states[int(m)] = good.blue
    report = embed.verify_unique_applicability(bad, r, init, 2)
    assert any(v.kind == "ambiguous" for v in report.violations)
    # the engine names the first complete cell whose readings disagree,
    # with the readings and states the reference matcher finds
    split = []
    for c in np.flatnonzero(~(r.adjacency < 0).any(axis=1)).tolist():
        nb = tuple(init.states[r.adjacency[c]].tolist())
        readings, outs = ref.reading_outcomes(bad, int(init.states[c]), nb)
        if len(outs) > 1:
            split.append(f"cell {c} at time 0: readings {readings} "
                         f"disagree, states {outs}")
    with pytest.raises(engine.AmbiguousMatch,
                       match=f"^{re.escape(split[0])}$"):
        engine.run_hca(bad, r, init, 1)


def test_automaton_json_needs_one_pattern(all_six):
    doc = json.loads(embed.automaton_to_json(all_six[("extra", "pentagrid")]))
    assert len(doc["patterns"]) == 1
    doc["patterns"] *= 2
    with pytest.raises(ValueError, match="one admissible pattern"):
        embed.automaton_from_json(json.dumps(doc))


def test_automaton_json_round_trip(all_six):
    for b in all_six.values():
        text = embed.automaton_to_json(b)
        b2 = embed.automaton_from_json(text)
        assert embed.automaton_to_json(b2) == text
        assert b2.grid == b.grid and b2.n_states == b.n_states
        assert b2.pattern == b.pattern
        assert b2.letters == b.letters and b2.kind == b.kind
        assert b2.blue == b.blue
        assert b2.padding_state == b.padding_state
        assert np.array_equal(b2.action.table, b.action.table)


def test_marker_scheme_key_is_ignored(all_six):
    """Files once named a compact automaton's marker set by the key
    `marker_scheme`, None for the extra kind; the layout is the
    pattern's, so a file that holds the key loads to the automaton the
    file without it holds."""
    for (method, grid), b in all_six.items():
        text = embed.automaton_to_json(b)
        doc = json.loads(text)
        assert "marker_scheme" not in doc
        doc["marker_scheme"] = None if method == "extra" \
            else f"compact_{grid}"
        old = embed.automaton_from_json(json.dumps(doc))
        assert embed.automaton_to_json(old) == text
        assert old.pattern == b.pattern


def test_older_files_with_the_derived_keys_load(all_six):
    """Files once stored the state count, the state map, the letters and
    the added state, which the kind and the action fix.  A file that
    holds them as they were written, or edited to other values, loads to
    the automaton the file without them holds."""
    for (method, _), b in all_six.items():
        text = embed.automaton_to_json(b)
        doc = json.loads(text)
        n, extra = b.action.n, method == "extra"
        written = {"n_states": n + extra,
                   "state_map": {str(s): s for s in range(n)},
                   "letters": list(range(n)),
                   "blue": n if extra else None}
        edited = {"n_states": 9, "state_map": {"0": 1, "1": 0},
                  "letters": [1], "blue": 0.5}
        for keys in (written, edited):
            old = embed.automaton_from_json(json.dumps(dict(doc, **keys)))
            assert embed.automaton_to_json(old) == text, (method, keys)


@pytest.mark.parametrize("grid", ["pentagrid", "heptagrid", "dodecagrid"])
def test_extra_pads_every_rule_with_a_state(region_of, grid):
    """The extra construction pads the tape with the least quiescent
    state, or 0 for the 64 elementary rules that have none.  All 256
    automata verify clean and load back from their own file."""
    r = region_of(grid, 3, 2)
    for k in range(256):
        rule = ca1d.elementary(k)
        quiescent = ca1d.quiescent_states(rule)
        b = embed.embed_extra_state(rule, grid)
        assert b.padding_state == (quiescent[0] if quiescent else 0), k
        text = embed.automaton_to_json(b)
        assert embed.automaton_to_json(embed.automaton_from_json(text)) \
            == text, k
        init = engine.init_configuration(r, b, [1, 0, 1])
        assert embed.verify_unique_applicability(b, r, init, 10).ok, k


def test_automaton_refuses_a_padding_that_is_no_source_state():
    """An automaton checks its padding as its file's reader does: a
    state past the source's, the added state among them, None, a bool
    or a float is refused with a ValueError naming `padding_state`."""
    b = embed.embed_extra_state(ca1d.elementary(110), "pentagrid")
    for value in (5, 2, -1, None, True, 1.0):
        with pytest.raises(ValueError, match=f"^padding_state {value!r} "):
            dataclasses.replace(b, padding_state=value)
    assert dataclasses.replace(b, padding_state=1).padding_state == 1


def test_automaton_json_keys_must_agree(all_six):
    """Both kinds pad the tape with a source state: a null padding, the
    added state, a JSON boolean or float are refused naming the key."""
    doc = json.loads(embed.automaton_to_json(all_six[("compact",
                                                      "heptagrid")]))
    extra = json.loads(embed.automaton_to_json(all_six[("extra",
                                                        "heptagrid")]))
    for d, key, value in ((doc, "padding_state", None),
                          (extra, "padding_state", None),
                          (extra, "padding_state", 2),
                          (extra, "padding_state", 0.0),
                          (extra, "padding_state", False)):
        with pytest.raises(ValueError, match=f"^automaton key '{key}'"):
            embed.automaton_from_json(json.dumps(dict(d, **{key: value})))
    # a pattern that pins only the background has no marker state
    only_background = [dict(s, state=0) if s["kind"] == "fixed" else s
                       for s in doc["patterns"][0]]
    with pytest.raises(ValueError, match="^automaton key 'patterns'"):
        embed.automaton_from_json(json.dumps(dict(
            doc, patterns=[only_background])))


def test_automaton_json_checks_pattern_slots(all_six):
    """The pattern has a slot per side, each slot is of a known kind, a
    fixed slot pins a state of the automaton, the added state among
    them, and no other slot pins one."""
    doc = json.loads(embed.automaton_to_json(all_six[("extra",
                                                      "pentagrid")]))
    good = doc["patterns"][0]
    assert [s["kind"] for s in good[:2]] == ["left", "fixed"]
    for i, bad in ((1, dict(state=None)), (1, dict(state="2")),
                   (1, dict(state=3)), (1, dict(kind="bogus")),
                   (0, dict(state=0)), (0, dict(kind=None))):
        slots = list(good)
        slots[i] = dict(good[i], **bad)
        with pytest.raises(ValueError, match="^automaton key 'patterns'"):
            embed.automaton_from_json(json.dumps(dict(doc,
                                                      patterns=[slots])))
    # a slot per side of the cell: one too few or one too many
    for slots in (good[:4], good + good[1:2]):
        with pytest.raises(ValueError, match="^automaton key 'patterns': a "
                                             "pentagrid pattern has 5 slots"):
            embed.automaton_from_json(json.dumps(dict(doc,
                                                      patterns=[slots])))
    # the compact kind adds no state
    compact = json.loads(embed.automaton_to_json(all_six[("compact",
                                                          "pentagrid")]))
    slots = [dict(s, state=2) if s["kind"] == "fixed" else s
             for s in compact["patterns"][0]]
    with pytest.raises(ValueError, match="^automaton key 'patterns': a fixed "
                                         "slot pins a state in 0..1, not 2$"):
        embed.automaton_from_json(json.dumps(dict(compact, patterns=[slots])))


def test_letters_and_marker_follow_the_pattern(all_six):
    """The letters are the source states; the marker is the state the
    compact pattern pins besides the background, and nothing else has
    one."""
    for (method, _), b in all_six.items():
        assert b.letters == b.action.states()
        if method == "compact":
            assert {s.state for s in b.pattern.slots if s.kind == "fixed"} \
                == {b.padding_state, b.marker}
        else:
            with pytest.raises(ValueError, match="pins no state"):
                b.marker
    b = all_six[("compact", "heptagrid")]
    flat = dataclasses.replace(b, pattern=embed.ContextPattern(tuple(
        embed.fixed(0) if s.kind == "fixed" else s for s in b.pattern.slots)))
    with pytest.raises(ValueError, match="pins no state"):
        flat.marker


def test_pattern_needs_left_and_right():
    with pytest.raises(ValueError):
        embed.ContextPattern((embed.LEFT,) * 5)
    with pytest.raises(ValueError):
        embed.ContextPattern((embed.fixed(0),) * 5)


def test_verify_judges_every_complete_line_cell(region_of, rule110):
    """Every complete line cell must have a reading, out to the rim: the
    complete chain cells are the tape positions the region certifies
    after one step, all within distance radius - 1 of the segment, so
    none reads past what the region certifies."""
    b = embed.embed_extra_state(rule110, "pentagrid")
    r = region_of("pentagrid", 3, 2)
    gl = r.guideline
    init = engine.init_configuration(r, b, [1])
    init.states[gl.cell_ids] = b.blue  # no reading has a blue self state
    report = embed.verify_unique_applicability(b, r, init, 0)
    w = r.tape_window(1)
    assert {v.cell for v in report.violations
            if v.kind == "line-unmatched"} == \
        {gl.id_at(p) for p in range(-w, w + 1)}
    assert r.dist[gl.id_at(w)] == r.radius - 1


def test_verify_flags_off_line_cell_one_reading_would_move(region_of,
                                                           rule110):
    """An off-line cell whose readings give its own state and another one
    is reported as changed, not only as ambiguous."""
    b = embed.embed_compact(rule110, "pentagrid")
    r = region_of("pentagrid", 3, 2)
    init = engine.init_configuration(r, b, [1])
    on_line = np.zeros(r.n_cells, dtype=bool)
    on_line[r.guideline.cell_ids] = True
    complete = ~(r.adjacency < 0).any(axis=1)
    o = int(np.flatnonzero(complete & ~on_line & (init.states == 0))[0])
    ctx = b.context_table
    code = ctx.encode(init.states, r.complete_contexts[[r.complete_index[o]]])
    # that one context, read (0, 0), which keeps state 0, and (0, 1),
    # which gives A(0, 0, 1) = 1
    hand = dataclasses.replace(b)
    vars(hand)["context_table"] = embed.ContextTable(
        base=ctx.base, arity=ctx.arity, codes=code, readings=np.array([2]),
        starts=np.array([0]), assignments=np.array([0, 1]),
        single=np.array([False]), least=np.zeros(0, np.int32),
        row_index=None)
    report = embed.verify_unique_applicability(hand, r, init, 0)
    kinds = {v.kind for v in report.violations if v.cell == o}
    assert kinds == {"ambiguous", "off-line-changed"}


def test_automata_compare_and_hash_by_value(all_six):
    """An automaton compares and hashes by its fields, its action's
    outputs among them, so two built alike are equal."""
    rule = ca1d.elementary(110)
    for (method, grid), b in all_six.items():
        build = embed.embed_extra_state if method == "extra" \
            else embed.embed_compact
        again = build(ca1d.elementary(110), grid)
        assert again == b and hash(again) == hash(b), (method, grid)
        assert embed.automaton_from_json(embed.automaton_to_json(b)) == b
        # rule 238 is rule 110 but for A(1,1,1) = 1
        assert build(ca1d.elementary(238), grid) != b
        assert build(ca1d.Rule1D(2, rule.table), grid) != b
    assert len(set(all_six.values())) == 6
    assert all_six[("extra", "pentagrid")].action == rule


def test_automaton_file_name_must_be_a_string(all_six):
    """The automaton's `name` and its action's are JSON strings; any
    other value is refused naming the key."""
    doc = json.loads(embed.automaton_to_json(all_six[("extra",
                                                      "pentagrid")]))
    for name in ([1, 2], {"x": 1}, 5, None):
        with pytest.raises(ValueError, match="^automaton key 'name'"):
            embed.automaton_from_json(json.dumps(dict(doc, name=name)))
        action = dict(doc["action"], name=name)
        with pytest.raises(ValueError, match="^automaton key 'action': "
                                             "rule key 'name'"):
            embed.automaton_from_json(json.dumps(dict(doc, action=action)))
