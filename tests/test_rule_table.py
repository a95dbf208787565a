"""The compiled rule table and the array code around it against the
per-rule references of `symmetry_reference`.

The one-context matcher `match_alignments` and the loop expansion below
are the references: the table must give every context the same reading
count and next states, `HcaAutomaton.readings` the same readings and
next states in the same order, and the expansion read off the table must
list the same rules.  `compile_rules`, which reads the contexts from a
per-construction cache, must give `compile_rules_reference`'s table.
The least indices found in the enumeration must partition the contexts
as the reference's `orbits` does, each pointing at its part's least
code, the one-gather orbit check must report the reference's conflicts,
ordered by least code, and `check_rotation_invariance`'s, and the
table-driven verify
scan must report what a matcher-driven scan and a scan that codes every
cell at every step with the reference encoder report, both stepping by
`frozen_rim_run`.  `ContextTable.encode` must give the reference
encoder's codes up to the largest base the int64 codes admit.
"""
import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from hypca import ca1d, embed, engine
from hypca import symmetry as sym

import symmetry_reference as ref


def _matcher_verdict(b, self_state, nb):
    """(readings, least next state, whether the readings disagree) by
    the reference matcher, -1 and False if there is none."""
    readings, outs = ref.reading_outcomes(b, self_state, nb)
    if not readings:
        return 0, -1, False
    return len(readings), outs[0], outs[0] != outs[-1]


def _context_layout(contexts, dtype=np.int64):
    """(states, adjacency, cells) holding each context as a cell followed
    by its p neighbours."""
    arr = np.asarray(contexts, dtype=dtype)
    states = arr.ravel()
    p = arr.shape[1] - 1
    cells = np.arange(len(arr)) * (p + 1)
    adjacency = np.zeros((len(states), p), dtype=np.int64)
    adjacency[cells] = cells[:, None] + 1 + np.arange(p)
    return states, adjacency, cells


def _context_rows(adjacency, cells):
    """The rows `ContextTable.encode` reads: each cell's neighbours, then the
    cell, as `Region.complete_contexts` lays them out."""
    return np.c_[adjacency[cells], cells]


def _table_verdicts(b, contexts):
    """(readings, least next state, whether the readings disagree) by the
    table, -1 and False if there is none, and the table rows, -1 for a
    context with no reading."""
    table = b.rule_table
    space = table.context
    states, adjacency, cells = _context_layout(contexts)
    at = space.lookup(space.encode(states, _context_rows(adjacency, cells)))
    hit = at >= 0
    return (np.where(hit, space.readings[at], 0),
            np.where(hit, table.lo[at], -1), table.split[at], at)


def _assert_table_matches_matcher(b, contexts):
    readings, lo, split, rows = _table_verdicts(b, contexts)
    for ctx, n, l, x, row in zip(contexts, readings, lo, split, rows):
        s, nb = int(ctx[0]), tuple(int(v) for v in ctx[1:])
        want = _matcher_verdict(b, s, nb)
        assert (int(n), int(l), bool(x)) == want, (b.name, ctx)
        got = b.readings(row) if row >= 0 else ([], [])
        assert got == ref.reading_outcomes(b, s, nb), (b.name, ctx)


def _all_contexts(b):
    p = embed.GRID_SIDES[b.grid]
    return list(itertools.product(range(b.n_states), repeat=p + 1))


def _reference_expansion(b):
    """Every alignment and letter assignment, one matcher call each."""
    pat = b.pattern
    letters = sorted(b.letters)
    free = pat.free_indices()
    p = len(pat.slots)
    rules = set()
    for al in ref.alignments(b):
        where = al if isinstance(al, tuple) else [(i + al) % p
                                                  for i in range(p)]
        placed = [0] * p
        for i, slot in enumerate(pat.slots):
            if slot.kind == "fixed":
                placed[where[i]] = slot.state
        for self_state in letters:
            for values in itertools.product(letters, repeat=len(free)):
                nb = list(placed)
                for i, v in zip(free, values):
                    nb[where[i]] = v
                readings, outs = ref.reading_outcomes(b, self_state,
                                                      tuple(nb))
                if len(readings) == 1:
                    rules.add((ref.RuleContext(self_state, tuple(nb)),
                               outs[0]))
    return rules


def _random_pentagrid_automata():
    rng = np.random.default_rng(7)
    autos = []
    for _ in range(2):
        autos.append(embed.embed_compact(
            ca1d.random_rule(3, rng, fixable=True), "pentagrid"))
        autos.append(embed.embed_extra_state(
            ca1d.random_rule(3, rng), "pentagrid"))
    return autos


EXHAUSTIVE = [("extra", "pentagrid"), ("extra", "heptagrid"),
              ("compact", "pentagrid"), ("compact", "heptagrid"),
              ("compact", "dodecagrid")]


@pytest.mark.parametrize("key", EXHAUSTIVE)
def test_table_matches_matcher_on_every_context(all_six, key):
    b = all_six[key]
    _assert_table_matches_matcher(b, _all_contexts(b))


def _sampled_contexts(b, n_random):
    """Dodecagrid contexts, too many to try: every table context with
    each single slot changed, plus `n_random` seeded random contexts."""
    ctx = b.context_table
    selfs, nbs = ref.decode(ctx, ctx.codes)
    base = np.concatenate([selfs[:, None], nbs], axis=1)
    contexts = [tuple(row) for row in base.tolist()]
    for slot in range(13):
        for delta in range(1, b.n_states):
            moved = base.copy()
            moved[:, slot] = (moved[:, slot] + delta) % b.n_states
            contexts.extend(tuple(row) for row in moved.tolist())
    rng = np.random.default_rng(13)
    contexts.extend(tuple(row) for row in
                    rng.integers(0, b.n_states, size=(n_random, 13)).tolist())
    return contexts


def test_table_matches_matcher_dodecagrid_extra(all_six):
    b = all_six[("extra", "dodecagrid")]
    _assert_table_matches_matcher(b, _sampled_contexts(b, 20_000))


def test_table_matches_matcher_random_rules():
    for b in _random_pentagrid_automata():
        _assert_table_matches_matcher(b, _all_contexts(b))


def _multi_reading_automata(rule110):
    """Rule 110 patterns with contexts that read several ways: the
    compact pattern with its markers left free (on the dodecagrid markers
    3 and 9, as the CLI verify test frees them) on each grid, and the
    dodecagrid extra pattern with its reflected-row slot pinned."""
    autos = []
    for grid, free in (("pentagrid", (1,)), ("heptagrid", (1, 3)),
                       ("dodecagrid", (3, 9))):
        good = embed.embed_compact(rule110, grid)
        slots = list(good.pattern.slots)
        for i in free:
            slots[i] = embed.FREE_LETTER
        autos.append(dataclasses.replace(
            good, pattern=embed.ContextPattern(tuple(slots)), name="loose"))
    autos.append(_unrepaired(embed.embed_extra_state(rule110, "dodecagrid")))
    return autos


def test_readings_match_matcher_on_multi_reading_automata(rule110):
    """`HcaAutomaton.readings` lists a context's readings in the order of
    the first alignment that gives each, as the reference matcher does:
    every context on the polygonal grids, sampled on the dodecagrid.
    Many multi-reading codes read in an order other than sorted, so the
    differential pins the order, not only the set."""
    for b in _multi_reading_automata(rule110):
        ctx = b.context_table
        multi = np.flatnonzero(ctx.readings > 1).tolist()
        assert multi, b.name
        assert any(r != sorted(r) for r, _ in map(b.readings, multi))
        _assert_table_matches_matcher(
            b, _sampled_contexts(b, 2_000) if b.grid == "dodecagrid"
            else _all_contexts(b))


def test_expansion_matches_reference(all_six):
    for b in [*all_six.values(), *_random_pentagrid_automata()]:
        rules = ref.unpack(embed.expanded_rules(b), *ref.coding(b))
        assert set(rules) == _reference_expansion(b), b.name
        assert len(set(rules)) == len(rules), b.name


def _invariance_cases():
    """Seeded random 2- and 3-state sources on all six (grid, method)
    pairs, fixable ones for pentagrid compact."""
    rng = np.random.default_rng(5)
    cases = []
    for grid in embed.GRID_SIDES:
        for n in (2, 3):
            rule = ca1d.random_rule(n, rng, quiescent_zero=True)
            cases.append(embed.embed_extra_state(rule, grid))
            if grid == "pentagrid":
                rule = ca1d.random_rule(n, rng, fixable=True)
            cases.append(embed.embed_compact(rule, grid))
    return cases


def _pairs(groups):
    """Conflict groups as lists of (code, next state), in order."""
    return [list(zip(g.codes.tolist(), g.outs.tolist())) for g in groups]


def _partition(groups):
    """Groups as a set of member lists, whatever the groups' order."""
    return {tuple(members) for members in groups}


def test_orbit_check_matches_reference(monkeypatch):
    """Next states flipped in the rule list that `check_invariance` reads
    through `embed.expanded_rules`, on all six (grid, method) pairs at 2
    and 3 source states.  The check reports the groups of the
    reference's `orbit_conflicts`, with their codes, next states and
    member order: one flip breaks exactly its own orbit, as the per-rule
    checker finds on the cases of at most 1,000 rules, and a flip in every
    orbit of several rules breaks each of them, in ascending order of
    least code.  Each reference group is a whole orbit, so its least code
    is its least member's; on most polygonal cases that order is not
    the reference's own, by least lexicographic re-reading."""
    def check(b, rules):
        monkeypatch.setattr(embed, "expanded_rules", lambda a: rules)
        return embed.check_invariance(b)

    real = embed.expanded_rules
    reordered = 0
    cases = _invariance_cases()
    assert len(cases) == 12
    for b in cases:
        at = ref.coding(b)
        rules = real(b)
        assert check(b, rules) == []
        orbits = [g for g in ref.orbits(*ref.decode_codes(rules.codes, *at))
                  if len(g) > 1]
        for flips in ([orbits[len(orbits) // 2][-1]],
                      [g[-1] for g in orbits]):
            outs = rules.outs.copy()
            outs[flips] = (outs[flips] + 1) % b.n_states
            planted = sym.RuleArrays(rules.codes, outs)
            got = check(b, planted)
            found = ref.orbit_conflicts(planted, *at)
            want = sorted(found, key=lambda g: g.codes.min())
            assert _pairs(got) == _pairs(want), b.name
            assert len(got) == len(flips), b.name
        reordered += _pairs(want) != _pairs(found)
        if len(rules) > 1000:
            continue
        # the single flip, against the per-rule checker
        ctx, out = ref.unpack(rules, *at)[orbits[len(orbits) // 2][-1]]
        pairs = [(c, (o + 1) % b.n_states if c == ctx else o)
                 for c, o in ref.unpack(rules, *at)]
        slow = ref.check_rotation_invariance(pairs)
        assert [ref.unpack(g, *at) for g in check(b, ref.pack(pairs, *at))
                ] == slow, b.name
        orbit = {ref.rotated_context(ctx, m) for m in
                 (sym.all_motions() if b.grid == "dodecagrid"
                  else range(len(ctx.neighbor_states)))}
        assert {c for c, _ in slow[0]} == orbit
    assert reordered >= 4


def test_enumeration_orbits_match_reference(rule110):
    """`ContextTable.least`, found in the enumeration, partitions the
    single-reading contexts as the reference's product over every
    rotation does, which keys by least lexicographic re-reading, and
    points each context at the least code of its part: all six (grid,
    method) pairs at 2 to 4 source states, the rule-110 patterns whose
    contexts read several ways, and dodecagrid compact at 22 states,
    whose neighbour codes pass 2**53, where the reference keys in int64.
    The indices are read-only int32."""
    rng = np.random.default_rng(29)
    autos = _multi_reading_automata(rule110)
    for grid in embed.GRID_SIDES:
        for n in (2, 3, 4):
            rule = ca1d.random_rule(n, rng, fixable=True)
            autos += [embed.embed_extra_state(rule, grid),
                      embed.embed_compact(rule, grid)]
    autos.append(embed.embed_compact(ca1d.random_rule(22, rng),
                                     "dodecagrid"))
    assert 22 ** 12 > 2 ** 53
    for b in autos:
        ctx = b.context_table
        least = ctx.least
        assert least.dtype == np.int32 and not least.flags.writeable
        codes = ctx.codes[ctx.single]
        want = ref.orbits(*ref.decode(ctx, codes))
        order = np.argsort(least, kind="stable")
        got = np.split(order, np.flatnonzero(np.diff(least[order])) + 1)
        assert _partition(map(tuple, got)) == \
            _partition(map(tuple, want)), b.name
        assert all(least[g[0]] == g[0] for g in got), b.name
        assert len(got) < len(codes), b.name
    # the 22-state table holds about 28 MB; the cache would keep it
    embed._CONTEXT_TABLES.clear()


def test_orbit_check_keeps_reference_order():
    a = ref.RuleContext(1, (1, 0, 0, 0, 0))
    b = ref.RuleContext(1, (0, 1, 0, 0, 0))
    c = ref.RuleContext(0, (0, 0, 1, 0, 0))
    d = ref.RuleContext(0, (1, 0, 0, 0, 0))
    rules = [(a, 1), (c, 0), (b, 0), (d, 1), (c, 0)]
    groups = ref.orbit_conflict_pairs(rules)
    assert groups == ref.check_rotation_invariance(rules)
    assert len(groups) == 2
    # the least codes put e's orbit first, the greatest would put f's
    e = ref.RuleContext(0, (0, 0, 0, 0, 2))
    f = ref.RuleContext(0, (0, 0, 0, 1, 1))
    rules = [(f, 0), (ref.rotated_context(f, 2), 1),
             (e, 0), (ref.rotated_context(e, 1), 1)]
    groups = ref.orbit_conflict_pairs(rules)
    assert groups == ref.check_rotation_invariance(rules)
    assert [g[0][0] for g in groups] == [e, f]


def _outcome(make, *args):
    """What a call gives: ("ok", result), or the exception's type and
    message."""
    try:
        return "ok", make(*args)
    except Exception as err:
        return type(err), str(err)


def _differential_automata():
    """Seeded random sources on all six (grid, method) pairs: 2 to 4
    states, 2 or 3 on the dodecagrid, where 4 would enumerate 256
    assignments per alignment for the extra construction; and sources
    with no quiescent state."""
    rng = np.random.default_rng(22)
    autos = []
    for grid in embed.GRID_SIDES:
        for n in ((2, 3) if grid == "dodecagrid" else (2, 3, 4)):
            for _ in range(2):
                rule = ca1d.random_rule(n, rng)
                autos.append(_outcome(embed.embed_extra_state, rule, grid))
                autos.append(_outcome(embed.embed_compact, rule, grid))
        rule = ca1d.Rule1D(3, (np.indices((3,) * 3)[1] + 1) % 3)
        assert not ca1d.quiescent_states(rule)
        for embedding in (embed.embed_extra_state, embed.embed_compact):
            autos.append(_outcome(embedding, rule, grid))
    return autos


def test_compile_matches_reference_on_random_rules():
    """`compile_rules`, from the construction's cached contexts, against
    the one-pass enumeration: the same table, expanded rules and
    invariance groups.  Sources with no quiescent state compile alike;
    non-fixable pentagrid sources are refused before either compiles."""
    autos = _differential_automata()
    failed = {str(err) for kind, err in autos if kind != "ok"}
    assert any("fixable" in msg for msg in failed)
    for kind, b in autos:
        if kind != "ok":
            continue
        got, want = _outcome(embed.compile_rules, b), \
            _outcome(ref.compile_rules_reference, b)
        assert got[0] == want[0] == "ok", b.name
        got, want = got[1], want[1]
        assert got.context is b.context_table, b.name
        for name in ("base", "arity", "codes", "readings"):
            assert np.array_equal(getattr(got.context, name),
                                  getattr(want, name)), (b.name, name)
        assert np.array_equal(got.lo, want.lo), b.name
        assert np.array_equal(got.split[:-1], want.lo != want.hi), b.name
        rules = embed.expanded_rules(b)
        expected = ref.expanded_rules_reference(b)
        for name in ("codes", "outs"):
            assert np.array_equal(getattr(rules, name),
                                  getattr(expected, name)), (b.name, name)
        groups = embed.check_invariance(b)
        assert [ref.unpack(g, *ref.coding(b)) for g in groups] == \
            [ref.unpack(g, *ref.coding(b))
             for g in ref.orbit_conflicts(expected, *ref.coding(b))], b.name


def test_row_verdicts_match_the_per_cell_formulas(rule110):
    """`RuleTable.moves` and `split`, and the multi-reading rows
    `~ContextTable.single`, are the per-cell formulas they replace, over
    the reference's least and greatest next states, with a row's own
    state decoded from its code, on the tables of all six (grid, method)
    pairs for seeded 2- and 3-state sources, and on the rule-110 patterns
    whose contexts read several ways.  The verdicts are read-only and end
    with the False entry that row -1, no reading, reads."""
    rng = np.random.default_rng(26)
    autos = _multi_reading_automata(rule110)
    for grid in embed.GRID_SIDES:
        for n in (2, 3):
            rule = ca1d.random_rule(n, rng, fixable=True)
            autos += [embed.embed_extra_state(rule, grid),
                      embed.embed_compact(rule, grid)]
    seen = dict.fromkeys(("moves", "split", "multi"), False)
    for b in autos:
        table, want = b.rule_table, ref.compile_rules_reference(b)
        own, _ = ref.decode(want, want.codes)
        lo, hi = want.lo, want.hi
        for name, flags in (("moves", (lo == hi) & (lo != own)),
                            ("split", lo != hi)):
            got = getattr(table, name)
            assert np.array_equal(got[:-1], flags), (b.name, name)
            assert got[-1] == False and not got.flags.writeable, b.name
            seen[name] |= flags.any()
        multi = want.readings > 1
        assert np.array_equal(~table.context.single, multi), b.name
        seen["multi"] |= multi.any()
    assert all(seen.values()), seen


def test_compile_errors_match_reference():
    """A pinned state out of range gives the reference's exception and
    message; the code limit, which no automaton passes, gives the
    reference's limit message when the automaton is made; and a
    non-fixable pentagrid source is refused."""
    b = embed.embed_extra_state(ca1d.elementary(110), "heptagrid")
    slots = list(b.pattern.slots)
    slots[slots.index(embed.fixed(b.blue))] = embed.fixed(7)
    wide = dataclasses.replace(b, pattern=embed.ContextPattern(slots))
    got = _outcome(embed.compile_rules, wide)
    assert got[0] is ValueError
    assert got == _outcome(ref.compile_rules_reference, wide)
    big = _outcome(embed.embed_compact,
                   ca1d.random_rule(29, np.random.default_rng(0)),
                   "dodecagrid")
    assert big == _outcome(sym.require_codes_fit, 29, 12)
    assert "2**63" in big[1]
    kind, msg = _outcome(embed.embed_compact, ca1d.elementary(1),
                         "pentagrid")
    assert kind is embed.NotFixable and "fixable" in msg


def test_context_table_is_shared_per_construction(monkeypatch):
    """Two sources of one construction: one enumeration, then a cache
    hit, and each automaton its own next states over the same read-only
    arrays."""
    embed._CONTEXT_TABLES.clear()
    made = []
    enumerate_contexts = embed._enumerate_contexts
    monkeypatch.setattr(embed, "_enumerate_contexts", lambda *key: (
        made.append(key) or enumerate_contexts(*key)))
    rng = np.random.default_rng(3)
    a, b = (embed.embed_extra_state(ca1d.random_rule(3, rng), "pentagrid")
            for _ in range(2))
    ta, tb = a.rule_table, b.rule_table
    assert made == [(a.pattern, 3, 4)]
    assert list(embed._CONTEXT_TABLES) == made
    ctx = a.context_table
    assert ta.context is tb.context is ctx is b.context_table
    assert not (np.array_equal(ta.lo, tb.lo) and np.array_equal(ta.split,
                                                                tb.split))
    for arr in (ctx.codes, ctx.readings, ctx.starts, ctx.assignments,
                ctx.single, ctx.least, ctx.row_index):
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    assert embed.check_invariance(a) == embed.check_invariance(b) == []


def test_context_cache_is_bounded(monkeypatch):
    """More table bytes than the cache keeps: each miss drops the least
    recently used tables until the kept ones, row indices included, fit
    the budget; the table just built stays even when it alone does not
    fit."""
    assert embed._CONTEXT_BYTES <= 256 * 2 ** 20
    budget = 150_000
    monkeypatch.setattr(embed, "_CONTEXT_BYTES", budget)
    embed._CONTEXT_TABLES.clear()
    rng = np.random.default_rng(5)
    made = []
    for n in range(2, 9):
        b = embed.embed_extra_state(ca1d.random_rule(n, rng), "pentagrid")
        ctx = b.context_table
        kept = list(embed._CONTEXT_TABLES.values())
        assert kept == made[len(made) + 1 - len(kept):] + [ctx]
        assert sum(t.nbytes for t in kept) <= budget or kept == [ctx]
        made.append(ctx)
        assert embed.check_invariance(b) == []
        # (n + 1)**6 codes: a dense row index up to n = 5
        assert (ctx.row_index is not None) == (n <= 5)
        held = [ctx.codes, ctx.readings, ctx.starts, ctx.assignments,
                ctx.single, ctx.least, ctx.row_index]
        assert ctx.nbytes == sum(a.nbytes for a in held if a is not None)
    assert len(kept) < len(made)
    # a hit moves its table to the end, where tables are dropped last
    monkeypatch.setattr(embed, "_CONTEXT_BYTES", budget * 10)
    a, b = (embed.embed_extra_state(ca1d.elementary(110), grid)
            for grid in ("pentagrid", "heptagrid"))
    keys = [(x.pattern, 2, 3) for x in (a, b)]
    tables = [a.context_table, b.context_table]
    assert list(embed._CONTEXT_TABLES)[-2:] == keys
    assert embed.context_table(*keys[0]) is tables[0]
    assert list(embed._CONTEXT_TABLES)[-2:] == keys[::-1]
    # a table larger than the whole budget is kept alone
    monkeypatch.setattr(embed, "_CONTEXT_BYTES", 1)
    ctx = embed.embed_extra_state(ca1d.elementary(110),
                                  "dodecagrid").context_table
    assert list(embed._CONTEXT_TABLES.values()) == [ctx]


def test_invariance_check_expands_through_the_module_global(all_six,
                                                             monkeypatch):
    """`check_invariance` reads the rule list from `embed.expanded_rules`
    as a module global, once per call, so that a stand-in there sees
    the only expansion the check makes."""
    seen = []
    real = embed.expanded_rules

    def spy(automaton):
        seen.append(automaton)
        return real(automaton)

    monkeypatch.setattr(embed, "expanded_rules", spy)
    b = all_six[("extra", "dodecagrid")]
    assert embed.check_invariance(b) == []
    assert seen == [b]


def test_expansion_makes_rule_objects_only_when_read():
    """A conflict-free 3-state source on the dodecagrid: the invariance
    check runs on the table's int64 arrays, and those arrays, read back
    as pairs, list the table's single-reading contexts in code order."""
    rule = ca1d.random_rule(3, np.random.default_rng(11), quiescent_zero=True)
    b = embed.embed_extra_state(rule, "dodecagrid")
    ctx = b.context_table
    single = ctx.readings == 1
    selfs, nbs = ref.decode(ctx, ctx.codes[single])
    listed = [(ref.RuleContext(s, tuple(nb)), out)
              for s, nb, out in zip(selfs.tolist(), nbs.tolist(),
                                    b.rule_table.lo[single].tolist())]
    assert embed.check_invariance(b) == []
    rules = embed.expanded_rules(b)
    assert len(rules) == len(listed) == 4860
    assert rules.codes.dtype == rules.outs.dtype == np.int64
    assert ref.unpack(rules, *ref.coding(b)) == listed


def _random_dodecagrid_rules(n_states, rng, contexts=30, copies=3, low=0):
    """Seeded random contexts over states `low`..`n_states - 1`, each with
    an output and `copies` rotated copies giving the same output."""
    motions = sym.all_motions()
    rules = []
    for _ in range(contexts):
        ctx = ref.RuleContext(
            int(rng.integers(low, n_states)),
            tuple(rng.integers(low, n_states, size=12).tolist()))
        out = int(rng.integers(n_states))
        rules.append((ctx, out))
        for g in rng.choice(len(motions), size=copies, replace=False):
            rules.append((ref.rotated_context(ctx, motions[g]), out))
    # the largest state in the most significant digit
    rules.append((ref.RuleContext(n_states - 1, (n_states - 1,) * 12), 0))
    return rules


def test_orbit_keys_at_the_int64_limit():
    """28 states at arity 12 is the largest dodecagrid state count whose
    codes fit: 28**13 < 2**63.  One planted rotated copy with another
    output must be the one conflict the reference's `orbits` finds."""
    rng = np.random.default_rng(28)
    rules = _random_dodecagrid_rules(28, rng)
    assert ref.orbit_conflict_pairs(rules) == []
    assert ref.check_rotation_invariance(rules) == []
    ctx, out = rules[7]
    twin = (ref.rotated_context(ctx, sym.all_motions()[17]), (out + 1) % 28)
    planted = rules + [twin]
    fast = ref.orbit_conflict_pairs(planted)
    assert fast == ref.check_rotation_invariance(planted)
    assert len(fast) == 1
    orbit = {ref.rotated_context(ctx, m) for m in sym.all_motions()}
    assert twin in fast[0]
    assert fast[0] == [(c, o) for c, o in planted if c in orbit]


def _orbit_keys(rules, dtype):
    """(own state, least neighbour code over the 60 rotations) per rule,
    the codes summed in `dtype`."""
    selfs, nbs = ref.contexts(rules)
    base = int(max(selfs.max(), nbs.max())) + 1
    readings = nbs[:, sym.rotation_indices(12)].astype(dtype)
    codes = readings @ (base ** np.arange(11, -1, -1)).astype(dtype)
    return list(zip(selfs.tolist(), codes.min(axis=1).tolist()))


def test_orbit_keys_at_the_float64_limit():
    """The reference's `orbits` sums its keys in float64 only while
    base**12 <= 2**53: 21 states at arity 12 (21**12 < 2**53 < 22**12).
    At 22 states, contexts over the top two states have neighbour codes
    above 2**53, where float64 rounds; on this rule set float64 keys put
    rules of distinct orbits, with different outputs, under one key
    (about ten such keys), so a float product would report conflicts
    that do not exist.  Both state counts must give the per-rule
    reference's verdict."""
    for n_states in (21, 22):
        rng = np.random.default_rng(n_states)
        rules = _random_dodecagrid_rules(n_states, rng, contexts=200,
                                         copies=2, low=n_states - 2)
        ctx, out = rules[7]
        twin = (ref.rotated_context(ctx, sym.all_motions()[17]),
                (out + 1) % n_states)
        rules.append(twin)
        fast = ref.orbit_conflict_pairs(rules)
        assert fast == ref.check_rotation_invariance(rules), n_states
        assert any(twin in group for group in fast)
        exact = _orbit_keys(rules, np.int64)
        rounded = _orbit_keys(rules, np.float64)
        if n_states == 21:
            assert rounded == exact
            continue
        merged = {}
        for e, f, (_, o) in zip(exact, rounded, rules):
            merged.setdefault(f, set()).add((e, o))
        assert any(len({e for e, _ in v}) > 1 and len({o for _, o in v}) > 1
                   for v in merged.values())


def test_orbit_keys_refuse_a_29th_state():
    """One state more and the codes overflow: the reference's `orbits`
    must refuse the contexts before it allocates the chunk's key
    matrix, and `pack` cannot code them."""
    rules = _random_dodecagrid_rules(29, np.random.default_rng(29),
                                     contexts=300)
    with pytest.raises(ValueError, match="29 states"):
        ref.pack(rules, 29, 12)
    selfs, nbs = ref.contexts(rules)
    assert len(selfs) > 1024
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            ref.orbits(selfs, nbs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "29 states" in str(err.value) and "2**63" in str(err.value)
    # a tenth of one chunk's (1024, 60) int64 key matrix
    assert peak < 1024 * 60 * 8 // 10


def test_code_limit_names_the_limit():
    """An automaton whose codes overflow is refused when it is made,
    before any table is enumerated, naming the limit."""
    rule = ca1d.random_rule(29, np.random.default_rng(0))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            embed.embed_compact(rule, "dodecagrid")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    msg = str(err.value)
    assert "int64" in msg and "29 states" in msg and "arity 12" in msg
    assert "2**63" in msg
    assert peak < 100_000
    # the largest dodecagrid state count still fits
    sym.require_codes_fit(28, 12)


def test_decode_at_the_code_limit():
    """28 states at arity 12, the largest dodecagrid code: `decode_codes`
    inverts it digit for digit, as the broadcast formula does."""
    top = 28 ** 13 - 1
    codes = np.r_[np.array([0, top], dtype=np.int64),
                  np.random.default_rng(28).integers(0, top, size=5000,
                                                     endpoint=True)]
    selfs, nbs = ref.decode_codes(codes, 28, 12)
    powers = 28 ** np.arange(13, dtype=np.int64)
    digits = (codes[:, None] // powers) % 28
    assert selfs.dtype == nbs.dtype == np.int64
    assert selfs.shape == (len(codes),) and nbs.shape == (len(codes), 12)
    assert np.array_equal(selfs, digits[:, -1])
    assert np.array_equal(nbs, digits[:, :-1])
    assert selfs[1] == 27 and (nbs[1] == 27).all()
    assert not selfs[0] and not nbs[0].any()
    assert np.array_equal(nbs @ powers[:-1] + selfs * powers[-1], codes)


def _largest_base(arity):
    """The largest state count whose codes `require_codes_fit` admits."""
    base = round(2 ** (63 / (arity + 1)))
    while base ** (arity + 1) > 2 ** 63:
        base -= 1
    while (base + 1) ** (arity + 1) <= 2 ** 63:
        base += 1
    return base


def test_encode_matches_reference(region_of, all_six):
    """The one-gather `ContextTable.encode` against the digit-at-a-time
    reference: random states on the scan regions for all six pairs, and
    random contexts at the largest base each arity admits, where the
    greatest code, base**(arity + 1) - 1, is nearest the int64 limit,
    coded by a table of that code space that matches no context, since
    no such construction can be enumerated."""
    rng = np.random.default_rng(16)
    for (method, grid), b in all_six.items():
        r = region_of(grid, *SCAN_SIZES[grid])
        states = rng.integers(0, b.n_states, size=r.n_cells).astype(np.int16)
        table = b.context_table
        cells = np.flatnonzero(~(r.adjacency < 0).any(axis=1))
        got = table.encode(states, r.complete_contexts)
        assert got.dtype == np.int64
        assert np.array_equal(got, ref.encode(table, states, r.adjacency,
                                              cells)), b.name
    for arity, base in ((5, 1448), (7, 234), (12, 28)):
        assert _largest_base(arity) == base
        sym.require_codes_fit(base, arity)
        with pytest.raises(ValueError):
            sym.require_codes_fit(base + 1, arity)
        none = np.zeros(0, np.int64)
        table = embed.ContextTable(
            base=base, arity=arity, codes=none, readings=none, starts=none,
            assignments=none, single=none.astype(bool),
            least=none.astype(np.int32), row_index=None)
        contexts = np.r_[np.full((1, arity + 1), base - 1),
                         np.zeros((1, arity + 1), dtype=np.int64),
                         rng.integers(0, base, size=(2000, arity + 1)),
                         rng.integers(base - 2, base, size=(500, arity + 1))]
        states, adjacency, cells = _context_layout(contexts, dtype=np.int16)
        got = table.encode(states, _context_rows(adjacency, cells))
        assert np.array_equal(got, ref.encode(table, states, adjacency,
                                              cells)), arity
        assert got[0] == base ** (arity + 1) - 1 and got[1] == 0
        selfs, nbs = ref.decode(table, got)
        assert np.array_equal(np.c_[selfs, nbs], contexts)


def _matcher_scan(b, region, init, horizon):
    """The verify scan, one matcher call per complete cell and time."""
    report = embed.VerifyReport()
    if b.grid != "dodecagrid" and b.kind == "compact":
        report.context_rows.append(embed.central_context_row(b))
    on_line = np.zeros(region.n_cells, dtype=bool)
    on_line[region.guideline.cell_ids] = True
    may_change = on_line.copy()
    if b.kind == "extra" and region.grid == "dodecagrid":
        m = region.guideline.mirror_ids
        may_change[m[m >= 0]] = True
    complete = ~(region.adjacency < 0).any(axis=1)
    for t, states in enumerate(ref.frozen_rim_run(b, region, init.states,
                                                  horizon)):
        for c in np.flatnonzero(complete).tolist():
            s = int(states[c])
            nb = tuple(int(states[d]) for d in region.adjacency[c])
            readings, outs = ref.reading_outcomes(b, s, nb)
            report.scanned_cells += 1
            report.matched_cells += bool(readings)
            report.multi_reading_cells += len(readings) > 1
            if len(outs) > 1:
                report.violations.append(embed.Violation(
                    "ambiguous", t, c,
                    f"readings {readings} give states {outs}"))
            if on_line[c]:
                if not readings and region.dist[c] < region.radius:
                    report.violations.append(embed.Violation(
                        "line-unmatched", t, c, "no admissible reading"))
            elif readings and not may_change[c] and outs != [s]:
                report.violations.append(embed.Violation(
                    "off-line-changed", t, c,
                    f"reading would move state to {outs}"))
    return report


def _unrepaired(good):
    slots = list(good.pattern.slots)
    slots[0] = embed.fixed(good.blue)
    return dataclasses.replace(
        good, pattern=embed.ContextPattern(tuple(slots)),
        name="unrepaired")


def test_engine_step_matches_matcher(region_of, all_six):
    """One step, cell by cell, against the matcher.  With rule 150, which
    reads left and right alike, the unrepaired pattern's tape cells have
    two readings that agree, and they must still step."""
    good = all_six[("extra", "dodecagrid")]
    r = region_of("dodecagrid", 3, 1)
    init = engine.init_configuration(r, good, [1, 0, 1])
    m = r.guideline.mirror_ids
    init.states[m[m >= 0]] = good.blue
    cases = [(_unrepaired(dataclasses.replace(good,
                                              action=ca1d.elementary(150))),
              r, init)]
    for (method, grid), b in all_six.items():
        reg = region_of(grid, 3, 1 if grid == "dodecagrid" else 2)
        cases.append((b, reg, engine.init_configuration(reg, b, [1, 1])))
    for b, reg, cfg in cases:
        want = cfg.states.copy()
        multi = 0
        for c in np.flatnonzero(~(reg.adjacency < 0).any(axis=1)).tolist():
            nb = tuple(int(cfg.states[d]) for d in reg.adjacency[c])
            readings, outs = ref.reading_outcomes(b, int(cfg.states[c]), nb)
            multi += len(readings) > 1
            if outs:
                (want[c],) = outs
        got = engine.run_hca(b, reg, cfg, 1)[-1]
        assert np.array_equal(got.states, want), b.name
        if b.name == "unrepaired":
            assert multi > 0 and not np.array_equal(want, cfg.states)


def test_verify_matches_matcher_scan(region_of, all_six):
    cases = []
    for (method, grid), b in all_six.items():
        r = region_of(grid, 3, 1 if grid == "dodecagrid" else 2)
        cases.append((b, r, engine.init_configuration(r, b, [1]), 3))
    good = all_six[("extra", "dodecagrid")]
    r = region_of("dodecagrid", 3, 1)
    init = engine.init_configuration(r, good, [1])
    m = r.guideline.mirror_ids
    init.states[m[m >= 0]] = good.blue
    cases.append((_unrepaired(good), r, init, 2))
    # an off-line cell and two of its neighbours set to read (1, 1, 1),
    # which rule 110 moves to 0; and letters all round the central tape
    # cell, which then has no reading
    b = all_six[("extra", "pentagrid")]
    r = region_of("pentagrid", 3, 2)
    init = engine.init_configuration(r, b, [1])
    c = int(np.flatnonzero(r.dist == r.radius - 1)[-1])
    init.states[[c, r.adjacency[c, 0], r.adjacency[c, 3]]] = 1
    init.states[r.adjacency[r.guideline.id_at(0)]] = 0
    cases.append((b, r, init, 1))
    kinds = set()
    for b, r, init, horizon in cases:
        got = embed.verify_unique_applicability(b, r, init, horizon)
        want = _matcher_scan(b, r, init, horizon)
        assert got == want, b.name
        kinds |= {v.kind for v in got.violations}
        if b.name == "unrepaired":
            assert got.multi_reading_cells > 0
    assert kinds == {"ambiguous", "line-unmatched", "off-line-changed"}


# the perfbench scan regions, as (radius, halfwidth)
SCAN_SIZES = {"pentagrid": (7, 2), "heptagrid": (6, 3), "dodecagrid": (3, 2)}


def _full_reencode_scan(b, region, init, horizon):
    """The verify scan as it ran before it carried table rows: step with
    a frozen rim, then code every complete cell at every time with the
    reference encoder and look it up."""
    report = embed.VerifyReport()
    if b.grid != "dodecagrid" and b.kind == "compact":
        report.context_rows.append(embed.central_context_row(b))
    on_line = np.zeros(region.n_cells, dtype=bool)
    on_line[region.guideline.cell_ids] = True
    may_change = on_line.copy()
    if b.kind == "extra" and region.grid == "dodecagrid":
        m = region.guideline.mirror_ids
        may_change[m[m >= 0]] = True
    cells = np.flatnonzero(~(region.adjacency < 0).any(axis=1))
    line = on_line[cells]
    guarded = ~line & ~may_change[cells]
    inside = region.dist[cells] < region.radius
    table = b.rule_table
    ctx = table.context
    for t, states in enumerate(ref.frozen_rim_run(b, region, init.states,
                                                  horizon)):
        own = states[cells]
        at = ref.lookup(ctx, ref.encode(ctx, states, region.adjacency,
                                        cells))
        hit = at >= 0
        lo, split = table.lo[at], table.split[at]
        report.scanned_cells += len(cells)
        report.matched_cells += int(hit.sum())
        report.multi_reading_cells += int(
            (hit & (ctx.readings[at] > 1)).sum())
        # some reading leaves the own state exactly when the least does
        # or the readings disagree
        kinds = (("ambiguous", hit & split),
                 ("line-unmatched", line & ~hit & inside),
                 ("off-line-changed", guarded & hit & ((lo != own) | split)))
        for j in np.flatnonzero(np.logical_or.reduce([m for _, m in kinds])):
            c = int(cells[j])
            nb = tuple(int(v) for v in states[region.adjacency[c]])
            found, outs = ref.reading_outcomes(b, int(own[j]), nb)
            detail = {
                "ambiguous": f"readings {found} give states {outs}",
                "line-unmatched": "no admissible reading",
                "off-line-changed": f"reading would move state to {outs}",
            }
            report.violations.extend(embed.Violation(kind, t, c,
                                                     detail[kind])
                                     for kind, mask in kinds if mask[j])
    return report


def test_verify_matches_full_reencode_scan(region_of):
    """The carried-row scan against the full re-encode at the benchmark's
    scan sizes and horizon, on random 3-state automata, with inits
    perturbed off the line and the unrepaired dodecagrid pattern."""
    rng = np.random.default_rng(2024)
    kinds = set()
    moved = 0
    for grid, size in SCAN_SIZES.items():
        r = region_of(grid, *size)
        for method in ("extra", "compact"):
            unrepaired = method == "extra" and grid == "dodecagrid"
            for trial in range(5 if unrepaired else 3):
                rule = ca1d.random_rule(3, rng, quiescent_zero=True,
                                        fixable=grid == "pentagrid")
                b = (embed.embed_extra_state(rule, grid) if method == "extra"
                     else embed.embed_compact(rule, grid))
                word = rng.integers(0, 3, size=int(rng.integers(1, 6)))
                word[len(word) // 2] = rng.integers(1, 3)
                init = engine.init_configuration(r, b, word)
                if trial == 1:
                    # off-line cells near the tape set to random states
                    near = r.dist <= 2
                    near[r.guideline.cell_ids] = False
                    off = rng.choice(np.flatnonzero(near), size=12,
                                     replace=False)
                    init.states[off] = rng.integers(0, b.n_states, size=12)
                if trial >= 2 and unrepaired:
                    b = _unrepaired(b)
                    m = r.guideline.mirror_ids
                    init.states[m[m >= 0]] = b.blue
                got = embed.verify_unique_applicability(b, r, init, 10)
                want = _full_reencode_scan(b, r, init, 10)
                assert got == want, (b.name, trial)
                kinds |= {v.kind for v in got.violations}
                final = ref.frozen_rim_run(b, r, init.states, 10)[-1]
                moved += int((final != init.states).sum())
    assert moved > 0
    assert kinds == {"ambiguous", "line-unmatched", "off-line-changed"}


def test_table_run_rows_match_a_full_lookup(region_of, all_six):
    """At the start and after every `TableRun` step the carried rows are
    those a full reference coding and lookup of every complete cell
    gives, with the table's dense row index where it has one and with
    the sorted search alike, the states those of `frozen_rim_run`, and
    the cells coded again distinct and ascending:
    the six pairs at the scan sizes with random rules and words, with
    random states off the line, and the unrepaired dodecagrid pattern
    under rule 150 with a blue reflected row, whose tape cells have two
    readings that agree and step."""
    rng = np.random.default_rng(30)
    cases = []
    for (method, grid), good in all_six.items():
        r = region_of(grid, *SCAN_SIZES[grid])
        rule = ca1d.random_rule(3, rng, quiescent_zero=True,
                                fixable=grid == "pentagrid")
        b = (embed.embed_extra_state(rule, grid) if method == "extra"
             else embed.embed_compact(rule, grid))
        word = rng.integers(0, 3, size=5)
        word[2] = 1
        cases.append((b, r, engine.init_configuration(r, b, word)))
        init = engine.init_configuration(r, good, [1, 0, 1])
        near = r.dist <= 2
        near[r.guideline.cell_ids] = False
        off = rng.choice(np.flatnonzero(near), size=12, replace=False)
        init.states[off] = rng.integers(0, good.n_states, size=12)
        cases.append((good, r, init))
    good = all_six[("extra", "dodecagrid")]
    r = region_of("dodecagrid", *SCAN_SIZES["dodecagrid"])
    b = _unrepaired(dataclasses.replace(good, action=ca1d.elementary(150)))
    init = engine.init_configuration(r, b, [1, 1, 0, 1])
    m = r.guideline.mirror_ids
    init.states[m[m >= 0]] = b.blue
    cases.append((b, r, init))
    multi = moved = 0
    for b, r, init in cases:
        table, cells = b.rule_table, r.complete_cells
        ctx = table.context
        run = embed.TableRun(table, r, init.states.copy())
        searched = embed.TableRun(
            dataclasses.replace(table, context=dataclasses.replace(
                ctx, row_index=None)), r, init.states.copy())
        want = ref.frozen_rim_run(b, r, init.states, 6)
        for t in range(7):
            if t:
                coded = run.step()
                assert (np.diff(coded) > 0).all(), (b.name, t)
                assert np.array_equal(searched.step(), coded), (b.name, t)
            assert np.array_equal(run.states, want[t]), (b.name, t)
            rows = ref.lookup(ctx, ref.encode(ctx, run.states,
                                              r.adjacency, cells))
            assert np.array_equal(run.rows, rows), (b.name, t)
            assert np.array_equal(searched.rows, rows), (b.name, t)
            multi += int((ctx.readings[rows[rows >= 0]] > 1).sum())
        moved += int((want[-1] != init.states).sum())
    assert multi > 0 and moved > 0


def test_lookup_matches_the_reference_lookup(all_six):
    """`ContextTable.lookup` by sorted search gives the rows of a dict
    lookup on rule 110's pentagrid extra table, for every code of its
    code space and the codes just below and past it."""
    ctx = dataclasses.replace(all_six[("extra", "pentagrid")].context_table,
                              row_index=None)
    asked = np.arange(-1, 3 ** 6 + 2, dtype=np.int64)
    got = ctx.lookup(asked)
    assert np.array_equal(got, ref.lookup(ctx, asked))
    assert np.array_equal(asked[got >= 0], ctx.codes)
    assert got[0] == got[-1] == -1


def _constructions():
    """The six (grid, method) pairs at 2 and 3 source states, and
    heptagrid extra at 4, as automata of seeded random rules."""
    rng = np.random.default_rng(35)
    for n, grid, method in itertools.chain(
            itertools.product((2, 3), embed.GRID_SIDES,
                              ("extra", "compact")),
            [(4, "heptagrid", "extra")]):
        rule = ca1d.random_rule(n, rng, quiescent_zero=True,
                                fixable=grid == "pentagrid"
                                and method == "compact")
        yield (embed.embed_extra_state(rule, grid) if method == "extra"
               else embed.embed_compact(rule, grid))


def test_dense_and_sorted_lookups_agree():
    """A construction of at most 2**16 codes keeps a dense int32 row index,
    read-only and shared by the construction's rule tables, and a larger
    one none: every polygonal construction at 2 and 3 states and
    dodecagrid compact at 2 have it.  The dense and the sorted lookup
    agree with an index built here from the table's codes on every code
    of each construction's code space, and where that space passes
    2**22 codes (dodecagrid extra at 3 states) with the reference's dict
    lookup on the table's codes, their neighbours and random codes.
    Heptagrid extra at 4 states, 5**8 codes, takes the sorted search."""
    rng = np.random.default_rng(36)
    dense = set()
    for b in _constructions():
        table = b.context_table
        assert b.rule_table.context is table
        size = table.base ** (table.arity + 1)
        index = table.row_index
        assert (index is not None) == (size <= 2 ** 16), b.name
        if index is not None:
            dense.add((b.grid, b.kind, b.action.n))
            assert index.dtype == np.int32 and not index.flags.writeable
            assert index.shape == (size,)
        if size <= 2 ** 22:
            asked = np.arange(size, dtype=np.int64)
            want = np.full(size, -1, dtype=np.int64)
            want[table.codes] = np.arange(len(table.codes))
        else:
            asked = np.r_[table.codes, table.codes - 1, table.codes + 1,
                          rng.integers(0, size, 100_000)]
            asked = asked[(asked >= 0) & (asked < size)]
            want = ref.lookup(table, asked)
        sorted_rows = dataclasses.replace(table, row_index=None).lookup(asked)
        assert np.array_equal(sorted_rows, want), b.name
        assert np.array_equal(table.lookup(asked), want), b.name
    assert dense == {(g, k, n) for g in ("pentagrid", "heptagrid")
                     for k in ("extra", "compact") for n in (2, 3)} | {
                         ("dodecagrid", "compact", 2)}


def test_verify_recodes_only_near_changes(region_of, all_six, monkeypatch):
    """After the first lookup, which codes every complete cell, the verify
    scan and `engine.run_hca` code only the complete cells next to a
    change: nothing more on a still configuration, at most the closed
    neighbourhoods of the changed cells on a running one.  Both step
    through `embed.TableRun`; the scan runs 10 steps, the engine its
    whole validity budget."""
    real_encode = embed.ContextTable.encode
    coded = []

    def counted(self, states, contexts):
        coded.append(len(contexts))
        return real_encode(self, states, contexts)

    def scan(b, r, init):
        embed.verify_unique_applicability(b, r, init, 10)
        return 10

    def run(b, r, init):
        engine.run_hca(b, r, init, r.radius)
        return r.radius

    for (method, grid), b in all_six.items():
        r = region_of(grid, *SCAN_SIZES[grid])
        complete = int((~(r.adjacency < 0).any(axis=1)).sum())
        for word, caller in itertools.product(([0], [1, 0, 1]), (scan, run)):
            init = engine.init_configuration(r, b, word)
            with monkeypatch.context() as mp:
                mp.setattr(embed.ContextTable, "encode", counted)
                coded.clear()
                steps = caller(b, r, init)
            states = ref.frozen_rim_run(b, r, init.states, steps)
            changed = sum(int((c != d).sum())
                          for c, d in zip(states, states[1:]))
            closed = r.adjacency.shape[1] + 1
            assert coded[0] == complete
            assert sum(coded) <= complete + closed * changed
            if word == [0]:
                assert changed == 0 and sum(coded) == complete, b.name
            else:
                assert changed > 0, b.name


def _still_from(run):
    """The first time from which a frozen-rim run no longer changes."""
    return next(t for t in range(len(run))
                if all(np.array_equal(run[t], s) for s in run[t + 1:]))


def test_verify_repeats_a_fixed_point(region_of, all_six, monkeypatch):
    """Configurations that stop moving and keep their violations: the
    unrepaired dodecagrid pattern, with letters on the reflected row laid
    by hand (no reading on the tape) and with the blue one its pattern
    lays (tape cells read both ways), and a perturbed pentagrid init that
    moves once.  The scan must list the same violation lines at every
    time from the fixed point on, as the full re-encode does, at horizons
    10, 3, 0 and -1.  It codes cells only up to the fixed point and
    spells out violations only up to it: later times repeat the fixed
    point's lines."""
    good = all_six[("extra", "dodecagrid")]
    r = region_of("dodecagrid", *SCAN_SIZES["dodecagrid"])
    b = _unrepaired(good)
    gl = r.guideline
    m = gl.mirror_ids >= 0
    init = engine.init_configuration(r, b, [1, 0, 1])
    init.states[gl.mirror_ids[m]] = init.states[gl.cell_ids[m]]
    cases = [(b, r, init)]
    init = engine.init_configuration(r, b, [1])
    assert (init.states[gl.mirror_ids[m]] == b.blue).all()
    cases.append((b, r, init))
    b = all_six[("extra", "pentagrid")]
    r = region_of("pentagrid", *SCAN_SIZES["pentagrid"])
    init = engine.init_configuration(r, b, [1])
    near = r.dist <= 2
    near[r.guideline.cell_ids] = False
    rng = np.random.default_rng(0)
    off = rng.choice(np.flatnonzero(near), size=12, replace=False)
    init.states[off] = rng.integers(0, b.n_states, size=12)
    cases.append((b, r, init))

    real_encode = embed.ContextTable.encode
    real_readings = embed.HcaAutomaton.readings
    calls = {"encode": 0, "readings": 0}

    def counted_encode(*args):
        calls["encode"] += 1
        return real_encode(*args)

    def counted_readings(*args):
        calls["readings"] += 1
        return real_readings(*args)

    kinds = set()
    starts = []
    for b, r, init in cases:
        run = ref.frozen_rim_run(b, r, init.states, 10)
        still = _still_from(run)
        starts.append(still)
        for horizon in (10, 3, 0, -1):
            with monkeypatch.context() as mp:
                mp.setattr(embed.ContextTable, "encode", counted_encode)
                mp.setattr(embed.HcaAutomaton, "readings", counted_readings)
                calls.update(encode=0, readings=0)
                got = embed.verify_unique_applicability(b, r, init, horizon)
            assert got == _full_reencode_scan(b, r, init, horizon), horizon
            # Python ints, so that the counts serialise as JSON
            assert {type(n) for n in (got.scanned_cells, got.matched_cells,
                                      got.multi_reading_cells)} == {int}
            last = max(horizon, 0)
            lines = [[(v.kind, v.cell, v.detail) for v in got.violations
                      if v.time == t] for t in range(last + 1)]
            stop = min(still, last)
            assert lines[stop] and all(x == lines[stop]
                                       for x in lines[stop:])
            assert calls["encode"] == stop + 1
            # a line-unmatched cell has no reading to look up
            assert calls["readings"] == sum(
                len({c for k, c, _ in x if k != "line-unmatched"})
                for x in lines[:stop + 1])
        kinds |= {v.kind for v in got.violations}
    assert starts == [0, 0, 1]
    assert kinds == {"ambiguous", "line-unmatched"}
