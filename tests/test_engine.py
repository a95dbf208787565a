import dataclasses
import functools
import json
import re

import numpy as np
import pytest

from hypca import ca1d, embed, engine
from hypca import region as reg

import region_reference
import symmetry_reference as ref


def test_extra_init_fill(region_of, rule110):
    r = region_of("pentagrid", 2, 1)
    b = embed.embed_extra_state(rule110, "pentagrid")
    cfg = engine.init_configuration(r, b, [1])
    gl = r.guideline
    on_line = np.zeros(r.n_cells, dtype=bool)
    on_line[gl.cell_ids] = True
    assert (cfg.states[~on_line] == b.blue).all()
    assert cfg.time == 0
    for cell, pos in zip(gl.cell_ids, gl.positions):
        assert cfg.states[cell] == (1 if pos == 0 else 0)


def test_compact_init_fill(region_of, rule110):
    r = region_of("pentagrid", 2, 1)
    b = embed.embed_compact(rule110, "pentagrid")
    cfg = engine.init_configuration(r, b, [])
    markers = region_reference.marker_cell_ids(r)
    assert (cfg.states[markers] == 1).all()
    rest = np.ones(r.n_cells, dtype=bool)
    rest[markers] = False
    assert (cfg.states[rest] == 0).all()


def test_dodecagrid_extra_init_mirrors(region_of, rule110):
    r = region_of("dodecagrid", 3, 1)
    b = embed.embed_extra_state(rule110, "dodecagrid")
    cfg = engine.init_configuration(r, b, [1, 0, 1])
    gl = r.guideline
    for cell, mirror in zip(gl.cell_ids, gl.mirror_ids):
        if mirror >= 0:
            assert cfg.states[mirror] == cfg.states[cell]


def test_dodecagrid_marker_faces(region_of, rule110):
    r = region_of("dodecagrid", 3, 1)
    b = embed.embed_compact(rule110, "dodecagrid")
    cfg = engine.init_configuration(r, b, [])
    on_line = np.zeros(r.n_cells, dtype=bool)
    on_line[r.guideline.cell_ids] = True
    red = cfg.states == 1
    for c in range(r.n_cells):
        if (r.adjacency[c] < 0).any():
            continue
        faces = {f for f in range(12) if red[r.adjacency[c, f]]}
        if on_line[c]:
            assert faces == {0, 3, 9, 10}, c
        else:
            assert len(faces) <= 2, c


def test_init_rejections(region_of, rule110):
    r = region_of("pentagrid", 2, 1)
    b = embed.embed_extra_state(rule110, "pentagrid")
    with pytest.raises(ValueError):
        engine.init_configuration(r, b, [1, 1, 1, 1])     # does not fit
    with pytest.raises(ValueError):
        engine.init_configuration(r, b, [2])              # not a source state
    with pytest.raises(ValueError):
        engine.init_configuration(region_of("heptagrid", 2, 1), b, [1])


def _init_reference(region, automaton, word):
    """`init_configuration` as it was, one chain cell at a time: the
    reference for its array passes."""
    if automaton.grid != region.grid:
        raise ValueError(f"automaton is for {automaton.grid}, "
                         f"region is {region.grid}")
    word = [int(a) for a in word]
    states_a = automaton.action.states()
    outside = [(i, a) for i, a in enumerate(word) if a not in states_a]
    if outside:
        raise ValueError("word index {} holds state {}, outside the source "
                         "automaton's states 0..{}".format(
                             *outside[0], max(states_a)))
    start = -(len(word) // 2)
    if word and not (-region.halfwidth <= start
                     and start + len(word) - 1 <= region.halfwidth):
        raise ValueError(f"word of length {len(word)} does not fit the "
                         f"initial segment (halfwidth {region.halfwidth})")
    if automaton.kind == "extra":
        fill = automaton.blue
    else:
        fill = automaton.padding_state
    states = np.full(region.n_cells, fill, dtype=np.int16)
    gl = region.guideline
    letter_at = {}
    for cell, pos in zip(gl.cell_ids, gl.positions):
        p = int(pos)
        a = word[p - start] if 0 <= p - start < len(word) \
            else automaton.padding_state
        letter_at[int(cell)] = a
        states[int(cell)] = letter_at[int(cell)]
    if automaton.kind == "extra" and region.grid == "dodecagrid":
        for cell, mirror in zip(gl.cell_ids, gl.mirror_ids):
            if mirror >= 0:
                states[int(mirror)] = letter_at[int(cell)]
    if automaton.kind == "compact":
        marker = 1
        if automaton.grid == "pentagrid":
            marker = next(s.state for s in automaton.pattern.slots
                          if s.kind == "fixed"
                          and s.state != automaton.padding_state)
        states[region_reference.marker_cell_ids(region)] = marker
    return engine.Configuration(states, 0)


@pytest.mark.parametrize("method,grid", [
    (m, g) for m in ("extra", "compact")
    for g in ("pentagrid", "heptagrid", "dodecagrid")])
def test_init_matches_the_per_cell_reference(region_of, rule110, method,
                                             grid):
    """The array passes fill what the per-cell loop filled, int16 state
    for state: words of length 0, 1, 2 hw and 2 hw + 1, rule 110 and a
    3-state rule, and on dodecagrid extra
    the reflected row.  Refusals carry the same messages; a word state
    outside the source states is named with its index in the word."""
    embed_rule = (embed.embed_extra_state if method == "extra"
                  else embed.embed_compact)
    rng = np.random.default_rng(23)
    three = ca1d.random_rule(3, rng, quiescent_zero=True,
                             fixable=grid == "pentagrid")
    autos = [embed_rule(rule110, grid), embed_rule(three, grid)]
    for radius, hw in ((2, 1), (3, 2)):
        r = region_of(grid, radius, hw)
        for b in autos:
            for n in (0, 1, 2 * hw, 2 * hw + 1):
                word = rng.integers(0, b.action.n, size=n).tolist()
                got = engine.init_configuration(r, b, word)
                want = _init_reference(r, b, word)
                assert got.states.dtype == want.states.dtype == np.int16
                assert np.array_equal(got.states, want.states), (b.name, n)
                assert got.time == want.time == 0
    if method == "extra" and grid == "dodecagrid":
        gl = r.guideline
        assert (gl.mirror_ids >= 0).sum() > 2 * hw + 1
        row = got.states[gl.mirror_ids[gl.mirror_ids >= 0]]
        assert (row != b.blue).all()
    other = region_of("heptagrid" if grid == "pentagrid" else "pentagrid",
                      2, 1)
    for region, b, word in ((r, autos[0], [1] * (2 * hw + 2)),
                            (r, autos[0], [5]), (r, autos[0], [0, 1, 0, 2]),
                            (r, autos[1], [2, -1]), (other, autos[0], [1])):
        with pytest.raises(ValueError) as new:
            engine.init_configuration(region, b, word)
        with pytest.raises(ValueError) as old:
            _init_reference(region, b, word)
        assert str(new.value) == str(old.value)
    # a state outside the source states is named, with its index in the word
    with pytest.raises(ValueError, match=r"^word index 3 holds state 2, "
                       r"outside the source automaton's states 0\.\.1$"):
        engine.init_configuration(r, autos[0], [0, 1, 0, 2])


@pytest.mark.parametrize("method,grid", [
    ("extra", "pentagrid"), ("extra", "heptagrid"), ("extra", "dodecagrid"),
    ("compact", "pentagrid"), ("compact", "heptagrid"),
    ("compact", "dodecagrid"),
])
def test_small_equivalence(region_of, rule110, all_six, method, grid):
    r = region_of(grid, 3, 1 if grid == "dodecagrid" else 2)
    report = engine.equivalence_check(rule110, all_six[(method, grid)],
                                      r, [1], 2)
    assert report.ok, report.text()
    assert report.compared > 0


def test_random_rule_equivalence(region_of):
    rng = np.random.default_rng(11)
    r5 = region_of("pentagrid", 3, 2)
    r7 = region_of("heptagrid", 3, 2)
    for _ in range(3):
        rule = ca1d.random_rule(3, rng, fixable=True)
        b = embed.embed_compact(rule, "pentagrid")
        word = list(rng.integers(0, 3, size=3))
        report = engine.equivalence_check(rule, b, r5, word, 2)
        assert report.ok, report.text()
    for _ in range(3):
        rule = ca1d.random_rule(3, rng, quiescent_zero=True)
        b = embed.embed_compact(rule, "heptagrid")
        word = list(rng.integers(0, 3, size=3))
        report = engine.equivalence_check(rule, b, r7, word, 2)
        assert report.ok, report.text()
    rule = ca1d.random_rule(2, rng, quiescent_zero=True)
    b = embed.embed_extra_state(rule, "pentagrid")
    report = engine.equivalence_check(rule, b, r5, [1, 1], 2)
    assert report.ok, report.text()


def test_divergence_is_reported(region_of, rule110):
    b = embed.embed_compact(rule110, "pentagrid")
    bad_table = rule110.table.copy()
    bad_table[0, 0, 1] = 0
    bad = dataclasses.replace(b, action=ca1d.Rule1D(2, bad_table))
    r = region_of("pentagrid", 3, 2)
    report = engine.equivalence_check(rule110, bad, r, [1], 2)
    assert not report.ok
    d = report.divergence
    assert (d.time, d.position, d.expected, d.got) == (1, -1, 1, 0)
    assert "divergence" in report.text()


def test_validity_budget(region_of, rule110):
    r = region_of("pentagrid", 2, 1)
    b = embed.embed_extra_state(rule110, "pentagrid")
    cfg = engine.init_configuration(r, b, [1])
    cfg = engine.run_hca(b, r, cfg, 1)[-1]
    cfg = engine.run_hca(b, r, cfg, 1)[-1]
    assert cfg.time == r.radius and r.tape_window(cfg.time) == r.halfwidth
    with pytest.raises(engine.ValidityExhausted,
                       match="^1 step\\(s\\) from time 2 exceed the "
                             "remaining validity 0$"):
        engine.run_hca(b, r, cfg, 1)
    with pytest.raises(engine.ValidityExhausted):
        engine.run_hca(b, r, engine.init_configuration(r, b, [1]), 3)
    assert engine.ValidityExhausted is reg.ValidityExhausted


def test_zero_steps_return_the_initial_configuration(region_of, rule110,
                                                     monkeypatch, tmp_path,
                                                     capsys):
    """`run_hca` with no steps returns the configuration it was given and
    codes no cell; `simulate --steps 0` prints the time-0 row alone."""
    from hypca import cli
    r = region_of("pentagrid", 1, 1)
    b = embed.embed_extra_state(rule110, "pentagrid")
    cfg = engine.init_configuration(r, b, [1])

    def no_run(*args):
        raise AssertionError("a run with no steps coded cells")

    monkeypatch.setattr(embed, "TableRun", no_run)
    out = engine.run_hca(b, r, cfg, 0)
    assert len(out) == 1 and out[0] is cfg
    auto = tmp_path / "auto.json"
    auto.write_text(embed.automaton_to_json(b))
    assert cli.main(["simulate", "--automaton", str(auto), "--steps",
                     "0"]) == 0
    assert capsys.readouterr() == ("0\t-2\t0 0 1 0 0\n", "")


@pytest.mark.parametrize("method,grid", [
    (m, g) for m in ("extra", "compact")
    for g in ("pentagrid", "heptagrid", "dodecagrid")])
def test_oracle_check_reaches_the_radius(region_of, rule110, all_six, method,
                                         grid):
    """The oracle check runs as many steps as the region certifies, its
    radius, and compares the window `tape_window` gives at every time.
    One step more is refused by the run, with the same message from
    `run_hca` and from `equivalence_check`."""
    b = all_six[(method, grid)]
    r = region_of(grid, 3, 1 if grid == "dodecagrid" else 2)
    word = [1, 0, 1]
    report = engine.equivalence_check(rule110, b, r, word, r.radius)
    assert report.ok, report.text()
    assert len(report.configurations) == r.radius + 1
    assert report.compared == sum(2 * (r.halfwidth + r.radius - t) + 1
                                  for t in range(r.radius + 1))
    init = engine.init_configuration(r, b, word)
    message = (f"^{r.radius + 1} step\\(s\\) from time 0 exceed the "
               f"remaining validity {r.radius}$")
    with pytest.raises(engine.ValidityExhausted, match=message):
        engine.run_hca(b, r, init, r.radius + 1)
    with pytest.raises(engine.ValidityExhausted, match=message):
        engine.equivalence_check(rule110, b, r, word, r.radius + 1)


@pytest.mark.parametrize("number", [110, 30, 54])
def test_reflected_row_runs_the_mirrored_rule(region_of, number):
    """On dodecagrid extra the reflected row starts as a copy of the tape
    and then steps by the mirrored rule A'(l, s, r) = A(r, s, l), rule 124
    for rule 110, on every position one step inside the tape's window.
    So it is no copy of the tape: by the end of each run they differ,
    except under rule 54, which is its own mirror."""
    rule = ca1d.elementary(number)
    mirrored = ca1d.Rule1D(2, rule.table.transpose(2, 1, 0))
    symmetric = np.array_equal(mirrored.table, rule.table)
    assert symmetric == (number == 54)
    b = embed.embed_extra_state(rule, "dodecagrid")
    rng = np.random.default_rng(number)
    for radius, halfwidth in ((4, 6), (3, 2), (2, 5)):
        r = region_of("dodecagrid", radius, halfwidth)
        gl = r.guideline
        word = rng.integers(0, 2, size=2 * halfwidth + 1).tolist()
        tape = ca1d.word_tape(word, padding=b.padding_state)
        oracle = ca1d.run_1d(mirrored, tape, radius)
        cfgs = engine.run_hca(b, r, engine.init_configuration(r, b, word),
                              radius)
        for t, cfg in enumerate(cfgs):
            w = r.tape_window(t) - 1
            k = np.flatnonzero(np.abs(gl.positions) <= w)
            assert (gl.mirror_ids[k] >= 0).all()
            row = cfg.states[gl.mirror_ids[k]]
            assert np.array_equal(row, oracle[t].window(-w, w + 1)), \
                (number, radius, halfwidth, t)
        assert np.array_equal(row, cfg.states[gl.cell_ids[k]]) == \
            symmetric, (number, radius, halfwidth)


def test_run_matches_repeated_steps(region_of, rule110):
    r = region_of("heptagrid", 3, 2)
    b = embed.embed_compact(rule110, "heptagrid")
    cfg = engine.init_configuration(r, b, [1, 0, 1])
    trajectory = engine.run_hca(b, r, cfg, 2)
    stepped = [cfg]
    for _ in range(2):
        stepped.append(engine.run_hca(b, r, stepped[-1], 1)[-1])
    for a, s in zip(trajectory, stepped):
        assert np.array_equal(a.states, s.states)
        assert a.time == s.time


def test_yellow_trace_decodes(region_of, rule110):
    r = region_of("pentagrid", 3, 2)
    b = embed.embed_extra_state(rule110, "pentagrid")
    cfgs = engine.run_hca(b, r, engine.init_configuration(r, b, [1]), 2)
    trace = engine.yellow_trace(b, r, cfgs)
    oracle = ca1d.run_1d(rule110, ca1d.word_tape([1]), 2)
    for (t, start, letters), tape in zip(trace, oracle):
        assert start == -(r.halfwidth + r.radius - t) == -r.tape_window(t)
        for i, v in enumerate(letters):
            assert v == ref.value_at(tape, start + i)


def test_yellow_trace_rejects_non_letter(region_of, rule110):
    r = region_of("pentagrid", 2, 1)
    b = embed.embed_extra_state(rule110, "pentagrid")
    cfg = engine.init_configuration(r, b, [1])
    cfg.states[r.guideline.id_at(0)] = b.blue
    with pytest.raises(ValueError):
        engine.yellow_trace(b, r, [cfg])


def test_trace_text_format():
    assert engine.trace_to_text([(0, -1, (1, 0, 1))]) == "0\t-1\t1 0 1\n"


def test_config_round_trip(region_of, rule110):
    r = region_of("pentagrid", 2, 1)
    b = embed.embed_compact(rule110, "pentagrid")
    cfg = engine.run_hca(b, r, engine.init_configuration(r, b, [1]), 1)[-1]
    text = engine.config_to_json(r, cfg)
    assert json.loads(text)["valid_radius"] == r.radius - cfg.time == 1
    back = engine.config_from_json(text, r)
    assert np.array_equal(back.states, cfg.states)
    assert back.time == cfg.time
    with pytest.raises(ValueError):
        engine.config_from_json(engine.config_to_json(r, cfg),
                                region_of("heptagrid", 2, 1))
    with pytest.raises(ValueError):
        engine.config_from_json(engine.config_to_json(r, cfg),
                                region_of("pentagrid", 3, 2))


def test_larger_region_gives_same_trace(region_of, rule110):
    b = embed.embed_compact(rule110, "pentagrid")
    small = region_of("pentagrid", 3, 2)
    large = region_of("pentagrid", 5, 2)
    word = [1, 1, 0, 1]
    t_small = engine.yellow_trace(
        b, small, engine.run_hca(
            b, small, engine.init_configuration(small, b, word), 2))
    t_large = engine.yellow_trace(
        b, large, engine.run_hca(
            b, large, engine.init_configuration(large, b, word), 2))
    for (t, start, letters), (_, start_l, letters_l) in zip(t_small, t_large):
        offset = start - start_l
        assert letters_l[offset:offset + len(letters)] == letters


def _first_split(automaton, region, run):
    """The first time of a frozen-rim run at which a complete cell's
    readings disagree by the reference matcher, and the AmbiguousMatch
    message for the first such cell then; None if there is none."""
    cells = np.flatnonzero(~(region.adjacency < 0).any(axis=1))
    for t, states in enumerate(run):
        for c in cells[np.isin(states[cells], list(automaton.letters))]:
            nb = tuple(states[region.adjacency[c]].tolist())
            readings, outs = ref.reading_outcomes(automaton, int(states[c]),
                                                  nb)
            if len(outs) > 1:
                return t, (f"cell {c} at time {t}: readings {readings} "
                           f"disagree, states {outs}")
    return None


def _assert_run_matches_reference(automaton, region, init):
    """`run_hca` over the whole validity budget against the frozen-rim
    reference: the same states at every time, or, where a context reads
    two ways, the reference's AmbiguousMatch message and the same states
    up to that time.  Returns whether it raised."""
    steps = region.radius - init.time
    run = ref.frozen_rim_run(automaton, region, init.states, steps)
    # the last configuration is not stepped, so it is not judged
    split = _first_split(automaton, region, run[:-1])
    if split is not None:
        steps, message = split
        with pytest.raises(engine.AmbiguousMatch,
                           match=f"^{re.escape(message)}$"):
            engine.run_hca(automaton, region, init, region.radius)
    cfgs = engine.run_hca(automaton, region, init, steps)
    assert [c.time for c in cfgs] == list(range(steps + 1))
    for cfg, states in zip(cfgs, run):
        assert np.array_equal(cfg.states, states), (automaton.name, cfg.time)
    return split is not None


@pytest.mark.parametrize("method,grid", [
    (m, g) for m in ("extra", "compact")
    for g in ("pentagrid", "heptagrid", "dodecagrid")])
def test_run_matches_frozen_rim_run(region_of, rule110, method, grid):
    """Within the validity budget `run_hca` is the frozen-rim reference
    run: rule 110 and random 3-state rules, on `init_configuration`
    output and with random states on a few off-line cells next to the
    line."""
    embed_rule = (embed.embed_extra_state if method == "extra"
                  else embed.embed_compact)
    r = region_of(grid, *{"dodecagrid": (3, 1)}.get(grid, (4, 2)))
    near = np.flatnonzero((r.dist <= 1) & ~np.isin(np.arange(r.n_cells),
                                                   r.guideline.cell_ids))
    rng = np.random.default_rng(17)
    moved = 0
    for trial in range(8):
        rule = rule110 if trial < 4 else ca1d.random_rule(
            3, rng, quiescent_zero=True, fixable=grid == "pentagrid")
        b = embed_rule(rule, grid)
        word = rng.integers(0, rule.n, size=2 * r.halfwidth + 1)
        init = engine.init_configuration(r, b, word)
        if trial % 2:
            off = rng.choice(near, size=6, replace=False)
            init.states[off] = rng.integers(0, b.n_states, size=6)
        if not _assert_run_matches_reference(b, r, init):
            last = engine.run_hca(b, r, init, r.radius)[-1]
            moved += int((last.states != init.states).sum())
    assert moved > 0


def test_ambiguity_after_the_first_step(region_of, all_six):
    """A context that reads two ways only at t = 1: the unrepaired
    dodecagrid pattern, whose tape cells read both ways where the
    reflected row is blue.  Positions -1..3 hold 1 and the row is blue at
    0..2, so rule 110 clears those three cells at t = 0, and at t = 1 the
    cell at position 0 reads (1, 0, 0) one way and (0, 0, 1) the other."""
    good = all_six[("extra", "dodecagrid")]
    slots = list(good.pattern.slots)
    slots[0] = embed.fixed(good.blue)
    bad = dataclasses.replace(
        good, pattern=embed.ContextPattern(tuple(slots)), name="unrepaired")
    r = region_of("dodecagrid", 3, 1)
    init = engine.init_configuration(r, good, [0])
    gl = r.guideline
    for p in range(-1, 4):
        init.states[gl.id_at(p)] = 1
        mirror = gl.mirror_ids[p - int(gl.positions[0])]
        init.states[mirror] = good.blue if 0 <= p <= 2 else 1
    assert _assert_run_matches_reference(bad, r, init)
    with pytest.raises(engine.AmbiguousMatch,
                       match=f"^cell {gl.id_at(0)} at time 1: "):
        engine.run_hca(bad, r, init, 2)
    # one step is fine: the configuration at t = 1 is not judged
    assert len(engine.run_hca(bad, r, init, 1)) == 2


def _equivalence_reference(rule, automaton, region, word, cfgs):
    """(compared, divergence) of the tape comparison, one position at a
    time, as `equivalence_check` walked it before it read whole windows."""
    tape = ca1d.word_tape(list(word), padding=automaton.padding_state)
    oracle = ca1d.run_1d(rule, tape, len(cfgs) - 1)
    compared = 0
    for t, cfg in enumerate(cfgs):
        w = region.halfwidth + region.radius - t
        for p in range(-w, w + 1):
            expected = ref.value_at(oracle[t], p)
            got = int(cfg.states[region.guideline.id_at(p)])
            if got not in automaton.letters:
                got = None
            compared += 1
            if got != expected:
                return compared, engine.Divergence(t, p, expected, got)
    return compared, None


def test_equivalence_divergence_inside_the_window(region_of, rule110,
                                                  monkeypatch):
    """A tape cell forced wrong partway through a later window: the report
    counts the positions up to it, names it, and reads a non-letter as
    None, as the position-by-position walk does."""
    r = region_of("pentagrid", 4, 2)
    b = embed.embed_extra_state(rule110, "pentagrid")
    word = [1, 0, 1]
    real_run = engine.run_hca
    for t, p, state in ((2, 1, None), (1, -3, b.blue), (3, 0, 0)):
        def forced(*args, **kwargs):
            cfgs = real_run(*args, **kwargs)
            cell = r.guideline.id_at(p)
            cfgs[t].states[cell] = (1 - cfgs[t].states[cell]
                                    if state is None else state)
            return cfgs

        monkeypatch.setattr(engine, "run_hca", forced)
        report = engine.equivalence_check(rule110, b, r, word, 3)
        compared, divergence = _equivalence_reference(
            rule110, b, r, word, report.configurations)
        assert divergence is not None and divergence.time == t
        assert divergence.position == p
        assert (divergence.got is None) == (state == b.blue)
        assert report.divergence == divergence
        assert report.compared == compared
        assert not report.stability_violations
    monkeypatch.setattr(engine, "run_hca", real_run)
    report = engine.equivalence_check(rule110, b, r, word, 3)
    assert report.ok
    assert (report.compared, report.divergence) == _equivalence_reference(
        rule110, b, r, word, report.configurations)


def _drift_reference(automaton, region, cfgs):
    """The off-line drift as `equivalence_check` gathered it before it
    compared whole arrays: the guarded cells' states at every time against
    their initial ones, up to the first time with a drifting cell."""
    guarded = np.flatnonzero(~embed._may_change(automaton, region))
    baseline = cfgs[0].states[guarded]
    drift = []
    for t, cfg in enumerate(cfgs):
        for c in guarded[cfg.states[guarded] != baseline]:
            drift.append((t, int(c)))
        if drift:
            break
    return drift


def test_equivalence_reports_off_line_drift(region_of, rule110):
    """A compact pattern with a marker slot left free: the tape still
    follows the 1D run, but an off-line cell changes, and the report lists
    the drifting cells the per-cell compare finds."""
    good = embed.embed_compact(rule110, "heptagrid")
    slots = list(good.pattern.slots)
    slots[1] = embed.FREE_LETTER
    loose = dataclasses.replace(good, pattern=embed.ContextPattern(slots))
    r = region_of("heptagrid", 4, 2)
    report = engine.equivalence_check(rule110, loose, r, [1], 3)
    assert report.divergence is None and not report.ok
    assert report.stability_violations == _drift_reference(
        loose, r, report.configurations)
    assert "off-line drift: 1 cells, first at t=2 cell 14" in report.text()
    for b in (good, embed.embed_extra_state(rule110, "dodecagrid")):
        region = region_of(b.grid, 4, 2)
        report = engine.equivalence_check(rule110, b, region, [1, 1, 0], 3)
        assert report.ok
        assert _drift_reference(b, region, report.configurations) == []


def test_runs_share_the_regions_complete_cells(monkeypatch, all_six):
    """The verify scan and then `run_hca` on one region find its complete
    cells once, and both steppers hold that one array and the region's
    one context table and index."""
    calls, runs = [], []
    inner = reg.Region.complete_cells.func

    def counted(region):
        calls.append(region)
        return inner(region)

    prop = functools.cached_property(counted)
    prop.__set_name__(reg.Region, "complete_cells")
    monkeypatch.setattr(reg.Region, "complete_cells", prop)

    class Recorded(embed.TableRun):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    monkeypatch.setattr(embed, "TableRun", Recorded)
    b = all_six[("compact", "pentagrid")]
    r = reg.build_region("pentagrid", 3, 1)
    assert embed.verify_unique_applicability(
        b, r, engine.init_configuration(r, b, [1]), 2).ok
    engine.run_hca(b, r, engine.init_configuration(r, b, [1]), 2)
    assert len(calls) == 1 and calls[0] is r and len(runs) == 2
    assert all(run.cells is r.complete_cells for run in runs)
    assert all(run.contexts is r.complete_contexts
               and run.index is r.complete_index for run in runs)


@pytest.mark.parametrize("state", [3, -1])
def test_runs_refuse_a_state_outside_the_automaton(region_of, all_six,
                                                   state):
    """A 3-state automaton's run and verify scan refuse a configuration
    holding state 3 or -1, on a tape cell or on a rim cell, naming the
    first such cell and its state: neither is a digit of the rule table's
    codes."""
    b = all_six[("extra", "pentagrid")]
    r = region_of("pentagrid", 3, 2)
    rim = int(np.flatnonzero((r.adjacency < 0).any(axis=1))[0])
    for cell in (r.guideline.id_at(0), rim):
        init = engine.init_configuration(r, b, [1, 0, 1])
        init.states[cell] = state
        message = re.escape(f"cell {cell} holds state {state}, "
                            "outside 0..2")
        with pytest.raises(ValueError, match=message):
            engine.run_hca(b, r, init, 2)
        with pytest.raises(ValueError, match=message):
            embed.verify_unique_applicability(b, r, init, 2)


def test_runs_refuse_states_that_do_not_fit_the_region(region_of, all_six):
    """A states array one cell short of, or one cell past, the region is
    refused with a ValueError that gives both counts."""
    b = all_six[("extra", "pentagrid")]
    r = region_of("pentagrid", 3, 2)
    init = engine.init_configuration(r, b, [1])
    n = r.n_cells
    for states in (init.states[:-1], np.r_[init.states, init.states[:1]]):
        cfg = engine.Configuration(states, 0)
        message = f"{len(states)} states for a region of {n} cells"
        with pytest.raises(ValueError, match=message):
            engine.run_hca(b, r, cfg, 1)
        with pytest.raises(ValueError, match=message):
            embed.verify_unique_applicability(b, r, cfg, 1)
