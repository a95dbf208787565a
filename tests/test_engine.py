import dataclasses

import numpy as np
import pytest

from hypca import ca1d, embed, engine
from hypca.region import marker_cell_ids


def test_extra_init_fill(region_of, rule110):
    r = region_of("pentagrid", 2, 1)
    b = embed.embed_extra_state(rule110, "pentagrid")
    cfg = engine.init_configuration(r, b, [1])
    gl = r.guideline
    on_line = np.zeros(r.n_cells, dtype=bool)
    on_line[gl.cell_ids] = True
    assert (cfg.states[~on_line] == b.blue).all()
    assert cfg.time == 0 and cfg.valid_radius == r.radius
    for cell, pos in zip(gl.cell_ids, gl.positions):
        assert cfg.states[cell] == (1 if pos == 0 else 0)


def test_compact_init_fill(region_of, rule110):
    r = region_of("pentagrid", 2, 1)
    b = embed.embed_compact(rule110, "pentagrid")
    cfg = engine.init_configuration(r, b, [])
    markers = marker_cell_ids(r, b.marker_scheme)
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
    no_quiet = embed.embed_extra_state(ca1d.elementary(1), "pentagrid")
    assert no_quiet.padding_state is None
    with pytest.raises(ValueError):
        engine.init_configuration(r, no_quiet, [1])


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
    cfg = engine.step_hca(b, r, cfg)
    cfg = engine.step_hca(b, r, cfg)
    assert cfg.valid_radius == 0
    with pytest.raises(engine.ValidityExhausted):
        engine.step_hca(b, r, cfg)
    with pytest.raises(engine.ValidityExhausted):
        engine.run_hca(b, r, engine.init_configuration(r, b, [1]), 3)


def test_run_matches_repeated_steps(region_of, rule110):
    r = region_of("heptagrid", 3, 2)
    b = embed.embed_compact(rule110, "heptagrid")
    cfg = engine.init_configuration(r, b, [1, 0, 1])
    trajectory = engine.run_hca(b, r, cfg, 2)
    stepped = [cfg]
    for _ in range(2):
        stepped.append(engine.step_hca(b, r, stepped[-1]))
    for a, s in zip(trajectory, stepped):
        assert np.array_equal(a.states, s.states)
        assert a.time == s.time and a.valid_radius == s.valid_radius


def test_yellow_trace_decodes(region_of, rule110):
    r = region_of("pentagrid", 3, 2)
    b = embed.embed_extra_state(rule110, "pentagrid")
    cfgs = engine.run_hca(b, r, engine.init_configuration(r, b, [1]), 2)
    trace = engine.yellow_trace(b, r, cfgs)
    oracle = ca1d.run_1d(rule110, ca1d.word_tape([1]), 2)
    for (t, start, letters), tape in zip(trace, oracle):
        assert start == -engine.trace_window(r, t)
        for i, v in enumerate(letters):
            assert v == tape.value_at(start + i)


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
    cfg = engine.step_hca(b, r, engine.init_configuration(r, b, [1]))
    back = engine.config_from_json(engine.config_to_json(r, cfg), r)
    assert np.array_equal(back.states, cfg.states)
    assert back.time == cfg.time and back.valid_radius == cfg.valid_radius
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


def _filter_reference(automaton, region, states, cells):
    # the whole-array formula the engine used before it read one side at
    # a time: an (N, p) copy of the neighbour states
    adj = region.adjacency[cells]
    nb = np.where(adj >= 0, states[np.clip(adj, 0, None)], np.int16(-1))
    mask = ~(adj < 0).any(axis=1)
    if automaton.blue is not None:
        mask &= states[cells] != automaton.blue
    for state, count in engine._pinned_counts(automaton).items():
        mask &= (nb == state).sum(axis=1) >= count
    return cells[mask]


@pytest.mark.parametrize("grid,size", [("pentagrid", (4, 2)),
                                       ("heptagrid", (4, 2)),
                                       ("dodecagrid", (3, 1))])
def test_filter_candidates_matches_reference(region_of, all_six, grid, size):
    r = region_of(grid, *size)
    rng = np.random.default_rng(7)
    kept = 0
    for method in ("extra", "compact"):
        b = all_six[(method, grid)]
        for trial in range(20):
            # skew toward one state so the pinned counts are sometimes met
            weights = rng.dirichlet(np.full(b.n_states, 0.5))
            states = rng.choice(b.n_states, size=r.n_cells,
                                p=weights).astype(np.int16)
            cells = np.sort(rng.choice(r.n_cells, size=r.n_cells // 2,
                                       replace=False))
            for sub in (cells, np.arange(r.n_cells)):
                got = engine._filter_candidates(b, r, states, sub)
                want = _filter_reference(b, r, states, sub)
                assert np.array_equal(got, want)
                kept += len(got)
    assert kept > 0


def test_first_candidates_match_full_pass(region_of, all_six):
    """The first pass, started from the rarest pinned state's neighbours
    on a compact automaton, finds what a pass over every cell finds."""
    rng = np.random.default_rng(11)
    for (method, grid), b in all_six.items():
        r = region_of(grid, 4 if grid != "dodecagrid" else 3, 2)
        for trial in range(6):
            word = rng.integers(0, 2, size=int(rng.integers(1, 6)))
            states = engine.init_configuration(r, b, word).states
            if trial % 2:
                # a few cells off the line set to random states
                cells = rng.choice(r.n_cells, size=8, replace=False)
                states[cells] = rng.integers(0, b.n_states, size=8)
            got = engine._first_candidates(b, r, states)
            want = engine._filter_candidates(b, r, states,
                                             np.arange(r.n_cells))
            assert np.array_equal(got, want), (b.name, trial)
            assert len(want) > 0


def _equivalence_reference(rule, automaton, region, word, cfgs):
    """(compared, divergence) of the tape comparison, one position at a
    time, as `equivalence_check` walked it before it read whole windows."""
    inv = automaton.inverse_map()
    tape = ca1d.word_tape(list(word), padding=automaton.padding_state)
    oracle = ca1d.run_1d(rule, tape, len(cfgs) - 1)
    compared = 0
    for t, cfg in enumerate(cfgs):
        w = engine.trace_window(region, t)
        for p in range(-w, w + 1):
            expected = oracle[t].value_at(p)
            got = inv.get(int(cfg.states[region.guideline.id_at(p)]))
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
