from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hypca import ca1d, embed
from hypca import symmetry as sym

import symmetry_reference as ref

GOLDEN = Path(__file__).parent / "golden"

# face neighbour rings, frozen; every row read clockwise from outside
EXPECTED_RINGS = (
    (1, 5, 4, 3, 2),
    (0, 2, 7, 6, 5),
    (0, 3, 8, 7, 1),
    (0, 4, 9, 8, 2),
    (0, 5, 10, 9, 3),
    (0, 1, 6, 10, 4),
    (1, 7, 11, 10, 5),
    (1, 2, 8, 11, 6),
    (2, 3, 9, 11, 7),
    (3, 4, 10, 11, 8),
    (4, 5, 6, 11, 9),
    (6, 7, 8, 9, 10),
)


def test_face_rings_row_for_row():
    assert sym.FACE_RINGS == EXPECTED_RINGS


def test_sixty_distinct_motions_identity_first():
    motions = sym.all_motions()
    assert len(motions) == 60
    assert len(set(motions)) == 60
    assert motions[0] == tuple(range(12))
    for m in motions:
        assert ref.is_adjacency_automorphism(m)


def test_motions_match_the_face_pair_enumeration():
    """The closure of the two fifth turns lists the same 60 motions, in
    the same order, as `complete_motion` on every ordered pair of
    adjacent faces."""
    assert sym.all_motions() == ref.motions_by_face_pairs()


def test_group_closed_with_inverses():
    motions = set(sym.all_motions())
    for a in motions:
        assert ref.inverse(a) in motions
        assert ref.compose(a, ref.inverse(a)) == tuple(range(12))
    for a in list(motions)[:12]:
        for b in motions:
            assert ref.compose(a, b) in motions


@pytest.mark.parametrize("p", (5, 7, 12))
def test_rotation_indices_form_a_group(p):
    """The rows of `rotation_indices(p)` are distinct, the identity first,
    and closed under composition, re-reading row g by row h, with an
    inverse for each: the hypothesis under which every compiled
    automaton is rotation invariant.  The shared array is read-only."""
    rows = sym.rotation_indices(p)
    assert not rows.flags.writeable
    assert rows[0].tolist() == list(range(p))
    members = {tuple(r) for r in rows.tolist()}
    assert len(members) == len(rows) == (60 if p == 12 else p)
    products = rows[:, rows].reshape(-1, p)
    assert {tuple(r) for r in products.tolist()} == members
    inverses = np.argsort(rows, axis=1)
    assert {tuple(r) for r in inverses.tolist()} == members
    assert (np.take_along_axis(rows, inverses, axis=1) == rows[0]).all()


def test_enumeration_refuses_rotations_that_are_no_group(monkeypatch):
    """A planted rotation set that is no group, the identity and one
    permutation of the pentagrid's sides, gives a single-reading context
    of rule 110's compact pattern a least rotation with several
    readings, and the enumeration refuses it.  The permutation was the
    first hit of a seeded search (numpy seed 39) over the identity and
    one random permutation, on seeded pentagrid constructions of 2 and 3
    states; the true shifts enumerate the same pattern.  The guard tests
    that consequence, not the group: the identity with the shift by 1 is
    no group either, and passes."""
    b = embed.embed_compact(ca1d.elementary(110), "pentagrid")
    planted = np.array([[0, 1, 2, 3, 4], [4, 1, 3, 0, 2]])
    assert planted[1][planted[1]].tolist() not in planted.tolist()
    embed._enumerate_contexts(b.pattern, 2, 2)
    monkeypatch.setattr(sym, "rotation_indices", lambda p: planted)
    with pytest.raises(RuntimeError, match=(
            "^the least rotation of a single-reading context has several "
            "readings, which no group of rotations allows$")):
        embed._enumerate_contexts(b.pattern, 2, 2)
    shift = np.array([[0, 1, 2, 3, 4], [1, 2, 3, 4, 0]])
    monkeypatch.setattr(sym, "rotation_indices", lambda p: shift)
    embed._enumerate_contexts(b.pattern, 2, 2)


def test_motion_determined_by_two_faces():
    seen = {(m[0], m[1]) for m in sym.all_motions()}
    assert len(seen) == 60
    m = sym.complete_motion(3, 8)
    assert m[0] == 3 and m[1] == 8
    with pytest.raises(ValueError):
        sym.complete_motion(3, 6)   # 6 is not a neighbour of 3


def test_motions_table_golden():
    assert sym.motions_table_text() == (GOLDEN / "motions.txt").read_text()


@given(st.integers(0, 59), st.lists(st.integers(0, 4), min_size=12,
                                    max_size=12))
def test_spherical_canonical_is_orbit_invariant(k, values):
    values = tuple(values)
    m = sym.all_motions()[k]
    assert ref.canonical(values) == \
        ref.canonical(tuple(values[m[i]] for i in range(12)))


@given(st.integers(0, 6), st.lists(st.integers(0, 3), min_size=7,
                                   max_size=7))
def test_cyclic_canonical_is_shift_invariant(k, values):
    values = tuple(values)
    shifted = tuple(values[(i + k) % 7] for i in range(7))
    assert ref.canonical(values) == ref.canonical(shifted)


@given(st.integers(0, 59), st.integers(0, 2),
       st.lists(st.integers(0, 2), min_size=12, max_size=12))
def test_minimal_form_constant_on_orbit(k, self_state, nbrs):
    ctx = ref.RuleContext(self_state, tuple(nbrs))
    rotated = ref.rotated_context(ctx, sym.all_motions()[k])
    assert ref.minimal_form(ctx) == ref.minimal_form(rotated)


def test_minimal_form_respects_state_order():
    ctx = ref.RuleContext(0, (2, 1, 1, 1, 1))
    plain = ref.minimal_form(ctx)
    assert plain.neighbor_states == (1, 1, 1, 1, 2)
    reordered = ref.minimal_form(ctx, state_order=[2, 1, 0])
    assert reordered.neighbor_states == (2, 1, 1, 1, 1)


def test_invariance_checker_flags_disagreeing_orbit():
    a = ref.RuleContext(0, (1, 0, 0, 0, 0))
    b = ref.RuleContext(0, (0, 1, 0, 0, 0))    # same orbit, shifted
    clean = ref.check_rotation_invariance([(a, 1), (b, 1)])
    assert clean == []
    bad = ref.check_rotation_invariance([(a, 1), (b, 0)])
    assert len(bad) == 1
    assert {out for _, out in bad[0]} == {0, 1}


def test_conflicts_refuse_rules_of_another_grouping(monkeypatch):
    """`embed.check_invariance` reads rule k as the construction's k-th
    single-reading context, so a rule list of another length is
    refused."""
    b = embed.embed_compact(ca1d.elementary(110), "pentagrid")
    m = len(embed.expanded_rules(b))
    for n in (m - 1, m + 1):
        rules = sym.RuleArrays(np.zeros(n, dtype=np.int64),
                               np.zeros(n, dtype=np.int64))
        monkeypatch.setattr(embed, "expanded_rules", lambda a: rules)
        with pytest.raises(ValueError, match=(
                f"^{n} rules for the {m} single-reading contexts of the "
                "construction$")):
            embed.check_invariance(b)


def test_rotated_context_arity_guards():
    flat = ref.RuleContext(0, (0,) * 5)
    solid = ref.RuleContext(0, (0,) * 12)
    with pytest.raises(ValueError):
        ref.rotated_context(flat, sym.all_motions()[1])
    with pytest.raises(ValueError):
        ref.rotated_context(solid, 3)
    with pytest.raises(ValueError):
        ref.RuleContext(0, (0,) * 6)
