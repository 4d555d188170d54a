"""Seeded bulk-invariant battery.

The check families live in _props; each test here runs one family and pins
the exact number of assertions it performed, so a silently shrunken sample
pool or collection shows up as a count drift, not just as vacuous passes.
The closing test re-runs the whole battery and enforces the overall budget.
"""

import pytest
from hypothesis import given, settings, strategies as st

from sclab.contract import _is_beat, core_reduction
from sclab.homology import smith_normal_form

import _naive
import _props
from _suite import from_relation

# assertion counts per family, pinned from a seeded reference run
EXPECTED = {
    "check_group_axioms": 2708,
    "check_conjugation_is_automorphism": 1600,
    "check_lattice_order_axioms": 4152,
    "check_meet_join_are_bounds": 6166,
    "check_operator_towers": 398,
    "check_operator_equivariance": 790,
    "check_central_type_sets_closed": 99,
    "check_distinguished_upward_closure": 353,
    "check_relative_normalizers_stay_distinguished": 290,
    "check_one_class_collapses_the_towers": 72,
    "check_sylow_normalizer_criterion": 358,
    "check_boundary_squares_to_zero": 1132,
    "check_smith_form_invariants": 1000,
    "check_brown_congruence": 21,
    "check_core_reduction_is_contractibility": 164,
    "check_core_homology_is_the_posets": 264,
    "check_masks_are_inclusion": 3350,
    "check_beat_test_counts_maximal_elements": 2203,
    "check_core_reduction_matches_rescanning": 200,
    "check_class_masks_are_invariance": 9803,
    "check_retraction_matches_oracle": 2745,
}


def _ident(value):
    return getattr(value, "__name__", str(value))


@pytest.mark.parametrize("family,seed", _props.FAMILIES, ids=_ident)
def test_family(family, seed):
    assert _props.run_family(family, seed) == EXPECTED[family.__name__]


def test_every_family_is_pinned():
    assert {f.__name__ for f, _ in _props.FAMILIES} == set(EXPECTED)


# ----------------------------------------------------------- fuzz extras


@st.composite
def _matrices(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    return [[draw(st.integers(-9, 9)) for _ in range(cols)]
            for _ in range(rows)]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_matrices())
def test_smith_form_transpose_invariant(mat):
    transpose = [list(col) for col in zip(*mat)]
    assert smith_normal_form(mat) == smith_normal_form(transpose)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_matrices())
def test_smith_form_unchanged_by_row_negation(mat):
    flipped = [[-x for x in mat[0]]] + [row[:] for row in mat[1:]]
    assert smith_normal_form(flipped) == smith_normal_form(mat)


@st.composite
def _relations(draw):
    """A relation on range(n) whose pairs all go upward, so range(n) lists a
    linear extension of its closure."""
    n = draw(st.integers(0, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if draw(st.booleans())]
    return n, pairs


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_relations())
def test_abstract_masks_match_the_closure(relation):
    n, pairs = relation
    poset = from_relation(range(n), pairs)
    below = _naive.relation_closure(range(n), pairs)
    for x in range(n):
        assert poset.below(x, strict=True).members == tuple(
            y for y in range(n) if y != x and y in below[x])
        assert poset.above(x, strict=True).members == tuple(
            y for y in range(n) if y != x and x in below[y])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_relations())
def test_abstract_beat_points_and_cores_match_the_oracle(relation):
    n, pairs = relation
    poset = from_relation(range(n), pairs)
    below = _naive.relation_closure(range(n), pairs)
    down, up = poset.order.down, poset.order.up
    for alive in range(1 << n):
        for i in _naive._bits(alive):
            assert _is_beat(i, alive, down, up) == _naive.is_beat(
                i, alive, down, up)
    core = core_reduction(poset)
    assert _props.as_oracle(poset, core) == _naive.core_reduction(
        poset, lambda a, b: a in below[b])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_relations(), st.randoms(use_true_random=False))
def test_labels_must_list_a_linear_extension(relation, rnd):
    n, pairs = relation
    labels = list(range(n))
    rnd.shuffle(labels)
    where = {x: i for i, x in enumerate(labels)}
    if any(where[a] > where[b] for a, b in pairs):
        with pytest.raises(ValueError, match="linear extension"):
            from_relation(labels, pairs)
    else:
        # position i holds labels[i]
        poset = from_relation(labels, pairs)
        below = _naive.relation_closure(range(n), pairs)
        assert poset.members == tuple(range(n))
        for i, x in enumerate(labels):
            assert poset.below(i, strict=True).members == tuple(
                j for j, y in enumerate(labels) if y != x and y in below[x])


# ------------------------------------------------------------ the budget


def test_assertion_budget():
    total = _props.run_all()
    assert total == sum(EXPECTED.values())
    assert total >= 10_000
