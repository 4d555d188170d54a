"""Simple-connectivity checks via the bounded edge-path simplifier.

The verdicts are one-sided: True means the presentation collapsed, None
means undecided (which is the required answer for anything with actual
fundamental group, since the simplifier never proves nontriviality).
"""

from itertools import combinations

from sclab.fundgroup import (
    edge_path_presentation,
    fundamental_group_trivial,
    simplify_presentation,
)
from sclab.poset import OrderComplex

from _suite import from_maximal_simplices
from test_homology import DUNCE_FACETS, MOORE3_FACETS, RP2_FACETS


def complex_of(maximal):
    return from_maximal_simplices(maximal)


def test_point_and_cone_are_simply_connected():
    assert fundamental_group_trivial(complex_of([(0,)])) is True
    assert fundamental_group_trivial(complex_of([(0, 1, 2)])) is True


def test_sphere_is_simply_connected():
    facets = list(combinations(range(4), 3))
    assert fundamental_group_trivial(complex_of(facets)) is True


def test_dunce_hat_is_simply_connected():
    # contractible but not collapsible; the Tietze pass must still finish it
    assert fundamental_group_trivial(complex_of(DUNCE_FACETS)) is True


def test_circle_stays_undecided():
    cx = complex_of([(0, 1), (1, 2), (0, 2)])
    assert fundamental_group_trivial(cx) is None


def test_torsion_spaces_stay_undecided():
    assert fundamental_group_trivial(complex_of(RP2_FACETS)) is None
    assert fundamental_group_trivial(complex_of(MOORE3_FACETS)) is None


def test_disconnected_complex_is_undecided():
    cx = complex_of([(0, 1, 2), (3, 4, 5)])
    assert fundamental_group_trivial(cx) is None


def test_empty_complex_is_undecided():
    assert fundamental_group_trivial(OrderComplex({})) is None


def test_zero_pass_budget_gives_none(monkeypatch):
    monkeypatch.setattr("sclab.fundgroup.MAX_PASSES", 0)
    facets = list(combinations(range(4), 3))
    assert fundamental_group_trivial(complex_of(facets)) is None


def test_presentation_counts_non_tree_edges():
    # triangle boundary: 3 edges, spanning tree uses 2, one generator left
    pres = edge_path_presentation(complex_of([(0, 1), (1, 2), (0, 2)]))
    assert pres is not None
    ngens, relators = pres
    assert ngens == 1
    assert relators == []


def test_presentation_relator_per_triangle():
    pres = edge_path_presentation(complex_of([(0, 1, 2)]))
    assert pres is not None
    ngens, relators = pres
    assert ngens == 1
    # the lone generator dies on the face relator
    assert simplify_presentation(ngens, relators) == (set(), [])


def test_simplifier_handles_length_two_relators():
    # <a, b | ab, a> collapses completely
    alive, rels = simplify_presentation(2, [(1, 2), (1,)])
    assert alive == set()
    assert rels == []


def test_simplifier_removes_a_generator_used_exactly_once():
    # <a, b | a b^2>: a = b^-2 goes with its relator, leaving b free
    alive, rels = simplify_presentation(2, [(1, 2, 2)])
    assert alive == {2}
    assert rels == []


def test_simplifier_leaves_hard_presentations_alone():
    # <a | a^2> has no move available: not a proof of triviality
    alive, rels = simplify_presentation(1, [(1, 1)])
    assert alive == {1}
    assert rels == [(1, 1)]
