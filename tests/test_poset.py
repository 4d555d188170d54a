import pytest

from _suite import (from_maximal_simplices, from_relation, lattice_of,
                    relation_poset, restrict)
from sclab.collections import collection_context
from sclab.errors import SizeCap
from sclab.poset import order_complex

# the divisor poset of 12 under divisibility, a handy 6-element example
DIVISORS = (1, 2, 3, 4, 6, 12)


def divisor_poset():
    return relation_poset(DIVISORS, lambda a, b: b % a == 0, name="div12")


def test_membership_and_relation():
    poset = divisor_poset()
    assert len(poset) == 6
    assert 4 in poset and 5 not in poset
    assert 4 in poset.above(2) and 2 not in poset.above(4)
    assert 4 in poset.above(2, strict=True)
    assert 4 not in poset.above(4, strict=True)
    assert 3 not in poset.above(2) and 2 not in poset.below(3)


def test_above_below_between():
    poset = divisor_poset()
    assert set(poset.above(2).labels) == {2, 4, 6, 12}
    assert set(poset.above(2, strict=True).labels) == {4, 6, 12}
    assert set(poset.below(6).labels) == {1, 2, 3, 6}
    assert set(poset.above(2).below(12).labels) == {2, 4, 6, 12}
    assert set(poset.above(2, strict=True).below(12, strict=True).labels) \
        == {4, 6}


def test_cut_point_need_not_be_member():
    poset = restrict(divisor_poset(), [2, 3, 4, 6, 12])
    assert set(poset.above(1).labels) == {2, 3, 4, 6, 12}


def test_from_relation():
    poset = from_relation("abc", [("a", "b"), ("b", "c")])
    assert "c" in poset.above("a")  # transitive closure is applied
    assert poset.above("a", strict=True).labels == ("b", "c")
    assert "a" not in poset.above("c")
    # a reflexive pair is accepted and adds nothing
    looped = from_relation("ab", [("a", "a"), ("a", "b"), ("b", "b")])
    assert looped.above("a", strict=True).labels == ("b",)
    assert looped.below("b", strict=True).labels == ("a",)


def test_from_relation_rejects_cycles():
    with pytest.raises(ValueError):
        from_relation("ab", [("a", "b"), ("b", "a")])


def test_labels_must_list_a_linear_extension():
    with pytest.raises(ValueError, match="linear extension"):
        from_relation("ba", [("a", "b")])
    with pytest.raises(ValueError, match="linear extension"):
        relation_poset((4, 2, 1), lambda a, b: b % a == 0)


def test_lattice_backed_poset():
    lat = lattice_of("D8")
    ctx = collection_context(lat, 2)
    poset = ctx.collection("S")
    assert len(poset) == 9
    z = lat.center(lat.full)
    assert set(r.order for r in map(lat.ref, poset.above(z).labels)) == {2, 4, 8}


def test_fixed_points_matches_naive_normalization():
    lat = lattice_of("S4")
    ctx = collection_context(lat, 2)
    poset = ctx.collection("S")
    for h in lat.subgroups[::5]:
        fixed = poset.fixed_points(h)
        expected = {i for i in poset.labels
                    if all(lat.conjugate_bitset(lat.ref(i).bitset, g)
                           == lat.ref(i).bitset for g in lat.members(h))}
        assert set(fixed.labels) == expected


def test_invariance_and_conjugation():
    lat = lattice_of("S4")
    ctx = collection_context(lat, 2)
    poset = ctx.collection("B")
    gens = lat.group.generator_indices
    assert poset.orbits(gens) is not None
    for g in gens:
        for x in poset.labels:
            image = poset.conjugate_label(g, x)
            assert image in poset.labels
            assert lat.ref(image).bitset == lat.conjugate_bitset(
                lat.ref(x).bitset, g)


def test_restrict_keeps_backing():
    lat = lattice_of("D8")
    ctx = collection_context(lat, 2)
    poset = ctx.collection("S")
    sub = restrict(poset, poset.labels[:3])
    assert sub.lattice is lat and sub.order is poset.order
    assert sub.labels == poset.labels[:3]


def test_order_complex_of_chain_and_antichain():
    chain = relation_poset((1, 2, 4), lambda a, b: b % a == 0)
    cx = order_complex(chain)
    assert cx.counts() == (3, 3, 1)
    assert cx.euler_characteristic() == 1
    antichain = relation_poset((2, 3), lambda a, b: a == b)
    assert order_complex(antichain).counts() == (2,)


def test_order_complex_divisors():
    # 12 has chains like 1|2|4|12: the complex has dimension 3
    cx = order_complex(divisor_poset())
    assert cx.dimension == 3
    assert cx.counts()[0] == 6
    # every 2-face of every 3-simplex is present (closure under faces)
    top = set(cx.simplices[2])
    for s in cx.simplices[3]:
        for k in range(4):
            assert tuple(x for i, x in enumerate(s) if i != k) in top


def test_order_complex_empty():
    empty = relation_poset((), lambda a, b: True)
    cx = order_complex(empty)
    assert cx.is_empty()
    assert cx.counts() == ()


def test_order_complex_cap():
    lat = lattice_of("S4")
    ctx = collection_context(lat, 2)
    poset = ctx.collection("S")
    with pytest.raises(SizeCap):
        order_complex(poset, 3)


def test_from_maximal_simplices():
    cx = from_maximal_simplices([(0, 1, 2), (2, 3)])
    assert cx.counts() == (4, 4, 1)
    assert not cx.is_empty()
