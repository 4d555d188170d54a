import pytest

import _naive as naive
from _suite import (from_maximal_simplices, from_relation,
                    lattice_of, relation_poset, restrict)
from sclab.collections import KINDS, collection_context
from sclab.errors import SizeCap
from sclab.poset import GPoset, order_complex

# the divisor poset of 12 under divisibility, a handy 6-element example;
# the divisor DIVISORS[i] sits at position i
DIVISORS = (1, 2, 3, 4, 6, 12)
at = DIVISORS.index


def divisor_poset():
    return relation_poset(DIVISORS, lambda a, b: b % a == 0, name="div12")


def divisors(poset):
    return {DIVISORS[i] for i in poset.members}


def test_membership_and_relation():
    poset = divisor_poset()
    assert len(poset) == 6
    assert at(12) in poset and 6 not in poset  # positions 0 to 5
    assert at(4) in poset.above(at(2)) and at(2) not in poset.above(at(4))
    assert at(4) in poset.above(at(2), strict=True)
    assert at(4) not in poset.above(at(4), strict=True)
    assert at(3) not in poset.above(at(2))
    assert at(2) not in poset.below(at(3))


def test_above_below_between():
    poset = divisor_poset()
    assert divisors(poset.above(at(2))) == {2, 4, 6, 12}
    assert divisors(poset.above(at(2), strict=True)) == {4, 6, 12}
    assert divisors(poset.below(at(6))) == {1, 2, 3, 6}
    assert divisors(poset.above(at(2)).below(at(12))) == {2, 4, 6, 12}
    assert divisors(poset.above(at(2), strict=True)
                    .below(at(12), strict=True)) == {4, 6}


def test_cut_point_need_not_be_member():
    poset = restrict(divisor_poset(), map(at, [2, 3, 4, 6, 12]))
    assert at(1) not in poset
    assert divisors(poset.above(at(1))) == {2, 3, 4, 6, 12}
    assert divisors(poset.below(at(1))) == set()


def test_from_relation():
    poset = from_relation("abc", [("a", "b"), ("b", "c")])
    assert poset.members == (0, 1, 2)
    assert 2 in poset.above(0)  # transitive closure is applied
    assert poset.above(0, strict=True).members == (1, 2)
    assert 0 not in poset.above(2)
    # a reflexive pair is accepted and adds nothing
    looped = from_relation("ab", [("a", "a"), ("a", "b"), ("b", "b")])
    assert looped.above(0, strict=True).members == (1,)
    assert looped.below(1, strict=True).members == (0,)


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
    assert set(lat.sizes[r] for r in poset.above(z).members) == {2, 4, 8}


def test_fixed_points_matches_naive_normalization():
    lat = lattice_of("S4")
    ctx = collection_context(lat, 2)
    poset = ctx.collection("S")
    for h in range(0, len(lat), 5):
        fixed = poset.fixed_points(h)
        expected = {i for i in poset.members
                    if all(lat.conjugate(i, g) == i for g in lat.members(h))}
        assert set(fixed.members) == expected


def test_invariance_and_conjugation():
    lat = lattice_of("S4")
    ctx = collection_context(lat, 2)
    poset = ctx.collection("B")
    orbits = poset.orbits(lat.full)
    assert orbits is not None
    for g in lat.group.generator_indices:
        for x in poset.members:
            image = lat.conjugate(x, g)
            assert image in poset
            assert orbits[image] == orbits[x]


def test_orbits_need_a_lattice_only_to_act():
    """Without a lattice no subgroup can act, empty poset or not."""
    poset = relation_poset("abc", lambda a, b: a == b or b == "c")
    for sub in (poset, GPoset(poset.order, 0)):
        with pytest.raises(ValueError):
            sub.orbits(0)


@pytest.mark.parametrize("name", ["S4", "S5"])
def test_whole_group_orbits_are_the_breadth_first_orbits(name):
    """The orbits of the whole group are read off the class masks; on every
    invariant collection at 2 they must be the orbits found breadth-first
    over the generating set of the whole group."""
    lat = lattice_of(name)
    gens = lat.generating_set(lat.full)
    ctx = collection_context(lat, 2)
    invariant = 0
    for kind in KINDS:
        poset = ctx.collection(kind)
        if not lat.is_class_union(poset.mask):
            continue
        invariant += 1
        xs = poset.members
        expected = [sum(1 << xs[k] for k in naive._bits(m))
                    for m in naive._orbit_masks(poset, gens)]
        orbits = poset.orbits(lat.full)
        assert [orbits[x] for x in xs] == expected, kind
    assert invariant


def test_restrict_keeps_backing():
    lat = lattice_of("D8")
    ctx = collection_context(lat, 2)
    poset = ctx.collection("S")
    sub = restrict(poset, poset.members[:3])
    assert sub.lattice is lat and sub.order is poset.order
    assert sub.members == poset.members[:3]


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
