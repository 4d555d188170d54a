import pytest

from _suite import lattice_of
from sclab.collections import collection_context
from sclab.errors import SizeCap
from sclab.poset import GPoset, OrderComplex, order_complex

# the divisor poset of 12 under divisibility, a handy 6-element example
DIVISORS = (1, 2, 3, 4, 6, 12)


def divisor_poset():
    return GPoset(DIVISORS, lambda a, b: b % a == 0, name="div12")


def test_membership_and_relation():
    poset = divisor_poset()
    assert len(poset) == 6
    assert 4 in poset and 5 not in poset
    assert poset.leq(2, 4) and not poset.leq(4, 2)
    assert poset.lt(2, 4) and not poset.lt(4, 4)
    assert not poset.leq(2, 3)


def test_above_below_between():
    poset = divisor_poset()
    assert set(poset.above(2).labels) == {2, 4, 6, 12}
    assert set(poset.above(2, strict=True).labels) == {4, 6, 12}
    assert set(poset.below(6).labels) == {1, 2, 3, 6}
    assert set(poset.between(2, 12).labels) == {2, 4, 6, 12}
    assert set(poset.between(2, 12, strict=True).labels) == {4, 6}


def test_cut_point_need_not_be_member():
    poset = divisor_poset().restrict([2, 3, 4, 6, 12])
    assert set(poset.above(1).labels) == {2, 3, 4, 6, 12}


def test_from_relation():
    poset = GPoset.from_relation("abc", [("a", "b"), ("b", "c")])
    assert poset.leq("a", "c")  # transitive closure is applied
    assert poset.lt("a", "b")
    assert not poset.leq("c", "a")


def test_from_relation_rejects_cycles():
    with pytest.raises(ValueError):
        GPoset.from_relation("ab", [("a", "b"), ("b", "a")])


def test_lattice_backed_poset():
    lat = lattice_of("D8")
    ctx = collection_context(lat, 2)
    poset = GPoset.from_collection(lat, ctx.collection("S"))
    assert len(poset) == 9
    z = lat.center(lat.full)
    assert set(r.order for r in map(lat.ref, poset.above(z).labels)) == {2, 4, 8}


def test_fixed_points_matches_naive_normalization():
    lat = lattice_of("S4")
    ctx = collection_context(lat, 2)
    poset = GPoset.from_collection(lat, ctx.collection("S"))
    for h in lat.subgroups[::5]:
        fixed = poset.fixed_points(h)
        expected = {i for i in poset.labels
                    if all(lat.conjugate_bitset(lat.ref(i).bitset, g)
                           == lat.ref(i).bitset for g in lat.members(h))}
        assert set(fixed.labels) == expected


def test_invariance_and_conjugation():
    lat = lattice_of("S4")
    ctx = collection_context(lat, 2)
    poset = GPoset.from_collection(lat, ctx.collection("B"))
    gens = lat.group.generator_indices
    assert poset.is_invariant_under(gens)
    one = poset.labels[0]
    for g in gens:
        assert poset.conjugate_label(g, one) in poset.labels or True


def test_restrict_keeps_backing():
    lat = lattice_of("D8")
    ctx = collection_context(lat, 2)
    poset = GPoset.from_collection(lat, ctx.collection("S"))
    sub = poset.restrict(poset.labels[:3])
    assert sub.ref(sub.labels[0]).order >= 1  # still lattice backed


def test_order_complex_of_chain_and_antichain():
    chain = GPoset((1, 2, 4), lambda a, b: b % a == 0)
    cx = order_complex(chain)
    assert cx.counts() == (3, 3, 1)
    assert cx.euler_characteristic() == 1
    antichain = GPoset((2, 3), lambda a, b: a == b)
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
    empty = GPoset((), lambda a, b: True)
    cx = order_complex(empty)
    assert cx.is_empty()
    assert cx.counts() == ()


def test_order_complex_cap():
    lat = lattice_of("S4")
    ctx = collection_context(lat, 2)
    poset = GPoset.from_collection(lat, ctx.collection("S"))
    with pytest.raises(SizeCap):
        order_complex(poset, 3)


def test_from_maximal_simplices():
    cx = OrderComplex.from_maximal_simplices([(0, 1, 2), (2, 3)])
    assert cx.counts() == (4, 4, 1)
    assert not cx.is_empty()
