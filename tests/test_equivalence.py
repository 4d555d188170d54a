"""Inclusion equivalences and fixed-point avatar comparisons.

The dihedral group of order 8 is the workhorse: its collections are small
enough to see every grading tier, including the genuine failures that keep
some comparisons at plain homotopy strength.
"""

import re

import pytest

from sclab.collections import collection_context
from sclab.contract import verify_certificate
from sclab.equivalence import (
    CERTIFIED,
    FAIL,
    HOMOLOGY_CONSISTENT,
    INCONCLUSIVE,
    MISMATCH,
    PASS,
    FixedPointComparison,
    FixedPointScan,
    fixed_point_equivalence_scan,
    verify_inclusion_equivalence,
)
from sclab.errors import NotASubposet
from sclab.group import builtin_group
from sclab.lattice import enumerate_subgroups
from sclab.poset import GPoset
from sclab.tables import TABLE31, TABLE44, verify_table_edges

import _naive as naive
from _suite import (SUITE, from_relation, lattice_of,
                    relation_poset, restrict)


@pytest.fixture(scope="module")
def d8():
    lat = enumerate_subgroups(builtin_group("D8"))
    return lat, collection_context(lat, 2)


def poset_of(lat, ctx, kind):
    return ctx.collection(kind)


def klein_four(lat):
    return next(r for r, n in enumerate(lat.sizes)
                if n == 4 and lat.is_elementary_abelian(r, 2))


# ------------------------------------------------------ inclusion checking


def test_fiber_mode_certifies_nested_collections(d8):
    lat, ctx = d8
    sub = poset_of(lat, ctx, "E")
    ambient = poset_of(lat, ctx, "tilde-A")
    res = verify_inclusion_equivalence(sub, ambient, "fibers")
    assert res.outcome == PASS
    assert res.witnesses == ()
    assert "equivariant" in res.claim
    # fiber checks run under the stabilizer of each ambient element
    assert all(stab is not None for _, stab, _ in res.per_element)


def test_fiber_pool_is_the_classes_outside_sub():
    """fibers mode checks one y per conjugacy class of ambient outside sub:
    the fiber of a y in sub is a cone on y. A sub that is not a union of
    classes gets every y of ambient outside it."""
    lat = lattice_of("S4")
    ctx = collection_context(lat, 2)
    sub, ambient = poset_of(lat, ctx, "hat-B"), poset_of(lat, ctx, "S")
    outside = set(ambient.members) - set(sub.members)
    classes = {frozenset(lat.conjugate(y, g)
                         for g in range(lat.group.order)) for y in outside}
    res = verify_inclusion_equivalence(sub, ambient, "fibers")
    assert [y for y, _, _ in res.per_element] == sorted(map(min, classes))
    assert len(classes) < len(outside)
    sylow = lat.sylow(2)[0]
    sub, ambient = sub.below(sylow), ambient.below(sylow)
    assert not lat.is_class_union(ambient.mask)
    res = verify_inclusion_equivalence(sub, ambient, "fibers",
                                       equivariant=False)
    outside = sorted(set(ambient.members) - set(sub.members))
    assert outside and [y for y, _, _ in res.per_element] == outside


def test_fibers_outcomes_match_every_fiber_checked_by_brute_force():
    """Over every suite plan and each fibers-mode inclusion the tables run,
    the outcome equals that of reducing every fiber, cones included, by the
    brute-force oracle; and every fiber at a member of sub is a point."""
    checked = 0
    for name, p in SUITE:
        lat = lattice_of(name)
        ctx = collection_context(lat, p)
        for table in (TABLE31, TABLE44):
            verify_table_edges(lat, p, table)
        for key, res in ctx.memo.items():
            if len(key) != 5 or key[2] != "fibers":
                continue
            sub_mask, ambient_mask, _, equivariant, _ = key
            sub = GPoset(lat.order, sub_mask, lat)
            ambient = GPoset(lat.order, ambient_mask, lat)
            outcome, found = naive.fiber_outcome(
                lat, sub, ambient, equivariant is not False)
            assert all(found[y] == "point" for y in sub.members), (name, p)
            if outcome is None:
                assert res.outcome != PASS, (name, p, key)
            else:
                assert res.outcome == outcome, (name, p, key)
            checked += 1
    assert checked > len(SUITE)


def test_lower_mode_certifies_plainly(d8):
    lat, ctx = d8
    sub = poset_of(lat, ctx, "E")
    ambient = poset_of(lat, ctx, "tilde-A")
    res = verify_inclusion_equivalence(sub, ambient, "lower")
    assert res.outcome == PASS
    assert all(stab is None for _, stab, _ in res.per_element)


def test_upper_mode_certificates_replay(d8):
    lat, ctx = d8
    sub = poset_of(lat, ctx, "tilde-B")
    ambient = poset_of(lat, ctx, "tilde-S")
    res = verify_inclusion_equivalence(sub, ambient, "upper")
    assert res.outcome == PASS
    # every stored certificate must replay against its own interval
    for y, _, verdict in res.per_element:
        assert verdict.method == "core"
        interval = ambient.above(y, strict=True)
        assert verify_certificate(interval, verdict)


def test_upper_equivariant_mode(d8):
    lat, ctx = d8
    sub = poset_of(lat, ctx, "tilde-B")
    ambient = poset_of(lat, ctx, "tilde-S")
    res = verify_inclusion_equivalence(sub, ambient, "upper-equivariant")
    assert res.outcome == PASS
    assert all(v.equivariant for _, _, v in res.per_element)
    for y, stab, verdict in res.per_element:
        interval = ambient.above(y, strict=True)
        assert verify_certificate(interval, verdict, equivariant_under=stab)


def test_a_pi1_certificate_leaves_a_demanded_element_undecided(
        d8, monkeypatch):
    # with no beat point found, each contractible interval falls through to
    # trivial homology plus a trivial fundamental group: a plain
    # certificate, which settles a plain check but not an equivariant one
    lat, ctx = d8
    monkeypatch.setattr("sclab.contract.core_reduction",
                        lambda poset, orbit=None: poset.mask)
    sub = poset_of(lat, ctx, "tilde-B")
    ambient = poset_of(lat, ctx, "tilde-S")
    plain = verify_inclusion_equivalence(sub, ambient, "upper")
    assert plain.outcome == PASS
    assert {v.method for _, _, v in plain.per_element} == {"pi1"}
    demanded = verify_inclusion_equivalence(sub, ambient, "upper-equivariant")
    assert demanded.outcome == INCONCLUSIVE
    assert demanded.per_element
    assert demanded.witnesses == tuple(y for y, _, _ in demanded.per_element)
    assert all(v.status == "CONTRACTIBLE" and v.equivariant is False
               for _, _, v in demanded.per_element)

    # a verdict left UNKNOWN is undecided whether or not equivariance is
    # demanded
    monkeypatch.setattr("sclab.contract.fundamental_group_trivial",
                        lambda complex_: None)
    unknown = verify_inclusion_equivalence(sub, ambient, "upper")
    assert unknown.outcome == INCONCLUSIVE
    assert unknown.witnesses == demanded.witnesses
    assert {v.status for _, _, v in unknown.per_element} == {"UNKNOWN"}


def test_lower_mode_detects_failing_hypothesis(d8):
    lat, ctx = d8
    sub = poset_of(lat, ctx, "tilde-B")
    ambient = poset_of(lat, ctx, "S")
    res = verify_inclusion_equivalence(sub, ambient, "lower")
    # minimal members of S have empty strict lower intervals
    assert res.outcome == FAIL
    center = lat.center(lat.full)
    assert center in res.witnesses
    for y, _, verdict in res.per_element:
        if y in res.witnesses:
            assert verdict.status == "NOT_CONTRACTIBLE"


def test_inclusion_mode_validation(d8):
    lat, ctx = d8
    sub = poset_of(lat, ctx, "E")
    ambient = poset_of(lat, ctx, "tilde-A")
    with pytest.raises(ValueError):
        verify_inclusion_equivalence(sub, ambient, "sideways")


def test_equivariant_demand_needs_a_lattice():
    ambient = relation_poset(("a", "b"), lambda x, y: x == y or x == "a")
    sub = restrict(ambient, (0,))  # "a"
    with pytest.raises(ValueError):
        verify_inclusion_equivalence(sub, ambient, "fibers")
    # the plain modes are fine on abstract posets
    res = verify_inclusion_equivalence(sub, ambient, "upper")
    assert res.outcome == FAIL  # above(b) is empty


def test_not_a_subposet_is_rejected(d8):
    lat, ctx = d8
    ambient = poset_of(lat, ctx, "tilde-A")
    stray = relation_poset(("zz",), lambda x, y: True)
    with pytest.raises(NotASubposet):
        verify_inclusion_equivalence(stray, ambient, "upper")
    # same positions, different order
    flat = relation_poset((1, 2), lambda a, b: a == b)
    chain = relation_poset((1, 2), lambda a, b: a <= b)
    with pytest.raises(NotASubposet):
        verify_inclusion_equivalence(flat, chain, "upper")
    # on one order, the error names the positions outside the ambient poset
    outside = [i for i in range(len(lat)) if i not in ambient]
    wider = GPoset(lat.order, (1 << len(lat)) - 1, lat)
    with pytest.raises(NotASubposet, match=re.escape(
            f"positions {outside[:5]!r} are not in the ambient poset")):
        verify_inclusion_equivalence(wider, ambient, "upper")


def test_subposet_orders_are_compared_unless_one_lattice_fixes_them(d8):
    lat, ctx = d8
    # abstract posets on the same positions whose orders disagree
    antichain = from_relation((0, 1), [])
    chain = from_relation((0, 1), [(0, 1)])
    for left, right in ((antichain, chain), (chain, antichain)):
        with pytest.raises(NotASubposet):
            verify_inclusion_equivalence(left, right, "upper")
        with pytest.raises(NotASubposet):
            fixed_point_equivalence_scan(lat, [lat.trivial], lambda h: left,
                                         lambda h: right)
    # the same positions on two lattices order different subgroups
    q8 = enumerate_subgroups(builtin_group("Q8"))
    mask = (1 << len(q8)) - 1
    on_d8 = GPoset(lat.order, mask, lat)
    on_q8 = GPoset(q8.order, mask, q8)
    with pytest.raises(NotASubposet, match="order disagrees"):
        verify_inclusion_equivalence(on_q8, on_d8, "upper")
    # posets on one lattice are both ordered by inclusion
    sub = poset_of(lat, ctx, "tilde-A")
    res = verify_inclusion_equivalence(sub, poset_of(lat, ctx, "tilde-S"),
                                       "fibers")
    assert res.outcome == PASS


def test_inclusion_result_to_json(d8):
    lat, ctx = d8
    sub = poset_of(lat, ctx, "E")
    ambient = poset_of(lat, ctx, "tilde-A")
    js = verify_inclusion_equivalence(sub, ambient, "fibers").to_json()
    assert js["mode"] == "fibers"
    assert js["outcome"] == PASS
    assert js["witnesses"] == []
    assert all(len(row) == 3 for row in js["per_element"])


# ------------------------------------------------- fixed-point comparisons


def test_restriction_scan_certifies_subgroup_avatars(d8):
    """above(H) versus the H-fixed subposet, over all subgroups of the
    2-group itself: equal sets or the retraction q -> qH everywhere. The
    certificate names H, and the map rebuilt from it as subgroup products
    lands in above(H)."""
    lat, ctx = d8
    poset = poset_of(lat, ctx, "tilde-S")
    scan = fixed_point_equivalence_scan(
        lat, range(len(lat)),
        lambda h: poset.above(h),
        lambda h: poset.fixed_points(h),
        retraction=lambda h: (">=", h))
    assert scan.status == CERTIFIED
    assert all(c.status != MISMATCH for c in scan.per_subgroup)
    methods = {c.method for c in scan.per_subgroup}
    assert methods <= {"equal", "retraction"}
    for c in scan.per_subgroup:
        if c.method == "retraction":
            h = c.subgroup
            cert = c.certificate
            assert (cert.side, cert.subgroup) == (">=", h)
            k = cert.subgroup
            avatar = poset.above(h)
            for q in poset.fixed_points(h).members:
                qk = naive.set_product(lat.group, lat.members(q),
                                       lat.members(k))
                assert lat.index(sum(1 << x for x in qk)) in avatar


def test_centralizer_scan_certifies_avatars(d8):
    """below(C_G(H)) versus the H-fixed subposet: E is equal everywhere,
    tilde-A needs the retraction q -> q ^ C_G(H) at eight subgroups. The
    certificate names C_G(H), and the map rebuilt from it as bitset
    intersections lands in below(C_G(H))."""
    lat, ctx = d8
    for kind, retractions in (("E", 0), ("tilde-A", 8)):
        poset = poset_of(lat, ctx, kind)
        scan = fixed_point_equivalence_scan(
            lat, range(len(lat)),
            lambda h: poset.below(lat.centralizer(h)),
            lambda h: poset.fixed_points(h),
            retraction=lambda h: ("<=", lat.centralizer(h)))
        assert scan.status == CERTIFIED
        rows = [c for c in scan.per_subgroup if c.method == "retraction"]
        assert len(rows) == retractions
        for c in rows:
            h = c.subgroup
            cg = lat.centralizer(h)
            cert = c.certificate
            assert (cert.side, cert.subgroup) == ("<=", cg)
            k = lat.bitsets[cert.subgroup]
            avatar = poset.below(cg)
            assert all(lat.index(lat.bitsets[q] & k) in avatar
                       for q in poset.fixed_points(h).members)


def test_retraction_needs_a_lattice_backed_poset(d8):
    lat, _ = d8
    cone = relation_poset(("x", "y", "top"), lambda a, b: a == b or b == "top")
    point = restrict(cone, (2,))  # "top"
    with pytest.raises(ValueError, match="lattice"):
        fixed_point_equivalence_scan(
            lat, [lat.trivial], lambda h: point, lambda h: cone,
            retraction=lambda h: (">=", h))


def test_scan_flags_emptiness_mismatch(d8):
    """At the Klein subgroup the centralizer avatar of the top collection
    is empty while the ambient one is a chain: a genuine obstruction."""
    lat, ctx = d8
    tb = poset_of(lat, ctx, "tilde-B")
    ts = poset_of(lat, ctx, "tilde-S")
    v4 = klein_four(lat)
    scan = fixed_point_equivalence_scan(
        lat, [v4],
        lambda h: tb.below(lat.centralizer(h)),
        lambda h: ts.below(lat.centralizer(h)))
    assert scan.status == MISMATCH
    (row,) = [c for c in scan.per_subgroup if c.status == MISMATCH]
    assert row.method == "emptiness"
    assert row.detail == {"left": 0, "right": 2}


def test_scan_flags_contractibility_mismatch(d8):
    lat, _ = d8
    cone = relation_poset(("x", "y", "top"), lambda a, b: a == b or b == "top")
    two = restrict(cone, (0, 1))  # "x", "y"
    scan = fixed_point_equivalence_scan(
        lat, [lat.trivial], lambda h: two, lambda h: cone)
    assert scan.status == MISMATCH
    (row,) = scan.per_subgroup
    assert row.method == "contractibility"


def test_scan_homology_consistent_tier(d8):
    lat, _ = d8

    def circle(x, y):
        return x == y or (isinstance(y, str) and isinstance(x, int)
                          and y != "whisker" and x in (int(y[0]), int(y[1])))

    labels = (0, 1, 2, "01", "12", "02")
    right = relation_poset(
        labels + ("whisker",),
        lambda a, b: circle(a, b) or (a == "whisker" and b == "whisker")
        or (a == 0 and b == "whisker"))
    left = restrict(right, range(len(labels)))
    scan = fixed_point_equivalence_scan(
        lat, [lat.trivial], lambda h: left, lambda h: right)
    assert scan.status == HOMOLOGY_CONSISTENT
    (row,) = scan.per_subgroup
    assert row.method == "homology"
    assert row.detail["left"] == row.detail["right"]


def test_scan_both_contractible_tier(d8):
    lat, ctx = d8
    point = poset_of(lat, ctx, "E")
    tree = poset_of(lat, ctx, "A")
    scan = fixed_point_equivalence_scan(
        lat, [lat.trivial], lambda h: point, lambda h: tree)
    assert scan.status == CERTIFIED
    (row,) = scan.per_subgroup
    assert row.method == "both-contractible"


def test_scan_status_is_worst_of_rows():
    def row(status):
        return FixedPointComparison(0, 1, status, "stub", None, {})

    assert FixedPointScan((row(CERTIFIED),)).status == CERTIFIED
    assert FixedPointScan(
        (row(CERTIFIED), row(HOMOLOGY_CONSISTENT))).status == HOMOLOGY_CONSISTENT
    worst = FixedPointScan(
        (row(CERTIFIED), row(HOMOLOGY_CONSISTENT), row(MISMATCH)))
    assert worst.status == MISMATCH
    assert sum(c.status == MISMATCH for c in worst.per_subgroup) == 1
    js = worst.to_json()
    assert js["status"] == MISMATCH
    assert len(js["per_subgroup"]) == 3
