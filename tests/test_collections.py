from pathlib import Path

import pytest

import _naive as naive
from _props import one_class_of_order_p
from _suite import (SMALL_SUITE, SUITE, element_set, lattice_of,
                    nontrivial_p_subgroups)
from sclab.collections import (CONDITIONS, KINDS, CollectionContext,
                               collection_context)
from sclab.errors import PrimeDoesNotDivide
from sclab.group import load_group, positions
from sclab.lattice import enumerate_subgroups
from sclab.poset import GPoset
from sclab.tables import verify_inclusion_chains, verify_table_edges

DATA = Path(__file__).parent / "data"


def members_as_sets(lat, coll):
    return {frozenset(lat.members(m)) for m in coll.members}


def test_engine_agrees_with_naive_oracle():
    """Every collection's member set matches the brute-force re-derivation
    for all suite groups of order at most 48."""
    for name, p in SMALL_SUITE:
        lat = lattice_of(name)
        ctx = collection_context(lat, p)
        all_subs = naive.subgroups(lat.group)
        assert element_set(ctx.E0) == naive.E0(lat.group, all_subs, p), (name, p)
        assert element_set(ctx.E1) == naive.E1(
            lat.group, element_set(ctx.E0), p), (name, p)
        for kind in KINDS:
            got = members_as_sets(lat, ctx.collection(kind))
            want = naive.collection(lat.group, all_subs, p, kind)
            assert got == want, (name, p, kind)


def test_principal_radicals_agree_with_naive_oracle():
    """D, decided by the p-core of N_G(P) over P C_G(P) inside the lattice,
    matches the oracle's normal subgroups between P C_G(P) and N_G(P), on
    every p-subgroup of each suite group and of PSL(2,7) at each prime. The
    oracle is handed the lattice's member sets, which
    test_counts_match_naive_enumeration checks on the small groups."""
    psl27 = enumerate_subgroups(load_group(str(DATA / "psl27.grp")))
    plans = [(lattice_of(name), p) for name, p in SUITE]
    plans += [(psl27, p) for p in (2, 3, 7)]
    for lat, p in plans:
        ctx = collection_context(lat, p)
        all_subs = [frozenset(lat.members(r)) for r in range(len(lat))]
        for m in range(len(lat)):
            if lat.is_p_group(m, p):
                h = frozenset(lat.members(m))
                want = naive.is_principal_radical(lat.group, all_subs, h, p)
                assert ctx.is_principal_p_radical(m) == want, (
                    lat.group.name, p, m)


def test_operators_agree_with_naive_oracle():
    for name, p in [("D8", 2), ("S4", 2), ("SL23", 2), ("D12", 3)]:
        lat = lattice_of(name)
        ctx = collection_context(lat, p)
        for m in nontrivial_p_subgroups(lat, p):
            h = frozenset(lat.members(m))
            assert frozenset(lat.members(ctx.tilde_of(m))) == naive.tilde(
                lat.group, h, p, element_set(ctx.E1)), (name, p, m)
            assert frozenset(lat.members(ctx.hat_of(m))) == naive.hat(
                lat.group, h, p, element_set(ctx.E0)), (name, p, m)


@pytest.mark.parametrize("name,p", SUITE)
def test_every_collection_is_a_union_of_classes(name, p):
    # the collections are built a class at a time, so decide membership
    # at every subgroup, as the definitions read, and compare
    lat = lattice_of(name)
    ctx = collection_context(lat, p)
    for kind in KINDS:
        coll = ctx.collection(kind)
        assert isinstance(coll, GPoset) and coll.order is lat.order, kind
        assert coll.lattice is lat and coll.name == f"{kind}_{p}", kind
        assert ctx.collection(kind) is coll, kind
        assert coll.members == tuple(positions(coll.mask)), kind
        assert lat.is_class_union(coll.mask), kind
        if kind.startswith(("tilde-", "hat-")):
            op, base = kind.split("-", 1)
            operator = ctx.tilde_of if op == "tilde" else ctx.hat_of
            want = [m for m in ctx.collection(base).members
                    if lat.sizes[operator(m)] > 1]
        else:
            want = [m for m in nontrivial_p_subgroups(lat, p)
                    if ctx._base_member(kind, m)]
        assert coll.members == tuple(want), kind


def test_d8_collection_sizes():
    ctx = collection_context(lattice_of("D8"), 2)
    sizes = {kind: len(ctx.collection(kind)) for kind in KINDS}
    assert sizes == {"A": 7, "S": 9, "B": 1, "Ce": 4, "Bcen": 1, "D": 1,
                     "E": 1, "tilde-A": 3, "tilde-S": 5, "tilde-B": 1,
                     "hat-A": 3, "hat-S": 5, "hat-B": 1}


def test_d8_central_type_structure():
    # the only central-type element of D8 is the central rotation
    lat = lattice_of("D8")
    ctx = collection_context(lat, 2)
    assert ctx.E0.bit_count() == 1
    assert ctx.E1 == ctx.E0
    center = lat.center(lat.full)
    assert ctx.collection("E").members == (center,)
    # hat and tilde coincide on every 2-subgroup here
    for m in nontrivial_p_subgroups(lat, 2):
        assert ctx.tilde_of(m) == ctx.hat_of(m)


def test_q8_hat_b_is_the_whole_group():
    lat = lattice_of("Q8")
    ctx = collection_context(lat, 2)
    assert ctx.collection("hat-B").members == (lat.full,)
    assert ctx.collection("Bcen").members == (lat.full,)


def test_tilde_hat_tower():
    # hat(P) <= tilde(P) <= P for every nontrivial p-subgroup
    for name, p in [("S4", 2), ("A5", 2), ("S5", 2), ("SL23", 2)]:
        lat = lattice_of(name)
        ctx = collection_context(lat, p)
        for m in nontrivial_p_subgroups(lat, p):
            assert lat.leq(ctx.hat_of(m), ctx.tilde_of(m))
            assert lat.leq(ctx.tilde_of(m), m)


def test_conditions_on_d8_all_hold():
    ctx = collection_context(lattice_of("D8"), 2)
    for c in CONDITIONS:
        report = ctx.condition(c)
        assert report["holds"], c
        assert report["witnesses"] == []


def test_local_characteristic_fails_for_s5():
    ctx = collection_context(lattice_of("S5"), 2)
    report = ctx.condition("Ch")
    assert not report["holds"]
    assert len(report["witnesses"]) == 1
    witness = report["witnesses"][0]
    # re-check the witness from the definition
    lat = ctx.lattice
    h = witness["index"]
    core = lat.p_core(h, 2)
    ch = frozenset(lat.members(lat.centralizer(core))) & frozenset(lat.members(h))
    assert not ch <= frozenset(lat.members(core))


def test_local_characteristic_fails_for_d12():
    for p in (2, 3):
        assert not collection_context(lattice_of("D12"), p).condition("Ch")["holds"]


def test_commuting_closure_holds_on_suite():
    for name, p in SMALL_SUITE:
        assert collection_context(lattice_of(name), p).condition("Cl")["holds"]


def test_equalities_under_local_characteristic():
    ctx = collection_context(lattice_of("S4"), 2)
    result = ctx.equalities_under_Ch()
    assert result["equal"] is True
    assert {c["order"] for c in result["common"]} == {4, 8}


def test_equalities_require_the_condition():
    ctx = collection_context(lattice_of("S5"), 2)
    assert ctx.equalities_under_Ch() is None


def test_condition_M_fails_without_a_host():
    """M holds on every input here; a context that knows no p-local
    subgroup has no host for any normalizer, so M names the first
    distinguished subgroup."""
    ctx = CollectionContext(lattice_of("D8"), 2)
    ctx.p_locals = ()
    report = ctx.condition("M")
    assert report["holds"] is False
    first = ctx.collection("hat-S").members[0]
    assert report["witnesses"] == [ctx._witness_subgroup(first)]


def test_equalities_name_a_separating_subgroup():
    """Wherever Ch holds here, B, hat-B and Bcen coincide; a context whose
    hat-B misses the first radical must name that radical."""
    ctx = CollectionContext(lattice_of("S4"), 2)
    b = ctx.collection("B")
    first = b.members[0]
    ctx._collections["hat-B"] = b._sub(b.mask & ~(1 << first), "hat-B_2")
    assert ctx.equalities_under_Ch() == {
        "equal": False,
        "counterexample": {**ctx._witness_subgroup(first), "in_B": True,
                           "in_hat_B": False, "in_Bcen": True}}


def test_one_class_shortcut_examples():
    assert one_class_of_order_p(lattice_of("Q8").group, 2)
    assert one_class_of_order_p(lattice_of("A4").group, 2)
    assert not one_class_of_order_p(lattice_of("D8").group, 2)
    assert not one_class_of_order_p(lattice_of("A5").group, 5)


def test_collection_membership_api():
    lat = lattice_of("D8")
    ctx = collection_context(lat, 2)
    coll = ctx.collection("tilde-S")
    assert lat.full in coll
    assert lat.trivial not in coll
    described = list(map(ctx._witness_subgroup, coll.members))
    assert len(described) == len(coll)
    assert all({"index", "order", "generators"} <= d.keys() for d in described)


def test_unknown_kind_and_condition():
    ctx = collection_context(lattice_of("D8"), 2)
    with pytest.raises(ValueError):
        ctx.collection("Z")
    with pytest.raises(ValueError):
        ctx.condition("Q")


def test_prime_must_divide():
    with pytest.raises(PrimeDoesNotDivide):
        collection_context(lattice_of("D8"), 3)


def test_a_composite_p_above_the_group_order_is_not_called_a_prime():
    with pytest.raises(PrimeDoesNotDivide,
                       match="^25 does not divide the group order 24$"):
        collection_context(lattice_of("S4"), 25)


@pytest.mark.parametrize("p", [1, 4, 6])
def test_a_p_that_is_not_a_prime_is_rejected(p):
    # each divides |S4| = 24; unchecked, p = 1 looped forever in p_part,
    # p = 4 raised InternalInconsistency and p = 6 built collections of
    # "6-subgroups" with graded table edges
    lat = lattice_of("S4")
    for build in (collection_context, verify_inclusion_chains,
                  lambda lat, p: verify_table_edges(lat, p, "table31")):
        with pytest.raises(ValueError, match=f"^{p} is not a prime$"):
            build(lat, p)


@pytest.fixture(scope="module")
def a4wrz2():
    """A4 wr Z2 at p = 2, of order 288 with 442 subgroups: E1 is larger
    than E0, and E0 is not closed under commuting products."""
    group = load_group(str(DATA / "a4wrz2.grp"))
    return collection_context(enumerate_subgroups(group), 2)


def test_a4_wreath_z2_agrees_with_naive_oracle(a4wrz2):
    # the oracle is handed the lattice's member sets: naive.subgroups
    # takes minutes on this group
    lat = a4wrz2.lattice
    all_subs = [frozenset(lat.members(r)) for r in range(len(lat))]
    e0 = naive.E0(lat.group, all_subs, 2)
    e1 = naive.E1(lat.group, e0, 2)
    assert (len(e0), len(e1)) == (9, 15)
    assert element_set(a4wrz2.E0) == e0
    assert element_set(a4wrz2.E1) == e1
    for kind in KINDS:
        assert members_as_sets(lat, a4wrz2.collection(kind)) == (
            naive.collection(lat.group, all_subs, 2, kind)), kind


def test_commuting_closure_fails_on_a4_wreath_z2(a4wrz2):
    report = a4wrz2.condition("Cl")
    assert not report["holds"]
    assert report["witnesses"] == [{"x": "(0 1)(2 3)(4 5)(6 7)",
                                    "y": "(0 1)(2 3)(4 6)(5 7)",
                                    "xy": "(4 7)(5 6)"}]


def test_context_facts_on_q8():
    ctx = collection_context(lattice_of("Q8"), 2)
    assert ctx.E0 == ctx.E1
    assert len(ctx.collection("S")) == 5
    assert ctx.condition("M")["holds"]


def test_p_locals_s4():
    # the 3-locals of S4 are the four S3 point stabilizers and N(Sylow3)...
    # N(Z3) = S3 of order 6, so exactly the four order-6 subgroups
    ctx = collection_context(lattice_of("S4"), 3)
    locals3 = ctx.p_locals
    assert len(locals3) == 4
    assert all(ctx.lattice.sizes[r] == 6 for r in locals3)


@pytest.mark.parametrize("name,p", SUITE)
def test_p_locals_are_the_normalizers_of_the_p_subgroups(name, p):
    lat = lattice_of(name)
    want = sorted({lat.normalizer(m) for m in nontrivial_p_subgroups(lat, p)})
    assert collection_context(lat, p).p_locals == tuple(want)


def test_context_is_memoized():
    lat = lattice_of("D8")
    assert collection_context(lat, 2) is collection_context(lat, 2)
