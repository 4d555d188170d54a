"""Acceptance gate: one test per release criterion, one visible PASS/FAIL
line each. Everything here is also covered in finer grain by the module
tests; this file is the single place that re-runs the full battery
end-to-end and prints an auditable summary.
"""

import time
from contextlib import contextmanager

import pytest

import _naive as naive
import _props
from _suite import SMALL_SUITE, SUITE, element_set, lattice_of
from sclab.collections import KINDS, collection_context
from sclab.contract import CONTRACTIBLE, contractibility_verdict
from sclab.equivalence import CERTIFIED, HOMOLOGY_CONSISTENT, MISMATCH
from sclab.homology import homology
from sclab.poset import GPoset, order_complex
from sclab.tables import SKIPPED, verify_counterexamples, verify_inclusion_chains, verify_table_edges

CONDITION_NAMES = ("M", "Cl", "Ch")

# reduced Betti numbers of the big-collection nerves, pinned suite-wide;
# torsion is empty throughout
BASE_BETTI = {
    ("D8", 2): (), ("Q8", 2): (), ("Zn:2", 2): (), ("Zn:3", 3): (),
    ("Zn:5", 5): (), ("S3", 2): (2,), ("S3", 3): (), ("S4", 2): (),
    ("S4", 3): (3,), ("A4", 2): (), ("A4", 3): (3,), ("D12", 2): (),
    ("D12", 3): (), ("SL23", 2): (), ("SL23", 3): (3,), ("A5", 2): (4,),
    ("A5", 3): (9,), ("A5", 5): (5,), ("S5", 2): (0, 16), ("S5", 3): (9,),
    ("S5", 5): (5,),
}

# the distinguished families share one profile per suite entry; it departs
# from the big collections only for the degree-5 symmetric group at p = 2
DISTINGUISHED_BETTI = BASE_BETTI | {("S5", 2): (4,)}

# suite entries where local characteristic p fails: each has a p-local
# subgroup whose p-core is centralized from outside itself
CH_FAILS = {("D12", 2), ("D12", 3), ("SL23", 3), ("S5", 2), ("S5", 3)}


@pytest.fixture
def announce(capsys):
    def _announce(line: str) -> None:
        with capsys.disabled():
            print(line)
    return _announce


@contextmanager
def criterion(announce, number: int, label: str):
    try:
        yield
    except BaseException:
        announce(f"ACCEPTANCE {number}: FAIL  ({label})")
        raise
    announce(f"ACCEPTANCE {number}: PASS  ({label})")


def _poset(lat, ctx, kind: str) -> GPoset:
    return ctx.collection(kind)


def _contractible(poset: GPoset) -> bool:
    return contractibility_verdict(poset).status == CONTRACTIBLE


def _klein_fours(lat):
    return [r for r, n in enumerate(lat.sizes)
            if n == 4 and lat.is_elementary_abelian(r, 2)]


def _cyclic_four(lat):
    return next(r for r, n in enumerate(lat.sizes)
                if n == 4 and not lat.is_elementary_abelian(r, 2))


def test_criterion_1_dihedral8_distinguished_facts(announce):
    with criterion(announce, 1, "order-8 dihedral tilde facts"):
        lat = lattice_of("D8")
        ctx = collection_context(lat, 2)
        assert len(ctx.collection("E").members) == 1

        tilde_a = _poset(lat, ctx, "tilde-A")
        tilde_s = _poset(lat, ctx, "tilde-S")
        tilde_b = _poset(lat, ctx, "tilde-B")
        cx = order_complex(tilde_a)
        assert cx.counts() == (3, 2)
        e1, e2 = cx.simplices[1]
        assert len(set(e1) & set(e2)) == 1  # two edges, one shared vertex

        for v4 in _klein_fours(lat):
            assert _poset(lat, ctx, "E").above(v4).is_empty()
            assert len(tilde_a.above(v4)) == 1
            cg = lat.centralizer(v4)
            assert cg == v4
            assert order_complex(tilde_s.below(cg)).counts() == (2, 1)
            assert tilde_b.below(cg).is_empty()

        z4 = _cyclic_four(lat)
        assert tilde_a.above(z4).is_empty()
        assert _contractible(tilde_s.above(z4))

        reproduced = [r for r in verify_counterexamples(lat, 2)
                      if r.spec.table == "table31"]
        assert len(reproduced) == 3
        assert all(r.detail["counterexample"]["reproduced"] for r in reproduced)


def test_criterion_2_dihedral8_hat_facts(announce):
    with criterion(announce, 2, "order-8 dihedral hat facts and conditions"):
        lat = lattice_of("D8")
        ctx = collection_context(lat, 2)
        for cond in CONDITION_NAMES:
            assert ctx.condition(cond)["holds"], cond

        z4 = _cyclic_four(lat)
        hat_a = _poset(lat, ctx, "hat-A")
        hat_b = _poset(lat, ctx, "hat-B")
        assert hat_a.above(z4).is_empty()
        assert _contractible(hat_a.fixed_points(z4))
        assert hat_b.below(lat.centralizer(z4)).is_empty()
        assert _contractible(hat_b.fixed_points(z4))

        reproduced = [r for r in verify_counterexamples(lat, 2)
                      if r.spec.table == "table44"]
        assert len(reproduced) == 4
        assert all(r.detail["counterexample"]["reproduced"] for r in reproduced)


def test_criterion_3_first_table_suite(announce):
    with criterion(announce, 3, "first homotopy table certifies on the suite"):
        started = time.monotonic()
        for name, p in SUITE:
            lat = lattice_of(name)
            for res in verify_table_edges(lat, p, "table31"):
                if res.spec.style in ("solid", "dashed"):
                    assert res.status == CERTIFIED, (name, p, res.spec.edge_id)
                else:
                    assert res.status == HOMOLOGY_CONSISTENT, (
                        name, p, res.spec.edge_id)
                if res.spec.style == "dashed":
                    rows = res.detail["scan"]["per_subgroup"]
                    assert len(rows) >= 2
                    assert all(row["status"] == CERTIFIED for row in rows), (
                        name, p, res.spec.edge_id)
        assert time.monotonic() - started < 600


def test_criterion_4_second_table_suite(announce):
    with criterion(announce, 4, "second homotopy table certifies where gated"):
        for name, p in SUITE:
            lat = lattice_of(name)
            ctx = collection_context(lat, p)
            holding = [c for c in CONDITION_NAMES if ctx.condition(c)["holds"]]
            assert holding, (name, p, "some hypothesis must hold on the suite")
            for res in verify_table_edges(lat, p, "table44"):
                assert res.status != SKIPPED, (name, p, res.spec.edge_id)
                if res.spec.style in ("solid", "dashed"):
                    assert res.status == CERTIFIED, (name, p, res.spec.edge_id)
                else:
                    assert res.status == HOMOLOGY_CONSISTENT, (
                        name, p, res.spec.edge_id)
                if res.spec.conditions:
                    reported = res.detail["conditions"]
                    assert set(reported) == set(res.spec.conditions)
                    for c in res.spec.conditions:
                        assert reported[c]["holds"] == ctx.condition(c)["holds"]


def test_criterion_5_inclusion_chains(announce):
    with criterion(announce, 5, "collection inclusion chains"):
        for name, p in SUITE:
            rows = verify_inclusion_chains(lattice_of(name), p)
            assert len(rows) == 11
            for row in rows:
                assert row["holds"] and not row["violations"], (name, p, row)


def test_criterion_6_radical_equalities_under_ch(announce):
    with criterion(announce, 6, "radical-family equalities when Ch holds"):
        failing = set()
        for name, p in SUITE:
            ctx = collection_context(lattice_of(name), p)
            if not ctx.condition("Ch")["holds"]:
                failing.add((name, p))
                assert ctx.equalities_under_Ch() is None
                continue
            b = ctx.collection("B").mask
            assert ctx.collection("hat-B").mask == b, (name, p)
            assert ctx.collection("Bcen").mask == b, (name, p)
            assert ctx.equalities_under_Ch()["equal"]
        assert failing == CH_FAILS


def test_criterion_7_homology_profiles(announce):
    with criterion(announce, 7, "nerve homology agreement inside families"):
        for name, p in SUITE:
            lat = lattice_of(name)
            ctx = collection_context(lat, p)
            prof = {k: homology(order_complex(_poset(lat, ctx, k)))
                    for k in ("A", "S", "B", "tilde-A", "tilde-S", "tilde-B",
                              "E", "hat-A", "hat-S", "hat-B")}
            assert prof["A"] == prof["S"] == prof["B"], (name, p)
            assert (prof["tilde-A"] == prof["tilde-S"]
                    == prof["tilde-B"] == prof["E"]), (name, p)
            assert prof["hat-A"] == prof["hat-S"], (name, p)
            if any(ctx.condition(c)["holds"] for c in CONDITION_NAMES):
                assert prof["hat-B"] == prof["hat-S"], (name, p)
            assert all(pr.torsion == () for pr in prof.values()), (name, p)
            assert prof["A"].reduced_betti == BASE_BETTI[(name, p)], (name, p)
            assert prof["tilde-A"].reduced_betti == DISTINGUISHED_BETTI[
                (name, p)], (name, p)
            assert prof["hat-A"].reduced_betti == DISTINGUISHED_BETTI[
                (name, p)], (name, p)


def test_criterion_8_property_battery(announce):
    with criterion(announce, 8, "seeded invariant battery"):
        total = _props.run_all()
        assert total >= 10_000, total


def test_criterion_9_naive_oracle(announce):
    with criterion(announce, 9, "brute-force oracle agreement"):
        for name, p in SMALL_SUITE:
            lat = lattice_of(name)
            ctx = collection_context(lat, p)
            all_subs = naive.subgroups(lat.group)
            assert element_set(ctx.E0) == naive.E0(lat.group, all_subs, p), (
                name, p)
            assert element_set(ctx.E1) == naive.E1(
                lat.group, element_set(ctx.E0), p), (name, p)
            for kind in KINDS:
                got = {frozenset(lat.members(m))
                       for m in ctx.collection(kind).members}
                assert got == naive.collection(lat.group, all_subs, p,
                                               kind), (name, p, kind)
