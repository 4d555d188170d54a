import time
from pathlib import Path

import pytest

import _naive as naive
from _suite import SMALL_SUITE, SUITE, lattice_of
from sclab.errors import InternalInconsistency, PrimeDoesNotDivide
from sclab.group import builtin_group, load_group, parse_group_text, positions
from sclab.lattice import (enumerate_subgroups, p_core_of_group, p_part,
                           require_prime)
from sclab.runner import VerificationPlan, run

DATA = Path(__file__).parent / "data"

# textbook subgroup counts
SUBGROUP_COUNTS = {"D8": 10, "Q8": 6, "S3": 6, "A4": 10, "S4": 30,
                   "D12": 16, "A5": 59, "Zn:12": 6}


def test_subgroup_counts():
    for name, count in SUBGROUP_COUNTS.items():
        assert len(lattice_of(name)) == count, name


def test_counts_match_naive_enumeration():
    # in A5 no nontrivial cyclic subgroup is normal, so each representative
    # is extended by one zuppo per orbit of its normalizer; the cyclic
    # subgroups of Z12 and Z30 whose order is no prime power are reached
    # only as joins of zuppos
    for name in ("A5", "Zn:12", "Zn:30"):
        lat = lattice_of(name)
        brute = naive.subgroups(lat.group)
        assert {frozenset(lat.members(r)) for r in range(len(lat))} == brute, name


@pytest.mark.parametrize("name", sorted({name for name, _ in SUITE}))
def test_lattice_is_closed_under_adding_an_element(name):
    lat = lattice_of(name)
    g = lat.group
    for bits in lat.bitsets:
        for x in range(g.order):
            if not bits >> x & 1:
                lat.index(g.closure_bitset(bits | 1 << x))


# group file text, (subgroups, classes)
LATTICE_PINS = {
    "A6": ("degree 6\ngen (0 1 2)\ngen (1 2 3 4 5)\n", (501, 22)),
    "GL(2,3)": ("degree 8\ngen (0 3 6)(1 7 4)\ngen (0 2 1 5)(3 4 7 6)\n"
                "gen (2 5)(3 6)(4 7)\n", (55, 16)),
    "Z2^4": ("degree 8\ngen (0 1)\ngen (2 3)\ngen (4 5)\ngen (6 7)\n",
             (67, 67)),
    "S4xS4": ("degree 8\ngen (0 1 2 3)\ngen (0 1)\ngen (4 5 6 7)\n"
              "gen (4 5)\n", (2976, 274)),
}


@pytest.mark.parametrize("name", sorted(LATTICE_PINS))
def test_lattice_sizes_are_pinned(name):
    text, expected = LATTICE_PINS[name]
    lat = enumerate_subgroups(parse_group_text(text))
    assert (len(lat), len(lat.class_masks)) == expected


def test_s5_extends_once_per_normalizer_orbit(monkeypatch):
    g = builtin_group("S5")
    steps = []
    step = g.dimino_step
    monkeypatch.setattr(g, "dimino_step",
                        lambda *args: steps.append(args) or step(*args))
    assert len(enumerate_subgroups(g)) == 156
    # only the zuppos seed classes, and each representative is extended by
    # one zuppo per orbit of its normalizer: 199 steps when it was extended
    # by one cyclic subgroup of any order per orbit, and 1,079 by every
    # cyclic subgroup it misses; the cyclic subgroups of order 6 are joins
    # of zuppos, found by those steps
    assert len(steps) == 161


# D12 and SL23 have elements of order 6, whose cyclic subgroups are found
# only as joins of zuppos; in the 2-groups every cyclic subgroup is a zuppo
@pytest.mark.parametrize("name,order", [
    ("D8", 8), ("Q8", 8), ("S3", 6), ("S4", 24), ("A4", 12), ("D12", 12),
    ("SL23", 24), ("D8xZ2", 16)])
def test_enumeration_matches_naive(name, order):
    g = (parse_group_text("degree 6\ngen (0 1 2 3)\ngen (0 2)\ngen (4 5)\n")
         if name == "D8xZ2" else builtin_group(name))
    lat = enumerate_subgroups(g)
    assert g.order == order
    assert {frozenset(lat.members(r)) for r in range(len(lat))} \
        == naive.subgroups(g)


def test_s5_from_adjacent_transpositions():
    g = parse_group_text("degree 5\ngen (0 1)\ngen (1 2)\ngen (2 3)\ngen (3 4)\n")
    lat = enumerate_subgroups(g)
    assert (len(lat), len(lat.class_masks)) == (156, 19)


def test_s6_enumerates_within_ten_seconds():
    start = time.perf_counter()
    g = parse_group_text("degree 6\ngen (0 1 2 3 4 5)\ngen (0 1)\n")
    lat = enumerate_subgroups(g)
    assert time.perf_counter() - start < 10
    assert (len(lat), len(lat.class_masks)) == (1455, 56)


@pytest.mark.parametrize("name", [*sorted({name for name, _ in SUITE}),
                                  "z2_5.grp", "d8xd8.grp"])
def test_order_masks_match_inclusion_scan(name):
    # the masks are folds of the zuppos' holding masks; the oracle scans
    # every pair of subgroups
    if name.endswith(".grp"):
        lat = enumerate_subgroups(load_group(str(DATA / name)))
    else:
        lat = lattice_of(name)
    down, up = naive.inclusion_masks(lat)
    order = lat.order
    for i in range(len(lat)):
        assert (order.down[i], order.up[i]) == (down[i], up[i]), (name, i)


def test_canonical_order():
    lat = lattice_of("S4")
    assert lat.sizes[lat.trivial] == 1 and lat.trivial == 0
    assert lat.sizes[lat.full] == 24 and lat.full == len(lat) - 1
    orders = list(lat.sizes)
    assert orders == sorted(orders)
    for i, bits in enumerate(lat.bitsets):
        assert lat.index(bits) == i
    with pytest.raises(InternalInconsistency):
        lat.index(0b110)


@pytest.mark.parametrize("name,p", SUITE)
def test_index_contract(name, p):
    """A subgroup is its index: 0 is trivial and full is last, each index
    holds its bitset and order, and the class masks partition the indices,
    ordered by lowest bit, one per conjugacy class the report counts."""
    lat = lattice_of(name)
    assert lat.trivial == 0 and lat.bitsets[0] == 1
    assert lat.full == len(lat) - 1 and lat.sizes[lat.full] == lat.group.order
    assert lat.bitsets[lat.full] == lat.group.full_bitset
    for i, bits in enumerate(lat.bitsets):
        assert lat.sizes[i] == bits.bit_count() == len(lat.members(i))
        assert lat.index(bits) == i
    masks = lat.class_masks
    assert sum(masks) == (1 << len(lat)) - 1
    assert sum(c.bit_count() for c in masks) == len(lat)
    lowest = [(c & -c).bit_length() - 1 for c in masks]
    assert lowest == sorted(lowest)
    assert lat.class_representatives() == tuple(lowest)
    for c in masks:
        for i in positions(c):
            assert lat.class_of[i] == c
    report = run(VerificationPlan(f"builtin:{name}", p, suite="inclusions"))
    assert report["lattice"] == {"subgroups": len(lat),
                                 "conjugacy_classes": len(masks)}


def test_leq_meet_join_are_set_theoretic():
    lat = lattice_of("S4")
    subs = range(len(lat))
    for a in subs:
        for b in subs:
            ma, mb = set(lat.members(a)), set(lat.members(b))
            assert lat.leq(a, b) == (ma <= mb)
            assert set(lat.members(lat.index(lat.bitsets[a] & lat.bitsets[b]))) == ma & mb
            j = set(lat.members(lat.index(lat.group.closure_bitset(
                lat.bitsets[a] | lat.bitsets[b]))))
            assert ma | mb <= j
            assert set(lat.members(lat.join(a, b))) == j


def test_normalizer_centralizer_center_against_naive():
    lat = lattice_of("S4")
    g = lat.group
    for r in range(0, len(lat), 3):
        h = frozenset(lat.members(r))
        assert frozenset(lat.members(lat.normalizer(r))) == naive.normalizer(g, h)
        assert frozenset(lat.members(lat.centralizer(r))) == naive.centralizer(g, h)
        assert frozenset(lat.members(lat.center(r))) == naive.center(g, h)


@pytest.mark.parametrize(
    "name", sorted({name for name, _ in SMALL_SUITE} | {"S5"}))
def test_normalizer_by_generators_matches_all_elements(name):
    lat = lattice_of(name)
    g = lat.group
    for r in range(len(lat)):
        h = frozenset(lat.members(r))
        assert frozenset(lat.members(lat.normalizer(r))) \
            == naive.normalizer(g, h), r


@pytest.mark.parametrize(
    "name", sorted({name for name, _ in SMALL_SUITE} | {"S5"}))
def test_centralizer_by_generators_matches_all_elements(name):
    lat = lattice_of(name)
    g = lat.group
    for r in range(len(lat)):
        h = frozenset(lat.members(r))
        assert frozenset(lat.members(lat.centralizer(r))) \
            == naive.centralizer(g, h), r


def test_centers():
    for name, order in (("D8", 2), ("Q8", 2), ("S4", 1)):
        lat = lattice_of(name)
        assert lat.sizes[lat.center(lat.full)] == order, name


def test_sylow_counts():
    # Sylow's theorem: S4 has 3 Sylow 2-subgroups and 4 Sylow 3-subgroups
    s4 = lattice_of("S4")
    assert len(s4.sylow(2)) == 3 and all(s4.sizes[r] == 8 for r in s4.sylow(2))
    assert len(s4.sylow(3)) == 4 and all(s4.sizes[r] == 3 for r in s4.sylow(3))
    a5 = lattice_of("A5")
    assert len(a5.sylow(2)) == 5
    assert len(a5.sylow(3)) == 10
    assert len(a5.sylow(5)) == 6
    with pytest.raises(PrimeDoesNotDivide):
        s4.sylow(5)


def test_p_cores():
    s4 = lattice_of("S4")
    assert s4.sizes[s4.p_core(s4.full, 2)] == 4   # the normal Klein subgroup
    assert s4.sizes[s4.p_core(s4.full, 3)] == 1
    d12 = lattice_of("D12")
    assert d12.sizes[d12.p_core(d12.full, 2)] == 2  # the central involution
    assert d12.sizes[d12.p_core(d12.full, 3)] == 3


def test_p_core_is_the_join_of_normal_p_subgroups():
    # O_p(H) as the intersection of H's Sylow p-subgroups equals the join
    # of its normal p-subgroups, for every subgroup and prime
    for name in dict(SUITE):
        lat = lattice_of(name)
        for p in {p for n, p in SUITE if n == name}:
            for h in range(len(lat)):
                assert (lat.bitsets[lat.p_core(h, p)]
                        == lat.bitsets[p_core_of_group(lat, h, lat.trivial, p)]
                        == naive.lattice_p_core(lat, h, p)), (name, p, h)


def test_p_core_of_quotients():
    # the preimage of O_p(H/K): S4/V4 is S3, with O_2 trivial and O_3 the
    # A3 whose preimage is A4; D8/Z is a Klein group, a 2-group
    s4 = lattice_of("S4")
    v4 = s4.p_core(s4.full, 2)
    assert p_core_of_group(s4, s4.full, v4, 2) == v4
    assert s4.sizes[p_core_of_group(s4, s4.full, v4, 3)] == 12
    d8 = lattice_of("D8")
    assert p_core_of_group(d8, d8.full, d8.center(d8.full), 2) == d8.full


def test_elementary_abelian():
    # the trivial subgroup counts as elementary abelian of rank zero
    d8 = lattice_of("D8")
    assert [n for r, n in enumerate(d8.sizes)
            if d8.is_elementary_abelian(r, 2)] == [1, 2, 2, 2, 2, 2, 4, 4]
    q8 = lattice_of("Q8")
    assert [n for r, n in enumerate(q8.sizes)
            if q8.is_elementary_abelian(r, 2)] == [1, 2]
    # every nontrivial subgroup of each suite group at each prime dividing
    # its order, against the oracle: this takes in subgroups that are not
    # p-groups and abelian ones that are not elementary, such as Z6 in D12;
    # the Heisenberg group mod 3, on the affine plane over F_3, is not
    # abelian although each of its elements has order 1 or 3
    heisenberg = enumerate_subgroups(parse_group_text(
        "degree 9\ngen (3 4 5)(6 8 7)\ngen (0 3 6)(1 4 7)(2 5 8)"))
    assert heisenberg.sizes[heisenberg.full] == 27
    for lat, p in [(lattice_of(name), p) for name, p in SUITE] + [(heisenberg, 3)]:
        for h in range(1, len(lat)):
            assert lat.is_elementary_abelian(h, p) == naive.is_elementary_abelian(
                lat.group, frozenset(lat.members(h)), p), (lat.group, p, h)


def test_orbits_partition_and_class_counts():
    lat = lattice_of("S4")
    orbits = [tuple(positions(c)) for c in lat.class_masks]
    assert sorted(i for o in orbits for i in o) == list(range(len(lat)))
    # conjugacy classes of subgroups of S4: a textbook count
    assert len(orbits) == 11


def test_conjugate_matches_naive():
    lat = lattice_of("SL23")
    g = lat.group
    for r in range(0, len(lat), 3):
        for x in range(0, g.order, 7):
            image = lat.conjugate(r, x)
            assert frozenset(lat.members(image)) == naive.conj_set(
                g, x, frozenset(lat.members(r)))


@pytest.mark.parametrize("name", sorted({name for name, _ in SUITE}))
def test_generator_action_is_conjugation(name):
    # the facts carried along a class are only right if each row is
    # the permutation H -> g H g^-1 of the subgroups for its generator g
    lat = lattice_of(name)
    gens = lat.group.generator_indices
    assert len(lat.generator_action) == len(gens)
    for row, g in zip(lat.generator_action, gens):
        assert row == tuple(lat.conjugate(r, g) for r in range(len(lat)))


def test_generated():
    lat = lattice_of("D8")
    gens = lat.generating_set(lat.full)
    closure = lat.group.closure_bitset
    assert closure(sum(1 << x for x in gens)) == lat.bitsets[lat.full]
    assert closure(1) == lat.bitsets[lat.trivial]


def test_p_part():
    assert p_part(48, 2) == 16
    assert p_part(48, 3) == 3
    assert p_part(35, 2) == 1


def test_p_part_needs_p_at_least_2():
    # n % 1 == 0 for every n, so p = 1 used to loop forever
    for p in (1, 0):
        with pytest.raises(ValueError):
            p_part(24, p)


def test_require_prime():
    for p in (2, 3, 23):
        require_prime(p, 24)
    for p in (-3, 0, 1, 4, 6, 9):
        with pytest.raises(ValueError, match=f"^{p} is not a prime$"):
            require_prime(p, 24)
    # above the bound, p is only checked to exceed 1
    require_prime(25, 24)


def test_generator_string_smoke():
    lat = lattice_of("D8")
    assert lat.generator_string(lat.trivial) == "()"
    text = lat.generator_string(lat.full)
    assert "(" in text
