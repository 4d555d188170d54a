"""Bulk invariant checks, shared by the property tests and the acceptance
gate. Every check() goes through a Budget so the total number of executed
assertions can be audited; run_all() is the single entry point the gate
uses.

All sampling is seeded, so two runs perform the same checks in the same
order.
"""

import random

from sclab.collections import KINDS, collection_context
from sclab.contract import (CONTRACTIBLE, NOT_CONTRACTIBLE, UNKNOWN,
                            CoreReduction, _is_beat, beat_core,
                            contractibility_verdict, core_reduction)
from sclab.equivalence import _lattice_retraction, fixed_point_equivalence_scan
from sclab.group import builtin_group, positions
from sclab.homology import homology, smith_normal_form
from sclab.lattice import p_part
from sclab.poset import GPoset, order_complex
from sclab.tables import (TABLE31_EDGES, TABLE44_EDGES, _cut, _keep,
                          _subgroups_of)

import _naive
from _naive import boundary_matrix, rank_mod, rank_over_rationals
from _suite import (SUITE, element_set, from_relation, lattice_of,
                    nontrivial_p_subgroups)

GROUPS = ("D8", "Q8", "S3", "D12", "A4", "S4", "SL23", "A5")


class Budget:
    def __init__(self):
        self.count = 0

    def check(self, cond, note=""):
        self.count += 1
        assert cond, note


# --------------------------------------------------------- group algebra


def check_group_axioms(b: Budget, rng: random.Random) -> None:
    for name in GROUPS:
        grp = builtin_group(name)
        mul, inv = grp.mul, grp.inv
        n = grp.order
        for a in range(n):
            b.check(mul[0][a] == a and mul[a][0] == a, (name, a, "identity"))
            b.check(mul[a][inv[a]] == 0, (name, a, "inverse"))
        for _ in range(300):
            x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            b.check(mul[mul[x][y]][z] == mul[x][mul[y][z]],
                    (name, x, y, z, "associativity"))


def check_conjugation_is_automorphism(b: Budget, rng: random.Random) -> None:
    for name in GROUPS:
        grp = builtin_group(name)
        mul = grp.mul
        n = grp.order
        for _ in range(200):
            g, x, y = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            left = grp.conjugate_index(g, mul[x][y])
            right = mul[grp.conjugate_index(g, x)][grp.conjugate_index(g, y)]
            b.check(left == right, (name, g, x, y))


# --------------------------------------------------------- lattice order


def check_lattice_order_axioms(b: Budget, rng: random.Random) -> None:
    for name in GROUPS:
        lat = lattice_of(name)
        refs = range(len(lat))
        for r in refs:
            b.check(lat.leq(r, r), (name, r, "reflexive"))
        for _ in range(200):
            x, y = rng.choice(refs), rng.choice(refs)
            if lat.leq(x, y) and lat.leq(y, x):
                b.check(x == y, (name, "antisymmetry"))
            else:
                b.check(True)
        for _ in range(300):
            x, y, z = rng.choice(refs), rng.choice(refs), rng.choice(refs)
            if lat.leq(x, y) and lat.leq(y, z):
                b.check(lat.leq(x, z), (name, "transitivity"))
            else:
                b.check(True)


def check_meet_join_are_bounds(b: Budget, rng: random.Random) -> None:
    for name in GROUPS:
        lat = lattice_of(name)
        refs = range(len(lat))
        for _ in range(200):
            x, y = rng.choice(refs), rng.choice(refs)
            m = lat.index(lat.bitsets[x] & lat.bitsets[y])
            j = lat.index(lat.group.closure_bitset(lat.bitsets[x] | lat.bitsets[y]))
            b.check(lat.leq(m, x) and lat.leq(m, y), (name, "meet bounds"))
            b.check(lat.leq(x, j) and lat.leq(y, j), (name, "join bounds"))
            for c in rng.sample(refs, min(6, len(refs))):
                if lat.leq(c, x) and lat.leq(c, y):
                    b.check(lat.leq(c, m), (name, "meet greatest"))
                if lat.leq(x, c) and lat.leq(y, c):
                    b.check(lat.leq(j, c), (name, "join least"))


# ----------------------------------------------- central-type collections


def check_operator_towers(b: Budget) -> None:
    """hat(P) <= tilde(P) <= Z(P) <= P for every nontrivial p-subgroup."""
    for name, p in SUITE:
        lat = lattice_of(name)
        ctx = collection_context(lat, p)
        for P in nontrivial_p_subgroups(lat, p):
            t, h, z = ctx.tilde_of(P), ctx.hat_of(P), lat.center(P)
            b.check(lat.leq(h, t), (name, p, P, "hat inside tilde"))
            b.check(lat.leq(t, z) and lat.leq(z, P),
                    (name, p, P, "tilde central"))


def check_operator_equivariance(b: Budget) -> None:
    """tilde and hat commute with conjugation by every generator."""
    for name, p in SUITE:
        lat = lattice_of(name)
        ctx = collection_context(lat, p)
        for P in nontrivial_p_subgroups(lat, p):
            for g in lat.group.generator_indices:
                Pg = lat.conjugate(P, g)
                b.check(ctx.tilde_of(Pg) == lat.conjugate(ctx.tilde_of(P), g),
                        (name, p, P, g, "tilde"))
                b.check(ctx.hat_of(Pg) == lat.conjugate(ctx.hat_of(P), g),
                        (name, p, P, g, "hat"))


def check_central_type_sets_closed(b: Budget) -> None:
    for name, p in SUITE:
        lat = lattice_of(name)
        ctx = collection_context(lat, p)
        grp = lat.group
        e0, e1 = element_set(ctx.E0), element_set(ctx.E1)
        for g in grp.generator_indices:
            b.check({grp.conjugate_index(g, x) for x in e0} == e0,
                    (name, p, "E0 conjugation-closed"))
            b.check({grp.conjugate_index(g, x) for x in e1} == e1,
                    (name, p, "E1 conjugation-closed"))
        b.check(ctx.E0 | ctx.E1 == ctx.E1, (name, p, "E0 inside E1"))


def check_distinguished_upward_closure(b: Budget) -> None:
    """A member of S normalized by a distinguished subgroup it contains is
    itself distinguished."""
    for name, p in SUITE:
        lat = lattice_of(name)
        ctx = collection_context(lat, p)
        S = ctx.collection("S")
        tS = ctx.collection("tilde-S")
        for P in tS.members:
            NP = lat.normalizer(P)
            for Q in S.members:
                if lat.leq(P, Q) and lat.leq(Q, NP):
                    b.check(Q in tS, (name, p, P, Q))


def check_relative_normalizers_stay_distinguished(b: Budget) -> None:
    """For P in S below a sharply distinguished Q, the relative normalizer
    N_Q(P) is sharply distinguished as well."""
    for name, p in SUITE:
        lat = lattice_of(name)
        ctx = collection_context(lat, p)
        S = ctx.collection("S")
        hS = ctx.collection("hat-S")
        for P in S.members:
            NP = lat.normalizer(P)
            for Q in hS.members:
                if P != Q and lat.leq(P, Q):
                    b.check(lat.index(lat.bitsets[Q] & lat.bitsets[NP]) in hS,
                            (name, p, P, Q))


def one_class_of_order_p(group, p: int) -> bool:
    orders = group.element_orders
    classes = [c for c in _naive.conjugacy_classes(group)
               if orders[c[0]] == p]
    return len(classes) == 1


def check_one_class_collapses_the_towers(b: Budget) -> None:
    """With a single conjugacy class of order-p elements the distinguished
    collections add no information."""
    for name, p in SUITE:
        lat = lattice_of(name)
        ctx = collection_context(lat, p)
        if not one_class_of_order_p(lat.group, p):
            continue
        for kind in ("A", "S", "B"):
            base = ctx.collection(kind).mask
            b.check(ctx.collection("tilde-" + kind).mask == base,
                    (name, p, kind, "tilde"))
            b.check(ctx.collection("hat-" + kind).mask == base,
                    (name, p, kind, "hat"))


def check_sylow_normalizer_criterion(b: Budget) -> None:
    """A p-subgroup whose normalizer contains a full Sylow p-subgroup is
    distinguished, sharply so."""
    for name, p in SUITE:
        lat = lattice_of(name)
        ctx = collection_context(lat, p)
        tS = ctx.collection("tilde-S")
        hS = ctx.collection("hat-S")
        full = p_part(lat.group.order, p)
        for ri in ctx.collection("S").members:
            if p_part(lat.sizes[lat.normalizer(ri)], p) == full:
                b.check(ri in hS, (name, p, ri, "hat"))
                b.check(ri in tS, (name, p, ri, "tilde"))


# ------------------------------------------------------------- topology


def _matrix_product_is_zero(b: Budget, upper, lower, tag) -> None:
    if not upper or not lower:
        b.check(True)
        return
    for j in range(len(upper[0])):
        col = [row[j] for row in upper]
        out = [sum(lrow[i] * col[i] for i in range(len(col)))
               for lrow in lower]
        b.check(not any(out), (tag, j, "boundary of boundary"))


def _random_poset(rng: random.Random, n: int) -> GPoset:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.4]
    return from_relation(tuple(range(n)), pairs)


def check_boundary_squares_to_zero(b: Budget, rng: random.Random) -> None:
    complexes = []
    for name, p in SUITE:
        lat = lattice_of(name)
        ctx = collection_context(lat, p)
        poset = ctx.collection("tilde-S")
        complexes.append((order_complex(poset), (name, p)))
    for k in range(40):
        complexes.append((order_complex(_random_poset(rng, 7)), ("random", k)))
    for cx, tag in complexes:
        for k in range(cx.dimension + 1):
            _matrix_product_is_zero(b, boundary_matrix(cx, k + 1),
                                    boundary_matrix(cx, k), tag)
        prof = homology(cx)
        b.check(prof.euler_characteristic == cx.euler_characteristic(),
                (tag, "euler"))


def check_smith_form_invariants(b: Budget, rng: random.Random) -> None:
    for trial in range(250):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        mat = [[rng.randrange(-9, 10) for _ in range(cols)]
               for _ in range(rows)]
        divisors = smith_normal_form(mat)
        b.check(len(divisors) == rank_over_rationals(mat), (trial, "rank"))
        b.check(all(divisors[i + 1] % divisors[i] == 0
                    for i in range(len(divisors) - 1)),
                (trial, "divisibility chain"))
        for p in (2, 3):
            expected = sum(1 for d in divisors if d % p)
            b.check(rank_mod(mat, p) == expected, (trial, p, "p-rank"))


def check_brown_congruence(b: Budget) -> None:
    """The reduced Euler characteristic of the nerve of all nontrivial
    p-subgroups vanishes modulo the p-part of the group order."""
    for name, p in SUITE:
        lat = lattice_of(name)
        ctx = collection_context(lat, p)
        poset = ctx.collection("S")
        chi = homology(order_complex(poset)).euler_characteristic
        b.check((chi - 1) % p_part(lat.group.order, p) == 0, (name, p, chi))


def _suite_posets():
    """(lattice, tag, poset) for every collection poset of the suite and its
    fixed subposets under orbit representatives, each mask once per plan."""
    for name, p in SUITE:
        lat = lattice_of(name)
        ctx = collection_context(lat, p)
        seen = set()
        for kind in KINDS:
            whole = ctx.collection(kind)
            for h in lat.class_representatives():
                poset = whole.fixed_points(h)
                if poset.mask not in seen:
                    seen.add(poset.mask)
                    yield lat, (name, p, kind, h), poset


def stabilizer_subgroup_reps(lattice, stab):
    """Subgroups of stab, one per conjugacy class under stab itself."""
    smembers = lattice.members(stab)
    seen = set()
    reps = []
    for r in range(len(lattice)):
        if not lattice.leq(r, stab) or r in seen:
            continue
        orbit = {lattice.conjugate(r, m) for m in smembers}
        seen |= orbit
        reps.append(r)
    return reps


def fixed_point_contractibility_scan(poset: GPoset, stab):
    """Settle equivariant contractibility through fixed points: a poset with
    an action of stab is stab-contractible exactly when every fixed subposet
    poset^K (K up to stab-conjugacy) is plainly contractible. The oracle for
    the engine's orbit-wise core reduction.

    Returns (overall, per) where overall is a verdict status and per lists
    [K_index, status] rows. None when the poset is not even stab-invariant.
    """
    lattice = poset.lattice
    if poset.orbits(stab) is None:
        return None
    per = []
    overall = CONTRACTIBLE
    for k in stabilizer_subgroup_reps(lattice, stab):
        v = contractibility_verdict(poset.fixed_points(k))
        per.append([k, v.status])
        if v.status == NOT_CONTRACTIBLE:
            overall = NOT_CONTRACTIBLE
            break
        if v.status == UNKNOWN:
            overall = UNKNOWN
    return overall, per


def check_core_reduction_is_contractibility(b: Budget) -> None:
    """Every collection poset and its fixed subposets under orbit
    representatives: a beat-point core that is a point means trivial
    homology. On a G-invariant poset the orbit-wise reduction reaches a point
    as well, and the independent fixed-point scan confirms that the poset is
    G-contractible (Stong's equivariant claim)."""
    for lat, tag, poset in _suite_posets():
        if not isinstance(core_reduction(poset), CoreReduction):
            continue
        b.check(homology(order_complex(poset)).trivial, tag)
        orbit = poset.orbits(lat.full)
        if orbit is not None:
            b.check(isinstance(core_reduction(poset, orbit), CoreReduction),
                    tag)
            scan = fixed_point_contractibility_scan(poset, lat.full)
            b.check(scan[0] == CONTRACTIBLE, tag)


def as_oracle(poset: GPoset, core):
    """A core_reduction answer in _naive.core_reduction's terms: (steps,
    point), the core's positions when it has two or more points, or None."""
    if isinstance(core, CoreReduction):
        return core.steps, core.point
    return core and tuple(positions(core))


def check_core_homology_is_the_posets(b: Budget) -> None:
    """Every collection poset of the suite and its fixed subposets under
    orbit representatives: the nerve of the beat-point core has the
    homology profile of the whole poset's nerve (each removal is a strong
    deformation retraction), and the core is a point exactly when the
    reduction certifies contractibility."""
    for lat, tag, poset in _suite_posets():
        core = beat_core(poset)
        b.check(homology(order_complex(core))
                == homology(order_complex(poset)), tag)
        b.check((len(core) == 1)
                == isinstance(core_reduction(poset), CoreReduction), tag)


def _inclusion(lat):
    def leq(a, b):
        x, y = lat.bitsets[a], lat.bitsets[b]
        return x | y == y
    return leq


def check_masks_are_inclusion(b: Budget) -> None:
    """On every collection poset of the suite, the strict down- and up-set
    of each position are the positions whose subgroups it properly
    contains, and those properly containing it, pair by pair."""
    for name, p in SUITE:
        lat = lattice_of(name)
        ctx = collection_context(lat, p)
        leq = _inclusion(lat)
        for kind in KINDS:
            poset = ctx.collection(kind)
            xs = poset.members
            for x in xs:
                b.check(poset.below(x, strict=True).members
                        == tuple(y for y in xs if y != x and leq(y, x)),
                        (name, p, kind, x))
                b.check(poset.above(x, strict=True).members
                        == tuple(y for y in xs if y != x and leq(x, y)),
                        (name, p, kind, x))


def check_beat_test_counts_maximal_elements(b: Budget,
                                            rng: random.Random) -> None:
    """The two-mask beat-point test agrees with counting the maximal
    elements of the strict down-set and the minimal ones of the up-set, on
    the whole poset and on random subposets."""
    for lat, tag, poset in _suite_posets():
        down, up = poset.order.down, poset.order.up
        for _ in range(3):
            alive = poset.mask & rng.getrandbits(poset.mask.bit_length())
            for i in _naive._bits(alive):
                b.check(_is_beat(i, alive, down, up)
                        == _naive.is_beat(i, alive, down, up), tag)
        for i in _naive._bits(poset.mask):
            b.check(_is_beat(i, poset.mask, down, up)
                    == _naive.is_beat(i, poset.mask, down, up), tag)


def check_core_reduction_matches_rescanning(b: Budget) -> None:
    """Incremental core reduction removes the same beat points, plainly and
    orbit-wise, as rescanning from the first position after each removal."""
    for lat, tag, poset in _suite_posets():
        leq = _inclusion(lat)
        gens = lat.generating_set(lat.full)
        orbit = poset.orbits(lat.full)
        for g in (None, gens) if orbit is not None else (None,):
            core = core_reduction(poset, None if g is None else orbit)
            b.check(as_oracle(poset, core)
                    == _naive.core_reduction(poset, leq, g), tag)


def check_class_masks_are_invariance(b: Budget) -> None:
    """A poset is G-invariant exactly when its mask is a union of conjugacy
    classes, on every collection poset of the suite and on its lower and
    upper sets at each class representative; the first position of each
    class it meets is the first met in position order."""
    seen = set()
    for name, p in SUITE:
        lat = lattice_of(name)
        ctx = collection_context(lat, p)
        gens = lat.generating_set(lat.full)
        orbit_of = {i: n for n, c in enumerate(lat.class_masks)
                    for i in positions(c)}
        for kind in KINDS:
            whole = ctx.collection(kind)
            posets = [whole]
            for h in lat.class_representatives():
                posets += [whole.below(h), whole.above(h)]
            for poset in posets:
                invariant = _naive._orbit_masks(poset, gens) is not None
                seen.add(invariant)
                b.check(lat.is_class_union(poset.mask) == invariant,
                        (name, p, kind, poset.members))
                first: dict = {}
                for x in poset.members:
                    first.setdefault(orbit_of[x], x)
                b.check(list(_naive._bits(lat.first_of_each_class(poset.mask)))
                        == sorted(first.values()), (name, p, kind))
    b.check(seen == {True, False}, "both answers occur")


def _subgroup_map(lat, side, k, product=False):
    """q -> q v K (side ">=") or q -> q & K from subgroup members alone, or
    q -> qK as the set product of members when product is set."""
    if product:
        return lambda q: lat.index(sum(1 << x for x in _naive.set_product(
            lat.group, lat.members(q), lat.members(k))))
    if side == ">=":
        return lambda q: lat.index(lat.group.closure_bitset(
            lat.bitsets[q] | lat.bitsets[k]))
    return lambda q: lat.index(lat.bitsets[q] & lat.bitsets[k])


def check_retraction_matches_oracle(b: Budget) -> None:
    """Every dashed scan of every suite plan, at each subgroup of the first
    two Sylow groups, gating conditions aside, with the scan's own side and
    with the opposite one: the image mask of the join or meet equals the
    image of the map computed from subgroup members (the subgroup product
    for the restriction row), or is None exactly when that image leaves the
    left poset, and the scan certifies by retraction exactly when the
    pointwise map checker accepts that map. The opposite sides
    supply the rejections."""
    answers = set()
    for name, p in SUITE:
        lat = lattice_of(name)
        ctx = collection_context(lat, p)
        scanned = {h for s in lat.sylow(p)[:2] for h in _subgroups_of(lat, s)}
        for spec in TABLE31_EDGES + TABLE44_EDGES:
            if spec.style != "dashed":
                continue
            poset = ctx.collection(spec.kinds[0])
            for h in sorted(scanned):
                side, k = _cut(lat, spec.row, h)
                left, right = _keep(poset, side, k), poset.fixed_points(h)
                for s, product in ((side, spec.checker == "eo-scan"),
                                   ({">=": "<=", "<=": ">="}[side], False)):
                    tag = (name, p, spec.edge_id, h, s)
                    f = _subgroup_map(lat, s, k, product)
                    image = sum({1 << f(q) for q in right.members})
                    b.check(_lattice_retraction(right, left.mask, s, k)
                            == (None if image & ~left.mask else image), tag)
                    (row,) = fixed_point_equivalence_scan(
                        lat, [h], lambda _: left, lambda _: right,
                        retraction=lambda _, s=s: (s, k)).per_subgroup
                    if row.method in ("equal", "emptiness"):
                        continue
                    try:
                        accepts = _naive.verify_monotone_retraction(
                            right, f, s, left)
                    except ValueError:  # an image outside the right poset
                        accepts = False
                    answers.add(accepts)
                    b.check((row.method == "retraction") == accepts, tag)
    b.check(answers == {True, False}, "both answers occur")


# ---------------------------------------------------------------- driver

# (family, rng seed); None for families with no sampling. Seeds are fixed
# per family so each one checks the same cases no matter what ran before.
FAMILIES = (
    (check_group_axioms, 101),
    (check_conjugation_is_automorphism, 102),
    (check_lattice_order_axioms, 103),
    (check_meet_join_are_bounds, 104),
    (check_operator_towers, None),
    (check_operator_equivariance, None),
    (check_central_type_sets_closed, None),
    (check_distinguished_upward_closure, None),
    (check_relative_normalizers_stay_distinguished, None),
    (check_one_class_collapses_the_towers, None),
    (check_sylow_normalizer_criterion, None),
    (check_boundary_squares_to_zero, 112),
    (check_smith_form_invariants, 113),
    (check_brown_congruence, None),
    (check_core_reduction_is_contractibility, None),
    (check_core_homology_is_the_posets, None),
    (check_masks_are_inclusion, None),
    (check_beat_test_counts_maximal_elements, 116),
    (check_core_reduction_matches_rescanning, None),
    (check_class_masks_are_invariance, None),
    (check_retraction_matches_oracle, None),
)


def run_family(family, seed) -> int:
    """Run one family against a fresh budget; returns assertions executed."""
    budget = Budget()
    if seed is None:
        family(budget)
    else:
        family(budget, random.Random(seed))
    return budget.count


def run_all() -> int:
    """Run every family; returns the total number of assertions executed."""
    return sum(run_family(family, seed) for family, seed in FAMILIES)
