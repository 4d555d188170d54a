"""Certificate checkers and the three-valued contractibility pipeline.

Every CONTRACTIBLE verdict must carry evidence that replays; the tamper
tests alter one part of a good certificate and demand rejection.
"""

import pytest

from sclab.collections import collection_context
from sclab.contract import (
    CONTRACTIBLE,
    NOT_CONTRACTIBLE,
    UNKNOWN,
    CoreReduction,
    HomologyWitness,
    Verdict,
    beat_core,
    contractibility_verdict,
    core_reduction,
    verify_certificate,
)
from sclab.group import builtin_group, positions
from sclab.homology import homology
from sclab.lattice import enumerate_subgroups
from sclab.poset import GPoset, order_complex

import _naive
from _naive import verify_monotone_retraction
from _props import fixed_point_contractibility_scan
from _suite import (from_maximal_simplices, from_relation,
                    relation_poset, restrict)
from test_homology import DUNCE_FACETS

# each abstract poset puts the i-th of its labels at position i; div and bow
# give the position of a label
DIVISORS = (1, 2, 3, 4, 6, 12)
DIVISORS_OF_12 = relation_poset(DIVISORS, lambda a, b: b % a == 0)
div = DIVISORS.index

# two maximal and three minimal elements, but joining with "a" stays inside
BOWTIE_LABELS = ("a", "b", "c", "ab", "ac")
BOWTIE = relation_poset(
    BOWTIE_LABELS,
    lambda x, y: x == y or (len(x) == 1 and x in y),
)
bow = BOWTIE_LABELS.index

# face poset of a hollow triangle: connected, H1 = Z
TRIANGLE_RIM = relation_poset(
    ("a", "b", "c", "ab", "bc", "ca"),
    lambda x, y: x == y or (len(x) == 1 and x in y),
)


def face_poset(maximal):
    """The nonempty faces of the complex spanned by the given simplices,
    ordered by inclusion; its order complex subdivides that complex."""
    cx = from_maximal_simplices(maximal)
    faces = [s for k in sorted(cx.simplices) for s in cx.simplices[k]]
    covers = [(s[:i] + s[i + 1:], s)
              for s in faces if len(s) > 1 for i in range(len(s))]
    return from_relation(faces, covers)


def relabel(f, at):
    """The map f between labels as a map between their positions."""
    return {at(x): at(y) for x, y in f.items()}


def core_verdict(steps, point, equivariant=None):
    return Verdict(CONTRACTIBLE, "core", CoreReduction(steps, point),
                   equivariant)


# ------------------------------------------------ the map-checker oracle


def test_retraction_oracle_accepts_join_map():
    # joining with "a" is comparable with the identity and lands in the
    # star of "a", which a retraction checker must accept
    f = relabel({"a": "a", "b": "ab", "c": "ac", "ab": "ab", "ac": "ac"}, bow)
    assert verify_monotone_retraction(BOWTIE, f, ">=",
                                      tuple(map(bow, ("a", "ab", "ac"))))


def test_retraction_oracle_rejects_non_monotone():
    # a <= ac, but ab is not below ac
    f = relabel({"a": "ab", "b": "b", "c": "c", "ab": "ab", "ac": "ac"}, bow)
    assert not verify_monotone_retraction(BOWTIE, f, ">=", BOWTIE.members)


def test_ill_defined_maps_raise_even_when_not_strict():
    # position 5 lies outside the five-element bowtie
    with pytest.raises(ValueError):
        verify_monotone_retraction(BOWTIE, {bow("a"): bow("a")}, ">=",
                                   (bow("a"),))
    with pytest.raises(ValueError):
        verify_monotone_retraction(
            BOWTIE, {x: 5 for x in BOWTIE.members}, ">=", (bow("a"),))
    with pytest.raises(ValueError):
        verify_monotone_retraction(
            BOWTIE, {x: x for x in BOWTIE.members}, ">=", (5,))


def test_monotone_retraction():
    f = relabel({1: 2, 2: 2, 3: 6, 4: 4, 6: 6, 12: 12}, div)
    target = tuple(map(div, (2, 4, 6, 12)))
    assert verify_monotone_retraction(DIVISORS_OF_12, f, ">=", target)
    # image escapes a smaller target
    assert not verify_monotone_retraction(DIVISORS_OF_12, f, ">=", target[1:])
    # position 6 lies outside the six divisors
    with pytest.raises(ValueError):
        verify_monotone_retraction(DIVISORS_OF_12, f, ">=", (div(2), 6))
    with pytest.raises(ValueError):
        verify_monotone_retraction(DIVISORS_OF_12, f, "==", target)


def test_retraction_oracle_accepts_constant_map():
    # one constant map comparable with the identity retracts onto a point
    const_one = {x: div(1) for x in DIVISORS_OF_12.members}
    assert verify_monotone_retraction(DIVISORS_OF_12, const_one, "<=",
                                      (div(1),))
    # wrong comparison direction
    assert not verify_monotone_retraction(DIVISORS_OF_12, const_one, ">=",
                                          (div(1),))


def test_retraction_oracle_checks_the_target():
    ident = {x: x for x in DIVISORS_OF_12.members}
    assert verify_monotone_retraction(DIVISORS_OF_12, ident, "<=",
                                      DIVISORS_OF_12)
    assert not verify_monotone_retraction(DIVISORS_OF_12, ident, "<=",
                                          (div(12),))


# --------------------------------------------------------------- searches


def test_empty_poset_has_no_contraction():
    empty = restrict(DIVISORS_OF_12, ())
    assert core_reduction(empty) is None
    assert not verify_certificate(empty, core_verdict((), div(1)))


def test_stepless_core_reduction_is_a_point():
    # a reduction without steps contracts exactly the one-point posets
    point = restrict(DIVISORS_OF_12, (div(1),))
    assert core_reduction(point) == CoreReduction((), div(1))
    assert verify_certificate(point, core_verdict((), div(1)))
    assert not verify_certificate(DIVISORS_OF_12, core_verdict((), div(1)))
    assert not verify_certificate(restrict(DIVISORS_OF_12, ()),
                                  core_verdict((), div(1)))


def test_search_finds_conical_contraction():
    cert = core_reduction(BOWTIE)
    assert cert is not None
    assert sum(len(step) for step in cert.steps) == len(BOWTIE) - 1
    assert all(len(step) == 1 for step in cert.steps)
    assert verify_certificate(BOWTIE, core_verdict(cert.steps, cert.point))


def test_search_fails_on_a_circle():
    # no point of the rim is a beat point, so the rim is its own core
    assert core_reduction(TRIANGLE_RIM) == TRIANGLE_RIM.mask


def test_core_of_a_circle_with_a_tail():
    # "d" lies above "a" alone and "e" above "d" alone: both are beat
    # points, and removing them leaves the rim at the first six positions
    tailed = relation_poset(
        ("a", "b", "c", "ab", "bc", "ca", "d", "e"),
        lambda x, y: x == y or (len(x) == 1 and x in y)
        or (x, y) in (("a", "d"), ("a", "e"), ("d", "e")))
    rim = restrict(tailed, range(6))
    assert core_reduction(tailed) == rim.mask
    core = beat_core(tailed)
    assert core.members == rim.members
    assert homology(order_complex(core)) == homology(order_complex(tailed))
    v = contractibility_verdict(tailed)
    assert v.method == "homology"
    assert v.certificate.profile == homology(order_complex(tailed))
    assert verify_certificate(tailed, v)


def test_core_of_a_contractible_poset_is_its_point():
    core = beat_core(BOWTIE)
    assert core.members == (core_reduction(BOWTIE).point,)
    assert beat_core(restrict(BOWTIE, ())).is_empty()


def test_greedy_collapse_of_a_solid_triangle():
    poset = face_poset([(0, 1, 2)])
    cert = core_reduction(poset)
    assert cert is not None
    assert len(cert.steps) == 6
    assert verify_certificate(poset, core_verdict(cert.steps, cert.point))


def test_collapse_replay_rejects_tampered_steps():
    poset = face_poset([(0, 1, 2)])
    cert = core_reduction(poset)
    assert not verify_certificate(
        poset, core_verdict(cert.steps[1:], cert.point))
    # a vertex lies below two edges, so it is no beat point at first; faces
    # are listed by dimension, so position 0 holds the vertex (0,)
    vertex_first = ((0,),) + tuple(s for s in cert.steps if s != (0,))
    assert not verify_certificate(
        poset, core_verdict(vertex_first, cert.point))


def test_collapse_gets_stuck_on_the_dunce_hat():
    # the dunce hat is contractible but its face poset has no beat point
    # (beat-point removals are the strong collapses of the nerve)
    poset = face_poset(DUNCE_FACETS)
    assert core_reduction(poset) == poset.mask


# --------------------------------------------------------- verdict pipeline


def test_verdict_empty():
    v = contractibility_verdict(restrict(DIVISORS_OF_12, ()))
    assert v.status == NOT_CONTRACTIBLE
    assert v.method == "empty"
    assert verify_certificate(restrict(DIVISORS_OF_12, ()), v)


def test_verdict_cone_from_unique_maximum():
    v = contractibility_verdict(DIVISORS_OF_12)
    assert v.status == CONTRACTIBLE
    assert v.method == "core"
    # the lowest beat point goes first: 1 only becomes one once 2, 3 and 4
    # are gone and 6 is the least element above it
    assert v.certificate == CoreReduction(
        tuple((div(d),) for d in (2, 3, 4, 1, 6)), div(12))
    assert verify_certificate(DIVISORS_OF_12, v)


def test_verdict_cone_from_unique_minimum():
    no_top = restrict(DIVISORS_OF_12, map(div, (1, 2, 3, 4, 6)))
    v = contractibility_verdict(no_top)
    assert v.method == "core"
    assert v.certificate == CoreReduction(
        tuple((div(d),) for d in (2, 3, 4, 1)), div(6))
    assert verify_certificate(no_top, v)


def test_verdict_conical_search():
    v = contractibility_verdict(BOWTIE)
    assert v.status == CONTRACTIBLE
    assert v.method == "core"
    assert v.equivariant is None
    assert verify_certificate(BOWTIE, v)


def test_verdict_collapse_on_a_complex():
    poset = face_poset([(0, 1, 2), (1, 2, 3)])
    v = contractibility_verdict(poset)
    assert v.status == CONTRACTIBLE
    assert v.method == "core"
    assert verify_certificate(poset, v)


def test_verdict_disconnected():
    two = relation_poset(("x", "y"), lambda a, b: a == b)
    v = contractibility_verdict(two)
    assert v.status == NOT_CONTRACTIBLE
    assert v.method == "disconnected"
    # two points: reduced H_0 of rank 1, that is, two components
    assert v.certificate.profile.reduced_betti == (1,)
    assert not v.certificate.connected
    assert verify_certificate(two, v)


def test_verdict_homology_refutation():
    v = contractibility_verdict(TRIANGLE_RIM)
    assert v.status == NOT_CONTRACTIBLE
    assert v.method == "homology"
    assert verify_certificate(TRIANGLE_RIM, v)


def test_verdict_pi1_on_the_dunce_hat():
    poset = face_poset(DUNCE_FACETS)
    assert len(poset) == 79
    v = contractibility_verdict(poset)
    assert v.status == CONTRACTIBLE
    assert v.method == "pi1"
    assert verify_certificate(poset, v)


def test_verdict_unknown_with_zero_pi1_budget(monkeypatch):
    monkeypatch.setattr("sclab.contract.fundamental_group_trivial",
                        lambda complex_: None)
    poset = face_poset(DUNCE_FACETS)
    v = contractibility_verdict(poset)
    assert v.status == UNKNOWN
    # the profile it found, trivial, and no trivial fundamental group
    assert v.certificate == HomologyWitness(
        homology(order_complex(poset)), True, None)
    # UNKNOWN claims nothing and verifies vacuously
    assert verify_certificate(poset, v)


def test_verdict_to_json_shapes():
    v = contractibility_verdict(DIVISORS_OF_12)
    js = v.to_json()
    assert js["status"] == CONTRACTIBLE
    assert js["method"] == "core"
    # the positions of 12 and of 2, 3, 4, 1, 6
    assert set(js) == {"status", "method", "equivariant", "certificate"}
    assert js["certificate"] == {"kind": "core", "point": 5,
                                 "steps": [[1], [2], [3], [0], [4]]}


# ------------------------------------------------------- tamper rejection


def test_tampered_cone_certificate_is_rejected():
    v = contractibility_verdict(DIVISORS_OF_12)
    wrong_point = v._replace(certificate=v.certificate._replace(
        point=div(6)))
    assert not verify_certificate(DIVISORS_OF_12, wrong_point)
    dropped = v._replace(certificate=v.certificate._replace(
        steps=v.certificate.steps[:-1]))
    assert not verify_certificate(DIVISORS_OF_12, dropped)
    # positions outside the poset, or not ints, fail instead of raising; a
    # replay of certificates read back from a file meets both
    for cert in (v.certificate._replace(point=-1),
                 v.certificate._replace(point=6),
                 v.certificate._replace(point=float(v.certificate.point)),
                 v.certificate._replace(steps=((-1,),) + v.certificate.steps),
                 v.certificate._replace(steps=((6,),) + v.certificate.steps),
                 v.certificate._replace(steps=(("zz",),) + v.certificate.steps),
                 v.certificate._replace(steps=((1.0,),) + v.certificate.steps)):
        assert not verify_certificate(DIVISORS_OF_12,
                                      v._replace(certificate=cert))


def test_tampered_conical_certificate_is_rejected():
    v = contractibility_verdict(BOWTIE)
    # "a" lies below both maximal elements, so it is no beat point at first
    a = (bow("a"),)
    steps = (a,) + tuple(s for s in v.certificate.steps if s != a)
    assert v.certificate.steps != steps
    bad = v._replace(certificate=v.certificate._replace(steps=steps))
    assert not verify_certificate(BOWTIE, bad)


def test_tampered_zigzag_certificate_is_rejected():
    # split one orbit step of an equivariant reduction into single positions:
    # every removal is still a beat point, but no longer a whole orbit
    lat, poset, full = d8_nontrivial()
    v = contractibility_verdict(poset, equivariant_under=full)
    steps = v.certificate.steps
    k = next(i for i, step in enumerate(steps) if len(step) > 1)
    split = steps[:k] + tuple((x,) for x in steps[k]) + steps[k + 1:]
    bad = v._replace(certificate=v.certificate._replace(steps=split))
    assert verify_certificate(poset, bad)
    assert not verify_certificate(poset, bad, equivariant_under=full)


def test_certificate_against_wrong_object_fails():
    v = contractibility_verdict(DIVISORS_OF_12)
    other = restrict(DIVISORS_OF_12, map(div, (1, 2, 3, 6)))
    assert not verify_certificate(other, v)


# ------------------------------------------------------------ equivariance


def lattice_of_d8():
    return enumerate_subgroups(builtin_group("D8"))


def d8_nontrivial():
    lat = lattice_of_d8()
    nontrivial = [r for r, n in enumerate(lat.sizes) if n > 1]
    poset = GPoset(lat.order, sum(1 << r for r in nontrivial), lat)
    return lat, poset, lat.full


def test_cone_verdict_tracks_invariance():
    lat, poset, full = d8_nontrivial()
    v = contractibility_verdict(poset, equivariant_under=full)
    assert v.status == CONTRACTIBLE
    assert v.method == "core"
    assert v.equivariant is True
    assert v.certificate.point == lat.full
    assert verify_certificate(poset, v, equivariant_under=full)
    # a lone non-normal reflection subgroup is a point, but not a fixed one
    refl = next(r for r, n in enumerate(lat.sizes)
                if n == 2 and lat.sizes[lat.normalizer(r)] < 8)
    single = GPoset(lat.order, 1 << refl, lat)
    v = contractibility_verdict(single, equivariant_under=full)
    assert v.method == "core"
    assert v.equivariant is False


def test_core_is_equivariant_where_plain_collapse_was_not():
    """The elementary abelian 2-subgroups of S4 contract through the normal
    Klein group; no join with it stays inside, but whole orbits of beat
    points still reduce the poset to that fixed point."""
    lat = enumerate_subgroups(builtin_group("S4"))
    ctx = collection_context(lat, 2)
    poset = ctx.collection("A")
    assert len(poset) == 13
    v = contractibility_verdict(poset, equivariant_under=lat.full)
    assert v.method == "core"
    assert v.equivariant is True
    normal_klein = v.certificate.point
    assert (lat.sizes[normal_klein] == 4
            and lat.sizes[lat.normalizer(normal_klein)] == 24)
    assert verify_certificate(poset, v, equivariant_under=lat.full)


def test_equivariant_verdict_computes_the_orbits_once(monkeypatch):
    lat = enumerate_subgroups(builtin_group("S4"))
    poset = collection_context(lat, 2).collection("A")
    calls = []
    orbits = GPoset.orbits

    def counting(self, h):
        calls.append(h)
        return orbits(self, h)

    monkeypatch.setattr(GPoset, "orbits", counting)
    v = contractibility_verdict(poset, equivariant_under=lat.full)
    assert v.method == "core" and v.equivariant is True
    assert len(calls) == 1


def test_orbits_read_their_generators_once():
    """A proper stabilizer acts through its generating set. A plain
    single-point core certificate re-marked equivariant replays as a plain
    one, but fails orbit-wise on each interval of S for S4 at 2 whose
    stabilizer is proper and whose orbits it splits."""
    lat = enumerate_subgroups(builtin_group("S4"))
    whole = collection_context(lat, 2).collection("S")
    forged_rejected = 0
    for y in whole.members:
        stab = lat.normalizer(y)
        if stab == lat.full:
            continue
        for interval in (whole.below(y, strict=True),
                         whole.above(y, strict=True)):
            v = contractibility_verdict(interval)
            if v.method != "core":
                continue
            forged = v._replace(equivariant=True)
            assert verify_certificate(interval, forged)
            if not verify_certificate(interval, forged, stab):
                forged_rejected += 1
    assert forged_rejected == 6


def test_class_masks_give_the_orbits_of_the_whole_group():
    """With generators of the whole group, invariance and orbits are read
    from the conjugacy-class masks; they must agree with conjugating every
    member, as they do for the generators of each proper normalizer."""
    seen = set()
    for name, p in (("S4", 2), ("A5", 2), ("D12", 3)):
        lat = enumerate_subgroups(builtin_group(name))
        whole = collection_context(lat, p).collection("S")
        reps = lat.class_representatives()
        stabs = {lat.normalizer(r) for r in reps}
        for h in reps:
            for poset in (whole, whole.below(h), whole.above(h),
                          whole.fixed_points(h)):
                for stab in stabs:
                    gens = lat.generating_set(stab)
                    expected = _naive._orbit_masks(poset, gens)
                    orbits = poset.orbits(stab)
                    seen.add((stab == lat.full, orbits is not None))
                    assert (orbits is None) == (expected is None)
                    if orbits is not None:
                        xs = poset.members
                        assert {tuple(positions(orbits[j]))
                                for j in positions(poset.mask)} == \
                            {tuple(xs[i] for i in _naive._bits(m))
                             for m in expected}
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_equivariance_check_needs_a_lattice():
    with pytest.raises(ValueError):
        contractibility_verdict(BOWTIE, equivariant_under=0)
    v = contractibility_verdict(BOWTIE)
    with pytest.raises(ValueError):
        verify_certificate(BOWTIE, v._replace(equivariant=True),
                           equivariant_under=0)


def test_fixed_point_scan_on_invariant_poset():
    lat, poset, _ = d8_nontrivial()
    full = lat.full
    scan = fixed_point_contractibility_scan(poset, full)
    assert scan is not None
    overall, per = scan
    assert overall == CONTRACTIBLE
    # one row per subgroup class of the acting group
    assert len(per) == 8
    assert all(status == CONTRACTIBLE for _, status in per)


def test_fixed_point_scan_rejects_non_invariant_poset():
    lat = lattice_of_d8()
    # a single non-normal reflection subgroup is not conjugation-stable
    refl = next(r for r, n in enumerate(lat.sizes)
                if n == 2 and lat.sizes[lat.normalizer(r)] < 8)
    poset = GPoset(lat.order, 1 << refl, lat)
    full = lat.full
    assert fixed_point_contractibility_scan(poset, full) is None
