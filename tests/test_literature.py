"""Homology of p-subgroup nerves pinned by theorems, not by this code.

Solomon-Tits through Quillen (D. Quillen, "Homotopy properties of the poset
of nontrivial p-subgroups of a group", Adv. Math. 28, 1978): for a group of
Lie type in characteristic p and of rank r, the nerve of S_p(G) has reduced
homology free of rank |G|_p, in degree r - 1 only, and so does the nerve of
A_p(G), which is homotopy equivalent to it, and of B_p(G) (S. Bouc, C. R.
Acad. Sci. Paris 299, 1984). The group files under tests/data are written
by hand; the rank-one groups below are built from their formulas.

P. Hall's Möbius function (Quart. J. Math. 7, 1936) gives the reduced
Euler characteristic of A_p(G), and so of S_p(G) and of the radical
subgroups B_p(G) (S. Bouc, 1984), from the elementary abelian p-subgroups
alone; K. S. Brown (Invent. Math. 29, 1975) shows that |G|_p divides it.
"""

import functools
from pathlib import Path

import pytest

import _naive as naive
from _suite import SUITE, lattice_of
from census import census
from sclab.collections import collection_context
from sclab.contract import beat_core
from sclab.group import load_group, parse_group_text
from sclab.homology import homology
from sclab.lattice import enumerate_subgroups
from sclab.poset import order_complex

DATA = Path(__file__).parent / "data"


@functools.lru_cache(maxsize=None)
def lattice_from_file(name: str):
    return enumerate_subgroups(load_group(str(DATA / name)))


def nerve(name: str, p: int, kind: str):
    lat = lattice_from_file(name)
    ctx = collection_context(lat, p)
    return order_complex(ctx.collection(kind))


@pytest.mark.parametrize("kind", ["S", "A"])
def test_s6_is_sp42_with_rank_two_at_p2(kind):
    # S6 = Sp(4,2): rank 2 and |G|_2 = 16
    assert lattice_from_file("s6.grp").group.order == 720
    cx = nerve("s6.grp", 2, kind)
    prof = homology(cx)
    assert (prof.reduced_betti, prof.torsion) == ((0, 16), ())
    if kind == "S":
        assert cx.counts() == (630, 4200, 6930, 3375)


@pytest.mark.parametrize("kind", ["S", "A"])
def test_psl27_is_gl32_with_rank_two_at_p2(kind):
    # PSL(2,7) = GL(3,2): rank 2 and |G|_2 = 8
    assert lattice_from_file("psl27.grp").group.order == 168
    prof = homology(nerve("psl27.grp", 2, kind))
    assert (prof.reduced_betti, prof.torsion) == ((0, 8), ())


def _cycles(images) -> str:
    """The permutation x -> images[x] in cycle notation."""
    seen, cycles = set(), []
    for start in range(len(images)):
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = images[x]
        if len(cycle) > 1:
            cycles.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(cycles)


def psl2(q: int, a: int) -> str:
    """The group file of PSL(2,q) on the projective line 0..q-1, with
    infinity = q: x -> x + 1, x -> -1/x and x -> a^2 x, for a primitive
    root a mod q."""
    shift = [(x + 1) % q for x in range(q)] + [q]
    invert = [q] + [-pow(x, -1, q) % q for x in range(1, q)] + [0]
    scale = [a * a * x % q for x in range(q)] + [q]
    return f"degree {q + 1}\n" + "".join(
        f"gen {_cycles(g)}\n" for g in (shift, invert, scale))


# name -> (group file, order, p, |G|_p): each a group of Lie type of rank
# one in characteristic p (A6 = PSL(2,9)), whose Sylow p-subgroups meet
# trivially
RANK_ONE = {
    "GL(2,3)": ("degree 8\ngen (0 3 6)(1 7 4)\ngen (0 2 1 5)(3 4 7 6)\n"
                "gen (2 5)(3 6)(4 7)\n", 48, 3, 3),
    "A6": ("degree 6\ngen (0 1 2)\ngen (1 2 3 4 5)\n", 360, 3, 9),
    "PSL(2,11)": (psl2(11, 2), 660, 11, 11),
    "PSL(2,13)": (psl2(13, 2), 1092, 13, 13),
}


@functools.lru_cache(maxsize=None)
def rank_one_lattice(name: str):
    return enumerate_subgroups(parse_group_text(RANK_ONE[name][0]))


@pytest.mark.parametrize("kind", ["S", "A", "B"])
@pytest.mark.parametrize("name", RANK_ONE)
def test_rank_one_nerves_are_p_part_plus_one_points(name, kind):
    # rank one: reduced homology free of rank |G|_p in degree 0, so the
    # nerve has |G|_p + 1 contractible components, one per Sylow group
    _, order, p, p_part = RANK_ONE[name]
    lat = rank_one_lattice(name)
    assert lat.group.order == order
    prof = homology(order_complex(collection_context(lat, p).collection(kind)))
    assert (prof.reduced_betti, prof.torsion) == ((p_part,), ())


def test_psl27_has_rank_one_at_p7():
    # PSL(2,7) in characteristic 7: rank 1 and |G|_7 = 7, so eight points
    prof = homology(nerve("psl27.grp", 7, "S"))
    assert (prof.reduced_betti, prof.torsion) == ((7,), ())


@pytest.mark.parametrize("name,p", SUITE)
def test_hall_euler_characteristic(name, p):
    """The reduced Euler characteristic of the nerves of S, A and B is
    Hall's sum over the elementary abelian p-subgroups, and |G|_p divides
    it (Brown)."""
    lat = lattice_of(name)
    hall = naive.hall_euler_characteristic(
        lat.group, map(lat.members, range(len(lat))), p)
    assert hall % naive.p_part(lat.group.order, p) == 0
    ctx = collection_context(lat, p)
    for kind in ("S", "A", "B"):
        core = beat_core(ctx.collection(kind))
        assert order_complex(core).euler_characteristic() - 1 == hall, kind


def test_s5_census():
    """Each class of nontrivial subgroups of S5, verified as a group of its
    own at each prime dividing its order, passes every check of
    tests/census.py: strict exit 0, Hall's count and Quillen's O_p."""
    result = census("builtin:S5")
    assert (result.plans, result.failures) == (30, [])
    assert result.methods
