"""Shared group/prime suite, a cached lattice factory, the nontrivial
p-subgroups of a lattice, the sclab-report/4 form of a report, and
constructors of abstract posets, subposets and simplicial complexes for
the tests. A poset element is its position: an abstract poset built from
readable labels puts labels[i] at position i."""

from __future__ import annotations

import functools
from itertools import combinations

from sclab.group import builtin_group, positions
from sclab.lattice import Order, enumerate_subgroups, p_part
from sclab.poset import GPoset, OrderComplex
from sclab.report import CITED

# every builtin suite group at each prime dividing its order
SUITE = (
    ("D8", 2), ("Q8", 2), ("Zn:2", 2), ("Zn:3", 3), ("Zn:5", 5),
    ("S3", 2), ("S3", 3), ("S4", 2), ("S4", 3), ("A4", 2), ("A4", 3),
    ("D12", 2), ("D12", 3), ("SL23", 2), ("SL23", 3),
    ("A5", 2), ("A5", 3), ("A5", 5), ("S5", 2), ("S5", 3), ("S5", 5),
)

SMALL_SUITE = tuple((name, p) for name, p in SUITE
                    if builtin_group(name).order <= 48)


@functools.lru_cache(maxsize=None)
def lattice_of(name: str):
    return enumerate_subgroups(builtin_group(name))


def element_set(mask: int) -> frozenset:
    """The element indices of a bitset over a group's canonical element
    order, as the oracle in _naive holds a set of elements."""
    return frozenset(positions(mask))


def nontrivial_p_subgroups(lat, p: int):
    """The subgroups of lat of order a positive power of p, in index order."""
    return tuple(h for h, n in enumerate(lat.sizes)
                 if n > 1 and p_part(n, p) == n)


def inline_evidence(report: dict) -> dict:
    """report, whose edges cite evidence by number, rewritten in place with
    each evidence entry back in every edge detail that cites it, no
    evidence list, and the format sclab-report/4: for a /5 report, the /4
    document of the same run."""
    evidence = report.pop("evidence")
    for section in report["suites"].values():
        for edge in section.get("edges", ()):
            detail = edge["detail"]
            for key in CITED:
                if key in detail:
                    detail[key] = evidence[detail[key]]
    report["format"] = "sclab-report/4"
    return report


def from_relation(labels, strict_pairs, name: str = "") -> GPoset:
    """Abstract poset on the positions 0..n-1 of labels, ordered by the
    transitive closure of strict_pairs, pairs of labels; the labels must
    list a linear extension of it."""
    labels = tuple(labels)
    pos = {x: i for i, x in enumerate(labels)}
    down = [0] * len(labels)
    for a, b in strict_pairs:
        if pos[a] > pos[b]:
            raise ValueError(
                f"labels are not a linear extension: {a!r} < {b!r}")
        if a != b:  # a reflexive pair adds nothing
            down[pos[b]] |= 1 << pos[a]
    up = [0] * len(labels)
    for j in range(len(labels)):
        for i in positions(down[j]):  # i < j, so down[i] is closed
            down[j] |= down[i]
        for i in positions(down[j]):
            up[i] |= 1 << j
    return GPoset(Order(down, up), (1 << len(labels)) - 1, name=name)


def relation_poset(labels, leq, name: str = "") -> GPoset:
    """The abstract poset on the positions of labels ordered by leq(a, b) on
    the labels; the labels must list a linear extension."""
    labels = tuple(labels)
    return from_relation(
        labels, [(a, b) for a in labels for b in labels
                 if a != b and leq(a, b)], name=name)


def restrict(poset: GPoset, keep, name: str = "") -> GPoset:
    """The subposet of poset on the positions in keep that it holds."""
    mask = sum(1 << i for i in set(keep))
    return GPoset(poset.order, mask & poset.mask, poset.lattice,
                  name or poset.name)


def from_maximal_simplices(maximal, name: str = "") -> OrderComplex:
    """Close the given simplices under faces; vertices sort by label."""
    store: dict[int, set] = {}
    for simplex in maximal:
        verts = tuple(sorted(set(simplex)))
        for k in range(len(verts)):
            for face in combinations(verts, k + 1):
                store.setdefault(k, set()).add(face)
    return OrderComplex({k: sorted(v) for k, v in store.items()}, name=name)
