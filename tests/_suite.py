"""Shared group/prime suite, a cached lattice factory, the nontrivial
p-subgroups of a lattice and an abstract-poset constructor for the tests."""

from __future__ import annotations

import functools

from sclab.group import builtin_group
from sclab.lattice import enumerate_subgroups, p_part
from sclab.poset import GPoset

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


def nontrivial_p_subgroups(lat, p: int):
    """The subgroups of lat of order a positive power of p, in index order."""
    return tuple(s for s in lat.subgroups
                 if s.order > 1 and p_part(s.order, p) == s.order)


def relation_poset(labels, leq, name: str = "") -> GPoset:
    """The abstract poset on labels ordered by leq(a, b); the labels must list
    a linear extension."""
    labels = tuple(labels)
    return GPoset.from_relation(
        labels, [(a, b) for a in labels for b in labels
                 if a != b and leq(a, b)], name=name)
