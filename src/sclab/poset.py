"""Finite posets with a group action, and their order complexes.

A GPoset is a mask of positions in one shared `Order`, the strict down- and
up-masks of a linear extension; a position is the element's only name. It
is either backed by a subgroup lattice (positions are lattice indices, the
order is inclusion, the action is conjugation) or abstract (an explicit
order, no action). Order complexes list every strict chain; chains are
stored in increasing order, which fixes the orientation used by the
boundary matrices.
"""

from __future__ import annotations

from functools import cached_property

from .errors import SizeCap
from .group import positions
from .lattice import Order, SubgroupLattice

DEFAULT_SIMPLEX_CAP = 500_000


class GPoset:
    def __init__(self, order: Order, mask: int,
                 lattice: SubgroupLattice | None = None, name: str = ""):
        self.order = order
        self.mask = mask
        self.lattice = lattice
        self.name = name

    # ----- basic queries ------------------------------------------------------

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, i: int):
        return bool(self.mask >> i & 1)

    def is_empty(self) -> bool:
        return not self.mask

    def _sub(self, mask: int, name: str) -> "GPoset":
        return GPoset(self.order, mask & self.mask, self.lattice, name)

    # ----- intervals (the cut point may lie outside the poset) -----------------

    def above(self, i: int, strict: bool = False) -> "GPoset":
        return self._sub(self.order.up[i] | (0 if strict else 1 << i),
                         f"{self.name}{'>' if strict else '>='}{i}")

    def below(self, i: int, strict: bool = False) -> "GPoset":
        return self._sub(self.order.down[i] | (0 if strict else 1 << i),
                         f"{self.name}{'<' if strict else '<='}{i}")

    @cached_property
    def members(self) -> tuple[int, ...]:
        """The mask's positions, lowest first."""
        return tuple(positions(self.mask))

    # ----- lattice-backed extras ------------------------------------------------

    def _require_lattice(self) -> SubgroupLattice:
        if self.lattice is None:
            raise ValueError("abstract poset has no subgroup lattice")
        return self.lattice

    def fixed_points(self, h: int) -> "GPoset":
        """Subposet of elements invariant under conjugation by every member
        of the subgroup h; for subgroup posets these are the subgroups
        normalized by h, the positions whose normalizer lies in up[h] | bit h."""
        above = self.order.up[h] | 1 << h
        mask = sum(held for n, held in self._by_normalizer.items()
                   if above >> n & 1)  # disjoint masks: the sum is their union
        return self._sub(mask, f"{self.name}^{h}")

    @cached_property
    def _by_normalizer(self) -> dict[int, int]:
        """Normalizer position -> the mask of positions with that normalizer."""
        lat, out = self._require_lattice(), {}
        for i in positions(self.mask):
            n = lat.normalizer(i)
            out[n] = out.get(n, 0) | 1 << i
        return out

    def orbits(self, h: int) -> tuple[int, ...] | dict[int, int] | None:
        """Per position, the bitmask of its orbit under conjugation by the
        subgroup h, or None when h conjugates a member out of the poset. The
        orbits of the whole group are the classes, and the lattice's
        `class_of` answers for every position; a proper subgroup acts
        through its generating set."""
        lat = self._require_lattice()
        if h == lat.full:
            return lat.class_of if lat.is_class_union(self.mask) else None
        gens = lat.generating_set(h)
        orbit = {}
        for i in positions(self.mask):
            if i in orbit:
                continue
            mask, stack = 1 << i, [i]
            while stack:
                y = stack.pop()
                for g in gens:
                    z = lat.conjugate(y, g)
                    if not self.mask >> z & 1:
                        return None
                    if not mask >> z & 1:
                        mask |= 1 << z
                        stack.append(z)
            for j in positions(mask):
                orbit[j] = mask
        return orbit


class OrderComplex:
    """Simplicial complex whose k-simplices are the strict (k+1)-chains.

    simplices[k] lists k-simplices as tuples; each tuple is ordered (by the
    poset for chains, by vertex otherwise) and that ordering orients it.
    """

    def __init__(self, simplices: dict[int, list[tuple]], name: str = ""):
        self.simplices = {k: list(v) for k, v in sorted(simplices.items()) if v}
        self.name = name

    @property
    def dimension(self) -> int:
        return max(self.simplices, default=-1)

    @property
    def vertices(self) -> list:
        return [s[0] for s in self.simplices.get(0, [])]

    def counts(self) -> tuple[int, ...]:
        return tuple(len(self.simplices.get(k, []))
                     for k in range(self.dimension + 1))

    def size(self) -> int:
        return sum(len(v) for v in self.simplices.values())

    def is_empty(self) -> bool:
        return not self.simplices

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(v) for k, v in self.simplices.items())


def order_complex(poset: GPoset, max_simplices: int = DEFAULT_SIMPLEX_CAP,
                  name: str = "") -> OrderComplex:
    """All strict chains of the poset, grouped by dimension."""
    up, mask = poset.order.up, poset.mask
    succ = {i: list(positions(up[i] & mask)) for i in positions(mask)}
    simplices: dict[int, list[tuple]] = {}
    total = 0
    frontier = [(i,) for i in positions(mask)]
    dim = 0
    while frontier:
        total += len(frontier)
        if total > max_simplices:
            raise SizeCap(
                f"order complex of {poset.name or 'poset'} exceeds "
                f"{max_simplices} simplices")
        simplices[dim] = frontier
        frontier = [chain + (y,) for chain in frontier for y in succ[chain[-1]]]
        dim += 1
    return OrderComplex(simplices, name=name or poset.name)
