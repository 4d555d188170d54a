"""Finite posets with a group action, and their order complexes.

A GPoset is either backed by a subgroup lattice (labels are lattice indices,
the order is inclusion, the action is conjugation) or abstract (labels are
arbitrary hashables with an explicit relation, no action). Order complexes
list every strict chain; chains are stored in increasing order, which fixes
the orientation used by the boundary matrices.
"""

from __future__ import annotations

from itertools import combinations

from .errors import SizeCap
from .lattice import SubgroupLattice, SubgroupRef

DEFAULT_SIMPLEX_CAP = 500_000


class GPoset:
    def __init__(self, labels, leq_fn, lattice: SubgroupLattice | None = None,
                 name: str = ""):
        self.labels = tuple(labels)
        self._leq = leq_fn
        self.lattice = lattice
        self.name = name
        self._set = frozenset(self.labels)

    # ----- constructors ------------------------------------------------------

    @classmethod
    def from_collection(cls, lattice: SubgroupLattice, collection) -> "GPoset":
        labels = tuple(m.index for m in collection.members)
        return cls(labels, lattice.leq_indices, lattice,
                   name=f"{collection.kind}_{collection.prime}")

    @classmethod
    def from_lattice_indices(cls, lattice: SubgroupLattice, indices,
                             name: str = "") -> "GPoset":
        return cls(tuple(sorted(indices)), lattice.leq_indices, lattice, name=name)

    @classmethod
    def from_relation(cls, labels, strict_pairs, name: str = "") -> "GPoset":
        """Abstract poset from the reflexive-transitive closure of strict_pairs."""
        labels = tuple(labels)
        below: dict = {x: {x} for x in labels}
        for a, b in strict_pairs:
            below[b].add(a)
        changed = True
        while changed:
            changed = False
            for b in labels:
                merged = set(below[b])
                for a in list(merged):
                    merged |= below[a]
                if merged != below[b]:
                    below[b] = merged
                    changed = True
        for a in labels:
            for b in labels:
                if a != b and a in below[b] and b in below[a]:
                    raise ValueError(f"relation is not antisymmetric at {a!r}, {b!r}")
        return cls(labels, lambda x, y: x in below[y], name=name)

    # ----- basic queries ------------------------------------------------------

    def __len__(self):
        return len(self.labels)

    def __contains__(self, label):
        return label in self._set

    def __eq__(self, other):
        return isinstance(other, GPoset) and self._set == other._set \
            and self._same_backing(other)

    def __hash__(self):
        return hash(self._set)

    def _same_backing(self, other: "GPoset") -> bool:
        if self.lattice is not None or other.lattice is not None:
            return self.lattice is other.lattice
        return all(self.leq(a, b) == other.leq(a, b)
                   for a in self.labels for b in self.labels)

    def leq(self, a, b) -> bool:
        return self._leq(a, b)

    def lt(self, a, b) -> bool:
        return a != b and self._leq(a, b)

    def is_empty(self) -> bool:
        return not self.labels

    def restrict(self, keep, name: str = "") -> "GPoset":
        keep = set(keep)
        labels = tuple(x for x in self.labels if x in keep)
        return GPoset(labels, self._leq, self.lattice, name or self.name)

    # ----- intervals (the cut point may lie outside the poset) -----------------

    def above(self, x, strict: bool = False) -> "GPoset":
        x = self._label_of(x)
        rel = self.lt if strict else self.leq
        labels = tuple(y for y in self.labels if rel(x, y))
        tag = ">" if strict else ">="
        return GPoset(labels, self._leq, self.lattice, f"{self.name}{tag}{x}")

    def below(self, x, strict: bool = False) -> "GPoset":
        x = self._label_of(x)
        rel = self.lt if strict else self.leq
        labels = tuple(y for y in self.labels if rel(y, x))
        tag = "<" if strict else "<="
        return GPoset(labels, self._leq, self.lattice, f"{self.name}{tag}{x}")

    def between(self, lo, hi, strict: bool = False) -> "GPoset":
        lo, hi = self._label_of(lo), self._label_of(hi)
        rel = self.lt if strict else self.leq
        labels = tuple(y for y in self.labels if rel(lo, y) and rel(y, hi))
        return GPoset(labels, self._leq, self.lattice, f"{self.name}[{lo},{hi}]")

    def _label_of(self, x):
        return x.index if isinstance(x, SubgroupRef) else x

    # ----- lattice-backed extras ------------------------------------------------

    def _require_lattice(self) -> SubgroupLattice:
        if self.lattice is None:
            raise ValueError("abstract poset has no subgroup refs")
        return self.lattice

    def ref(self, label) -> SubgroupRef:
        return self._require_lattice().ref(label)

    def fixed_points(self, h: SubgroupRef) -> "GPoset":
        """Subposet of elements invariant under conjugation by every member
        of H; for subgroup posets these are the subgroups normalized by H."""
        lat = self._require_lattice()
        labels = tuple(x for x in self.labels
                       if lat.leq(h, lat.normalizer(lat.ref(x))))
        return GPoset(labels, self._leq, lat, f"{self.name}^{h.index}")

    def conjugate_label(self, g: int, label):
        lat = self._require_lattice()
        return lat.conjugate(lat.ref(label), g).index

    def is_invariant_under(self, gens) -> bool:
        """True if conjugation by each generator maps the poset into itself."""
        return all(self.conjugate_label(g, x) in self._set
                   for g in gens for x in self.labels)


class OrderComplex:
    """Simplicial complex whose k-simplices are the strict (k+1)-chains.

    simplices[k] lists k-simplices as tuples; each tuple is ordered (by the
    poset for chains, by label otherwise) and that ordering orients it.
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

    @classmethod
    def from_maximal_simplices(cls, maximal, name: str = "") -> "OrderComplex":
        """Close the given simplices under faces; vertices sort by label."""
        store: dict[int, set] = {}
        for simplex in maximal:
            verts = tuple(sorted(set(simplex)))
            for k in range(len(verts)):
                for face in combinations(verts, k + 1):
                    store.setdefault(k, set()).add(face)
        return cls({k: sorted(v) for k, v in store.items()}, name=name)


def order_complex(poset: GPoset, max_simplices: int = DEFAULT_SIMPLEX_CAP,
                  name: str = "") -> OrderComplex:
    """All strict chains of the poset, grouped by dimension."""
    labels = poset.labels
    lt = poset.lt
    succ = {x: [y for y in labels if lt(x, y)] for x in labels}
    simplices: dict[int, list[tuple]] = {}
    total = 0
    frontier = [(x,) for x in labels]
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
