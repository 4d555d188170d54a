"""Exhaustive subgroup lattices for groups at desk scale.

Subgroups are bitsets over the group's canonical element order (bit i set means
element i belongs). The lattice holds every subgroup, canonically ordered by
(order, member index tuple), so a bitset identifies a subgroup uniquely and
`SubgroupRef`s with equal bitsets always carry the same index.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property, reduce
from itertools import compress
from operator import and_, itemgetter, or_
from typing import NamedTuple

from .errors import (CapExceeded, InternalInconsistency, NotAPGroup,
                     PrimeDoesNotDivide)
from .group import PermutationGroup, positions

DEFAULT_ORDER_CAP = 2000
DEFAULT_SUBGROUP_CAP = 100_000


class SubgroupRef(NamedTuple):
    """A subgroup of the ambient group, addressed within its lattice."""
    order: int
    index: int
    bitset: int

    def __repr__(self):
        return f"SubgroupRef(index={self.index}, order={self.order})"


class Order(NamedTuple):
    """A strict order on the positions of a linear extension: down[i] and
    up[i] are the bitmasks of the positions strictly below and above i."""
    down: object
    up: object


# maps the digits of a bitset in binary to 1 for a clear bit, 0 for a set one
_OUTSIDE = bytes.maketrans(b"01", b"\x01\x00")


class _LazyMasks(dict):
    """One bitmask per position, built by build(i) on first use."""

    def __init__(self, build):
        self.build = build

    def __missing__(self, i):
        mask = self[i] = self.build(i)
        return mask


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def enumerate_subgroups(group: PermutationGroup, *,
                        max_order: int = DEFAULT_ORDER_CAP) -> "SubgroupLattice":
    """All subgroups of ``group`` by cyclic extension of class representatives.

    Every subgroup is generated by its elements of prime-power order, so it
    is a join of cyclic subgroups of prime-power order (zuppos). Every
    cyclic subgroup is added as a class, and if K = <H, z> with H = R^g,
    then <R, z^(g^-1)> is conjugate to K. So only the first subgroup R found
    in each class (with the generators it was built from) is extended, each
    time by a zuppo, and a new subgroup adds its whole class. As
    <R, z^n> = <R, z>^n for n in N_G(R), R is extended by one zuppo from
    each N_G(R)-orbit of those it misses. The orbit of z is its class when R
    is normal, {z} when z is, and otherwise is read off z's conjugation
    column.
    """
    if group.order > max_order:
        raise CapExceeded(f"group order {group.order} exceeds the cap {max_order}")
    cyclic_of = group.cyclic_bitsets  # element -> the cyclic subgroup it generates
    classes: dict[int, list[int]] = {1: [1]}  # subgroup -> its class
    reps = []  # (subgroup, its generators, its members)
    found = [([1], [(0,) * len(group.generator_indices)], [(0,)])]

    def add_class(bits, gens):
        if bits in classes:
            return
        orbit, moves, members = cls = group.subgroup_class(bits)
        reps.append((bits, gens, members[0]))
        found.append(cls)
        classes.update(dict.fromkeys(orbit, orbit))
        if len(classes) > DEFAULT_SUBGROUP_CAP:
            raise CapExceeded(
                f"subgroup count exceeded the cap {DEFAULT_SUBGROUP_CAP}")

    for c, x in group.cyclic_subgroups.items():
        add_class(c, (x,))
    for bits, gens, members in reps:
        rows = list(map(group.mul.__getitem__, members))
        norm, covered = None, set()  # N_G(R)'s members; orbits already met
        for c, x in group.zuppos.items():
            if c | bits == bits or c in covered:
                continue
            if len(classes[bits]) == 1:  # N_G(R) = G: c's orbit is its class
                covered.update(classes[c])
            elif len(classes[c]) > 1:
                norm = norm or list(positions(group.normalizer_bitset(bits, gens)))
                col = group.conjugation_column(x)
                covered.update(map(cyclic_of.__getitem__, map(col.__getitem__, norm)))
            add_class(group.dimino_step(bits, rows, gens + (x,)), gens + (x,))
    return SubgroupLattice(group, found)


class SubgroupLattice:
    def __init__(self, group: PermutationGroup, classes):
        """classes: the conjugacy classes of subgroups, which together hold
        every subgroup once, each a triple (bitsets, moves, members) as
        `PermutationGroup.subgroup_class` returns it."""
        self.group = group
        members = {bits: hs for orbit, _, ms in classes
                   for bits, hs in zip(orbit, ms)}
        order_key = lambda bits: (len(members[bits]), members[bits])
        self._bitsets = tuple(sorted(members, key=order_key))
        self._members = members
        self.subgroups = tuple(
            SubgroupRef(order=len(members[bits]), index=i, bitset=bits)
            for i, bits in enumerate(self._bitsets))
        self._index = {bits: i for i, bits in enumerate(self._bitsets)}
        # per group generator g, the permutation i -> index of g H_i g^-1
        action = [[0] * len(members) for _ in group.generator_indices]
        orbits = []
        for orbit, moves, _ in classes:
            at = list(map(self._index.__getitem__, orbit))
            for i, step in zip(at, moves):
                for row, k in zip(action, step):
                    row[i] = at[k]
            orbits.append(tuple(sorted(at)))
        self.generator_action = tuple(map(tuple, action))
        # conjugation orbits on subgroup indices, each sorted, ordered by rep
        self.orbits = tuple(sorted(orbits))
        self._normalizer: dict[int, int] = {}
        self._centralizer: dict[int, int] = {}
        self._generated: dict[int, int] = {}
        self._gens: dict[int, tuple[int, ...]] = {}
        self._pcore: dict[int, dict[int, int]] = defaultdict(dict)  # p -> memo
        self._elem_ab: dict[tuple[int, int], bool] = {}

    def __len__(self):
        return len(self.subgroups)

    # ----- lookup ---------------------------------------------------------

    def ref(self, index: int) -> SubgroupRef:
        return self.subgroups[index]

    def by_bitset(self, bits: int) -> SubgroupRef:
        try:
            return self.subgroups[self._index[bits]]
        except KeyError:
            raise InternalInconsistency(
                "bitset is not a subgroup of the lattice") from None

    @property
    def trivial(self) -> SubgroupRef:
        return self.subgroups[0]

    @property
    def full(self) -> SubgroupRef:
        return self.subgroups[-1]

    def members(self, ref: SubgroupRef) -> tuple[int, ...]:
        return self._members[ref.bitset]

    def leq(self, a: SubgroupRef, b: SubgroupRef) -> bool:
        return a.bitset | b.bitset == b.bitset

    def join(self, a: SubgroupRef, b: SubgroupRef) -> SubgroupRef:
        """The subgroup generated by a and b: the larger of the two when they
        are comparable, otherwise the lowest position common to both
        up-masks, as subgroups sort by order."""
        if a.bitset | b.bitset in (a.bitset, b.bitset):
            return max(a, b)
        common = self.order.up[a.index] & self.order.up[b.index]
        return self.subgroups[(common & -common).bit_length() - 1]

    @cached_property
    def order(self) -> Order:
        """Strict inclusion over lattice indices, each mask built on first
        use; subgroups sort by order, so indices are a linear extension.

        H_j is in H_i exactly when H_j holds no zuppo outside H_i, since
        zuppos generate every subgroup. So with holding[z] the mask of the
        subgroups that hold z, the lowest generator of a zuppo, up[i] is the
        AND of holding[z] over the z in H_i, and down[i] is the complement
        of the OR of holding[z] over the z outside H_i: each mask is one fold
        of the rows of holding."""
        # the masks are built by closures that hold no reference to self,
        # so the lattice stays free of cycles
        bits, members = self._bitsets, self._members
        holding = [0] * self.group.order  # 0 for an element that is no z
        zuppos = list(self.group.zuppos.values())
        held_by = set(zuppos).intersection
        for i, b in enumerate(bits):
            bit = 1 << i
            for z in held_by(members[b]):
                holding[z] |= bit
        # the identity lies in every subgroup, so its outside flag is 0; two
        # leading picks of it make `pick` return a tuple for any zuppo count
        pick = itemgetter(0, 0, *zuppos)
        rows = [0, 0, *map(holding.__getitem__, zuppos)]
        width, full = self.group.order, (1 << len(bits)) - 1

        def down(i):
            outside = f"{bits[i]:0{width}b}".encode().translate(_OUTSIDE)[::-1]
            meets = reduce(or_, compress(rows, pick(outside)), 0)
            return ((1 << i) - 1) & ~meets

        def up(i):
            held = filter(None, map(holding.__getitem__, members[bits[i]]))
            return reduce(and_, held, full) ^ 1 << i

        return Order(_LazyMasks(down), _LazyMasks(up))

    def generating_set(self, ref: SubgroupRef) -> tuple[int, ...]:
        """A small generating set, chosen greedily in canonical element order."""
        if ref.index not in self._gens:
            gens: list[int] = []
            reach = 1
            for x in self._members[ref.bitset]:
                if not (reach >> x) & 1:
                    gens.append(x)
                    reach = self.group.extend_bitset(reach, gens)
                    if reach == ref.bitset:
                        break
            self._gens[ref.index] = tuple(gens)
        return self._gens[ref.index]

    def generator_string(self, ref: SubgroupRef) -> str:
        gens = self.generating_set(ref)
        if not gens:
            return "()"
        return ", ".join(map(self.group.element_string, gens))

    # ----- conjugation ----------------------------------------------------

    def conjugate_bitset(self, bits: int, g: int) -> int:
        conj = self.group.conjugate_index
        return sum(1 << conj(g, x) for x in self._members[bits])

    def conjugate(self, ref: SubgroupRef, g: int) -> SubgroupRef:
        return self.by_bitset(self.conjugate_bitset(ref.bitset, g))

    def orbit_representatives(self) -> tuple[SubgroupRef, ...]:
        return tuple(self.subgroups[o[0]] for o in self.orbits)

    @cached_property
    def class_masks(self) -> tuple[int, ...]:
        """One mask over `order` positions per entry of `orbits`."""
        return tuple(sum(1 << i for i in orbit) for orbit in self.orbits)

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        """Per position, the mask of its conjugacy class."""
        out = [0] * len(self)
        for orbit, c in zip(self.orbits, self.class_masks):
            for i in orbit:
                out[i] = c
        return tuple(out)

    def is_class_union(self, mask: int) -> bool:
        """Conjugation permutes the subgroups, so a mask over `order`
        positions is G-invariant exactly when it is a union of classes;
        a class of one member never splits."""
        return all(c & mask in (0, c) for c in self._shared_class_masks)

    @cached_property
    def _shared_class_masks(self) -> tuple[int, ...]:
        return tuple(c for c in self.class_masks if c & (c - 1))

    def first_of_each_class(self, mask: int) -> int:
        """The lowest position of mask in each class it meets."""
        out = 0
        for c in self.class_masks:
            hit = c & mask
            out |= hit & -hit
        return out

    # ----- named operations -----------------------------------------------

    def _transport(self, memo: dict, ref: SubgroupRef, fact) -> int:
        """memo[ref.index] = fact(ref), and over the rest of ref's class the
        values g f(H) g^-1 = f(gHg^-1), read off the generators' action along
        a breadth-first tree: fact must conjugate along with its subgroup."""
        memo[ref.index] = fact(ref)
        reached = [ref.index]
        for h in reached:
            for row in self.generator_action:
                if row[h] not in memo:
                    memo[row[h]] = row[memo[h]]
                    reached.append(row[h])
        return memo[ref.index]

    def normalizer(self, ref: SubgroupRef) -> SubgroupRef:
        """H^g = H exactly when g conjugates each generator of H into H."""
        i = self._normalizer.get(ref.index)
        if i is None:
            i = self._transport(self._normalizer, ref, lambda h: self._index[
                self.group.normalizer_bitset(h.bitset, self.generating_set(h))])
        return self.subgroups[i]

    def centralizer(self, ref: SubgroupRef) -> SubgroupRef:
        """g centralizes H exactly when conjugation by g fixes each generator."""
        i = self._centralizer.get(ref.index)
        if i is None:
            i = self._transport(self._centralizer, ref, self._centralizer_of)
        return self.subgroups[i]

    def _centralizer_of(self, ref: SubgroupRef) -> int:
        out = self.group.full_bitset
        for x in self.generating_set(ref):
            out &= self.group.conjugating(x, 1 << x)
        return self._index[out]

    def center(self, ref: SubgroupRef) -> SubgroupRef:
        return self.by_bitset(ref.bitset & self.centralizer(ref).bitset)

    def is_p_group(self, ref: SubgroupRef, p: int) -> bool:
        return ref.order == p_part(ref.order, p)

    def omega1_center(self, ref: SubgroupRef, p: int) -> SubgroupRef:
        """Bottom layer of the center: elements of Z(P) of order dividing p.

        For abelian Z(P) this set is already a subgroup; requires P a p-group.
        """
        if not self.is_p_group(ref, p):
            raise NotAPGroup(f"subgroup of order {ref.order} is not a {p}-group")
        orders = self.group.element_orders
        out = 0
        for x in self._members[self.center(ref).bitset]:
            if orders[x] in (1, p):
                out |= 1 << x
        return self.by_bitset(out)

    def p_core(self, ref: SubgroupRef, p: int) -> SubgroupRef:
        """O_p(H): the intersection of the Sylow p-subgroups of H."""
        memo = self._pcore[p]
        i = memo.get(ref.index)
        if i is None:
            i = self._transport(memo, ref, lambda h: p_core_of_group(
                self, h, self.trivial, p).index)
        return self.subgroups[i]

    def sylow(self, p: int) -> tuple[SubgroupRef, ...]:
        if self.group.order % p:
            raise PrimeDoesNotDivide(p, self.group.order)
        target = p_part(self.group.order, p)
        return tuple(s for s in self.subgroups if s.order == target)

    def is_elementary_abelian(self, ref: SubgroupRef, p: int) -> bool:
        """Abelian with every non-identity element of order exactly p."""
        key = (ref.index, p)
        if key not in self._elem_ab:
            self._elem_ab[key] = self._elementary_abelian(ref, p)
        return self._elem_ab[key]

    def _elementary_abelian(self, ref: SubgroupRef, p: int) -> bool:
        if ref.order == 1:
            return True
        if p_part(ref.order, p) != ref.order:
            return False
        orders = self.group.element_orders
        hs = self._members[ref.bitset]
        if any(orders[x] != p for x in hs if x):
            return False
        mul = self.group.mul
        return all(mul[a][b] == mul[b][a] for a in hs for b in hs if a < b)

    def generated(self, element_indices) -> SubgroupRef:
        seed = 1
        for x in element_indices:
            seed |= 1 << x
        if seed not in self._generated:
            self._generated[seed] = self.by_bitset(
                self.group.closure_bitset(seed)).index
        return self.subgroups[self._generated[seed]]


def p_core_of_group(lattice: SubgroupLattice, big: SubgroupRef,
                    normal: SubgroupRef, p: int) -> SubgroupRef:
    """The preimage in ``big`` of O_p(big/normal), for ``normal`` normal in
    ``big``: the intersection of T v normal (the product T * normal) over
    the Sylow p-subgroups T of ``big``, whose images are the Sylow
    p-subgroups of the quotient."""
    target = p_part(big.order, p)
    acc = big.bitset
    for t in lattice.subgroups:
        if t.order == target and t.bitset | big.bitset == big.bitset:
            acc &= lattice.join(t, normal).bitset
    return lattice.by_bitset(acc)
