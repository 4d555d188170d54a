"""Exhaustive subgroup lattices for groups at desk scale.

A subgroup is named by its index in the lattice, which holds every subgroup
canonically ordered by (order, member index tuple); every method takes and
returns indices. Per index the lattice keeps the subgroup's bitset over the
group's canonical element order (bit i set means element i belongs), its
members and its order.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property, reduce
from itertools import compress
from math import isqrt
from operator import and_, itemgetter, or_
from typing import NamedTuple

from .errors import CapExceeded, InternalInconsistency, PrimeDoesNotDivide
from .group import PermutationGroup, positions

DEFAULT_ORDER_CAP = 2000
DEFAULT_SUBGROUP_CAP = 100_000


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


def require_prime(p: int, bound: int) -> None:
    """Raise ValueError unless p is a prime. A p above bound is only checked
    to exceed 1: it divides no group order up to bound, which the caller
    reports without trial division up to the square root of p."""
    if p < 2 or (p <= bound and any(p % d == 0 for d in range(2, isqrt(p) + 1))):
        raise ValueError(f"{p} is not a prime")


def p_part(n: int, p: int) -> int:
    """The largest power of p dividing n."""
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def enumerate_subgroups(group: PermutationGroup, *,
                        max_order: int = DEFAULT_ORDER_CAP) -> "SubgroupLattice":
    """All subgroups of ``group`` by cyclic extension of class representatives.

    Every subgroup is generated by its elements of prime-power order, so it
    is a join of cyclic subgroups of prime-power order (zuppos). Every zuppo
    is added as a class, and every other subgroup is <H, z> for a smaller
    subgroup H and a zuppo z; if H = R^g, then <R, z^(g^-1)> is conjugate
    to <H, z>. So only the first subgroup R found
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

    for c, x in group.zuppos.items():
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
    trivial = 0  # the index of the trivial subgroup; `full` is the last

    def __init__(self, group: PermutationGroup, classes):
        """classes: the conjugacy classes of subgroups, which together hold
        every subgroup once, each a triple (bitsets, moves, members) as
        `PermutationGroup.subgroup_class` returns it."""
        self.group = group
        members = {bits: hs for orbit, _, ms in classes
                   for bits, hs in zip(orbit, ms)}
        order_key = lambda bits: (len(members[bits]), members[bits])
        # per index, the subgroup's bitset, its members and its order
        self.bitsets = tuple(sorted(members, key=order_key))
        self._members = tuple(map(members.__getitem__, self.bitsets))
        self.sizes = tuple(map(len, self._members))
        self.full = len(self.bitsets) - 1
        self._index = {bits: i for i, bits in enumerate(self.bitsets)}
        # per group generator g, the permutation i -> index of g H_i g^-1
        action = [[0] * len(members) for _ in group.generator_indices]
        masks = []
        for orbit, moves, _ in classes:
            at = list(map(self._index.__getitem__, orbit))
            for i, step in zip(at, moves):
                for row, k in zip(action, step):
                    row[i] = at[k]
            masks.append(sum(1 << i for i in at))
        self.generator_action = tuple(map(tuple, action))
        # one mask of indices per conjugacy class, ordered by lowest index
        self.class_masks = tuple(sorted(masks, key=lambda c: c & -c))
        # per fact that moves along a class, its value at each subgroup met
        self._class_facts: dict[object, dict[int, int]] = defaultdict(dict)
        self._gens: dict[int, tuple[int, ...]] = {}

    def __len__(self):
        return len(self.bitsets)

    # ----- lookup ---------------------------------------------------------

    def index(self, bits: int) -> int:
        try:
            return self._index[bits]
        except KeyError:
            raise InternalInconsistency(
                "bitset is not a subgroup of the lattice") from None

    def members(self, h: int) -> tuple[int, ...]:
        return self._members[h]

    def leq(self, a: int, b: int) -> bool:
        return self.bitsets[a] | self.bitsets[b] == self.bitsets[b]

    def join(self, a: int, b: int) -> int:
        """The subgroup generated by a and b: the larger of the two when they
        are comparable, otherwise the lowest position common to both
        up-masks, as subgroups sort by order."""
        a_bits, b_bits = self.bitsets[a], self.bitsets[b]
        if a_bits | b_bits in (a_bits, b_bits):
            return max(a, b)
        common = self.order.up[a] & self.order.up[b]
        return (common & -common).bit_length() - 1

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
        bits, members = self.bitsets, self._members
        holding = [0] * self.group.order  # 0 for an element that is no z
        zuppos = list(self.group.zuppos.values())
        held_by = set(zuppos).intersection
        for i, hs in enumerate(members):
            bit = 1 << i
            for z in held_by(hs):
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
            held = filter(None, map(holding.__getitem__, members[i]))
            return reduce(and_, held, full) ^ 1 << i

        return Order(_LazyMasks(down), _LazyMasks(up))

    def generating_set(self, h: int) -> tuple[int, ...]:
        """A small generating set, chosen greedily in canonical element order."""
        if h not in self._gens:
            self._gens[h] = tuple(self.group.greedy_closure(
                self._members[h], self.bitsets[h])[0])
        return self._gens[h]

    def generator_string(self, h: int) -> str:
        gens = self.generating_set(h)
        if not gens:
            return "()"
        return ", ".join(map(self.group.element_string, gens))

    # ----- conjugation ----------------------------------------------------

    def conjugate(self, h: int, g: int) -> int:
        conj = self.group.conjugate_index
        return self.index(sum(1 << conj(g, x) for x in self._members[h]))

    def class_representatives(self) -> tuple[int, ...]:
        """The lowest index of each class, in `class_masks` order."""
        return tuple((c & -c).bit_length() - 1 for c in self.class_masks)

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        """Per position, the mask of its conjugacy class."""
        out = [0] * len(self)
        for c in self.class_masks:
            for i in positions(c):
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

    def _class_fact(self, key, h: int, fact) -> int:
        """fact(h), worked out once per class and memoised under key: over
        the rest of h's class the values g f(H) g^-1 = f(gHg^-1) are read off
        the generators' action along a breadth-first tree, so fact must
        conjugate along with its subgroup."""
        memo = self._class_facts[key]
        if h not in memo:
            memo[h] = fact(h)
            reached = [h]
            for k in reached:
                for row in self.generator_action:
                    if row[k] not in memo:
                        memo[row[k]] = row[memo[k]]
                        reached.append(row[k])
        return memo[h]

    def normalizer(self, h: int) -> int:
        """H^g = H exactly when g conjugates each generator of H into H."""
        return self._class_fact("normalizer", h, lambda k: self._index[
            self.group.normalizer_bitset(self.bitsets[k],
                                         self.generating_set(k))])

    def centralizer(self, h: int) -> int:
        """g centralizes H exactly when conjugation by g fixes each generator."""
        return self._class_fact("centralizer", h, lambda k: self._index[reduce(
            and_, (self.group.conjugating(x, 1 << x)
                   for x in self.generating_set(k)), self.group.full_bitset)])

    def center(self, h: int) -> int:
        return self.index(self.bitsets[h] & self.bitsets[self.centralizer(h)])

    def is_p_group(self, h: int, p: int) -> bool:
        return self.sizes[h] == p_part(self.sizes[h], p)

    def p_core(self, h: int, p: int) -> int:
        """O_p(H): the intersection of the Sylow p-subgroups of H."""
        return self._class_fact(("p_core", p), h, lambda k: p_core_of_group(
            self, k, self.trivial, p))

    def sylow(self, p: int) -> tuple[int, ...]:
        if self.group.order % p:
            raise PrimeDoesNotDivide(p, self.group.order)
        target = p_part(self.group.order, p)
        return tuple(i for i, n in enumerate(self.sizes) if n == target)

    def is_elementary_abelian(self, h: int, p: int) -> bool:
        """Every non-identity member has order p, and H commutes: it lies in
        its own centralizer."""
        orders = self.group.element_orders
        return (all(orders[x] == p for x in self._members[h] if x)
                and self.leq(h, self.centralizer(h)))



def p_core_of_group(lattice: SubgroupLattice, big: int, normal: int,
                    p: int) -> int:
    """The preimage in ``big`` of O_p(big/normal), for ``normal`` normal in
    ``big``: the intersection of T v normal (the product T * normal) over
    the Sylow p-subgroups T of ``big``, whose images are the Sylow
    p-subgroups of the quotient."""
    target = p_part(lattice.sizes[big], p)
    bits = lattice.bitsets
    acc = bits[big]
    for t, n in enumerate(lattice.sizes):
        if n == target and bits[t] | bits[big] == bits[big]:
            acc &= bits[lattice.join(t, normal)]
    return lattice.index(acc)
