"""Finite permutation groups with fully materialized element lists.

Everything downstream works on element *indices* into the canonically sorted
element tuple, so the group owns the multiplication/inverse/order tables and
the bitset closure routine used by the subgroup lattice.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter

from .errors import (CapExceeded, InternalInconsistency, ParseError,
                     UnknownBuiltin)
from .perm import Permutation, parse_cycles


class PermutationGroup:
    """A finite permutation group on {0, ..., degree-1}.

    Elements are materialized as image tuples, sorted lexicographically
    (which puts the identity at index 0) and addressed by index throughout.
    Only the generators are `Permutation` objects.
    """

    def __init__(self, generators, images, *, name=None):
        self.generators = tuple(generators)
        self.images = tuple(sorted(images))
        self.name = name
        self.degree = len(self.images[0])
        self.order = len(self.images)
        if self.images[0] != tuple(range(self.degree)):
            raise InternalInconsistency("identity must sort first")
        self._position = {img: i for i, img in enumerate(self.images)}
        self.generator_indices = tuple(self._position[g.images]
                                       for g in self.generators)
        self._columns: dict[int, list[int]] = {}

    @classmethod
    def from_generators(cls, generators, *, name=None, degree=None, max_order=None):
        """Close the generators' image tuples under composition."""
        gens = list(generators)
        if not gens:
            return cls((), (tuple(range(degree or 1)),), name=name)
        degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise ValueError("generators must share a degree")
        cap = float("inf") if max_order is None else max_order
        over_cap = f"group closure exceeded the order cap {max_order}"
        # the group holds <g>, of order the lcm of g's cycle lengths
        if any(lcm(*map(len, g.cycles())) > cap for g in gens):
            raise CapExceeded(over_cap)
        # close on the moved points only, so a closure over the cap never
        # holds images of the full degree
        moved = sorted({x for g in gens for x, y in enumerate(g.images) if x != y})
        local = {x: k for k, x in enumerate(moved)}
        steps = [tuple(local[g.images[x]] for x in moved) for g in gens]
        images = {tuple(range(len(moved)))}  # the identity
        frontier = [g for g in steps if g not in images]
        images.update(frontier)
        while frontier:
            nxt = []
            for g in frontier:
                for h in steps:
                    p = tuple(map(g.__getitem__, h))  # g * h
                    if p not in images:
                        images.add(p)
                        nxt.append(p)
                        if len(images) > cap:
                            raise CapExceeded(over_cap)
            frontier = nxt
        if len(moved) < degree:  # every point no generator moves is fixed
            images = [tuple(moved[img[local[x]]] if x in local else x
                            for x in range(degree)) for img in images]
        return cls(tuple(gens), images, name=name)

    def __repr__(self):
        label = self.name or "PermutationGroup"
        return f"<{label}: degree {self.degree}, order {self.order}>"

    # ----- index tables ---------------------------------------------------

    @cached_property
    def mul(self) -> list[list[int]]:
        """mul[a][b] = index of elements[a] * elements[b].

        Only the generators' rows compose permutations. Every other row is
        reached along the Cayley graph from the identity: if x = y * s, then
        mul[x][b] = mul[y][mul[s][b]] (G. Butler, LNCS 559, 1991).
        """
        images, idx = self.images, self._position
        steps = [(s, [idx[tuple(map(images[s].__getitem__, b))] for b in images])
                 for s in dict.fromkeys(self.generator_indices) if s]
        rows: list = [None] * self.order
        rows[0] = list(range(self.order))
        reached = [0]
        for y in reached:
            row = rows[y]
            for s, step in steps:
                x = row[s]  # y * s
                if rows[x] is None:
                    rows[x] = list(map(row.__getitem__, step))
                    reached.append(x)
        if len(reached) != self.order:
            raise InternalInconsistency("generators do not generate the group")
        return rows

    @cached_property
    def inv(self) -> list[int]:
        return [row.index(0) for row in self.mul]

    @cached_property
    def cyclic_bitsets(self) -> list[int]:
        """cyclic_bitsets[x] is the cyclic subgroup generated by x: one walk
        over the powers of x serves every generator x^k, gcd(k, n) = 1, of
        that subgroup of order n."""
        mul = self.mul
        cyclic = [1] * self.order  # 1 (the trivial subgroup) until walked
        for x in range(1, self.order):
            if cyclic[x] == 1:
                powers, y = [0], x
                while y:
                    powers.append(y)
                    y = mul[y][x]
                n, bits = len(powers), sum(map(_SHIFT, powers))
                for k in range(1, n):
                    if gcd(k, n) == 1:
                        cyclic[powers[k]] = bits
        return cyclic

    @cached_property
    def element_orders(self) -> list[int]:
        return [c.bit_count() for c in self.cyclic_bitsets]

    @cached_property
    def zuppos(self) -> dict[int, int]:
        """Each cyclic subgroup of prime-power order -> its lowest generator,
        in the order of those generators."""
        zuppos: dict[int, int] = {}
        for x in range(1, self.order):
            if _prime_power(self.element_orders[x]):
                zuppos.setdefault(self.cyclic_bitsets[x], x)
        return zuppos

    def element_string(self, x: int) -> str:
        """Element x in cycle notation."""
        return Permutation(self.images[x]).cycle_string()

    def conjugate_index(self, g: int, x: int) -> int:
        """Index of elements[g] * elements[x] * elements[g]^-1."""
        m = self.mul
        return m[m[g][x]][self.inv[g]]

    @cached_property
    def generator_conjugation(self) -> list[list[int]]:
        """Per generator g, the row x -> g x g^-1."""
        mul, inv = self.mul, self.inv
        return [[mul[y][inv[g]] for y in mul[g]] for g in self.generator_indices]

    def subgroup_class(self, bits: int) -> tuple[
            list[int], list[tuple[int, ...]], list[tuple[int, ...]]]:
        """The conjugacy class of the subgroup ``bits``, which comes first,
        closed under conjugation by each generator; per member, the
        positions in the class of its conjugates by the generators, in the
        order of `generator_conjugation`; and per member, its elements in
        increasing order."""
        orbit, position, moves = [bits], {bits: 0}, []
        members = [tuple(positions(bits))]
        for hs in members:
            step = []
            for row in self.generator_conjugation:
                image = list(map(row.__getitem__, hs))
                k = sum(map(_SHIFT, image))
                if k not in position:
                    position[k] = len(orbit)
                    orbit.append(k)
                    members.append(tuple(sorted(image)))
                step.append(position[k])
            moves.append(tuple(step))
        return orbit, moves, members

    def conjugation_column(self, x: int) -> list[int]:
        """col[g] = conjugate_index(g, x) for every g, built on first use."""
        col = self._columns.get(x)
        if col is None:
            mul = self.mul
            col = self._columns[x] = list(map(
                list.__getitem__, map(mul.__getitem__, map(itemgetter(x), mul)),
                self.inv))
        return col

    def conjugating(self, x: int, bits: int) -> int:
        """The bitset of the g with g x g^-1 in ``bits``, read in one pass
        over the conjugation column of x."""
        flags = f"{bits:0{self.order}b}"[::-1]  # character i is bit i
        col = self.conjugation_column(x)
        return int("".join(map(flags.__getitem__, col))[::-1], 2)

    def normalizer_bitset(self, bits: int, gens) -> int:
        """N_G(H) for H = ``bits`` generated by gens: H^g = H exactly when g
        conjugates each generator of H into H."""
        out = self.full_bitset
        for x in gens:
            out &= self.conjugating(x, bits)
        return out

    # ----- bitset helpers -------------------------------------------------

    @property
    def full_bitset(self) -> int:
        return (1 << self.order) - 1

    def closure_bitset(self, seed: int) -> int:
        """Subgroup generated by the elements whose bits are set in ``seed``."""
        return self.greedy_closure(positions(seed), seed)[1]

    def greedy_closure(self, elements, seed: int) -> tuple[list[int], int]:
        """Walk elements in order, taking each one not yet reached as a
        generator and extending by one Dimino step, until the subgroup holds
        ``seed``: the generators taken and the subgroup they generate."""
        found, gens = 1, []  # identity is index 0
        for x in elements:
            if not (found >> x) & 1:
                gens.append(x)
                found = self.dimino_step(
                    found, list(map(self.mul.__getitem__, positions(found))), gens)
                if found | seed == found:
                    break
        return gens, found

    def dimino_step(self, bits: int, coset: list, gens) -> int:
        """The subgroup <H, x> for H = ``bits`` and x the last of ``gens``,
        where the generators before x must generate H, given the rows of H's
        members in the multiplication table: H r is {row[r] for row in coset}.

        <H, x> is grown as a union of right cosets H r, closing the coset
        representatives under right multiplication by every generator. A
        subgroup of order > |G|/2 is G itself, so that returns the full group.
        """
        mul = self.mul
        found, count, half = bits, len(coset), self.order // 2
        reps = [0]  # the identity represents H itself
        for r in reps:
            rrow = mul[r]
            for g in gens:
                y = rrow[g]
                if not (found >> y) & 1:
                    for row in coset:
                        found |= 1 << row[y]
                    count += len(coset)
                    if count > half:
                        return self.full_bitset
                    reps.append(y)
        return found

    # ----- identity -------------------------------------------------------

    @cached_property
    def content_hash(self) -> str:
        """SHA-256 of the degree line and one line of images per element."""
        text = "\n".join([f"degree {self.degree}",
                          *(",".join(map(str, img)) for img in self.images), ""])
        return hashlib.sha256(text.encode()).hexdigest()


def _prime_power(n: int) -> bool:
    """Whether n > 1 is a power of its least prime factor."""
    p = 2
    while n % p:
        p += 1
    while n % p == 0:
        n //= p
    return n == 1


_SHIFT = (1).__lshift__  # _SHIFT(x) is the bitset {x}


def positions(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ----- builtin groups -----------------------------------------------------

# name -> (degree, generators in cycle notation), read by the file parser
_BUILTINS = {
    # symmetries of the square and the hexagon: i -> i+1 and i -> 2-i
    "D8": (4, ("(0 1 2 3)", "(0 2)")),
    "D12": (6, ("(0 1 2 3 4 5)", "(0 2)(3 5)")),
    # left multiplication by i and j on 1, -1, i, -i, j, -j, k, -k
    "Q8": (8, ("(0 2 1 3)(4 6 5 7)", "(0 4 1 5)(2 7 3 6)")),
    # [[1,1],[0,1]] and [[0,2],[1,0]] on the nonzero vectors of F_3^2,
    # listed in lexicographic order
    "SL23": (8, ("(0 3 6)(1 7 4)", "(0 5 1 2)(3 6 7 4)")),
    # symmetric groups: the n-cycle and a transposition
    "S3": (3, ("(0 1 2)", "(0 1)")),
    "S4": (4, ("(0 1 2 3)", "(0 1)")),
    "S5": (5, ("(0 1 2 3 4)", "(0 1)")),
    # alternating groups: two 3-cycles on 4 points, a 5-cycle and a 3-cycle
    "A4": (4, ("(0 1 2)", "(1 2 3)")),
    "A5": (5, ("(0 1 2 3 4)", "(0 1 2)")),
}


def builtin_group(name: str, *, max_order=None) -> PermutationGroup:
    """The builtin ``name``, or for ``Zn:<n>`` the cyclic group Z<n> on one
    n-cycle, closed under the order cap as a group file is."""
    if name in _BUILTINS:
        degree, gens = _BUILTINS[name]
    else:
        try:
            degree = int(name[3:]) if name.startswith("Zn:") else 0
        except ValueError:
            degree = 0
        if degree < 1:
            raise UnknownBuiltin(name, sorted(_BUILTINS) + ["Zn:<n>"])
        name = f"Z{degree}"
        gens = [f"({' '.join(map(str, range(degree)))})"] if degree > 1 else []
    text = "\n".join([f"degree {degree}", *(f"gen {g}" for g in gens)])
    return parse_group_text(text, source=name, max_order=max_order)


# ----- group files --------------------------------------------------------

def parse_group_text(text: str, *, source="<string>", max_order=None) -> PermutationGroup:
    """Parse the plain group file format.

    Line 1 is ``degree <n>``; each following non-blank, non-comment line is
    ``gen <cycles>``. ``#`` starts a comment.
    """
    degree = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.lstrip()
        col = len(line) - len(stripped) + 1
        if degree is None:
            parts = stripped.split()
            if len(parts) != 2 or parts[0] != "degree":
                raise ParseError("expected 'degree <n>' on the first data line",
                                 source=source, line=lineno, column=col)
            at = col + stripped.index(parts[1], len("degree"))
            try:
                degree = int(parts[1])
            except ValueError:
                raise ParseError(f"bad degree {parts[1]!r}",
                                 source=source, line=lineno, column=at) from None
            if degree < 1:
                raise ParseError("degree must be at least 1",
                                 source=source, line=lineno, column=at)
            continue
        if not stripped.startswith("gen"):
            raise ParseError(f"expected 'gen <cycles>' but found {stripped.split()[0]!r}",
                             source=source, line=lineno, column=col)
        body = stripped[3:]
        pad = col - 1 + len("gen")
        gens.append(parse_cycles(body, degree, source=source, line=lineno, offset=pad))
    if degree is None:
        raise ParseError("empty group file", source=source, line=1, column=1)
    name = source.rsplit("/", 1)[-1]
    return PermutationGroup.from_generators(gens, name=name, degree=degree,
                                            max_order=max_order)


def load_group(spec: str, *, max_order=None) -> PermutationGroup:
    """Load ``builtin:NAME`` or a group file path."""
    if spec.startswith("builtin:"):
        return builtin_group(spec[len("builtin:"):], max_order=max_order)
    with open(spec, encoding="utf-8") as fh:
        text = fh.read()
    return parse_group_text(text, source=spec, max_order=max_order)
