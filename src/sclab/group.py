"""Finite permutation groups with fully materialized element lists.

Everything downstream works on element *indices* into the canonically sorted
element tuple, so the group owns the multiplication/inverse/order tables and
the bitset closure routine used by the subgroup lattice.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from operator import itemgetter

from .errors import (CapExceeded, InternalInconsistency, ParseError,
                     UnknownBuiltin)
from .perm import Permutation, parse_cycles


class PermutationGroup:
    """A finite permutation group on {0, ..., degree-1}.

    Elements are materialized, sorted lexicographically by image tuple (which
    puts the identity at index 0) and addressed by index throughout.
    """

    def __init__(self, generators, elements, *, name=None):
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements))
        self.name = name
        self.degree = self.elements[0].degree
        self.order = len(self.elements)
        self.index = {g: i for i, g in enumerate(self.elements)}
        if not self.elements[0].is_identity():
            raise InternalInconsistency("identity must sort first")
        self.generator_indices = tuple(self.index[g] for g in self.generators)
        self._columns: dict[int, list[int]] = {}

    @classmethod
    def from_generators(cls, generators, *, name=None, degree=None, max_order=None):
        gens = list(generators)
        if not gens:
            if degree is None:
                degree = 1
            return cls((), (Permutation.identity(degree),), name=name)
        degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise ValueError("generators must share a degree")
        identity = Permutation.identity(degree)
        elements = {identity}
        frontier = [g for g in gens if g not in elements]
        elements.update(frontier)
        while frontier:
            nxt = []
            for g in frontier:
                for h in gens:
                    p = g * h
                    if p not in elements:
                        elements.add(p)
                        nxt.append(p)
                        if max_order is not None and len(elements) > max_order:
                            raise CapExceeded(
                                f"group closure exceeded the order cap {max_order}"
                            )
            frontier = nxt
        return cls(tuple(gens), elements, name=name)

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
        images = [g.images for g in self.elements]
        idx = {img: i for i, img in enumerate(images)}
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
        return [self.index[g.inverse()] for g in self.elements]

    @cached_property
    def element_orders(self) -> list[int]:
        return [g.order() for g in self.elements]

    def conjugate_index(self, g: int, x: int) -> int:
        """Index of elements[g] * elements[x] * elements[g]^-1."""
        m = self.mul
        return m[m[g][x]][self.inv[g]]

    def conjugation_column(self, x: int) -> list[int]:
        """col[g] = conjugate_index(g, x) for every g, built on first use."""
        col = self._columns.get(x)
        if col is None:
            mul = self.mul
            col = self._columns[x] = list(map(
                list.__getitem__, map(mul.__getitem__, map(itemgetter(x), mul)),
                self.inv))
        return col

    # ----- bitset helpers -------------------------------------------------

    @property
    def full_bitset(self) -> int:
        return (1 << self.order) - 1

    def closure_bitset(self, seed: int) -> int:
        """Subgroup generated by the elements whose bits are set in ``seed``:
        one extension step per seed element not yet reached."""
        found = 1  # identity is index 0
        gens: list[int] = []
        for x in _bits(seed):
            if not (found >> x) & 1:
                gens.append(x)
                found = self.extend_bitset(found, gens)
        return found

    def extend_bitset(self, bits: int, gens) -> int:
        """Dimino's step: the subgroup <H, x> for H = ``bits`` and x the last
        of ``gens``, where the generators before x must generate H.

        <H, x> is grown as a union of right cosets H r, closing the coset
        representatives under right multiplication by every generator. A
        subgroup of order > |G|/2 is G itself, so that returns the full group.
        """
        mul = self.mul
        coset = [mul[h] for h in _bits(bits)]  # H r is {row[r] for row}
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

    def cyclic_bitset(self, x: int) -> int:
        bits = 1
        y = x
        mul = self.mul
        while not (bits >> y) & 1:
            bits |= 1 << y
            y = mul[y][x]
        return bits

    def bitset_members(self, bits: int) -> list[int]:
        return _bits(bits)

    # ----- identity -------------------------------------------------------

    @cached_property
    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(f"degree {self.degree}\n".encode())
        for g in self.elements:
            h.update((",".join(map(str, g.images)) + "\n").encode())
        return h.hexdigest()


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ----- builtin groups -----------------------------------------------------

def _cycle_group(*cycle_lists, degree, name):
    gens = []
    for cycles in cycle_lists:
        images = list(range(degree))
        for cyc in cycles:
            for i, p in enumerate(cyc):
                images[p] = cyc[(i + 1) % len(cyc)]
        gens.append(Permutation(tuple(images)))
    return PermutationGroup.from_generators(gens, name=name)


def _dihedral(n):
    # symmetries of a regular n-gon on points 0..n-1, order 2n;
    # the reflection i -> 2-i makes D8 come out as <(0 1 2 3), (0 2)>
    rot = Permutation(tuple((i + 1) % n for i in range(n)))
    ref = Permutation(tuple((2 - i) % n for i in range(n)))
    return PermutationGroup.from_generators([rot, ref], name=f"D{2 * n}")


def _quaternion8():
    # left regular action on {1,-1,i,-i,j,-j,k,-k} indexed 0..7
    left_i = Permutation((2, 3, 1, 0, 6, 7, 5, 4))
    left_j = Permutation((4, 5, 7, 6, 1, 0, 2, 3))
    return PermutationGroup.from_generators([left_i, left_j], name="Q8")


def _sl23():
    # SL(2,3) acting on the 8 nonzero vectors of F_3^2, listed in lex order
    vectors = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    vec_index = {v: i for i, v in enumerate(vectors)}

    def mat_perm(a, b, c, d):
        images = []
        for x, y in vectors:
            images.append(vec_index[((a * x + b * y) % 3, (c * x + d * y) % 3)])
        return Permutation(tuple(images))

    gens = [mat_perm(1, 1, 0, 1), mat_perm(0, 2, 1, 0)]
    return PermutationGroup.from_generators(gens, name="SL23")


def _cyclic(n):
    if n < 1:
        raise UnknownBuiltin(f"Zn:{n}", sorted(_BUILTINS) + ["Zn:<n>"])
    if n == 1:
        return PermutationGroup.from_generators([], degree=1, name="Z1")
    return _cycle_group([tuple(range(n))], degree=n, name=f"Z{n}")


_BUILTINS = {
    "D8": lambda: _dihedral(4),
    "D12": lambda: _dihedral(6),
    "Q8": _quaternion8,
    "S3": lambda: _cycle_group([(0, 1, 2)], [(0, 1)], degree=3, name="S3"),
    "S4": lambda: _cycle_group([(0, 1, 2, 3)], [(0, 1)], degree=4, name="S4"),
    "S5": lambda: _cycle_group([(0, 1, 2, 3, 4)], [(0, 1)], degree=5, name="S5"),
    "A4": lambda: _cycle_group([(0, 1, 2)], [(1, 2, 3)], degree=4, name="A4"),
    "A5": lambda: _cycle_group([(0, 1, 2, 3, 4)], [(0, 1, 2)], degree=5, name="A5"),
    "SL23": _sl23,
}


def builtin_group(name: str) -> PermutationGroup:
    if name in _BUILTINS:
        return _BUILTINS[name]()
    if name.startswith("Zn:"):
        try:
            n = int(name[3:])
        except ValueError:
            raise UnknownBuiltin(name, sorted(_BUILTINS) + ["Zn:<n>"]) from None
        return _cyclic(n)
    raise UnknownBuiltin(name, sorted(_BUILTINS) + ["Zn:<n>"])


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
            try:
                degree = int(parts[1])
            except ValueError:
                raise ParseError(f"bad degree {parts[1]!r}",
                                 source=source, line=lineno, column=col + len("degree ")) from None
            if degree < 1:
                raise ParseError("degree must be at least 1",
                                 source=source, line=lineno, column=col + len("degree "))
            continue
        if not stripped.startswith("gen"):
            raise ParseError(f"expected 'gen <cycles>' but found {stripped.split()[0]!r}",
                             source=source, line=lineno, column=col)
        body = stripped[3:]
        pad = (len(raw) - len(stripped)) + 3
        gens.append(parse_cycles(body, degree, source=source, line=lineno, offset=pad))
    if degree is None:
        raise ParseError("empty group file", source=source, line=1, column=1)
    name = source.rsplit("/", 1)[-1]
    return PermutationGroup.from_generators(gens, name=name, degree=degree,
                                            max_order=max_order)


def load_group(spec: str, *, max_order=None) -> PermutationGroup:
    """Load ``builtin:NAME`` or a group file path."""
    if spec.startswith("builtin:"):
        group = builtin_group(spec[len("builtin:"):])
        if max_order is not None and group.order > max_order:
            raise CapExceeded(f"group order {group.order} exceeds the cap {max_order}")
        return group
    with open(spec, encoding="utf-8") as fh:
        text = fh.read()
    return parse_group_text(text, source=spec, max_order=max_order)
