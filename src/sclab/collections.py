"""Collections of p-subgroups of a finite group.

The classical collections (nontrivial p-subgroups, elementary abelians,
radicals, centrics) plus the two refinements built from elements of central
type: order-p elements lying in the center of some Sylow p-subgroup (E0) and
the closure of E0 under commuting products (E1), each held as a bitset over
the group's element order. For a p-subgroup P the two operators

    tilde(P) = Omega_1 Z(P) ∩ E1   (a subgroup)
    hat(P)   = < Omega_1 Z(P) ∩ E0 >

cut each classical collection down to its "distinguished" part. Every
element of E1 (and so of E0) has order p, so Omega_1 Z(P) ∩ E1 = Z(P) ∩ E1,
and both operators read the center Z(P) alone.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import combinations
from operator import or_
from weakref import WeakValueDictionary

from .errors import InternalInconsistency, PrimeDoesNotDivide
from .group import positions
from .lattice import SubgroupLattice, p_core_of_group, p_part, require_prime
from .poset import GPoset

KINDS = ("A", "S", "B", "Ce", "Bcen", "D", "E",
         "tilde-A", "tilde-S", "tilde-B", "hat-A", "hat-S", "hat-B")

CONDITIONS = ("M", "Cl", "Ch")


class CollectionContext:
    """All collections, operators and condition checks for one (lattice, p)."""

    def __init__(self, lattice: SubgroupLattice, p: int):
        require_prime(p, lattice.group.order)
        if lattice.group.order % p:
            raise PrimeDoesNotDivide(p, lattice.group.order)
        self.lattice = lattice
        self.p = p
        self._collections: dict[str, GPoset] = {}
        self._conditions: dict[str, dict] = {}
        # each check the tables module has run, keyed by its inputs; filled
        # and read by tables._once
        self.memo: dict = {}

    # ----- central-type elements -------------------------------------------

    @cached_property
    def E0(self) -> int:
        """Bitset of the elements of order p that lie in the center of some
        Sylow p-subgroup."""
        lat = self.lattice
        centers = reduce(or_, (lat.bitsets[lat.center(s)]
                               for s in lat.sylow(self.p)))
        orders = lat.group.element_orders
        return centers & sum(1 << x for x, n in enumerate(orders) if n == self.p)

    @cached_property
    def E1(self) -> int:
        """Bitset of the least superset of E0 closed under conjugation and
        under products of commuting pairs whose product has order exactly p.
        E0 is a union of conjugacy classes (the Sylows are conjugate), and
        closing a conjugation-invariant set under commuting products keeps
        it invariant, so the products alone reach E1. One worklist pass
        pairs each element once with every element found before it, itself
        included (so x^2 counts at odd p), and looks at no product twice."""
        grp = self.lattice.group
        mul, orders = grp.mul, grp.element_orders
        e1 = self.E0
        found = list(positions(e1))
        for i, x in enumerate(found):
            row = mul[x]
            for y in found[:i + 1]:
                z = row[y]
                if not e1 >> z & 1 and orders[z] == self.p and z == mul[y][x]:
                    e1 |= 1 << z
                    found.append(z)
        return e1

    # ----- operators --------------------------------------------------------

    def tilde_of(self, h: int) -> int:
        """Z(P) ∩ E1, together with the identity: a subgroup, as the members
        of Z(P) commute and E1 holds their products of order p."""
        lat = self.lattice
        return lat.index(lat.bitsets[lat.center(h)] & self.E1 | 1)

    def hat_of(self, h: int) -> int:
        """The subgroup generated by Z(P) ∩ E0."""
        lat = self.lattice
        return lat.index(lat.group.closure_bitset(
            lat.bitsets[lat.center(h)] & self.E0 | 1))

    # ----- membership predicates --------------------------------------------

    def is_p_radical(self, h: int) -> bool:
        """P = O_p(N_G(P))."""
        lat = self.lattice
        return lat.p_core(lat.normalizer(h), self.p) == h

    def is_p_centric(self, h: int) -> bool:
        """Z(P) is a Sylow p-subgroup of C_G(P)."""
        lat = self.lattice
        sizes = lat.sizes
        return sizes[lat.center(h)] == p_part(sizes[lat.centralizer(h)], self.p)

    def is_principal_p_radical(self, h: int) -> bool:
        """p-centric with O_p(N_G(P) / P C_G(P)) trivial, that is with the
        preimage of that p-core equal to P C_G(P) = P v C_G(P)."""
        if not self.is_p_centric(h):
            return False
        lat = self.lattice
        pc = lat.join(h, lat.centralizer(h))
        return p_core_of_group(lat, lat.normalizer(h), pc, self.p) == pc

    # ----- collections -------------------------------------------------------

    def collection(self, kind: str) -> GPoset:
        """The kind's poset, named f"{kind}_{p}", built once per context."""
        if kind not in KINDS:
            raise ValueError(f"unknown collection kind {kind!r}; expected one of {KINDS}")
        if kind not in self._collections:
            self._collections[kind] = self._build(kind)
        return self._collections[kind]

    def _build(self, kind: str) -> GPoset:
        """Membership in each kind is invariant under conjugation, so each
        class of nontrivial p-subgroups is decided at its first member and
        its class mask taken whole. Neither operator looks at the collection
        it cuts, so tilde-X and hat-X are X ∩ tilde-S and X ∩ hat-S, and
        each operator runs at most once per class of S."""
        lat = self.lattice
        op, _, base = kind.rpartition("-")
        if op and base != "S":
            mask = self.collection(base).mask & self.collection(f"{op}-S").mask
        else:
            mask = 0
            for rep, c in zip(lat.class_representatives(), lat.class_masks):
                if (rep != lat.trivial and lat.is_p_group(rep, self.p)
                        and self._base_member(kind, rep)):
                    mask |= c
        return GPoset(lat.order, mask, lat, name=f"{kind}_{self.p}")

    def _base_member(self, kind: str, m: int) -> bool:
        lat = self.lattice
        if kind == "S":
            return True
        if kind == "tilde-S":
            return self.tilde_of(m) != lat.trivial
        if kind == "hat-S":
            return self.hat_of(m) != lat.trivial
        if kind == "A":
            return lat.is_elementary_abelian(m, self.p)
        if kind == "B":
            return self.is_p_radical(m)
        if kind == "Ce":
            return self.is_p_centric(m)
        if kind == "Bcen":
            return self.is_p_centric(m) and self.is_p_radical(m)
        if kind == "D":
            return self.is_principal_p_radical(m)
        if kind == "E":
            return (lat.is_elementary_abelian(m, self.p)
                    and lat.bitsets[m] & ~self.E1 == 1)
        raise InternalInconsistency(f"unknown collection kind {kind!r}")

    @cached_property
    def p_locals(self) -> tuple[int, ...]:
        """The normalizers of the nontrivial p-subgroups, each once, in
        index order."""
        return tuple(sorted(set(map(self.lattice.normalizer,
                                    self.collection("S").members))))

    # ----- conditions ---------------------------------------------------------

    def condition(self, which: str) -> dict:
        """The report row of one condition, built once per context:
        {"condition", "holds", "witnesses", "detail"}, with a witness that
        refutes it when it fails. Every edge it gates and the conditions
        section hold that one dict."""
        if which not in CONDITIONS:
            raise ValueError(f"unknown condition {which!r}; expected one of {CONDITIONS}")
        if which not in self._conditions:
            self._conditions[which] = getattr(self, f"_condition_{which}")()
        return self._conditions[which]

    def _witness_subgroup(self, h: int) -> dict:
        return {"index": h, "order": self.lattice.sizes[h],
                "generators": self.lattice.generator_string(h)}

    def _witness_element(self, x: int) -> str:
        return self.lattice.group.element_string(x)

    def _condition_M(self) -> dict:
        """Every distinguished p-subgroup's normalizer sits inside a p-local
        subgroup that contains a Sylow p-subgroup of G."""
        lat = self.lattice
        full_p = p_part(lat.group.order, self.p)
        hosts = [m for m in self.p_locals
                 if p_part(lat.sizes[m], self.p) == full_p]
        for P in self.collection("hat-S").members:
            n = lat.normalizer(P)
            if not any(lat.leq(n, m) for m in hosts):
                return {"condition": "M", "holds": False,
                        "witnesses": [self._witness_subgroup(P)],
                        "detail": "normalizer of the witness lies in no "
                        "p-local subgroup containing a Sylow p-subgroup"}
        return {"condition": "M", "holds": True, "witnesses": [], "detail":
                f"checked {len(self.collection('hat-S'))} distinguished subgroups"}

    def _condition_Cl(self) -> dict:
        """E0 is closed under products of commuting pairs (identity aside)."""
        mul = self.lattice.group.mul
        for x, y in combinations(positions(self.E0), 2):
            z = mul[x][y]
            if z and z == mul[y][x] and not self.E0 >> z & 1:
                return {"condition": "Cl", "holds": False, "witnesses": [{
                    "x": self._witness_element(x), "y": self._witness_element(y),
                    "xy": self._witness_element(z)}], "detail":
                    "commuting product of central-type elements leaves E0"}
        return {"condition": "Cl", "holds": True, "witnesses": [],
                "detail": f"E0 has {self.E0.bit_count()} elements"}

    def _condition_Ch(self) -> dict:
        """Local characteristic p: C_H(O_p(H)) <= O_p(H) for every p-local H."""
        lat = self.lattice
        bits = lat.bitsets
        for h in self.p_locals:
            core = lat.p_core(h, self.p)
            ch = bits[lat.centralizer(core)] & bits[h]
            if ch | bits[core] != bits[core]:
                return {"condition": "Ch", "holds": False,
                        "witnesses": [self._witness_subgroup(h)], "detail":
                        "centralizer of O_p escapes O_p in the witness p-local subgroup"}
        return {"condition": "Ch", "holds": True, "witnesses": [],
                "detail": f"checked {len(self.p_locals)} p-local subgroups"}

    def equalities_under_Ch(self) -> dict | None:
        """Under local characteristic p, radicals, distinguished radicals and
        centric radicals coincide; returns the common member set, or the first
        subgroup separating two of the collections, or None where Ch fails."""
        if not self.condition("Ch")["holds"]:
            return None
        b, bh, bc = (self.collection(k).mask for k in ("B", "hat-B", "Bcen"))
        if b == bh == bc:
            return {"equal": True, "common": list(map(
                self._witness_subgroup, self.collection("B").members))}
        sep = next(positions((b | bh | bc) & ~(b & bh & bc)))
        return {"equal": False,
                "counterexample": {**self._witness_subgroup(sep),
                                   "in_B": bool(b >> sep & 1),
                                   "in_hat_B": bool(bh >> sep & 1),
                                   "in_Bcen": bool(bc >> sep & 1)}}


def collection_context(lattice: SubgroupLattice, p: int) -> CollectionContext:
    """The context for (lattice, p), shared while any caller holds it; held
    weakly, since a context refers to its lattice and a cycle outlives a run."""
    cache = lattice.__dict__.setdefault("_collection_contexts",
                                        WeakValueDictionary())
    ctx = cache.get(p)
    if ctx is None:
        ctx = cache[p] = CollectionContext(lattice, p)
    return ctx
