"""Collections of p-subgroups of a finite group.

The classical collections (nontrivial p-subgroups, elementary abelians,
radicals, centrics) plus the two refinements built from elements of central
type: order-p elements lying in the center of some Sylow p-subgroup (E0) and
the closure of E0 under commuting products (E1). For a p-subgroup P the two
operators

    tilde(P) = Omega_1 Z(P) ∩ E1   (a subgroup)
    hat(P)   = < Omega_1 Z(P) ∩ E0 >

cut each classical collection down to its "distinguished" part.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from weakref import WeakValueDictionary

from .errors import (ConditionNotSatisfied, InternalInconsistency,
                     PrimeDoesNotDivide)
from .lattice import SubgroupLattice, SubgroupRef, p_part, p_core_of_group

KINDS = ("A", "S", "B", "Ce", "Bcen", "D", "E",
         "tilde-A", "tilde-S", "tilde-B", "hat-A", "hat-S", "hat-B")

CONDITIONS = ("M", "Cl", "Ch")


@dataclass(frozen=True)
class Collection:
    kind: str
    prime: int
    members: tuple[SubgroupRef, ...]  # sorted by lattice index

    @cached_property
    def member_indices(self) -> frozenset[int]:
        return frozenset(m.index for m in self.members)

    def __contains__(self, ref: SubgroupRef) -> bool:
        return ref.index in self.member_indices

    def __len__(self):
        return len(self.members)

    def describe(self, lattice: SubgroupLattice) -> list[dict]:
        return [{"index": m.index, "order": m.order,
                 "generators": lattice.generator_string(m)} for m in self.members]


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    holds: bool
    witnesses: tuple[dict, ...] = ()
    detail: str = ""

    def to_json(self) -> dict:
        return {"condition": self.condition, "holds": self.holds,
                "witnesses": list(self.witnesses), "detail": self.detail}


class CollectionContext:
    """All collections, operators and condition checks for one (lattice, p)."""

    def __init__(self, lattice: SubgroupLattice, p: int):
        if lattice.group.order % p:
            raise PrimeDoesNotDivide(p, lattice.group.order)
        self.lattice = lattice
        self.p = p
        self._tilde: dict[int, int] = {}
        self._hat: dict[int, int] = {}
        self._collections: dict[str, Collection] = {}
        self._conditions: dict[str, ConditionReport] = {}
        self._principal: dict[int, bool] = {}
        # each check the tables module has run, keyed by its inputs; filled
        # and read by tables._once
        self.memo: dict = {}

    # ----- central-type elements -------------------------------------------

    @property
    def E0(self) -> frozenset[int]:
        """Element indices of order p lying in the center of some Sylow."""
        if not hasattr(self, "_E0"):
            lat = self.lattice
            orders = lat.group.element_orders
            out = set()
            for s in lat.sylow(self.p):
                for x in lat.members(lat.center(s)):
                    if orders[x] == self.p:
                        out.add(x)
            self._E0 = frozenset(out)
        return self._E0

    @property
    def E1(self) -> frozenset[int]:
        """Least superset of E0 closed under conjugation and under products of
        commuting pairs whose product has order exactly p. E0 is a union of
        conjugacy classes (the Sylows are conjugate), and closing a
        conjugation-invariant set under commuting products keeps it
        invariant, so the products alone reach E1."""
        if not hasattr(self, "_E1"):
            grp = self.lattice.group
            mul = grp.mul
            orders = grp.element_orders
            cur = set(self.E0)
            changed = True
            while changed:
                changed = False
                for x in list(cur):
                    for y in list(cur):
                        if mul[x][y] != mul[y][x]:
                            continue
                        z = mul[x][y]
                        if orders[z] == self.p and z not in cur:
                            cur.add(z)
                            changed = True
            self._E1 = frozenset(cur)
        return self._E1

    # ----- operators --------------------------------------------------------

    def tilde_of(self, ref: SubgroupRef) -> SubgroupRef:
        """Omega_1 Z(P) ∩ E1, together with the identity; always a subgroup."""
        if ref.index not in self._tilde:
            lat = self.lattice
            omega = lat.omega1_center(ref, self.p)
            bits = 1
            for x in lat.members(omega):
                if x in self.E1:
                    bits |= 1 << x
            sub = lat.by_bitset(bits)  # closed because E1 is commuting-closed
            self._tilde[ref.index] = sub.index
        return self.lattice.ref(self._tilde[ref.index])

    def hat_of(self, ref: SubgroupRef) -> SubgroupRef:
        """Subgroup generated by Omega_1 Z(P) ∩ E0."""
        if ref.index not in self._hat:
            lat = self.lattice
            omega = lat.omega1_center(ref, self.p)
            gens = [x for x in lat.members(omega) if x in self.E0]
            self._hat[ref.index] = lat.generated(gens).index
        return self.lattice.ref(self._hat[ref.index])

    # ----- membership predicates --------------------------------------------

    def is_p_radical(self, ref: SubgroupRef) -> bool:
        """P = O_p(N_G(P))."""
        lat = self.lattice
        return lat.p_core(lat.normalizer(ref), self.p).index == ref.index

    def is_p_centric(self, ref: SubgroupRef) -> bool:
        """Z(P) is a Sylow p-subgroup of C_G(P)."""
        lat = self.lattice
        zp = lat.center(ref)
        cg = lat.centralizer(ref)
        return zp.order == p_part(cg.order, self.p)

    def is_principal_p_radical(self, ref: SubgroupRef) -> bool:
        """p-centric with O_p(N_G(P) / P C_G(P)) trivial, that is with the
        preimage of that p-core equal to P C_G(P) = P v C_G(P)."""
        if ref.index not in self._principal:
            ok = self.is_p_centric(ref)
            if ok:
                lat = self.lattice
                pc = lat.generated(lat.generating_set(ref) + lat.generating_set(
                    lat.centralizer(ref)))
                ok = p_core_of_group(lat, lat.normalizer(ref), pc, self.p) == pc
            self._principal[ref.index] = ok
        return self._principal[ref.index]

    # ----- collections -------------------------------------------------------

    def collection(self, kind: str) -> Collection:
        if kind not in KINDS:
            raise ValueError(f"unknown collection kind {kind!r}; expected one of {KINDS}")
        if kind not in self._collections:
            self._collections[kind] = self._build(kind)
        return self._collections[kind]

    def _build(self, kind: str) -> Collection:
        lat = self.lattice
        if kind.startswith("tilde-"):
            base = self.collection(kind[len("tilde-"):])
            members = tuple(m for m in base.members if self.tilde_of(m).order > 1)
        elif kind.startswith("hat-"):
            base = self.collection(kind[len("hat-"):])
            members = tuple(m for m in base.members if self.hat_of(m).order > 1)
        else:
            members = tuple(m for m in lat.nontrivial_p_subgroups(self.p)
                            if self._base_member(kind, m))
        return Collection(kind=kind, prime=self.p, members=members)

    def _base_member(self, kind: str, m: SubgroupRef) -> bool:
        lat = self.lattice
        if kind == "S":
            return True
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
                    and all(x in self.E1 for x in lat.members(m) if x))
        raise InternalInconsistency(f"unknown collection kind {kind!r}")

    # ----- conditions ---------------------------------------------------------

    def condition(self, which: str) -> ConditionReport:
        if which not in CONDITIONS:
            raise ValueError(f"unknown condition {which!r}; expected one of {CONDITIONS}")
        if which not in self._conditions:
            self._conditions[which] = getattr(self, f"_condition_{which}")()
        return self._conditions[which]

    def _witness_subgroup(self, ref: SubgroupRef) -> dict:
        return {"index": ref.index, "order": ref.order,
                "generators": self.lattice.generator_string(ref)}

    def _witness_element(self, x: int) -> str:
        return self.lattice.group.elements[x].cycle_string()

    def _condition_M(self) -> ConditionReport:
        """Every distinguished p-subgroup's normalizer sits inside a p-local
        subgroup that contains a Sylow p-subgroup of G."""
        lat = self.lattice
        full_p = p_part(lat.group.order, self.p)
        hosts = [m for m in lat.p_locals(self.p) if p_part(m.order, self.p) == full_p]
        for P in self.collection("hat-S").members:
            n = lat.normalizer(P)
            if not any(lat.leq(n, m) for m in hosts):
                return ConditionReport(
                    "M", False, (self._witness_subgroup(P),),
                    "normalizer of the witness lies in no p-local subgroup "
                    "containing a Sylow p-subgroup")
        return ConditionReport("M", True, (),
                               f"checked {len(self.collection('hat-S'))} distinguished subgroups")

    def _condition_Cl(self) -> ConditionReport:
        """E0 is closed under products of commuting pairs (identity aside)."""
        grp = self.lattice.group
        mul = grp.mul
        e0 = sorted(self.E0)
        for x in e0:
            for y in e0:
                if y <= x or mul[x][y] != mul[y][x]:
                    continue
                z = mul[x][y]
                if z and z not in self.E0:
                    return ConditionReport(
                        "Cl", False,
                        ({"x": self._witness_element(x), "y": self._witness_element(y),
                          "xy": self._witness_element(z)},),
                        "commuting product of central-type elements leaves E0")
        return ConditionReport("Cl", True, (), f"E0 has {len(e0)} elements")

    def _condition_Ch(self) -> ConditionReport:
        """Local characteristic p: C_H(O_p(H)) <= O_p(H) for every p-local H."""
        lat = self.lattice
        for h in lat.p_locals(self.p):
            core = lat.p_core(h, self.p)
            ch = lat.centralizer(core).bitset & h.bitset
            if ch | core.bitset != core.bitset:
                return ConditionReport(
                    "Ch", False, (self._witness_subgroup(h),),
                    "centralizer of O_p escapes O_p in the witness p-local subgroup")
        return ConditionReport("Ch", True, (),
                               f"checked {len(lat.p_locals(self.p))} p-local subgroups")

    def equalities_under_Ch(self) -> dict:
        """Under local characteristic p, radicals, distinguished radicals and
        centric radicals coincide; returns the common member set, or the first
        subgroup separating two of the collections."""
        if not self.condition("Ch").holds:
            raise ConditionNotSatisfied(
                "the local characteristic p condition fails for this group")
        b = self.collection("B").member_indices
        bh = self.collection("hat-B").member_indices
        bc = self.collection("Bcen").member_indices
        if b == bh == bc:
            common = self.collection("B").describe(self.lattice)
            return {"equal": True, "common": common}
        sep = min((b | bh | bc) - (b & bh & bc))
        ref = self.lattice.ref(sep)
        return {"equal": False,
                "counterexample": {**self._witness_subgroup(ref),
                                   "in_B": sep in b, "in_hat_B": sep in bh,
                                   "in_Bcen": sep in bc}}


def collection_context(lattice: SubgroupLattice, p: int) -> CollectionContext:
    """The context for (lattice, p), shared while any caller holds it; held
    weakly, since a context refers to its lattice and a cycle outlives a run."""
    cache = lattice.__dict__.setdefault("_collection_contexts",
                                        WeakValueDictionary())
    ctx = cache.get(p)
    if ctx is None:
        ctx = cache[p] = CollectionContext(lattice, p)
    return ctx
