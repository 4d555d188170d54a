"""Equivalence checkers for nested subgroup posets and fixed-point avatars.

Two instruments. verify_inclusion_equivalence certifies that an inclusion of
posets induces a homotopy equivalence, by checking the contractibility
hypothesis the relevant comparison theorem puts on fibers or punctured
intervals, element by element. fixed_point_equivalence_scan compares two
designated subposets for a list of subgroups H and grades each comparison
CERTIFIED, HOMOLOGY-CONSISTENT, or MISMATCH.
"""

from __future__ import annotations

from typing import NamedTuple

from .contract import (CONTRACTIBLE, NOT_CONTRACTIBLE, UNKNOWN,
                       MonotoneRetraction, beat_core, contractibility_verdict)
from .errors import NotASubposet
from .group import positions
from .homology import homology
from .poset import DEFAULT_SIMPLEX_CAP, GPoset, order_complex

MODES = ("fibers", "upper", "lower")

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

CERTIFIED = "CERTIFIED"
HOMOLOGY_CONSISTENT = "HOMOLOGY-CONSISTENT"
MISMATCH = "MISMATCH"


def _check_subposet(sub: GPoset, ambient: GPoset) -> None:
    if sub.order is not ambient.order:
        raise NotASubposet(
            "order disagrees: sub and ambient do not share one order")
    missing = list(positions(sub.mask & ~ambient.mask))
    if missing:
        raise NotASubposet(
            f"positions {missing[:5]!r} are not in the ambient poset")


def _pool(ambient: GPoset, sub: GPoset) -> list:
    """The positions of ambient outside sub, one per conjugacy orbit when both
    posets are invariant, all of them otherwise."""
    outside = ambient.mask & ~sub.mask
    lat = ambient.lattice
    if lat is not None and (lat.is_class_union(ambient.mask)
                            and lat.is_class_union(sub.mask)):
        outside = lat.first_of_each_class(outside)
    return list(positions(outside))


class InclusionResult(NamedTuple):
    mode: str
    outcome: str                # PASS | FAIL | INCONCLUSIVE
    per_element: tuple          # ((position, stabilizer_index | None, Verdict), ...)
    witnesses: tuple            # positions whose hypothesis check did not certify

    def to_json(self):
        return {"mode": self.mode, "outcome": self.outcome,
                "witnesses": list(self.witnesses),
                "per_element": [[y, s, v.to_json()]
                                for y, s, v in self.per_element]}


def inclusion_outcome(per_element, equivariant: bool) -> tuple:
    """(outcome, witnesses) of the verdicts of an inclusion check: FAIL with
    the positions whose hypothesis poset is NOT_CONTRACTIBLE, else
    INCONCLUSIVE with those left UNKNOWN, or (when equivariant) certified
    without equivariance, else PASS."""
    failing = tuple(y for y, _, v in per_element
                    if v.status == NOT_CONTRACTIBLE)
    if failing:
        return FAIL, failing
    undecided = tuple(y for y, _, v in per_element if v.status == UNKNOWN
                      or equivariant and not v.equivariant)
    return (INCONCLUSIVE, undecided) if undecided else (PASS, ())


def verify_inclusion_equivalence(sub: GPoset, ambient: GPoset, mode: str, *,
                                 equivariant: bool,
                                 max_simplices: int = DEFAULT_SIMPLEX_CAP
                                 ) -> InclusionResult:
    """Certify that sub -> ambient induces a homotopy equivalence.

    mode picks the hypothesis: "fibers" checks the fibers sub_{<=y},
    "upper" / "lower" the punctured intervals ambient_{>y} / ambient_{<y}.
    Every mode checks y in ambient outside sub only: for y in sub the fiber
    sub_{<=y} has the N_G(y)-fixed maximum y, so it is an equivariant cone,
    and Quillen's fiber lemma (Adv. Math. 28, 1978, Prop. 1.6) asks nothing
    more of it. equivariant demands each verdict be equivariant under the
    stabilizer N_G(y). An equivariant verdict comes only from an orbit-wise
    core reduction, which is also a plain one (Stong, Discrete Math. 49,
    1984), so the statuses of a demanding check settle the plain claim too;
    a pi1 certificate leaves a demanded element undecided.

    Aggregation as in inclusion_outcome.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    _check_subposet(sub, ambient)
    lat = ambient.lattice
    if equivariant and lat is None:
        raise ValueError("an equivariant check needs a lattice-backed poset")

    per = []
    for y in _pool(ambient, sub):
        if mode == "fibers":
            interval = sub.below(y)
        elif mode == "lower":
            interval = ambient.below(y, strict=True)
        else:
            interval = ambient.above(y, strict=True)
        stab = lat.normalizer(y) if equivariant else None
        per.append((y, stab, contractibility_verdict(
            interval, equivariant_under=stab, max_simplices=max_simplices)))
    outcome, witnesses = inclusion_outcome(per, equivariant)
    return InclusionResult(mode, outcome, tuple(per), witnesses)


# --------------------------------------------------------------------------
# fixed-point avatar comparisons


class FixedPointComparison(NamedTuple):
    subgroup: int
    order: int
    status: str          # CERTIFIED | HOMOLOGY-CONSISTENT | MISMATCH
    method: str
    certificate: object | None
    detail: dict

    def to_json(self):
        cert = self.certificate.to_json() if self.certificate is not None else None
        return {"subgroup": self.subgroup, "order": self.order,
                "status": self.status, "method": self.method,
                "certificate": cert, "detail": self.detail}


class FixedPointScan(NamedTuple):
    per_subgroup: tuple

    @property
    def status(self) -> str:
        statuses = {c.status for c in self.per_subgroup}
        if MISMATCH in statuses:
            return MISMATCH
        if HOMOLOGY_CONSISTENT in statuses:
            return HOMOLOGY_CONSISTENT
        return CERTIFIED

    def to_json(self):
        return {"status": self.status,
                "per_subgroup": [c.to_json() for c in self.per_subgroup]}


def _profile_of(poset: GPoset, max_simplices: int):
    return homology(order_complex(beat_core(poset), max_simplices))


def _lattice_retraction(right: GPoset, left: int, side: str, k) -> int | None:
    """The mask of images of q -> q v K (side ">=") or q -> q ^ K (side
    "<=") over the positions q of right, or None as soon as one image falls
    outside the mask left. Subgroups sort by order, so the join is the
    lowest common upper bound and the meet the highest common lower bound.
    A join or meet with a fixed element is monotone and comparable with the
    identity, and fixes the positions already above (below) K.

    The image of any other q is the lowest (highest) position of the bound
    above (below) q, so the positions of the bound are walked upwards
    (downwards), each taking the remaining positions below (above) it."""
    if right.lattice is None:
        raise ValueError("a lattice retraction needs a lattice-backed poset")
    if side not in ("<=", ">="):
        raise ValueError(f"side must be '<=' or '>=', got {side!r}")
    up, down = right.order.up, right.order.down
    masks, takes = (up, down) if side == ">=" else (down, up)
    bound = masks[k] | 1 << k
    image = right.mask & bound
    if image & ~left:
        return None
    rest = right.mask & ~bound
    while rest:  # the top (bottom) of the lattice takes every q left
        j = (bound & -bound if side == ">=" else bound).bit_length() - 1
        bound ^= 1 << j
        taken = rest & takes[j]
        if taken:
            if not left >> j & 1:
                return None
            image |= 1 << j
            rest &= ~taken
    return image


def _compare_pair(h: int, left: GPoset, right: GPoset, retraction,
                  max_simplices: int):
    """(status, method, certificate, detail) of one scan row."""
    _check_subposet(left, right)
    if left.mask == right.mask:
        return CERTIFIED, "equal", None, {"size": len(left)}
    if left.is_empty() != right.is_empty():
        sizes = {"left": len(left), "right": len(right)}
        return MISMATCH, "emptiness", None, sizes
    if retraction is not None:
        side, k = retraction(h)
        image = _lattice_retraction(right, left.mask, side, k)
        if image is not None:
            return (CERTIFIED, "retraction", MonotoneRetraction(side, k),
                    {"image": image.bit_count()})
    vl = contractibility_verdict(left, max_simplices=max_simplices)
    vr = contractibility_verdict(right, max_simplices=max_simplices)
    if vl.status == CONTRACTIBLE and vr.status == CONTRACTIBLE:
        return (CERTIFIED, "both-contractible", None,
                {"left": vl.method, "right": vr.method})
    statuses = {vl.status, vr.status}
    if statuses == {CONTRACTIBLE, NOT_CONTRACTIBLE}:
        return (MISMATCH, "contractibility", None,
                {"left": vl.status, "right": vr.status})
    pl = _profile_of(left, max_simplices)
    pr = _profile_of(right, max_simplices)
    detail = {"left": pl.to_json(), "right": pr.to_json()}
    return (HOMOLOGY_CONSISTENT if pl == pr else MISMATCH, "homology", None,
            detail)


def fixed_point_equivalence_scan(lattice, subgroups, left_of, right_of, *,
                                 retraction=None,
                                 max_simplices: int = DEFAULT_SIMPLEX_CAP
                                 ) -> FixedPointScan:
    """Compare designated avatar posets over a list of subgroups, given by
    their indices in lattice.

    left_of(h) must be a subposet of right_of(h). Grading per h: equal
    masks, a retraction landing in the left poset, or both posets contractible
    give CERTIFIED; failing that, equal homology profiles give
    HOMOLOGY-CONSISTENT, anything else MISMATCH. retraction(h) returns
    (side, K) and names the map q -> q v K (side ">=") or q -> q ^ K
    (side "<=") on the right poset, which must be lattice-backed.
    """
    return FixedPointScan(tuple(
        FixedPointComparison(h, lattice.sizes[h], *_compare_pair(
            h, left_of(h), right_of(h), retraction, max_simplices))
        for h in subgroups))
