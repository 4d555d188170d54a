"""Machine-checkable contractibility certificates and three-valued verdicts.

A certificate records *why* a deformation works, in enough detail that a
later run can replay the pointwise checks instead of trusting the claim.
Verdicts are three-valued: CONTRACTIBLE requires a certificate that
re-verifies, NOT_CONTRACTIBLE requires a homology or connectivity witness,
and everything the bounded searches cannot settle stays UNKNOWN.

Contractibility is decided on the poset itself first. A finite poset is
contractible exactly when its beat-point core is a single point, and the
core does not depend on the order of removal (R. E. Stong, "Finite
topological spaces", Trans. AMS 123, 1966). Removing whole orbits of beat
points takes a contractible finite G-poset to a G-fixed point, so the same
certificate is equivariant (Stong, "Group actions on finite spaces",
Discrete Math. 49, 1984).
"""

from __future__ import annotations

from typing import NamedTuple

from .fundgroup import fundamental_group_trivial
from .group import positions
from .homology import HomologyProfile, homology
from .poset import DEFAULT_SIMPLEX_CAP, GPoset, order_complex


# --------------------------------------------------------------------------
# certificate types


class CoreReduction(NamedTuple):
    """Beat points removed step by step until only point is left. A step is
    one position, or one whole orbit when the reduction is equivariant; each
    removal is a strong deformation retraction, so the poset contracts."""

    steps: tuple  # ((position, ...), ...)
    point: int

    def to_json(self):
        return {"kind": "core", "point": self.point,
                "steps": list(map(list, self.steps))}


class MonotoneRetraction(NamedTuple):
    """The map q -> q v K (side ">=") or q -> q ^ K (side "<=") on a subgroup
    poset, named by its side and the lattice index of K. A join or meet with
    a fixed subgroup is monotone and comparable with the identity, so a
    subposet holding every image is a deformation retract of the whole."""

    side: str
    subgroup: int

    def to_json(self):
        return {"kind": "retraction", "side": self.side,
                "subgroup": self.subgroup}


class HomologyWitness(NamedTuple):
    """Homology-level evidence: nontriviality or disconnection refutes
    contractibility; triviality plus a verified trivial fundamental group
    establishes it (simply connected and acyclic complexes are contractible);
    triviality alone, with pi1_trivial None, is what an UNKNOWN verdict
    found."""

    profile: HomologyProfile
    connected: bool
    pi1_trivial: bool | None = None

    def to_json(self):
        return {"kind": "homology", "profile": self.profile.to_json(),
                "connected": self.connected, "pi1_trivial": self.pi1_trivial}


class Verdict(NamedTuple):
    status: str                 # CONTRACTIBLE | NOT_CONTRACTIBLE | UNKNOWN
    method: str
    certificate: object | None
    equivariant: bool | None

    def to_json(self):
        cert = self.certificate.to_json() if self.certificate is not None else None
        return {"status": self.status, "method": self.method,
                "equivariant": self.equivariant, "certificate": cert}


CONTRACTIBLE = "CONTRACTIBLE"
NOT_CONTRACTIBLE = "NOT_CONTRACTIBLE"
UNKNOWN = "UNKNOWN"


# --------------------------------------------------------------------------
# beat-point core reduction
#
# Positions follow the poset's order, a linear extension; a set of positions
# is a bitmask, so a beat-point test is a few bit operations.


def _is_beat(i: int, alive: int, down, up) -> bool:
    """Position i is a beat point of the subposet alive: its strict down-set
    has a maximum or its strict up-set a minimum. Positions follow a linear
    extension, so the only candidates are the highest position of the
    down-set and the lowest of the up-set."""
    below = down[i] & alive
    top = below.bit_length() - 1
    if below and below & ~down[top] == 1 << top:
        return True
    above = up[i] & alive
    bottom = (above & -above).bit_length() - 1
    return bool(above) and above & ~up[bottom] == 1 << bottom


def core_reduction(poset: GPoset, orbit=None) -> CoreReduction | int | None:
    """Remove the lowest beat point until none is left; when orbit is given
    (the masks of `GPoset.orbits`), remove the beat point's whole orbit
    instead (an orbit of beat points is an antichain of beat points).
    Returns the removals when a single point remains, the mask of
    the core when more than one point is left, and None when the poset is
    empty.

    A removal changes the beat status only of the points comparable to it,
    so the mask of current beat points is rechecked there alone."""
    if poset.is_empty():
        return None
    down, up = poset.order.down, poset.order.up
    alive = near = poset.mask
    beats, steps = 0, []
    while True:
        for j in positions(near):
            if _is_beat(j, alive, down, up):
                beats |= 1 << j
        if not alive & (alive - 1):
            return CoreReduction(tuple(steps), alive.bit_length() - 1)
        if not beats:
            return alive
        low = beats & -beats
        step = orbit[low.bit_length() - 1] if orbit is not None else low
        steps.append(tuple(positions(step)))
        alive &= ~step
        near = 0
        for j in positions(step):
            near |= down[j] | up[j]
        near &= alive
        beats &= alive & ~near


def _replay_core(poset: GPoset, cert: CoreReduction, h) -> bool:
    """Every position must be a beat point when it is removed, each step must
    be exactly one orbit of h when h is given, and exactly cert.point
    remains; a position that is not an int, or lies outside the poset, fails."""
    down, up = poset.order.down, poset.order.up
    orbit = poset.orbits(h) if h is not None else None
    if h is not None and orbit is None:
        return False
    alive = poset.mask
    for step in cert.steps:
        if not step:
            return False
        mask = 0
        for i in step:
            if (type(i) is not int or i < 0 or not alive >> i & 1
                    or not _is_beat(i, alive, down, up)):
                return False
            alive &= ~(1 << i)
            mask |= 1 << i
        if orbit is not None and orbit[i] != mask:
            return False
    return (type(cert.point) is int and alive.bit_count() == 1
            and alive.bit_length() - 1 == cert.point)


def beat_core(poset: GPoset) -> GPoset:
    """The beat-point core as a subposet of poset: one point when poset is
    contractible. Each removal is a strong deformation retraction, so the
    core's nerve has the homology and fundamental group of the poset's."""
    core = core_reduction(poset)
    if isinstance(core, CoreReduction):
        core = 1 << core.point
    return GPoset(poset.order, core or 0, poset.lattice, poset.name)


# --------------------------------------------------------------------------
# the verdict pipeline


def _reduced_b0(profile: HomologyProfile) -> int:
    return profile.reduced_betti[0] if profile.reduced_betti else 0


def contractibility_verdict(poset: GPoset, *, equivariant_under=None,
                            max_simplices: int = DEFAULT_SIMPLEX_CAP) -> Verdict:
    """Decide contractibility of a poset, in a fixed pipeline:

    empty, beat-point core reduction, homology refutation (disconnection or
    nontrivial groups), then trivial homology plus a verified trivial
    fundamental group. Anything the bounded steps cannot settle is UNKNOWN.

    equivariant_under, the lattice index of a subgroup, makes the verdict
    track whether the certificate is equivariant under conjugation by it. A
    core reduction is, exactly when the poset is invariant under it; a pi1
    certificate only is for the trivial subgroup.
    """
    if poset.is_empty():
        return Verdict(NOT_CONTRACTIBLE, "empty", None, None)
    h = equivariant_under
    orbit = None if h is None else poset.orbits(h)
    invariant = None if h is None else orbit is not None
    core = core_reduction(poset, orbit)
    if isinstance(core, CoreReduction):
        return Verdict(CONTRACTIBLE, "core", core, invariant)

    # the core has the poset's homology and fundamental group
    complex_ = order_complex(GPoset(poset.order, core, poset.lattice,
                                    poset.name), max_simplices)
    profile = homology(complex_)
    if _reduced_b0(profile):
        return Verdict(NOT_CONTRACTIBLE, "disconnected",
                       HomologyWitness(profile, False), None)
    if not profile.trivial:
        return Verdict(NOT_CONTRACTIBLE, "homology",
                       HomologyWitness(profile, True), None)
    if fundamental_group_trivial(complex_):
        # a homology witness says nothing about equivariance itself
        return Verdict(CONTRACTIBLE, "pi1",
                       HomologyWitness(profile, True, True),
                       None if h is None else h == poset.lattice.trivial)
    return Verdict(UNKNOWN, "undetermined", HomologyWitness(profile, True),
                   None)


def verify_certificate(poset: GPoset, verdict: Verdict,
                       equivariant_under=None) -> bool:
    """Replay the evidence behind a verdict. CONTRACTIBLE certificates are
    re-verified step by step, orbit-wise under the subgroup equivariant_under
    when the verdict claims equivariance; NOT_CONTRACTIBLE witnesses are
    recomputed. UNKNOWN claims nothing and verifies vacuously."""
    if verdict.status == UNKNOWN:
        return True
    cert = verdict.certificate
    h = equivariant_under if verdict.equivariant else None

    if verdict.status == NOT_CONTRACTIBLE:
        if verdict.method == "empty":
            return poset.is_empty()
        profile = homology(order_complex(beat_core(poset)))
        if verdict.method == "disconnected":
            return _reduced_b0(profile) > 0
        return not profile.trivial

    if isinstance(cert, CoreReduction):
        return _replay_core(poset, cert, h)
    if isinstance(cert, HomologyWitness):
        complex_ = order_complex(beat_core(poset))
        return (homology(complex_).trivial
                and bool(fundamental_group_trivial(complex_)))
    return False
