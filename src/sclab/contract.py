"""Machine-checkable contractibility certificates and three-valued verdicts.

A certificate records *why* a deformation works, in enough detail that a
later run can replay the pointwise checks instead of trusting the claim.
Verdicts are three-valued: CONTRACTIBLE requires a certificate that
re-verifies, NOT_CONTRACTIBLE requires a homology or connectivity witness,
and everything the bounded searches cannot settle stays UNKNOWN.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (ComparisonFails, InternalInconsistency,
                     MapNotWellDefined)
from .fundgroup import MAX_PASSES, MAX_TOTAL_LENGTH, fundamental_group_trivial
from .homology import HomologyProfile, homology
from .poset import DEFAULT_SIMPLEX_CAP, GPoset, OrderComplex, order_complex

COLLAPSE_CELL_CAP = 20_000

_DIRECTIONS = {"up": "up", "down": "down", "<=": "up", ">=": "down"}


def _json_label(x):
    if isinstance(x, tuple):
        return list(x)
    return x


def _json_pairs(pairs):
    return [[_json_label(a), _json_label(b)] for a, b in pairs]


def _sorted_pairs(mapping: dict) -> tuple:
    return tuple(sorted(mapping.items(), key=lambda kv: repr(kv[0])))


# --------------------------------------------------------------------------
# certificate types


@dataclass(frozen=True)
class ConePoint:
    """The poset has a unique maximum or minimum; the constant map to it
    contracts everything, equivariantly for any action leaving the poset
    invariant (automorphisms fix a unique extreme)."""

    apex: object
    end: str  # "max" or "min"

    def to_json(self):
        return {"kind": "cone", "apex": _json_label(self.apex), "end": self.end}


@dataclass(frozen=True)
class ConicalContraction:
    """A poset map f with x <= f(x) >= apex for all x (direction "up"),
    or dually x >= f(x) <= apex (direction "down")."""

    mapping: tuple  # ((x, f(x)), ...)
    apex: object
    direction: str

    def to_json(self):
        return {"kind": "conical", "apex": _json_label(self.apex),
                "direction": self.direction,
                "mapping": _json_pairs(self.mapping)}


@dataclass(frozen=True)
class MonotoneRetraction:
    """A poset endomorphism comparable with the identity whose image lands in
    a subposet; the subposet is then a deformation retract of the whole."""

    mapping: tuple
    side: str    # ">=" when f(x) >= x pointwise, "<=" for the dual
    target: tuple  # labels of the receiving subposet

    def to_json(self):
        return {"kind": "retraction", "side": self.side,
                "target": [_json_label(t) for t in self.target],
                "mapping": _json_pairs(self.mapping)}


@dataclass(frozen=True)
class Zigzag:
    """Maps f1..fn with pointwise comparisons chaining from the identity:
    comparisons[i] relates f_{i-1}(x) to f_i(x) for every x (f_0 = id).
    When the last map is constant this contracts the poset."""

    maps: tuple        # tuple of ((x, f(x)), ...) tuples
    comparisons: tuple

    def to_json(self):
        return {"kind": "zigzag", "comparisons": list(self.comparisons),
                "maps": [_json_pairs(m) for m in self.maps]}


@dataclass(frozen=True)
class CollapseSequence:
    """Elementary collapses (free face, unique cofacet) ending at one vertex."""

    steps: tuple  # ((face, cofacet), ...) as label tuples

    def to_json(self):
        return {"kind": "collapse",
                "steps": [[[_json_label(v) for v in s],
                           [_json_label(v) for v in t]] for s, t in self.steps]}


@dataclass(frozen=True)
class HomologyWitness:
    """Homology-level evidence: nontriviality or disconnection refutes
    contractibility; triviality plus a verified trivial fundamental group
    establishes it (simply connected and acyclic complexes are contractible)."""

    profile: HomologyProfile
    connected: bool
    pi1_trivial: bool | None = None

    def to_json(self):
        return {"kind": "homology", "profile": self.profile.to_json(),
                "connected": self.connected, "pi1_trivial": self.pi1_trivial}


@dataclass(frozen=True)
class FiberContractibility:
    """Per-element evidence for an inclusion X -> Y: for each y in Y (up to
    conjugacy) the fiber X_{<=y} is contractible equivariantly under the
    stabilizer of y."""

    per_element: tuple  # ((label, stabilizer_label, Verdict), ...)

    def to_json(self):
        return {"kind": "fibers",
                "per_element": [[_json_label(y), _json_label(s), v.to_json()]
                                for y, s, v in self.per_element]}


@dataclass(frozen=True)
class LinkContractibility:
    """Per-element evidence for pruning Y down to X: for each P in Y \\ X
    (up to conjugacy) the punctured interval Y_{>P} (side "upper") or
    Y_{<P} (side "lower") is contractible, equivariantly when demanded."""

    side: str
    equivariant: bool
    per_element: tuple  # ((label, Verdict), ...)

    def to_json(self):
        return {"kind": "links", "side": self.side,
                "equivariant": self.equivariant,
                "per_element": [[_json_label(p), v.to_json()]
                                for p, v in self.per_element]}


@dataclass(frozen=True)
class Verdict:
    status: str                 # CONTRACTIBLE | NOT_CONTRACTIBLE | UNKNOWN
    method: str
    certificate: object | None = None
    equivariant: bool | None = None
    detail: dict = field(default_factory=dict)

    def to_json(self):
        cert = self.certificate.to_json() if self.certificate is not None else None
        return {"status": self.status, "method": self.method,
                "equivariant": self.equivariant, "certificate": cert,
                "detail": self.detail}


CONTRACTIBLE = "CONTRACTIBLE"
NOT_CONTRACTIBLE = "NOT_CONTRACTIBLE"
UNKNOWN = "UNKNOWN"


# --------------------------------------------------------------------------
# pointwise checkers


def _as_mapping(poset: GPoset, f) -> dict:
    """Evaluate f on every element; any image outside the poset is an error
    regardless of strictness, because nothing downstream is meaningful."""
    out = {}
    for x in poset.labels:
        if callable(f):
            y = f(x)
        else:
            if x not in f:
                raise MapNotWellDefined(f"map undefined at {x!r}", element=x)
            y = f[x]
        if y is None or y not in poset:
            raise MapNotWellDefined(
                f"map sends {x!r} to {y!r}, outside the poset", element=x, image=y)
        out[x] = y
    return out


def _fail(strict: bool, message: str, element=None) -> bool:
    if strict:
        raise ComparisonFails(message, element=element)
    return False


def _check_monotone(poset: GPoset, fmap: dict, strict: bool) -> bool:
    for x in poset.labels:
        for y in poset.labels:
            if poset.leq(x, y) and not poset.leq(fmap[x], fmap[y]):
                return _fail(strict,
                             f"map is not order-preserving at {x!r} <= {y!r}",
                             element=(x, y))
    return True


def _check_pointwise(poset: GPoset, fa, fb: dict, op: str, strict: bool) -> bool:
    """fa may be None for the identity. op is "<=" or ">=" read left to right."""
    for x in poset.labels:
        a = x if fa is None else fa[x]
        b = fb[x]
        ok = poset.leq(a, b) if op == "<=" else poset.leq(b, a)
        if not ok:
            return _fail(strict, f"comparison {a!r} {op} {b!r} fails at {x!r}",
                         element=x)
    return True


def _check_equivariant(poset: GPoset, fmap: dict, gens, strict: bool) -> bool:
    if poset.lattice is None:
        raise ValueError("equivariance checks need a lattice-backed poset")
    for g in gens:
        for x in poset.labels:
            gx = poset.conjugate_label(g, x)
            if gx not in poset:
                return _fail(strict,
                             f"poset not invariant: {x!r} conjugates out", element=x)
            if poset.conjugate_label(g, fmap[x]) != fmap[gx]:
                return _fail(strict,
                             f"map does not commute with conjugation at {x!r}",
                             element=x)
    return True


def verify_conical_contraction(poset: GPoset, f, apex, direction: str,
                               equivariance_gens=None, strict: bool = False) -> bool:
    """Check that f contracts the poset conically onto apex.

    Direction "up" demands x <= f(x) >= apex for all x, "down" the dual.
    Ill-defined maps (image outside the poset, apex missing) always raise
    MapNotWellDefined; failed comparisons return False, or raise
    ComparisonFails when strict.
    """
    direction = _DIRECTIONS[direction]
    if poset.is_empty():
        raise MapNotWellDefined("empty poset admits no contraction")
    apex = poset._label_of(apex)
    if apex not in poset:
        raise MapNotWellDefined(f"apex {apex!r} is not in the poset", image=apex)
    fmap = _as_mapping(poset, f)
    if not _check_monotone(poset, fmap, strict):
        return False
    if direction == "up":
        if not _check_pointwise(poset, None, fmap, "<=", strict):
            return False
        for x in poset.labels:
            if not poset.leq(apex, fmap[x]):
                return _fail(strict, f"apex not below image of {x!r}", element=x)
    else:
        if not _check_pointwise(poset, None, fmap, ">=", strict):
            return False
        for x in poset.labels:
            if not poset.leq(fmap[x], apex):
                return _fail(strict, f"image of {x!r} not below apex", element=x)
    if equivariance_gens is not None:
        if not _check_equivariant(poset, fmap, equivariance_gens, strict):
            return False
    return True


def verify_monotone_retraction(poset: GPoset, f, side: str, target,
                               equivariance_gens=None, strict: bool = False) -> bool:
    """Check f: P -> P comparable with the identity with image inside target.

    side ">=" means f(x) >= x pointwise, "<=" the dual. target is a GPoset or
    an iterable of labels; it must be a subset of P containing the image.
    A passing check shows the target is a deformation retract of P.
    """
    if side not in ("<=", ">="):
        raise ValueError(f"side must be '<=' or '>=', got {side!r}")
    fmap = _as_mapping(poset, f)
    target_labels = set(target.labels) if isinstance(target, GPoset) else set(target)
    for t in target_labels:
        if t not in poset:
            raise MapNotWellDefined(f"target label {t!r} is not in the poset",
                                    image=t)
    if not _check_monotone(poset, fmap, strict):
        return False
    # side ">=" asserts id <= f pointwise, "<=" the reverse
    if not _check_pointwise(poset, None, fmap, "<=" if side == ">=" else ">=", strict):
        return False
    for x in poset.labels:
        if fmap[x] not in target_labels:
            return _fail(strict, f"image of {x!r} misses the target subposet",
                         element=x)
    if equivariance_gens is not None:
        if not _check_equivariant(poset, fmap, equivariance_gens, strict):
            return False
    return True


def verify_zigzag(poset: GPoset, maps, comparisons, equivariance_gens=None,
                  strict: bool = False, require_constant_end: bool = False) -> bool:
    """Check a chain of maps f1..fn against the identity.

    comparisons[i] ("<=" or ">=") must hold pointwise between f_{i-1}(x) and
    f_i(x), with f_0 the identity. An empty chain verifies on any nonempty
    poset. With require_constant_end the last map must be constant, which
    upgrades the chain to a contraction.
    """
    maps = list(maps)
    comparisons = list(comparisons)
    if len(maps) != len(comparisons):
        raise ValueError("need exactly one comparison per map")
    if poset.is_empty():
        return _fail(strict, "empty poset has no basepoint")
    prev = None
    fmaps = []
    for f, op in zip(maps, comparisons):
        if op not in ("<=", ">="):
            raise ValueError(f"comparison must be '<=' or '>=', got {op!r}")
        fmap = _as_mapping(poset, f)
        if not _check_monotone(poset, fmap, strict):
            return False
        if not _check_pointwise(poset, prev, fmap, op, strict):
            return False
        if equivariance_gens is not None:
            if not _check_equivariant(poset, fmap, equivariance_gens, strict):
                return False
        fmaps.append(fmap)
        prev = fmap
    if require_constant_end:
        if not fmaps:
            if len(poset) != 1:
                return _fail(strict, "empty chain only contracts a point")
        elif len(set(fmaps[-1].values())) != 1:
            return _fail(strict, "last map of the chain is not constant")
    return True


# --------------------------------------------------------------------------
# searches


def _lub_in_poset(poset: GPoset, a, b):
    ubs = [y for y in poset.labels if poset.leq(a, y) and poset.leq(b, y)]
    for y in ubs:
        if all(poset.leq(y, z) for z in ubs):
            return y
    return None


def _glb_in_poset(poset: GPoset, a, b):
    lbs = [y for y in poset.labels if poset.leq(y, a) and poset.leq(y, b)]
    for y in lbs:
        if all(poset.leq(z, y) for z in lbs):
            return y
    return None


def _closure_mapping(poset: GPoset, apex, direction: str):
    """f(x) = x v apex (up) or x ^ apex (down), or None when some image is
    missing from the poset. Lattice-backed posets take the subgroup join or
    intersection; abstract posets use bounds inside the poset itself."""
    out = {}
    for x in poset.labels:
        if poset.lattice is not None:
            y = (poset.join_in_lattice(x, apex) if direction == "up"
                 else poset.meet_in_lattice(x, apex))
        else:
            y = (_lub_in_poset(poset, x, apex) if direction == "up"
                 else _glb_in_poset(poset, x, apex))
        if y is None or y not in poset:
            return None
        out[x] = y
    return out


def search_conical_contraction(poset: GPoset, equivariance_gens=None,
                               extra_maps=()):
    """Look for a conical contraction among closure-type maps.

    Candidates are the explicitly supplied (f, apex, direction) triples,
    then f(x) = join(x, apex) and f(x) = meet(x, apex) over every apex.
    Returns (ConicalContraction, equivariant_flag) or None. When generators
    are supplied an equivariant certificate is preferred; the first plain
    one found is kept as fallback.
    """
    plain = None

    def attempt(f, apex, direction):
        nonlocal plain
        try:
            fmap = _as_mapping(poset, f)
        except MapNotWellDefined:
            return None
        if not verify_conical_contraction(poset, fmap, apex, direction):
            return None
        cert = ConicalContraction(_sorted_pairs(fmap), apex,
                                  _DIRECTIONS[direction])
        if equivariance_gens is None:
            return cert, None
        if _check_equivariant(poset, fmap, equivariance_gens, False):
            return cert, True
        if plain is None:
            plain = (cert, False)
        return None

    for f, apex, direction in extra_maps:
        if apex not in poset:
            continue
        hit = attempt(f, apex, direction)
        if hit:
            return hit
    for apex in poset.labels:
        for direction in ("up", "down"):
            fmap = _closure_mapping(poset, apex, direction)
            if fmap is None:
                continue
            hit = attempt(fmap, apex, direction)
            if hit:
                return hit
    return plain


def _cells_and_cofaces(complex_: OrderComplex):
    cells = set()
    for simps in complex_.simplices.values():
        cells.update(simps)
    cofaces: dict = {}
    for s in cells:
        if len(s) >= 2:
            for i in range(len(s)):
                f = s[:i] + s[i + 1:]
                if f not in cells:
                    raise InternalInconsistency(
                        "complex is not closed under faces")
                cofaces.setdefault(f, set()).add(s)
    return cells, cofaces


def greedy_collapse(complex_: OrderComplex):
    """Run elementary collapses until stuck; a CollapseSequence is returned
    only when a single vertex remains. Failure proves nothing (collapsing is
    order-sensitive), so the caller falls through to homology."""
    cells, cofaces = _cells_and_cofaces(complex_)
    if not cells:
        return None
    from collections import deque

    queue = deque(s for s in cells if len(cofaces.get(s, ())) == 1)
    steps = []
    while queue:
        s = queue.popleft()
        if s not in cells:
            continue
        live = cofaces.get(s, set())
        if len(live) != 1:
            continue
        t = next(iter(live))
        cells.discard(s)
        cells.discard(t)
        steps.append((s, t))
        for removed in (s, t):
            if len(removed) >= 2:
                for i in range(len(removed)):
                    f = removed[:i] + removed[i + 1:]
                    fc = cofaces.get(f)
                    if fc is not None:
                        fc.discard(removed)
                        if f in cells and len(fc) == 1:
                            queue.append(f)
    if len(cells) == 1 and len(next(iter(cells))) == 1:
        return CollapseSequence(tuple(steps))
    return None


def replay_collapse(complex_: OrderComplex, cert: CollapseSequence) -> bool:
    """Re-run a stored collapse sequence, checking freeness at every step."""
    cells, cofaces = _cells_and_cofaces(complex_)
    for s, t in cert.steps:
        s, t = tuple(s), tuple(t)
        if s not in cells or t not in cells:
            return False
        if cofaces.get(s, set()) != {t}:
            return False
        cells.discard(s)
        cells.discard(t)
        for removed in (s, t):
            if len(removed) >= 2:
                for i in range(len(removed)):
                    f = removed[:i] + removed[i + 1:]
                    fc = cofaces.get(f)
                    if fc is not None:
                        fc.discard(removed)
    return len(cells) == 1 and len(next(iter(cells))) == 1


def stabilizer_subgroup_reps(lattice, stab):
    """Subgroups of stab, one per conjugacy class under stab itself."""
    smembers = lattice.members(stab)
    seen = set()
    reps = []
    for r in lattice.subgroups:
        if r.bitset | stab.bitset != stab.bitset or r.index in seen:
            continue
        orbit = {lattice.by_bitset(lattice.conjugate_bitset(r.bitset, m)).index
                 for m in smembers}
        seen |= orbit
        reps.append(r)
    return reps


def fixed_point_contractibility_scan(poset: GPoset, stab,
                                     max_simplices: int = DEFAULT_SIMPLEX_CAP):
    """Settle equivariant contractibility through fixed points: a poset with
    an action of stab is stab-contractible exactly when every fixed subposet
    poset^K (K up to stab-conjugacy) is plainly contractible.

    Returns (overall, per) where overall is a verdict status and per lists
    [K_index, status] rows. None when the poset is not even stab-invariant.
    """
    lattice = poset.lattice
    if lattice is None:
        return None
    if not poset.is_invariant_under(lattice.generating_set(stab)):
        return None
    per = []
    overall = CONTRACTIBLE
    for k in stabilizer_subgroup_reps(lattice, stab):
        v = contractibility_verdict(poset.fixed_points(k),
                                    max_simplices=max_simplices)
        per.append([k.index, v.status])
        if v.status == NOT_CONTRACTIBLE:
            overall = NOT_CONTRACTIBLE
            break
        if v.status == UNKNOWN:
            overall = UNKNOWN
    return overall, per


# --------------------------------------------------------------------------
# the verdict pipeline


def _reduced_b0(profile: HomologyProfile) -> int:
    return profile.reduced_betti[0] if profile.reduced_betti else 0


def contractibility_verdict(obj, *, equivariance_gens=None, extra_maps=(),
                            max_simplices: int = DEFAULT_SIMPLEX_CAP,
                            collapse_limit: int = COLLAPSE_CELL_CAP,
                            pi1_passes: int = MAX_PASSES,
                            pi1_total: int = MAX_TOTAL_LENGTH) -> Verdict:
    """Decide contractibility of a poset or complex, in a fixed pipeline:

    empty, cone point, conical-contraction search, greedy collapse,
    homology refutation (disconnection or nontrivial groups), then trivial
    homology plus a verified trivial fundamental group. Anything the bounded
    steps cannot settle is UNKNOWN.

    equivariance_gens, when given, makes the verdict track whether the
    certificate is equivariant under conjugation by those generators; only
    cone and conical certificates can be, and the flag is False on the
    plain-only paths for a nontrivial generating set.
    """
    poset = obj if isinstance(obj, GPoset) else None
    gens = tuple(equivariance_gens) if equivariance_gens is not None else None

    def plain_eq():
        # collapse/homology certificates never witness equivariance themselves
        if gens is None:
            return None
        return True if not gens else False

    if poset is not None:
        if poset.is_empty():
            return Verdict(NOT_CONTRACTIBLE, "empty", None, None, {"size": 0})
        invariant = None
        if gens is not None:
            invariant = poset.is_invariant_under(gens)
        end = None
        apex = poset.unique_maximum()
        if apex is not None:
            end = "max"
        else:
            apex = poset.unique_minimum()
            if apex is not None:
                end = "min"
        if end is not None:
            return Verdict(CONTRACTIBLE, "cone", ConePoint(apex, end),
                           invariant, {"apex": _json_label(apex)})
        hit = search_conical_contraction(poset, gens, extra_maps)
        if hit is not None:
            cert, eq = hit
            return Verdict(CONTRACTIBLE, "conical", cert, eq,
                           {"apex": _json_label(cert.apex),
                            "direction": cert.direction})
        complex_ = order_complex(poset, max_simplices)
    else:
        complex_ = obj
        if complex_.is_empty():
            return Verdict(NOT_CONTRACTIBLE, "empty", None, None, {"size": 0})

    if complex_.size() <= collapse_limit:
        seq = greedy_collapse(complex_)
        if seq is not None:
            return Verdict(CONTRACTIBLE, "collapse", seq, plain_eq(),
                           {"steps": len(seq.steps)})

    profile = homology(complex_)
    connected = _reduced_b0(profile) == 0
    if not connected:
        return Verdict(NOT_CONTRACTIBLE, "disconnected",
                       HomologyWitness(profile, False), None,
                       {"components": _reduced_b0(profile) + 1})
    if not profile.trivial:
        return Verdict(NOT_CONTRACTIBLE, "homology",
                       HomologyWitness(profile, True), None,
                       {"profile": profile.to_json()})

    pi1 = fundamental_group_trivial(complex_, pi1_passes, pi1_total)
    if pi1:
        return Verdict(CONTRACTIBLE, "pi1",
                       HomologyWitness(profile, True, True), plain_eq(),
                       {"profile": profile.to_json()})
    return Verdict(UNKNOWN, "undetermined", None, None,
                   {"profile": profile.to_json(), "pi1_trivial": None})


def verify_certificate(obj, verdict: Verdict, equivariance_gens=None) -> bool:
    """Replay the evidence behind a verdict. CONTRACTIBLE certificates are
    re-verified pointwise; NOT_CONTRACTIBLE witnesses are recomputed. UNKNOWN
    carries nothing to check and verifies vacuously."""
    if verdict.status == UNKNOWN:
        return True
    poset = obj if isinstance(obj, GPoset) else None
    cert = verdict.certificate
    gens = equivariance_gens if verdict.equivariant else None

    if verdict.method == "fixed-point-scan":
        # equivariance settled through fixed subposets; replay the scan, then
        # (for the contractible case) the plain certificate without gens
        if poset is None or poset.lattice is None:
            return False
        stab = poset.lattice.ref(verdict.detail["stabilizer"])
        scan = fixed_point_contractibility_scan(poset, stab)
        if scan is None or scan[0] != verdict.status:
            return False
        if verdict.status == NOT_CONTRACTIBLE:
            return True
        gens = None

    if verdict.status == NOT_CONTRACTIBLE:
        if verdict.method == "empty":
            return (poset.is_empty() if poset is not None else obj.is_empty())
        complex_ = order_complex(poset) if poset is not None else obj
        profile = homology(complex_)
        if verdict.method == "disconnected":
            return _reduced_b0(profile) > 0
        return not profile.trivial

    if isinstance(cert, ConePoint):
        if poset is None:
            return False
        found = (poset.unique_maximum() if cert.end == "max"
                 else poset.unique_minimum())
        return found == cert.apex
    if isinstance(cert, ConicalContraction):
        if poset is None:
            return False
        try:
            return verify_conical_contraction(poset, dict(cert.mapping),
                                              cert.apex, cert.direction, gens)
        except MapNotWellDefined:
            return False
    if isinstance(cert, Zigzag):
        if poset is None:
            return False
        try:
            return verify_zigzag(poset, [dict(m) for m in cert.maps],
                                 cert.comparisons, gens,
                                 require_constant_end=True)
        except MapNotWellDefined:
            return False
    if isinstance(cert, CollapseSequence):
        complex_ = order_complex(poset) if poset is not None else obj
        return replay_collapse(complex_, cert)
    if isinstance(cert, HomologyWitness):
        complex_ = order_complex(poset) if poset is not None else obj
        profile = homology(complex_)
        return profile.trivial and bool(fundamental_group_trivial(complex_))
    return False
