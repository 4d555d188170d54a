"""Edge-by-edge verification of the two collection-comparison tables.

Each table is a 3 x k grid of collections: rows EO (subgroup-restriction
functor), C (the bare nerve), EA (centralizer-restriction functor); columns
are collections ordered by inclusion. Edges carry a claim strength: solid
(an equivalence of the row's functors, equivariant on the C row, certified
by fiber or pruning hypotheses), dashed (equivalence after restricting to
subgroups of a Sylow group, certified per subgroup), dotted (plain homotopy
equivalence; checked as homology agreement at the trivial subgroup, and
known to be non-upgradable by documented counterexamples on the dihedral
group of order 8, which are reproduced).
"""

from __future__ import annotations

from typing import NamedTuple

from .collections import collection_context
from .contract import CONTRACTIBLE, beat_core, contractibility_verdict
from .equivalence import (CERTIFIED, FAIL, HOMOLOGY_CONSISTENT, INCONCLUSIVE,
                          MISMATCH, PASS, fixed_point_equivalence_scan,
                          inclusion_outcome, verify_inclusion_equivalence)
from .errors import InternalInconsistency
from .group import positions
from .homology import homology
from .poset import DEFAULT_SIMPLEX_CAP, GPoset, order_complex

SKIPPED = "SKIPPED"

TABLE31 = "table31"
TABLE44 = "table44"


class EdgeSpec(NamedTuple):
    table: str
    row: str             # EO | C | EA for horizontals, EO|C | C|EA for verticals
    kinds: tuple         # two endpoint kinds, or one kind for a vertical edge
    style: str           # solid | dashed | dotted
    checker: str         # a key of _CHECKERS
    conditions: tuple = ()
    counterexample: tuple = ()   # (subgroup_token, left_expectation, right_expectation)

    @property
    def edge_id(self) -> str:
        return f"{self.table}:{self.row}:{'--'.join(self.kinds)}"


class EdgeResult(NamedTuple):
    spec: EdgeSpec
    status: str          # CERTIFIED | HOMOLOGY-CONSISTENT | MISMATCH | INCONCLUSIVE | SKIPPED
    detail: dict

    def to_json(self):
        """A copy of detail, so a report that numbers its evidence leaves
        this result as it was; the values are the same shared objects."""
        return {"edge": self.spec.edge_id, "table": self.spec.table,
                "row": self.spec.row, "kinds": list(self.spec.kinds),
                "style": self.spec.style,
                "conditions": list(self.spec.conditions),
                "status": self.status, "detail": dict(self.detail)}


TABLE31_EDGES = (
    EdgeSpec(TABLE31, "EO", ("E", "tilde-A"), "dotted", "h1",
             counterexample=("V4", "empty", "point")),
    EdgeSpec(TABLE31, "EO", ("tilde-A", "tilde-S"), "dotted", "h1",
             counterexample=("Z4", "empty", "contractible")),
    EdgeSpec(TABLE31, "EO", ("tilde-S", "tilde-B"), "solid", "prune"),
    EdgeSpec(TABLE31, "C", ("E", "tilde-A"), "solid", "fibers"),
    EdgeSpec(TABLE31, "C", ("tilde-A", "tilde-S"), "solid", "fibers"),
    EdgeSpec(TABLE31, "C", ("tilde-S", "tilde-B"), "solid", "prune"),
    EdgeSpec(TABLE31, "EA", ("E", "tilde-A"), "solid", "lower"),
    EdgeSpec(TABLE31, "EA", ("tilde-A", "tilde-S"), "solid", "fibers-by-centralizer"),
    EdgeSpec(TABLE31, "EA", ("tilde-S", "tilde-B"), "dotted", "h1",
             counterexample=("V4", "edge", "empty")),
    EdgeSpec(TABLE31, "EO|C", ("E",), "dotted", "h1"),
    EdgeSpec(TABLE31, "EO|C", ("tilde-A",), "dotted", "h1"),
    EdgeSpec(TABLE31, "EO|C", ("tilde-S",), "dashed", "eo-scan"),
    EdgeSpec(TABLE31, "EO|C", ("tilde-B",), "dashed", "eo-scan"),
    EdgeSpec(TABLE31, "C|EA", ("E",), "dashed", "ea-scan"),
    EdgeSpec(TABLE31, "C|EA", ("tilde-A",), "dashed", "ea-scan"),
    EdgeSpec(TABLE31, "C|EA", ("tilde-S",), "dashed", "ea-scan"),
    EdgeSpec(TABLE31, "C|EA", ("tilde-B",), "dotted", "h1"),
)

TABLE44_EDGES = (
    EdgeSpec(TABLE44, "EO", ("hat-A", "hat-S"), "dotted", "h1",
             counterexample=("Z4", "empty", "contractible")),
    EdgeSpec(TABLE44, "EO", ("hat-S", "hat-B"), "solid", "prune",
             conditions=("Cl", "Ch", "M")),
    EdgeSpec(TABLE44, "C", ("hat-A", "hat-S"), "solid", "fibers"),
    EdgeSpec(TABLE44, "C", ("hat-S", "hat-B"), "solid", "prune",
             conditions=("Cl", "Ch", "M")),
    EdgeSpec(TABLE44, "EA", ("hat-A", "hat-S"), "solid", "fibers-by-centralizer"),
    EdgeSpec(TABLE44, "EA", ("hat-S", "hat-B"), "dotted", "h1",
             counterexample=("V4", "edge", "empty")),
    EdgeSpec(TABLE44, "EO|C", ("hat-A",), "dotted", "h1",
             counterexample=("Z4", "empty", "contractible")),
    EdgeSpec(TABLE44, "EO|C", ("hat-S",), "dashed", "eo-scan",
             conditions=("Cl", "Ch")),
    EdgeSpec(TABLE44, "EO|C", ("hat-B",), "dashed", "eo-scan",
             conditions=("Cl", "Ch")),
    EdgeSpec(TABLE44, "C|EA", ("hat-A",), "dashed", "ea-scan",
             conditions=("Cl", "Ch")),
    EdgeSpec(TABLE44, "C|EA", ("hat-S",), "dashed", "ea-scan",
             conditions=("Cl", "Ch")),
    EdgeSpec(TABLE44, "C|EA", ("hat-B",), "dotted", "h1",
             counterexample=("Z4", "empty", "point")),
)


def table_edges(table: str) -> tuple:
    if table == TABLE31:
        return TABLE31_EDGES
    if table == TABLE44:
        return TABLE44_EDGES
    raise ValueError(f"unknown table {table!r}")


# --------------------------------------------------------------------------
# avatar plumbing


def _cut(lat, row, h):
    """The side of the subgroup K that an avatar at h keeps on row: the EO
    rows keep the subgroups above K = h, the EA rows those below K = C_G(h).
    The same (side, K) names the retraction q -> q v K or q -> q ^ K of the
    h-fixed poset onto that side; H normalizes every q of that poset, so qH
    is the join q v H."""
    if row in ("EO", "EO|C"):
        return ">=", h
    if row in ("EA", "C|EA"):
        return "<=", lat.centralizer(h)
    raise ValueError(f"row {row!r} has no avatar cut")


def _keep(poset, side, k):
    return poset.above(k) if side == ">=" else poset.below(k)


def _avatars(ctx, spec, h):
    """The two posets an edge compares at the subgroup h: both kinds cut on
    a row, the cut against the h-fixed poset between rows."""
    cut = _cut(ctx.lattice, spec.row, h)
    if len(spec.kinds) == 2:
        return tuple(_keep(ctx.collection(k), *cut) for k in spec.kinds)
    poset = ctx.collection(spec.kinds[0])
    return _keep(poset, *cut), poset.fixed_points(h)


def is_dihedral8(group) -> bool:
    return (group.order == 8
            and sum(1 for o in group.element_orders if o == 2) == 5)


def _d8_subgroup(lat, token):
    for r, n in enumerate(lat.sizes):
        if n == 4 and lat.is_elementary_abelian(r, 2) == (token == "V4"):
            return r
    raise InternalInconsistency(f"no subgroup for token {token!r}")


def _expectation_holds(poset: GPoset, token: str, max_simplices: int):
    observed = {"size": len(poset)}
    if token == "empty":
        ok = poset.is_empty()
    elif token == "point":
        ok = len(poset) == 1
    elif token == "edge":
        counts = order_complex(poset, max_simplices).counts()
        observed["counts"] = list(counts)
        ok = counts == (2, 1)
    elif token == "contractible":
        verdict = contractibility_verdict(poset, max_simplices=max_simplices)
        observed["verdict"] = verdict.status
        ok = verdict.status == CONTRACTIBLE
    else:
        raise ValueError(f"unknown expectation {token!r}")
    return ok, observed


# --------------------------------------------------------------------------
# edge checkers


def _squash(outcome: str) -> str:
    return {PASS: CERTIFIED, FAIL: MISMATCH, INCONCLUSIVE: INCONCLUSIVE}[outcome]


def _once(ctx, key, compute):
    """compute() once per (lattice, p): ctx.memo keeps each result of the
    tables and the counterexample suite under its inputs, so the hat columns
    reuse whatever the tilde columns already checked. Keys are

        (poset mask, cap)                                 nerve homology
        (sub mask, ambient mask, mode, equivariant, cap)  inclusion checks
        (checker, poset mask, Sylow index, cap)           dashed scans
        ("json", key)                                     what _cited built
        ("per_centralizer", row, left mask, right mask, cap)
                                                          _by_centralizer rows

    with masks over the lattice's one order. A SizeCap propagates and
    stores nothing."""
    memo = ctx.memo
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _cited(ctx, key, compute):
    """_once(ctx, key, compute) and the JSON of it that the report cites,
    built the first time an edge cites the check: every edge that cites it
    holds that one object; report.cite_evidence lists each distinct one
    once in the report."""
    result = _once(ctx, key, compute)
    return result, _once(ctx, ("json", key), result.to_json)


def _inclusion(sub, ambient, mode, equivariant, max_simplices):
    """The memo key and the computation of one inclusion check."""
    return ((sub.mask, ambient.mask, mode, equivariant, max_simplices),
            lambda: verify_inclusion_equivalence(
                sub, ambient, mode, equivariant=equivariant,
                max_simplices=max_simplices))


def _compare_nerves(ctx, left: GPoset, right: GPoset, max_simplices) -> dict:
    """Homology profiles of the two posets' nerves and whether they agree.
    Each profile is taken on the poset's beat-point core, whose nerve has
    the same homology and is often far smaller."""
    def profile(poset):
        return _cited(ctx, (poset.mask, max_simplices), lambda: homology(
            order_complex(beat_core(poset), max_simplices)))

    (pl, left_json), (pr, right_json) = profile(left), profile(right)
    return {"left": left_json, "right": right_json, "agree": pl == pr}


# inclusion checker -> (mode, reads right-to-left, equivariance demanded);
# the pruning edges keep the smaller collection, which stands on the right
_INCLUSIONS = {
    "fibers": ("fibers", False, True),
    "lower": ("lower", False, False),
    "prune": ("upper", True, True),
}


def _by_inclusion(ctx, spec, max_simplices, detail) -> str:
    """The C row claims an equivariant equivalence and grades the check's
    verdicts with equivariance; the EO and EA rows ignore it, so the EO
    pruning edge cites the one check its C edge runs."""
    mode, backwards, equivariant = _INCLUSIONS[spec.checker]
    sub, ambient = map(ctx.collection, spec.kinds[::-1 if backwards else 1])
    res, detail["inclusion"] = _cited(
        ctx, *_inclusion(sub, ambient, mode, equivariant, max_simplices))
    return _squash(inclusion_outcome(res.per_element, spec.row == "C")[0])


def _by_centralizer(ctx, spec, max_simplices, detail) -> str:
    """Per-subgroup fiber checks between the row's avatars, inside each
    centralizer's lower set; this certifies the centralizer-restriction row
    without equivariance demands."""
    def compute():
        rows = []
        for h in ctx.lattice.class_representatives():
            left, right = _avatars(ctx, spec, h)
            res = _once(ctx, *_inclusion(left, right, "fibers", False,
                                         max_simplices))
            rows.append({"subgroup": h, "order": ctx.lattice.sizes[h],
                         "outcome": res.outcome,
                         "witnesses": list(res.witnesses)})
        return rows

    masks = tuple(ctx.collection(k).mask for k in spec.kinds)
    rows = detail["per_centralizer"] = _once(
        ctx, ("per_centralizer", spec.row, *masks, max_simplices), compute)
    outcomes = {row["outcome"] for row in rows}
    return _squash(FAIL if FAIL in outcomes else
                   INCONCLUSIVE if INCONCLUSIVE in outcomes else PASS)


def _by_scan(ctx, spec, max_simplices, detail) -> str:
    """The cut avatar against the h-fixed poset over the subgroups h of a
    Sylow group, each certified by the retraction onto the cut's side when
    it lands in the avatar. The collection is a union of classes and both
    posets at gHg^-1 are g times those at H, so the row at the lowest
    subgroup of each class decides every member of it."""
    lat = ctx.lattice
    poset = ctx.collection(spec.kinds[0])
    cut = lambda h: _cut(lat, spec.row, h)

    def scan_of(sylow):
        return ((spec.checker, poset.mask, sylow, max_simplices),
                lambda: fixed_point_equivalence_scan(
                    lat, list(positions(lat.first_of_each_class(
                        lat.order.down[sylow] | 1 << sylow))),
                    lambda h: _keep(poset, *cut(h)), poset.fixed_points,
                    retraction=cut, max_simplices=max_simplices))

    sylows = lat.sylow(ctx.p)
    scan, detail["scan"] = _cited(ctx, *scan_of(sylows[0]))
    if len(sylows) > 1:
        # the restriction to a Sylow group is independent of the choice by
        # conjugacy; spot-check that on a second one, where rows that
        # differ are a fault in the engine
        other = _once(ctx, *scan_of(sylows[1]))
        if (sorted((c.order, c.status) for c in other.per_subgroup)
                != sorted((c.order, c.status) for c in scan.per_subgroup)):
            raise InternalInconsistency(
                f"edge {spec.edge_id}: the scans of two conjugate Sylow "
                "groups disagree")
        detail["second_sylow"] = {"subgroup": sylows[1],
                                  "status": other.status}
    return scan.status


def _by_h1(ctx, spec, max_simplices, detail) -> str:
    lat = ctx.lattice
    h1 = _compare_nerves(ctx, *_avatars(ctx, spec, lat.trivial),
                         max_simplices)
    detail["h1_homology"] = h1
    status = HOMOLOGY_CONSISTENT if h1["agree"] else MISMATCH
    if spec.counterexample and is_dihedral8(lat.group) and ctx.p == 2:
        token, expect_left, expect_right = spec.counterexample
        h = _d8_subgroup(lat, token)
        lposet, rposet = _avatars(ctx, spec, h)
        ok_l, obs_l = _expectation_holds(lposet, expect_left, max_simplices)
        ok_r, obs_r = _expectation_holds(rposet, expect_right, max_simplices)
        reproduced = ok_l and ok_r
        detail["counterexample"] = {
            "subgroup": h, "subgroup_token": token,
            "expected": {"left": expect_left, "right": expect_right},
            "observed": {"left": obs_l, "right": obs_r},
            "reproduced": reproduced,
        }
        if not reproduced:
            status = MISMATCH
    return status


# EdgeSpec.checker -> fn(ctx, spec, max_simplices, detail), which
# fills detail and returns the edge's status
_CHECKERS = {**dict.fromkeys(_INCLUSIONS, _by_inclusion),
             "fibers-by-centralizer": _by_centralizer,
             "eo-scan": _by_scan, "ea-scan": _by_scan, "h1": _by_h1}


def _check_edge(ctx, spec, max_simplices) -> EdgeResult:
    """Gate the edge on its conditions, run its checker, and back a
    CERTIFIED solid edge by the homology of the two nerves. That edge is a
    replayed proof that the nerves are homotopy equivalent, so homology
    that disagrees is a fault in the engine, not in the input."""
    detail = {}
    if spec.conditions:
        detail["conditions"] = {c: ctx.condition(c) for c in spec.conditions}
        holding = [c for c, row in detail["conditions"].items() if row["holds"]]
        if not holding:
            detail["note"] = "no gating condition holds"
            return EdgeResult(spec, SKIPPED, detail)
        if spec.style == "solid":
            detail["holding"] = holding
    status = _CHECKERS[spec.checker](ctx, spec, max_simplices, detail)
    if status == CERTIFIED and spec.style == "solid":
        left, right = map(ctx.collection, spec.kinds)
        cross = detail["homology"] = _compare_nerves(ctx, left, right,
                                                     max_simplices)
        if not cross["agree"]:
            raise InternalInconsistency(
                f"edge {spec.edge_id} is certified but its nerves' homology "
                "differs")
    return EdgeResult(spec, status, detail)


# --------------------------------------------------------------------------
# entry points


def _check_edges(lattice, p, specs, max_simplices) -> list:
    ctx = collection_context(lattice, p)
    return [_check_edge(ctx, spec, max_simplices) for spec in specs]


def verify_table_edges(lattice, p: int, table: str, *,
                       max_simplices: int = DEFAULT_SIMPLEX_CAP) -> list:
    """Run every edge check of one table; returns EdgeResults in table order."""
    return _check_edges(lattice, p, table_edges(table), max_simplices)


def counterexample_edges() -> tuple:
    return tuple(spec for spec in TABLE31_EDGES + TABLE44_EDGES
                 if spec.counterexample)


def verify_counterexamples(lattice, p: int, *,
                           max_simplices: int = DEFAULT_SIMPLEX_CAP) -> list:
    """Reproduce the documented dotted-edge counterexamples; only the
    dihedral group of order 8 at p = 2 has documented ones."""
    if not (is_dihedral8(lattice.group) and p == 2):
        return []
    return _check_edges(lattice, p, counterexample_edges(), max_simplices)


_CHAINS = (
    ("D", "Bcen", "hat-B", "B"),
    ("Ce", "hat-S"),
    ("hat-A", "tilde-A", "A"),
    ("hat-S", "tilde-S", "S"),
    ("hat-B", "tilde-B", "B"),
    ("E", "tilde-A"),
)


def verify_inclusion_chains(lattice, p: int) -> list:
    """Memberwise subset checks between collections; each row reports one
    consecutive pair of a documented chain."""
    ctx = collection_context(lattice, p)
    rows = []
    for chain in _CHAINS:
        for a, b in zip(chain, chain[1:]):
            small, big = ctx.collection(a), ctx.collection(b)
            violations = list(positions(small.mask & ~big.mask))
            rows.append({"smaller": a, "larger": b,
                         "holds": not violations,
                         "violations": violations})
    return rows
