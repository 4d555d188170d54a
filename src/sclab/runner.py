"""Plan execution: load a group, build its lattice, run verification suites,
and assemble one deterministic report dictionary.

Reports carry no timestamps, paths or environment data; two runs of the
same plan on the same inputs serialize byte-identically.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .cache import lattice_for
from .collections import CONDITIONS, KINDS, collection_context
from .errors import PrimeDoesNotDivide
from .group import PermutationGroup, load_group
from .lattice import DEFAULT_ORDER_CAP, require_prime
from .poset import DEFAULT_SIMPLEX_CAP
from .report import cite_evidence
from .tables import (SKIPPED, TABLE31, TABLE44, verify_counterexamples,
                     verify_inclusion_chains, verify_table_edges)

REPORT_FORMAT = "sclab-report/7"

# analyses the report deliberately leaves out; listed so a reader of the
# report knows the boundary of what a clean run claims
NOT_CHECKED = (
    "equivariant (Bredon) homology decompositions",
    "ampleness and sharpness of homology approximations",
    "mod-p group cohomology comparisons",
    "groups beyond the order cap (sporadic-scale inputs)",
)


class VerificationPlan(NamedTuple):
    group: str                     # file path or builtin:NAME
    prime: int
    suite: str = "all"
    max_order: int = DEFAULT_ORDER_CAP
    max_simplices: int = DEFAULT_SIMPLEX_CAP
    cache_dir: Path | None = None
    strict: bool = False

    def validate(self) -> None:
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}; expected one of "
                             + ", ".join(SUITES))
        require_prime(self.prime, self.max_order)
        for cap in ("max_order", "max_simplices"):
            if getattr(self, cap) < 0:
                raise ValueError(f"{cap} must be at least 0, got {getattr(self, cap)}")

    def to_json(self) -> dict:
        # a file is named by its base name, so the report does not depend
        # on the directory the group file was read from
        group = (self.group if self.group.startswith("builtin:")
                 else Path(self.group).name)
        return {"group": group, "prime": self.prime, "suite": self.suite,
                "max_order": self.max_order,
                "max_simplices": self.max_simplices,
                "strict": self.strict}


def _group_section(group: PermutationGroup) -> dict:
    return {"name": group.name, "degree": group.degree, "order": group.order,
            "hash": group.content_hash,
            "generators": [group.element_string(i)
                           for i in group.generator_indices]}


def _collections_section(ctx) -> dict:
    return {kind: len(ctx.collection(kind)) for kind in KINDS}


def _table_section(lattice, prime, table, max_simplices) -> dict:
    results = verify_table_edges(lattice, prime, table,
                                 max_simplices=max_simplices)
    return {"edges": [r.to_json() for r in results]}


def _counterexamples_section(lattice, prime, _suite, max_simplices) -> dict:
    results = verify_counterexamples(lattice, prime,
                                     max_simplices=max_simplices)
    section = {"applicable": bool(results),
               "edges": [r.to_json() for r in results]}
    if not results:
        section["note"] = ("documented counterexamples concern the dihedral "
                           "group of order 8 at p = 2 only")
    return section


def _inclusions_section(lattice, prime, _suite, _max_simplices) -> dict:
    return {"chains": verify_inclusion_chains(lattice, prime)}


def _conditions_section(lattice, prime, _suite, _max_simplices) -> dict:
    ctx = collection_context(lattice, prime)
    return {"reports": {c: ctx.condition(c) for c in CONDITIONS},
            "radical_collections_coincide": ctx.equalities_under_Ch()}


# suite -> its section builder, called as (lattice, prime, suite,
# max_simplices)
_SECTIONS = {TABLE31: _table_section, TABLE44: _table_section,
             "counterexamples": _counterexamples_section,
             "inclusions": _inclusions_section,
             "conditions": _conditions_section}

SUITES = (*_SECTIONS, "all")


def run(plan: VerificationPlan) -> dict:
    """Execute the plan and return the report dictionary."""
    plan.validate()
    group = load_group(plan.group, max_order=plan.max_order)
    if group.order % plan.prime:
        raise PrimeDoesNotDivide(plan.prime, group.order)
    lattice = lattice_for(group, cache_dir=plan.cache_dir,
                          max_order=plan.max_order)
    ctx = collection_context(lattice, plan.prime)

    wanted = _SECTIONS if plan.suite == "all" else (plan.suite,)
    suites = {suite: _SECTIONS[suite](lattice, plan.prime, suite,
                                      plan.max_simplices)
              for suite in wanted}

    report = {
        "format": REPORT_FORMAT,
        "plan": plan.to_json(),
        "group": _group_section(group),
        "lattice": {"subgroups": len(lattice),
                    "conjugacy_classes": len(lattice.class_masks)},
        "collections": _collections_section(ctx),
        "suites": suites,
        "evidence": cite_evidence(suites),
        "not_checked": list(NOT_CHECKED),
    }
    report["summary"] = summarize(report)
    return report


def _iter_edges(report: dict):
    for section in report["suites"].values():
        yield from section.get("edges", ())


def summarize(report: dict) -> dict:
    counts = {"CERTIFIED": 0, "HOMOLOGY-CONSISTENT": 0, "MISMATCH": 0,
              "INCONCLUSIVE": 0, SKIPPED: 0}
    for edge in _iter_edges(report):
        counts[edge["status"]] += 1
    chain_rows = report["suites"].get("inclusions", {}).get("chains", [])
    violations = sum(1 for row in chain_rows if not row["holds"])
    return {
        "edges": sum(counts.values()),
        "by_status": counts,
        "chain_violations": violations,
        "mismatch_found": counts["MISMATCH"] > 0 or violations > 0,
        "inconclusive_found": counts["INCONCLUSIVE"] > 0,
    }


def exit_status(report: dict, *, strict: bool = False) -> int:
    summary = report["summary"]
    if summary["mismatch_found"]:
        return 1
    if strict and summary["inconclusive_found"]:
        return 2
    return 0
