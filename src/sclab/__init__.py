"""Collections of p-subgroups of a finite group, and certified verification
of the homotopy comparisons between them."""

from .collections import (CONDITIONS, KINDS, CollectionContext,
                          collection_context)
from .contract import (CONTRACTIBLE, NOT_CONTRACTIBLE, UNKNOWN,
                       CoreReduction, HomologyWitness, MonotoneRetraction,
                       Verdict, contractibility_verdict, core_reduction,
                       verify_certificate)
from .equivalence import (FixedPointScan, InclusionResult,
                          fixed_point_equivalence_scan,
                          verify_inclusion_equivalence)
from .errors import SclabError
from .group import PermutationGroup, builtin_group, load_group, parse_group_text
from .homology import HomologyProfile, homology
from .lattice import SubgroupLattice, enumerate_subgroups
from .poset import GPoset, OrderComplex, order_complex
from .report import emit_report
from .runner import VerificationPlan, exit_status, run
from .tables import (EdgeResult, EdgeSpec, verify_counterexamples,
                     verify_inclusion_chains, verify_table_edges)

__version__ = "0.1.0"

__all__ = [
    "CONDITIONS", "CONTRACTIBLE", "KINDS", "NOT_CONTRACTIBLE", "UNKNOWN",
    "CollectionContext", "CoreReduction",
    "EdgeResult", "EdgeSpec",
    "FixedPointScan", "GPoset", "HomologyProfile", "HomologyWitness",
    "InclusionResult", "MonotoneRetraction", "OrderComplex",
    "PermutationGroup", "SclabError", "SubgroupLattice",
    "Verdict", "VerificationPlan", "builtin_group",
    "collection_context", "contractibility_verdict", "core_reduction",
    "emit_report",
    "enumerate_subgroups", "exit_status", "fixed_point_equivalence_scan",
    "homology", "load_group", "order_complex", "parse_group_text", "run",
    "verify_certificate", "verify_counterexamples",
    "verify_inclusion_chains", "verify_inclusion_equivalence",
    "verify_table_edges",
]
