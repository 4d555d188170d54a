"""Outside-in tracer: spans and counters recorded around sclab's public
functions, installed from the benchmark's own files.

Spans are kept in memory as [id, parent id, name, start, end] and written
out as JSON lines at the end. A layer's self time is its span's duration
minus the durations of its child spans. Names bound with ``from .x import
f`` are wrapped in every module that binds them, since patching only the
defining module would miss calls made through those bindings.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import cached_property
from importlib import import_module
from time import perf_counter
from types import SimpleNamespace

# span name -> per-layer metric; these are self times
SELF_TIMES = {
    "group.load": "group.load_s",
    "group.tables": "group.tables_s",
    "lattice.enumerate": "lattice.enumerate_s",
    "cache.load": "cache.load_s",
    "cache.store": "cache.store_s",
    "collections.build": "collections.build_s",
    "collections.condition": "collections.condition_s",
    "poset.order_complex": "poset.order_complex_s",
    "homology": "homology.self_s",
    "contract.verdict": "contract.verdict_s",
    "fundgroup.pi1": "fundgroup.pi1_s",
    "equivalence.inclusion": "equivalence.inclusion_s",
    "equivalence.scan": "equivalence.scan_s",
    "tables.table31": "tables.table31_s",
    "tables.table44": "tables.table44_s",
    "tables.counterexamples": "tables.counterexamples_s",
    "report.emit": "report.emit_s",
}
# span name -> per-layer metric; these include their child spans
INCLUSIVE_TIMES = {
    "lattice.quotient": "lattice.quotient_s",
    "tables.chains": "tables.chains_s",
}
VERDICT_METHODS = ("empty", "cone", "conical", "collapse", "disconnected",
                   "homology", "pi1", "undetermined")
SCAN_METHODS = ("equal", "emptiness", "retraction", "both-contractible",
                "contractibility", "homology")
EDGE_STATUSES = ("CERTIFIED", "HOMOLOGY-CONSISTENT", "MISMATCH",
                 "INCONCLUSIVE", "SKIPPED")
COUNTS = ("lattice.enumerate_calls", "lattice.closure_calls",
          "lattice.subgroups", "collections.members",
          "poset.order_complex_calls", "poset.simplices", "homology.calls",
          "homology.matrix_entries", "contract.verdicts", "fundgroup.calls",
          "equivalence.elements", "report.bytes",
          *(f"contract.method.{m}" for m in VERDICT_METHODS),
          *(f"equivalence.scan_method.{m}" for m in SCAN_METHODS),
          *(f"tables.edges.{s}" for s in EDGE_STATUSES))


def self_times(spans: list) -> list:
    """Self time of each span in ``spans``, a closed run of whole trees."""
    first = spans[0][0]
    covered = [0.0] * len(spans)
    for span in spans:
        if span[1] is not None and span[1] >= first:
            covered[span[1] - first] += span[4] - span[3]
    return [span[4] - span[3] - c for span, c in zip(spans, covered)]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.complexes: set = set()      # distinct complexes given to homology
        self._undo: list = []

    # ----- spans --------------------------------------------------------

    def begin(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                name, perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def end(self, span: list) -> None:
        span[4] = perf_counter()
        popped = self._stack.pop()
        if popped != span[0]:
            raise RuntimeError(f"span {span[2]} closed out of order")

    def timed(self, name, fn, after=None):
        """fn wrapped in a span; name may be a function of the call's
        arguments. after(result, args, kwargs) runs once the span has ended."""
        def wrapper(*args, **kwargs):
            span = self.begin(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(result, args, kwargs)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def observed(self, fn, after):
        """fn wrapped to call after(result, args, kwargs), without a span."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, args, kwargs)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # ----- patching -----------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace owner.attr by make(original); uninstall() restores it."""
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def patch_cached_property(self, cls, attr: str, name: str) -> None:
        prop = cls.__dict__[attr]
        original = prop.func
        prop.func = self.timed(name, original)
        self._undo.append((prop, "func", original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ----- results ------------------------------------------------------

    def harvest(self, first: int) -> dict:
        """Per-layer metrics of the spans from index ``first`` on and of the
        counters since the last harvest; resets the counters."""
        spans = self.spans[first:]
        own = self_times(spans)
        times = Counter()
        for span, t in zip(spans, own):
            if span[2] in SELF_TIMES:
                times[SELF_TIMES[span[2]]] += t
        for span in spans:
            if span[2] in INCLUSIVE_TIMES:
                times[INCLUSIVE_TIMES[span[2]]] += span[4] - span[3]
        roots = [(span, t) for span, t in zip(spans, own) if span[1] is None]
        wall = sum(span[4] - span[3] for span, _ in roots)
        c = self.counters
        out = {metric: float(times[metric]) for metric in
               (*SELF_TIMES.values(), *INCLUSIVE_TIMES.values())}
        out.update({name: c[name] for name in COUNTS})
        lookups = c["cache.lookups"]
        calls = c["homology.calls"]
        out.update({
            "cache.hit_ratio": c["cache.hits"] / lookups if lookups else 0.0,
            "homology.distinct": len(self.complexes),
            "homology.unique_ratio": (len(self.complexes) / calls
                                      if calls else 0.0),
            "homology.max_simplices": c["homology.max_simplices"],
            "lattice.enumerate_share": out["lattice.enumerate_s"] / wall,
            "homology.share": out["homology.self_s"] / wall,
            "trace.wall_s": wall,
            "trace.untraced_s": sum(t for _, t in roots),
        })
        self.counters.clear()
        self.complexes.clear()
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap sclab's layer boundaries; sclab must be importable."""
    # import_module, not attribute access: the package re-exports functions
    # under some module names (sclab.homology is the function)
    mod = SimpleNamespace(**{name: import_module(f"sclab.{name}") for name in (
        "cache", "cli", "collections", "contract", "equivalence", "fundgroup",
        "group", "homology", "lattice", "poset", "runner", "tables")})

    t = tracer

    def count(name, amount=1):
        t.counters[name] += amount

    def each_binding(attr, modules, name, after=None):
        for module in modules:
            t.patch(module, attr, lambda fn: t.timed(name, fn, after))

    group_cls = mod.group.PermutationGroup
    # mul, inv, element_orders, conjugacy_classes and content_hash
    for attr, value in list(vars(group_cls).items()):
        if isinstance(value, cached_property):
            t.patch_cached_property(group_cls, attr, "group.tables")
    t.patch(mod.runner, "load_group",
            lambda fn: t.timed("group.load", fn))
    t.patch(group_cls, "closure_bitset", lambda fn: t.observed(
        fn, lambda r, a, k: count("lattice.closure_calls")))

    # lattice and cache
    each_binding("enumerate_subgroups", (mod.lattice, mod.cache),
                 "lattice.enumerate",
                 lambda r, a, k: count("lattice.enumerate_calls"))
    t.patch(mod.collections, "p_core_of_group",
            lambda fn: t.timed("lattice.quotient", fn))

    def after_lattice_for(lattice, args, kwargs):
        count("cache.lookups")
        count("lattice.subgroups", len(lattice))

    t.patch(mod.runner, "lattice_for",
            lambda fn: t.observed(fn, after_lattice_for))
    t.patch(mod.cache, "load_lattice", lambda fn: t.timed(
        "cache.load", fn,
        lambda r, a, k: count("cache.hits", r is not None)))
    t.patch(mod.cache, "store_lattice",
            lambda fn: t.timed("cache.store", fn))

    # collections
    context_cls = mod.collections.CollectionContext
    t.patch(context_cls, "_build", lambda fn: t.timed(
        "collections.build", fn,
        lambda r, a, k: count("collections.members", len(r.members))))
    t.patch(context_cls, "condition",
            lambda fn: t.timed("collections.condition", fn))

    # order complexes and homology
    def after_complex(complex_, args, kwargs):
        count("poset.order_complex_calls")
        count("poset.simplices", complex_.size())

    each_binding("order_complex", (mod.poset, mod.tables,
                                   mod.equivalence, mod.contract),
                 "poset.order_complex", after_complex)

    def after_homology(profile, args, kwargs):
        complex_ = args[0] if args else kwargs["complex_"]
        counts = complex_.counts()
        count("homology.calls")
        # boundary k maps C_k to C_{k-1}; k = 0 is the augmentation row and
        # k = dim + 1 has no columns
        rows = (1,) + counts
        count("homology.matrix_entries",
              sum(r * c for r, c in zip(rows, counts)))
        t.counters["homology.max_simplices"] = max(
            t.counters["homology.max_simplices"], sum(counts))
        t.complexes.add(tuple(tuple(complex_.simplices[k])
                              for k in sorted(complex_.simplices)))

    each_binding("homology", (mod.homology, mod.tables,
                              mod.equivalence, mod.contract),
                 "homology", after_homology)

    # contractibility and the fundamental group
    def after_verdict(verdict, args, kwargs):
        count("contract.verdicts")
        count(f"contract.method.{verdict.method}")

    each_binding("contractibility_verdict", (mod.contract,
                                             mod.equivalence, mod.tables),
                 "contract.verdict", after_verdict)
    each_binding("fundamental_group_trivial", (mod.fundgroup,
                                               mod.contract),
                 "fundgroup.pi1", lambda r, a, k: count("fundgroup.calls"))

    # equivalence checkers
    each_binding("verify_inclusion_equivalence", (mod.equivalence,
                                                  mod.tables),
                 "equivalence.inclusion",
                 lambda r, a, k: count("equivalence.elements",
                                       len(r.per_element)))

    def after_scan(scan, args, kwargs):
        for row in scan.per_subgroup:
            count(f"equivalence.scan_method.{row.method}")

    each_binding("fixed_point_equivalence_scan", (mod.equivalence,
                                                  mod.tables),
                 "equivalence.scan", after_scan)

    # tables and report
    def after_edges(results, args, kwargs):
        for result in results:
            count(f"tables.edges.{result.status}")

    t.patch(mod.runner, "verify_table_edges", lambda fn: t.timed(
        lambda lattice, p, table, **kw: f"tables.{table}", fn, after_edges))
    t.patch(mod.runner, "verify_counterexamples", lambda fn: t.timed(
        "tables.counterexamples", fn, after_edges))
    t.patch(mod.runner, "verify_inclusion_chains",
            lambda fn: t.timed("tables.chains", fn))
    t.patch(mod.cli, "emit_report", lambda fn: t.timed(
        "report.emit", fn, lambda r, a, k: count("report.bytes", len(r))))
