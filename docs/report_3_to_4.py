"""Rewrite an sclab-report/3 JSON report as sclab-report/4.

Usage: PYTHONPATH=src python docs/report_3_to_4.py OLD.json NEW.json

Two things change. /4 is written compactly, as json.dumps(report,
sort_keys=True, separators=(",", ":")) plus a newline, where /3 was
indented by two spaces. And a `fibers` inclusion no longer lists the
fibers sub_{<=y} of the y in sub: each has the N_G(y)-fixed maximum y, so
it is an equivariant cone, and Quillen's fiber lemma needs no check of it.

The group and its collections are rebuilt from the report's own
generators (the content hash and the collection sizes must match). Every
row dropped is checked first: its label lies in the smaller collection,
and its verdict is CONTRACTIBLE and equivariant, as the `fibers` mode of
a table edge demands. Per-centralizer fiber checks record only outcomes
and witnesses, and a witness in the smaller collection is refused too,
since /4 no longer checks its fiber. A report that fails either check is
refused.
"""

import json
import sys

from sclab.collections import collection_context
from sclab.group import parse_group_text
from sclab.lattice import enumerate_subgroups


def _context(report):
    section = report["group"]
    text = f"degree {section['degree']}\n" + "".join(
        f"gen {g}\n" for g in section["generators"])
    group = parse_group_text(text)
    if group.content_hash != section["hash"]:
        raise SystemExit("rebuilt group does not match the report's hash")
    ctx = collection_context(enumerate_subgroups(group),
                             report["plan"]["prime"])
    for kind, size in report["collections"].items():
        if len(ctx.collection(kind)) != size:
            raise SystemExit(f"rebuilt collection {kind} has another size")
    return ctx


def _fiber_edges(report):
    for section in report["suites"].values():
        for edge in section.get("edges", ()):
            detail = edge["detail"]
            if ("per_centralizer" in detail
                    or detail.get("inclusion", {}).get("mode") == "fibers"):
                yield edge, detail


def upgrade(report):
    if report["format"] != "sclab-report/3":
        raise SystemExit(f"not an sclab-report/3 document: {report['format']}")
    report["format"] = "sclab-report/4"
    ctx = None
    for edge, detail in _fiber_edges(report):
        ctx = ctx or _context(report)
        inside = ctx.collection(edge["kinds"][0]).mask
        for row in detail.get("per_centralizer", ()):
            if any(inside >> w & 1 for w in row["witnesses"]):
                raise SystemExit(f"{edge['edge']}: a fiber at a member of "
                                 f"the smaller collection failed")
        if "inclusion" not in detail:
            continue
        inclusion = detail["inclusion"]
        kept = []
        for row in inclusion["per_element"]:
            label, _, verdict = row
            if not inside >> label & 1:
                kept.append(row)
            elif (verdict["status"] != "CONTRACTIBLE"
                  or verdict["equivariant"] is not True):
                raise SystemExit(f"{edge['edge']}: the fiber at {label} is "
                                 "not certified equivariantly contractible")
        inclusion["per_element"] = kept
    return report


if __name__ == "__main__":
    old, new = sys.argv[1:]
    with open(old) as fh:
        report = upgrade(json.load(fh))
    with open(new, "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, separators=(",", ":"))
                 + "\n")
