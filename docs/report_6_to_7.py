"""Rewrite an sclab-report/6 JSON report as sclab-report/7.

Usage: PYTHONPATH=src python docs/report_6_to_7.py OLD.json NEW.json

One thing changes, and every edge status and homology profile stays. A
dashed edge's scan had a row at every subgroup H of a Sylow group P; now
it has one row per conjugacy class of those subgroups, at the lowest
position of the class. A collection is a union of classes, the cut at
gHg^-1 is g times the cut at H and the gHg^-1-fixed points are g times
the H-fixed points, so the row at H decides every conjugate of H.

The rewrite rebuilds the subgroup lattice from the report's own `group`
generators, so that it knows the class of each position, and refuses a
report whose generators do not give its `group.hash`. It keeps each
scan's row at the lowest member of each class and refuses a scan whose
rows of one class differ in `order`, `status`, `method` or `detail`;
only the certificate, which names the conjugate, may differ. The
evidence list is then laid out again by `sclab.report.cite_evidence`,
the function a run lays out its own report with.
"""

import json
import sys

from sclab.group import parse_group_text
from sclab.lattice import enumerate_subgroups
from sclab.report import CITED, cite_evidence

# the keys of a scan row that agree over a class
SHARED = ("order", "status", "method", "detail")


def _refuse(why):
    raise SystemExit(f"cannot rewrite as sclab-report/7: {why}")


def lattice_of(report):
    """The lattice whose positions the report's rows name, enumerated from
    the report's group generators under its plan's order cap."""
    group, cap = report["group"], report["plan"]["max_order"]
    text = "\n".join([f"degree {group['degree']}",
                      *(f"gen {g}" for g in group["generators"])])
    built = parse_group_text(text, source=group["name"], max_order=cap)
    if built.content_hash != group["hash"]:
        _refuse("the group's generators do not give its hash")
    return enumerate_subgroups(built, max_order=cap)


def _one_row_per_class(lat, scan):
    rows = scan["per_subgroup"]
    first = {}
    for row in rows:
        seen = first.setdefault(lat.class_of[row["subgroup"]], row)
        if any(seen[key] != row[key] for key in SHARED):
            _refuse(f"the scan rows at subgroups {seen['subgroup']} and "
                    f"{row['subgroup']}, which are conjugate, differ")
    keep = lat.first_of_each_class(sum(1 << row["subgroup"] for row in rows))
    scan["per_subgroup"] = [row for row in rows
                            if keep >> row["subgroup"] & 1]


def upgrade(report):
    if report["format"] != "sclab-report/6":
        raise SystemExit(f"not an sclab-report/6 document: {report['format']}")
    lat = lattice_of(report)
    evidence = report.pop("evidence")
    for section in report["suites"].values():
        for edge in section.get("edges", ()):
            detail = edge["detail"]
            for key in CITED:
                if key in detail:
                    detail[key] = evidence[detail[key]]
    for entry in evidence:
        if isinstance(entry, dict) and "per_subgroup" in entry:
            _one_row_per_class(lat, entry)
    report["format"] = "sclab-report/7"
    report["evidence"] = cite_evidence(report["suites"])
    return report


if __name__ == "__main__":
    old, new = sys.argv[1:]
    with open(old) as fh:
        report = upgrade(json.load(fh))
    with open(new, "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, separators=(",", ":"))
                 + "\n")
