"""Rewrite an sclab-report/4 JSON report as sclab-report/5.

Usage: PYTHONPATH=src python docs/report_4_to_5.py OLD.json NEW.json

One thing changes. Each edge's `inclusion`, `per_centralizer` and `scan`
value moves into the top-level `evidence` list, and the edge's `detail`
keeps the entry's number in its place. Equal values share one entry. The
rewrite calls `sclab.report.cite_evidence`, the function a run lays out
its own report with, so it reads no group and recomputes nothing.
"""

import json
import sys

from sclab.report import cite_evidence


def upgrade(report):
    if report["format"] != "sclab-report/4":
        raise SystemExit(f"not an sclab-report/4 document: {report['format']}")
    report["format"] = "sclab-report/5"
    report["evidence"] = cite_evidence(report["suites"])
    return report


if __name__ == "__main__":
    old, new = sys.argv[1:]
    with open(old) as fh:
        report = upgrade(json.load(fh))
    with open(new, "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, separators=(",", ":"))
                 + "\n")
