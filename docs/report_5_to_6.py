"""Rewrite an sclab-report/5 JSON report as sclab-report/6.

Usage: PYTHONPATH=src python docs/report_5_to_6.py OLD.json NEW.json

Four things change, and every edge status and homology profile stays.

- Each pruning pair has one `upper` check. The solid `EO` pruning edge
  cited a plain `upper` check and its `C` edge an `upper-equivariant`
  one, over the same intervals. Now both edges cite the equivariant
  check, whose mode is named `upper`, and the plain entry goes. The
  rewrite refuses a report whose two checks do not give the same
  statuses at the same elements, since the `EO` edge grades from them.
- An InclusionResult has no `claim`: the claim belongs to its edge's row
  and style.
- A verdict has no `detail`. An UNKNOWN verdict's profile moves into a
  `homology` certificate with `pi1_trivial` null.
- `second_sylow` has no `agrees`: scans of two Sylow groups that disagree
  now stop the run as an internal error, so the rewrite refuses one.

The evidence list is then laid out again by `sclab.report.cite_evidence`,
the function a run lays out its own report with, so the rewrite reads no
group and recomputes nothing.
"""

import json
import sys

from sclab.report import CITED, cite_evidence


def _refuse(why):
    raise SystemExit(f"cannot rewrite as sclab-report/6: {why}")


def _statuses(inclusion):
    return [(y, v["status"]) for y, _, v in inclusion["per_element"]]


def _upgrade_inclusion(inclusion):
    del inclusion["claim"]
    if inclusion["mode"] == "upper-equivariant":
        inclusion["mode"] = "upper"
    for _, _, verdict in inclusion["per_element"]:
        detail = verdict.pop("detail")
        if verdict["status"] == "UNKNOWN":
            verdict["certificate"] = {
                "kind": "homology", "profile": detail["profile"],
                "connected": True, "pi1_trivial": None}


def upgrade(report):
    if report["format"] != "sclab-report/5":
        raise SystemExit(f"not an sclab-report/5 document: {report['format']}")
    evidence = report.pop("evidence")
    for section in report["suites"].values():
        edges = section.get("edges", ())
        for edge in edges:
            detail = edge["detail"]
            for key in CITED:
                if key in detail:
                    detail[key] = evidence[detail[key]]
            if "second_sylow" in detail:
                if not detail["second_sylow"].pop("agrees"):
                    _refuse(f"{edge['edge']} has a second Sylow that "
                            "disagrees")
        by_id = {edge["edge"]: edge for edge in edges}
        for edge in edges:
            plain = edge["detail"].get("inclusion")
            if (plain is None or plain["mode"] != "upper"
                    or edge["row"] != "EO"):
                continue
            twin = by_id[edge["edge"].replace(":EO:", ":C:", 1)]
            equivariant = twin["detail"]["inclusion"]
            if (equivariant["mode"] != "upper-equivariant"
                    or _statuses(equivariant) != _statuses(plain)):
                _refuse(f"{edge['edge']} and {twin['edge']} do not check "
                        "the same intervals with the same statuses")
            edge["detail"]["inclusion"] = equivariant
    for entry in evidence:
        if isinstance(entry, dict) and "mode" in entry:
            _upgrade_inclusion(entry)
    report["format"] = "sclab-report/6"
    report["evidence"] = cite_evidence(report["suites"])
    return report


if __name__ == "__main__":
    old, new = sys.argv[1:]
    with open(old) as fh:
        report = upgrade(json.load(fh))
    with open(new, "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, separators=(",", ":"))
                 + "\n")
