"""Isomorphism-invariant fingerprints of sclab reports.

A fingerprint keeps the fields of a report that relabelling the group's
points cannot change: the group order, the subgroup and class counts, the
13 collection sizes, each edge's status with the homology profiles it
carries, the condition verdicts and the inclusion chain rows. Subgroup
indices, generators and certificates depend on the labels and are left out.

Each plan's fingerprint is checked against ``reference.json``, recorded from
seed 0 with ``python3 benchmark/fingerprint.py --record``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def _profiles(node) -> list:
    """Every homology profile in a nested report value, canonically sorted."""
    found = []
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            if "reduced_betti" in item:
                found.append(json.dumps(item, sort_keys=True))
            else:
                stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
    return sorted(found)


def fingerprint(report: dict) -> dict:
    suites = report["suites"]
    edges = [[edge["edge"], edge["status"], _profiles(edge["detail"])]
             for section in suites.values()
             for edge in section.get("edges", ())]
    chains = [[row["smaller"], row["larger"], row["holds"],
               len(row["violations"])]
              for row in suites.get("inclusions", {}).get("chains", ())]
    conditions = {name: rep["holds"] for name, rep in
                  suites.get("conditions", {}).get("reports", {}).items()}
    return {"order": report["group"]["order"],
            "subgroups": report["lattice"]["subgroups"],
            "classes": report["lattice"]["conjugacy_classes"],
            "collections": report["collections"],
            "edges": edges, "conditions": conditions, "chains": chains}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def check(payload: bytes, expected: dict) -> str | None:
    """None when the report bytes parse to the expected fingerprint, else a
    one-line reason."""
    try:
        got = fingerprint(json.loads(payload))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unreadable report: {exc!r}"
    if got == expected:
        return None
    diff = sorted(k for k in expected.keys() | got.keys()
                  if expected.get(k) != got.get(k))
    return "fingerprint differs in " + ", ".join(diff)


def _record() -> None:
    """Run every plan of every workload at seed 0 and store the fingerprints."""
    import tempfile
    from workloads import WORKLOADS, plan_key, write_group_files

    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    from sclab.cli import main

    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for workload in WORKLOADS.values():
            paths = write_group_files(workload, 0, Path(tmp))
            for group, prime in workload.plans:
                key = plan_key(group, prime)
                if key in reference:
                    continue
                out = Path(tmp) / "report.json"
                rc = main(["verify", "--group", str(paths[group]),
                           "--prime", str(prime), "--report", str(out)])
                if rc != 0:
                    raise SystemExit(f"{key}: sclab verify exited {rc}")
                reference[key] = fingerprint(json.loads(out.read_bytes()))
                print(key, file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 benchmark/fingerprint.py --record")
    _record()
