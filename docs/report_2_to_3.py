"""Rewrite an sclab-report/2 JSON report as sclab-report/3.

Usage: PYTHONPATH=src python docs/report_2_to_3.py OLD.json NEW.json

Only the format string and the retraction certificates change. A /2
retraction lists its [q, f(q)] pairs and target labels; /3 names the map by
its side and the subgroup K it joins (">=") or meets ("<=") with. K is the
scan row's subgroup H on the ">=" side and C_G(H) on the "<=" side. The
group is rebuilt from the report's own generators (its content hash must
match), and every recorded pair is checked to be q v K or q ^ K before the
pairs are dropped.
"""

import json
import sys

from sclab.group import parse_group_text
from sclab.lattice import enumerate_subgroups


def _lattice(section):
    text = f"degree {section['degree']}\n" + "".join(
        f"gen {g}\n" for g in section["generators"])
    group = parse_group_text(text)
    if group.content_hash != section["hash"]:
        raise SystemExit("rebuilt group does not match the report's hash")
    return enumerate_subgroups(group)


def _rows(value):
    if isinstance(value, dict):
        if "certificate" in value and "subgroup" in value:
            yield value
        for v in value.values():
            yield from _rows(v)
    elif isinstance(value, list):
        for v in value:
            yield from _rows(v)


def upgrade(report):
    if report["format"] != "sclab-report/2":
        raise SystemExit(f"not an sclab-report/2 document: {report['format']}")
    report["format"] = "sclab-report/3"
    lat = None
    for row in _rows(report):
        cert = row["certificate"]
        if not cert or cert["kind"] != "retraction":
            continue
        lat = lat or _lattice(report["group"])
        h = row["subgroup"]
        k = h if cert["side"] == ">=" else lat.centralizer(h)
        for q, f in cert["mapping"]:
            bits, k_bits = lat.bitsets[q], lat.bitsets[k]
            image = (lat.group.closure_bitset(bits | k_bits)
                     if cert["side"] == ">=" else bits & k_bits)
            if lat.bitsets[f] != image:
                raise SystemExit(f"pair {[q, f]} is not the named map")
        row["certificate"] = {"kind": "retraction", "side": cert["side"],
                              "subgroup": k}
    return report


if __name__ == "__main__":
    old, new = sys.argv[1:]
    with open(old) as fh:
        report = upgrade(json.load(fh))
    with open(new, "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
