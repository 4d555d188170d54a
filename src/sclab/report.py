"""Report serialization: versioned JSON (byte-deterministic) and a compact
markdown rendering with one row per edge."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .collections import CONDITIONS, KINDS


def _not_json(token: str):
    raise TypeError(f"report value {token} is not JSON serializable")


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# keeps only the size of each object it reads, so a check never holds a
# second copy of what it checks
_CHECKER = json.JSONDecoder(parse_float=_not_json, parse_constant=_not_json,
                            object_hook=len)
# the detail keys whose values the report holds once, in its evidence list
CITED = ("inclusion", "per_centralizer", "scan")


def cite_evidence(suites: dict) -> list:
    """Move each edge's cited evidence into one list and leave its number
    in the edge's detail; return the list.

    Entries are numbered in the order the report cites them: suites by
    name, edges in table order, and within an edge in the order of CITED.
    Equal values share one entry."""
    evidence = []
    for name in sorted(suites):
        for edge in suites[name].get("edges", ()):
            detail = edge["detail"]
            for key in CITED:
                if key in detail:
                    value = detail[key]
                    n = next((n for n, entry in enumerate(evidence)
                              if entry is value or entry == value),
                             len(evidence))
                    if n == len(evidence):
                        evidence.append(value)
                    detail[key] = n
    return evidence


def _key(key) -> str:
    """A dict key as json.dumps writes it: int, float, bool and None keys
    become strings."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError("keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = _ENCODER.encode(key)
    return encode_basestring_ascii(key) + ":"


def _text(value, levels: int) -> str:
    """The JSON text of value: the dicts and lists of its top levels split
    into their keys and items, and each value below them one call of
    CPython's C encoder, parsed back once."""
    if levels and isinstance(value, dict):
        return "{" + ",".join(_key(key) + _text(item, levels - 1)
                              for key, item in sorted(value.items())) + "}"
    if levels and isinstance(value, (list, tuple)):
        return "[" + ",".join(_text(item, levels - 1) for item in value) + "]"
    encoded = _ENCODER.encode(value)
    _CHECKER.decode(encoded)
    return encoded


def report_to_json_bytes(report: dict) -> bytes:
    """The bytes of json.dumps(report, sort_keys=True, separators=(",", ":"))
    + "\\n".

    Each top-level value of the report, and each suite section or evidence
    entry, is one call of the C encoder: one call over the whole report
    peaks at several times its output. The C encoder also writes floats,
    NaN and the infinities, which no report holds; parsing each piece back
    with hooks that raise on them keeps the contract that any value other
    than a dict, list, tuple, str, int, bool or None raises TypeError. Keys
    are written as json.dumps writes them, and keys of mixed types raise
    TypeError as its sort does.
    """
    return (_text(report, 2) + "\n").encode()


def _evidence(edge: dict, evidence: list) -> str:
    detail = edge["detail"]
    bits = []
    if "inclusion" in detail:
        inc = evidence[detail["inclusion"]]
        n = len(inc["per_element"])
        noun = "fiber" if inc["mode"] == "fibers" else "interval"
        bits.append(f"{inc['mode']} {inc['outcome']}"
                    f" ({n} {noun}{'' if n == 1 else 's'} checked)")
    if "per_centralizer" in detail:
        rows = evidence[detail["per_centralizer"]]
        bits.append(f"fibers in {len(rows)} centralizers")
    if "scan" in detail:
        per = evidence[detail["scan"]]["per_subgroup"]
        methods = {}
        for row in per:
            methods[row["method"]] = methods.get(row["method"], 0) + 1
        inner = ", ".join(f"{k}×{v}" for k, v in sorted(methods.items()))
        bits.append(f"scan over {len(per)} subgroups ({inner})")
    if "second_sylow" in detail:
        bits.append("second Sylow agrees")
    if "h1_homology" in detail:
        bits.append("H=1 homology "
                    + ("agrees" if detail["h1_homology"]["agree"] else "differs"))
    if "counterexample" in detail:
        cx = detail["counterexample"]
        tag = "reproduced" if cx["reproduced"] else "NOT reproduced"
        bits.append(f"counterexample at {cx['subgroup_token']} {tag}")
    if "note" in detail:
        bits.append(detail["note"])
    return "; ".join(bits)


def _table(header, rows) -> list:
    """The lines of one markdown table, and the blank line after it."""
    return ["| " + " | ".join(header) + " |", "|" + "---|" * len(header),
            *("| " + " | ".join(map(str, row)) + " |" for row in rows), ""]


def _witness(witness: dict) -> str:
    """A subgroup witness by its generators, an element witness as the
    product it exhibits, anything else as compact sorted JSON."""
    if "generators" in witness:
        return witness["generators"]
    if witness.keys() == {"x", "y", "xy"}:
        return f"{witness['x']} · {witness['y']} = {witness['xy']}"
    return _ENCODER.encode(witness)


def _edge_row(edge: dict, evidence: list) -> tuple:
    return (f"{edge['row']}: {' / '.join(edge['kinds'])}", edge["style"],
            ", ".join(edge["conditions"]) or "—", edge["status"],
            _evidence(edge, evidence))


def report_to_markdown(report: dict) -> bytes:
    """The markdown of report; a report read back from its JSON, whose keys
    are sorted, renders to the same bytes as the run's own."""
    group, plan, summary = report["group"], report["plan"], report["summary"]
    by = summary["by_status"]
    sizes = sorted(report["collections"], key=KINDS.index)
    lines = [
        "# Collection comparison report", "",
        f"Group **{group['name']}** of order {group['order']} "
        f"(degree {group['degree']}), p = {plan['prime']}, "
        f"suite `{plan['suite']}`.", "",
        f"Lattice: {report['lattice']['subgroups']} subgroups in "
        f"{report['lattice']['conjugacy_classes']} conjugacy classes.", "",
        "## Summary", "",
        f"- edges checked: {summary['edges']}",
        *(f"- {status}: {by[status]}"
          for status in ("CERTIFIED", "HOMOLOGY-CONSISTENT", "MISMATCH",
                         "INCONCLUSIVE", "SKIPPED") if by.get(status)),
        f"- inclusion chain violations: {summary['chain_violations']}", "",
        "## Collection sizes", "",
        *_table(sizes, [[report["collections"][kind] for kind in sizes]]),
    ]
    suites = report["suites"]
    for name in ("table31", "table44", "counterexamples"):
        if name not in suites:
            continue
        section = suites[name]
        rows = [_edge_row(edge, report["evidence"])
                for edge in section["edges"]]
        lines += [f"## {name}", "", *(
            _table(("edge", "style", "conditions", "status", "evidence"), rows)
            if rows else (section["note"], ""))]
    if "inclusions" in suites:
        lines += ["## inclusion chains", "", *_table(
            ("smaller", "larger", "holds", "violations"),
            [(row["smaller"], row["larger"], row["holds"],
              ", ".join(map(str, row["violations"])) or "—")
             for row in suites["inclusions"]["chains"]])]
    if "conditions" in suites:
        section = suites["conditions"]
        reports = section["reports"]
        lines += ["## conditions", "", *_table(
            ("condition", "holds", "witnesses"),
            [(name, reports[name]["holds"],
              "; ".join(map(_witness, reports[name]["witnesses"])) or "—")
             for name in sorted(reports, key=CONDITIONS.index)])]
        coincide = section.get("radical_collections_coincide")
        if coincide is not None:
            lines += [f"- radical collections coincide: {coincide['equal']}",
                      ""]
    lines += ["## Not checked", "",
              *(f"- {item}" for item in report["not_checked"]), ""]
    return "\n".join(lines).encode("utf-8")


def emit_report(report: dict, format: str = "json") -> bytes:
    if format == "json":
        return report_to_json_bytes(report)
    if format == "markdown":
        return report_to_markdown(report)
    raise ValueError(f"unknown report format {format!r}")
