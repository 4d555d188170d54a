"""Report serialization: versioned JSON (byte-deterministic) and a compact
markdown rendering with one row per edge."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii


def _not_json(token: str):
    raise TypeError(f"report value {token} is not JSON serializable")


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# keeps only the size of each object it reads, so a check never holds a
# second copy of what it checks
_CHECKER = json.JSONDecoder(parse_float=_not_json, parse_constant=_not_json,
                            object_hook=len)
# the values of each edge's detail sit this deep in a report
_WALK_DEPTH = 6
_LITERALS = {None: "null", True: "true", False: "false"}


def _key(key) -> str:
    """A dict key as json.dumps writes it: int, float, bool and None keys
    become strings."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError("keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = _ENCODER.encode(key)
    return encode_basestring_ascii(key) + ":"


def report_to_json_bytes(report: dict) -> bytes:
    """The bytes of json.dumps(report, sort_keys=True, separators=(",", ":"))
    + "\\n".

    Edges cite shared evidence: two edges that rest on one check hold one
    object in their details. So the writer walks the dicts and lists of the
    report in Python down to the values of each edge's detail, six levels
    in, writing the keys and scalars on the way itself, and hands each
    distinct subtree below that depth to CPython's C encoder once, memoised
    by id while the report is alive. The text between two such pieces is
    joined into one part, and the parts are joined once.

    The C encoder also writes floats, NaN and the infinities, which no
    report holds; parsing each piece back once with hooks that raise on
    them, as the walk does for what it writes itself, keeps the contract
    that any value other than a dict, list, tuple, str, int, bool or None
    raises TypeError. Keys are written as json.dumps writes them, and keys
    of mixed types raise TypeError as its sort does.
    """
    # bytes.join takes an 80-byte buffer view per part, more than most walked
    # tokens weigh, so the walk's own text goes into parts only between pieces
    text, parts, pieces = [], [], {}

    def piece(value) -> bytes:
        out = pieces.get(id(value))
        if out is None:
            encoded = _ENCODER.encode(value)
            _CHECKER.decode(encoded)
            out = pieces[id(value)] = encoded.encode()
        return out

    def walk(value, depth: int) -> None:
        if value is None or value is True or value is False:
            text.append(_LITERALS[value])
        elif isinstance(value, str):
            text.append(encode_basestring_ascii(value))
        elif isinstance(value, int):
            text.append(int.__repr__(value))
        elif not isinstance(value, (list, tuple, dict)):
            _not_json(repr(value))
        elif depth == _WALK_DEPTH:
            parts.append("".join(text).encode())
            text.clear()
            parts.append(piece(value))
        elif isinstance(value, dict):
            text.append("{")
            for n, (key, item) in enumerate(sorted(value.items())):
                if n:
                    text.append(",")
                text.append(_key(key))
                walk(item, depth + 1)
            text.append("}")
        else:
            text.append("[")
            for n, item in enumerate(value):
                if n:
                    text.append(",")
                walk(item, depth + 1)
            text.append("]")

    walk(report, 0)
    text.append("\n")
    parts.append("".join(text).encode())
    return b"".join(parts)


def _evidence(edge: dict) -> str:
    detail = edge["detail"]
    bits = []
    if "inclusion" in detail:
        inc = detail["inclusion"]
        n = len(inc["per_element"])
        noun = "fiber" if inc["mode"] == "fibers" else "interval"
        bits.append(f"{inc['mode']} {inc['outcome']}"
                    f" ({n} {noun}{'' if n == 1 else 's'} checked)")
    if "per_centralizer" in detail:
        rows = detail["per_centralizer"]
        bits.append(f"fibers in {len(rows)} centralizers")
    if "scan" in detail:
        per = detail["scan"]["per_subgroup"]
        methods = {}
        for row in per:
            methods[row["method"]] = methods.get(row["method"], 0) + 1
        inner = ", ".join(f"{k}×{v}" for k, v in sorted(methods.items()))
        bits.append(f"scan over {len(per)} subgroups ({inner})")
    if "second_sylow" in detail:
        ok = detail["second_sylow"]["agrees"]
        bits.append("second Sylow agrees" if ok else "second Sylow DISAGREES")
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


def _edge_table(lines: list, edges: list) -> None:
    lines.append("| edge | style | conditions | status | evidence |")
    lines.append("|---|---|---|---|---|")
    for edge in edges:
        conditions = ", ".join(edge["conditions"]) or "—"
        lines.append(f"| {edge['row']}: {' / '.join(edge['kinds'])} "
                     f"| {edge['style']} | {conditions} | {edge['status']} "
                     f"| {_evidence(edge)} |")
    lines.append("")


def report_to_markdown(report: dict) -> bytes:
    group = report["group"]
    plan = report["plan"]
    summary = report["summary"]
    lines = [
        "# Collection comparison report",
        "",
        f"Group **{group['name']}** of order {group['order']} "
        f"(degree {group['degree']}), p = {plan['prime']}, "
        f"suite `{plan['suite']}`.",
        "",
        f"Lattice: {report['lattice']['subgroups']} subgroups in "
        f"{report['lattice']['conjugacy_classes']} conjugacy classes.",
        "",
        "## Summary",
        "",
    ]
    by = summary["by_status"]
    lines.append(f"- edges checked: {summary['edges']}")
    for status in ("CERTIFIED", "HOMOLOGY-CONSISTENT", "MISMATCH",
                   "INCONCLUSIVE", "SKIPPED"):
        if by.get(status):
            lines.append(f"- {status}: {by[status]}")
    lines.append(f"- inclusion chain violations: {summary['chain_violations']}")
    lines.append("")

    lines.append("## Collection sizes")
    lines.append("")
    lines.append("| " + " | ".join(report["collections"]) + " |")
    lines.append("|" + "---|" * len(report["collections"]))
    lines.append("| " + " | ".join(str(n) for n in report["collections"].values())
                 + " |")
    lines.append("")

    suites = report["suites"]
    for table in ("table31", "table44"):
        if table in suites:
            lines.append(f"## {table}")
            lines.append("")
            _edge_table(lines, suites[table]["edges"])
    if "counterexamples" in suites:
        section = suites["counterexamples"]
        lines.append("## counterexamples")
        lines.append("")
        if section["edges"]:
            _edge_table(lines, section["edges"])
        else:
            lines.append(section.get("note", "none applicable"))
            lines.append("")
    if "inclusions" in suites:
        lines.append("## inclusion chains")
        lines.append("")
        lines.append("| smaller | larger | holds | violations |")
        lines.append("|---|---|---|---|")
        for row in suites["inclusions"]["chains"]:
            vio = ", ".join(map(str, row["violations"])) or "—"
            lines.append(f"| {row['smaller']} | {row['larger']} "
                         f"| {row['holds']} | {vio} |")
        lines.append("")
    if "conditions" in suites:
        section = suites["conditions"]
        lines.append("## conditions")
        lines.append("")
        lines.append("| condition | holds | witnesses |")
        lines.append("|---|---|---|")
        for name, rep in section["reports"].items():
            wit = "; ".join(w.get("generators", str(w)) if isinstance(w, dict)
                            else str(w) for w in rep["witnesses"]) or "—"
            lines.append(f"| {name} | {rep['holds']} | {wit} |")
        lines.append("")
        coincide = section.get("radical_collections_coincide")
        if coincide is not None:
            lines.append(f"- radical collections coincide: {coincide['equal']}")
            lines.append("")

    lines.append("## Not checked")
    lines.append("")
    for item in report["not_checked"]:
        lines.append(f"- {item}")
    lines.append("")
    return "\n".join(lines).encode("utf-8")


def emit_report(report: dict, format: str = "json") -> bytes:
    if format == "json":
        return report_to_json_bytes(report)
    if format == "markdown":
        return report_to_markdown(report)
    raise ValueError(f"unknown report format {format!r}")
