"""Report serialization: versioned JSON (byte-deterministic) and a compact
markdown rendering with one row per edge."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

_CONTAINERS = (dict, list, tuple)


def report_to_json_bytes(report: dict) -> bytes:
    """The bytes of json.dumps(report, sort_keys=True, indent=2) + "\\n".

    With an indent, json.dumps runs its pure-Python encoder token by token.
    This writer emits the same text with one chunk per line, or one per
    container that holds only scalars.
    """
    chunks: list[str] = []
    _write(report, "", "", chunks)
    chunks.append("\n")
    return "".join(chunks).encode("utf-8")


def _scalar(value) -> str:
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"report value of type {type(value).__name__} "
                    "is not JSON serializable")


def _key(key) -> str:
    quoted = _quote(key) if isinstance(key, str) else '"' + _scalar(key) + '"'
    return quoted + ": "


def _write(value, head: str, indent: str, out: list) -> None:
    """Append value to out, its first line preceded by head."""
    if isinstance(value, dict):
        keys = sorted(value)
        items = [value[k] for k in keys]
        prefixes = [_key(k) for k in keys]
        opener, closer = "{", "}"
    elif isinstance(value, (list, tuple)):
        items, prefixes = value, None
        opener, closer = "[", "]"
    else:
        out.append(head + _scalar(value))
        return
    if not items:
        out.append(head + opener + closer)
        return
    inner = indent + "  "
    sep = ",\n" + inner
    # ints and strs directly; None marks any other item
    lines = [int.__repr__(v) if type(v) is int
             else _quote(v) if type(v) is str else None for v in items]
    if None not in lines:
        if prefixes is not None:
            lines = map(str.__add__, prefixes, lines)
        out.append(head + opener + "\n" + inner + sep.join(lines)
                   + "\n" + indent + closer)
        return
    out.append(head + opener)
    line_head = "\n" + inner
    for n, item in enumerate(items):
        if prefixes is not None:
            line_head += prefixes[n]
        if lines[n] is not None:
            out.append(line_head + lines[n])
        elif isinstance(item, _CONTAINERS):
            _write(item, line_head, inner, out)
        else:
            out.append(line_head + _scalar(item))
        line_head = sep
    out.append("\n" + indent + closer)


def _evidence(edge: dict) -> str:
    detail = edge["detail"]
    bits = []
    if "inclusion" in detail:
        inc = detail["inclusion"]
        bits.append(f"{inc['mode']} {inc['outcome']}"
                    f" ({len(inc['per_element'])} intervals)")
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
