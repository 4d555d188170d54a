"""The JSON report writer against the format it defines:
json.dumps(report, sort_keys=True, separators=(",", ":")) plus a trailing
newline; the markdown writer; the evidence list of the report; and the
converters docs/report_4_to_5.py, docs/report_5_to_6.py and
docs/report_6_to_7.py, which carry an sclab-report/4 document to /5, a /5
document to /6 and a /6 document to /7."""

import copy
import importlib.util
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sclab.report import (CITED, cite_evidence, report_to_json_bytes,
                          report_to_markdown)
from sclab.runner import VerificationPlan, run

from _suite import SUITE, inline_evidence


def _reference(value) -> bytes:
    return (json.dumps(value, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


# quotes, backslashes, control characters and non-ASCII text
_text = st.text(alphabet=st.sampled_from(
    'ab "\\/\n\t\r\b\f\x00\x1f\x7fé€\U0001f600'), max_size=6)
_scalars = (st.none() | st.booleans() | _text
            | st.integers(-2**70, 2**70))
_values = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_text, inner, max_size=4)),
    max_leaves=40)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_values)
def test_writer_matches_json_dumps(value):
    assert report_to_json_bytes(value) == _reference(value)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.dictionaries(st.integers(-5, 5), _scalars, max_size=4))
def test_int_keys_match_json_dumps(value):
    assert report_to_json_bytes(value) == _reference(value)
    for key in (None, True, False):
        assert report_to_json_bytes({key: value}) == _reference({key: value})


def test_deep_nesting_and_empty_containers():
    value = {"a": [[], {}, ()]}
    for depth in range(60):
        value = [value, {"k" + str(depth): value}] if depth % 7 == 0 else {
            "": [value], "x": {}}
    assert report_to_json_bytes(value) == _reference(value)
    for empty in ({}, [], (), "", 0, None, True):
        assert report_to_json_bytes(empty) == _reference(empty)


@pytest.mark.parametrize("bad", [{1, 2}, float("nan"), 1.5, b"x", object()])
def test_other_types_are_rejected(bad):
    with pytest.raises(TypeError):
        report_to_json_bytes({"k": [bad]})
    with pytest.raises(TypeError):
        report_to_json_bytes(bad)


def test_a_float_deep_inside_is_rejected():
    value = {"a": [1, {"b": [[None, {"c": (2, 0.5)}]]}], "d": "x"}
    with pytest.raises(TypeError):
        report_to_json_bytes(value)


# The writer splits the report's top two levels into their keys and items
# and hands each value below them to the C encoder; the cases below put
# what it writes itself and what it hands over on either side, at every
# depth up to nine.


def _nest(value, depth: int):
    """value under depth levels of one-key dicts and one-item lists."""
    for level in range(depth):
        value = {"k": value} if level % 2 else [value]
    return value


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_values, st.integers(0, 8), st.integers(0, 3))
def test_a_shared_subtree_is_written_at_each_place(shared, depth, gap):
    # it sits twice at depth + 1 and once at depth + 2 + gap, above, at and
    # below the depth the walk stops at
    value = _nest({"a": shared, "b": _nest([shared], gap), "c": 1,
                   "d": shared}, depth)
    assert report_to_json_bytes(value) == _reference(value)


@pytest.mark.parametrize("keys", [(0, -3, 2**70), (True, False), (None,)])
def test_non_string_keys_at_walked_levels(keys):
    for depth in range(9):
        value = _nest(dict.fromkeys(keys, [depth]), depth)
        assert report_to_json_bytes(value) == _reference(value)


@pytest.mark.parametrize("depth", [0, 3, 5, 6, 9])
def test_mixed_key_types_are_rejected_at_every_level(depth):
    value = _nest({1: "a", "b": 2}, depth)
    with pytest.raises(TypeError):
        _reference(value)
    with pytest.raises(TypeError):
        report_to_json_bytes(value)


@pytest.mark.parametrize("depth", [0, 4, 5, 6, 7])
def test_a_float_in_a_shared_subtree_is_rejected(depth):
    shared = {"x": [1, {"f": 0.5}]}
    value = _nest({"a": shared, "b": [[shared]]}, depth)
    with pytest.raises(TypeError):
        report_to_json_bytes(value)


def test_the_writer_holds_little_beside_its_output():
    """Each distinct subtree of the D8 report is encoded once and the parts
    are joined once: the writer's peak stays under six times the bytes it
    returns (one C-encoder call over the whole report peaked at 9.0)."""
    report = run(VerificationPlan(group="builtin:D8", prime=2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = report_to_json_bytes(report)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out == _reference(report)
    assert peak < 6 * len(out)


# ------------------------------------------------------- the markdown writer


def test_markdown_renders_notes_and_sections_no_real_input_reaches():
    """A SKIPPED edge prints its note, a suite without edges prints its
    own note, a condition witness that is neither a subgroup nor a
    commuting product prints as compact JSON, and collection sizes and
    conditions print in KINDS and CONDITIONS order, whatever the order of
    their keys.
    No builtin or test-data input has a SKIPPED edge: Cl or Ch always
    holds."""
    report = {
        "group": {"name": "G", "order": 4, "degree": 4},
        "plan": {"prime": 2, "suite": "all"},
        "lattice": {"subgroups": 5, "conjugacy_classes": 5},
        "summary": {"edges": 1, "by_status": {"SKIPPED": 1},
                    "chain_violations": 1},
        "collections": {"S": 4, "A": 3},
        "suites": {
            "table31": {"edges": [{
                "row": "EO", "kinds": ["E", "tilde-A"], "style": "solid",
                "conditions": ["Cl", "Ch"], "status": "SKIPPED",
                "detail": {"note": "no gating condition holds"}}]},
            "counterexamples": {"edges": [], "note": "none documented"},
            "inclusions": {"chains": [
                {"smaller": "A", "larger": "S", "holds": True,
                 "violations": []},
                {"smaller": "E", "larger": "A", "holds": False,
                 "violations": [3, 4]}]},
            "conditions": {
                "reports": {
                    "Ch": {"holds": True, "witnesses": []},
                    "Cl": {"holds": False, "witnesses": [
                        {"generators": "(0 1)"}, {"x": "a"}]}},
                "radical_collections_coincide": {"equal": True}},
        },
        "evidence": [],
        "not_checked": ["the rest"],
    }
    assert report_to_markdown(report).decode() == """\
# Collection comparison report

Group **G** of order 4 (degree 4), p = 2, suite `all`.

Lattice: 5 subgroups in 5 conjugacy classes.

## Summary

- edges checked: 1
- SKIPPED: 1
- inclusion chain violations: 1

## Collection sizes

| A | S |
|---|---|
| 3 | 4 |

## table31

| edge | style | conditions | status | evidence |
|---|---|---|---|---|
| EO: E / tilde-A | solid | Cl, Ch | SKIPPED | no gating condition holds |

## counterexamples

none documented

## inclusion chains

| smaller | larger | holds | violations |
|---|---|---|---|
| A | S | True | — |
| E | A | False | 3, 4 |

## conditions

| condition | holds | witnesses |
|---|---|---|
| Cl | False | (0 1); {"x":"a"} |
| Ch | True | — |

- radical collections coincide: True

## Not checked

- the rest
"""


@pytest.mark.parametrize("name,p", SUITE)
def test_markdown_of_a_report_read_back_from_its_json_is_the_same(name, p):
    # the JSON sorts every key, so the markdown may not follow key order
    report = run(VerificationPlan(group=f"builtin:{name}", prime=p))
    read_back = json.loads(report_to_json_bytes(report))
    assert report_to_markdown(read_back) == report_to_markdown(report)


# ------------------------------------------- the evidence list and converters


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "docs" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


report_4_to_5 = _load("report_4_to_5")
report_5_to_6 = _load("report_5_to_6")
report_6_to_7 = _load("report_6_to_7")
GOLDEN = Path(__file__).parent / "golden" / "d8_table31.json"
# the golden file as sclab-report/5 and /6 wrote it
GOLDEN_5 = Path(__file__).parent / "golden" / "d8_table31_report5.json"
GOLDEN_6 = Path(__file__).parent / "golden" / "d8_table31_report6.json"


@pytest.mark.parametrize("name,p", SUITE)
def test_each_piece_of_evidence_is_listed_once(name, p):
    """Every citation is the number of an entry; no two entries are equal;
    the entries stand in the order the report first cites them; inlining
    them and citing them again gives the same bytes; and each pruning pair
    has one upper entry, which its EO and C edges both cite."""
    report = run(VerificationPlan(group=f"builtin:{name}", prime=p))
    evidence = report["evidence"]
    firsts = []
    pruning = {}
    for suite in sorted(report["suites"]):
        for edge in report["suites"][suite].get("edges", ()):
            for key in CITED:
                n = edge["detail"].get(key)
                if n is None:
                    continue
                assert type(n) is int and 0 <= n < len(evidence)
                if n not in firsts:
                    firsts.append(n)
                if key == "inclusion" and evidence[n]["mode"] == "upper":
                    pruning.setdefault(n, set()).add(edge["row"])
    assert firsts == list(range(len(evidence)))
    assert all(a != b for i, a in enumerate(evidence)
               for b in evidence[i + 1:])
    assert pruning and all(rows == {"EO", "C"} for rows in pruning.values())
    old = inline_evidence(json.loads(report_to_json_bytes(report)))
    old["evidence"] = cite_evidence(old["suites"])
    old["format"] = report["format"]
    assert report_to_json_bytes(old) == report_to_json_bytes(report)


def test_converter_carries_the_report_4_golden_file_to_the_engine_bytes():
    # the /4 golden file, rebuilt by inlining the stored /5 one's evidence
    # (test_cli checks it against the digest of the /4 bytes), goes to the
    # stored /5 bytes, those to the stored /6 bytes, and those to the bytes
    # the engine writes
    stored = GOLDEN_5.read_bytes()
    old = inline_evidence(json.loads(stored))
    assert report_to_json_bytes(report_4_to_5.upgrade(old)) == stored
    stored_6 = GOLDEN_6.read_bytes()
    assert report_to_json_bytes(
        report_5_to_6.upgrade(json.loads(stored))) == stored_6
    engine = report_to_json_bytes(run(VerificationPlan(
        group="builtin:D8", prime=2, suite="table31")))
    assert report_to_json_bytes(
        report_6_to_7.upgrade(json.loads(stored_6))) == engine
    assert engine == GOLDEN.read_bytes()


@pytest.mark.parametrize("fmt", ["sclab-report/3", "sclab-report/5", None])
def test_converter_refuses_a_document_not_in_report_4(fmt):
    report = json.loads(GOLDEN.read_bytes())
    report["format"] = fmt
    with pytest.raises(SystemExit):
        report_4_to_5.upgrade(report)


@pytest.mark.parametrize("fmt", ["sclab-report/4", "sclab-report/6", None])
def test_converter_refuses_a_document_not_in_report_5(fmt):
    report = json.loads(GOLDEN_5.read_bytes())
    report["format"] = fmt
    with pytest.raises(SystemExit):
        report_5_to_6.upgrade(report)


def _report_5() -> dict:
    """The sclab-report/5 form of the table31 report of S4 at 2, whose
    dashed edges cite a second Sylow group: the /7 report with a plain
    upper check cited by each EO pruning edge, and the /5 keys back. Its
    scans keep the /7 rows, one per class, which report_6_to_7 keeps."""
    report = inline_evidence(run(VerificationPlan(
        group="builtin:S4", prime=2, suite="table31")))
    report["format"] = "sclab-report/5"
    for edge in report["suites"]["table31"]["edges"]:
        detail = edge["detail"]
        if "second_sylow" in detail:
            detail["second_sylow"]["agrees"] = True
        inclusion = detail.get("inclusion")
        if inclusion is None:
            continue
        inclusion = detail["inclusion"] = copy.deepcopy(inclusion)
        inclusion["claim"] = "..."
        for row in inclusion["per_element"]:
            row[2]["detail"] = {}
        if inclusion["mode"] == "upper":
            if edge["row"] == "C":
                inclusion["mode"] = "upper-equivariant"
            else:
                for row in inclusion["per_element"]:
                    row[1] = row[2]["equivariant"] = None
    report["evidence"] = cite_evidence(report["suites"])
    return report


def test_converter_carries_a_plain_pruning_check_to_its_equivariant_twin():
    engine = report_to_json_bytes(run(VerificationPlan(
        group="builtin:S4", prime=2, suite="table31")))
    old = _report_5()
    assert len(old["evidence"]) == len(json.loads(engine)["evidence"]) + 1
    assert report_to_json_bytes(
        report_6_to_7.upgrade(report_5_to_6.upgrade(old))) == engine


def test_converter_refuses_what_report_6_cannot_hold():
    # a second Sylow that disagrees stops a /6 run as an internal fault
    report = _report_5()
    edge = next(e for e in report["suites"]["table31"]["edges"]
                if "second_sylow" in e["detail"])
    edge["detail"]["second_sylow"]["agrees"] = False
    with pytest.raises(SystemExit, match="second Sylow"):
        report_5_to_6.upgrade(report)
    # the EO pruning edge grades from its C edge's statuses
    report = _report_5()
    edge = next(e for e in report["suites"]["table31"]["edges"]
                if e["edge"] == "table31:EO:tilde-S--tilde-B")
    plain = report["evidence"][edge["detail"]["inclusion"]]
    plain["per_element"][0][2]["status"] = "UNKNOWN"
    with pytest.raises(SystemExit, match="same statuses"):
        report_5_to_6.upgrade(report)


@pytest.mark.parametrize("fmt", ["sclab-report/5", "sclab-report/7", None])
def test_converter_refuses_a_document_not_in_report_6(fmt):
    report = json.loads(GOLDEN_6.read_bytes())
    report["format"] = fmt
    with pytest.raises(SystemExit, match="not an sclab-report/6"):
        report_6_to_7.upgrade(report)


def test_converter_refuses_a_group_whose_generators_miss_its_hash():
    report = json.loads(GOLDEN_6.read_bytes())
    report["group"]["hash"] = "0" * 64
    with pytest.raises(SystemExit, match="hash"):
        report_6_to_7.upgrade(report)


def test_converter_refuses_a_scan_whose_conjugate_rows_differ():
    # D8 has two classes of two reflections, so its scans have rows at
    # conjugate subgroups; tampering with the later row of such a pair
    # leaves the two rows of one class in disagreement
    report = json.loads(GOLDEN_6.read_bytes())
    lat = report_6_to_7.lattice_of(report)
    n, i = next(
        (n, i) for n, entry in enumerate(report["evidence"])
        if isinstance(entry, dict) and "per_subgroup" in entry
        for i, row in enumerate(entry["per_subgroup"])
        if any(lat.class_of[earlier["subgroup"]]
               == lat.class_of[row["subgroup"]]
               for earlier in entry["per_subgroup"][:i]))
    for key, value in (("order", 0), ("status", "MISMATCH"),
                       ("method", "homology"), ("detail", {"size": -1})):
        tampered = copy.deepcopy(report)
        tampered["evidence"][n]["per_subgroup"][i][key] = value
        with pytest.raises(SystemExit, match="conjugate"):
            report_6_to_7.upgrade(tampered)
    # the certificate names the conjugate, so it alone may differ
    report["evidence"][n]["per_subgroup"][i]["certificate"] = None
    assert report_6_to_7.upgrade(report)["format"] == "sclab-report/7"
