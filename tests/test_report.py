"""The JSON report writer against the format it defines:
json.dumps(report, sort_keys=True, separators=(",", ":")) plus a trailing
newline; the evidence list of sclab-report/5; and the converters
docs/report_3_to_4.py and docs/report_4_to_5.py, which carry an
sclab-report/3 document to /4 and a /4 document to /5."""

import copy
import importlib.util
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sclab.collections import collection_context
from sclab.contract import contractibility_verdict
from sclab.group import builtin_group, positions
from sclab.lattice import enumerate_subgroups
from sclab.report import CITED, report_to_json_bytes, report_to_markdown
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
    own note, and a condition witness that is neither a subgroup nor a
    commuting product prints as compact JSON.
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
                    "Cl": {"holds": False, "witnesses": [
                        {"generators": "(0 1)"}, {"x": "a"}]},
                    "Ch": {"holds": True, "witnesses": []}},
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

| S | A |
|---|---|
| 4 | 3 |

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


# --------------------------------------------------- the sclab-report/5 layout


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "docs" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


report_3_to_4 = _load("report_3_to_4")
report_4_to_5 = _load("report_4_to_5")
GOLDEN = Path(__file__).parent / "golden" / "d8_table31.json"


@pytest.mark.parametrize("name,p", SUITE)
def test_each_piece_of_evidence_is_listed_once(name, p):
    """Every citation is the number of an entry; no two entries are equal;
    the entries stand in the order the report first cites them; and
    inlining them gives a /4 report that the converter carries back to
    the same bytes."""
    report = run(VerificationPlan(group=f"builtin:{name}", prime=p))
    evidence = report["evidence"]
    firsts = []
    for suite in sorted(report["suites"]):
        for edge in report["suites"][suite].get("edges", ()):
            for key in CITED:
                n = edge["detail"].get(key)
                if n is None:
                    continue
                assert type(n) is int and 0 <= n < len(evidence)
                if n not in firsts:
                    firsts.append(n)
    assert firsts == list(range(len(evidence)))
    assert all(a != b for i, a in enumerate(evidence)
               for b in evidence[i + 1:])
    old = inline_evidence(json.loads(report_to_json_bytes(report)))
    assert (report_to_json_bytes(report_4_to_5.upgrade(old))
            == report_to_json_bytes(report))


def test_converter_carries_the_report_4_golden_file_to_the_engine_bytes():
    # the /4 golden file, rebuilt by inlining the current one's evidence;
    # test_cli checks it against the digest of the /4 bytes
    old = inline_evidence(json.loads(GOLDEN.read_bytes()))
    engine = report_to_json_bytes(run(VerificationPlan(
        group="builtin:D8", prime=2, suite="table31")))
    assert report_to_json_bytes(report_4_to_5.upgrade(old)) == engine


@pytest.mark.parametrize("fmt", ["sclab-report/3", "sclab-report/5", None])
def test_converter_refuses_a_document_not_in_report_4(fmt):
    report = json.loads(GOLDEN.read_bytes())
    report["format"] = fmt
    with pytest.raises(SystemExit):
        report_4_to_5.upgrade(report)


# ------------------------------------------------------ the /3 -> /4 converter


@pytest.fixture(scope="module")
def d8_as_report_3():
    """A D8 report in the sclab-report/4 form, the same report as /3 wrote
    it, where every fibers-mode inclusion also lists one certified cone
    fiber per class of members of the smaller collection, and those /3
    rows."""
    report = inline_evidence(run(VerificationPlan(group="builtin:D8",
                                                  prime=2)))
    lat = enumerate_subgroups(builtin_group("D8"))
    ctx = collection_context(lat, 2)
    old = copy.deepcopy(report)
    old["format"] = "sclab-report/3"
    cones = []
    for section in old["suites"].values():
        for edge in section.get("edges", ()):
            inclusion = edge["detail"].get("inclusion")
            if inclusion is None or inclusion["mode"] != "fibers":
                continue
            sub = ctx.collection(edge["kinds"][0])
            for y in positions(lat.first_of_each_class(sub.mask)):
                stab = lat.normalizer(y)
                verdict = contractibility_verdict(sub.below(y),
                                                  equivariant_under=stab)
                cones.append([y, stab, verdict.to_json()])
                inclusion["per_element"].append(cones[-1])
    assert cones
    return report, old, cones


def test_converter_drops_only_the_cone_fibers(d8_as_report_3):
    new, old, _ = d8_as_report_3
    upgraded = report_3_to_4.upgrade(copy.deepcopy(old))
    assert report_to_json_bytes(upgraded) == report_to_json_bytes(new)


@pytest.mark.parametrize("flaw", [{"status": "UNKNOWN"},
                                  {"equivariant": False}])
def test_converter_refuses_an_uncertified_cone_fiber(d8_as_report_3, flaw):
    _, old, cones = d8_as_report_3
    verdict = cones[-1][2]
    saved = dict(verdict)
    verdict.update(flaw)
    try:
        with pytest.raises(SystemExit):
            report_3_to_4.upgrade(copy.deepcopy(old))
    finally:
        verdict.update(saved)
