"""The JSON report writer against the format it defines:
json.dumps(report, sort_keys=True, indent=2) plus a trailing newline."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from sclab.report import report_to_json_bytes


def _reference(value) -> bytes:
    return (json.dumps(value, sort_keys=True, indent=2) + "\n").encode("utf-8")


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
