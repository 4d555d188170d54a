import pytest

from sclab.errors import ParseError
from sclab.perm import Permutation, parse_cycles

import _naive as naive


def test_identity_and_call():
    e = naive.identity(4)
    assert naive.is_identity(e)
    assert [e[i] for i in range(4)] == [0, 1, 2, 3]
    assert naive.permutation_order(e) == 1
    assert Permutation(e).cycle_string() == "()"


def test_composition_order_convention():
    # (a*b)(x) = a(b(x)): apply b first
    a = parse_cycles("(0 1)", 3).images
    b = parse_cycles("(1 2)", 3).images
    ab = naive.compose(a, b)
    assert ab[1] == 2  # b sends 1 to 2, a fixes 2
    assert ab[2] == 0
    assert Permutation(ab).cycles() == [(0, 1, 2)]


def test_inverse():
    g = parse_cycles("(0 1 2 3)(4 5)", 6).images
    assert naive.is_identity(naive.compose(g, naive.inverse(g)))
    assert naive.is_identity(naive.compose(naive.inverse(g), g))
    assert Permutation(naive.inverse(g)).cycles() == [(0, 3, 2, 1), (4, 5)]


def test_orders():
    for text, degree, order in [("(0 1 2 3)(4 5)", 6, 4),
                                ("(0 1 2)(3 4)", 5, 6), ("(0 1)", 2, 2)]:
        images = parse_cycles(text, degree).images
        assert naive.permutation_order(images) == order


def test_cycle_roundtrip():
    for text in ["(0 1 2 3)(4 5)", "(1 4)(2 3)", "(0 2 4)"]:
        g = parse_cycles(text, 6)
        assert parse_cycles(g.cycle_string(), 6) == g


def test_cycles_canonical_form():
    # each cycle starts at its smallest point; cycles sorted by first point
    g = parse_cycles("(3 2 1)(5 4)", 6)
    assert g.cycles() == [(1, 3, 2), (4, 5)]


def test_parse_identity_token():
    assert naive.is_identity(parse_cycles("()", 3).images)


def test_parse_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_cycles("(0 1", 3)
    with pytest.raises(ParseError):
        parse_cycles("(0 5)", 3)  # point out of range
    with pytest.raises(ParseError):
        parse_cycles("(0 0)", 3)  # repeated point
    with pytest.raises(ParseError):
        parse_cycles("0 1)", 3)


def test_parse_error_carries_position():
    try:
        parse_cycles("(0 9)", 3, source="g.txt", line=7)
    except ParseError as exc:
        assert exc.line == 7
        assert exc.column >= 4
        assert "g.txt" in str(exc)
    else:
        raise AssertionError("expected ParseError")


def test_not_a_bijection_rejected():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_overlapping_cycles_apply_left_to_right():
    # (0 1) then (1 2): 0 -> 1 -> 2, 1 -> 0, 2 -> 1
    assert parse_cycles("(0 1)(1 2)", 3).images == (2, 0, 1)
    assert parse_cycles("(0 1 2)(0 2 1)", 3).images == (0, 1, 2)
    assert parse_cycles("(0 1)(0 1)(1 2 3)", 4).images == (0, 2, 3, 1)


def test_long_cycle_parses():
    # one cycle through 16,000 points; parsing is linear in its length
    n = 16_000
    text = "(" + " ".join(map(str, range(n))) + ")"
    assert parse_cycles(text, n).images == tuple(range(1, n)) + (0,)
