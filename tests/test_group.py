import random
import tracemalloc
from pathlib import Path

import pytest

import _naive as naive
from _suite import SMALL_SUITE
from sclab.errors import CapExceeded, ParseError, UnknownBuiltin
from sclab.perm import Permutation
from sclab.group import (PermutationGroup, builtin_group, load_group,
                         parse_group_text, positions)

DATA = Path(__file__).parent / "data"

# orders of the builtin groups are textbook facts
BUILTIN_ORDERS = {"D8": 8, "Q8": 8, "S3": 6, "S4": 24, "S5": 120,
                  "A4": 12, "A5": 60, "D12": 12, "SL23": 24}


def test_builtin_orders():
    for name, order in BUILTIN_ORDERS.items():
        assert builtin_group(name).order == order, name


def test_cyclic_builtin():
    z12 = builtin_group("Zn:12")
    assert z12.order == 12
    # order of k in Z/12 is 12/gcd(12, k)
    assert sorted(z12.element_orders) == [1, 2, 3, 3, 4, 4, 6, 6, 12, 12, 12, 12]


def _dihedral(n):
    # the rotation i -> i+1 and the reflection i -> 2-i of the n-gon
    return [tuple((i + 1) % n for i in range(n)),
            tuple((2 - i) % n for i in range(n))]


def _quaternion8():
    # left multiplication by i and j on 1, -1, i, -i, j, -j, k, -k, each
    # unit a sign and one of 1, i, j, k, with ij = k, jk = i, ki = j
    units = [(s, u) for u in "1ijk" for s in (1, -1)]

    def times(a, b):
        (sa, ua), (sb, ub) = a, b
        if "1" in (ua, ub):
            return sa * sb, ua if ub == "1" else ub
        if ua == ub:
            return -sa * sb, "1"
        cyclic = "ijk".index(ub) == ("ijk".index(ua) + 1) % 3
        (w,) = set("ijk") - {ua, ub}
        return (sa * sb if cyclic else -sa * sb), w

    return [tuple(units.index(times(x, y)) for y in units)
            for x in ((1, "i"), (1, "j"))]


def _sl23():
    # [[1,1],[0,1]] and [[0,2],[1,0]] on the nonzero vectors of F_3^2 in
    # lexicographic order
    vectors = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    return [tuple(vectors.index(((a * x + b * y) % 3, (c * x + d * y) % 3))
                  for x, y in vectors)
            for a, b, c, d in ((1, 1, 0, 1), (0, 2, 1, 0))]


@pytest.mark.parametrize("name,group,degree,images", [
    ("D8", "D8", 4, _dihedral(4)),
    ("D12", "D12", 6, _dihedral(6)),
    ("Q8", "Q8", 8, _quaternion8()),
    ("SL23", "SL23", 8, _sl23()),
    ("Zn:7", "Z7", 7, [tuple((i + 1) % 7 for i in range(7))]),
    ("Zn:1", "Z1", 1, []),
])
def test_builtins_match_their_definitions(name, group, degree, images):
    """Each builtin's generator text is the group its definition builds."""
    g = builtin_group(name)
    assert (g.name, g.degree) == (group, degree)
    assert [s.images for s in g.generators] == images


def test_order_cap_stops_a_builtin_closure():
    # the closure stops past the cap, as it does for a group file, rather
    # than materializing all 3,000 elements first
    with pytest.raises(CapExceeded,
                       match="group closure exceeded the order cap 2000"):
        load_group("builtin:Zn:3000", max_order=2000)
    assert load_group("builtin:S5", max_order=120).order == 120


def test_an_over_cap_generator_is_rejected_before_the_closure():
    # the 3,000-cycle alone has order 3,000 > 2,000, so no element is built
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="order cap 2000"):
            load_group("builtin:Zn:3000", max_order=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_closure_over_the_cap_holds_only_the_moved_points():
    # seven adjacent transpositions generate S8 (order 40,320) on 3,000
    # points; the closure passes the cap on images of the 8 moved points
    text = "degree 3000\n" + "".join(f"gen ({i} {i + 1})\n" for i in range(7))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="order cap 2000"):
            parse_group_text(text, max_order=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_unknown_builtin_lists_choices():
    with pytest.raises(UnknownBuiltin) as exc:
        builtin_group("M11")
    assert "D8" in str(exc.value)


def test_identity_is_index_zero():
    for name in BUILTIN_ORDERS:
        g = builtin_group(name)
        assert naive.is_identity(g.images[0])


def test_element_orders_q8():
    # Q8: one identity, one involution, six elements of order 4
    orders = sorted(builtin_group("Q8").element_orders)
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_d8_involution_count():
    # D8 has five involutions: r^2 and four reflections
    orders = builtin_group("D8").element_orders
    assert sum(1 for o in orders if o == 2) == 5


def test_mul_inv_tables_agree():
    g = builtin_group("S4")
    mul, inv = g.mul, g.inv
    for x in range(0, g.order, 5):
        assert mul[x][inv[x]] == 0
        assert mul[inv[x]][x] == 0


def test_conjugacy_class_sizes_s4():
    # 1 + 6 + 3 + 8 + 6 by cycle type
    sizes = sorted(len(c) for c in naive.conjugacy_classes(builtin_group("S4")))
    assert sizes == [1, 3, 6, 6, 8]


def test_conjugacy_class_sizes_a5():
    sizes = sorted(len(c) for c in naive.conjugacy_classes(builtin_group("A5")))
    assert sizes == [1, 12, 12, 15, 20]


def test_parse_group_text():
    g = parse_group_text("degree 3\ngen (0 1 2)\n")
    assert g.order == 3
    assert g.degree == 3


def test_parse_group_text_comments_and_blanks():
    text = "# a comment\ndegree 4\n\ngen (0 1 2 3)\ngen (0 1)  # inline\n"
    assert parse_group_text(text).order == 24


def test_parse_group_text_errors_carry_line():
    with pytest.raises(ParseError) as exc:
        parse_group_text("degree 3\ngen (0 9)\n", source="f.grp")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_group_text("gen (0 1)\n")  # degree line missing


@pytest.mark.parametrize("text,line,column,message", [
    ("degree x\n", 1, 8, "bad degree 'x'"),
    ("  degree   x\n", 1, 12, "bad degree 'x'"),
    ("degree 0\n", 1, 8, "degree must be at least 1"),
    ("degree 3\n  perm (0 1)\n", 2, 3, "expected 'gen <cycles>'"),
    ("", 1, 1, "empty group file"),
    ("# a comment only\n\n", 1, 1, "empty group file"),
    # an inline comment does not shift the column of an error before it
    ("degree 3\ngen (0 9)  # note\n", 2, 8, "point 9 out of range"),
    ("degree 3\n gen (0 9)\n", 2, 9, "point 9 out of range"),
])
def test_parse_errors_point_at_the_fault(text, line, column, message):
    with pytest.raises(ParseError, match=message) as exc:
        parse_group_text(text, source="f.grp")
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value).startswith(f"f.grp:{line}:{column}: ")


def test_load_group_builtin_and_file(tmp_path):
    assert load_group("builtin:D8").order == 8
    path = tmp_path / "c7.grp"
    path.write_text("degree 7\ngen (0 1 2 3 4 5 6)\n")
    assert load_group(str(path)).order == 7


def test_from_generators_max_order_cap():
    nine_cycle = Permutation(tuple(range(1, 9)) + (0,))
    with pytest.raises(CapExceeded):
        PermutationGroup.from_generators([nine_cycle], max_order=5)


def test_content_hash_distinguishes_and_repeats():
    d8 = builtin_group("D8")
    assert d8.content_hash == builtin_group("D8").content_hash
    assert d8.content_hash != builtin_group("Q8").content_hash


def test_generator_indices_generate():
    g = builtin_group("SL23")
    seed = 0
    bits = g.closure_bitset(
        sum(1 << i for i in g.generator_indices) | 1)
    assert bits == g.full_bitset
    assert seed == 0


# a generator list may hold the identity and repeat an element
REPEATS = "degree 4\ngen ()\ngen (0 1 2 3)\ngen (0 1)\ngen (0 1 2 3)\n"


def _table_groups():
    """Every builtin, the trivial group, two data files, generator lists
    with the identity and repeats, and a group that fixes points 0, 2 and 4."""
    groups = [builtin_group(name) for name in (*BUILTIN_ORDERS, "Zn:1")]
    groups += [load_group(str(DATA / name)) for name in ("psl27.grp", "z2_4.grp")]
    groups += [parse_group_text(REPEATS, source="repeats.grp"),
               parse_group_text("degree 3\ngen ()\n", source="identity.grp"),
               parse_group_text("degree 7\ngen (1 3 5)\ngen (3 6)\n",
                                source="fixed-points.grp")]
    return groups


def test_multiplication_table_matches_permutation_products():
    for g in _table_groups():
        where = {pa: a for a, pa in enumerate(g.images)}
        for a, pa in enumerate(g.images):
            for b, pb in enumerate(g.images):
                assert g.mul[a][b] == where[naive.compose(pa, pb)], (
                    g.name, a, b)


def test_tables_match_permutation_arithmetic():
    # the tables come from image tuples: mul composes them, inv reads each
    # mul row, and element_orders are the sizes of the cyclic subgroups
    groups = [builtin_group(name) for name in (*BUILTIN_ORDERS, "Zn:12")]
    groups += [load_group(str(DATA / name)) for name in ("psl27.grp", "d8xz2.grp")]
    for g in groups:
        perms = sorted(map(Permutation, g.images))
        assert perms == list(map(Permutation, g.images)), g.name
        assert naive.is_identity(perms[0].images), g.name
        where = {pa: a for a, pa in enumerate(g.images)}
        assert g.generator_indices == tuple(where[s.images]
                                            for s in g.generators)
        for a, pa in enumerate(g.images):
            assert g.mul[a] == [where[naive.compose(pa, pb)]
                                for pb in g.images], (g.name, a)
            assert g.inv[a] == where[naive.inverse(pa)], (g.name, a)
            assert g.element_orders[a] == naive.permutation_order(pa), (
                g.name, a)
            assert g.element_string(a) == Permutation(pa).cycle_string()


def test_generator_lists_with_identity_and_repeats():
    g = parse_group_text(REPEATS)
    assert g.order == 24 and g.generator_indices[0] == 0
    assert len(set(g.generator_indices)) == 3
    assert parse_group_text("degree 3\ngen ()\n").mul == [[0]]


def test_conjugation_column_matches_naive():
    for g in _table_groups():
        x = g.generator_indices[-1] if g.generator_indices else 0
        col = g.conjugation_column(x)
        assert col == [naive.conj(g, h, x) for h in range(g.order)], g.name
        assert g.conjugation_column(x) is col
    s4 = builtin_group("S4")
    for x in range(s4.order):
        assert s4.conjugation_column(x) == [naive.conj(s4, h, x)
                                           for h in range(s4.order)]


def test_closure_matches_naive_on_random_seeds():
    rng = random.Random(5)
    for name in sorted({name for name, _ in SMALL_SUITE}):
        g = builtin_group(name)
        for _ in range(40):
            seed = rng.sample(range(g.order), rng.randint(0, min(3, g.order)))
            bits = g.closure_bitset(sum(1 << x for x in seed))
            assert frozenset(positions(bits)) == \
                naive.closure(g.mul, seed), (name, seed)
