"""Integral homology of small complexes with hand-checkable answers.

The torsion fixtures (a 6-vertex projective plane and a mod-3 Moore
space) leave columns after the unit pivots, so they exercise the dense
Smith normal form on the remainder; everything else pins the
reduced-homology conventions. The dense boundary matrices of the test
oracle cross-check the sparse route on every Table 3.1 nerve of the suite.
"""

import importlib
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import sclab
from sclab.collections import collection_context
from sclab.errors import InternalInconsistency
from sclab.homology import (
    CHECK_PRIME,
    HomologyProfile,
    boundary_columns,
    eliminate,
    homology,
    smith_normal_form,
)
from sclab.poset import OrderComplex, order_complex
from sclab.tables import TABLE31_EDGES

from _naive import boundary_matrix, rank_mod, rank_over_rationals
from _suite import SUITE, from_maximal_simplices, lattice_of


def complex_of(maximal):
    return from_maximal_simplices(maximal)


# ---------------------------------------------------------------- fixtures

# Antipodal-quotient triangulation of the projective plane on the
# vertices 0..5 (the quotient of the icosahedron boundary).
RP2_FACETS = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
]

# Disc triangulated as a 9-gon annulus plus a cone, with the outer rim
# glued onto a 3-cycle.  QMAP traverses the cycle forward twice and
# backward once, which kills the fundamental group (dunce hat); the
# all-forward variant wraps three times and leaves Z/3 in H1.
QMAP = {0: 0, 1: 1, 2: 2, 3: 0, 4: 1, 5: 2, 6: 0, 7: 2, 8: 1}
CONE = ("c",)


def _disc_with_rim(rim_vertex):
    def q(k):
        return rim_vertex(k % 9)

    def inner(k):
        return ("i", k % 9)

    facets = []
    for k in range(9):
        facets.append((q(k), q(k + 1), inner(k)))
        facets.append((q(k + 1), inner(k), inner(k + 1)))
        facets.append((inner(k), inner(k + 1), CONE))
    return facets


DUNCE_FACETS = _disc_with_rim(lambda k: ("q", QMAP[k]))
MOORE3_FACETS = _disc_with_rim(lambda k: ("q", k % 3))


# ------------------------------------------------------- linear algebra


def test_smith_normal_form_small_oracle():
    # det = -8, content = 2, so the diagonal must be 2, 4
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]


def test_smith_normal_form_identity_and_zero():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[6]]) == [6]


def test_smith_normal_form_rectangular():
    # rank 1: every row is a multiple of (1, 2, 3)
    assert smith_normal_form([[1, 2, 3], [2, 4, 6]]) == [1]


def test_rank_functions_agree_with_divisors():
    mat = [[2, 4], [6, 8]]
    divisors = smith_normal_form(mat)
    assert rank_over_rationals(mat) == len(divisors) == 2
    # a prime kills exactly the divisors it divides
    assert rank_mod(mat, 2) == sum(1 for d in divisors if d % 2)
    assert rank_mod(mat, 3) == sum(1 for d in divisors if d % 3)
    assert rank_mod(mat, 2) == 0
    assert rank_mod(mat, 3) == 2


def test_boundary_matrix_k0_is_augmentation():
    cx = complex_of([(0,), (1,), (2,)])
    assert boundary_matrix(cx, 0) == [[1, 1, 1]]
    assert boundary_matrix(OrderComplex({}), 0) == []


def test_boundary_matrix_signs():
    cx = complex_of([(0, 1, 2)])
    d2 = boundary_matrix(cx, 2)
    # faces ordered (0,1), (0,2), (1,2); d(012) = 12 - 02 + 01
    col = [row[0] for row in d2]
    assert col == [1, -1, 1]


# ------------------------------------------------------------- profiles


def test_point_has_trivial_reduced_homology():
    prof = homology(complex_of([(0,)]))
    assert prof.reduced_betti == ()
    assert prof.torsion == ()
    assert prof.trivial
    assert prof.euler_characteristic == 1


def test_cone_is_trivial():
    assert homology(complex_of([(0, 1, 2)])).trivial


def test_two_points():
    prof = homology(complex_of([(0,), (1,)]))
    assert prof.reduced_betti == (1,)
    assert not prof.trivial
    assert prof.euler_characteristic == 2


def test_circle():
    prof = homology(complex_of([(0, 1), (1, 2), (0, 2)]))
    assert prof.reduced_betti == (0, 1)
    assert prof.torsion == ()
    assert prof.euler_characteristic == 0


def test_two_sphere():
    facets = list(combinations(range(4), 3))
    prof = homology(complex_of(facets))
    assert prof.reduced_betti == (0, 0, 1)
    assert prof.euler_characteristic == 2


def test_disjoint_triangles():
    prof = homology(complex_of([(0, 1, 2), (3, 4, 5)]))
    assert prof.reduced_betti == (1,)
    assert prof.euler_characteristic == 2


def test_projective_plane_torsion():
    cx = complex_of(RP2_FACETS)
    assert cx.counts() == (6, 15, 10)
    prof = homology(cx)
    assert prof.reduced_betti == ()
    assert prof.torsion == ((), (2,))
    assert prof.euler_characteristic == 1
    assert not prof.trivial


def test_projective_plane_mod_2_ranks():
    cx = complex_of(RP2_FACETS)
    d2 = boundary_matrix(cx, 2)
    divisors = smith_normal_form(d2)
    # exactly one elementary divisor is even, so the mod-2 rank drops by one
    assert rank_mod(d2, 2) == len(divisors) - 1
    assert rank_mod(d2, 3) == len(divisors)
    columns = boundary_columns(cx, 2)
    for q in (2, 3, CHECK_PRIME):
        pivots, rest = eliminate(columns, q)
        assert (len(pivots), rest) == (rank_mod(d2, q), [])


def test_dunce_hat_contractible_homology():
    prof = homology(complex_of(DUNCE_FACETS))
    assert prof.trivial
    assert prof.euler_characteristic == 1


def test_moore_space_mod_3():
    prof = homology(complex_of(MOORE3_FACETS))
    assert prof.reduced_betti == ()
    assert prof.torsion == ((), (3,))
    assert prof.euler_characteristic == 1


def test_empty_complex_profile():
    prof = homology(OrderComplex({}))
    assert prof.empty
    assert not prof.trivial
    assert prof.reduced_betti == ()
    assert prof.euler_characteristic == 0


def test_profile_to_json_roundtrips_fields():
    prof = homology(complex_of(RP2_FACETS))
    js = prof.to_json()
    assert js["reduced_betti"] == []
    assert js["torsion"] == [[], [2]]
    assert js["euler_characteristic"] == 1
    assert js["empty"] is False


def test_euler_characteristic_matches_alternating_sum():
    for facets in ([(0, 1), (1, 2), (0, 2)], RP2_FACETS, DUNCE_FACETS):
        cx = complex_of(facets)
        assert homology(cx).euler_characteristic == cx.euler_characteristic()


# ------------------------------------------------------ consistency checks

_FORCED_RANK_DISAGREEMENT = """
import importlib

from sclab.errors import InternalInconsistency
from sclab.poset import OrderComplex

# the package re-exports the function homology under the submodule's name
h = importlib.import_module("sclab.homology")
true_eliminate = h.eliminate


def one_more_pivot_mod_q(columns, q=None):
    pivots, rest = true_eliminate(columns, q)
    return (pivots + [-1] if q is not None else pivots), rest


h.eliminate = one_more_pivot_mod_q
circle = OrderComplex({0: [(0,), (1,), (2,)], 1: [(0, 1), (0, 2), (1, 2)]})
try:
    h.homology(circle)
except InternalInconsistency:
    raise SystemExit(0)
raise SystemExit(1)
"""


def _homology_module():
    return importlib.import_module("sclab.homology")


def test_rank_disagreement_raises(monkeypatch):
    def one_more_pivot_mod_q(columns, q=None):
        pivots, rest = eliminate(columns, q)
        return (pivots + [-1] if q is not None else pivots), rest

    monkeypatch.setattr(_homology_module(), "eliminate", one_more_pivot_mod_q)
    with pytest.raises(InternalInconsistency, match="ranks disagree"):
        homology(complex_of([(0, 1), (1, 2), (0, 2)]))


def test_rank_disagreement_raises_under_optimize():
    src = Path(sclab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-O", "-c",
                           _FORCED_RANK_DISAGREEMENT],
                          env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()


def test_nonzero_boundary_of_boundary_raises(monkeypatch):
    def flipped(complex_, k):
        columns = boundary_columns(complex_, k)
        if k == 2:
            row = min(columns[0])
            columns[0][row] = -columns[0][row]
        return columns

    monkeypatch.setattr(_homology_module(), "boundary_columns", flipped)
    with pytest.raises(InternalInconsistency, match="boundary of boundary"):
        homology(complex_of([(0, 1, 2)]))


def test_extra_invariant_factor_raises(monkeypatch):
    true_snf = smith_normal_form
    monkeypatch.setattr(_homology_module(), "smith_normal_form",
                        lambda mat: true_snf(mat) + [1])
    with pytest.raises(InternalInconsistency, match="ranks disagree"):
        homology(complex_of([(0, 1, 2)]))


# ------------------------------------------------- sparse against dense


def _dense_profile(cx) -> HomologyProfile:
    """The profile from the oracle's dense boundary matrices, each put
    whole into Smith normal form."""
    dim = cx.dimension
    snf = [smith_normal_form(boundary_matrix(cx, k)) for k in range(dim + 2)]
    betti = [len(cx.simplices[k]) - len(snf[k]) - len(snf[k + 1])
             for k in range(dim + 1)]
    torsion = [tuple(d for d in snf[k + 1] if d > 1) for k in range(dim + 1)]
    nb, nt = HomologyProfile._normalize(betti, torsion)
    return HomologyProfile(nb, nt, cx.euler_characteristic())


TABLE31_KINDS = sorted({kind for spec in TABLE31_EDGES for kind in spec.kinds})


@pytest.mark.parametrize("name,p", SUITE)
def test_sparse_homology_matches_dense_on_table31_nerves(name, p):
    lat = lattice_of(name)
    ctx = collection_context(lat, p)
    for kind in TABLE31_KINDS:
        cx = order_complex(ctx.collection(kind))
        if cx.is_empty():
            continue
        assert homology(cx) == _dense_profile(cx), kind


def test_boundary_columns_are_the_dense_columns():
    cx = complex_of(RP2_FACETS)
    for k in range(cx.dimension + 1):
        dense = boundary_matrix(cx, k)
        assert [[col.get(r, 0) for r in range(len(dense))]
                for col in boundary_columns(cx, k)] \
            == [list(col) for col in zip(*dense)]


@pytest.mark.parametrize("facets,factor", [(RP2_FACETS, 2),
                                           (MOORE3_FACETS, 3)])
def test_torsion_comes_from_the_remainder_after_unit_pivots(facets, factor):
    cx = complex_of(facets)
    pivots, rest = eliminate(boundary_columns(cx, 2))
    assert rest, "the unit pivots must leave the torsion column"
    assert all(v % factor == 0 for col in rest for v in col.values())
    remainder = [[col.get(r, 0) for col in rest]
                 for r in sorted({r for col in rest for r in col})]
    assert [1] * len(pivots) + smith_normal_form(remainder) \
        == smith_normal_form(boundary_matrix(cx, 2))
    assert homology(cx) == _dense_profile(cx)
    assert homology(cx).torsion == ((), (factor,))
