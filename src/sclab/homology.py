"""Reduced integer simplicial homology of order complexes.

Each boundary map C_k -> C_{k-1} is kept as sparse columns: the column of a
k-simplex maps the rows of its k+1 facets to the signs +-1 of the stored
orientation. ``eliminate`` pivots on every unit entry; row and column
operations of determinant +-1 keep the invariant factors, so each pivot
splits off a factor 1, and the dense ``smith_normal_form`` runs only on the
columns left (none, on every nerve met so far). The maps are taken from the
top dimension down: the simplex of each pivot row of the map above has a
column in the map below that is an integer combination of the other
columns there, so that column is left out.

Two checks run on the sparse columns. d(d(s)) = 0 is checked for each
(k+1)-simplex s by adding up the columns of its facets. Each rank is then
cross-checked by a separate elimination over F_q on the original columns:
the rank over F_q equals the number of invariant factors not divisible by
q. The identity is exact for every prime; q = 2**31 - 1 is large so that in
practice it divides no invariant factor, and the check then tests the full
rank and not just its mod-q part. Reduced homology uses the augmented chain
complex, so a point has trivial profile and the circle gets reduced_betti
(0, 1).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalInconsistency
from .poset import OrderComplex

CHECK_PRIME = 2**31 - 1


def smith_normal_form(matrix: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form; only the invariant factors are
    returned, in divisibility order. The input is not modified."""
    a = [row[:] for row in matrix]
    rows, cols = len(a), len(a[0]) if a else 0
    diag: list[int] = []
    top = 0
    while top < min(rows, cols):
        # the smallest entry of the block keeps coefficients tame; the first
        # one scanned, (top, top), stays unless a smaller one turns up
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if a[i][j] and (best is None or abs(a[i][j]) < best[0]):
                    best = (abs(a[i][j]), i, j)
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, i, j = best
        a[top], a[i] = a[i], a[top]
        for row in a:
            row[top], row[j] = row[j], row[top]
        pivot, at = a[top][top], a[top]
        for ai in a[top + 1:]:
            q = ai[top] // pivot
            if q:
                for j in range(top, cols):
                    ai[j] -= q * at[j]
        for j in range(top + 1, cols):
            q = at[j] // pivot
            if q:
                for row in a[top:]:
                    row[j] -= q * row[top]
        if any(ai[top] for ai in a[top + 1:]) or any(at[top + 1:]):
            continue  # a remainder smaller than the pivot is the next pivot
        # enforce divisibility against the untouched block
        bad = next((ai for ai in a[top + 1:]
                    if any(v % pivot for v in ai[top + 1:])), None)
        if bad is not None:
            for j in range(top + 1, cols):
                at[j] += bad[j]
            continue
        diag.append(abs(pivot))
        top += 1
    return diag


def boundary_columns(complex_: OrderComplex, k: int) -> list[dict[int, int]]:
    """Column j maps the row of each facet of the j-th k-simplex to its sign;
    k = 0 gives the augmentation onto the one row of the empty simplex."""
    if k == 0:
        return [{0: 1} for _ in complex_.simplices[0]]
    index = {s: i for i, s in enumerate(complex_.simplices[k - 1])}
    signs = [(-1) ** i for i in range(k + 1)]
    return [{index[s[:i] + s[i + 1:]]: signs[i] for i in range(k + 1)}
            for s in complex_.simplices[k]]


def _check_dd_zero(k: int, upper: list[dict], lower: list[dict]) -> None:
    for col in upper:
        total: dict[int, int] = {}
        for i, c in col.items():
            for r, v in lower[i].items():
                total[r] = total.get(r, 0) + c * v
        if any(total.values()):
            raise InternalInconsistency(
                f"boundary of boundary nonzero in dim {k}")


def eliminate(columns: list[dict[int, int]], q: int | None = None
              ) -> tuple[list[int], list[dict[int, int]]]:
    """Pivot on unit entries of the columns (row -> nonzero entry) until none
    is left: on +-1 over the integers, on any entry over F_q for a prime q.
    A pivot clears its row from the other columns, then its column by row
    operations. Returns the pivot rows and the nonzero columns left; the
    input is not modified."""
    cols = [{r: v % q for r, v in col.items() if v % q} if q else dict(col)
            for col in columns]
    rows: dict[int, set[int]] = {}
    for j, col in enumerate(cols):
        for r in col:
            rows.setdefault(r, set()).add(j)
    pivots: list[int] = []
    todo = list(reversed(range(len(cols))))
    while todo:
        j = todo.pop()
        col = cols[j]
        units = [r for r, v in col.items() if q or v in (1, -1)] if col else ()
        if not units:
            continue
        r = min(units, key=lambda r: len(rows[r]))  # the sparsest row
        cols[j] = None
        for s in col:
            rows[s].discard(j)
        unit = col.pop(r)
        inverse = pow(unit, -1, q) if q else unit
        for i in rows.pop(r):
            other = cols[i]
            f = other.pop(r) * inverse
            for s, v in col.items():
                w = other.get(s, 0) - f * v
                w = w % q if q else w
                if w:
                    other[s] = w
                    rows[s].add(i)
                else:
                    del other[s]
                    rows[s].discard(i)
            todo.append(i)
        pivots.append(r)
    return pivots, [col for col in cols if col]


class HomologyProfile(NamedTuple):
    reduced_betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    euler_characteristic: int
    empty: bool = False

    @property
    def trivial(self) -> bool:
        return not self.empty and not any(self.reduced_betti) \
            and not any(self.torsion)

    def to_json(self) -> dict:
        return {"reduced_betti": list(self.reduced_betti),
                "torsion": [list(t) for t in self.torsion],
                "euler_characteristic": self.euler_characteristic,
                "empty": self.empty}

    @staticmethod
    def _normalize(betti: list[int], torsion: list[tuple[int, ...]]):
        """Trailing zeros carry no information; trim them so profiles of
        complexes of different dimensions compare cleanly."""
        betti, torsion = list(betti), list(torsion)
        while betti and betti[-1] == 0:
            betti.pop()
        while torsion and not torsion[-1]:
            torsion.pop()
        return tuple(betti), tuple(torsion)


def homology(complex_: OrderComplex) -> HomologyProfile:
    if complex_.is_empty():
        return HomologyProfile((), (), 0, empty=True)
    dim = complex_.dimension
    columns = [boundary_columns(complex_, k) for k in range(dim + 1)]
    for k in range(dim):
        _check_dd_zero(k, columns[k + 1], columns[k])
    factors: list[list[int]] = [[] for _ in range(dim + 2)]
    cleared = cleared_q = set()  # pivot rows of the boundary one dimension up
    for k in range(dim, -1, -1):
        pivots, rest = eliminate([c for j, c in enumerate(columns[k])
                                  if j not in cleared])
        rows = sorted({r for col in rest for r in col})
        factors[k] = [1] * len(pivots) + smith_normal_form(
            [[col.get(r, 0) for col in rest] for r in rows])
        pivots_q, _ = eliminate([c for j, c in enumerate(columns[k])
                                 if j not in cleared_q], CHECK_PRIME)
        if len(pivots_q) != sum(1 for d in factors[k] if d % CHECK_PRIME):
            raise InternalInconsistency(
                f"integer and mod-{CHECK_PRIME} ranks disagree for "
                f"boundary {k}")
        cleared, cleared_q = set(pivots), set(pivots_q)
    betti = [len(complex_.simplices[k]) - len(factors[k]) - len(factors[k + 1])
             for k in range(dim + 1)]
    torsion = [tuple(d for d in factors[k + 1] if d > 1)
               for k in range(dim + 1)]
    nb, nt = HomologyProfile._normalize(betti, torsion)
    chi = complex_.euler_characteristic()
    if chi != 1 + sum((-1) ** i * b for i, b in enumerate(betti)):
        raise InternalInconsistency(
            "Euler characteristic disagrees with Betti numbers")
    return HomologyProfile(nb, nt, chi)
