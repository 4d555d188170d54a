"""Reduced integer simplicial homology of order complexes.

Boundary matrices are built from the stored simplex orientations and put into
Smith normal form over the integers. Each rank is cross-checked by an
independent elimination over F_q: the rank of a matrix over F_q equals the
number of its invariant factors not divisible by q. The identity is exact for
every prime; q = 2**31 - 1 is large so that in practice it divides no
invariant factor, and the check then tests the Smith form's full rank and not
just its mod-q part. Reduced homology uses the augmented chain complex, so a
point has trivial profile and the circle gets reduced_betti (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInconsistency
from .poset import OrderComplex

CHECK_PRIME = 2**31 - 1


def smith_normal_form(matrix: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form; only the invariant factors are
    returned, in divisibility order. The input is not modified."""
    a = [row[:] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    diag: list[int] = []
    top = 0
    while top < rows and top < cols:
        # smallest nonzero entry as pivot keeps coefficients tame
        pr = pc = -1
        best = 0
        for i in range(top, rows):
            ai = a[i]
            for j in range(top, cols):
                v = ai[j]
                if v and (best == 0 or abs(v) < best):
                    best = abs(v)
                    pr, pc = i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if pr < 0:
            break
        a[top], a[pr] = a[pr], a[top]
        if pc != top:
            for row in a:
                row[top], row[pc] = row[pc], row[top]
        while True:
            pivot = a[top][top]
            done = True
            for i in range(top + 1, rows):
                q = a[i][top] // pivot
                if q:
                    ai, at = a[i], a[top]
                    for j in range(top, cols):
                        ai[j] -= q * at[j]
                if a[i][top]:
                    done = False
            for j in range(top + 1, cols):
                q = a[top][j] // pivot
                if q:
                    for row in a:
                        row[j] -= q * row[top]
                if a[top][j]:
                    done = False
            if done:
                break
            # a smaller entry appeared in the pivot row/column; re-pivot on it
            for i in range(top, rows):
                for j in range(top, cols):
                    if a[i][j] and abs(a[i][j]) < abs(a[top][top]):
                        a[top], a[i] = a[i], a[top]
                        if j != top:
                            for row in a:
                                row[top], row[j] = row[j], row[top]
        pivot = a[top][top]
        # enforce divisibility against the untouched block
        fixed = False
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if a[i][j] % pivot:
                    at = a[top]
                    ai = a[i]
                    for k in range(top, cols):
                        at[k] += ai[k]
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        diag.append(abs(pivot))
        top += 1
    return diag


def rank_mod(matrix: list[list[int]], p: int) -> int:
    a = [[v % p for v in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank = 0
    row = 0
    for col in range(cols):
        piv = next((i for i in range(row, rows) if a[i][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], -1, p)
        a[row] = [v * inv % p for v in a[row]]
        for i in range(rows):
            if i != row and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[row])]
        rank += 1
        row += 1
        if row == rows:
            break
    return rank


def boundary_matrix(complex_: OrderComplex, k: int) -> list[list[int]]:
    """Matrix of the boundary map C_k -> C_{k-1}; k = 0 gives the
    augmentation row onto the empty simplex."""
    kcells = complex_.simplices.get(k, [])
    if k == 0:
        return [[1] * len(kcells)] if kcells else []
    lower = complex_.simplices.get(k - 1, [])
    index = {s: i for i, s in enumerate(lower)}
    mat = [[0] * len(kcells) for _ in lower]
    for j, s in enumerate(kcells):
        for drop in range(len(s)):
            face = s[:drop] + s[drop + 1:]
            mat[index[face]][j] += (-1) ** drop
    return mat


def _check_dd_zero(k: int, upper: list[list[int]],
                   lower: list[list[int]]) -> None:
    """d(d(s)) must vanish for every (k+1)-simplex s. Column s of ``upper``
    has k+2 nonzero rows, so only those columns of ``lower`` are combined."""
    for col in zip(*upper):
        faces = [(i, c) for i, c in enumerate(col) if c]
        for lrow in lower:
            if sum(c * lrow[i] for i, c in faces):
                raise InternalInconsistency(
                    f"boundary of boundary nonzero in dim {k}")


@dataclass(frozen=True)
class HomologyProfile:
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
        betti = list(betti)
        torsion = list(torsion)
        while betti and betti[-1] == 0:
            betti.pop()
        while torsion and not torsion[-1]:
            torsion.pop()
        return tuple(betti), tuple(torsion)


def homology(complex_: OrderComplex) -> HomologyProfile:
    if complex_.is_empty():
        return HomologyProfile((), (), 0, empty=True)
    dim = complex_.dimension
    boundaries = {k: boundary_matrix(complex_, k) for k in range(dim + 2)}
    for k in range(dim + 1):
        _check_dd_zero(k, boundaries[k + 1], boundaries[k])
    snf = {k: smith_normal_form(mat) for k, mat in boundaries.items()}
    for k, mat in boundaries.items():
        if rank_mod(mat, CHECK_PRIME) != sum(1 for d in snf[k]
                                             if d % CHECK_PRIME):
            raise InternalInconsistency(
                f"integer and mod-{CHECK_PRIME} ranks disagree for "
                f"boundary {k}")
    betti: list[int] = []
    torsion: list[tuple[int, ...]] = []
    for k in range(dim + 1):
        n_k = len(complex_.simplices.get(k, []))
        rank_k = len(snf[k])
        rank_up = len(snf.get(k + 1, []))
        betti.append(n_k - rank_k - rank_up)
        torsion.append(tuple(d for d in snf.get(k + 1, []) if d > 1))
    nb, nt = HomologyProfile._normalize(betti, torsion)
    chi = complex_.euler_characteristic()
    if chi != 1 + sum((-1) ** i * b for i, b in enumerate(betti)):
        raise InternalInconsistency(
            "Euler characteristic disagrees with Betti numbers")
    return HomologyProfile(nb, nt, chi)
