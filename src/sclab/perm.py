"""Permutations of {0, ..., n-1} with cycle-notation parsing and printing.

A permutation is stored as its tuple of images, so it is hashable and totally
ordered (lexicographically); the identity is the smallest permutation of its
degree, which the group code relies on.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ParseError


class _Images(NamedTuple):
    images: tuple[int, ...]


class Permutation(_Images):
    __slots__ = ()

    def __new__(cls, images):
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection of 0..{len(images) - 1}: {images!r}")
        return super().__new__(cls, images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point, sorted."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

    def __str__(self):
        return self.cycle_string()


def parse_cycles(text: str, degree: int, *, source="<string>", line=1, offset=0) -> Permutation:
    """Parse cycle notation like ``(0 1 2 3)(4 5)`` into a Permutation.

    Cycles are applied left to right; points are 0-based and must be below
    ``degree``. ``()`` denotes the identity. ``offset`` is the column of the
    first character of ``text`` within its line, for error reporting.
    """

    def err(msg, col):
        raise ParseError(msg, source=source, line=line, column=offset + col + 1)

    cycles: list[list[int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            err(f"expected '(' but found {ch!r}", i)
        i += 1
        cyc: list[int] = []
        seen: set[int] = set()
        while True:
            while i < n and (text[i].isspace() or text[i] == ","):
                i += 1
            if i >= n:
                err("unterminated cycle", n - 1)
            if text[i] == ")":
                i += 1
                break
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j == i:
                err(f"expected a point or ')' but found {text[i]!r}", i)
            point = int(text[i:j])
            if point >= degree:
                err(f"point {point} out of range for degree {degree}", i)
            if point in seen:
                err(f"point {point} repeated within a cycle", i)
            seen.add(point)
            cyc.append(point)
            i = j
        if cyc:
            cycles.append(cyc)

    # compose left to right: after each cycle, the point that reached
    # cyc[k] (its preimage, pre[cyc[k]]) goes on to cyc[k + 1]
    images, pre = list(range(degree)), list(range(degree))
    for cyc in cycles:
        sources = [pre[y] for y in cyc]
        for x, y in zip(sources, cyc[1:] + cyc[:1]):
            images[x], pre[y] = y, x
    return Permutation(tuple(images))
