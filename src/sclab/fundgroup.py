"""Fundamental group triviality for small complexes.

Builds the edge-path presentation of the 2-skeleton (spanning tree plus one
generator per non-tree edge, one relator per triangle) and runs a bounded
Tietze simplification. The only positive answer is True (presentation
collapsed to nothing); anything else is None, never a guess.
"""

from __future__ import annotations

from collections import deque

from .poset import OrderComplex

Word = tuple[int, ...]  # nonzero ints; g > 0 generator, -g its inverse

MAX_PASSES = 300


def _free_reduce(word: Word) -> Word:
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _cyclic_reduce(word: Word) -> Word:
    word = _free_reduce(word)
    while len(word) >= 2 and word[0] == -word[-1]:
        word = _free_reduce(word[1:-1])
    return word


def _substitute(word: Word, gen: int, image: Word) -> Word:
    """Replace gen by image (and gen^-1 by reversed inverse) throughout."""
    inv = tuple(-x for x in reversed(image))
    out: list[int] = []
    for letter in word:
        if letter == gen:
            out.extend(image)
        elif letter == -gen:
            out.extend(inv)
        else:
            out.append(letter)
    return _free_reduce(tuple(out))


def edge_path_presentation(complex_: OrderComplex):
    """(generator_count, relators) for the 2-skeleton, or None if the
     1-skeleton is empty or disconnected."""
    verts = complex_.vertices
    if not verts:
        return None
    edges = [tuple(e) for e in complex_.simplices.get(1, [])]
    adj: dict = {v: [] for v in verts}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    root = verts[0]
    seen = {root}
    tree_norm: set[frozenset] = set()
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                tree_norm.add(frozenset((u, w)))
                queue.append(w)
    if len(seen) != len(verts):
        return None
    gen_of: dict[frozenset, int] = {}
    for e in edges:
        key = frozenset(e)
        if key not in tree_norm:
            gen_of[key] = len(gen_of) + 1

    # orientation of each generator follows the stored edge tuple
    orient = {frozenset(e): e for e in edges}

    def word_for(u, v) -> Word:
        key = frozenset((u, v))
        g = gen_of.get(key)
        if g is None:
            return ()
        return (g,) if orient[key] == (u, v) else (-g,)

    relators = []
    for a, b, c in complex_.simplices.get(2, []):
        relators.append(_cyclic_reduce(
            word_for(a, b) + word_for(b, c) + word_for(c, a)))
    return len(gen_of), relators


def simplify_presentation(ngens: int, relators: list[Word]):
    """Bounded Tietze moves; returns the surviving generator set and relators."""
    alive = set(range(1, ngens + 1))
    rels = [r for r in (_cyclic_reduce(r) for r in relators) if r]
    for _ in range(MAX_PASSES):
        if not alive:
            return alive, []
        changed = False
        # order-1 relators kill their generator outright
        for r in list(rels):
            if len(r) == 1:
                g = abs(r[0])
                if g in alive:
                    alive.discard(g)
                    rels = [w for w in
                            (_cyclic_reduce(_substitute(x, g, ())) for x in rels)
                            if w]
                    changed = True
                    break
        if changed:
            continue
        # length-2 relators u v = 1 express v as u^-1
        for r in rels:
            if len(r) == 2 and abs(r[0]) != abs(r[1]):
                u, v = r
                g = abs(v)
                image: Word = (-u,) if v > 0 else (u,)
                alive.discard(g)
                rels = [w for w in
                        (_cyclic_reduce(_substitute(x, g, image)) for x in rels)
                        if w]
                changed = True
                break
        if changed:
            continue
        # a generator used exactly once anywhere can be solved for and removed
        counts: dict[int, int] = {}
        home: dict[int, int] = {}
        for i, r in enumerate(rels):
            for letter in r:
                g = abs(letter)
                counts[g] = counts.get(g, 0) + 1
                home[g] = i
        for g, n in sorted(counts.items()):
            if n == 1 and g in alive:
                rels = [r for i, r in enumerate(rels) if i != home[g]]
                alive.discard(g)
                changed = True
                break
        if not changed:
            break
    return alive, rels


def fundamental_group_trivial(complex_: OrderComplex) -> bool | None:
    """True when the edge-path presentation simplifies to nothing; None when
    the budgeted simplification cannot decide."""
    pres = edge_path_presentation(complex_)
    if pres is None:
        return None
    ngens, relators = pres
    if ngens == 0:
        return True
    alive, _ = simplify_presentation(ngens, relators)
    return True if not alive else None
