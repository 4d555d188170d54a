"""Brute-force re-derivations used as an independent oracle in tests.

Everything recomputes from the multiplication table using frozensets and
saturation loops. No bitsets, no lattice machinery, no shared helpers with
the package; only the element table itself is common input. Intended for
groups of order <= 48. The linear-algebra oracles are dense: boundary_matrix
writes out every boundary map in full, rank_over_rationals is Gauss-Jordan
elimination in exact fractions and rank_mod the same over F_p. The poset
oracles work pair by pair: relation_closure saturates a relation,
core_reduction rescans every element for the first beat point after each
removal, counting the maximal elements of each down-set, and
verify_monotone_retraction checks a map on a poset position by position.
lattice_p_core is the exception: it joins the normal p-subgroups of a
lattice subgroup using the lattice's normalizers and the group's closure,
a second route to O_p against which the lattice's intersection of Sylow
subgroups is checked.
"""

from __future__ import annotations

from fractions import Fraction

from _suite import restrict


# permutation arithmetic, the oracle for the group tables; a permutation
# is its image tuple, p[x] the image of point x


def compose(a, b) -> tuple:
    """a * b, which applies b first: (a * b)[x] = a[b[x]]."""
    if len(a) != len(b):
        raise ValueError("degree mismatch")
    return tuple(a[x] for x in b)


def inverse(a) -> tuple:
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def identity(degree: int) -> tuple:
    return tuple(range(degree))


def is_identity(a) -> bool:
    return a == identity(len(a))


def permutation_order(a) -> int:
    """The least n >= 1 with a^n the identity, by repeated composition."""
    n, power = 1, a
    while not is_identity(power):
        power = compose(power, a)
        n += 1
    return n


def closure(mul, seed) -> frozenset:
    cur = {0} | set(seed)
    changed = True
    while changed:
        changed = False
        for a in list(cur):
            for b in list(cur):
                c = mul[a][b]
                if c not in cur:
                    cur.add(c)
                    changed = True
    return frozenset(cur)


def subgroups(group) -> set[frozenset]:
    """Every subgroup, by extending known subgroups one generator at a time."""
    mul = group.mul
    found = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        fresh = []
        for h in frontier:
            for g in range(1, group.order):
                if g in h:
                    continue
                k = closure(mul, set(h) | {g})
                if k not in found:
                    found.add(k)
                    fresh.append(k)
        frontier = fresh
    return found


def inclusion_masks(lat) -> tuple[list[int], list[int]]:
    """Per lattice index i, the masks of the indices of the subgroups
    strictly inside and strictly containing subgroup i, by a scan of every
    pair."""
    bits = lat.bitsets
    down = [sum(1 << j for j, b in enumerate(bits) if j != i and b | a == a)
            for i, a in enumerate(bits)]
    up = [sum(1 << j for j, b in enumerate(bits) if j != i and b & a == a)
          for i, a in enumerate(bits)]
    return down, up


def element_order(group, x: int) -> int:
    mul = group.mul
    n, y = 1, x
    while y != 0:
        y = mul[y][x]
        n += 1
    return n


def conj(group, g: int, x: int) -> int:
    mul = group.mul
    return mul[mul[g][x]][group.inv[g]]


def conj_set(group, g: int, h: frozenset) -> frozenset:
    return frozenset(conj(group, g, x) for x in h)


def conjugacy_classes(group) -> tuple[tuple[int, ...], ...]:
    """Element conjugacy classes as sorted index tuples, sorted by minimum,
    each orbit closed under conjugation by every element."""
    seen = [False] * group.order
    classes = []
    for x in range(group.order):
        if seen[x]:
            continue
        orbit = {x}
        stack = [x]
        while stack:
            y = stack.pop()
            for g in range(group.order):
                z = conj(group, g, y)
                if z not in orbit:
                    orbit.add(z)
                    stack.append(z)
        for y in orbit:
            seen[y] = True
        classes.append(tuple(sorted(orbit)))
    return tuple(classes)


def set_product(group, a, b) -> frozenset:
    """The product set AB = {xy : x in A, y in B}."""
    mul = group.mul
    return frozenset(mul[x][y] for x in a for y in b)


def normalizer(group, h: frozenset) -> frozenset:
    return frozenset(g for g in range(group.order)
                     if conj_set(group, g, h) == h)


def centralizer(group, h: frozenset) -> frozenset:
    mul = group.mul
    return frozenset(g for g in range(group.order)
                     if all(mul[g][x] == mul[x][g] for x in h))


def center(group, h: frozenset) -> frozenset:
    return h & centralizer(group, h)


def is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def is_abelian(group, h: frozenset) -> bool:
    mul = group.mul
    return all(mul[x][y] == mul[y][x] for x in h for y in h)


def is_elementary_abelian(group, h: frozenset, p: int) -> bool:
    return (len(h) > 1 and is_p_power(len(h), p) and is_abelian(group, h)
            and all(element_order(group, x) == p for x in h if x))


def hall_euler_characteristic(group, subgroups, p: int) -> int:
    """Hall's reduced Euler characteristic of the poset of nontrivial
    p-subgroups: minus the sum, over the elementary abelian p-subgroups E,
    1 included, of mu(1, E) = (-1)^r p^(r(r-1)/2) for E of rank r. subgroups
    holds every subgroup of group, each as its members."""
    ranks = [0]  # E = 1
    for h in map(frozenset, subgroups):
        if is_elementary_abelian(group, h, p):
            ranks.append(next(k for k in range(len(h)) if p ** k == len(h)))
    return -sum((-1) ** k * p ** (k * (k - 1) // 2) for k in ranks)


def p_core(group, all_subs, h: frozenset, p: int) -> frozenset:
    """Largest normal p-subgroup of h; checked to contain every candidate."""
    candidates = [k for k in all_subs
                  if k <= h and is_p_power(len(k), p)
                  and all(conj_set(group, g, k) == k for g in h)]
    best = max(candidates, key=len)
    assert all(k <= best for k in candidates), "p-core is not unique-maximal"
    return best


def lattice_p_core(lat, h: int, p: int) -> int:
    """The bitset of O_p(h), the join of the normal p-subgroups of h."""
    acc = 1
    for k, order in enumerate(lat.sizes):
        if order == 1 or not lat.leq(k, h):
            continue
        if p_part(order, p) != order:
            continue
        if (acc | lat.bitsets[k]) == acc:
            continue
        if lat.leq(h, lat.normalizer(k)):
            acc = lat.group.closure_bitset(acc | lat.bitsets[k])
    return acc


def is_radical(group, all_subs, h: frozenset, p: int) -> bool:
    return p_core(group, all_subs, normalizer(group, h), p) == h


def is_centric(group, h: frozenset, p: int) -> bool:
    return len(center(group, h)) == p_part(len(centralizer(group, h)), p)


def is_principal_radical(group, all_subs, h: frozenset, p: int) -> bool:
    """p-centric, and the p-core of N_G(h)/(h * C_G(h)) is trivial; the
    quotient is read off through the correspondence with subgroups between
    h*C_G(h) and N_G(h)."""
    if not is_centric(group, h, p):
        return False
    mul = group.mul
    n = normalizer(group, h)
    pc = closure(mul, h | centralizer(group, h))
    over = [k for k in all_subs
            if pc <= k <= n and is_p_power(len(k) // len(pc), p)
            and all(conj_set(group, g, k) == k for g in n)]
    return max(len(k) for k in over) == len(pc)


def sylows(group, all_subs, p: int) -> list[frozenset]:
    full = p_part(group.order, p)
    return [h for h in all_subs if len(h) == full]


def E0(group, all_subs, p: int) -> frozenset:
    out = set()
    for s in sylows(group, all_subs, p):
        for x in center(group, s):
            if element_order(group, x) == p:
                out.add(x)
    return frozenset(out)


def E1(group, e0: frozenset, p: int) -> frozenset:
    mul = group.mul
    cur = set(e0)
    changed = True
    while changed:
        changed = False
        for x in list(cur):
            for g in range(group.order):
                y = conj(group, g, x)
                if y not in cur:
                    cur.add(y)
                    changed = True
        for x in list(cur):
            for y in list(cur):
                if mul[x][y] != mul[y][x]:
                    continue
                z = mul[x][y]
                if z and element_order(group, z) == p and z not in cur:
                    cur.add(z)
                    changed = True
    return frozenset(cur)


def omega1_center(group, h: frozenset, p: int) -> frozenset:
    gens = {x for x in center(group, h) if element_order(group, x) == p}
    return closure(group.mul, gens)


def tilde(group, h: frozenset, p: int, e1: frozenset) -> frozenset:
    cut = {x for x in omega1_center(group, h, p) if x in e1} | {0}
    assert closure(group.mul, cut) == frozenset(cut), "tilde set is not a subgroup"
    return frozenset(cut)


def hat(group, h: frozenset, p: int, e0: frozenset) -> frozenset:
    return closure(group.mul, {x for x in omega1_center(group, h, p) if x in e0})


def collection(group, all_subs, p: int, kind: str) -> set[frozenset]:
    """Member sets of each collection kind, straight from the definitions."""
    psubs = [h for h in all_subs if len(h) > 1 and is_p_power(len(h), p)]
    e0 = E0(group, all_subs, p)
    e1 = E1(group, e0, p)
    if kind.startswith("tilde-"):
        return {h for h in collection(group, all_subs, p, kind[6:])
                if len(tilde(group, h, p, e1)) > 1}
    if kind.startswith("hat-"):
        return {h for h in collection(group, all_subs, p, kind[4:])
                if len(hat(group, h, p, e0)) > 1}
    if kind == "S":
        return set(psubs)
    if kind == "A":
        return {h for h in psubs if is_elementary_abelian(group, h, p)}
    if kind == "B":
        return {h for h in psubs if is_radical(group, all_subs, h, p)}
    if kind == "Ce":
        return {h for h in psubs if is_centric(group, h, p)}
    if kind == "Bcen":
        return {h for h in psubs if is_centric(group, h, p)
                and is_radical(group, all_subs, h, p)}
    if kind == "D":
        return {h for h in psubs
                if is_principal_radical(group, all_subs, h, p)}
    if kind == "E":
        return {h for h in psubs if is_elementary_abelian(group, h, p)
                and all(x in e1 for x in h if x)}
    raise ValueError(kind)


def rank_over_rationals(matrix: list[list[int]]) -> int:
    a = [[Fraction(v) for v in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank = 0
    row = 0
    for col in range(cols):
        piv = next((i for i in range(row, rows) if a[i][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [v * inv for v in a[row]]
        for i in range(rows):
            if i != row and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[row])]
        rank += 1
        row += 1
        if row == rows:
            break
    return rank


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


def boundary_matrix(complex_, k: int) -> list[list[int]]:
    """Dense matrix of the boundary map C_k -> C_{k-1}; k = 0 gives the
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


# ------------------------------------------------------------------ posets


def relation_closure(labels, strict_pairs) -> dict:
    """For each label, the set of labels below or equal to it in the
    reflexive-transitive closure of strict_pairs."""
    below: dict = {x: {x} for x in labels}
    for a, b in strict_pairs:
        below[b].add(a)
    changed = True
    while changed:
        changed = False
        for b in labels:
            merged = set(below[b])
            for a in list(merged):
                merged |= below[a]
            if merged != below[b]:
                below[b] = merged
                changed = True
    return below


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _strict_order(poset, leq):
    """Per element, the bitmasks of the elements strictly below and above;
    bit k stands for the k-th element of the poset, lowest first."""
    xs = poset.members
    below = [0] * len(xs)
    above = [0] * len(xs)
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            if i != j and leq(x, y):
                below[j] |= 1 << i
                above[i] |= 1 << j
    return below, above


def is_beat(i: int, alive: int, below, above) -> bool:
    """Position i is a beat point of the subposet alive: its strict down-set
    has exactly one maximal element, or its strict up-set exactly one
    minimal element."""
    down = below[i] & alive
    if down and sum(1 for j in _bits(down) if not above[j] & down) == 1:
        return True
    up = above[i] & alive
    return bool(up) and sum(1 for j in _bits(up) if not below[j] & up) == 1


def _orbit_masks(poset, gens):
    """Per element, the bitmask of its orbit under conjugation by gens, or
    None when some generator conjugates an element out of the poset; bit k
    stands for the k-th element of the poset, lowest first."""
    xs, lat = poset.members, poset.lattice
    pos = {x: i for i, x in enumerate(xs)}
    images = []
    for g in gens:
        image = [pos.get(lat.conjugate(x, g)) for x in xs]
        if None in image:
            return None
        images.append(image)
    orbit = [0] * len(pos)
    for i in range(len(pos)):
        if orbit[i]:
            continue
        mask, stack = 1 << i, [i]
        while stack:
            k = stack.pop()
            for image in images:
                j = image[k]
                if not mask >> j & 1:
                    mask |= 1 << j
                    stack.append(j)
        for j in _bits(mask):
            orbit[j] = mask
    return orbit


def core_reduction(poset, leq, gens=None):
    """(steps, point) of the beat-point reduction that removes the first beat
    point in position order, or its whole orbit under gens, until none is
    left; the positions of the core when it has more than one point, and
    None when the poset is empty. leq is the order relation on positions,
    asked pair by pair."""
    if poset.is_empty():
        return None
    xs = poset.members
    below, above = _strict_order(poset, leq)
    orbit = _orbit_masks(poset, gens) if gens is not None else None
    alive = (1 << len(poset)) - 1
    steps = []
    while alive & (alive - 1):
        beat = next((i for i in _bits(alive)
                     if is_beat(i, alive, below, above)), None)
        if beat is None:
            return tuple(xs[j] for j in _bits(alive))
        step = orbit[beat] if orbit is not None else 1 << beat
        steps.append(tuple(xs[j] for j in _bits(step)))
        alive &= ~step
    return tuple(steps), xs[alive.bit_length() - 1]


def _as_mapping(poset, f) -> dict:
    """Evaluate f (a callable or a dict) on every position; any image outside
    the poset raises ValueError, because nothing downstream is meaningful."""
    xs, out = poset.members, {}
    for x in xs:
        if callable(f):
            y = f(x)
        elif x in f:
            y = f[x]
        else:
            raise ValueError(f"map undefined at {x!r}")
        if y not in xs:
            raise ValueError(f"map sends {x!r} to {y!r}, outside the poset")
        out[x] = y
    return out


def verify_monotone_retraction(poset, f, side: str, target) -> bool:
    """Check f: P -> P comparable with the identity, monotone, with image
    inside target (a GPoset or an iterable of positions of P).

    side ">=" means f(x) >= x pointwise, "<=" the dual. A passing check
    shows the target is a deformation retract of P. Ill-defined maps and
    targets outside P raise ValueError; failed comparisons return False.
    """
    if side not in ("<=", ">="):
        raise ValueError(f"side must be '<=' or '>=', got {side!r}")
    fmap = _as_mapping(poset, f)
    targets = target.members if hasattr(target, "mask") else tuple(target)
    down, up = poset.order.down, poset.order.up
    target_mask = 0
    for t in targets:
        if t not in fmap:
            raise ValueError(f"target position {t!r} is not in the poset")
        target_mask |= 1 << t
    for i, fi in fmap.items():
        if not target_mask >> fi & 1:
            return False
        if fi != i and not (up[i] if side == ">=" else down[i]) >> fi & 1:
            return False
        below = 0  # f(down(x)) must lie in down(f(x))
        for j in _bits(down[i] & poset.mask):
            below |= 1 << fmap[j]
        if below & ~(down[fi] | 1 << fi):
            return False
    return True


def fiber_outcome(lat, sub, ambient, equivariant: bool):
    """The fibers hypothesis of sub -> ambient checked at every y of ambient,
    cones included. Each fiber {x in sub : x <= y} is found by comparing
    member sets and reduced by core_reduction, orbit-wise under N_G(y) when
    equivariant. Returns the outcome and, per y, "point" when the fiber
    reduces to a point, "empty", or "core" when more than one point is left.
    The outcome is PASS when every fiber is a point, FAIL when some fiber is
    empty, and None when this reduction cannot tell."""
    def leq(a, b):
        return lat.bitsets[a] & ~lat.bitsets[b] == 0

    found = {}
    for y in ambient.members:
        fiber = restrict(sub, [x for x in sub.members if leq(x, y)])
        gens = (lat.generating_set(lat.normalizer(y))
                if equivariant else None)
        core = core_reduction(fiber, leq, gens)
        found[y] = ("empty" if core is None
                    else "point" if isinstance(core[0], tuple) else "core")
    kinds = set(found.values())
    outcome = ("PASS" if kinds <= {"point"}
               else "FAIL" if "empty" in kinds else None)
    return outcome, found
