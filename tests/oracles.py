"""Independent reference implementations used only by the test suite.

Everything here recomputes a quantity from its definition with a
different algorithm and different data layout than the package uses, so
agreement is meaningful.  All oracles are exponential or worse and only
run at desk scale.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from fct import nonnesting
from fct.arrangement import (
    _dominate,
    _eliminate,
    _normalize,
    _zero_row_ok,
    feasible,
    regions_of,
)
from fct.errors import InternalInvariantError, UsageError
from fct.poly import BivarPoly
from fct.rootsys import (
    _FAMILIES,
    RootSystem,
    TypeSpec,
    _build_from_cartan,
    _cartan_irreducible,
    _valid_rank,
    classify_cartan,
)


def brute_filters(rs: RootSystem) -> set:
    """All upward-closed subsets of the root poset, by scanning every
    subset of the positive roots; returned as frozensets of roots."""
    roots = rs.positive_roots
    nr = len(roots)
    leq = {
        (a, b): all(x <= y for x, y in zip(a, b))
        for a in roots
        for b in roots
    }
    out = set()
    for bits in range(1 << nr):
        sub = frozenset(roots[i] for i in range(nr) if (bits >> i) & 1)
        if all(b in sub for a in sub for b in roots if leq[(a, b)]):
            out.add(sub)
    return out


def chain_root_sets(rs: RootSystem, masks) -> list:
    roots = rs.positive_roots
    return [
        frozenset(roots[i] for i in range(len(roots)) if (m >> i) & 1)
        for m in masks
    ]


def brute_geometric(rs: RootSystem, filter_sets, k: int) -> bool:
    """Literal evaluation of the two additive chain conditions on root
    sets, with J_0 the full positive system and set arithmetic."""
    roots = set(rs.positive_roots)

    def vec_add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    chain = [frozenset(roots)] + list(filter_sets)
    for i in range(k + 1):
        for j in range(k + 1):
            sums = {
                vec_add(a, b)
                for a in chain[i]
                for b in chain[j]
            } & roots
            if not sums <= chain[min(i + j, k)]:
                return False
            if i + j <= k:
                co_i = roots - chain[i]
                co_j = roots - chain[j]
                sums = {vec_add(a, b) for a in co_i for b in co_j} & roots
                if sums & chain[i + j]:
                    return False
    return True


def brute_chains(rs: RootSystem, k: int) -> set:
    """All geometric chains found by filtering every nested k-tuple of
    brute-forced filters; returned as tuples of root frozensets."""
    filters = sorted(brute_filters(rs), key=lambda s: sorted(s))
    out = set()
    for combo in product(filters, repeat=k):
        if any(not combo[i] >= combo[i + 1] for i in range(k - 1)):
            continue
        if brute_geometric(rs, combo, k):
            out.add(tuple(combo))
    return out


def flat_decomposition_rank(rs: RootSystem, levels, root_idx: int) -> int:
    """Maximum of sum(level of part) over every multiset of positive
    roots summing to the given root, by exhaustive search."""
    roots = rs.positive_roots
    target = roots[root_idx]
    nr = len(roots)
    best = [-1]

    def rec(remaining, start, acc):
        if all(x == 0 for x in remaining):
            best[0] = max(best[0], acc)
            return
        for i in range(start, nr):
            r = roots[i]
            if all(x >= y for x, y in zip(remaining, r)):
                rec(tuple(x - y for x, y in zip(remaining, r)), i, acc + levels[i])

    rec(target, 0, 0)
    return best[0]


def bfs_absolute_length(rs: RootSystem) -> dict:
    """Distance from the identity in the Cayley graph over the full
    reflection set, for every group element; keyed by the image tuple."""
    from fct import weyl

    refl = [t.img for t in weyl.reflections(rs)]

    def mul(u, v):
        return tuple(u[s - 1] if s > 0 else -u[-s - 1] for s in v)

    ident = tuple(range(1, len(rs.positive_roots) + 1))
    dist = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for t in refl:
                u = mul(w, t)
                if u not in dist:
                    dist[u] = dist[w] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def element_order(w) -> int:
    """Least m >= 1 with w^m = 1, by repeated composition."""
    from fct import weyl

    m, x, e = 1, w, weyl.identity(w.rs)
    while x != e:
        x = weyl.compose(x, w)
        m += 1
    return m


def half_rotation_by_group(rs: RootSystem, sign: int, v: int) -> int:
    """The half rotation of vertex v (``cluster.half_rotation``'s
    encoding) through a group element: the product of the simple
    reflections on the ``sign`` side, composed one at a time, applied to
    the signed root index of v."""
    from fct import weyl

    w = weyl.identity(rs)
    for i in range(rs.n):
        if rs.bipartition[i] == sign:
            w = weyl.compose(w, weyl.simple_reflection(rs, i))
    if v < 0:
        if rs.bipartition[-v - 1] != sign:
            return v
        image = -w.img[-v - 1]
    else:
        image = w.img[v]
    return image - 1 if image > 0 else image


def compatible(rs: RootSystem, k: int, u: int, v: int) -> bool:
    """Compatibility of two distinct vertices, pair by pair: rotates both
    vertices together until either becomes a negative simple root, then
    applies the support rule.  The orbit bound k(h+2)+k guards against a
    wrong rotation table.  ``cluster.compat_masks`` decides each rotation
    orbit of pairs once instead."""
    from fct.cluster import colored_rotation

    if u == v:
        raise UsageError("compatibility is only defined for distinct vertices")
    rot = colored_rotation(rs, k)
    for _ in range(k * (rs.coxeter_number + 2) + k + 1):
        if u < rs.n or v < rs.n:
            if u < rs.n and v < rs.n:
                return True
            neg, other = (u, v) if u < rs.n else (v, u)
            return not rs.positive_roots[(other - rs.n) // k][neg]
        u, v = rot[u], rot[v]
    raise InternalInvariantError("rotation orbit never reached a negative simple root")


@lru_cache(maxsize=None)
def relabelled(rs: RootSystem, perm: tuple) -> RootSystem:
    """The root system of rs's Cartan matrix with node perm[j] renamed j.

    Every choice the library fixes by node order is reached this way.
    Its Coxeter element s_0 s_1 ... s_{n-1} is the product of the simple
    reflections of rs in the order perm.  Its bipartition gives the
    lowest node of each component the + side, so putting a node of the
    other colour first flips the bipartition of a connected diagram.
    """
    cartan = [[rs.cartan[p][q] for q in perm] for p in perm]
    return _build_from_cartan(cartan, classify_cartan(cartan))


def classify_by_isomorphism(cartan) -> TypeSpec:
    """TypeSpec of a Cartan matrix of finite type by a search for a node
    permutation perm with sub[i][j] == canonical[perm[i]][perm[j]], one
    component at a time (in the order of their lowest nodes), against the
    Bourbaki matrix of each family of that rank in the order A, B, C, D,
    E, F, G; so a rank two double bond reads B2."""
    n = len(cartan)
    comps, seen = [], set()
    for start in range(n):
        if start in seen:
            continue
        comp, todo = {start}, [start]
        while todo:
            i = todo.pop()
            new = {j for j in range(n) if cartan[i][j] and j not in comp}
            comp |= new
            todo += new
        seen |= comp
        comps.append(sorted(comp))
    return TypeSpec(tuple(
        _match_component([[cartan[i][j] for j in comp] for i in comp])
        for comp in comps
    ))


def _match_component(sub) -> tuple:
    r = len(sub)

    def bond_key(mat, i):
        return sorted(mat[i][j] * mat[j][i] for j in range(r) if j != i and mat[i][j])

    for family in (f for f in _FAMILIES if _valid_rank(f, r)):
        target = _cartan_irreducible(family, r)
        skeys = [bond_key(sub, i) for i in range(r)]
        tkeys = [bond_key(target, i) for i in range(r)]
        if sorted(skeys) != sorted(tkeys):
            continue
        perm = [-1] * r

        def place(i):
            if i == r:
                return True
            for p in range(r):
                if p in perm or tkeys[p] != skeys[i]:
                    continue
                if all(
                    perm[j] < 0 or (sub[i][j] == target[p][perm[j]] and sub[j][i] == target[perm[j]][p])
                    for j in range(r)
                ):
                    perm[i] = p
                    if place(i + 1):
                        return True
                    perm[i] = -1
            return False

        if place(0):
            return family, r
    raise UsageError("matrix is not a finite-type Cartan matrix")


def _invert(mat):
    n = len(mat)
    a = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        scale = a[col][col]
        a[col] = [x / scale for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def yspace_wall_histogram(rs: RootSystem, t: int) -> tuple:
    """Wall-incidence histogram of the dilated fundamental simplex,
    computed in the coweight coordinates y instead of the pairing
    coordinates z: enumerate integer y in a box, map through the Cartan
    matrix, and count incidences directly."""
    n = rs.n
    at = [[rs.cartan[j][i] for j in range(n)] for i in range(n)]
    c = rs.positive_roots[rs.highest_roots[0]]
    inv = _invert(at)
    # |y_i| <= sum_j |inv[i][j]| z_j and every z_j is at most t
    bound = max(sum(abs(x) for x in row) for row in inv) * t
    radius = int(bound) + 1
    counts = [0] * (n + 2 if t == 0 else n + 1)
    for y in product(range(-radius, radius + 1), repeat=n):
        z = [sum(at[i][j] * y[j] for j in range(n)) for i in range(n)]
        if min(z) < 0:
            continue
        level = sum(cv * zv for cv, zv in zip(c, z))
        if level > t:
            continue
        hit = sum(1 for v in z if v == 0) + (level == t)
        counts[hit] += 1
    return tuple(counts)


def moebius_by_inversion(leq_pairs, size: int) -> dict:
    """Moebius function of a finite poset from first principles, by
    recursion over closed intervals; leq_pairs is a set of (a, b)."""
    out = {}

    def mu(a, b):
        if (a, b) in out:
            return out[(a, b)]
        if a == b:
            val = 1
        else:
            val = -sum(
                mu(a, c)
                for c in range(size)
                if (a, c) in leq_pairs and (c, b) in leq_pairs and c != b
            )
        out[(a, b)] = val
        return val

    for a in range(size):
        for b in range(size):
            if (a, b) in leq_pairs:
                mu(a, b)
    return out


def interval_by_filtering(rs: RootSystem) -> tuple:
    """[1, c] as the whole group, in breadth-first order, filtered by
    the pairwise absolute order test against c."""
    from fct import weyl

    c = weyl.coxeter_element(rs)
    return tuple(w for w in weyl.generate_group(rs) if weyl.absolute_leq(w, c))


def cover_walk_by_ranks(rs: RootSystem) -> dict:
    """Map from each element of [1, c] to its lower covers, walking down
    from c: every product v t of an element with a reflection is made,
    and it is a lower cover when its rank-computed length is one less."""
    from fct import weyl

    c = weyl.coxeter_element(rs)
    refl = weyl.reflections(rs)
    lower = {c: []}
    level = [c]
    for target in range(c.length - 1, -1, -1):
        found = {}
        longer = set()  # products met at this level that lengthen
        for v in level:
            covers = lower[v]
            for t in refl:
                u = weyl.compose(v, t)
                if u in found:
                    covers.append(found[u])
                elif u in longer or u in lower:
                    continue
                elif u.length == target:
                    found[u] = u
                    lower[u] = []
                    covers.append(u)
                else:
                    longer.add(u)
        level = list(found)
    return lower


def pairs_by_composition(walk: dict) -> dict:
    """Map from each comparable pair (w, u) of [1, c] to w^-1 u: the
    pairs close the covers of ``walk``, one composition each."""
    from fct import weyl

    below = {}
    for u in sorted(walk, key=lambda u: u.length):
        down = {u}
        for v in walk[u]:
            down |= below[v]
        below[u] = down
    return {
        (w, u): weyl.compose(weyl.inverse(w), u)
        for u, down in below.items()
        for w in down
    }


def leq_rows_by_pairs(elems) -> tuple:
    """Row a has bit b set iff elems[a] <= elems[b], by testing every
    pair with the length-additivity definition of absolute order."""
    from fct import weyl

    rows = [0] * len(elems)
    for a, u in enumerate(elems):
        for b, v in enumerate(elems):
            if weyl.absolute_leq(u, v):
                rows[a] |= 1 << b
    return tuple(rows)


def down_masks_by_pairs(elements, ranks, leq) -> tuple:
    """Entry b: bitmask of the delta sequences below sequence b, by
    comparing every pair slot by slot (index tuples, slots 1..k) in the
    interval order ``leq``."""
    out = []
    for b, eb in enumerate(elements):
        mask = 0
        for a, ea in enumerate(elements):
            if ranks[a] <= ranks[b] and all(
                (leq[p] >> q) & 1 for p, q in zip(ea[1:], eb[1:])
            ):
                mask |= 1 << a
        out.append(mask)
    return tuple(out)


def indecomposables_per_root(rs: RootSystem, chain: tuple, l: int) -> frozenset:
    """Rank-l indecomposables of a chain, rerunning the height-order
    decomposition-rank program from scratch for every root it asks
    about and finding each extension root_r + beta by vector lookup."""
    k = len(chain)
    levels = nonnesting.levels(rs, chain)

    def decomposition_rank(root_idx):
        order = sorted(range(len(rs.positive_roots)), key=lambda r: rs.heights[r])
        best = {}
        for r in order:
            v = levels[r]
            for a, b in rs.pair_lists[r]:
                v = max(v, best[a] + best[b])
            best[r] = v
        return best[root_idx]

    out = []
    for r, root in enumerate(rs.positive_roots):
        if levels[r] < l or decomposition_rank(r) != l:
            continue
        if any(min(levels[a], k) + min(levels[b], k) >= l for a, b in rs.pair_lists[r]):
            continue
        ok = True
        for beta_idx, beta in enumerate(rs.positive_roots):
            c = rs.root_index.get(tuple(x + y for x, y in zip(root, beta)))
            if c is None:
                continue
            t = decomposition_rank(c)
            if t <= k and levels[c] >= t and t - l > 0 and levels[beta_idx] < t - l:
                ok = False
                break
        if ok:
            out.append(r)
    return frozenset(out)


def top_statistics(rs: RootSystem, chain: tuple) -> tuple:
    """(top indecomposables, simple ones) of a chain, one leaf at a time:
    a root of I_k counts unless some split root_a + root_b of it has
    level(a) + level(b) >= k."""
    k = len(chain)
    levels = nonnesting.levels(rs, chain)
    icnt = scnt = 0
    for r in range(len(rs.positive_roots)):
        if levels[r] < k:
            continue
        if all(levels[a] + levels[b] < k for a, b in rs.pair_lists[r]):
            icnt += 1
            scnt += r < rs.n
    return icnt, scnt


def census_per_leaf(rs: RootSystem, chains) -> dict:
    """Histogram of top_statistics over the given chains."""
    out = {}
    for chain in chains:
        key = top_statistics(rs, chain)
        out[key] = out.get(key, 0) + 1
    return out


def lattice_ok(model, z) -> bool:
    """Whether z lies in the coroot lattice: adj(A^T) z = 0 mod det A."""
    return model.det == 1 or all(
        sum(r * x for r, x in zip(row, z)) % model.det == 0
        for row in model.congruence_rows
    )


def lattice_points(model, t: int, zeros=frozenset(), cap: bool = False):
    """Yield lattice z >= 0 with c.z <= t, z_j = 0 on `zeros`, and
    c.z = t exactly when `cap` is set, one point at a time."""
    n = len(model.c)
    z = [0] * n

    def rec(j: int, budget: int):
        if j == n:
            if cap and budget != 0:
                return
            if lattice_ok(model, z):
                yield tuple(z)
            return
        if j in zeros:
            z[j] = 0
            yield from rec(j + 1, budget)
            return
        for v in range(budget // model.c[j] + 1):
            z[j] = v
            yield from rec(j + 1, budget - v * model.c[j])
        z[j] = 0

    yield from rec(0, t)


def walls_by_enumeration(rs: RootSystem, t: int) -> tuple:
    """Wall-incidence histogram of the t-dilated simplex, by listing
    every lattice point and counting its zero coordinates and the cap."""
    from fct.ehrhart import simplex_model

    model = simplex_model(rs)
    counts = [0] * (rs.n + 2 if t == 0 else rs.n + 1)
    for z in lattice_points(model, t):
        hit = sum(1 for v in z if v == 0)
        if sum(cv * zv for cv, zv in zip(model.c, z)) == t:
            hit += 1
        counts[hit] += 1
    return tuple(counts)


def walls_by_dp_at(rs: RootSystem, t: int) -> tuple:
    """Wall-incidence histogram of the t-dilated simplex from a dynamic
    program run at t alone: coordinate by coordinate, states (c.z so
    far, adj(A^T) z mod det A, zero coordinates), the cap counted from
    the final c.z."""
    from fct.ehrhart import simplex_model

    model = simplex_model(rs)
    n, det = rs.n, model.det
    states = {(0, (0,) * n, 0): 1}
    for j, cj in enumerate(model.c):
        column = [row[j] for row in model.congruence_rows]
        nxt = {}
        for (level, residue, zeros), count in states.items():
            for v in range((t - level) // cj + 1):
                key = (
                    level + v * cj,
                    tuple((x + a * v) % det for x, a in zip(residue, column)),
                    zeros + (v == 0),
                )
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
    counts = [0] * (n + 2 if t == 0 else n + 1)
    for (level, residue, zeros), count in states.items():
        if not any(residue):
            counts[zeros + (level == t)] += count
    return tuple(counts)


def count_by_faces(rs: RootSystem, t: int) -> dict:
    """Per wall-set counts (f, g): points on all walls of the set, and
    points on exactly those walls via inclusion-exclusion.

    Wall-sets are frozensets over {0..n}, where 0..n-1 are the
    coordinate walls and n is the cap c.z = t; the full set is the
    empty face and is excluded.
    """
    from fct.ehrhart import simplex_model

    if t < 1:
        raise UsageError("face counts need a positive dilation")
    model = simplex_model(rs)
    n = rs.n
    walls = range(n + 1)
    subsets = []
    f = {}
    for bits in range(1 << (n + 1)):
        s = frozenset(j for j in walls if (bits >> j) & 1)
        if len(s) == n + 1:
            continue
        subsets.append(s)
        f[s] = sum(
            1
            for _ in lattice_points(
                model, t, zeros=frozenset(j for j in s if j < n), cap=n in s
            )
        )
    out = {}
    for s in subsets:
        g = 0
        for s2 in subsets:
            if s <= s2:
                g += (-1) ** (len(s2) - len(s)) * f[s2]
        out[s] = (f[s], g)
    return out


def faces_to_incidence(rs: RootSystem, t: int) -> tuple:
    """The wall histogram recomputed from the face decomposition."""
    counts = [0] * (rs.n + 1)
    for s, (_, g) in count_by_faces(rs, t).items():
        counts[len(s)] += g
    return tuple(counts)


def is_filter(rs: RootSystem, mask: int) -> bool:
    """Upward closure of a root-index bitmask, by testing every pair."""
    for r_idx, r in enumerate(rs.positive_roots):
        if (mask >> r_idx) & 1:
            continue
        for s_idx, s in enumerate(rs.positive_roots):
            if (mask >> s_idx) & 1 and all(x <= y for x, y in zip(s, r)):
                return False
    return True


def subfilter_table(filters) -> tuple:
    """Entry f: ascending indices of the filters contained in filters[f],
    by scanning every pair; the subfilter lists of the compiled chain
    kernels."""
    return tuple(
        tuple(j for j, g in enumerate(filters) if g & ~f == 0) for f in filters
    )


def mask_at(rs: RootSystem, chain: tuple, i: int) -> int:
    """I_i of a chain of filter masks, with I_0 = all roots and I_i = I_k
    above k."""
    if i <= 0:
        return (1 << len(rs.positive_roots)) - 1
    return chain[min(i, len(chain)) - 1]


def is_geometric(rs: RootSystem, chain: tuple) -> bool:
    """Literal evaluation of both chain conditions on all index pairs,
    with the bitmasks of the chain's filters."""
    k = len(chain)
    triples = rs.sum_triples
    full = (1 << len(rs.positive_roots)) - 1
    for i in range(0, k + 1):
        for j in range(0, k + 1):
            x, y = mask_at(rs, chain, i), mask_at(rs, chain, j)
            z = mask_at(rs, chain, min(i + j, k))
            for a, b, c in triples:
                if not (z >> c) & 1:
                    if ((x >> a) & 1 and (y >> b) & 1) or ((x >> b) & 1 and (y >> a) & 1):
                        return False
            if i + j <= k:
                jx, jy = full & ~x, full & ~y
                jz = mask_at(rs, chain, i + j)
                for a, b, c in triples:
                    if (jz >> c) & 1:
                        if ((jx >> a) & 1 and (jy >> b) & 1) or (
                            (jx >> b) & 1 and (jy >> a) & 1
                        ):
                            return False
    return True


def enumerate_faces(rs: RootSystem, k: int) -> tuple:
    """All cliques of the compatibility graph as sorted vertex tuples,
    lexicographically ordered, by a walk that lists every face."""
    from fct.cluster import compat_masks

    masks = compat_masks(rs, k)
    nv = len(masks)
    out = []

    def visit(face, ext, start):
        out.append(face)
        for v in range(start, nv):
            if (ext >> v) & 1:
                visit(face + (v,), ext & masks[v], v + 1)

    visit((), (1 << nv) - 1 if nv else 0, 0)
    return tuple(out)


def filter_generated(rs: RootSystem, a: int) -> frozenset:
    """The set of roots r above the a-th simple root alpha in the root
    poset, as the roots whose difference r - alpha has no negative
    coordinate."""
    alpha = rs.positive_roots[a]
    return frozenset(
        r for r in rs.positive_roots if min(y - x for x, y in zip(alpha, r)) >= 0
    )


def interior_point(rows, n: int):
    """A rational point satisfying every row, or None.

    Back-substitutes through the elimination tower, taking midpoints of
    the surviving open intervals so strict rows end up strictly
    satisfied.
    """
    tower = []
    cur = _dominate(_normalize(r) for r in rows)
    for j in range(n - 1, -1, -1):
        tower.append(cur)
        cur = _eliminate(cur, j)
        if cur is None:
            return None
    if not all(_zero_row_ok(r) for r in cur):
        return None
    point = [Fraction(0)] * n
    for j in range(n):
        system = tower.pop()
        lo = hi = None
        for coeffs, rhs, strict in system:
            cj = coeffs[j]
            if cj == 0:
                continue
            rest = sum(c * point[s] for s, c in enumerate(coeffs) if s != j)
            bound = (Fraction(rhs) - rest) / cj
            if cj > 0 and (lo is None or (bound, strict) > lo):
                lo = (bound, strict)
            if cj < 0 and (hi is None or (bound, not strict) < hi):
                hi = (bound, not strict)
        if lo is None and hi is None:
            val = Fraction(0)
        elif hi is None:
            val = lo[0] + 1
        elif lo is None:
            val = hi[0] - 1
        else:
            if lo[0] > hi[0] or (lo[0] == hi[0] and (lo[1] or not hi[1])):
                raise InternalInvariantError("empty interval after feasibility")
            val = (lo[0] + hi[0]) / 2 if lo[0] < hi[0] else lo[0]
        point[j] = val
    return tuple(point)


def levels_of_point(rs: RootSystem, k: int, point) -> tuple:
    """Level vector of a point meeting no hyperplane of the arrangement."""
    out = []
    for root in rs.positive_roots:
        v = sum((c * x for c, x in zip(root, point)), Fraction(0))
        if v.denominator == 1 and 0 <= v <= k:
            raise UsageError("point lies on an arrangement hyperplane")
        out.append(min(k, v.numerator // v.denominator))
    return tuple(out)


def full_system(rs: RootSystem, k: int, levels: tuple) -> list:
    """Every strip row of the region with level vector ``levels``, no row
    dropped: for each positive root at level m, its lower row and, below
    level k, its upper row."""
    rows = []
    for r, root in enumerate(rs.positive_roots):
        m = levels[r]
        rows.append((root, m, True))
        if m < k:
            rows.append((tuple(-c for c in root), -(m + 1), True))
    return rows


def verify_disjoint(rs: RootSystem, k: int):
    """Feasibility, interior-point level recovery, and pairwise disjointness."""
    regions = tuple(regions_of(rs, k))
    for levels in regions:
        point = interior_point(full_system(rs, k, levels), rs.n)
        if point is None:
            return False, {"levels": levels, "reason": "empty region"}
        if levels_of_point(rs, k, point) != levels:
            return False, {"levels": levels, "reason": "level mismatch"}
    for a in range(len(regions)):
        for b in range(a + 1, len(regions)):
            joint = full_system(rs, k, regions[a]) + full_system(rs, k, regions[b])
            if feasible(joint, rs.n):
                return False, {
                    "levels": regions[a],
                    "other": regions[b],
                    "reason": "overlap",
                }
    return True, None


def constraint_for(rs: RootSystem, k: int, levels: tuple, r: int, colour: int):
    """The row of the region's system bounding root r's strip at colour."""
    root = rs.positive_roots[r]
    if colour == levels[r]:
        return (root, colour, True)
    if colour == levels[r] + 1 and colour <= k:
        return (tuple(-c for c in root), -colour, True)
    raise UsageError("hyperplane does not bound this region's strip")


def is_wall_by_fm(rs: RootSystem, k: int, levels: tuple, r: int, colour: int) -> bool:
    """Whether the hyperplane of (r, colour) meets the closure of the
    region in a facet: its strip row becomes an equality, every other
    row stays strict."""
    own = constraint_for(rs, k, levels, r, colour)
    root = rs.positive_roots[r]
    rows = [row for row in full_system(rs, k, levels) if row != own]
    rows.append((root, colour, False))
    rows.append((tuple(-c for c in root), -colour, False))
    return feasible(rows, rs.n)


def is_bounded_by_fm(rs: RootSystem, k: int, levels: tuple) -> bool:
    """Triviality of the recession cone, one coordinate direction at a
    time, by Fourier-Motzkin."""
    cone = []
    for r, root in enumerate(rs.positive_roots):
        cone.append((root, 0, False))
        if levels[r] < k:
            cone.append((tuple(-c for c in root), 0, False))
    for j in range(rs.n):
        for sign in (1, -1):
            probe = tuple(sign if s == j else 0 for s in range(rs.n))
            if feasible(cone + [(probe, 1, False)], rs.n):
                return False
    return True


def wall_report_by_fm(rs: RootSystem, k: int, levels: tuple) -> tuple:
    """The walls (root, colour), lower row before upper row, roots in
    order, from one FM wall test per candidate row."""
    return tuple(
        (r, colour)
        for r, m in enumerate(levels)
        for colour in ([m] if m == k else [m, m + 1])
        if is_wall_by_fm(rs, k, levels, r, colour)
    )


def cut_system(rs: RootSystem, k: int, levels: tuple) -> list:
    """The rows of `full_system` that neither of two rules drops, lower
    row before upper row, roots in order.  For positive roots alpha,
    beta, gamma at levels m, m_beta, m_gamma:

    * the lower row alpha.t > m, where alpha = beta + gamma, follows from
      beta.t > m_beta and gamma.t > m_gamma when m_beta + m_gamma >= m;
    * the upper row alpha.t < m + 1, where beta = alpha + gamma, follows
      from beta.t < m_beta + 1 and gamma.t > m_gamma when beta lies below
      level k (so that its upper row exists) and m_beta <= m + m_gamma.

    The cut keeps every face.  Make one row of the full system an
    equality and keep the others strict; each dropped row other than the
    equality still holds strictly on the kept rows plus the equality.
    Settle the lower rows first, by ascending height: the implying rows
    of a dropped lower row are the lower rows of beta and gamma, which
    are lower than alpha and distinct.  Then settle the upper rows, by
    descending height: the implying rows of a dropped upper row are the
    upper row of beta, which is higher than alpha, and the lower row of
    gamma, settled already.  Each implying row is the equality, which
    holds with >=, or a row that holds strictly (kept, or dropped and
    settled before).  At most one of the two is the equality, so their
    sum is strict.  Hence a face of the full system is nonempty exactly
    when the same face of the cut system is, and a dropped row is never
    a wall: with it as the equality, its implying rows force it strict.
    """
    above = [[] for _ in rs.positive_roots]  # entry r: (gamma, beta), r + gamma = beta
    for r, pairs in enumerate(rs.pair_lists):
        for a, b in pairs:
            above[a].append((b, r))
            if a != b:
                above[b].append((a, r))
    rows = []
    for r, root in enumerate(rs.positive_roots):
        m = levels[r]
        if not any(levels[a] + levels[b] >= m for a, b in rs.pair_lists[r]):
            rows.append((root, m, True))
        if m < k and not any(
            levels[b] < k and levels[b] <= m + levels[g] for g, b in above[r]
        ):
            rows.append((tuple(-c for c in root), -(m + 1), True))
    return rows


def _on_hyperplane(rows, equality) -> list:
    """The rows other than ``equality`` restricted to its hyperplane
    e.t = b, in one variable fewer.

    The variable j with the least nonzero |e_j| is substituted away:
    t_j = (b - sum_{i != j} e_i t_i) / e_j, with each row scaled by
    |e_j| > 0 so that it stays integral and keeps its direction.
    """
    e, b, _ = equality
    j = min((i for i, v in enumerate(e) if v), key=lambda i: abs(e[i]))
    scale = abs(e[j])
    sign = 1 if e[j] > 0 else -1
    out = []
    for row in rows:
        if row == equality:
            continue
        a, rhs, strict = row
        f = sign * a[j]
        coeffs = [scale * ai - f * ei for ai, ei in zip(a, e)]
        del coeffs[j]
        out.append((tuple(coeffs), scale * rhs - f * b, strict))
    return out


def walls_by_fm_on_cut(rs: RootSystem, k: int, levels: tuple) -> tuple:
    """The walls (root index, colour) of the region, in full-system
    order: each row of `cut_system` whose equality, with every other
    kept row strict, Fourier-Motzkin finds feasible in n - 1 variables."""
    kept = cut_system(rs, k, levels)
    walls = []
    for row in kept:
        if feasible(_on_hyperplane(kept, row), rs.n - 1):
            coeffs, rhs, _ = row
            root = coeffs if rhs >= 0 else tuple(-c for c in coeffs)
            walls.append((rs.root_index[root], abs(rhs)))
    return tuple(walls)


@dataclass(frozen=True, eq=False)
class MaskedPoset:
    """The delta-sequence poset with slotwise order stored as bitmasks.

    Elements are listed in rank order, so indices form a linear
    extension; down[b] and up[a] are membership bitmasks (reflexive).
    """

    rs: RootSystem
    k: int
    elements: tuple
    ranks: tuple
    down: tuple
    up: tuple

    def leq(self, a: int, b: int) -> bool:
        return bool((self.down[b] >> a) & 1)

    def rank_histogram(self) -> tuple:
        out = [0] * (self.rs.n + 1)
        for r in self.ranks:
            out[r] += 1
        return tuple(out)


def lower_covers(tables, a: int) -> tuple:
    """Indices of the lower covers of element a of [1, c], read off the
    ``covers`` table of ``noncrossing._interval_tables``."""
    nref = len(tables.rs.positive_roots)
    return tuple(u for u in tables.covers[a * nref:(a + 1) * nref] if u >= 0)


@lru_cache(maxsize=None)
def masked_nc_poset(rs: RootSystem, k: int) -> MaskedPoset:
    """The sequences of ``build_nc_poset`` with down and up masks.

    a <= b when every slot of a lies below the same slot of b (which
    forces rank(a) <= rank(b)).  Per slot s and interval element q, the
    mask of sequences whose slot-s part lies below q (or above q) comes
    from closing the interval covers; down[b] is the AND of its slots'
    masks with the mask of ranks up to rank(b), and up[a] likewise.
    """
    from fct.noncrossing import _interval_tables, build_nc_poset

    base = build_nc_poset(rs, k)
    elems_seq, ranks = base.elements, base.ranks
    tables = _interval_tables(rs)
    lengths = tables.lengths
    lower = [lower_covers(tables, a) for a in range(len(tables))]
    size = len(elems_seq)
    shortest_first = sorted(range(len(lengths)), key=lengths.__getitem__)
    slot_down = []
    slot_up = []
    for s in range(k):
        exact = [0] * len(lengths)
        for a, seq in enumerate(elems_seq):
            exact[seq[s + 1]] |= 1 << a
        below = list(exact)
        for q in shortest_first:
            for p in lower[q]:
                below[q] |= below[p]
        above = list(exact)
        for q in reversed(shortest_first):
            for p in lower[q]:
                above[p] |= above[q]
        slot_down.append(below)
        slot_up.append(above)
    full = (1 << size) - 1
    down = []
    up = []
    for a, seq in enumerate(elems_seq):
        d = (1 << bisect_right(ranks, ranks[a])) - 1
        u = full & ~((1 << bisect_left(ranks, ranks[a])) - 1)
        for s, q in enumerate(seq[1:]):
            d &= slot_down[s][q]
            u &= slot_up[s][q]
        down.append(d)
        up.append(u)
    poset = MaskedPoset(rs, k, elems_seq, ranks, tuple(down), tuple(up))
    check_graded(poset)
    return poset


def covers_of(poset: MaskedPoset, b: int) -> int:
    """Bitmask of the elements covered by b."""
    below = poset.down[b] & ~(1 << b)
    shadowed = 0
    m = below
    while m:
        z = (m & -m).bit_length() - 1
        shadowed |= poset.down[z] & ~(1 << z)
        m &= m - 1
    return below & ~shadowed


def check_graded(poset: MaskedPoset) -> None:
    """Unique minimum of rank 0, covers raise rank by one, maxima at rank n."""
    n = poset.rs.n
    mins = [a for a, m in enumerate(poset.down) if m == (1 << a)]
    if len(mins) != 1 or poset.ranks[mins[0]] != 0:
        raise InternalInvariantError("poset does not have a unique bottom of rank 0")
    for b in range(len(poset.elements)):
        m = covers_of(poset, b)
        while m:
            a = (m & -m).bit_length() - 1
            if poset.ranks[b] != poset.ranks[a] + 1:
                raise InternalInvariantError("cover relation does not raise rank by 1")
            m &= m - 1
        if poset.up[b] == (1 << b) and poset.ranks[b] != n:
            raise InternalInvariantError("maximal element below rank n")


@lru_cache(maxsize=None)
def moebius_rows(poset: MaskedPoset) -> tuple:
    """Row d maps element index e (with d <= e) to mu(d, e)."""
    size = len(poset.elements)
    rows = []
    for d in range(size):
        row = {d: 1}
        m = poset.up[d] & ~(1 << d)
        while m:
            e = (m & -m).bit_length() - 1
            interval = poset.down[e] & poset.up[d] & ~(1 << e)
            total = 0
            z_mask = interval
            while z_mask:
                z = (z_mask & -z_mask).bit_length() - 1
                total += row[z]
                z_mask &= z_mask - 1
            row[e] = -total
            m &= m - 1
        rows.append(row)
    return tuple(rows)


def moebius(poset: MaskedPoset, a: int, b: int) -> int:
    if not poset.leq(a, b):
        raise UsageError("moebius is only defined on comparable pairs")
    return moebius_rows(poset)[a][b]


def m_triangle_by_moebius(rs: RootSystem, k: int) -> BivarPoly:
    """Moebius sum x^(n - rank of top) y^(n - rank of bottom) over every
    comparable pair of the masked delta-sequence poset."""
    poset = masked_nc_poset(rs, k)
    n = rs.n
    acc = {}
    for d, row in enumerate(moebius_rows(poset)):
        yd = n - poset.ranks[d]
        for e, mu in row.items():
            key = (n - poset.ranks[e], yd)
            acc[key] = acc.get(key, 0) + mu
    return BivarPoly(acc)


def narayana_vector(rs: RootSystem, k: int) -> tuple:
    """Entry i: number of delta sequences of rank n - i."""
    return tuple(reversed(masked_nc_poset(rs, k).rank_histogram()))


def nc_json_by_elements(rs: RootSystem, k: int) -> list:
    """``noncrossing.nc_json`` through group elements: the parts of each
    delta sequence from ``absolute_interval``, sorted by n minus the
    rank-computed length of d_0, then by the positions of d_1..d_k in
    ``interval_by_filtering``, the group's breadth-first order, and
    spelled by ``weyl.reflection_word``."""
    from fct import weyl
    from fct.noncrossing import absolute_interval, enumerate_delta_sequences

    elems = absolute_interval(rs)
    position = {w: p for p, w in enumerate(interval_by_filtering(rs))}
    seqs = sorted(
        (tuple(elems[a] for a in seq) for seq in enumerate_delta_sequences(rs, k)),
        key=lambda parts: (rs.n - parts[0].length, [position[p] for p in parts[1:]]),
    )
    words = {w: list(weyl.reflection_word(w)) for w in elems}
    return [[words[part] for part in parts] for parts in seqs]


def multichain_counts_by_pairs(rs: RootSystem, j: int) -> tuple:
    """Entry u: number of j-multichains below element u of [1, c], by
    summing over every pair (v, u) of the interval and testing v <= u
    with the length-additivity definition of absolute order."""
    from fct.noncrossing import absolute_interval

    elems = absolute_interval(rs)
    leq = leq_rows_by_pairs(elems)
    size = len(elems)
    cur = (1,) * size
    for _ in range(j):
        nxt = []
        for u in range(size):
            total = 0
            for v in range(size):
                if (leq[v] >> u) & 1:
                    total += cur[v]
            nxt.append(total)
        cur = tuple(nxt)
    return cur


def simple_indecomposables(rs: RootSystem, chain: tuple, l: int) -> frozenset:
    """The rank-l indecomposables of a chain that are simple roots."""
    return frozenset(r for r in nonnesting.indecomposables(rs, chain, l) if r < rs.n)


def h_vector(rs: RootSystem, k: int) -> tuple:
    """Coefficients h_0..h_n with sum h_i x^(n-i) = H(x, 1) = sum f_lm (x-1)^(n-l-m)."""
    from fct.cluster import f_triangle
    from fct.poly import h_from_f

    n = rs.n
    h = h_from_f(f_triangle(rs, k), n).substitute_y(1)
    return tuple(h.coeff(n - i, 0) for i in range(n + 1))


def positive_h_vector(rs: RootSystem, k: int) -> tuple:
    """Same expansion restricted to faces without negative simple roots."""
    from fct.cluster import positive_h_poly

    hp = positive_h_poly(rs, k)
    return tuple(hp.coeff(rs.n - i, 0) for i in range(rs.n + 1))
