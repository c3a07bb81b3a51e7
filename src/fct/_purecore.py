"""Pure Python compute kernels.

These are the reference implementations of the hot loops; fct._fastcore
provides compiled equivalents with identical observable behaviour.  The
pure versions accept arbitrary sizes (bitmasks are plain integers), the
compiled ones are limited to machine words and are selected per call in
fct.kernels.
"""
from __future__ import annotations


class LimitExceeded(Exception):
    pass


def weyl_closure(gens, limit):
    """Breadth-first closure of signed-index permutations under right
    multiplication, identity first.  Deterministic for a fixed generator
    order."""
    n = len(gens[0])
    ident = tuple(range(1, n + 1))
    seen = {ident}
    order = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                out = tuple(w[s - 1] if s > 0 else -w[-s - 1] for s in g)
                if out not in seen:
                    if len(seen) >= limit:
                        raise LimitExceeded
                    seen.add(out)
                    order.append(out)
                    nxt.append(out)
        frontier = nxt
    return order


def bareiss(mat):
    """(rank, det) of an integer matrix, by fraction-free Bareiss elimination.

    det is the determinant of a square matrix (1 for the empty one), with
    the sign of the row swaps, and 0 for any other shape.
    """
    m = [list(row) for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    sign = 1
    prev = 1
    for c in range(cols):
        pivot = next((i for i in range(rank, rows) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        for i in range(rank + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[i][j] * m[rank][c] - m[i][c] * m[rank][j]) // prev
            m[i][c] = 0
        prev = m[rank][c]
        rank += 1
        if rank == rows:
            break
    return rank, sign * prev if rank == rows == cols else 0


def int_rank(mat):
    """Rank of an integer matrix."""
    return bareiss(mat)[0]


def clique_census(nbrs, nvert, n_neg):
    """Count all cliques of a graph whose first n_neg vertices are tagged.

    Returns (counts, max_hist) where counts maps (#untagged, #tagged) to
    the number of cliques with that composition (the empty clique
    included) and max_hist maps clique size to the number of maximal
    cliques of that size.
    """
    counts = {}
    max_hist = {}

    def visit(ext, start, l, m):
        key = (l, m)
        counts[key] = counts.get(key, 0) + 1
        if ext == 0:
            max_hist[l + m] = max_hist.get(l + m, 0) + 1
            return
        rest = ext >> start
        v = start
        while rest:
            if rest & 1:
                visit(ext & nbrs[v], v + 1, l + (v >= n_neg), m + (v < n_neg))
            rest >>= 1
            v += 1

    visit((1 << nvert) - 1 if nvert else 0, 0, 0, 0)
    return counts, max_hist


def _sum_masks(triples):
    """Memoised (X, Y) -> mask of (X + Y) intersected with the roots.

    A chain search meets the same pairs of filters (and of their
    complements) over and over, so each pair's sums are collected once
    and every later sum condition is one AND.
    """
    memo = {}

    def sums(x, y):
        key = (x, y) if x <= y else (y, x)
        out = memo.get(key)
        if out is None:
            out = 0
            for a, b, c in triples:
                if ((x >> a) & 1 and (y >> b) & 1) or ((x >> b) & 1 and (y >> a) & 1):
                    out |= 1 << c
            memo[key] = out
        return out

    return sums


def _depth_ok(masks, full, m, sums):
    """Incremental chain conditions that become checkable at depth m:
    (I_i + I_j) lies in I_m and (J_i + J_j) avoids I_m for i + j = m."""
    z = masks[m]
    for i in range(1, m // 2 + 1):
        if sums(masks[i], masks[m - i]) & ~z:
            return False
        if sums(full & ~masks[i], full & ~masks[m - i]) & z:
            return False
    return True


def _leaf_ok(masks, k, sums):
    """Wrapped sum conditions: indices i + j = k + 1 with 2 <= i <= j < k."""
    for i in range(2, (k + 1) // 2 + 1):
        if sums(masks[i], masks[k + 1 - i]) & ~masks[k]:
            return False
    return True


def _walk_chains(filters, subs, triples, k, full, leaf):
    """Depth-first descent through the nested chains of k >= 1 filters;
    calls ``leaf(masks)`` on every geometric one, in lexicographic order
    of the mask tuples, with masks[0] = full and masks[i] = I_i.

    ``filters`` must be sorted ascending; ``subs[f]`` lists the indices of
    the filters contained in filters[f], ascending.
    """
    masks = [full] + [0] * k
    sums = _sum_masks(triples)

    def descend(depth, cands):
        for f in cands:
            masks[depth] = filters[f]
            if depth >= 2 and not _depth_ok(masks, full, depth, sums):
                continue
            if depth == k:
                if _leaf_ok(masks, k, sums):
                    leaf(masks)
            else:
                descend(depth + 1, subs[f])

    descend(1, range(len(filters)))


def nn_chains(filters, subs, triples, k, full):
    """All geometric chains of k nested filters, as tuples of bitmasks,
    in lexicographic order of the mask tuples."""
    if k < 1:
        return [()]
    out = []
    _walk_chains(filters, subs, triples, k, full, lambda masks: out.append(tuple(masks[1:])))
    return out


def nn_census(filters, subs, triples, pair_lists, k, full, nroots, n_simple):
    """Histogram of geometric chains by their top-rank statistics.

    Returns a mapping (i, s) -> number of chains with i indecomposable
    elements of rank k, s of them simple.  Indecomposability at the top
    rank reduces to: the root lies in the last filter and no two-root
    decomposition root_a + root_b of it has level(a) + level(b) >= k.
    """
    if k < 1:
        return {(0, 0): 1}
    counts = {}

    def leaf(masks):
        levels = [0] * nroots
        for i in range(1, k + 1):
            m = masks[i]
            while m:
                low = m & -m
                levels[low.bit_length() - 1] = i
                m ^= low
        icnt = scnt = 0
        m = masks[k]
        while m:
            low = m & -m
            r = low.bit_length() - 1
            m ^= low
            if all(levels[a] + levels[b] < k for a, b in pair_lists[r]):
                icnt += 1
                if r < n_simple:
                    scnt += 1
        key = (icnt, scnt)
        counts[key] = counts.get(key, 0) + 1

    _walk_chains(filters, subs, triples, k, full, leaf)
    return counts
