"""Pure Python compute kernels.

These are the reference implementations of the hot loops; fct._fastcore
provides compiled equivalents with identical observable behaviour for
every kernel but nn_census_family (see fct.kernels).  The pure versions
accept arbitrary sizes (bitmasks are plain integers), the compiled ones
are limited to machine words and are selected per call in fct.kernels.

``gauss_jordan`` is the one integer row elimination; rank, determinant,
adjugate and kernel are read off it.  The compiled core keeps its own
rank loop.
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


def gauss_jordan(mat):
    """Fraction-free Gauss-Jordan elimination of an integer matrix:
    Bareiss's (Math. Comp. 22, 1968), run to reduced form.

    At each pivot a, every other row becomes (row a - b pivot_row) / d,
    b its entry in the pivot column and d the previous pivot; each entry
    stays a minor of the row-permuted matrix, so every division is exact.
    Returns (rows, pivots, d, sign): the first rank rows are d times the
    reduced row echelon form, with pivot columns ``pivots``, the others
    are zero, d is the last pivot (1 if none) and sign that of the row
    swaps.  A square matrix of full rank has determinant sign d.
    """
    m = [list(row) for row in mat]
    pivots = []
    sign = d = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        for p in range(r, len(m)):
            if m[p][c]:
                break
        else:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        prow = m[r]
        a = prow[c]
        for i, row in enumerate(m):
            b = row[c]
            if b:
                if i != r:
                    m[i] = [(x * a - b * y) // d for x, y in zip(row, prow)]
            elif a != d and any(row):  # else the update leaves the row as it is
                m[i] = [x * a // d for x in row]
        d = a
        pivots.append(c)
    return m, pivots, d, sign


def int_rank(mat):
    """Rank of an integer matrix."""
    return len(gauss_jordan(mat)[1])


def adjugate(mat):
    """(det, adj) of a square integer matrix, mat adj = det I, from the
    elimination of [mat | I]: it ends as [d I | d mat^-1], and
    d mat^-1 = sign adj.  (0, None) if mat is singular."""
    n = len(mat)
    rows, pivots, d, sign = gauss_jordan(
        [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(mat)]
    )
    if pivots != list(range(n)):
        return 0, None
    return sign * d, [[sign * x for x in row[n:]] for row in rows]


def null_space(mat):
    """A basis of the integer vectors y with mat y = 0: for each free
    column f, y_f = d and y_p = -row[f] at the pivot p of each row."""
    rows, pivots, d, _ = gauss_jordan(mat)
    cols = len(mat[0]) if mat else 0
    out = []
    for f in range(cols):
        if f not in pivots:
            y = [0] * cols
            y[f] = d
            for p, row in zip(pivots, rows):
                y[p] = -row[f]
            out.append(y)
    return out


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


def _walk(filters, subs, triples, k, full, leaf=None):
    """Depth-first descent through the geometric chains of at most k filters.

    ``filters`` must be sorted ascending (so filters[-1] = full) and
    ``subs[f]`` lists the indices of the filters contained in filters[f],
    ascending; with k = 1 the walk never reads ``subs``.

    The children of a chain I_1 >= ... >= I_{m-1} (m <= k, I_0 = full)
    are the filters g in I_{m-1} with L <= g and g disjoint from U, where
    L and U are the unions of (I_i + I_j) and of (J_i + J_j), i + j = m,
    i, j >= 1, intersected with the roots: the chain conditions that
    become checkable at depth m (the nonnesting docstring shows that the
    wrapped ones, i + j > k, never reject).  Packed as one int,
    bounds = L | U << R with R roots, the children form the group

        key = (bounds & (full | I_{m-1} << R)) * len(filters) + index of I_{m-1},

    which the key alone determines (``group``).  A node builds its
    children's bounds once: only the (I_1, child) term of their
    children's bounds depends on the child.

    Returns (tally, groups, group).  tally[m] maps the key of each group
    of chains of m filters to the number of chains of m - 1 filters whose
    children it holds; groups memoises the candidate tuple of each group
    the walk descends into.  With ``leaf``, calls leaf(idx, cands) for
    every chain of k - 1 filters, in lexicographic order: idx[1:k] are
    its filter indices and cands its children.
    """
    nf = len(filters)
    width = full.bit_length()
    bits = [(1 << a, 1 << b, 1 << c) for a, b, c in triples]
    keep = [full | f << width for f in filters]
    viol = [(full & ~f) | f << width for f in filters]

    class Row(dict):
        """Row x of the pair sums: row[y] = (I_x + I_y) | (J_x + J_y) << R,
        computed on first use."""

        __slots__ = ("fx", "jx")

        def __missing__(self, y):
            fx, jx = self.fx, self.jx
            fy = filters[y]
            jy = full & ~fy
            s = t = 0
            for ba, bb, bc in bits:
                if (fx & ba and fy & bb) or (fx & bb and fy & ba):
                    s |= bc
                if (jx & ba and jy & bb) or (jx & bb and jy & ba):
                    t |= bc
            out = self[y] = s | t << width
            return out

    rows = []
    for f in filters:
        row = Row()
        row.fx, row.jx = f, full & ~f
        rows.append(row)

    def group(key):
        bounds = key // nf
        return tuple(g for g in subs[key % nf] if not bounds & viol[g])

    root = nf - 1
    groups = {root: tuple(range(nf))}
    tally = [{} for _ in range(k + 1)]
    tally[1][root] = 1
    idx = [root] * (k + 1)

    def visit(m, key):
        # idx[1:m] is a geometric chain; its children are group(key)
        cands = groups.get(key)
        if cands is None:
            cands = groups[key] = group(key)
        part = 0
        for i in range(2, (m + 1) // 2 + 1):
            part |= rows[idx[i]][idx[m + 1 - i]]
        first = idx[1]
        counts = tally[m + 1]
        deeper = m + 1 < k
        for g in cands:
            idx[m] = g
            # I_1 + I_m is the only term of the children's bounds that involves g
            sums = rows[first if m > 1 else g][g]
            child = ((part | sums) & keep[g]) * nf + g
            counts[child] = counts.get(child, 0) + 1
            if deeper:
                visit(m + 1, child)
            elif leaf is not None:
                cands_k = groups.get(child)
                if cands_k is None:
                    cands_k = groups[child] = group(child)
                leaf(idx, cands_k)

    try:
        if k == 1:
            if leaf is not None:
                leaf(idx, groups[root])
        else:
            visit(1, root)
    finally:
        visit = None  # the closure refers to itself; free the memo on return
    return tally, groups, group


def nn_chains(filters, subs, triples, k, full):
    """All geometric chains of k nested filters, as tuples of bitmasks,
    in lexicographic order of the mask tuples."""
    if k < 1:
        return [()]
    out = []

    def leaf(idx, cands):
        head = tuple(filters[f] for f in idx[1:k])
        out.extend(head + (filters[g],) for g in cands)

    _walk(filters, subs, triples, k, full, leaf)
    return out


def nn_census_family(filters, subs, triples, k, full, n_simple):
    """Histograms of the geometric chains of k' filters by their top-rank
    statistics, for every k' = 1..k, from one depth-k descent.

    Entry k' - 1 maps (i, s) to the number of chains of k' filters with
    i indecomposable elements of rank k', s of them simple.  A root of
    I_{k'} is decomposable at the top rank when it lies in Phi+ + I_{k'}
    or in some I_i + I_j with i + j = k', i, j >= 1; the latter union is
    the L of the chain's group.  So the statistic is read from the group
    key: free[g] & ~L with free[g] = g minus (Phi+ + g), the same for
    every chain with that key, and each group is counted once.
    """
    if k < 1:
        return ()
    tally, groups, group = _walk(filters, subs, triples, k, full)
    up = [0] * full.bit_length()
    for a, b, c in triples:
        up[a] |= 1 << c
        up[b] |= 1 << c
    free = []
    for f in filters:
        above = 0
        m = f
        while m:
            low = m & -m
            above |= up[low.bit_length() - 1]
            m ^= low
        free.append(f & ~above)
    simple = (1 << n_simple) - 1
    nf = len(filters)
    hists = {}
    out = []
    for level in tally[1:]:
        counts = {}
        for key, mult in level.items():
            hist = hists.get(key)
            if hist is None:
                low = key // nf & full
                hist = hists[key] = {}
                cands = groups.get(key)
                for g in group(key) if cands is None else cands:
                    x = free[g] & ~low
                    stat = (x.bit_count(), (x & simple).bit_count())
                    hist[stat] = hist.get(stat, 0) + 1
            for stat, c in hist.items():
                counts[stat] = counts.get(stat, 0) + c * mult
        out.append(counts)
    return tuple(out)


def nn_census(filters, subs, triples, pair_lists, k, full, nroots, n_simple):
    """Histogram of geometric chains of k filters by their top-rank
    statistics: nn_census_family's entry for k.

    ``pair_lists`` and ``nroots`` are the compiled kernel's inputs and
    are not read here.
    """
    if k < 1:
        return {(0, 0): 1}
    return nn_census_family(filters, subs, triples, k, full, n_simple)[k - 1]
