"""Pure Python compute kernels.

Every request runs these but the clique census, which fct.kernels sends
to the compiled core (fct._fastcore) when it is built and the graph
fits; bitmasks are plain integers, so these accept any size.  Chain
listing (``nn_chains``) and the census (``nn_census_family``) are one
walk, ``_walk``, and one loop over the filter lattice,
``filters_between``, lists both all the filters and each group of
children in that walk.  The listing descends chain by chain.  The
census records the state of each chain of k - 2 filters and expands
each distinct state of its last two levels once, weighted by the chains
that share it; from k = 4 on the loop that picks I_{k-3} (I_1 at k = 4,
I_2 at k = 5) records those states inline, so it recurses only to the
chains of k - 4 filters.  The sums within each filter and within its
complement, which depth 1 reads, come from one recurrence over the
filters (``squares``).  The compiled core also
keeps nn_chains, nn_census (one entry of the census), int_rank and
weyl_closure, which only the tests and the benchmark's kernel probe
call; its chain kernels read a subfilter table that the pure ones do
not need.

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


def upper_masks(triples, width):
    """Entry r: the roots root_r + beta, beta positive, as one mask."""
    up = [0] * width
    for a, b, c in triples:
        up[a] |= 1 << c
        up[b] |= 1 << c
    return up


def filters_between(low, allowed, up):
    """The order filters g with low <= g <= allowed, for an order filter
    low and ``up`` = upper_masks of the roots, in no fixed order.

    The roots come in height order, so root r + beta has a larger index
    than r.  The roots of allowed - low are decided in decreasing index,
    so when root r comes every root above it is decided: r joins each
    filter built so far that holds all of up[r].  A root above r outside
    allowed keeps r out of every filter.
    """
    if low & ~allowed:
        return []
    masks = [low]
    rest = allowed & ~low
    while rest:
        r = rest.bit_length() - 1
        bit = 1 << r
        rest ^= bit
        need = up[r]
        masks += [m | bit for m in masks if m & need == need]
    return masks


def squares(filters, triples, width):
    """Entry x: (I + I) | (J + J) << width, intersected with the roots,
    for I = filters[x] and J its complement (rows[x][x] of ``_walk``).

    ``filters`` are all the order filters, ascending.  The lowest root l
    of I is minimal in it (the roots come in height order), so I without
    l is an earlier filter I', and I + I is I' + I' plus the sums of l
    with I.  Likewise the highest root h of J is maximal in J, so I with
    h added is a later filter, whose complement J' is J without h, and
    J + J is J' + J' plus the sums of h with J.  A root is never the sum
    of a root with itself.
    """
    ext = [[] for _ in range(width)]
    for a, b, c in triples:
        ext[a].append((b, 1 << c))
        ext[b].append((a, 1 << c))
    lower = {}
    for f in filters:
        s = 0
        if f:
            low = f & -f
            s = lower[f ^ low]
            for b, c in ext[low.bit_length() - 1]:
                if f >> b & 1:
                    s |= c
        lower[f] = s
    full = (1 << width) - 1
    upper = {}
    for f in reversed(filters):
        t = 0
        rest = full & ~f
        if rest:
            h = rest.bit_length() - 1
            t = upper[f | 1 << h]
            for b, c in ext[h]:
                if rest >> b & 1:
                    t |= c
        upper[f] = t
    return [lower[f] | upper[f] << width for f in filters]


def _walk(filters, triples, k, full, leaf=None):
    """Depth-first descent through the geometric chains of at most k filters.

    ``filters`` must be all the order filters, sorted ascending (so
    filters[-1] = full).

    The children of a chain I_1 >= ... >= I_{m-1} (m <= k, I_0 = full)
    are the filters g in I_{m-1} with L <= g and g disjoint from U, where
    L and U are the unions of (I_i + I_j) and of (J_i + J_j), i + j = m,
    i, j >= 1, intersected with the roots: the chain conditions that
    become checkable at depth m (the nonnesting docstring shows that the
    wrapped ones, i + j > k, never reject).  Packed as one int,
    bounds = L | U << R with R roots, the children form the group

        key = (bounds & (full | I_{m-1} << R)) * len(filters) + index of I_{m-1},

    which the key alone determines (``group``): they are the filters
    between L and I_{m-1} - U (``filters_between``).  L is an order
    filter, so it needs no closing: let a in I_i, b in I_j with a + b a
    root, and a + b + alpha_s a root for a simple root alpha_s.  In a
    Chevalley basis [e_a, e_b] is a nonzero multiple of e_{a+b}, so
    [e_s, [e_a, e_b]] != 0, and by the Jacobi identity [[e_s, e_a], e_b]
    or [e_a, [e_s, e_b]] is nonzero: a + alpha_s is a root, in I_i as
    filters are upward closed, or b + alpha_s is one, in I_j, and
    a + b + alpha_s lies in I_i + I_j either way.  So (I_i + I_j)
    intersected with the roots is upward closed, and so is the union L.  A node builds its children's bounds once: only the
    (I_1, child) term of their children's bounds depends on the child.

    The census (no ``leaf``, k >= 4) stops the descent at the chains of
    k - 2 filters and records, per chain, its state: the key of its group
    of children (the key holds the index of I_{k-2}), the index of I_1,
    and P, the union of the rows (I_i + I_{k-i}) | (J_i + J_{k-i}) << R
    for 2 <= i <= k/2.  The state fixes every key of level k below the
    chain.  The chain's children h are the members of its group, which
    the key determines.  The key of h's own children is (bounds & keep[h])
    * len(filters) + index of h, and bounds is the union over the pairs
    i + j = k, 1 <= i <= j, of the rows of (I_i, I_j).  The pair
    (1, k - 1) gives rows[I_1][h]; every other pair has
    2 <= i <= j <= k - 2, so it reads only I_2..I_{k-2}, and together
    they give P.  So h's key is ((P | rows[I_1][h]) & keep[h])
    * len(filters) + index of h.  Each chain adds one to tally[k - 1] at
    its key, so tally[k - 1] is the sum of the multiplicities of the
    states with that key, and the children of each distinct state are
    expanded once into tally[k], weighted by its multiplicity.  A state
    is packed as one int, (key * len(filters) + index of I_1) << 2R | P
    (P < 2^2R).  At k <= 3 each chain of k - 2 filters has a state of its
    own (the key holds I_{k-2} and, at k = 3, that is I_1), so the
    descent runs to the end there.  From k = 4 on, the loop that picks
    I_{k-3} (I_1 at k = 4, I_2 at k = 5) records the states of each pick's
    children itself, so no chain of k - 3 filters is visited.  That is the
    same walk: within the loop I_1..I_{k-4} stay fixed, so a term that
    does not read the pick has one value for every pick and is read once,
    while the terms that read it are read per pick (at k = 4 the pick is
    I_1, so rows[I_1] and P, the square of h, are read per pick), and each
    state is the one the visit would record.

    Returns (tally, groups, group).  tally[m] maps the key of each group
    of chains of m filters to the number of chains of m - 1 filters whose
    children it holds; groups memoises the candidate tuple of each group
    the walk expands.  With ``leaf``, calls leaf(idx, cands) for every
    chain of k - 1 filters, in lexicographic order: idx[1:k] are its
    filter indices and cands its children.
    """
    nf = len(filters)
    width = full.bit_length()
    keep = [full | f << width for f in filters]
    index = {f: i for i, f in enumerate(filters)}
    up = upper_masks(triples, width)

    class Row(dict):
        """Row x of the pair sums: row[y] = (I_x + I_y) | (J_x + J_y) << R,
        computed on first use as the union over the roots b of plus[b] =
        (I_x + b, (J_x + b) << R), read at b in I_y, resp. in J_y."""

        __slots__ = ("plus",)

        def __init__(self, fx):
            plus = [[0, 0] for _ in range(width)]
            for a, b, c in triples:
                plus[b][not fx >> a & 1] |= 1 << c
                plus[a][not fx >> b & 1] |= 1 << c
            self.plus = [(i, j << width) for i, j in plus]

        def __missing__(self, y):
            fy = filters[y]
            out = 0
            for b, (i, j) in enumerate(self.plus):
                out |= i if fy >> b & 1 else j
            self[y] = out
            return out

    class Rows(dict):
        def __missing__(self, x):
            return self.setdefault(x, Row(filters[x]))

    rows = Rows()
    square = squares(filters, triples, width) if k > 1 else None

    def group(key):
        bounds = key // nf
        allowed = filters[key % nf] & ~(bounds >> width)
        between = filters_between(bounds & full, allowed, up)
        return tuple(sorted(map(index.__getitem__, between)))

    def cands_of(key):
        cands = groups.get(key)
        if cands is None:
            cands = groups[key] = group(key)
        return cands

    root = nf - 1
    groups = {root: tuple(range(nf))}
    tally = [{} for _ in range(k + 1)]
    tally[1][root] = 1
    idx = [root] * (k + 1)
    states = {}
    shift = 2 * width
    step = nf << shift
    inline = k - 3 if leaf is None and k >= 4 else 0  # visit(k - 2) runs inline

    def visit(m, key):
        # idx[1:m] is a geometric chain; its children are group(key)
        cands = cands_of(key)
        part = 0
        for i in range(2, (m + 1) // 2 + 1):
            part |= rows[idx[i]][idx[m + 1 - i]]
        # I_1 + I_m is the only term of the children's bounds that involves g
        first = idx[1]
        one = rows[first] if m > 1 else square
        counts = tally[m + 1]
        if m == inline:
            # k >= 4: this loop picks g = I_{k-3} and records the states
            # of g's children h as visit(k - 2, child) would.  Only the
            # pairs (2, k - 3) and (3, k - 3), g's square at k = 5 and 6,
            # and rows[I_2] at k = 5 read g; at k = 4, g is I_1 and P is
            # h's square.  The rest is read once
            rest = 0
            for i in range(3, (k - 1) // 2 + 1):
                rest |= rows[idx[i]][idx[k - 1 - i]]
            low = first << shift
            for i in range(4, k // 2 + 1):
                low |= rows[idx[i]][idx[k - i]]
            if m > 2:
                two = rows[idx[2]]
                three = rows[idx[3]] if m > 3 else square
            near = one
            for g in cands:
                child = ((part | one[g]) & keep[g]) * nf + g
                counts[child] = counts.get(child, 0) + 1
                if m > 2:
                    p, q = rest | two[g], low | three[g]
                elif m == 2:
                    p, q, two = square[g], low, rows[g]
                else:
                    p, q, near, two = 0, g << shift, rows[g], square
                for h in cands_of(child):
                    state = (((p | near[h]) & keep[h]) * nf + h) * step + (q | two[h])
                    states[state] = states.get(state, 0) + 1
            return
        deeper = m + 1 < k
        for g in cands:
            idx[m] = g
            child = ((part | one[g]) & keep[g]) * nf + g
            counts[child] = counts.get(child, 0) + 1
            if deeper:
                visit(m + 1, child)
            elif leaf is not None:
                leaf(idx, cands_of(child))

    try:
        if k == 1:
            if leaf is not None:
                leaf(idx, groups[root])
        else:
            visit(1, root)
    finally:
        visit = None  # the closure refers to itself; free the memo on return
    below, counts = tally[k - 1], tally[k]
    mask = (1 << shift) - 1
    for state, mult in states.items():
        key, first = divmod(state >> shift, nf)
        part = state & mask
        below[key] = below.get(key, 0) + mult
        row = rows[first]
        for h in cands_of(key):
            child = ((part | row[h]) & keep[h]) * nf + h
            counts[child] = counts.get(child, 0) + mult
    return tally, groups, group


def nn_chains(filters, subs, triples, k, full):
    """All geometric chains of k nested filters, as tuples of bitmasks,
    in lexicographic order of the mask tuples.  ``subs`` is not read; the
    compiled kernel of the same signature reads it."""
    if k < 1:
        return [()]
    out = []

    def leaf(idx, cands):
        head = tuple(filters[f] for f in idx[1:k])
        out.extend(head + (filters[g],) for g in cands)

    _walk(filters, triples, k, full, leaf)
    return out


def nn_census_family(filters, triples, k, full, n_simple):
    """Histograms of the geometric chains of k' filters by their top-rank
    statistics, for every k' = 1..k, from one depth-k descent.

    Entry k' - 1 maps (i, s) to the number of chains of k' filters with
    i indecomposable elements of rank k', s of them simple.  A root of
    I_{k'} is decomposable at the top rank when it lies in Phi+ + I_{k'}
    or in some I_i + I_j with i + j = k', i, j >= 1; the latter union is
    the L of the chain's group.  So the statistic is read from the group
    key: free[g] & ~L with free[g] = g minus (Phi+ + g), the same for
    every chain with that key, and each group is counted once.

    Each key's histogram is one int with a 64-bit lane per (i, s), so a
    level's histogram is the sum of mult * hist over its keys.  No lane
    carries: a lane counts chains of the walk, and nonnesting bounds
    their number by ENUMERATION_LIMIT = 5 * 10^6 < 2^23 before the walk.
    """
    if k < 1:
        return ()
    tally, groups, group = _walk(filters, triples, k, full)
    up = upper_masks(triples, full.bit_length())
    # above[f] = Phi+ + f = above[f - low] | up[low]: the lowest root of f
    # is minimal in it (roots come in height order), so f - low is an
    # earlier filter
    above = {}
    free = []
    for f in filters:
        low = f & -f
        a = above[f] = above[f ^ low] | up[low.bit_length() - 1] if f else 0
        free.append(f & ~a)
    simple = (1 << n_simple) - 1
    nf = len(filters)
    units = {}  # (i, s) -> 1 << 64 * its lane
    lane = (1 << 64) - 1
    hists = {}
    out = []
    for level in tally[1:]:
        total = 0
        for key, mult in level.items():
            hist = hists.get(key)
            if hist is None:
                low = key // nf & full
                hist = 0
                cands = groups.get(key)
                for g in group(key) if cands is None else cands:
                    x = free[g] & ~low
                    stat = (x.bit_count(), (x & simple).bit_count())
                    hist += units.get(stat) or units.setdefault(stat, 1 << 64 * len(units))
                hists[key] = hist
            total += mult * hist
        lanes = ((stat, total // unit & lane) for stat, unit in units.items())
        out.append({stat: c for stat, c in lanes if c})
    return tuple(out)


def nn_census(filters, subs, triples, pair_lists, k, full, nroots, n_simple):
    """nn_census_family's entry for k, in the compiled kernel's
    signature (``subs``, ``pair_lists`` and ``nroots`` are not read)."""
    if k < 1:
        return {(0, 0): 1}
    return nn_census_family(filters, triples, k, full, n_simple)[k - 1]
