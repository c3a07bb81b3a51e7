# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled compute kernels.

Mirrors fct._purecore with machine-word data layouts: bitmasks are one
or two 64-bit words, index lists are flattened C arrays.  Observable
behaviour (results, ordering, exceptions) matches the pure versions;
fct.kernels picks per call and enforces the size limits under which
these implementations are exact.
"""

from libc.stdlib cimport free, malloc
from libc.string cimport memset

cdef extern from *:
    int __builtin_ctzll(unsigned long long) nogil

ctypedef unsigned long long u64
ctypedef long long i64


class LimitExceeded(Exception):
    pass


cdef void* _alloc(size_t nbytes) except NULL:
    cdef void* p = malloc(nbytes if nbytes else 1)
    if p == NULL:
        raise MemoryError
    return p


def weyl_closure(gens, limit):
    """Breadth-first closure of signed-index permutations under right
    multiplication, identity first; same visit order as the reference."""
    cdef int n = len(gens[0])
    cdef int ng = len(gens)
    cdef int i, j, s, gi
    cdef i64 lim = limit
    cdef int* g = <int*> _alloc(ng * n * sizeof(int))
    cdef int* wv = <int*> _alloc(n * sizeof(int))
    try:
        for i in range(ng):
            row = gens[i]
            for j in range(n):
                g[i * n + j] = row[j]
        ident = tuple(range(1, n + 1))
        seen = {ident}
        order = [ident]
        frontier = [ident]
        while frontier:
            nxt = []
            for w in frontier:
                for j in range(n):
                    wv[j] = w[j]
                for gi in range(ng):
                    out = [0] * n
                    for j in range(n):
                        s = g[gi * n + j]
                        out[j] = wv[s - 1] if s > 0 else -wv[-s - 1]
                    tup = tuple(out)
                    if tup not in seen:
                        if len(seen) >= lim:
                            raise LimitExceeded
                        seen.add(tup)
                        order.append(tup)
                        nxt.append(tup)
            frontier = nxt
        return order
    finally:
        free(g)
        free(wv)


def int_rank(mat):
    """Bareiss rank, fraction-free; exact within the word-size limits
    enforced by the dispatcher."""
    cdef int rows = len(mat)
    cdef int cols = len(mat[0]) if rows else 0
    cdef int r = 0, rank = 0, c, i, j, pivot
    cdef i64 prev = 1
    cdef i64* m = <i64*> _alloc(rows * cols * sizeof(i64) if rows else 8)
    try:
        for i in range(rows):
            row = mat[i]
            for j in range(cols):
                m[i * cols + j] = row[j]
        for c in range(cols):
            pivot = -1
            for i in range(r, rows):
                if m[i * cols + c] != 0:
                    pivot = i
                    break
            if pivot < 0:
                continue
            if pivot != r:
                for j in range(cols):
                    m[r * cols + j], m[pivot * cols + j] = (
                        m[pivot * cols + j], m[r * cols + j],
                    )
            for i in range(r + 1, rows):
                for j in range(c + 1, cols):
                    m[i * cols + j] = (
                        m[i * cols + j] * m[r * cols + c]
                        - m[i * cols + c] * m[r * cols + j]
                    ) // prev
                m[i * cols + c] = 0
            prev = m[r * cols + c]
            r += 1
            rank += 1
            if r == rows:
                break
        return rank
    finally:
        free(m)


cdef void _clique_visit(
    u64 elo, u64 ehi, int start, int l, int m,
    u64* nlo, u64* nhi, int nvert, int n_neg,
    i64* counts, i64* maxh,
) noexcept:
    cdef int v
    counts[l * (nvert + 1) + m] += 1
    if elo == 0 and ehi == 0:
        maxh[l + m] += 1
        return
    for v in range(start, nvert):
        if v < 64:
            if not (elo >> v) & 1:
                continue
        else:
            if not (ehi >> (v - 64)) & 1:
                continue
        _clique_visit(
            elo & nlo[v], ehi & nhi[v], v + 1,
            l + (v >= n_neg), m + (v < n_neg),
            nlo, nhi, nvert, n_neg, counts, maxh,
        )


def clique_census(nbrs, nvert, n_neg):
    """Clique composition census over at most 128 vertices."""
    cdef int nv = nvert
    cdef int nn = n_neg
    cdef int i, l, m
    cdef u64 lo_all, hi_all
    cdef u64* nlo = <u64*> _alloc(nv * sizeof(u64) if nv else 8)
    cdef u64* nhi = <u64*> _alloc(nv * sizeof(u64) if nv else 8)
    cdef i64* counts = <i64*> _alloc((nv + 1) * (nv + 1) * sizeof(i64))
    cdef i64* maxh = <i64*> _alloc((nv + 1 + nv + 1) * sizeof(i64))
    try:
        memset(counts, 0, (nv + 1) * (nv + 1) * sizeof(i64))
        memset(maxh, 0, (nv + 1 + nv + 1) * sizeof(i64))
        for i in range(nv):
            py = nbrs[i]
            nlo[i] = py & 0xFFFFFFFFFFFFFFFF
            nhi[i] = py >> 64
        if nv == 0:
            lo_all = hi_all = 0
        elif nv < 64:
            lo_all = ((<u64> 1) << nv) - 1
            hi_all = 0
        elif nv == 64:
            lo_all = <u64> -1
            hi_all = 0
        elif nv < 128:
            lo_all = <u64> -1
            hi_all = ((<u64> 1) << (nv - 64)) - 1
        else:
            lo_all = <u64> -1
            hi_all = <u64> -1
        _clique_visit(lo_all, hi_all, 0, 0, 0, nlo, nhi, nv, nn, counts, maxh)
        out = {}
        for l in range(nv + 1):
            for m in range(nv + 1):
                if counts[l * (nv + 1) + m]:
                    out[(l, m)] = counts[l * (nv + 1) + m]
        hist = {}
        for l in range(2 * nv + 2):
            if maxh[l]:
                hist[l] = maxh[l]
        return out, hist
    finally:
        free(nlo)
        free(nhi)
        free(counts)
        free(maxh)


cdef struct NNData:
    u64* filters
    int nf
    int* sub_ind
    int* sub_ptr
    int* ta
    int* tb
    int* tc
    int nt
    u64 full
    int k
    u64* masks


cdef bint _sum_contained(u64 x, u64 y, u64 z, NNData* d) noexcept:
    cdef int t, a, b, c
    for t in range(d.nt):
        c = d.tc[t]
        if not (z >> c) & 1:
            a = d.ta[t]
            b = d.tb[t]
            if ((x >> a) & 1 and (y >> b) & 1) or ((x >> b) & 1 and (y >> a) & 1):
                return 0
    return 1


cdef bint _sum_avoids(u64 x, u64 y, u64 z, NNData* d) noexcept:
    cdef int t, a, b, c
    for t in range(d.nt):
        c = d.tc[t]
        if (z >> c) & 1:
            a = d.ta[t]
            b = d.tb[t]
            if ((x >> a) & 1 and (y >> b) & 1) or ((x >> b) & 1 and (y >> a) & 1):
                return 0
    return 1


cdef bint _depth_ok(NNData* d, int m) noexcept:
    cdef int i
    for i in range(1, m // 2 + 1):
        if not _sum_contained(d.masks[i], d.masks[m - i], d.masks[m], d):
            return 0
        if not _sum_avoids(
            d.full & ~d.masks[i], d.full & ~d.masks[m - i], d.masks[m], d
        ):
            return 0
    return 1


cdef bint _leaf_ok(NNData* d) noexcept:
    cdef int i, k = d.k
    for i in range(2, (k + 1) // 2 + 1):
        if not _sum_contained(d.masks[i], d.masks[k + 1 - i], d.masks[k], d):
            return 0
    return 1


cdef NNData* _nn_setup(filters, subs, triples, k, full) except NULL:
    cdef NNData* d = <NNData*> _alloc(sizeof(NNData))
    d.filters = NULL
    d.sub_ind = NULL
    d.sub_ptr = NULL
    d.ta = NULL
    d.tb = NULL
    d.tc = NULL
    d.masks = NULL
    cdef int i, j, pos
    d.nf = len(filters)
    d.nt = len(triples)
    d.full = full
    d.k = k
    d.filters = <u64*> _alloc(d.nf * sizeof(u64) if d.nf else 8)
    for i in range(d.nf):
        d.filters[i] = filters[i]
    cdef int total = 0
    for i in range(d.nf):
        total += len(subs[i])
    d.sub_ptr = <int*> _alloc((d.nf + 1) * sizeof(int))
    d.sub_ind = <int*> _alloc(total * sizeof(int) if total else 4)
    pos = 0
    for i in range(d.nf):
        d.sub_ptr[i] = pos
        for j in subs[i]:
            d.sub_ind[pos] = j
            pos += 1
    d.sub_ptr[d.nf] = pos
    d.ta = <int*> _alloc(d.nt * sizeof(int) if d.nt else 4)
    d.tb = <int*> _alloc(d.nt * sizeof(int) if d.nt else 4)
    d.tc = <int*> _alloc(d.nt * sizeof(int) if d.nt else 4)
    for i in range(d.nt):
        trip = triples[i]
        d.ta[i] = trip[0]
        d.tb[i] = trip[1]
        d.tc[i] = trip[2]
    d.masks = <u64*> _alloc((k + 1) * sizeof(u64))
    d.masks[0] = full
    for i in range(1, k + 1):
        d.masks[i] = 0
    return d


cdef void _nn_free(NNData* d) noexcept:
    if d == NULL:
        return
    free(d.filters)
    free(d.sub_ind)
    free(d.sub_ptr)
    free(d.ta)
    free(d.tb)
    free(d.tc)
    free(d.masks)
    free(d)


cdef void _chains_descend(NNData* d, int depth, int lo, int hi, list out):
    cdef int p, f
    for p in range(lo, hi):
        f = d.sub_ind[p] if depth > 1 else p
        d.masks[depth] = d.filters[f]
        if depth >= 2 and not _depth_ok(d, depth):
            continue
        if depth == d.k:
            if _leaf_ok(d):
                out.append(tuple([d.masks[i] for i in range(1, d.k + 1)]))
        else:
            _chains_descend(d, depth + 1, d.sub_ptr[f], d.sub_ptr[f + 1], out)


def nn_chains(filters, subs, triples, k, full):
    """Geometric chains as mask tuples, lexicographically ascending."""
    out = []
    if k < 1:
        out.append(())
        return out
    cdef NNData* d = _nn_setup(filters, subs, triples, k, full)
    try:
        _chains_descend(d, 1, 0, d.nf, out)
        return out
    finally:
        _nn_free(d)


cdef struct CensusData:
    int* pa
    int* pb
    int* pptr
    int* levels
    i64* counts
    int nroots
    int n_simple


cdef void _census_leaf(NNData* d, CensusData* cd) noexcept:
    cdef int i, r, a, icnt = 0, scnt = 0
    cdef u64 m
    cdef bint ok
    for r in range(cd.nroots):
        cd.levels[r] = 0
    for i in range(1, d.k + 1):
        m = d.masks[i]
        while m:
            r = __builtin_ctzll(m)
            cd.levels[r] = i
            m &= m - 1
    m = d.masks[d.k]
    while m:
        r = __builtin_ctzll(m)
        m &= m - 1
        ok = 1
        for a in range(cd.pptr[r], cd.pptr[r + 1]):
            if cd.levels[cd.pa[a]] + cd.levels[cd.pb[a]] >= d.k:
                ok = 0
                break
        if ok:
            icnt += 1
            if r < cd.n_simple:
                scnt += 1
    cd.counts[icnt * (cd.n_simple + 1) + scnt] += 1


cdef void _census_descend(NNData* d, CensusData* cd, int depth, int lo, int hi) noexcept:
    cdef int p, f
    for p in range(lo, hi):
        f = d.sub_ind[p] if depth > 1 else p
        d.masks[depth] = d.filters[f]
        if depth >= 2 and not _depth_ok(d, depth):
            continue
        if depth == d.k:
            if _leaf_ok(d):
                _census_leaf(d, cd)
        else:
            _census_descend(d, cd, depth + 1, d.sub_ptr[f], d.sub_ptr[f + 1])


def nn_census(filters, subs, triples, pair_lists, k, full, nroots, n_simple):
    """Histogram (rank-k indecomposables, simple ones) over all chains."""
    if k < 1:
        return {(0, 0): 1}
    cdef NNData* d = _nn_setup(filters, subs, triples, k, full)
    cdef CensusData cd
    cd.pa = NULL
    cd.pb = NULL
    cd.pptr = NULL
    cd.levels = NULL
    cd.counts = NULL
    cd.nroots = nroots
    cd.n_simple = n_simple
    cdef int i, s, pos, total
    try:
        total = 0
        for i in range(nroots):
            total += len(pair_lists[i])
        cd.pptr = <int*> _alloc((nroots + 1) * sizeof(int))
        cd.pa = <int*> _alloc(total * sizeof(int) if total else 4)
        cd.pb = <int*> _alloc(total * sizeof(int) if total else 4)
        pos = 0
        for i in range(nroots):
            cd.pptr[i] = pos
            for pair in pair_lists[i]:
                cd.pa[pos] = pair[0]
                cd.pb[pos] = pair[1]
                pos += 1
        cd.pptr[nroots] = pos
        cd.levels = <int*> _alloc(nroots * sizeof(int) if nroots else 4)
        cd.counts = <i64*> _alloc((nroots + 1) * (n_simple + 1) * sizeof(i64))
        memset(cd.counts, 0, (nroots + 1) * (n_simple + 1) * sizeof(i64))
        _census_descend(d, &cd, 1, 0, d.nf)
        out = {}
        for i in range(nroots + 1):
            for s in range(n_simple + 1):
                if cd.counts[i * (n_simple + 1) + s]:
                    out[(i, s)] = cd.counts[i * (n_simple + 1) + s]
        return out
    finally:
        free(cd.pa)
        free(cd.pb)
        free(cd.pptr)
        free(cd.levels)
        free(cd.counts)
        _nn_free(d)
