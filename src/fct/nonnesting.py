"""Geometric chains of order filters in the root poset.

A k-chain is a nested family I_1 >= I_2 >= ... >= I_k of order filters,
with the conventions I_0 = all positive roots and I_i = I_k for i > k.
The chain is geometric when for all i, j in {0..k}

    (I_i + I_j) intersected with the roots lies in I_{i+j}, and
    (J_i + J_j) intersected with the roots lies in J_{i+j} for i+j <= k,

where J_i is the complement of I_i.  The geometric chains are the
k-divisible nonnesting partitions of the root system; their top-rank
indecomposable elements drive the H-triangle.  A chain is the plain
tuple (I_1, ..., I_k) of its filters as root-index bitmasks, and every
function on chains takes the root system beside it.

Only the pairs with 1 <= i <= j and i + j <= k need checking, one depth
at a time as a walk adds I_{i+j}.  Pairs with i = 0 hold for any filter
(J_0 is empty, and Phi+ + I_j lies in I_j because I_j is upward closed),
and so do the wrapped ones, i + j > k, whose target is I_k.  For those,
let j' = k + 1 - i, so 1 <= j' <= j; as the chain is nested, I_i + I_j
lies in I_i + I_{j'}, and that in I_i + I_{j'-1}, which lies in I_k by
the condition for the pair (i, j' - 1), since i + j' - 1 = k (by upward
closure if j' = 1).  Hence the chains of m filters that a walk to depth
K >= m accepts at depth m are exactly the geometric m-chains, and one
walk to depth K visits every chain of every k <= K.  So there is one
census, ``chain_statistics``, whose walk to depth k gives the H-triangle
at every k' <= k (``h_triangles``), and ``h_triangle`` reads its last
entry; chain listing runs the same walk (``kernels.nn_chains``).  The
census needs only the number of chains per group of children, and the
groups of the last level depend on a chain of k - 2 filters only through
its state (the group of its children, I_1, and the pair sums of level k
that do not read I_{k-1}), so the census walk records the state of
each chain of k - 2 filters and expands each distinct state once; from
k = 4 on it records them in the loop that picks I_{k-3} (I_1 at k = 4,
I_2 at k = 5), so it recurses only to the chains of k - 4 filters
(``_purecore._walk``).
"""
from __future__ import annotations

from functools import lru_cache

from . import kernels
from .errors import ResourceLimitError, UsageError
from .poly import BivarPoly, require_h_support
from .rootsys import (
    ENUMERATION_LIMIT,
    RootSystem,
    filter_mask,
    fuss_catalan_sum,
    parabolic_root_embedding,
)


def levels(rs: RootSystem, chain: tuple) -> tuple:
    """For each root index, the largest i <= k with the root in I_i, for
    the chain (I_1, ..., I_k) of filter masks.

    The filters are nested, so the roots at level i are the set bits
    of I_i minus I_(i+1): each root of I_1 is visited once.
    """
    out = [0] * len(rs.positive_roots)
    above = 0
    for i in range(len(chain), 0, -1):
        m = chain[i - 1]
        rest = m & ~above
        above = m
        while rest:  # inline: a generator here costs a third more
            low = rest & -rest
            out[low.bit_length() - 1] = i
            rest ^= low
    return tuple(out)


def _set_bits(m: int):
    """The indices of the set bits of m, ascending."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


@lru_cache(maxsize=None)
def enumerate_filters(rs: RootSystem) -> tuple:
    """All order filters of the root poset, as ascending bitmasks: those
    between the empty filter and all roots (``kernels.filters_between``)."""
    n_roots = len(rs.positive_roots)
    up = kernels.upper_masks(rs.sum_triples, n_roots)
    return tuple(sorted(kernels.filters_between(0, (1 << n_roots) - 1, up)))


def _chain_data(rs: RootSystem, k: int):
    """Kernel inputs (filters, subfilter lists, full mask) for k-chains.

    The walk lists each filter's subfilters as it needs them, so the
    subfilter lists are empty and k is not read; the triple is the
    signature of the compiled chain kernels, which the tests feed a
    table of their own.
    """
    return enumerate_filters(rs), (), (1 << len(rs.positive_roots)) - 1


@lru_cache(maxsize=None)
def enumerate_chains(rs: RootSystem, k: int) -> tuple:
    """All geometric chains as tuples (I_1, ..., I_k) of filter masks,
    sorted lexicographically.

    The listing walks the chains of fewer filters on the way, so it is
    bounded before any work as the census is (``_require_chain_bound``).
    """
    _require_chain_bound(rs, k)
    filters, subs, full = _chain_data(rs, k)
    return tuple(kernels.nn_chains(filters, subs, rs.sum_triples, k, full))


def _require_chain_bound(rs: RootSystem, k: int) -> None:
    """A walk to depth k, listing or census, visits every geometric chain
    of at most k filters; their exact number, the sum of the
    Fuss-Catalan numbers (``fuss_catalan_sum``), bounds it before it
    starts."""
    if k < 1:
        raise UsageError("k must be a positive integer")
    chains = fuss_catalan_sum(rs, k)
    if chains > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"chain walk for {rs.typespec}, k=1..{k} visits {chains} chains, "
            f"more than the bound {ENUMERATION_LIMIT}"
        )


def chain_statistics(rs: RootSystem, k: int) -> tuple:
    """Entry k' - 1: the histogram (top indecomposables, simple ones) ->
    number of chains of k' filters, for k' = 1..k, from one census walk
    to depth k.

    The walk visits every geometric chain of at most k filters once, so
    it is bounded by their exact number before it starts.
    """
    _require_chain_bound(rs, k)
    filters, _, full = _chain_data(rs, k)
    return kernels.nn_census_family(filters, rs.sum_triples, k, full, rs.n)


def _decomposition_ranks(rs: RootSystem, levels) -> list:
    """Entry r: the maximal decomposition rank of root r for the level
    vector `levels`, for every root at once.

    The value is max(k_1 + ... + k_r) over all ways of writing the root
    as a sum of positive roots with the i-th summand in I_{k_i}, indices
    drawn from {0..k}.  Computed by dynamic programming in height order:
    a root either stands alone or splits into two roots of smaller
    height.
    """
    best = list(levels)
    for r, pairs in enumerate(rs.pair_lists):  # the roots come in height order
        for a, b in pairs:
            if best[a] + best[b] > best[r]:
                best[r] = best[a] + best[b]
    return best


@lru_cache(maxsize=None)
def _extensions(rs: RootSystem) -> tuple:
    """Entry r: the pairs (beta, c) with root_r + root_beta = root_c."""
    out = [[] for _ in rs.positive_roots]
    for a, b, c in rs.sum_triples:
        out[a].append((b, c))
        if a != b:
            out[b].append((a, c))
    return tuple(tuple(x) for x in out)


def indecomposables(rs: RootSystem, chain: tuple, l: int) -> frozenset:
    """Root indices that are indecomposable of rank l in the chain.

    A root is rank-l indecomposable when it lies in I_l with maximal
    decomposition rank exactly l, is not a sum from I_i + I_j with
    i + j = l, and every way of extending it by a positive root beta to
    an element of top rank t <= k forces beta into I_{t-l}.
    """
    if not 1 <= l <= len(chain):
        raise UsageError("rank must lie in 1..k")
    return indecomposables_by_rank(rs, chain)[l - 1]


def indecomposables_by_rank(rs: RootSystem, chain: tuple) -> tuple:
    """Entry l - 1: the rank-l indecomposables (see ``indecomposables``),
    for l = 1..k, from one level vector and one table of decomposition
    ranks; root r can only be one of rank best[r]."""
    k = len(chain)
    level = levels(rs, chain)
    best = _decomposition_ranks(rs, level)
    out = [[] for _ in range(k)]
    for r, l in enumerate(best):
        if not 1 <= l <= level[r]:
            continue
        if any(
            min(level[a], k) + min(level[b], k) >= l
            for a, b in rs.pair_lists[r]
        ):
            # some split root_a + root_b with root_a in I_i, root_b in I_j,
            # i + j = l, indices within 0..k
            continue
        if not any(
            best[c] <= k and level[c] >= best[c] > l and level[beta] < best[c] - l
            for beta, c in _extensions(rs)[r]
        ):
            out[l - 1].append(r)
    return tuple(map(frozenset, out))


def _h_poly(stats: dict) -> BivarPoly:
    out = BivarPoly(stats)
    require_h_support(out)
    return out


def h_triangle(rs: RootSystem, k: int) -> BivarPoly:
    """Sum of x^(top indecomposables) y^(simple ones) over geometric chains."""
    return h_triangles(rs, k)[k - 1]


@lru_cache(maxsize=None)
def h_triangles(rs: RootSystem, k: int) -> tuple:
    """Entry k' - 1: the H-triangle at k', for k' = 1..k."""
    return tuple(map(_h_poly, chain_statistics(rs, k)))


def restrict_chain(rs: RootSystem, chain: tuple, a: int) -> tuple:
    """Delete the filter generated by simple root a from every level.

    Requires a to index a simple root lying in the last filter.  Returns
    the resulting chain over parabolic(rs, a).
    """
    if not 0 <= a < rs.n:
        raise UsageError(f"simple root index {a} out of range")
    if not (chain[-1] >> a) & 1:
        raise UsageError("the chosen simple root must lie in the last filter")
    gen = filter_mask(rs, a)
    embedding = parabolic_root_embedding(rs, a)
    out = []
    for m in chain:
        stripped = m & ~gen
        out.append(
            sum(
                1 << pos
                for pos, orig in enumerate(embedding)
                if (stripped >> orig) & 1
            )
        )
    return tuple(out)


def extend_chain(rs: RootSystem, sub_chain: tuple, a: int) -> tuple:
    """Inverse of restrict_chain: add back the filter generated by a."""
    if not 0 <= a < rs.n:
        raise UsageError(f"simple root index {a} out of range")
    embedding = parabolic_root_embedding(rs, a)
    if any(m >> len(embedding) for m in sub_chain):
        raise UsageError("chain does not live in the parabolic at a")
    gen = filter_mask(rs, a)
    out = []
    for m in sub_chain:
        lifted = gen
        for pos, orig in enumerate(embedding):
            if (m >> pos) & 1:
                lifted |= 1 << orig
        out.append(lifted)
    return tuple(out)


def indecomposable_histogram(rs: RootSystem, k: int) -> tuple:
    """Entry i: number of geometric chains with i top-rank indecomposables,
    the coefficients of H(x, 1) from the cached ``h_triangles``."""
    out = [0] * (rs.n + 1)
    for (i, _), c in h_triangle(rs, k).coeffs.items():
        out[i] += c
    return tuple(out)


def chains_json(rs: RootSystem, k: int) -> list:
    """The chains of ``enumerate_chains``, one sorted root-index list per
    filter; chains share their filters, so each distinct filter's list is
    built once."""
    chains = enumerate_chains(rs, k)
    masks = {m for chain in chains for m in chain}
    lists = {m: list(_set_bits(m)) for m in masks}
    return [[lists[m] for m in chain] for chain in chains]
