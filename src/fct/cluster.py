"""Generalised cluster complex from coloured almost positive roots.

Vertices are the n uncoloured negative simple roots together with k
coloured copies of every positive root.  Compatibility is the symmetric
relation generated from one base rule (a negative simple root is
compatible with a coloured root exactly when the simple root avoids its
support) by the coloured rotation: two vertices are compatible if and
only if their simultaneous rotations are.  Faces of the complex are the
pairwise compatible subsets, so they are exactly the cliques of the
compatibility graph.
"""
from __future__ import annotations

from functools import lru_cache
from operator import mul

from . import kernels
from .errors import InternalInvariantError, ResourceLimitError, UsageError
from .poly import BivarPoly, h_from_f, require_f_support
from .rootsys import ENUMERATION_LIMIT, RootSystem, support


def half_rotation(rs: RootSystem, sign: int, v: int) -> int:
    """One involution of the almost positive roots.

    Vertices are encoded as signed integers: a nonnegative value is a
    positive root index, -(i+1) stands for the negative of the i-th
    simple root.  The map fixes the negative simple roots on the side
    opposite to ``sign`` and acts by the product of the simple
    reflections on the ``sign`` side everywhere else.  Those reflections
    commute, so together they lower each coordinate i on that side by
    row_i(A) . beta, send alpha_i to -alpha_i and -alpha_i to alpha_i,
    and permute the other positive roots.
    """
    if sign not in (1, -1):
        raise UsageError("sign must be +1 or -1")
    if v < 0:
        return -v - 1 if rs.bipartition[-v - 1] == sign else v
    if v < rs.n and rs.bipartition[v] == sign:
        return -(v + 1)
    beta = rs.positive_roots[v]
    return rs.root_index[tuple(
        x - sum(map(mul, row, beta)) if side == sign else x
        for x, row, side in zip(beta, rs.cartan, rs.bipartition)
    )]


def full_rotation(rs: RootSystem, v: int) -> int:
    """The composite of both half rotations, negatives-first order."""
    return half_rotation(rs, -1, half_rotation(rs, 1, v))


def vertex_count(rs: RootSystem, k: int) -> int:
    return rs.n + k * len(rs.positive_roots)


@lru_cache(maxsize=None)
def colored_rotation(rs: RootSystem, k: int) -> tuple:
    """Permutation table of the rotation on all coloured vertices.

    Vertex layout: 0..n-1 are the negative simple roots, then each
    positive root contributes k consecutive vertices coloured 1..k in
    root-index order.  A coloured root below colour k just gains a
    colour; at colour k (and at negative simples) the uncoloured full
    rotation is applied and the image enters at colour 1 when positive.
    """
    if k < 1:
        raise UsageError("k must be a positive integer")
    n = rs.n

    def lift(u: int) -> int:
        return n + u * k if u >= 0 else -u - 1

    out = []
    for v in range(vertex_count(rs, k)):
        if v < n:
            out.append(lift(full_rotation(rs, -(v + 1))))
        else:
            r, c = divmod(v - n, k)
            if c + 1 < k:
                out.append(v + 1)
            else:
                out.append(lift(full_rotation(rs, r)))
    image = sorted(out)
    if image != list(range(len(out))):
        raise InternalInvariantError("coloured rotation is not a bijection")
    return tuple(out)


def compat_masks(rs: RootSystem, k: int) -> tuple:
    """Adjacency bitmasks of the compatibility graph.

    Compatibility is invariant under the coloured rotation, so it is
    constant on each rotation orbit of vertex pairs.  Each pair that
    holds a negative simple root is decided by the support rule, and the
    pairs after it in its orbit, up to the next pair that holds one,
    take its answer.  So every pair is reached once, provided each orbit
    holds a pair with a negative simple root; the count of pairs reached
    checks that.  Their number bounds the work before the rotation table
    is built."""
    nv = vertex_count(rs, k)
    pairs = nv * (nv - 1) // 2
    if pairs > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"compatibility graph for {rs.typespec}, k={k} tests {pairs} "
            f"vertex pairs, more than the bound {ENUMERATION_LIMIT}"
        )
    rot = colored_rotation(rs, k)
    n = rs.n
    masks = [0] * nv
    reached = 0
    for u in range(n):
        for v in range(u + 1, nv):
            ok = v < n or u not in support(rs, rs.positive_roots[(v - n) // k])
            a, b = u, v
            while True:
                if ok:
                    masks[a] |= 1 << b
                    masks[b] |= 1 << a
                reached += 1
                a, b = rot[a], rot[b]
                if a < n or b < n:
                    break
    if reached != pairs:
        raise InternalInvariantError(
            f"rotation orbits reach {reached} of {pairs} vertex pairs"
        )
    return tuple(masks)


class ClusterComplex:
    """Face census of the complex, with vertices kept as indices."""

    __slots__ = ("rs", "k", "counts", "maximal_sizes")

    def __init__(self, rs: RootSystem, k: int, counts: dict, maximal_sizes: dict):
        self.rs = rs
        self.k = k
        self.counts = counts
        self.maximal_sizes = maximal_sizes

    @property
    def facet_count(self) -> int:
        return self.maximal_sizes.get(self.rs.n, 0)

    def face_count(self) -> int:
        return sum(self.counts.values())


@lru_cache(maxsize=None)
def build_complex(rs: RootSystem, k: int) -> ClusterComplex:
    """Census of all faces, grouped by (coloured positives, negatives)."""
    if k < 1:
        raise UsageError("k must be a positive integer")
    masks = compat_masks(rs, k)
    counts, max_hist = kernels.clique_census(masks, len(masks), rs.n)
    if set(max_hist) - {rs.n}:
        raise InternalInvariantError(
            f"complex is not pure: maximal face sizes {sorted(max_hist)}"
        )
    return ClusterComplex(rs, k, counts, max_hist)


@lru_cache(maxsize=None)
def f_triangle(rs: RootSystem, k: int) -> BivarPoly:
    """Face counts by (coloured positive roots, negative simple roots)."""
    cx = build_complex(rs, k)
    out = BivarPoly({(l, m): c for (l, m), c in cx.counts.items()})
    require_f_support(out, rs.n)
    return out


def positive_h_poly(rs: RootSystem, k: int) -> BivarPoly:
    """The polynomial sum_i h+_i x^(n-i), carried in the x variable."""
    f = f_triangle(rs, k)
    positive = BivarPoly({(l, m): c for (l, m), c in f.coeffs.items() if not m})
    return h_from_f(positive, rs.n).substitute_y(1)


def fnumbers_json(rs: RootSystem, k: int) -> dict:
    return {"f": f_triangle(rs, k).monomial_list()}
