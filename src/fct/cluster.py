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

from . import kernels, weyl
from .errors import InternalInvariantError, ResourceLimitError, UsageError
from .poly import BivarPoly, h_from_f, require_f_support
from .rootsys import ENUMERATION_LIMIT, RootSystem, support


def _part_product(rs: RootSystem, sign: int) -> "weyl.GroupElement":
    """Product of the commuting simple reflections on one side of the
    diagram bipartition."""
    w = weyl.identity(rs)
    for i in range(rs.n):
        if rs.bipartition[i] == sign:
            w = weyl.compose(w, weyl.simple_reflection(rs, i))
    return w


def half_rotation(rs: RootSystem, sign: int, v: int) -> int:
    """One involution of the almost positive roots.

    Vertices are encoded as signed integers: a nonnegative value is a
    positive root index, -(i+1) stands for the negative of the i-th
    simple root.  The map fixes the negative simple roots on the side
    opposite to ``sign`` and acts by the product of the simple
    reflections on the ``sign`` side everywhere else.
    """
    if sign not in (1, -1):
        raise UsageError("sign must be +1 or -1")
    # img holds signed 1-based root indices, so a negative entry -(i+1)
    # is -alpha_i's own vertex code
    img = _part_product(rs, sign).img
    if v < 0:
        i = -v - 1
        if rs.bipartition[i] != sign:
            return v
        image = -img[i]
    else:
        image = img[v]
    if image > 0:
        return image - 1
    if -image > rs.n:
        raise InternalInvariantError("rotation left the almost positive roots")
    return image


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


def compatible(rs: RootSystem, k: int, u: int, v: int) -> bool:
    """Compatibility of two distinct vertices."""
    if u == v:
        raise UsageError("compatibility is only defined for distinct vertices")
    return _compatible(rs, k, colored_rotation(rs, k), u, v)


def _compatible(rs: RootSystem, k: int, rot: tuple, u: int, v: int) -> bool:
    """Rotates both vertices together by ``rot`` until either becomes a
    negative simple root, then applies the support rule.  The orbit
    bound k(h+2)+k guards against a wrong rotation table.
    """
    bound = k * (rs.coxeter_number + 2) + k + 1
    for _ in range(bound):
        if u < rs.n or v < rs.n:
            if u < rs.n and v < rs.n:
                return True
            neg, other = (u, v) if u < rs.n else (v, u)
            beta = rs.positive_roots[(other - rs.n) // k]
            return neg not in support(rs, beta)
        u, v = rot[u], rot[v]
    raise InternalInvariantError("rotation orbit never reached a negative simple root")


@lru_cache(maxsize=None)
def compat_masks(rs: RootSystem, k: int) -> tuple:
    """Adjacency bitmasks of the compatibility graph.

    Every vertex pair is tested, so their number bounds the work before
    the rotation table is built."""
    nv = vertex_count(rs, k)
    pairs = nv * (nv - 1) // 2
    if pairs > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"compatibility graph for {rs.typespec}, k={k} tests {pairs} "
            f"vertex pairs, more than the bound {ENUMERATION_LIMIT}"
        )
    rot = colored_rotation(rs, k)
    masks = [0] * nv
    for u in range(nv):
        for v in range(u + 1, nv):
            if _compatible(rs, k, rot, u, v):
                masks[u] |= 1 << v
                masks[v] |= 1 << u
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
    f = f_triangle(rs, k)
    return {"f": [[l, m, c] for (l, m), c in sorted(f.coeffs.items())]}
