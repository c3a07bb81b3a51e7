"""Lattice points of the dilated fundamental simplex, by wall incidence.

After the unimodular change of variables z = A^T y (A the Cartan
matrix), the coroot lattice becomes the set of integer vectors z with
adj(A^T) z divisible by det A, and the t-fold dilated fundamental
simplex becomes {z >= 0, c.z <= t} with c the highest root coefficient
vector.  det A and adj(A^T) come from one fraction-free Gauss-Jordan
elimination of [A^T | I] (``_purecore.adjugate``): its rows end as d
times the reduced row echelon form, [d I | d (A^T)^-1], so with the
sign of the row swaps det A = sign d and adj(A^T) = sign d (A^T)^-1.
The walls are the n coordinate hyperplanes z_j = 0 and the cap c.z = t.
Counting points by the number of incident walls at t = kh+1 reproduces
the rank-k indecomposable census of the geometric chains.

`wall_histograms` counts without listing the points: a dynamic program
over the coordinates z_0, ..., z_{n-1} keeps, for each partial point,
only c.z so far, the class of adj(A^T) z modulo det A and the number
of zero coordinates, and merges partial points that agree on all three.
One run at the largest dilation T serves every t <= T: its final
states already hold c.z, so the points of the t-dilated simplex are the
lattice points with c.z <= t, and those with c.z = t lie on one more
wall, the cap.  `count_by_walls`, `n_k_i`, `ehrhart_csv` and the
`lattice-nar` identity all read their histograms from that one run.
The run keeps at most (T+1) * det A * (n+1) states, which is bounded
before it starts.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

from ._purecore import adjugate
from .errors import UsageError, require_k, require_within
from .rootsys import ENUMERATION_LIMIT, RootSystem


class SimplexModel:
    """Exact data of the fundamental simplex in z-coordinates."""

    __slots__ = ("rs", "c", "h", "det", "congruence_rows")

    def __init__(self, rs: RootSystem, c: tuple, h: int, det: int, congruence_rows: tuple):
        self.rs = rs
        self.c = c
        self.h = h
        self.det = det
        self.congruence_rows = congruence_rows


@lru_cache(maxsize=None)
def simplex_model(rs: RootSystem) -> SimplexModel:
    if len(rs.components) != 1:
        raise UsageError("the simplex model needs an irreducible root system")
    n = rs.n
    at = tuple(tuple(rs.cartan[j][i] for j in range(n)) for i in range(n))
    c = rs.positive_roots[rs.highest_roots[0]]
    det, adj = adjugate(at)
    if det <= 0:
        raise UsageError("Cartan matrix must have positive determinant")
    model = SimplexModel(rs, c, rs.coxeter_number, det, tuple(map(tuple, adj)))
    if min(c) < 1 or model.h != 1 + sum(c):
        raise UsageError("highest root data inconsistent with the Coxeter number")
    return model


class WallIncidenceCount:
    __slots__ = ("t", "counts")

    def __init__(self, t: int, counts: tuple):
        self.t = t
        self.counts = counts

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.t, self.counts) == (other.t, other.counts)

    def __hash__(self) -> int:
        return hash((self.t, self.counts))

    @property
    def total(self) -> int:
        return sum(self.counts)


def _residue_steps(model: SimplexModel) -> list:
    """Entry j, row r: the classes of adj(A^T) z mod det reached from
    class r by adding v to z_j, indexed by v mod det.

    The classes are the residue vectors reachable from zero by adding
    columns of adj(A^T), numbered in the order found, zero first; they
    form a group of order det.
    """
    det = model.det
    columns = list(zip(*model.congruence_rows))
    vectors = [(0,) * len(columns)]
    index = {vectors[0]: 0}

    def add(vec, col, times):
        return tuple((x + a * times) % det for x, a in zip(vec, col))

    for vec in vectors:  # grows while it is read: a breadth-first closure
        for col in columns:
            found = add(vec, col, 1)
            if found not in index:
                index[found] = len(vectors)
                vectors.append(found)
    return [
        [tuple(index[add(vec, col, u)] for u in range(det)) for vec in vectors]
        for col in columns
    ]


@lru_cache(maxsize=None)
def wall_histograms(rs: RootSystem, top: int) -> tuple:
    """Entry t: the histogram of lattice points of the t-dilated simplex
    by the number of walls through them, for every t = 0..top, from one
    dynamic program at t = top.

    At t = 0 the single point is the origin, which lies on all n+1
    walls; the histogram is padded to index n+1 in that case only.
    """
    if top < 0:
        raise UsageError("dilation must be nonnegative")
    model = simplex_model(rs)
    n = rs.n
    det = model.det
    bound = (top + 1) * det * (n + 1)
    require_within(
        bound, ENUMERATION_LIMIT,
        f"lattice point count for {rs.typespec} up to t={top} keeps up to {bound} states",
    )
    # (c.z so far, class of adj(A^T) z mod det, zero coordinates) -> partial points
    states = {(0, 0, 0): 1}
    for cj, step in zip(model.c, _residue_steps(model)):
        nxt = {}
        for (level, residue, zeros), count in states.items():
            key = (level, residue, zeros + 1)
            nxt[key] = nxt.get(key, 0) + count
            shifted = step[residue]
            for v in range(1, (top - level) // cj + 1):
                key = (level + v * cj, shifted[v % det], zeros)
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
    # on_level[l][z]: lattice points with c.z = l and z zero coordinates
    on_level = [[0] * (n + 1) for _ in range(top + 1)]
    for (level, residue, zeros), count in states.items():
        if residue == 0:
            on_level[level][zeros] += count
    out = []
    below = [0] * (n + 2)  # points with c.z < t, by zero coordinates
    for t, cap in enumerate(on_level):
        counts = below.copy()
        for zeros, count in enumerate(cap):
            counts[zeros + 1] += count
            below[zeros] += count
        out.append(tuple(counts if t == 0 else counts[: n + 1]))
    return tuple(out)


def count_by_walls(rs: RootSystem, t: int) -> WallIncidenceCount:
    """Histogram of lattice points of the t-dilated simplex by the
    number of walls through them (`wall_histograms`)."""
    return WallIncidenceCount(t, wall_histograms(rs, t)[t])


def n_k_i(rs: RootSystem, k: int) -> tuple:
    """Wall-incidence counts at the Fuss dilation t = kh+1."""
    require_k(k)
    return count_by_walls(rs, k * simplex_model(rs).h + 1).counts


def simplex_period(rs: RootSystem) -> int:
    """Least common multiple of the vertex coordinate denominators."""
    model = simplex_model(rs)
    p = 1
    for j in range(rs.n):
        den = model.det * model.c[j]
        for i in range(rs.n):
            entry = model.congruence_rows[i][j]
            p = lcm(p, den // gcd(entry, den) if entry else 1)
    return p


def quasi_period(rs: RootSystem) -> int:
    """The period bound lcm(p, h) / h for the counts as functions of k."""
    h = simplex_model(rs).h
    return lcm(simplex_period(rs), h) // h


def ehrhart_csv(rs: RootSystem, k: int) -> str:
    """The CSV ``t,i,N``: N points of the t-dilated simplex on i walls,
    for t = 1..kh+1, all read from one `wall_histograms` run."""
    require_k(k)
    top = k * simplex_model(rs).h + 1
    histograms = wall_histograms(rs, top)
    return "t,i,N\n" + "".join(
        "%d,%d,%d\n" % (t, i, v)
        for t in range(1, top + 1)
        for i, v in enumerate(histograms[t])
    )
