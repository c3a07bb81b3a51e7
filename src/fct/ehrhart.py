"""Lattice points of the dilated fundamental simplex, by wall incidence.

After the unimodular change of variables z = A^T y (A the Cartan
matrix), the coroot lattice becomes the set of integer vectors z with
adj(A^T) z divisible by det A, and the t-fold dilated fundamental
simplex becomes {z >= 0, c.z <= t} with c the highest root coefficient
vector.  The walls are the n coordinate hyperplanes z_j = 0 and the cap
c.z = t.  Counting points by the number of incident walls at t = kh+1
reproduces the rank-k indecomposable census of the geometric chains.

`count_by_walls` counts without listing the points: a dynamic program
over the coordinates z_0, ..., z_{n-1} keeps, for each partial point,
only c.z so far, the residue of adj(A^T) z modulo det A and the number
of zero coordinates, and merges partial points that agree on all three.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

from ._purecore import bareiss
from .errors import UsageError
from .rootsys import RootSystem


def _adjugate(mat) -> list:
    """Integer adjugate: mat times adjugate equals det times identity."""
    n = len(mat)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [mat[r][s] for s in range(n) if s != i]
                for r in range(n)
                if r != j
            ]
            out[i][j] = (-1) ** (i + j) * bareiss(minor)[1]
    return out


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
    det = bareiss(at)[1]
    if det <= 0:
        raise UsageError("Cartan matrix must have positive determinant")
    adj = _adjugate(at)
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


@lru_cache(maxsize=None)
def count_by_walls(rs: RootSystem, t: int) -> WallIncidenceCount:
    """Histogram of lattice points of the t-dilated simplex by the
    number of walls through them.

    At t = 0 the single point is the origin, which lies on all n+1
    walls; the histogram is padded to index n+1 in that case only.
    """
    if t < 0:
        raise UsageError("dilation must be nonnegative")
    model = simplex_model(rs)
    n = rs.n
    det = model.det
    # (c.z so far, adj(A^T) z mod det, zero coordinates) -> partial points
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
    return WallIncidenceCount(t, tuple(counts))


def n_k_i(rs: RootSystem, k: int) -> tuple:
    """Wall-incidence counts at the Fuss dilation t = kh+1."""
    if k < 1:
        raise UsageError("k must be a positive integer")
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


def ehrhart_csv_rows(rs: RootSystem, ts) -> list:
    """Rows (t, i, N_i) over the requested dilations."""
    rows = []
    for t in ts:
        counts = count_by_walls(rs, t).counts
        for i, v in enumerate(counts):
            rows.append((t, i, v))
    return rows
