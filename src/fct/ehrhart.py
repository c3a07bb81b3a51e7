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
`count_by_faces` enumerates the points one at a time
(`_lattice_points`), so the two routes check each other.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from ._purecore import bareiss
from .errors import UsageError
from .poly import _lagrange_fit, _poly_eval
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


@dataclass(frozen=True, eq=False)
class SimplexModel:
    """Exact data of the fundamental simplex in z-coordinates."""

    rs: RootSystem
    cartan_t: tuple
    c: tuple
    h: int
    det: int
    congruence_rows: tuple

    def lattice_ok(self, z) -> bool:
        if self.det == 1:
            return True
        return all(
            sum(r * x for r, x in zip(row, z)) % self.det == 0
            for row in self.congruence_rows
        )


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
    model = SimplexModel(rs, at, c, rs.coxeter_number, det, tuple(map(tuple, adj)))
    if min(c) < 1 or model.h != 1 + sum(c):
        raise UsageError("highest root data inconsistent with the Coxeter number")
    return model


def _lattice_points(model: SimplexModel, t: int, zeros=frozenset(), cap: bool = False):
    """Yield lattice z >= 0 with c.z <= t, z_j = 0 on `zeros`, and
    c.z = t exactly when `cap` is set."""
    n = len(model.c)
    z = [0] * n

    def rec(j: int, budget: int):
        if j == n:
            if cap and budget != 0:
                return
            if model.lattice_ok(z):
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


@dataclass(frozen=True)
class WallIncidenceCount:
    t: int
    counts: tuple

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


def count_by_faces(rs: RootSystem, t: int) -> dict:
    """Per wall-set counts (f, g): points on all walls of the set, and
    points on exactly those walls via inclusion-exclusion.

    Wall-sets are frozensets over {0..n}, where 0..n-1 are the
    coordinate walls and n is the cap c.z = t; the full set is the
    empty face and is excluded.
    """
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
            for _ in _lattice_points(
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
    """Recompute the wall histogram from the face decomposition."""
    face_counts = count_by_faces(rs, t)
    counts = [0] * (rs.n + 1)
    for s, (_, g) in face_counts.items():
        counts[len(s)] += g
    return tuple(counts)


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


@dataclass(frozen=True)
class QuasiPolynomialFit:
    """Per-residue polynomial interpolation of k -> N^(k) counts."""

    rs: RootSystem
    i: int
    period: int
    residue_coeffs: tuple
    samples: tuple

    def predict(self, k: int) -> Fraction:
        return _poly_eval(self.residue_coeffs[k % self.period], k)


def quasi_period(rs: RootSystem) -> int:
    """The period bound lcm(p, h) / h for the counts as functions of k."""
    h = simplex_model(rs).h
    return lcm(simplex_period(rs), h) // h


def fit_quasipolynomial(rs: RootSystem, i: int) -> QuasiPolynomialFit:
    """Interpolate N^(k)(i) per residue class of k and verify all samples.

    Samples k = 1..(n+1)p+2, p the quasi-period.  Uses the first n+1
    samples of each residue class for the fit and treats every
    remaining sample as a held-out check; a mismatch means
    the counts are not the expected quasipolynomial and raises a
    ValueError carrying the offending k.
    """
    n = rs.n
    if not 0 <= i <= n:
        raise UsageError("wall count index out of range")
    period = quasi_period(rs)
    kmax = (n + 1) * period + 2
    samples = tuple(n_k_i(rs, k)[i] for k in range(1, kmax + 1))
    coeffs = []
    for r in range(period):
        ks = [k for k in range(1, kmax + 1) if k % period == r]
        pts = [(k, samples[k - 1]) for k in ks[: n + 1]]
        poly = _lagrange_fit(pts)
        for k in ks:
            if _poly_eval(poly, k) != samples[k - 1]:
                raise ValueError(
                    f"held-out sample at k={k} deviates from the fitted polynomial"
                )
        coeffs.append(poly)
    return QuasiPolynomialFit(rs, i, period, tuple(coeffs), samples)


def ehrhart_csv_rows(rs: RootSystem, ts) -> list:
    """Rows (t, i, N_i) over the requested dilations."""
    rows = []
    for t in ts:
        counts = count_by_walls(rs, t).counts
        for i, v in enumerate(counts):
            rows.append((t, i, v))
    return rows
