"""Dominant regions of the k-Catalan arrangement, exactly.

A dominant point is encoded by the vector t of its pairings with the
simple roots, so the hyperplane at height i normal to a positive root
with coefficient vector c becomes c.t = i and the whole arrangement is
a finite list of integer linear constraints.  Every region question
(nonemptiness, walls, boundedness, disjointness) reduces to rational
linear feasibility, which is decided by Fourier-Motzkin elimination.
Strict inequalities carry a flag standing for a single symbolic
epsilon > 0; combining rows with positive multipliers keeps the flag
meaningful, so no floating point or perturbation constants appear.

Each geometric chain determines one region: a root at level m lies in
the open strip between heights m and m+1, or beyond height k when
m = k.  Floors and ceilings of a region are its walls of positive
colour, split by whether the origin sits on the far or near side.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd

from . import nonnesting
from .errors import InternalInvariantError
from .nonnesting import FilterChain
from .poly import BivarPoly
from .rootsys import RootSystem

# A row (coeffs, rhs, strict) asserts coeffs.t > rhs when strict else >=.
Row = tuple


def _normalize(row: Row) -> Row:
    coeffs, rhs, strict = row
    g = 0
    for v in coeffs:
        g = gcd(g, v)
    g = gcd(g, rhs)
    if g > 1:
        coeffs = tuple(v // g for v in coeffs)
        rhs = rhs // g
    return (coeffs, rhs, strict)


def _dominate(rows) -> list:
    """Keep only the tightest bound per coefficient vector."""
    best = {}
    for coeffs, rhs, strict in rows:
        seen = best.get(coeffs)
        if seen is None or (rhs, strict) > seen:
            best[coeffs] = (rhs, strict)
    return [(c, r, s) for c, (r, s) in best.items()]


def _zero_row_ok(row: Row) -> bool:
    _, rhs, strict = row
    return rhs < 0 or (rhs == 0 and not strict)


def _eliminate(rows, j: int):
    """Project away variable j; returns None on a visible contradiction."""
    pos, neg, rest = [], [], []
    for row in rows:
        cj = row[0][j]
        if cj > 0:
            pos.append(row)
        elif cj < 0:
            neg.append(row)
        else:
            rest.append(row)
    out = rest
    for pc, pr, ps in pos:
        for nc, nr, ns in neg:
            mp, mn = -nc[j], pc[j]
            coeffs = tuple(mp * a + mn * b for a, b in zip(pc, nc))
            row = _normalize((coeffs, mp * pr + mn * nr, ps or ns))
            if not any(coeffs):
                if not _zero_row_ok(row):
                    return None
                continue
            out.append(row)
    return _dominate(out)


def feasible(rows, n: int) -> bool:
    rows = _dominate(_normalize(r) for r in rows)
    live = []
    for row in rows:
        if any(row[0]):
            live.append(row)
        elif not _zero_row_ok(row):
            return False
    rows = live
    for j in range(n):
        rows = _eliminate(rows, j)
        if rows is None:
            return False
    return all(_zero_row_ok(r) for r in rows)


class Region:
    """Open dominant cell determined by the level of every positive root."""

    __slots__ = ("rs", "k", "levels")

    def __init__(self, rs: RootSystem, k: int, levels: tuple):
        self.rs = rs
        self.k = k
        self.levels = levels

    def system(self) -> list:
        rows = []
        for r, root in enumerate(self.rs.positive_roots):
            m = self.levels[r]
            rows.append((root, m, True))
            if m < self.k:
                neg = tuple(-c for c in root)
                rows.append((neg, -(m + 1), True))
        return rows


def region_from_chain(chain: FilterChain) -> Region:
    region = Region(chain.rs, chain.k, chain.levels())
    if not feasible(region.system(), chain.rs.n):
        raise InternalInvariantError("chain produced an empty region")
    return region


def is_bounded(region: Region) -> bool:
    """Whether no simple root is at level k.

    The recession cone is d >= 0 with root . d = 0 for every root below
    level k, so it is trivial exactly when every simple root lies in the
    support of such a root.  A root whose support holds j lies above
    alpha_j, so it is at level k whenever alpha_j is.
    """
    return all(m < region.k for m in region.levels[: region.rs.n])


class WallReport:
    __slots__ = ("walls", "floors", "ceilings", "bounded")

    def __init__(self, walls: tuple, floors: tuple, ceilings: tuple, bounded: bool):
        self.walls = walls
        self.floors = floors
        self.ceilings = ceilings
        self.bounded = bounded

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.walls, self.floors, self.ceilings, self.bounded) == (
            other.walls, other.floors, other.ceilings, other.bounded
        )

    def __hash__(self) -> int:
        return hash((self.walls, self.floors, self.ceilings, self.bounded))

    def coloured_ceiling_count(self, colour: int) -> int:
        return sum(1 for _, i in self.ceilings if i == colour)


def wall_report(region: Region) -> WallReport:
    """Walls, floors and ceilings of a region.

    Each row of the system is one side of a strip: c.t > m with colour
    m, or -c.t > -(m + 1) with colour m + 1.  It lies on a wall when the
    system with that row made an equality, every other row staying
    strict, is feasible: such a point is a relative-interior facet
    point, so existence is exactly the affine-dimension n-1 condition.
    """
    rs = region.rs
    rows = region.system()
    walls, floors, ceilings = [], [], []
    for pos, (coeffs, rhs, _) in enumerate(rows):
        neg = tuple(-c for c in coeffs)
        face = rows[:pos] + rows[pos + 1:]
        face += [(coeffs, rhs, False), (neg, -rhs, False)]
        if not feasible(face, rs.n):
            continue
        lower = rhs >= 0
        wall = (rs.root_index[coeffs if lower else neg], abs(rhs))
        walls.append(wall)
        if rhs == 0:
            continue
        (floors if lower else ceilings).append(wall)
    return WallReport(
        tuple(walls), tuple(floors), tuple(ceilings), is_bounded(region)
    )


def regions_of(rs: RootSystem, k: int) -> tuple:
    return tuple(
        region_from_chain(chain) for chain in nonnesting.enumerate_chains(rs, k)
    )


@lru_cache(maxsize=None)
def wall_reports(rs: RootSystem, k: int) -> tuple:
    """One WallReport per geometric chain, in `enumerate_chains` order.

    Each region passes `region_from_chain`'s feasibility check before
    its walls are computed.
    """
    return tuple(wall_report(region) for region in regions_of(rs, k))


def ceilings_poly(rs: RootSystem, k: int) -> BivarPoly:
    """Sum of x^(number of colour-k ceilings) over bounded dominant regions."""
    coeffs = {}
    for report in wall_reports(rs, k):
        if not report.bounded:
            continue
        d = report.coloured_ceiling_count(k)
        coeffs[(d, 0)] = coeffs.get((d, 0), 0) + 1
    return BivarPoly(coeffs)


def regions_json(rs: RootSystem, k: int) -> list:
    out = []
    chains = nonnesting.enumerate_chains(rs, k)
    for chain, report in zip(chains, wall_reports(rs, k)):
        out.append(
            {
                "levels": list(chain.levels()),
                "walls": [list(w) for w in report.walls],
                "floors": [list(w) for w in report.floors],
                "ceilings": [list(w) for w in report.ceilings],
                "bounded": report.bounded,
                "CL_k": report.coloured_ceiling_count(k),
            }
        )
    return out
