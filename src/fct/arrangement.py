"""Dominant regions of the k-Catalan arrangement, exactly.

A dominant point is encoded by the vector t of its pairings with the
simple roots, so the hyperplane at height i normal to a positive root
with coefficient vector c becomes c.t = i and the whole arrangement is
a finite list of integer linear constraints.  Every region question
(walls, and with them nonemptiness; boundedness; disjointness) reduces
to rational linear feasibility, which is decided by Fourier-Motzkin
elimination.  Strict inequalities carry a flag standing for a single
symbolic epsilon > 0; combining rows with positive multipliers keeps
the flag meaningful, so no floating point or perturbation constants
appear.

Each geometric chain determines one region: a root at level m lies in
the open strip between heights m and m+1, or beyond height k when
m = k.  Floors and ceilings of a region are its walls of positive
colour, split by whether the origin sits on the far or near side.

A region is nonempty exactly when it has a wall, so no separate test
decides emptiness.  A wall point meets its own row with equality and
every other row strictly, so a small step from it along that row's
normal, into the row's open side, lies in the region.  Conversely, a
nonempty open region is cut by at least one proper half-space (every
root has a lower row), so it has a facet: a segment from a point of the
region to a generic point outside it first leaves through one
hyperplane alone, since distinct rows have distinct hyperplanes.

Many rows of a region's system follow from two others.  For positive
roots alpha, beta, gamma at levels m, m_beta, m_gamma:

* the lower row alpha.t > m, where alpha = beta + gamma, follows from
  beta.t > m_beta and gamma.t > m_gamma when m_beta + m_gamma >= m;
* the upper row alpha.t < m + 1, where beta = alpha + gamma, follows
  from beta.t < m_beta + 1 and gamma.t > m_gamma when beta lies below
  level k (so that its upper row exists) and m_beta <= m + m_gamma, for
  then alpha.t = beta.t - gamma.t < m_beta + 1 - m_gamma <= m + 1.

`Region.irredundant_system` drops every such row.  That keeps every
face.  Make one row of the full system an equality and keep the others
strict; the claim is that each dropped row other than the equality
still holds strictly on the kept rows plus the equality.  Settle the
lower rows first, by ascending height: the implying rows of a dropped
lower row are the lower rows of beta and gamma, which are lower than
alpha and distinct.  Then settle the upper rows, by descending height:
the implying rows of a dropped upper row are the upper row of beta,
which is higher than alpha, and the lower row of gamma, settled
already.  Each implying row is the equality, which holds with >=, or a
row that holds strictly (kept, or dropped and settled before).  At most
one of the two is the equality, so their sum is strict.  Hence a face
of the full system is nonempty exactly when the same face of the
irredundant system is, and a dropped row is never a wall: with it as
the equality, its implying rows force it strict.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd

from . import nonnesting
from .errors import InternalInvariantError
from .poly import BivarPoly
from .rootsys import RootSystem

# A row (coeffs, rhs, strict) asserts coeffs.t > rhs when strict else >=.
Row = tuple


def _normalize(row: Row) -> Row:
    coeffs, rhs, strict = row
    g = gcd(*coeffs, rhs)
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

    def irredundant_system(self) -> list:
        """The rows of `system` that neither rule of the module docstring
        drops, in the same order."""
        k, levels = self.k, self.levels
        extensions = nonnesting._extensions(self.rs)
        rows = []
        for r, root in enumerate(self.rs.positive_roots):
            m = levels[r]
            if not any(levels[a] + levels[b] >= m for a, b in self.rs.pair_lists[r]):
                rows.append((root, m, True))
            if m < k and not any(
                levels[c] < k and levels[c] <= m + levels[g] for g, c in extensions[r]
            ):
                rows.append((tuple(-c for c in root), -(m + 1), True))
        return rows


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


def _on_hyperplane(rows, equality: Row) -> list:
    """The rows other than ``equality`` restricted to its hyperplane
    e.t = b, in one variable fewer.

    The variable j with the least nonzero |e_j| is substituted away:
    t_j = (b - sum_{i != j} e_i t_i) / e_j, with each row scaled by
    |e_j| > 0 so that it stays integral and keeps its direction.
    """
    e, b, _ = equality
    j = min((i for i, v in enumerate(e) if v), key=lambda i: abs(e[i]))
    scale = abs(e[j])
    sign = 1 if e[j] > 0 else -1
    out = []
    for row in rows:
        if row == equality:
            continue
        a, rhs, strict = row
        f = sign * a[j]
        coeffs = [scale * ai - f * ei for ai, ei in zip(a, e)]
        del coeffs[j]
        out.append((tuple(coeffs), scale * rhs - f * b, strict))
    return out


def wall_report(region: Region) -> WallReport:
    """Walls, floors and ceilings of a region.

    Each row of the system is one side of a strip: c.t > m with colour
    m, or -c.t > -(m + 1) with colour m + 1.  It lies on a wall when the
    system with that row made an equality, every other row staying
    strict, is feasible: such a point is a relative-interior facet
    point, so existence is exactly the affine-dimension n-1 condition.
    Every row is tested that way, by Fourier-Motzkin on the irredundant
    system restricted to the row's hyperplane (n-1 variables), which has
    the same faces as the full system (module docstring).  A region with
    no wall is empty (module docstring), and that raises
    InternalInvariantError: no chain gives an empty region.
    """
    rs = region.rs
    kept = region.irredundant_system()
    walls, floors, ceilings = [], [], []
    for row in region.system():
        if not feasible(_on_hyperplane(kept, row), rs.n - 1):
            continue
        coeffs, rhs, _ = row
        lower = rhs >= 0
        root = coeffs if lower else tuple(-c for c in coeffs)
        wall = (rs.root_index[root], abs(rhs))
        walls.append(wall)
        if rhs == 0:
            continue
        (floors if lower else ceilings).append(wall)
    if not walls:
        raise InternalInvariantError("chain produced an empty region")
    return WallReport(
        tuple(walls), tuple(floors), tuple(ceilings), is_bounded(region)
    )


def regions_of(rs: RootSystem, k: int) -> tuple:
    return tuple(
        Region(rs, k, chain.levels()) for chain in nonnesting.enumerate_chains(rs, k)
    )


@lru_cache(maxsize=None)
def wall_reports(rs: RootSystem, k: int) -> tuple:
    """One WallReport per geometric chain, in `enumerate_chains` order.

    `wall_report` raises on a region with no wall, so every region is
    checked nonempty on the way (module docstring).
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
