"""Dominant regions of the k-Catalan arrangement, exactly.

A dominant point is encoded by the vector t of its pairings with the
simple roots, so the hyperplane at height i normal to a positive root
with coefficient vector c becomes c.t = i and the whole arrangement is
a finite list of integer linear constraints.

Each geometric chain determines one region: a root at level m lies in
the open strip between heights m and m+1, or beyond height k when
m = k.  So a region is the level vector of its chain
(``nonnesting.levels``), entry r the level of root r, and every
function on regions takes the root system and k beside it.  Its full
system has, for each positive root c at level m, the lower row c.t > m
of colour m and, when m < k, the upper row c.t < m + 1 of colour
m + 1.  A row is a wall when some point meets it with equality and
every other row strictly, so that the closure of the region meets the
row's hyperplane in a facet.  `wall_report` returns the walls as
(root, colour) pairs, lower row before upper row, roots in order, so a
wall (r, c) of a root at level m is a floor when c = m > 0 and a
ceiling when c = m + 1: the origin sits on the far or near side.

Regions are read one at a time: `regions_of` yields the level vectors
lazily, in chain order, and `ceilings_poly`, ``verify.verify_phi`` and
`regions_json` take each region's walls as it comes, so no caller holds
every level vector or every region's walls.

For positive roots beta + gamma = alpha at levels m_beta, m_gamma,
m_alpha, every point of a nonempty region gives the chain inequality

    min(m_beta + m_gamma, k) <= m_alpha <= min(m_beta + m_gamma + 1, k),

since alpha.t = beta.t + gamma.t.  These are the conditions of a
geometric chain (``nonnesting``) read on levels, and the region of a
geometric chain is nonempty (Athanasiadis, Bull. London Math. Soc. 36,
2004).  So a level vector belongs to a nonempty region exactly when it
meets every chain inequality, and `wall_report` raises on one that
does not.  Below, m meets them.

Walls from the root sums.  Call the sum beta + gamma = alpha tight when
m_alpha <= m_beta + m_gamma and loose otherwise; by the chain
inequality a loose sum has m_alpha = m_beta + m_gamma + 1.  Each sum
drops up to three rows, each the sum of two rows of the full system,
which hold on the closure of the region:

* tight: alpha's lower row, as alpha.t = beta.t + gamma.t >=
  m_beta + m_gamma >= m_alpha; and when m_alpha < k, so that
  m_alpha = m_beta + m_gamma, beta's upper row, as beta.t =
  alpha.t - gamma.t <= m_alpha + 1 - m_gamma = m_beta + 1, and gamma's
  likewise;
* loose: alpha's upper row, as alpha.t <= (m_beta + 1) + (m_gamma + 1)
  = m_alpha + 1, where beta and gamma lie below level k since
  m_beta + m_gamma < m_alpha <= k; and beta's lower row, as beta.t =
  alpha.t - gamma.t >= m_alpha - (m_gamma + 1) = m_beta, and gamma's
  likewise.

On the hyperplane of a dropped row the two summed rows must both be
tight, so the closure meets that hyperplane inside the hyperplanes of
two distinct positive roots, which are not proportional: a face of
dimension at most n - 2.  So a dropped row is never a wall, in whatever
order the rows are dropped.  (Read row by row, with the chain
inequalities, the drops say: a lower row alpha.t > m falls when
some beta + gamma = alpha has m_beta + m_gamma >= m, or some
alpha + beta = gamma has m_beta < k and m_gamma - m_beta - 1 >= m; an
upper row alpha.t < m + 1 falls when some alpha + gamma = beta has
m_beta < k and m_beta <= m + m_gamma, or some beta + gamma = alpha has
m_beta < k, m_gamma < k and m_beta + m_gamma + 1 <= m.)

Every row that no sum drops is a wall, so no search runs:

* Colour 0.  Only the lower row t_i > 0 of a simple root alpha_i at
  level 0 can stay: any other root at level 0 is a tight sum.  It stays
  exactly when m is s_i-invariant, m_(s_i beta) = m_beta for every
  positive beta != alpha_i.  For the alpha_i-string through such a beta
  is made of positive roots and s_i reverses it, and along it m steps up
  by 0 or 1 (the chain inequality with m_(alpha_i) = 0); so m is
  s_i-invariant on every string exactly when every step
  beta + alpha_i = gamma is tight, that is when no loose sum drops the
  row.  And such a row is a wall exactly when m is s_i-invariant.  Write
  s_i t for the point with beta.(s_i t) = (s_i beta).t.  If m is
  s_i-invariant and t lies in the region, p = (t + s_i t)/2 has
  alpha_i.p = 0, and for beta != alpha_i, beta.p is the mean of beta.t
  and (s_i beta).t, two values in the open strip of level m_beta; so p
  meets every other row strictly.  Conversely a wall point p has
  s_i p = p, so beta.p = (s_i beta).p lies in the open strips of levels
  m_beta and m_(s_i beta), which are then equal.
* Floors.  The lower row of a root alpha at level m >= 1 stays when
  every sum beta + gamma = alpha is loose and no loose sum holds alpha.
  Then alpha meets the three clauses of an indecomposable of rank m
  (``nonnesting.indecomposables``).  A root below level k has its level
  as maximal decomposition rank, by height, since each of its sums has
  m_beta + m_gamma at most its level; so alpha's sums, all loose with
  m_beta + m_gamma = m - 1, give it rank m and no split of rank m.  And
  a sum alpha + beta = gamma with gamma at its decomposition rank t > m
  and beta below level t - m would be loose.  The floors of colour m
  are the hyperplanes of the rank-m indecomposables (Athanasiadis,
  Trans. Amer. Math. Soc. 357, 2005), so the row is a floor.
* Ceilings.  That every upper row left is a wall is not proved here;
  Thiel (Electron. J. Combin. 21(4), 2014) studies the ceilings of the
  arrangement.  The tests check it against Fourier-Motzkin region by
  region (``tests/oracles.py``), and `pos`, `ceil` and `final` compare
  the colour-k ceilings with the cluster and census sides.

`feasible` decides rational linear feasibility of such rows by
Fourier-Motzkin elimination.  Strict inequalities carry a flag standing
for a single symbolic epsilon > 0; combining rows with positive
multipliers keeps the flag meaningful, so no floating point or
perturbation constants appear.  No request path runs it: it serves the
test oracles and the benchmark's trace.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd

from . import _purecore, nonnesting
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


def is_bounded(rs: RootSystem, k: int, levels: tuple) -> bool:
    """Whether no simple root is at level k.

    The recession cone is d >= 0 with root . d = 0 for every root below
    level k, so it is trivial exactly when every simple root lies in the
    support of such a root.  A root whose support holds j lies above
    alpha_j, so it is at level k whenever alpha_j is.
    """
    return all(m < k for m in levels[: rs.n])


def wall_report(rs: RootSystem, k: int, levels: tuple) -> tuple:
    """The walls (root, colour) of the region with level vector
    ``levels``: the rows of its full system that no root sum drops
    (module docstring), lower row before upper row, roots in order.

    Raises InternalInvariantError on a level vector that breaks a chain
    inequality, whose region is empty: no chain gives one.
    """
    lower = [True] * len(levels)
    upper = [m < k for m in levels]
    for a, b, c in rs.sum_triples:
        s, m = levels[a] + levels[b], levels[c]
        if min(s, k) <= m <= s:  # tight
            lower[c] = False
            if m < k:
                upper[a] = upper[b] = False
        elif m == s + 1:  # loose
            upper[c] = lower[a] = lower[b] = False
        else:
            raise InternalInvariantError("level vector of an empty region")
    walls = []
    for r, m in enumerate(levels):
        if lower[r]:
            walls.append((r, m))
        if upper[r]:
            walls.append((r, m + 1))
    return tuple(walls)


def regions_of(rs: RootSystem, k: int):
    """The level vector of each geometric chain's region, one at a time,
    in `enumerate_chains` order."""
    for chain in nonnesting.enumerate_chains(rs, k):
        yield nonnesting.levels(rs, chain)


@lru_cache(maxsize=None)
def ceilings_poly(rs: RootSystem, k: int) -> BivarPoly:
    """Sum of x^(number of colour-k ceilings) over bounded dominant regions.

    Every region's walls are read, so `wall_report` checks each region
    nonempty on the way (module docstring).
    """
    coeffs = {}
    for levels in regions_of(rs, k):
        walls = wall_report(rs, k, levels)
        if is_bounded(rs, k, levels):
            d = sum(1 for r, c in walls if c == k == levels[r] + 1)
            coeffs[(d, 0)] = coeffs.get((d, 0), 0) + 1
    return BivarPoly(coeffs)


def regions_json(rs: RootSystem, k: int) -> str:
    """The JSON text of the list of regions, in `regions_of` order: each
    region's levels, walls, floors, ceilings, whether it is bounded and
    its number of colour-k ceilings.  Each region's text is made as it
    comes and the texts are joined once, so no region is held as an
    object."""
    out = []
    for levels in regions_of(rs, k):
        walls = wall_report(rs, k, levels)
        ceilings = [[r, c] for r, c in walls if c == levels[r] + 1]
        out.append(_purecore.json_text({
            "levels": levels,
            "walls": walls,
            "floors": [[r, c] for r, c in walls if 0 < c == levels[r]],
            "ceilings": ceilings,
            "bounded": is_bounded(rs, k, levels),
            "CL_k": sum(1 for _, c in ceilings if c == k),
        }))
    return "[%s]\n" % ",".join(out)
