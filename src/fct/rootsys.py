"""Crystallographic root systems in simple-root coordinates.

Every root is stored as its integer coefficient vector over the simple
roots, so all arithmetic is exact.  The Cartan matrix convention is
``a[i][j] = <coroot(alpha_i), alpha_j>``, under which the simple
reflection acts on coefficient vectors by

    s_i(beta) = beta - (row_i(A) . beta) * alpha_i

Numbering of the simple roots follows Bourbaki.

>>> rs = build_root_system(TypeSpec.parse("A2"))
>>> rs.positive_roots
((1, 0), (0, 1), (1, 1))
>>> support(rs, (1, 1))
frozenset({0, 1})
"""
from __future__ import annotations

from functools import cached_property, lru_cache

from .errors import InternalInvariantError, UsageError

Root = tuple  # integer coefficient vector over the simple roots

_FAMILIES = ("A", "B", "C", "D", "E", "F", "G")


def _valid_rank(family: str, n: int) -> bool:
    if family == "A":
        return n >= 1
    if family in ("B", "C"):
        return n >= 2
    if family == "D":
        return n >= 4
    if family == "E":
        return n in (6, 7, 8)
    if family == "F":
        return n == 4
    if family == "G":
        return n == 2
    return False


class TypeSpec:
    """A finite crystallographic type, possibly reducible.

    ``factors`` is a tuple of (family, rank) pairs in a fixed order.  The
    empty tuple is the rank zero type; it has no textual form and is only
    produced internally (for example by deleting the last node of A1).

    >>> str(TypeSpec.parse("b3xA1"))
    'B3xA1'
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        self.factors = factors

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash((self.factors,))

    @classmethod
    def parse(cls, text: str) -> "TypeSpec":
        parts = text.strip().split("x")
        factors = []
        for part in parts:
            part = part.strip()
            if len(part) < 2 or part[0].upper() not in _FAMILIES:
                raise UsageError(f"cannot parse type factor {part!r}")
            family = part[0].upper()
            try:
                rank = int(part[1:])
            except ValueError:
                raise UsageError(f"cannot parse rank in factor {part!r}") from None
            if not _valid_rank(family, rank):
                raise UsageError(f"invalid type factor {family}{rank}")
            factors.append((family, rank))
        if not factors:
            raise UsageError("empty type")
        return cls(tuple(factors))

    def __str__(self) -> str:
        return "x".join(f"{fam}{rank}" for fam, rank in self.factors)

    @property
    def rank(self) -> int:
        return sum(rank for _, rank in self.factors)


def _cartan_irreducible(family: str, n: int) -> list:
    """Cartan matrix of an irreducible type, Bourbaki numbering."""
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def edge(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if family == "A":
        for i in range(n - 1):
            edge(i, i + 1)
    elif family == "B":
        # alpha_n is the short root: a[n][n-1] = -2 in 1-based indices
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 2, n - 1, -1, -2)
    elif family == "C":
        # alpha_n is the long root
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 2, n - 1, -2, -1)
    elif family == "D":
        for i in range(n - 3):
            edge(i, i + 1)
        edge(n - 3, n - 2)
        edge(n - 3, n - 1)
    elif family == "E":
        for i, j in ((0, 2), (2, 3), (3, 4), (4, 5), (1, 3)):
            edge(i, j)
        for i in range(5, n - 1):
            edge(i, i + 1)
    elif family == "F":
        edge(0, 1)
        edge(1, 2, -1, -2)  # alpha_3, alpha_4 short
        edge(2, 3)
    elif family == "G":
        edge(0, 1, -3, -1)  # alpha_1 short
    else:  # pragma: no cover
        raise UsageError(f"unknown family {family}")
    return a


_DEGREES = {
    "A": lambda n: tuple(range(2, n + 2)),
    "B": lambda n: tuple(range(2, 2 * n + 1, 2)),
    "C": lambda n: tuple(range(2, 2 * n + 1, 2)),
    "D": lambda n: tuple(sorted(list(range(2, 2 * n - 1, 2)) + [n])),
    "E": lambda n: {
        6: (2, 5, 6, 8, 9, 12),
        7: (2, 6, 8, 10, 12, 14, 18),
        8: (2, 8, 12, 14, 18, 20, 24, 30),
    }[n],
    "F": lambda n: (2, 6, 8, 12),
    "G": lambda n: (2, 6),
}


def degrees(family: str, n: int) -> tuple:
    """Invariant degrees of the Weyl group of an irreducible type."""
    return _DEGREES[family](n)


def _closure_positive_roots(cartan) -> tuple:
    """All positive roots of the given Cartan matrix, by reflection closure."""
    n = len(cartan)
    seen = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(n):
                val = sum(cartan[i][j] * c[j] for j in range(n))
                if val >= 0:
                    continue  # reflection only raises the root at i when val < 0
                image = list(c)
                image[i] -= val
                t = tuple(image)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    # simple roots first in index order, then by increasing height
    return tuple(sorted(seen, key=lambda c: (sum(c), tuple(-x for x in c))))


def _components(cartan) -> tuple:
    """Connected components of the Coxeter diagram, by lowest node index."""
    n = len(cartan)
    unseen = set(range(n))
    comps = []
    while unseen:
        start = min(unseen)
        comp = [start]
        unseen.remove(start)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in list(unseen):
                if cartan[i][j] != 0:
                    unseen.remove(j)
                    comp.append(j)
                    queue.append(j)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def _bipartition(cartan, components) -> tuple:
    """Proper two-colouring of the diagram; lowest node of each component
    goes to the + part."""
    n = len(cartan)
    colour = [0] * n
    for comp in components:
        colour[comp[0]] = 1
        queue = [comp[0]]
        while queue:
            i = queue.pop()
            for j in comp:
                if cartan[i][j] != 0 and i != j:
                    if colour[j] == 0:
                        colour[j] = -colour[i]
                        queue.append(j)
                    elif colour[j] == colour[i]:
                        raise InternalInvariantError("diagram is not bipartite")
    return tuple(colour)


class RootSystem:
    """A crystallographic root system with all derived combinatorial data.

    Instances compare by identity; the module-level constructors are cached
    so equal inputs give the same object within a session.
    """

    __slots__ = ("typespec", "cartan", "positive_roots", "__dict__")

    def __init__(self, typespec: TypeSpec, cartan: tuple, positive_roots: tuple):
        self.typespec = typespec
        self.cartan = cartan
        self.positive_roots = positive_roots

    @property
    def n(self) -> int:
        return len(self.cartan)

    @cached_property
    def root_index(self) -> dict:
        return {r: i for i, r in enumerate(self.positive_roots)}

    @cached_property
    def heights(self) -> tuple:
        return tuple(sum(r) for r in self.positive_roots)

    @cached_property
    def components(self) -> tuple:
        return _components(self.cartan)

    @cached_property
    def bipartition(self) -> tuple:
        return _bipartition(self.cartan, self.components)

    @cached_property
    def component_of_node(self) -> tuple:
        owner = [0] * self.n
        for ci, comp in enumerate(self.components):
            for i in comp:
                owner[i] = ci
        return tuple(owner)

    def component_of_root(self, root: Root) -> int:
        return self.component_of_node[min(i for i, c in enumerate(root) if c)]

    @cached_property
    def highest_roots(self) -> tuple:
        """One root index per component: the maximum of its root poset."""
        out = []
        for ci, comp in enumerate(self.components):
            members = [
                i
                for i, r in enumerate(self.positive_roots)
                if self.component_of_root(r) == ci
            ]
            maxima = [
                i
                for i in members
                if not any(
                    j != i and root_leq(self, self.positive_roots[i], self.positive_roots[j])
                    for j in members
                )
            ]
            if len(maxima) != 1:
                raise InternalInvariantError("component root poset has no unique maximum")
            out.append(maxima[0])
        return tuple(out)

    @cached_property
    def coxeter_numbers(self) -> tuple:
        """Coxeter number per component, as 1 + height of the highest root."""
        out = []
        for ci, comp in enumerate(self.components):
            h = 1 + self.heights[self.highest_roots[ci]]
            count = sum(
                1
                for r in self.positive_roots
                if self.component_of_root(r) == ci
            )
            if h * len(comp) != 2 * count:
                raise InternalInvariantError("h * rank != 2 * #positive roots")
            out.append(h)
        return tuple(out)

    @cached_property
    def coxeter_number(self) -> int:
        """Largest Coxeter number over the components (h of the type when
        irreducible)."""
        return max(self.coxeter_numbers, default=2)

    @cached_property
    def sum_triples(self) -> tuple:
        """All (a, b, c) with root_a + root_b = root_c, a <= b."""
        idx = self.root_index
        out = []
        for a, ra in enumerate(self.positive_roots):
            for b in range(a, len(self.positive_roots)):
                rb = self.positive_roots[b]
                c = idx.get(tuple(x + y for x, y in zip(ra, rb)))
                if c is not None:
                    out.append((a, b, c))
        return tuple(out)

    @cached_property
    def pair_lists(self) -> tuple:
        """For each root index c, the list of (a, b) with root_a + root_b = root_c."""
        out = [[] for _ in self.positive_roots]
        for a, b, c in self.sum_triples:
            out[c].append((a, b))
        return tuple(tuple(x) for x in out)


def root_leq(rs: RootSystem, a: Root, b: Root) -> bool:
    """Root poset order: a <= b iff b - a has nonnegative coordinates."""
    return all(x <= y for x, y in zip(a, b))


def support(rs: RootSystem, b: Root) -> frozenset:
    """Indices of the simple roots appearing in b."""
    return frozenset(i for i, c in enumerate(b) if c)


@lru_cache(maxsize=None)
def filter_mask(rs: RootSystem, a: int) -> int:
    """Bitmask of the principal order filter generated by simple root a."""
    alpha = rs.positive_roots[a]
    m = 0
    for i, r in enumerate(rs.positive_roots):
        if root_leq(rs, alpha, r):
            m |= 1 << i
    return m


def _classify_component(sub) -> tuple:
    """Identify the irreducible type of a connected Cartan matrix.

    Returns (family, rank) of the first Bourbaki matrix it matches under
    some node permutation perm: sub[i][j] == canonical[perm[i]][perm[j]].
    """
    r = len(sub)
    candidates = [f for f in _FAMILIES if _valid_rank(f, r)]
    for family in candidates:
        target = _cartan_irreducible(family, r)

        def rowkey(mat, i):
            return tuple(sorted(mat[i][j] * mat[j][i] for j in range(len(mat)) if j != i and mat[i][j]))

        skeys = [rowkey(sub, i) for i in range(r)]
        tkeys = [rowkey(target, i) for i in range(r)]
        if sorted(skeys) != sorted(tkeys):
            continue
        slots = [[p for p in range(r) if tkeys[p] == skeys[i]] for i in range(r)]
        perm = [-1] * r
        used = [False] * r

        def place(i):
            if i == r:
                return True
            for p in slots[i]:
                if used[p]:
                    continue
                ok = all(
                    perm[j] < 0 or (sub[i][j] == target[p][perm[j]] and sub[j][i] == target[perm[j]][p])
                    for j in range(r)
                )
                if ok:
                    perm[i] = p
                    used[p] = True
                    if place(i + 1):
                        return True
                    perm[i] = -1
                    used[p] = False
            return False

        if place(0):
            return family, r
    raise UsageError("matrix is not a finite-type Cartan matrix")


def classify_cartan(cartan) -> TypeSpec:
    """TypeSpec of a (possibly reducible) Cartan matrix, one factor per
    component in the order of their lowest nodes.  A rank two double
    bond reads B2: B is tried before the isomorphic C2.
    """
    return TypeSpec(tuple(
        _classify_component([[cartan[i][j] for j in comp] for i in comp])
        for comp in _components(cartan)
    ))


def _build_from_cartan(cartan, typespec: TypeSpec) -> RootSystem:
    rs = RootSystem(
        typespec=typespec,
        cartan=tuple(tuple(row) for row in cartan),
        positive_roots=_closure_positive_roots(cartan),
    )
    for (family, rank), h in zip(typespec.factors, rs.coxeter_numbers):
        if h != max(degrees(family, rank)):
            raise InternalInvariantError(
                f"Coxeter number of {family}{rank} disagrees with its degrees"
            )
    return rs


@lru_cache(maxsize=None)
def build_root_system(typespec: TypeSpec) -> RootSystem:
    """Construct the root system of a type, one diagonal block per factor."""
    n = typespec.rank
    cartan = [[0] * n for _ in range(n)]
    offset = 0
    for family, rank in typespec.factors:
        block = _cartan_irreducible(family, rank)
        for i in range(rank):
            for j in range(rank):
                cartan[offset + i][offset + j] = block[i][j]
        offset += rank
    return _build_from_cartan(cartan, typespec)


@lru_cache(maxsize=None)
def parabolic(rs: RootSystem, remove: int) -> RootSystem:
    """Delete one node of the diagram.

    The positive roots of the result are exactly the roots of rs whose
    support avoids the removed node, re-expressed over the remaining
    simple roots; the type is recomputed from the induced diagram.
    """
    if not 0 <= remove < rs.n:
        raise UsageError(f"simple root index {remove} out of range")
    keep = [i for i in range(rs.n) if i != remove]
    sub = [[rs.cartan[i][j] for j in keep] for i in keep]
    typespec = classify_cartan(sub) if keep else TypeSpec(())
    out = _build_from_cartan(sub, typespec)
    expected = sorted(
        tuple(r[i] for i in keep) for r in rs.positive_roots if r[remove] == 0
    )
    if sorted(out.positive_roots) != expected:
        raise InternalInvariantError("parabolic closure disagrees with restriction")
    return out


@lru_cache(maxsize=None)
def parabolic_root_embedding(rs: RootSystem, remove: int) -> tuple:
    """For each positive root of parabolic(rs, remove), its index in rs."""
    sub = parabolic(rs, remove)
    keep = [i for i in range(rs.n) if i != remove]
    out = []
    for r in sub.positive_roots:
        full = [0] * rs.n
        for pos, i in enumerate(keep):
            full[i] = r[pos]
        out.append(rs.root_index[tuple(full)])
    return tuple(out)


def irreducible_factors(rs: RootSystem) -> tuple:
    """The canonical root systems of the irreducible components of rs."""
    return tuple(build_root_system(TypeSpec((f,))) for f in rs.typespec.factors)


# Bound on the objects one enumeration visits: the geometric chains of a
# chain walk (every k' <= k), delta sequences.
ENUMERATION_LIMIT = 5 * 10**6


def fuss_catalan_number(rs: RootSystem, k: int) -> int:
    """Product formula prod_i (k h + d_i) / d_i over all factors."""
    num, den = 1, 1
    for (family, rank), h in zip(rs.typespec.factors, rs.coxeter_numbers):
        for d in degrees(family, rank):
            num *= k * h + d
            den *= d
    if num % den:
        raise InternalInvariantError("Fuss-Catalan product is not an integer")
    return num // den
