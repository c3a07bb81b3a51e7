"""Crystallographic root systems in simple-root coordinates.

Every root is stored as its integer coefficient vector over the simple
roots, so all arithmetic is exact.  The Cartan matrix convention is
``a[i][j] = <coroot(alpha_i), alpha_j>``, under which the simple
reflection acts on coefficient vectors by

    s_i(beta) = beta - (row_i(A) . beta) * alpha_i

Numbering of the simple roots follows Bourbaki.

The type of a Cartan matrix is read off its Dynkin diagram, one
connected component at a time, by the rules of Bourbaki's plates (Lie
Groups and Lie Algebras, Ch. VI, Plates I-IX).  Nodes i != j are joined
when a_ij != 0, and a_ij = -2 or -3 marks alpha_i as the short end of a
double or triple bond.  A triple bond is G2.  A double bond between two
inner nodes is F4; one whose short end is a leaf is B (so a rank two
double bond reads B2), and otherwise it is C.  A simply laced diagram
with no branch node is A; otherwise its branch node has three
neighbours, and it is E when exactly one of them is a leaf, D when two
or three are.  Only diagrams of finite type are named.

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
            family, digits = part[0].upper(), part[1:]
            if not (digits.isascii() and digits.isdigit()):
                raise UsageError(f"cannot parse rank in factor {part!r}")
            rank = int(digits)
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


def _diagram(cartan) -> tuple:
    """(components, colours) of the Dynkin diagram, from one search.

    The components are sorted node tuples, ordered by their lowest nodes;
    colours is a proper two-colouring by +1 and -1 that puts the lowest
    node of each component on the + side.
    """
    n = len(cartan)
    colour = [0] * n
    comps = []
    for start in range(n):
        if colour[start]:
            continue
        colour[start] = 1
        comp = [start]
        for i in comp:
            for j in range(n):
                if j != i and cartan[i][j]:
                    if not colour[j]:
                        colour[j] = -colour[i]
                        comp.append(j)
                    elif colour[j] == colour[i]:
                        raise InternalInvariantError("diagram is not bipartite")
        comps.append(tuple(sorted(comp)))
    return tuple(comps), tuple(colour)


class RootSystem:
    """A crystallographic root system with all derived combinatorial data.

    Instances compare by identity; the module-level constructors are cached
    so equal inputs give the same object within a session.
    """

    __slots__ = (
        "typespec", "cartan", "positive_roots", "components", "bipartition", "__dict__",
    )

    def __init__(self, typespec: TypeSpec, cartan: tuple, positive_roots: tuple):
        self.typespec = typespec
        self.cartan = cartan
        self.positive_roots = positive_roots
        self.components, self.bipartition = _diagram(cartan)

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
    def highest_roots(self) -> tuple:
        """One root index per component: the maximum of its root poset.

        The roots come in height order, so the highest root of a
        component is the last of its roots (those whose support meets
        it).  Every root of the component must lie below that one, or
        its root poset has no unique maximum.
        """
        out = []
        for comp in self.components:
            members = [r for r in self.positive_roots if any(r[i] for i in comp)]
            top = members[-1]
            if not all(root_leq(self, r, top) for r in members):
                raise InternalInvariantError("component root poset has no unique maximum")
            out.append(self.root_index[top])
        return tuple(out)

    @cached_property
    def coxeter_numbers(self) -> tuple:
        """Coxeter number per component, as 1 + height of the highest root."""
        out = []
        for comp, top in zip(self.components, self.highest_roots):
            h = 1 + self.heights[top]
            count = sum(any(r[i] for i in comp) for r in self.positive_roots)
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
    """(family, rank) of a connected Cartan matrix of finite type, read
    off its diagram by the rules of the module docstring."""
    r = len(sub)
    nbrs = [[j for j in range(r) if j != i and sub[i][j]] for i in range(r)]
    leaf = [len(nb) == 1 for nb in nbrs]
    short = [(i, j) for i in range(r) for j in nbrs[i] if sub[i][j] < -1]
    branch = [i for i in range(r) if len(nbrs[i]) > 2]
    family = None
    if len(short) == 1 and not branch:
        (i, j), = short
        if sub[i][j] == -3:
            family = "G"
        elif leaf[i] or leaf[j]:
            family = "B" if leaf[i] else "C"
        else:
            family = "F"
    elif not short and not branch:
        family = "A"
    elif not short and len(branch) == 1 and len(nbrs[branch[0]]) == 3:
        ends = sum(leaf[j] for j in nbrs[branch[0]])
        family = "E" if ends == 1 else "D" if ends else None
    if family is None or not _valid_rank(family, r):
        raise UsageError("matrix is not a finite-type Cartan matrix")
    return family, r


def classify_cartan(cartan) -> TypeSpec:
    """TypeSpec of a (possibly reducible) Cartan matrix of finite type,
    one factor per component in the order of their lowest nodes."""
    return TypeSpec(tuple(
        _classify_component([[cartan[i][j] for j in comp] for i in comp])
        for comp in _diagram(cartan)[0]
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
# chain walk, the multichains of the delta sequence walk (every k' <= k
# for both, ``fuss_catalan_sum``).
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


def fuss_catalan_sum(rs: RootSystem, k: int) -> int:
    """FC(W, 1) + ... + FC(W, k), from n + 1 Fuss-Catalan numbers
    whatever k is: the objects a walk to depth k visits, the geometric
    chains of at most k filters or the multichains below c of at most k
    elements.

    FC(W, m) is a product of n factors linear in m, so the sum is a
    polynomial of degree n + 1 in k; Lagrange's formula reads it off its
    values at k = 0..n+1.
    """
    from .poly import interpolate  # fct.cli loads rootsys alone

    sums = [0]
    for m in range(1, rs.n + 2):
        sums.append(sums[-1] + fuss_catalan_number(rs, m))
    return interpolate(range(rs.n + 2), [sums], k)[0]
