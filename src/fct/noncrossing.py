"""Divisible noncrossing partitions from factorisations of a Coxeter element.

A delta sequence is a tuple (d_0, d_1, ..., d_k) of group elements whose
product is the Coxeter element c = s_0 s_1 ... s_{n-1} with reflection
lengths adding up to l_T(c) = n.  Sequences are ordered slotwise by
absolute order on the slots 1..k; slot 0 is determined by the others.  The rank of a
sequence is n - l_T(d_0).  The rank sizes are the Fuss-Narayana numbers;
the M-triangle is the sum of mu(a, b) x^l_T(d_0(b)) y^l_T(d_0(a)) over
a <= b.  Both are read off [1, c], without the order on sequences.  Let
mc_j(x) count the j-multichains 1 <= z_1 <= ... <= z_j <= x, g(1) = 1
and g(x) = -sum over 1 < v <= x of mc_{k-1}(v) g(v^-1 x).  Then

    M(x, y) = sum over w <= u <= c of
              mc_{k-1}(u^-1 c) g(w^-1 u) x^l_T(w) y^l_T(u).

Proof.  Absolute order is suffix order as well as prefix order (u^-1 v
and v u^-1 are conjugate).  For w <= u, v -> w^-1 v maps [w, u] onto
[1, w^-1 u]: given l_T(w^-1 u) = l_T(u) - l_T(w), both memberships say
l_T(w) + l_T(w^-1 v) + l_T(v^-1 u) = l_T(u).  A factor of c in a
factorisation with adding lengths lies in [1, c].
(1) Partial products turn the k-part factorisations of x with adding
lengths into the (k-1)-multichains below x; so mc_{k-1}(u^-1 c)
sequences have zeroth part u, and there are mc_k(c) in all.
(2) Fix b = (w; b_1..b_k) and x.  The e = (x; e_1..e_k) above b number
[x <= w] mc_{k-1}(x^-1 w).  By suffix order e_i = f_i b_i with lengths
adding.  With p_i = b_1...b_i and f'_i = p_{i-1} f_i p_{i-1}^-1,
x f'_1...f'_k p_k = c = w p_k, so x^-1 w = f'_1...f'_k, with lengths
summing to l_T(w) - l_T(x).  The triangle inequality puts l_T(x^-1 w)
between the two, so x <= w and the f'_i factor x^-1 w, lengths adding.
Conversely, conjugating such a factorisation back gives e_i = f_i b_i
with product c and lengths summing to at most n - l_T(x), so every
inequality is tight and e is a sequence above b.
(3) Call that count K(w, x).  Summing sum_b mu(a, b) zeta(b, e) =
[a = e] over the e with zeroth part x gives sum_w R_a(w) K(w, x) =
[x = d_0(a)], where R_a(w) sums mu(a, b) over the b with d_0(b) = w.
K is unitriangular, so R_a is row d_0(a) of its inverse.
(4) That inverse is [w <= u] g(w^-1 u): with y = x^-1 u, the interval
map turns sum over x <= w <= u of g(w^-1 u) K(w, x) into sum over
1 <= v <= y of mc_{k-1}(v) g(v^-1 y) = [y = 1].
Grouping the Moebius sum by d_0(a) with (1) and by d_0(b) with (3) and
(4) gives the formula.  At k = 1, g(w^-1 u) = mu(w, u) on [1, c].  The
minimum (c; 1, ..., 1) makes M(1, 1) = sum_b sum_{a <= b} mu(a, b) = 1,
which ``m_triangle`` checks.  Armstrong generalised Chapoton's M = H = F
to k >= 1 (Mem. AMS 202, 2009); Krattenthaler computed the E7 and E8
M-triangles along parabolics (Sem. Lothar. Combin. 54, 2006).

The interval [1, c] in absolute order is built from its covers, not by
comparing pairs.  Walking down from c, v covers u = v t (t a
reflection) when l_T(u) = l_T(v) - 1; this is Bessis's dual braid
monoid description of the order (Bessis, 2003).  Every such u lies below
v, because l_T(u) + l_T(u^-1 v) = l_T(u) + l_T(t) = l_T(v).  Conversely,
if u <= v, write u^-1 v = t_1 ... t_m as a shortest reflection word,
m = l_T(v) - l_T(u).  The prefixes v_i = u t_1 ... t_i have
l_T(v_i) = l_T(u) + i exactly, since the length changes by at most one
per reflection and must reach l_T(v) after m steps.  So v = v_m, ...,
v_0 = u is a chain of covers, and every v_i lies below v, hence in
[1, c].  The walk from c therefore reaches every element of [1, c], and
the reflexive-transitive closure of the covers it finds is exactly
absolute order on [1, c].
"""
from __future__ import annotations

from functools import lru_cache

from . import weyl
from .errors import InternalInvariantError, ResourceLimitError, UsageError
from .poly import BivarPoly, require_m_support
from .rootsys import ENUMERATION_LIMIT, RootSystem, fuss_catalan_number

# Bound on the comparable pairs w <= u of [1, c], FC(W, 2) of them: the
# pair table holds one entry each (E7: 144 210; E8: 1 520 922).
PAIR_LIMIT = 10**6


@lru_cache(maxsize=None)
def _cover_walk(rs: RootSystem) -> dict:
    """Map from each element of [1, c] to its lower covers.

    Walks down from c one length at a time; u = v t is a lower cover of
    v when its reflection length is one less (see the module docstring).
    Exits on ``PAIR_LIMIT`` before it starts.
    """
    pairs = fuss_catalan_number(rs, 2)
    if pairs > PAIR_LIMIT:
        raise ResourceLimitError(
            f"[1, c] of {rs.typespec} has {pairs} comparable pairs, "
            f"more than the bound {PAIR_LIMIT}"
        )
    c = weyl.coxeter_element(rs)
    refl = weyl.reflections(rs)
    lower = {c: []}
    level = [c]
    for target in range(c.length - 1, -1, -1):
        found = {}
        longer = set()  # products met at this level that lengthen
        for v in level:
            covers = lower[v]
            for t in refl:
                u = weyl.compose(v, t)
                if u in found:
                    covers.append(found[u])
                elif u in longer or u in lower:
                    continue
                elif u.length == target:
                    found[u] = u
                    lower[u] = []
                    covers.append(u)
                else:
                    longer.add(u)
        level = list(found)
    return lower


@lru_cache(maxsize=None)
def absolute_interval(rs: RootSystem) -> tuple:
    """All group elements below the Coxeter element in absolute order,
    identity first, in the breadth-first order of the whole group
    (``weyl.breadth_first_key``), which is never generated."""
    return tuple(sorted(_cover_walk(rs), key=weyl.breadth_first_key))


@lru_cache(maxsize=None)
def _interval_tables(rs: RootSystem):
    """Index map, leq bitmask rows, lengths, left-complement indices and
    lower covers.

    leq[a] has bit b set iff element a lies below element b; comp[a] is
    the index of inverse(a) * c, the factor completing a to c from the
    right; lower[b] lists the indices of the elements b covers.  The leq
    rows close the covers in decreasing length, so each row is complete
    before it is pushed down to the elements its element covers.
    """
    elems = absolute_interval(rs)
    walk = _cover_walk(rs)
    c = weyl.coxeter_element(rs)
    index = {w: a for a, w in enumerate(elems)}
    lengths = tuple(u.length for u in elems)
    lower = tuple(tuple(index[u] for u in walk[v]) for v in elems)
    leq = [1 << a for a in range(len(elems))]
    for b in sorted(range(len(elems)), key=lengths.__getitem__, reverse=True):
        for a in lower[b]:
            leq[a] |= leq[b]
    comp = tuple(
        index[weyl.compose(weyl.inverse(u), c)] for u in elems
    )
    return elems, index, tuple(leq), lengths, comp, lower


class DeltaSequence:
    """Parts (d_0..d_k); slot_ids index parts 1..k in the ambient interval."""

    __slots__ = ("parts", "slot_ids")

    def __init__(self, parts: tuple, slot_ids: tuple):
        self.parts = parts
        self.slot_ids = slot_ids

    def __eq__(self, other) -> bool:
        return self.slot_ids == other.slot_ids

    def __hash__(self) -> int:
        return hash(self.slot_ids)


@lru_cache(maxsize=None)
def enumerate_delta_sequences(rs: RootSystem, k: int) -> tuple:
    """All delta sequences, via multichains of partial products.

    The partial products v_i = d_1 d_2 ... d_i form a multichain
    v_1 <= v_2 <= ... <= v_k below c, and any such multichain yields a
    delta sequence, so the enumeration walks multichains of interval
    indices in lexicographic order.  Their exact number, the
    Fuss-Catalan number, is bounded before any work.
    """
    if k < 1:
        raise UsageError("k must be a positive integer")
    count = fuss_catalan_number(rs, k)
    if count > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"delta sequence enumeration for {rs.typespec}, k={k} lists {count} "
            f"sequences, more than the bound {ENUMERATION_LIMIT}"
        )
    elems, index, leq, _, _, _ = _interval_tables(rs)
    c = weyl.coxeter_element(rs)
    out = []
    chain = []

    def descend(slot: int, low: int) -> None:
        if slot == k:
            parts = []
            prev = weyl.identity(rs)
            for v in chain:
                cur = elems[v]
                parts.append(weyl.compose(weyl.inverse(prev), cur))
                prev = cur
            d0 = weyl.compose(c, weyl.inverse(elems[chain[-1]]))
            seq = DeltaSequence((d0, *parts), tuple(index[p] for p in parts))
            out.append(seq)
            return
        above = leq[low]
        while above:
            v = (above & -above).bit_length() - 1
            above &= above - 1
            chain.append(v)
            descend(slot + 1, v)
            chain.pop()

    descend(0, 0)
    return tuple(out)


def rank(rs: RootSystem, seq: DeltaSequence) -> int:
    """Corank of the zeroth part: n minus its reflection length."""
    return rs.n - seq.parts[0].length


class NCPoset:
    """The delta sequences sorted by (rank, slot ids): a linear
    extension of the slotwise order, which is never built."""

    __slots__ = ("rs", "k", "elements", "ranks")

    def __init__(self, rs: RootSystem, k: int, elements: tuple, ranks: tuple):
        self.rs = rs
        self.k = k
        self.elements = elements
        self.ranks = ranks


@lru_cache(maxsize=None)
def build_nc_poset(rs: RootSystem, k: int) -> NCPoset:
    """The delta sequences in the order of ``NCPoset``."""
    seqs = sorted(
        enumerate_delta_sequences(rs, k),
        key=lambda seq: (rank(rs, seq), seq.slot_ids),
    )
    return NCPoset(rs, k, tuple(seqs), tuple(rank(rs, seq) for seq in seqs))


@lru_cache(maxsize=None)
def _pair_table(rs: RootSystem) -> tuple:
    """Entry u: the pairs (w, index of w^-1 u) over the w <= u in [1, c].

    Walks the set bits of each leq row, one composition per comparable
    pair; there are FC(W, 2) of them.
    """
    elems, index, leq, _, _, _ = _interval_tables(rs)
    pairs = [[] for _ in elems]
    for w, above in enumerate(leq):
        w_inv = weyl.inverse(elems[w])
        while above:
            u = (above & -above).bit_length() - 1
            above &= above - 1
            pairs[u].append((w, index[weyl.compose(w_inv, elems[u])]))
    return tuple(map(tuple, pairs))


@lru_cache(maxsize=None)
def _multichain_counts(rs: RootSystem, j: int) -> tuple:
    """Entry u: number of j-multichains in the interval below element u."""
    pairs = _pair_table(rs)
    cur = (1,) * len(pairs)
    for _ in range(j):
        cur = tuple(sum(cur[w] for w, _ in below) for below in pairs)
    return cur


@lru_cache(maxsize=None)
def _moebius_rows(rs: RootSystem, k: int) -> tuple:
    """Entry x: g(x) of the module docstring, by increasing length; the
    term v = 1 of its sum is the pair with v^-1 x = x."""
    _, _, _, lengths, _, _ = _interval_tables(rs)
    pairs = _pair_table(rs)
    mc = _multichain_counts(rs, k - 1)
    g = [1] * len(pairs)
    for x in sorted(range(len(pairs)), key=lengths.__getitem__):
        if lengths[x]:
            g[x] = -sum(mc[v] * g[q] for v, q in pairs[x] if q != x)
    return tuple(g)


@lru_cache(maxsize=None)
def m_triangle(rs: RootSystem, k: int) -> BivarPoly:
    """The Moebius sum, from [1, c] (module docstring); checks M(1, 1) = 1."""
    if k < 1:
        raise UsageError("k must be a positive integer")
    _, _, _, lengths, comp, _ = _interval_tables(rs)
    mc = _multichain_counts(rs, k - 1)
    g = _moebius_rows(rs, k)
    acc = {}
    for u, below in enumerate(_pair_table(rs)):
        bottoms = mc[comp[u]]
        for w, q in below:
            key = (lengths[w], lengths[u])
            acc[key] = acc.get(key, 0) + bottoms * g[q]
    out = BivarPoly(acc)
    total = out.evaluate(1, 1)
    if total != 1:
        raise InternalInvariantError(f"M(1, 1) = {total}, not 1")
    require_m_support(out)
    return out


def sequence_count(rs: RootSystem, k: int) -> int:
    """Number of delta sequences, mc_k(c), without listing them."""
    if k < 1:
        raise UsageError("k must be a positive integer")
    _, index, _, _, _, _ = _interval_tables(rs)
    c = weyl.coxeter_element(rs)
    return _multichain_counts(rs, k)[index[c]]


def narayana_number(rs: RootSystem, k: int, i: int) -> int:
    """Fuss-Narayana count by factorisation counting, no poset needed.

    Splits off the zeroth part d_0 of length i and counts the additive
    k-part factorisations of its complement via iterated multichain
    sums, so it stays polynomial in the interval size even for large k.
    """
    if not 0 <= i <= rs.n:
        raise UsageError("index out of range")
    if k < 1:
        raise UsageError("k must be a positive integer")
    _, _, _, lengths, comp, _ = _interval_tables(rs)
    counts = _multichain_counts(rs, k - 1)
    return sum(
        counts[comp[u]] for u in range(len(lengths)) if lengths[u] == i
    )


def nc_json(rs: RootSystem, k: int) -> list:
    """Elements as reflection words per part, in poset element order."""
    poset = build_nc_poset(rs, k)
    words = {}  # parts repeat across sequences; each word is built once
    out = []
    for seq in poset.elements:
        row = []
        for part in seq.parts:
            if part not in words:
                words[part] = list(weyl.reflection_word(part))
            row.append(words[part])
        out.append(row)
    return out
