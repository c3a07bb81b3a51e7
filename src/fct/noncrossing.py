"""Divisible noncrossing partitions from factorisations of a Coxeter element.

A delta sequence is a tuple (d_0, d_1, ..., d_k) of group elements whose
product is the Coxeter element c = s_0 s_1 ... s_{n-1} with reflection
lengths adding up to l_T(c) = n; it is stored as the tuple of the
indices of its parts in the tables of [1, c] below, never as group
elements.  Sequences are ordered slotwise by absolute order on the slots
1..k; slot 0 is determined by the others.  The rank of a sequence is
n - l_T(d_0).  The rank sizes are the Fuss-Narayana numbers;
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
comparing pairs, and without computing a single rank.  Write R(v) for
the reflections t with alpha_t in Mov(v) = im(v - 1).  By Carter's
lemma (Compositio Math. 25, 1972, Lemma 2; Brady-Watt, Geom. Dedicata
94, 2002), l_T(v t) = l_T(v) - 1 exactly when t is in R(v), and
l_T(v) = dim Mov(v).  A lower cover u of v has u^-1 v of length 1, a
reflection t, so the lower covers of v are the v t with t in R(v): each
lies below v, since l_T(v t) + l_T(t) = l_T(v).  Walking down from c
reaches every element of [1, c]: for u <= v, a shortest reflection word
t_1 ... t_m of u^-1 v has prefixes v_i = u t_1 ... t_i with
l_T(v_i) = l_T(u) + i exactly (the length moves by at most one per
reflection and must reach l_T(v) after m steps), a chain of covers from
v down to u.  So an element's length is the level at which the walk
meets it.  If u <= v, lengths add along v = u (u^-1 v), so
Mov(v) = Mov(u) + Mov(u^-1 v) is a direct sum and R(u) is inside R(v).
For u = v t, Mov(u) is a hyperplane of Mov(v) that misses alpha_t; any
linear form y vanishing on Mov(u) with y(alpha_t) != 0 cuts Mov(u) out
of Mov(v), so R(u) = {s in R(v) : y(alpha_s) = 0}.  One integer form per
element (``weyl.moved_annihilator``), tested on the parent's R only.

The comparable pairs come from cover lookups, without composing.  Each
q != 1 of [1, c] gets a tree parent p(q) = q t_q, t_q the least
reflection of R(q), and a key b_q, the index of the root +-q(alpha_t_q).
Fix u; by suffix order q -> w(q) = u q^-1 maps [1, u] onto itself.  For
q <= u also p(q) <= u, and w(q) = u t_q p(q)^-1 = w(p(q)) s, where s =
p(q) t_q p(q)^-1 is the reflection of p(q)(alpha_t_q) = -q(alpha_t_q),
that is s_b for b = b_q, and l_T(w(q)) = l_T(w(p(q))) - 1: w(q) is the
lower cover of w(p(q)) keyed by b_q.  Conversely, if p(q) <= u and
w(p(q)) s_b is a lower cover w' of w(p(q)), then w' = u q^-1 <= u and
q = w'^-1 u <= u.  Walking the tree from q = 1, w = u, and keeping the
children whose key names a lower cover of w, lists every pair w <= u
once, with w^-1 u = q, by one lookup each.  The row u = c gives the
complements w^-1 c.

The elements are indexed in walk order, identity first, so lengths do
not decrease along the indices.  Nothing but ``dump nc`` depends on that
order; it sorts the slots in the breadth-first order of the whole group,
which is never generated.  That search multiplies on the right, so x is
first met from the least of its lower neighbours x s_i, by their own
order and then by i: by induction on length, the order is by Coxeter
length, then by least reduced word.  The numbers game (Bjorner-Brenti,
GTM 231, 4.3) reads that word off n integers per element, the signed
heights h_j of a^-1(alpha_j).  The word starts with the least left
descent, and s_i is a left descent of a exactly when a^-1(alpha_i) < 0,
that is h_i < 0.  Stripping it leaves s_i a, whose
(s_i a)^-1(alpha_j) = a^-1(alpha_j - A_ij alpha_i); height is linear,
so h_j becomes h_j - A_ij h_i.
"""
from __future__ import annotations

from array import array
from functools import lru_cache
from operator import mul

from . import weyl
from .errors import InternalInvariantError, ResourceLimitError, UsageError
from .poly import BivarPoly, interpolate, require_m_support
from .rootsys import ENUMERATION_LIMIT, RootSystem, fuss_catalan_number, fuss_catalan_sum

# Bound on the bytes of the interval tables, in 4-byte entries: two per
# comparable pair w <= u of [1, c], FC(W, 2) of them, and two per element
# and reflection, its image and its lower cover.  E8 takes 36 244 176.
TABLE_BYTE_LIMIT = 2**27


def table_bytes(rs: RootSystem) -> int:
    """Bytes of the interval tables of rs, from FC(W, 2), FC(W, 1) and
    the number of reflections, before anything is built."""
    pairs = fuss_catalan_number(rs, 2)
    cells = fuss_catalan_number(rs, 1) * len(rs.positive_roots)
    return 4 * (2 * pairs + 2 * cells)


class Interval:
    """[1, c] as flat tables; element a has length ``lengths[a]``.

    ``images[a N + i]`` is the signed index of the image of root i under
    element a, for N reflections; ``covers[a N + t]`` is the index of
    a t when it is a lower cover of a, else -1; ``comp[a]`` is the index
    of a^-1 c.  The pairs w <= u are the entries ``start[u]`` up to
    ``start[u + 1]`` of ``low`` (w) and ``quot`` (w^-1 u).
    """

    __slots__ = ("rs", "lengths", "images", "covers", "comp", "start", "low", "quot")

    def __init__(self, rs, lengths, images, covers, comp, start, low, quot):
        self.rs = rs
        self.lengths = lengths
        self.images = images
        self.covers = covers
        self.comp = comp
        self.start = start
        self.low = low
        self.quot = quot

    def __len__(self) -> int:
        return len(self.lengths)

    def pairs(self, u: int):
        """The w <= u and the matching w^-1 u, as two aligned arrays."""
        lo, hi = self.start[u], self.start[u + 1]
        return self.low[lo:hi], self.quot[lo:hi]


def _walk(rs: RootSystem, size: int) -> tuple:
    """Lengths, images and lower covers of [1, c], walking down from c
    by Carter's lemma (module docstring), with the tree parent and key
    of each element.  The element met i-th gets index size - 1 - i."""
    n = rs.n
    nref = len(rs.positive_roots)
    roots = rs.positive_roots
    refl = weyl.reflections(rs)
    on_simple = [t.img[:n] for t in refl]
    c = weyl.coxeter_element(rs)
    forms = weyl.moved_annihilator(rs, c.img[:n])
    lengths = array("b", bytes(size))
    images = array("i", bytes(4 * size * nref))
    covers = array("i", [-1]) * (size * nref)
    parent = array("i", bytes(4 * size))
    key = array("i", bytes(4 * size))
    top = size - 1
    lengths[top] = n - len(forms)
    images[top * nref:] = array("i", c.img)
    level = [
        (top, [t for t in range(nref) if not any(sum(map(mul, y, roots[t])) for y in forms)])
    ]
    met = 1
    for length in range(lengths[top] - 1, -1, -1):
        found = {}  # images of the simple roots -> index, for this level
        below = []
        for v, moved in level:
            row = images[v * nref:(v + 1) * nref]
            image = (0, *row, *(-s for s in reversed(row))).__getitem__
            for t in moved:
                simple = tuple(map(image, on_simple[t]))
                u = found.get(simple)
                if u is None:
                    form = next(
                        (
                            y for y in weyl.moved_annihilator(rs, simple)
                            if sum(map(mul, y, roots[t]))
                        ),
                        None,
                    )
                    if form is None:
                        raise InternalInvariantError(
                            f"reflection {t} shortens an element of [1, c] of "
                            f"{rs.typespec} without shrinking its moved space"
                        )
                    if met == size:
                        raise InternalInvariantError(
                            f"[1, c] of {rs.typespec} has more than FC(W, 1) = {size} elements"
                        )
                    u = size - 1 - met
                    met += 1
                    found[simple] = u
                    lengths[u] = length
                    images[u * nref:(u + 1) * nref] = array("i", map(image, refl[t].img))
                    below.append(
                        (u, [s for s in moved if not sum(map(mul, form, roots[s]))])
                    )
                covers[v * nref + t] = u
            if moved:
                parent[v] = covers[v * nref + moved[0]]
                key[v] = abs(row[moved[0]]) - 1
        level = below
    if met != size:
        raise InternalInvariantError(
            f"[1, c] of {rs.typespec} has {met} elements, not FC(W, 1) = {size}"
        )
    return lengths, images, covers, parent, key


@lru_cache(maxsize=None)
def _interval_tables(rs: RootSystem) -> Interval:
    """[1, c] with its lower covers and comparable pairs (module
    docstring).  Exits on ``TABLE_BYTE_LIMIT`` before the walk starts.
    """
    nbytes = table_bytes(rs)
    if nbytes > TABLE_BYTE_LIMIT:
        raise ResourceLimitError(
            f"the tables of [1, c] of {rs.typespec} would take {nbytes} bytes, "
            f"more than the bound {TABLE_BYTE_LIMIT}"
        )
    size = fuss_catalan_number(rs, 1)
    nref = len(rs.positive_roots)
    lengths, images, covers, parent, key = _walk(rs, size)
    children = [[] for _ in range(size)]
    for q in range(1, size):
        children[parent[q]].append((q, key[q]))
    pairs = fuss_catalan_number(rs, 2)
    start = array("i", bytes(4 * (size + 1)))
    low = array("i", bytes(4 * pairs))
    quot = array("i", bytes(4 * pairs))
    end = 0
    for u in range(size):
        ws = [u]
        qs = [0]
        for w, q in zip(ws, qs):  # both lists grow while they are read
            base = w * nref
            for child, b in children[q]:
                x = covers[base + b]
                if x >= 0:
                    ws.append(x)
                    qs.append(child)
        # a slice past the end would grow the arrays, and end would then
        # overshoot FC(W, 2)
        low[end:end + len(ws)] = array("i", ws)
        quot[end:end + len(qs)] = array("i", qs)
        end += len(ws)
        start[u + 1] = end
    if end != pairs:
        raise InternalInvariantError(
            f"[1, c] of {rs.typespec} has {end} comparable pairs, not FC(W, 2)"
        )
    comp = array("i", bytes(4 * size))
    for w, q in zip(low[start[size - 1]:], quot[start[size - 1]:]):
        comp[w] = q
    return Interval(rs, lengths, images, covers, comp, start, low, quot)


@lru_cache(maxsize=None)
def absolute_interval(rs: RootSystem) -> tuple:
    """All group elements below the Coxeter element in absolute order,
    identity first, in walk order."""
    images, nref = _interval_tables(rs).images, len(rs.positive_roots)
    rows = range(0, len(images), nref)
    return tuple(weyl.GroupElement(rs, tuple(images[a:a + nref])) for a in rows)


def enumerate_delta_sequences(rs: RootSystem, k: int) -> tuple:
    """All delta sequences, as tuples (d_0, d_1, ..., d_k) of indices
    into the interval tables, via multichains of partial products.

    The partial products v_i = d_1 d_2 ... d_i form a multichain
    v_1 <= v_2 <= ... <= v_k below c, and any such multichain yields a
    delta sequence.  The enumeration walks it down from v_k: v_(i-1)
    runs over the pairs w <= v_i, whose quotient is d_i, and d_0 = c v_k^-1
    is the element whose complement is v_k.  The walk visits every
    multichain v_j <= ... <= v_k on the way, FC(W, 1) + ... + FC(W, k) of
    them, and that exact number is bounded before any work.
    """
    if k < 1:
        raise UsageError("k must be a positive integer")
    visited = fuss_catalan_sum(rs, k)
    if visited > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"delta sequence enumeration for {rs.typespec}, k={k} lists "
            f"{fuss_catalan_number(rs, k)} sequences and visits {visited} "
            f"multichains on the way, more than the bound {ENUMERATION_LIMIT}"
        )
    tables = _interval_tables(rs)
    zeroth = [0] * len(tables)  # zeroth[v]: index of c v^-1
    for w, v in enumerate(tables.comp):
        zeroth[v] = w
    out = []
    slots = [0] * k
    for v, head in enumerate(zeroth):
        if k == 1:
            out.append((head, v))
            continue
        # stack[-1] runs over the pairs (w, d_slot) below v_slot, slot =
        # k - len(stack): a loop, so k may pass the recursion limit
        stack = [zip(*tables.pairs(v))]
        while stack:
            slot = k - len(stack)
            for w, q in stack[-1]:
                slots[slot] = q
                if slot == 1:
                    slots[0] = w
                    out.append((head, *slots))
                else:
                    stack.append(zip(*tables.pairs(w)))
                    break
            else:
                stack.pop()
    return tuple(out)


class NCPoset:
    """The delta sequences, as index tuples, sorted by rank, then by the
    group's breadth-first order on their slots 1..k, read off
    ``_breadth_first_keys``: a linear extension of the slotwise order,
    which is never built."""

    __slots__ = ("rs", "k", "elements", "ranks")

    def __init__(self, rs: RootSystem, k: int, elements: tuple, ranks: tuple):
        self.rs = rs
        self.k = k
        self.elements = elements
        self.ranks = ranks


def _breadth_first_keys(rs: RootSystem, tables: Interval):
    """Yields, for each element a in index order, the bytes (Coxeter
    length, least reduced word) of a, whose order is the group's
    breadth-first order, by the numbers game (module docstring).

    h_j, the signed height of a^-1(alpha_j), is read off the row entry
    +-(j + 1) at root r: then a(alpha_r) = +-alpha_j, so a^-1(alpha_j) =
    +-alpha_r.  s_i is a left descent of a exactly when a^-1(alpha_i) < 0,
    that is h_i < 0; the least such i is the next letter.  Stripping it
    sends a^-1(alpha_j) to a^-1(alpha_j) - A_ij a^-1(alpha_i), and height
    is linear, so h_j becomes h_j - A_ij h_i (A_ii = 2 turns h_i to
    -h_i), for the j with A_ij != 0 only.  Within ``TABLE_BYTE_LIMIT``
    every length and letter is below 256.
    """
    n, nref, heights = rs.n, len(rs.positive_roots), rs.heights
    edges = [[(j, aij) for j, aij in enumerate(row) if aij] for row in rs.cartan]
    for base in range(0, len(tables.images), nref):
        h = [0] * n
        for r, s in enumerate(tables.images[base:base + nref]):
            if -n <= s <= n:
                h[abs(s) - 1] = heights[r] if s > 0 else -heights[r]
        word, i = [], 0
        while i < n:  # h_0..h_(i-1) are not negative
            hi = h[i]
            if hi < 0:
                word.append(i)
                for j, aij in edges[i]:
                    h[j] -= aij * hi
            i = 0 if hi < 0 else i + 1
        yield bytes((len(word), *word))


def build_nc_poset(rs: RootSystem, k: int) -> NCPoset:
    """The delta sequences in the order of ``NCPoset``.  The slots fix
    the sequence, so no two share a sort key."""
    seqs = enumerate_delta_sequences(rs, k)
    tables = _interval_tables(rs)
    keys = tuple(_breadth_first_keys(rs, tables))
    n, lengths = rs.n, tables.lengths
    seqs = sorted(seqs, key=lambda seq: (n - lengths[seq[0]], [keys[s] for s in seq[1:]]))
    return NCPoset(rs, k, tuple(seqs), tuple(n - lengths[seq[0]] for seq in seqs))


@lru_cache(maxsize=None)
def _multichain_counts(rs: RootSystem, j: int) -> tuple:
    """Entry u: number of j-multichains in the interval below element u.

    That is the zeta polynomial of [1, u] at j + 1, of degree l_T(u) <= n
    in j, so past j = n Lagrange's formula reads it off j = 0..n.
    """
    tables = _interval_tables(rs)
    start, low = tables.start, tables.low
    cur = [1] * len(tables)
    rows = [cur]
    for _ in range(min(j, rs.n)):
        get = cur.__getitem__
        cur = [sum(map(get, low[a:b])) for a, b in zip(start, start[1:])]
        rows.append(cur)
    if j > rs.n:
        cur = interpolate(range(rs.n + 1), zip(*rows), j)
    return tuple(cur)


def _moebius_rows(rs: RootSystem, k: int) -> tuple:
    """Entry x: g(x) of the module docstring, by increasing length.  The
    term v = 1 of its sum is the pair w = 1, q = x, and reads g(x) = 0
    while g(x) is summed."""
    tables = _interval_tables(rs)
    mc = _multichain_counts(rs, k - 1).__getitem__
    g = [0] * len(tables)
    g[0] = 1
    for x in range(1, len(g)):
        low, quot = tables.pairs(x)
        g[x] = -sum(map(mul, map(mc, low), map(g.__getitem__, quot)))
    return tuple(g)


@lru_cache(maxsize=None)
def m_triangle(rs: RootSystem, k: int) -> BivarPoly:
    """The Moebius sum, from [1, c] (module docstring); checks M(1, 1) = 1."""
    if k < 1:
        raise UsageError("k must be a positive integer")
    tables = _interval_tables(rs)
    lengths = tables.lengths
    mc = _multichain_counts(rs, k - 1)
    g = _moebius_rows(rs, k)
    acc = {}
    for u in range(len(tables)):
        by_length = [0] * (lengths[u] + 1)
        for w, q in zip(*tables.pairs(u)):
            by_length[lengths[w]] += g[q]
        bottoms = mc[tables.comp[u]]
        for lw, total in enumerate(by_length):
            if total:
                key = (lw, lengths[u])
                acc[key] = acc.get(key, 0) + bottoms * total
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
    return _multichain_counts(rs, k)[-1]


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
    tables = _interval_tables(rs)
    counts = _multichain_counts(rs, k - 1)
    return sum(
        counts[tables.comp[u]] for u in range(len(tables)) if tables.lengths[u] == i
    )


def _reflection_words(rs: RootSystem) -> tuple:
    """Entry a: ``weyl.reflection_word`` of element a of [1, c], read off
    the interval tables in index order.  Its first letter is the least t
    of R(a), the least with a lower cover a t, and the rest is the word
    of t a = a s_i, i the root with a(alpha_i) = +-alpha_t: a lower cover
    of a, so of a smaller index."""
    tables = _interval_tables(rs)
    nref = len(rs.positive_roots)
    words = [()]
    for a in range(1, len(tables)):
        base = a * nref
        t = next(t for t in range(nref) if tables.covers[base + t] >= 0)
        row = tables.images[base:base + nref]
        i = row.index(t + 1) if t + 1 in row else row.index(-t - 1)
        words.append((t, *words[tables.covers[base + i]]))
    return tuple(words)


def nc_json(rs: RootSystem, k: int) -> list:
    """Elements as reflection words per part, in poset element order."""
    poset = build_nc_poset(rs, k)  # bounded before the tables are built
    words = [list(word) for word in _reflection_words(rs)]
    return [[words[a] for a in seq] for seq in poset.elements]
