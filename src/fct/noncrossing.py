"""Divisible noncrossing partitions from factorisations of a Coxeter element.

A delta sequence is a tuple (d_0, d_1, ..., d_k) of group elements whose
product is the chosen Coxeter element c with reflection lengths adding
up to l_T(c) = n.  Sequences are ordered slotwise by absolute order on
the slots 1..k; slot 0 is determined by the others.  The resulting
graded poset carries the M-triangle through its Moebius function and
the Fuss-Narayana numbers through its rank sizes.

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

import inspect
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache, wraps

from . import weyl
from .errors import InternalInvariantError, UsageError
from .poly import BivarPoly, require_m_support
from .rootsys import RootSystem

Word = tuple


def _cached_per_word(fn):
    """lru_cache keyed with the Coxeter word spelled out.

    f(rs, k), f(rs, k, None) and f(rs, k, range(n)) all name the same
    Coxeter element, so they share one cache entry.
    """
    cached = lru_cache(maxsize=None)(fn)
    signature = inspect.signature(fn)

    @wraps(fn)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        word = bound.arguments["word"]
        n = bound.arguments["rs"].n
        bound.arguments["word"] = tuple(range(n) if word is None else word)
        return cached(*bound.args)

    wrapper.cache_info = cached.cache_info
    wrapper.cache_clear = cached.cache_clear
    return wrapper


@_cached_per_word
def _cover_walk(rs: RootSystem, word: Word = None) -> dict:
    """Map from each element of [1, c] to its lower covers.

    Walks down from c one length at a time; u = v t is a lower cover of
    v when its reflection length is one less (see the module docstring).
    """
    c = weyl.coxeter_element(rs, word)
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


@_cached_per_word
def absolute_interval(rs: RootSystem, word: Word = None) -> tuple:
    """All group elements below the Coxeter element in absolute order,
    in breadth-first group order (identity first)."""
    members = _cover_walk(rs, word)
    return tuple(w for w in weyl.generate_group(rs) if w in members)


@_cached_per_word
def _interval_tables(rs: RootSystem, word: Word = None):
    """Index map, leq bitmask rows, lengths, left-complement indices and
    lower covers.

    leq[a] has bit b set iff element a lies below element b; comp[a] is
    the index of inverse(a) * c, the factor completing a to c from the
    right; lower[b] lists the indices of the elements b covers.  The leq
    rows close the covers in decreasing length, so each row is complete
    before it is pushed down to the elements its element covers.
    """
    elems = absolute_interval(rs, word)
    walk = _cover_walk(rs, word)
    c = weyl.coxeter_element(rs, word)
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


@dataclass(frozen=True, eq=False)
class DeltaSequence:
    """Parts (d_0..d_k); slot_ids index parts 1..k in the ambient interval."""

    parts: tuple
    slot_ids: tuple

    def __eq__(self, other) -> bool:
        return self.slot_ids == other.slot_ids

    def __hash__(self) -> int:
        return hash(self.slot_ids)

    @property
    def k(self) -> int:
        return len(self.parts) - 1


@_cached_per_word
def enumerate_delta_sequences(rs: RootSystem, k: int, word: Word = None) -> tuple:
    """All delta sequences, via multichains of partial products.

    The partial products v_i = d_1 d_2 ... d_i form a multichain
    v_1 <= v_2 <= ... <= v_k below c, and any such multichain yields a
    delta sequence, so the enumeration walks multichains of interval
    indices in lexicographic order.
    """
    if k < 1:
        raise UsageError("k must be a positive integer")
    elems, index, leq, _, _, _ = _interval_tables(rs, word)
    c = weyl.coxeter_element(rs, word)
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


@dataclass(frozen=True, eq=False)
class NCPoset:
    """The poset of delta sequences with slotwise absolute order.

    Elements are listed in rank order, so indices form a linear
    extension; down[b] and up[a] are membership bitmasks (reflexive).
    """

    rs: RootSystem
    k: int
    elements: tuple
    ranks: tuple
    down: tuple
    up: tuple

    def leq(self, a: int, b: int) -> bool:
        return bool((self.down[b] >> a) & 1)

    def rank_histogram(self) -> tuple:
        out = [0] * (self.rs.n + 1)
        for r in self.ranks:
            out[r] += 1
        return tuple(out)


@_cached_per_word
def build_nc_poset(rs: RootSystem, k: int, word: Word = None) -> NCPoset:
    """Delta sequences ordered slotwise, with down and up masks.

    a <= b when every slot of a lies below the same slot of b (which
    forces rank(a) <= rank(b)).  Per slot s and interval element q, the
    mask of sequences whose slot-s part lies below q (or above q) comes
    from closing the interval covers; down[b] is the AND of its slots'
    masks with the mask of ranks up to rank(b), and up[a] likewise.
    """
    elems_seq = enumerate_delta_sequences(rs, k, word)
    _, _, _, lengths, _, lower = _interval_tables(rs, word)
    ranks = tuple(rank(rs, seq) for seq in elems_seq)
    order = sorted(range(len(elems_seq)), key=lambda a: (ranks[a], elems_seq[a].slot_ids))
    elems_seq = tuple(elems_seq[a] for a in order)
    ranks = tuple(ranks[a] for a in order)
    size = len(elems_seq)
    shortest_first = sorted(range(len(lengths)), key=lengths.__getitem__)
    slot_down = []
    slot_up = []
    for s in range(k):
        exact = [0] * len(lengths)
        for a, seq in enumerate(elems_seq):
            exact[seq.slot_ids[s]] |= 1 << a
        below = list(exact)
        for q in shortest_first:
            for p in lower[q]:
                below[q] |= below[p]
        above = list(exact)
        for q in reversed(shortest_first):
            for p in lower[q]:
                above[p] |= above[q]
        slot_down.append(below)
        slot_up.append(above)
    full = (1 << size) - 1
    down = []
    up = []
    for a, seq in enumerate(elems_seq):
        d = (1 << bisect_right(ranks, ranks[a])) - 1
        u = full & ~((1 << bisect_left(ranks, ranks[a])) - 1)
        for s, q in enumerate(seq.slot_ids):
            d &= slot_down[s][q]
            u &= slot_up[s][q]
        down.append(d)
        up.append(u)
    poset = NCPoset(rs, k, elems_seq, ranks, tuple(down), tuple(up))
    _check_graded(poset)
    return poset


def covers_of(poset: NCPoset, b: int) -> int:
    """Bitmask of the elements covered by b."""
    below = poset.down[b] & ~(1 << b)
    shadowed = 0
    m = below
    while m:
        z = (m & -m).bit_length() - 1
        shadowed |= poset.down[z] & ~(1 << z)
        m &= m - 1
    return below & ~shadowed


def _check_graded(poset: NCPoset) -> None:
    """Unique minimum of rank 0, covers raise rank by one, maxima at rank n."""
    n = poset.rs.n
    mins = [a for a, m in enumerate(poset.down) if m == (1 << a)]
    if len(mins) != 1 or poset.ranks[mins[0]] != 0:
        raise InternalInvariantError("poset does not have a unique bottom of rank 0")
    for b in range(len(poset.elements)):
        m = covers_of(poset, b)
        while m:
            a = (m & -m).bit_length() - 1
            if poset.ranks[b] != poset.ranks[a] + 1:
                raise InternalInvariantError("cover relation does not raise rank by 1")
            m &= m - 1
        if poset.up[b] == (1 << b) and poset.ranks[b] != n:
            raise InternalInvariantError("maximal element below rank n")


@lru_cache(maxsize=None)
def _moebius_rows(poset: NCPoset) -> tuple:
    """Row d maps element index e (with d <= e) to mu(d, e)."""
    size = len(poset.elements)
    rows = []
    for d in range(size):
        row = {d: 1}
        m = poset.up[d] & ~(1 << d)
        while m:
            e = (m & -m).bit_length() - 1
            interval = poset.down[e] & poset.up[d] & ~(1 << e)
            total = 0
            z_mask = interval
            while z_mask:
                z = (z_mask & -z_mask).bit_length() - 1
                total += row[z]
                z_mask &= z_mask - 1
            row[e] = -total
            m &= m - 1
        rows.append(row)
    return tuple(rows)


def moebius(poset: NCPoset, a: int, b: int) -> int:
    if not poset.leq(a, b):
        raise UsageError("moebius is only defined on comparable pairs")
    return _moebius_rows(poset)[a][b]


@_cached_per_word
def m_triangle(rs: RootSystem, k: int, word: Word = None) -> BivarPoly:
    """Moebius sum x^(n - rank of top) y^(n - rank of bottom)."""
    poset = build_nc_poset(rs, k, word)
    n = rs.n
    rows = _moebius_rows(poset)
    acc = {}
    for d, row in enumerate(rows):
        yd = n - poset.ranks[d]
        for e, mu in row.items():
            key = (n - poset.ranks[e], yd)
            acc[key] = acc.get(key, 0) + mu
    out = BivarPoly(acc)
    require_m_support(out)
    return out


def narayana_vector(rs: RootSystem, k: int, word: Word = None) -> tuple:
    """Entry i: number of delta sequences of rank n - i."""
    hist = build_nc_poset(rs, k, word).rank_histogram()
    return tuple(reversed(hist))


@_cached_per_word
def _multichain_counts(rs: RootSystem, j: int, word: Word = None) -> tuple:
    """Entry u: number of j-multichains in the interval below element u."""
    elems, _, leq, _, _, _ = _interval_tables(rs, word)
    size = len(elems)
    cur = (1,) * size
    for _ in range(j):
        nxt = []
        for u in range(size):
            total = 0
            for v in range(size):
                if (leq[v] >> u) & 1:
                    total += cur[v]
            nxt.append(total)
        cur = tuple(nxt)
    return cur


def narayana_number(rs: RootSystem, k: int, i: int, word: Word = None) -> int:
    """Fuss-Narayana count by factorisation counting, no poset needed.

    Splits off the zeroth part d_0 of length i and counts the additive
    k-part factorisations of its complement via iterated multichain
    sums, so it stays polynomial in the interval size even for large k.
    """
    if not 0 <= i <= rs.n:
        raise UsageError("index out of range")
    if k < 1:
        raise UsageError("k must be a positive integer")
    _, _, _, lengths, comp, _ = _interval_tables(rs, word)
    counts = _multichain_counts(rs, k - 1, word)
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
