"""Weyl groups as permutations of the signed roots.

An element is stored by its action on the positive roots: entry i of
``img`` is the signed 1-based index of the image of positive root i.
This is the only model of the group.  A simple reflection comes from its
Cartan row, s_i(beta) = beta - (row_i(A) . beta) alpha_i; every other
reflection by conjugation, s_beta = s_i s_gamma s_i with gamma = s_i(beta)
of lower height.  The integer matrix of the action on simple-root
coordinates is read off the images of the simple roots.

Absolute length is computed from the fixed space, l_T(w) = rank(M - I),
which agrees with the distance from the identity in the Cayley graph of
the full reflection set (checked exhaustively in the test suite).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import kernels
from .errors import ResourceLimitError, UsageError
from .rootsys import RootSystem

GROUP_ORDER_LIMIT = 10**6


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A Weyl group element, canonicalised by its action on positive roots."""

    rs: RootSystem
    img: tuple

    def __eq__(self, other) -> bool:
        return self.rs is other.rs and self.img == other.img

    def __hash__(self) -> int:
        return hash(self.img)

    @cached_property
    def signed_img(self) -> tuple:
        """Entry s is the image of signed root s, for s = 1..N and, read
        from the end, for s = -1..-N."""
        return (0,) + self.img + tuple(-s for s in reversed(self.img))

    @cached_property
    def matrix(self) -> tuple:
        """Integer matrix acting on simple-root coefficient columns."""
        n = self.rs.n
        cols = []
        for j in range(n):
            s = self.img[j]  # simple roots come first in the root ordering
            root = self.rs.positive_roots[abs(s) - 1]
            sign = 1 if s > 0 else -1
            cols.append(tuple(sign * c for c in root))
        return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))

    @cached_property
    def length(self) -> int:
        """Absolute length: codimension of the fixed space, the rank of
        the rows w(alpha_j) - alpha_j (the columns of M - I)."""
        rows = []
        for j, s in enumerate(self.img[: self.rs.n]):
            row = [c if s > 0 else -c for c in self.rs.positive_roots[abs(s) - 1]]
            row[j] -= 1
            rows.append(row)
        return kernels.int_rank(rows)


def identity(rs: RootSystem) -> GroupElement:
    return GroupElement(rs, tuple(range(1, len(rs.positive_roots) + 1)))


def compose(u: GroupElement, v: GroupElement) -> GroupElement:
    """The element acting as first v, then u."""
    return GroupElement(u.rs, tuple(map(u.signed_img.__getitem__, v.img)))


def inverse(w: GroupElement) -> GroupElement:
    out = [0] * len(w.img)
    for i, s in enumerate(w.img):
        if s > 0:
            out[s - 1] = i + 1
        else:
            out[-s - 1] = -(i + 1)
    return GroupElement(w.rs, tuple(out))


@lru_cache(maxsize=None)
def simple_reflection(rs: RootSystem, i: int) -> GroupElement:
    """s_i(beta) = beta - (row_i(A) . beta) alpha_i, which permutes the
    positive roots other than alpha_i."""
    if not 0 <= i < rs.n:
        raise UsageError(f"simple root index {i} out of range")
    img = []
    for b, beta in enumerate(rs.positive_roots):
        image = list(beta)
        image[i] -= sum(a * x for a, x in zip(rs.cartan[i], beta))
        img.append(rs.root_index[tuple(image)] + 1 if b != i else -(i + 1))
    return GroupElement(rs, tuple(img))


@lru_cache(maxsize=None)
def reflections(rs: RootSystem) -> tuple:
    """All reflections, indexed like the positive roots.

    The roots come in height order, so for a non-simple beta some s_i
    lowers it to a root gamma = s_i(beta) met before, and s_beta is
    s_i s_gamma s_i.
    """
    out = [simple_reflection(rs, i) for i in range(rs.n)]
    for b in range(rs.n, len(rs.positive_roots)):
        s = next(s for s in out[: rs.n] if s.img[b] - 1 < b)
        out.append(compose(s, compose(out[s.img[b] - 1], s)))
    return tuple(out)


@lru_cache(maxsize=None)
def generate_group(rs: RootSystem, limit: int = GROUP_ORDER_LIMIT) -> tuple:
    """The whole Weyl group, identity first, in breadth-first order.

    Raises ResourceLimitError when the group has more than ``limit``
    elements (the default excludes E7 and E8).  No library path calls
    it: the tests use it as an oracle, and perfbench's tracer and kernel
    probe name it.
    """
    gens = tuple(simple_reflection(rs, i).img for i in range(rs.n))
    if not gens:
        return (identity(rs),)
    try:
        imgs = kernels.weyl_closure(gens, limit)
    except kernels.LimitExceeded:
        raise ResourceLimitError(
            f"Weyl group of {rs.typespec} exceeds the element bound {limit}"
        ) from None
    return tuple(GroupElement(rs, img) for img in imgs)


def breadth_first_key(w: GroupElement) -> tuple:
    """(Coxeter length, lexicographically least reduced word) of w.

    Sorting by this key gives the order of ``generate_group``: its
    breadth-first search multiplies on the right, so x is first met from
    the least of its lower neighbours x s_i, by their own order and then
    by i, which by induction on length is its least reduced word.  That
    word starts with the least left descent, and s_i is a left descent
    of w exactly when w maps some positive root to -alpha_i.
    """
    rs = w.rs
    img = w.img
    word = []
    while True:
        i = next((i for i in range(rs.n) if -(i + 1) in img), None)
        if i is None:
            return (len(word), tuple(word))
        word.append(i)
        img = tuple(map(simple_reflection(rs, i).signed_img.__getitem__, img))


def absolute_length(w: GroupElement) -> int:
    return w.length


def absolute_leq(u: GroupElement, v: GroupElement) -> bool:
    """Absolute order: lengths add along u, then u^-1 v."""
    return u.length + compose(inverse(u), v).length == v.length


def coxeter_element(rs: RootSystem, word=None) -> GroupElement:
    """Product of the simple reflections, by default in index order.

    ``word`` may give another ordering of 0..n-1 to produce an
    alternative Coxeter element.
    """
    if word is None:
        word = range(rs.n)
    word = list(word)
    if sorted(word) != list(range(rs.n)):
        raise UsageError("word must order each simple reflection exactly once")
    c = identity(rs)
    for i in word:
        c = compose(c, simple_reflection(rs, i))
    return c


def element_order(w: GroupElement) -> int:
    k = 1
    x = w
    e = identity(w.rs)
    while x != e:
        x = compose(x, w)
        k += 1
    return k


def reflection_word(w: GroupElement) -> tuple:
    """A minimal word for w in the reflections, greedily first-by-index.

    Returns a tuple of positive root indices whose reflections multiply
    (left to right, applied right-first) to w.
    """
    word = []
    refl = reflections(w.rs)
    x = w
    while x.length:
        for t_idx, t in enumerate(refl):
            if compose(t, x).length == x.length - 1:
                word.append(t_idx)
                x = compose(t, x)
                break
        else:
            raise UsageError("element admits no length-reducing reflection")
    return tuple(word)
