"""Weyl groups as permutations of the signed roots.

An element is stored by its action on the positive roots: entry i of
``img`` is the signed 1-based index of the image of positive root i.
The integer matrix of the action on simple-root coordinates is derived
from the images of the simple roots.

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
        """Absolute length: codimension of the fixed space."""
        n = self.rs.n
        m = [
            [self.matrix[i][j] - (i == j) for j in range(n)]
            for i in range(n)
        ]
        return kernels.int_rank(m)

    def apply_root(self, root) -> tuple:
        """Image of a coefficient vector (any integer combination of roots)."""
        n = self.rs.n
        return tuple(
            sum(self.matrix[i][j] * root[j] for j in range(n)) for i in range(n)
        )


def identity(rs: RootSystem) -> GroupElement:
    return GroupElement(rs, tuple(range(1, len(rs.positive_roots) + 1)))


def compose(u: GroupElement, v: GroupElement) -> GroupElement:
    """The element acting as first v, then u."""
    uimg = u.img
    return GroupElement(
        u.rs, tuple(uimg[s - 1] if s > 0 else -uimg[-s - 1] for s in v.img)
    )


def inverse(w: GroupElement) -> GroupElement:
    out = [0] * len(w.img)
    for i, s in enumerate(w.img):
        if s > 0:
            out[s - 1] = i + 1
        else:
            out[-s - 1] = -(i + 1)
    return GroupElement(w.rs, tuple(out))


def _reflection_img(rs: RootSystem, beta_idx: int) -> tuple:
    beta = rs.positive_roots[beta_idx]
    img = []
    for r in rs.positive_roots:
        pairing = rs.coroot_pairing(beta, r)
        image = tuple(c - pairing * b for c, b in zip(r, beta))
        if image in rs.root_index:
            img.append(rs.root_index[image] + 1)
        else:
            neg = tuple(-c for c in image)
            img.append(-(rs.root_index[neg] + 1))
    return tuple(img)


@lru_cache(maxsize=None)
def simple_reflection(rs: RootSystem, i: int) -> GroupElement:
    if not 0 <= i < rs.n:
        raise UsageError(f"simple root index {i} out of range")
    return GroupElement(rs, _reflection_img(rs, i))


@lru_cache(maxsize=None)
def reflections(rs: RootSystem) -> tuple:
    """All reflections, indexed like the positive roots."""
    return tuple(GroupElement(rs, _reflection_img(rs, b)) for b in range(len(rs.positive_roots)))


@lru_cache(maxsize=None)
def generate_group(rs: RootSystem, limit: int = GROUP_ORDER_LIMIT) -> tuple:
    """The whole Weyl group, identity first, in breadth-first order.

    Raises ResourceLimitError when the group has more than ``limit``
    elements (the default excludes E7 and E8).
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
