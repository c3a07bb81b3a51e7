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
the full reflection set (checked exhaustively in the test suite).  The
moved space Mov(w) = im(w - 1) is spanned by the rows w(alpha_j) -
alpha_j; ``moved_annihilator`` cuts it out by integer linear forms, the
kernel of those rows read off their fraction-free Gauss-Jordan form
(``_purecore.gauss_jordan``, whose rows are d times the reduced row
echelon form), and Carter's lemma (Compositio Math. 25, 1972, Lemma 2)
turns membership into order: l_T(t w) < l_T(w) exactly when alpha_t
lies in Mov(w).
"""
from __future__ import annotations

from functools import cached_property, lru_cache
from math import prod
from operator import mul

from . import _purecore
from .errors import InternalInvariantError, UsageError, require_within
from .rootsys import RootSystem, degrees

GROUP_ORDER_LIMIT = 10**6


class GroupElement:
    """A Weyl group element, canonicalised by its action on positive roots."""

    __slots__ = ("rs", "img", "__dict__")

    def __init__(self, rs: RootSystem, img: tuple):
        self.rs = rs
        self.img = img

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
        return _purecore.int_rank(_moved_rows(self.rs, self.img[: self.rs.n]))


def _moved_rows(rs: RootSystem, simple_img) -> list:
    """The rows w(alpha_j) - alpha_j, which span Mov(w), for the w whose
    images of the simple roots are the signed root indices ``simple_img``."""
    roots = rs.positive_roots
    rows = []
    for j, s in enumerate(simple_img):
        row = list(roots[s - 1]) if s > 0 else [-x for x in roots[-s - 1]]
        row[j] -= 1
        rows.append(row)
    return rows


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
def generate_group(rs: RootSystem) -> tuple:
    """The whole Weyl group, identity first, in breadth-first order.

    Its order |W| is the product of the degrees, so the group is bounded
    by ``GROUP_ORDER_LIMIT`` before the closure starts (which excludes
    E7 and E8), and a closure of any other size is an
    InternalInvariantError.  No library path calls it: the tests use it
    as an oracle, and perfbench's tracer and kernel probe name it.
    """
    order = prod(d for family, rank in rs.typespec.factors for d in degrees(family, rank))
    require_within(
        order, GROUP_ORDER_LIMIT, f"Weyl group of {rs.typespec} has {order} elements"
    )
    gens = tuple(simple_reflection(rs, i).img for i in range(rs.n))
    try:
        imgs = _purecore.weyl_closure(gens, order)
    except _purecore.LimitExceeded:
        imgs = ()
    if len(imgs) != order:
        raise InternalInvariantError(
            f"the simple reflections of {rs.typespec} do not generate {order} elements"
        )
    return tuple(GroupElement(rs, img) for img in imgs)


def absolute_leq(u: GroupElement, v: GroupElement) -> bool:
    """Absolute order: lengths add along u, then u^-1 v."""
    return u.length + compose(inverse(u), v).length == v.length


def coxeter_element(rs: RootSystem) -> GroupElement:
    """Product of the simple reflections in index order.  Every Coxeter
    element is this one for some numbering of the diagram's nodes."""
    c = identity(rs)
    for i in range(rs.n):
        c = compose(c, simple_reflection(rs, i))
    return c


def moved_annihilator(rs: RootSystem, simple_img) -> list:
    """Integer vectors y spanning the linear forms that vanish on Mov(w),
    for the w whose images of the simple roots are the signed root
    indices ``simple_img``; there are n - l_T(w) of them.

    The rows w(alpha_j) - alpha_j span Mov(w), so the forms are the
    kernel of their matrix: with the rows in d times reduced row echelon
    form, each free column f gives the y with y_f = d and y_p = -row[f]
    at the pivot p of each row (``_purecore.null_space``).
    """
    return _purecore.null_space(_moved_rows(rs, simple_img))


def reflection_word(w: GroupElement) -> tuple:
    """A minimal word for w in the reflections, greedily first-by-index.

    Returns a tuple of positive root indices whose reflections multiply
    (left to right, applied right-first) to w: each letter is the least
    t with alpha_t in Mov(x) for the rest x, which by Carter's lemma is
    the least t with l_T(t x) = l_T(x) - 1.
    """
    rs = w.rs
    roots = rs.positive_roots
    refl = reflections(rs)
    word = []
    x = w
    while True:
        forms = moved_annihilator(rs, x.img[: rs.n])
        if len(forms) == rs.n:
            return tuple(word)
        t = next(
            (
                t for t, root in enumerate(roots)
                if not any(sum(map(mul, y, root)) for y in forms)
            ),
            None,
        )
        if t is None:
            raise InternalInvariantError(
                f"an element of length {rs.n - len(forms)} moves no root"
            )
        word.append(t)
        x = compose(refl[t], x)
