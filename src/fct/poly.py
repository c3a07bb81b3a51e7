"""Exact bivariate integer polynomials and the triangle transformations.

A polynomial is a mapping (xdeg, ydeg) -> coefficient with arbitrary
precision integers.  All transformation rules between the H-, F- and
M-triangles are implemented monomial by monomial in denominator-free
form.  A transform names the kind of triangle it reads and its image of
x^i y^j at rank n.  ``_substitute`` checks the one precondition, no
exponent above n and the kind's support rule, which makes every image
denominator-free:

* H-triangles: ydeg <= xdeg on every monomial,
* F-triangles: xdeg + ydeg <= n,
* M-triangles: ydeg >= xdeg.

Every transform reads its images from one cache, so an image is shared
and no caller may mutate one.

>>> p = BivarPoly({(0, 0): 1, (1, 1): 1})
>>> h_from_m(BivarPoly({(0, 0): 1, (0, 1): -1, (1, 1): 1}), 1) == p
True
"""
from __future__ import annotations

from functools import lru_cache
from math import lcm, prod
from operator import mul

from .errors import InternalInvariantError, UsageError


class BivarPoly:
    """Immutable-by-convention bivariate polynomial over the integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v}

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls()

    @classmethod
    def one(cls) -> "BivarPoly":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, i: int, j: int, c: int = 1) -> "BivarPoly":
        return cls({(i, j): c})

    def __eq__(self, other) -> bool:
        return isinstance(other, BivarPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other) -> "BivarPoly":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return BivarPoly(out)

    def __sub__(self, other) -> "BivarPoly":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) - v
        return BivarPoly(out)

    def __neg__(self) -> "BivarPoly":
        return BivarPoly({k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other) -> "BivarPoly":
        if isinstance(other, int):
            return BivarPoly({k: v * other for k, v in self.coeffs.items()})
        out = {}
        for (i1, j1), v1 in self.coeffs.items():
            for (i2, j2), v2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + v1 * v2
        return BivarPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "BivarPoly":
        if e < 0:
            raise UsageError("negative power of a polynomial")
        out = BivarPoly.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"BivarPoly({self.coeffs!r})"

    def __str__(self) -> str:
        return self._format("x", "y", "{}^{}")

    def coeff(self, i: int, j: int) -> int:
        return self.coeffs.get((i, j), 0)

    def evaluate(self, x, y):
        return sum(c * x**i * y**j for (i, j), c in self.coeffs.items())

    def substitute_y(self, y) -> "BivarPoly":
        """Collapse the y variable at an integer value."""
        out = {}
        for (i, j), c in self.coeffs.items():
            k = (i, 0)
            out[k] = out.get(k, 0) + c * y**j
        return BivarPoly(out)

    def dy(self) -> "BivarPoly":
        """Partial derivative with respect to y."""
        return BivarPoly({(i, j - 1): c * j for (i, j), c in self.coeffs.items() if j})

    def monomial_list(self) -> list:
        """Sorted [xdeg, ydeg, coefficient] rows, the canonical wire form."""
        return [[i, j, self.coeffs[(i, j)]] for (i, j) in sorted(self.coeffs)]

    def latex(self, var1: str = "x", var2: str = "y") -> str:
        return self._format(var1, var2, "{}^{{{}}}")

    def _format(self, var1: str, var2: str, power: str) -> str:
        """Terms in ascending monomial order; ``power`` spells v^e for e >= 2."""
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j) in sorted(self.coeffs):
            c = self.coeffs[(i, j)]
            mono = "".join(
                "" if e == 0 else v if e == 1 else power.format(v, e)
                for v, e in ((var1, i), (var2, j))
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append(f"{c}{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def require_h_support(p: BivarPoly) -> None:
    for i, j in p.coeffs:
        if j > i:
            raise UsageError(f"H-triangle support violated at {(i, j)}")


def require_f_support(p: BivarPoly, n: int) -> None:
    for i, j in p.coeffs:
        if i + j > n:
            raise UsageError(f"F-triangle support violated at {(i, j)} for rank {n}")


def require_m_support(p: BivarPoly) -> None:
    for i, j in p.coeffs:
        if j < i:
            raise UsageError(f"M-triangle support violated at {(i, j)}")


_X = BivarPoly.monomial(1, 0)
_Y = BivarPoly.monomial(0, 1)
_ONE = BivarPoly.one()
_XM1 = _X - _ONE  # x - 1
_ONEMX = _ONE - _X  # 1 - x
_U = _ONE + (_Y - _ONE) * _X  # 1 + (y - 1) x


def _substitute(p: BivarPoly, kind: str, n: int | None, image) -> BivarPoly:
    """Sum of c * image(n, i, j) over the monomials c x^i y^j of p, a
    triangle of the given kind ("H", "F" or "M") and rank n.

    The one precondition of every transform is checked here: no exponent
    above n (not checked when n is None, for ceiling_specialization) and
    the support rule of the kind.  Every transform reads its images
    through the one cache ``_image``, so an image is shared and no caller
    may mutate one.
    """
    if n is not None and not all(i <= n >= j for i, j in p.coeffs):
        raise UsageError(f"{kind}-triangle degree exceeds rank")
    if kind == "H":
        require_h_support(p)
    elif kind == "M":
        require_m_support(p)
    else:
        require_f_support(p, n)
    out = {}
    for (i, j), c in p.coeffs.items():
        for key, v in _image(image, n, i, j).coeffs.items():
            out[key] = out.get(key, 0) + c * v
    return BivarPoly(out)


@lru_cache(maxsize=None)
def _image(image, n, i, j) -> BivarPoly:
    return image(n, i, j)


def _h_from_f_image(n, l, m):
    return _U**m * _XM1 ** (n - l - m)


def h_from_f(f: BivarPoly, n: int) -> BivarPoly:
    """H(x, y) = (x-1)^n F(1/(x-1), (1 + (y-1)x)/(x-1))."""
    return _substitute(f, "F", n, _h_from_f_image)


def _h_from_m_image(n, a, b):
    return _Y**a * (_Y - _ONE) ** (b - a) * _X**b * _U ** (n - b)


def h_from_m(m: BivarPoly, n: int) -> BivarPoly:
    """H(x, y) = (1 + (y-1)x)^n M(y/(y-1), (y-1)x/(1 + (y-1)x))."""
    return _substitute(m, "M", n, _h_from_m_image)


def _f_from_m_image(n, a, b):
    return (_ONE + _Y) ** a * (_Y - _X) ** (b - a) * _Y ** (n - b)


def f_from_m(m: BivarPoly, n: int) -> BivarPoly:
    """F(x, y) = y^n M((1+y)/(y-x), (y-x)/y)."""
    return _substitute(m, "M", n, _f_from_m_image)


def _m_from_h_image(n, i, j):
    return _Y**i * _X**j * _XM1 ** (i - j) * (_ONE - _Y) ** (n - i)


def m_from_h(h: BivarPoly, n: int) -> BivarPoly:
    """M(x, y) = (1-y)^n H(y(x-1)/(1-y), x/(x-1)); inverse of h_from_m."""
    return _substitute(h, "H", n, _m_from_h_image)


def _h_from_f_k1_image(n, l, m):
    return _X ** (l + m) * _Y**m * _ONEMX ** (n - l - m)


def h_from_f_k1(f: BivarPoly, n: int) -> BivarPoly:
    """The k = 1 alternative form H(x, y) = (1-x)^n F(x/(1-x), xy/(1-x))."""
    return _substitute(f, "F", n, _h_from_f_k1_image)


def _f_self_dual_image(n, l, m):
    return (-_ONE - _X) ** l * (-_ONE - _Y) ** m * (-1) ** n


def f_self_dual_image(f: BivarPoly, n: int) -> BivarPoly:
    """(-1)^n F(-1-x, -1-y), which equals F at k = 1."""
    return _substitute(f, "F", n, _f_self_dual_image)


def _h_reciprocal_image(n, i, j):
    return _ONEMX ** (i - j) * (-_X * _Y) ** j * (-1) ** n


def h_reciprocal_image(h: BivarPoly, n: int) -> BivarPoly:
    """(-1)^n H(1-x, -xy/(1-x)); maps H at -k onto H at k."""
    return _substitute(h, "H", n, _h_reciprocal_image)


def _m_reciprocal_image(n, a, b):
    return BivarPoly.monomial(a, n + a - b)


def m_reciprocal_image(m: BivarPoly, n: int) -> BivarPoly:
    """y^n M(xy, 1/y); maps M at -k onto M at k."""
    return _substitute(m, "M", n, _m_reciprocal_image)


def _h_dual_image(n, i, j):
    return _X ** (n - i) * _U**j


def h_dual_image(h: BivarPoly, n: int) -> BivarPoly:
    """x^n H(1/x, 1 + (y-1)x); equals H at k = 1."""
    return _substitute(h, "H", n, _h_dual_image)


def _f_from_h_k1_image(n, i, j):
    return (_X + _ONE) ** (i - j) * (_Y + _ONE) ** j * _X ** (n - i)


def f_from_h_k1(h: BivarPoly, n: int) -> BivarPoly:
    """F(x, y) = x^n H((x+1)/x, (y+1)/(x+1)) at k = 1."""
    return _substitute(h, "H", n, _f_from_h_k1_image)


def _ceiling_image(n, i, j):
    return _X ** (i - j) * _XM1**j


def ceiling_specialization(h: BivarPoly) -> BivarPoly:
    """H(x, 1 - 1/x), a polynomial in x thanks to the support condition."""
    return _substitute(h, "H", None, _ceiling_image)


def _bottom_image(n, i, j):
    return BivarPoly.monomial(n - i, 0) if j == 0 else BivarPoly.zero()


def bottom_specialization(h: BivarPoly, n: int) -> BivarPoly:
    """x^n H(1/x, 0), a polynomial in x."""
    return _substitute(h, "H", n, _bottom_image)


class KFamily:
    """A family of triangles indexed by the positive integer parameter k.

    Each coefficient is a polynomial in k of degree at most
    ``degree_bound``, so the first degree_bound + 1 samples fix the
    family; ``fit`` checks every further sample against it.
    """

    __slots__ = ("samples", "degree_bound")

    def __init__(self, samples: tuple, degree_bound: int):
        self.samples = samples  # tuple of (k, BivarPoly), k strictly increasing
        self.degree_bound = degree_bound

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.samples, self.degree_bound) == (other.samples, other.degree_bound)

    def __hash__(self) -> int:
        return hash((self.samples, self.degree_bound))

    @classmethod
    def fit(cls, samples: dict, degree_bound: int) -> "KFamily":
        ordered = tuple(sorted(samples.items()))
        if len(ordered) < degree_bound + 1:
            raise UsageError(
                f"need at least {degree_bound + 1} samples, got {len(ordered)}"
            )
        fam = cls(samples=ordered, degree_bound=degree_bound)
        for k, p in ordered[degree_bound + 1:]:
            if fam.predict(k) != p:
                raise InternalInvariantError(
                    f"the sample at k={k} is not polynomial of degree "
                    f"<= {degree_bound} in k"
                )
        return fam

    def predict(self, k: int) -> BivarPoly:
        """Evaluate the family at any integer k (negative values allowed).

        Lagrange's formula through the fit points, one coefficient at a
        time (``interpolate``).
        """
        points = self.samples[: self.degree_bound + 1]
        keys = list(set().union(*(p.coeffs for _, p in points)))
        values = interpolate(
            [x for x, _ in points],
            [[p.coeffs.get(key, 0) for _, p in points] for key in keys],
            k,
        )
        return BivarPoly(dict(zip(keys, values)))


def interpolate(xs, columns, k: int) -> list:
    """For each column ys, the value at k of the polynomial of degree
    < len(xs) that takes the value ys[i] at xs[i]; the nodes are distinct
    and every value is an integer.

    Lagrange's formula in integers: with P_i the product of x_i - x_j
    over j != i and D the lcm of the P_i, each weight
    w_i = (D / P_i) prod_{j != i} (k - x_j) is an integer, and a value is
    sum_i w_i y_i / D, one dot product and one exact division per column.
    """
    xs = list(xs)
    dens = [prod(xi - xj for xj in xs if xj != xi) for xi in xs]
    common = lcm(*dens)
    weights = [
        prod(k - xj for xj in xs if xj != xi) * (common // den)
        for xi, den in zip(xs, dens)
    ]
    out = []
    for ys in columns:
        value, rest = divmod(sum(map(mul, weights, ys)), common)
        if rest:
            raise InternalInvariantError("interpolated value is not an integer")
        out.append(value)
    return out
