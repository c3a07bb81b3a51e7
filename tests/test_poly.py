import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fct.errors import InternalInvariantError, UsageError
from fct.poly import (
    BivarPoly,
    KFamily,
    bottom_specialization,
    ceiling_specialization,
    f_from_h_k1,
    f_from_m,
    f_self_dual_image,
    h_dual_image,
    h_from_f,
    h_from_f_k1,
    h_from_m,
    h_reciprocal_image,
    m_from_h,
    m_reciprocal_image,
    require_f_support,
    require_h_support,
    require_m_support,
)

coeff = st.integers(min_value=-9, max_value=9)
exponent = st.integers(min_value=0, max_value=4)
polys = st.dictionaries(
    st.tuples(exponent, exponent), coeff, max_size=6
).map(BivarPoly)
points = st.integers(min_value=-5, max_value=5)


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == BivarPoly.zero()
    assert p + BivarPoly.zero() == p
    assert p * BivarPoly.one() == p
    assert -(-p) == p
    assert 3 * p == p + p + p


@given(polys)
def test_power_repeated_product(p):
    assert p**0 == BivarPoly.one()
    assert p**1 == p
    assert p**3 == p * p * p


@given(polys, polys, points, points)
def test_evaluate_is_ring_homomorphism(p, q, x, y):
    assert (p + q).evaluate(x, y) == p.evaluate(x, y) + q.evaluate(x, y)
    assert (p * q).evaluate(x, y) == p.evaluate(x, y) * q.evaluate(x, y)


@given(polys, points, points)
def test_substitute_y_consistency(p, x, y):
    sub = p.substitute_y(y)
    assert all(j == 0 for _, j in sub.coeffs)
    assert sub.evaluate(x, 123456) == p.evaluate(x, y)


@given(polys, polys)
def test_dy_leibniz(p, q):
    assert (p * q).dy() == p.dy() * q + p * q.dy()
    assert (p + q).dy() == p.dy() + q.dy()


@given(polys)
def test_monomial_list_roundtrip(p):
    rows = p.monomial_list()
    assert rows == sorted(rows)
    assert BivarPoly({(i, j): c for i, j, c in rows}) == p
    assert all(c != 0 for _, _, c in rows)


def test_zero_coefficients_are_dropped():
    p = BivarPoly({(0, 0): 0, (1, 1): 2, (2, 0): 0})
    assert p.coeffs == {(1, 1): 2}
    assert BivarPoly({}) == BivarPoly.zero()
    assert not BivarPoly.zero()


def test_str_format():
    p = BivarPoly({(0, 0): 1, (0, 1): -1, (1, 1): 1})
    assert str(p) == "1 - y + xy"
    assert str(BivarPoly.zero()) == "0"
    assert str(BivarPoly({(2, 2): 1, (1, 0): 3})) == "3x + x^2y^2"


def test_latex_format():
    p = BivarPoly({(0, 0): 1, (2, 1): -4})
    text = p.latex()
    assert "x^{2}" in text and "-" in text and "4" in text


MIXED = BivarPoly({
    (0, 0): -2, (0, 1): -1, (0, 3): 5, (1, 0): 1,
    (1, 1): -3, (2, 0): -1, (2, 3): 7, (3, 2): 1,
})


def test_str_bytes():
    assert str(MIXED) == "-2 - y + 5y^3 + x - 3xy - x^2 + 7x^2y^3 + x^3y^2"
    assert str(BivarPoly({(0, 0): -1, (1, 0): -1})) == "-1 - x"
    assert str(BivarPoly({(0, 0): 1, (0, 2): 1})) == "1 + y^2"
    assert str(BivarPoly({(4, 0): -12})) == "-12x^4"


def test_latex_bytes():
    assert MIXED.latex() == (
        "-2 - y + 5y^{3} + x - 3xy - x^{2} + 7x^{2}y^{3} + x^{3}y^{2}"
    )
    assert MIXED.latex("q", "t") == (
        "-2 - t + 5t^{3} + q - 3qt - q^{2} + 7q^{2}t^{3} + q^{3}t^{2}"
    )
    assert BivarPoly({(0, 0): -1, (0, 1): -1}).latex("q", "t") == "-1 - t"
    assert BivarPoly({(12, 0): 1}).latex() == "x^{12}"
    assert BivarPoly.zero().latex("q", "t") == "0"


def test_support_validators():
    require_h_support(BivarPoly({(2, 1): 1}))
    with pytest.raises(UsageError):
        require_h_support(BivarPoly({(1, 2): 1}))
    require_f_support(BivarPoly({(1, 1): 1}), 2)
    with pytest.raises(UsageError):
        require_f_support(BivarPoly({(2, 1): 1}), 2)
    require_m_support(BivarPoly({(1, 2): 1}))
    with pytest.raises(UsageError):
        require_m_support(BivarPoly({(2, 1): 1}))


def h_polys(n):
    """Random polynomials with the H support condition and xdeg <= n."""
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n), st.integers(min_value=0, max_value=n)
    ).map(lambda t: (max(t), min(t)))
    return st.dictionaries(pairs, coeff, max_size=5).map(BivarPoly)


@settings(max_examples=60)
@given(h_polys(3))
def test_m_h_transforms_are_inverse(h):
    m = m_from_h(h, 3)
    require_m_support(m)
    assert h_from_m(m, 3) == h


@settings(max_examples=60)
@given(h_polys(3))
def test_transform_triangle_commutes(h):
    # the three pairwise transforms agree with their compositions
    m = m_from_h(h, 3)
    f = f_from_m(m, 3)
    require_f_support(f, 3)
    assert h_from_f(f, 3) == h


# a triangle of rank 2 that breaks each kind's support rule, and the message
BROKEN_SUPPORT = {
    "H": (BivarPoly({(1, 2): 1}), "H-triangle support violated at (1, 2)"),
    "F": (BivarPoly({(1, 2): 1}), "F-triangle support violated at (1, 2) for rank 2"),
    "M": (BivarPoly({(2, 1): 1}), "M-triangle support violated at (2, 1)"),
}


@pytest.mark.parametrize(
    "transform, support, too_high",
    [
        (h_from_m, "M", BivarPoly({(0, 3): 1})),
        (f_from_m, "M", BivarPoly({(1, 3): 1})),
        (m_reciprocal_image, "M", BivarPoly({(2, 3): 1})),
        (m_from_h, "H", BivarPoly({(3, 0): 1})),
        (h_dual_image, "H", BivarPoly({(3, 1): 1})),
        (f_from_h_k1, "H", BivarPoly({(3, 3): 1})),
        (h_reciprocal_image, "H", BivarPoly({(3, 2): 1})),
        (bottom_specialization, "H", BivarPoly({(3, 1): 1})),
        (h_from_f, "F", BivarPoly({(3, 0): 1})),
        (h_from_f_k1, "F", BivarPoly({(0, 3): 1})),
        (f_self_dual_image, "F", BivarPoly({(3, 0): 1})),
        (ceiling_specialization, "H", None),
    ],
)
def test_transform_rank_check(transform, support, too_high):
    """Each transform rejects a triangle off its kind's support and, given
    a rank, an exponent above it; ceiling_specialization takes no rank."""
    broken, message = BROKEN_SUPPORT[support]
    rank = () if too_high is None else (2,)
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        transform(broken, *rank)
    if too_high is None:
        return
    with pytest.raises(UsageError, match=f"^{support}-triangle degree exceeds rank$"):
        transform(too_high + BivarPoly.one(), 2)
    transform(too_high, 3)  # degree equal to the rank is allowed


def m_polys(n):
    """Random polynomials with the M support condition and ydeg <= n."""
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n), st.integers(min_value=0, max_value=n)
    ).map(lambda t: (min(t), max(t)))
    return st.dictionaries(pairs, coeff, max_size=5).map(BivarPoly)


@settings(max_examples=60)
@given(m_polys(3))
def test_m_reciprocal_image_is_involution(m):
    image = m_reciprocal_image(m, 3)
    require_m_support(image)
    assert m_reciprocal_image(image, 3) == m


def f_polys(n):
    """Random polynomials with the F support condition at rank n."""
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n), st.integers(min_value=0, max_value=n)
    ).filter(lambda t: sum(t) <= n)
    return st.dictionaries(pairs, coeff, max_size=5).map(BivarPoly)


_X, _Y, _ONE = BivarPoly.monomial(1, 0), BivarPoly.monomial(0, 1), BivarPoly.one()
_U = _ONE + (_Y - _ONE) * _X

# (transform at rank n, strategy for its input, the image of x^i y^j at rank n)
DIRECT = {
    "h_from_f": (h_from_f, f_polys, lambda n, l, m: _U**m * (_X - _ONE) ** (n - l - m)),
    "h_from_m": (h_from_m, m_polys, lambda n, a, b: (
        _Y**a * (_Y - _ONE) ** (b - a) * _X**b * _U ** (n - b))),
    "f_from_m": (f_from_m, m_polys, lambda n, a, b: (
        (_ONE + _Y) ** a * (_Y - _X) ** (b - a) * _Y ** (n - b))),
    "m_from_h": (m_from_h, h_polys, lambda n, i, j: (
        _Y**i * _X**j * (_X - _ONE) ** (i - j) * (_ONE - _Y) ** (n - i))),
    "h_from_f_k1": (h_from_f_k1, f_polys, lambda n, l, m: (
        _X ** (l + m) * _Y**m * (_ONE - _X) ** (n - l - m))),
    "f_self_dual_image": (f_self_dual_image, f_polys, lambda n, l, m: (
        (-_ONE - _X) ** l * (-_ONE - _Y) ** m * (-1) ** n)),
    "h_reciprocal_image": (h_reciprocal_image, h_polys, lambda n, i, j: (
        (_ONE - _X) ** (i - j) * (-_X * _Y) ** j * (-1) ** n)),
    "m_reciprocal_image": (m_reciprocal_image, m_polys, lambda n, a, b: (
        BivarPoly.monomial(a, n + a - b))),
    "h_dual_image": (h_dual_image, h_polys, lambda n, i, j: _X ** (n - i) * _U**j),
    "f_from_h_k1": (f_from_h_k1, h_polys, lambda n, i, j: (
        (_X + _ONE) ** (i - j) * (_Y + _ONE) ** j * _X ** (n - i))),
    "ceiling_specialization": (lambda h, n: ceiling_specialization(h), h_polys, (
        lambda n, i, j: _X ** (i - j) * (_X - _ONE) ** j)),
    "bottom_specialization": (bottom_specialization, h_polys, lambda n, i, j: (
        BivarPoly.monomial(n - i, 0) if j == 0 else BivarPoly.zero())),
}


@pytest.mark.parametrize("name", sorted(DIRECT))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_transforms_equal_direct_substitution(name, data):
    """Each transform is the substitution of its images, built afresh
    here; the transforms share cached images, and a second call on the
    same triangle gives the same result, so no call mutated one."""
    transform, polys, image = DIRECT[name]
    n = data.draw(st.integers(min_value=1, max_value=6), label="n")
    p = data.draw(polys(n), label="triangle")
    direct = BivarPoly.zero()
    for (i, j), c in p.coeffs.items():
        direct = direct + image(n, i, j) * c
    assert transform(p, n) == direct
    assert transform(p, n) == direct


def test_specializations_micro():
    h = BivarPoly({(0, 0): 1, (1, 0): 1, (1, 1): 2, (2, 2): 1})
    assert ceiling_specialization(h) == BivarPoly({(1, 0): 1, (2, 0): 1})
    assert bottom_specialization(h, 2) == BivarPoly({(1, 0): 1, (2, 0): 1})
    with pytest.raises(UsageError):
        bottom_specialization(BivarPoly({(3, 0): 1}), 2)


def test_kfamily_fit_and_predict():
    def member(k):
        return BivarPoly({(0, 0): k * k, (1, 1): 2 * k + 1})

    fam = KFamily.fit({k: member(k) for k in (1, 2, 3, 4)}, degree_bound=2)
    assert fam.predict(9) == member(9)
    assert fam.predict(-3) == member(-3)
    assert fam.predict(0) == BivarPoly({(1, 1): 1})


def test_kfamily_predicts_its_samples():
    samples = {
        k: BivarPoly({(0, 0): k**3 - 2, (2, 1): -k, (1, 0): 7}) for k in (-2, 1, 3, 4, 8)
    }
    fam = KFamily.fit(samples, degree_bound=4)
    for k, p in samples.items():
        assert fam.predict(k) == p


def test_kfamily_rejects_a_fractional_value():
    fam = KFamily.fit({1: BivarPoly.zero(), 3: BivarPoly.one()}, degree_bound=1)
    assert fam.predict(5) == BivarPoly({(0, 0): 2})
    with pytest.raises(InternalInvariantError, match="not an integer"):
        fam.predict(2)


def test_kfamily_rejects_bad_fits():
    with pytest.raises(UsageError):
        KFamily.fit({1: BivarPoly.one()}, degree_bound=1)
    quadratic = {k: BivarPoly({(0, 0): k * k}) for k in (1, 2, 3, 4)}
    with pytest.raises(InternalInvariantError):
        KFamily.fit(quadratic, degree_bound=1)
