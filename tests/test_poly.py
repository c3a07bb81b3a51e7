import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fct.errors import InternalInvariantError, UsageError
from fct.poly import (
    BivarPoly,
    KFamily,
    bottom_specialization,
    ceiling_specialization,
    f_from_m,
    h_from_f,
    h_from_m,
    m_from_h,
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
    assert BivarPoly.from_monomial_list(rows) == p
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


def test_kfamily_fits_once(monkeypatch):
    import fct.poly

    calls = []
    fit = fct.poly._lagrange_fit

    def counting_fit(points):
        calls.append(points)
        return fit(points)

    monkeypatch.setattr(fct.poly, "_lagrange_fit", counting_fit)
    fam = KFamily.fit(
        {k: BivarPoly({(0, 0): k * k, (1, 1): 2 * k + 1}) for k in (1, 2, 3, 4)},
        degree_bound=2,
    )
    assert len(calls) == 2  # one fit per monomial
    for k in range(-4, 10):
        fam.predict(k)
    assert len(calls) == 2


def test_kfamily_rejects_bad_fits():
    with pytest.raises(UsageError):
        KFamily.fit({1: BivarPoly.one()}, degree_bound=1)
    quadratic = {k: BivarPoly({(0, 0): k * k}) for k in (1, 2, 3, 4)}
    with pytest.raises(InternalInvariantError):
        KFamily.fit(quadratic, degree_bound=1)
