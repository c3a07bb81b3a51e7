import pytest

from fct import kernels, weyl
from fct.errors import InternalInvariantError, ResourceLimitError, UsageError
from fct.weyl import (
    absolute_leq,
    compose,
    coxeter_element,
    generate_group,
    identity,
    inverse,
    moved_annihilator,
    reflection_word,
    reflections,
    simple_reflection,
)

from conftest import rsys
from oracles import bfs_absolute_length, element_order, relabelled

GROUP_ORDERS = {
    "A1": 2, "A2": 6, "B2": 8, "G2": 12,
    "A3": 24, "B3": 48, "D4": 192, "F4": 1152,
}


def test_group_orders():
    for name, order in GROUP_ORDERS.items():
        rs = rsys(name)
        group = generate_group(rs)
        assert len(group) == order
        assert group[0] == identity(rs)
        assert len({w.img for w in group}) == order


def test_group_limit(monkeypatch):
    monkeypatch.setattr(weyl, "GROUP_ORDER_LIMIT", 5)
    with pytest.raises(ResourceLimitError, match="bound 5"):
        generate_group.__wrapped__(rsys("A3"))


def test_compose_inverse_identity():
    for name in ["A2", "B2", "B3"]:
        rs = rsys(name)
        e = identity(rs)
        for w in generate_group(rs):
            assert compose(w, inverse(w)) == e
            assert compose(inverse(w), w) == e
            assert compose(e, w) == w


def test_simple_reflections_are_involutions():
    rs = rsys("F4")
    for i in range(rs.n):
        s = simple_reflection(rs, i)
        assert compose(s, s) == identity(rs)
        assert element_order(s) == 2
    with pytest.raises(UsageError):
        simple_reflection(rs, 9)


def test_reflections_match_positive_roots():
    # an involution of absolute length 1 is a reflection, and the one
    # sending beta to -beta is s_beta
    for name in ["A2", "B2", "B3", "G2", "F4", "E6", "B2xG2"]:
        rs = rsys(name)
        refl = reflections(rs)
        assert len(refl) == len(rs.positive_roots)
        for b, t in enumerate(refl):
            assert t.img[b] == -(b + 1)
            assert t.length == 1
            assert element_order(t) == 2


def test_absolute_length_against_cayley_bfs():
    for name in ["A2", "B2", "A3", "G2", "B3", "D4"]:
        rs = rsys(name)
        dist = bfs_absolute_length(rs)
        for w in generate_group(rs):
            assert w.length == dist[w.img], (name, w.img)


def test_reflection_word_composes_back():
    for name in ["A3", "B3", "G2"]:
        rs = rsys(name)
        refl = reflections(rs)
        for w in generate_group(rs):
            word = reflection_word(w)
            assert len(word) == w.length
            acc = identity(rs)
            for t_idx in word:
                acc = compose(acc, refl[t_idx])
            assert acc == w


def test_moved_annihilator_cuts_out_the_moved_space():
    """n - l_T(w) independent forms vanish on the columns of M - I, and
    alpha_t is in Mov(w) exactly when l_T(t w) < l_T(w) (Carter)."""
    for name in ["A3", "B3", "G2", "A1xB2"]:
        rs = rsys(name)
        n = rs.n
        refl = reflections(rs)
        for w in generate_group(rs):
            forms = moved_annihilator(rs, w.img[:n])
            assert len(forms) == n - w.length
            if forms:
                assert kernels.int_rank(forms) == len(forms)
            for y in forms:
                for j in range(n):
                    assert sum(y[i] * (w.matrix[i][j] - (i == j)) for i in range(n)) == 0
            for t, root in enumerate(rs.positive_roots):
                moved = not any(sum(a * b for a, b in zip(y, root)) for y in forms)
                assert moved == (compose(refl[t], w).length < w.length), (name, t)


def test_reflection_word_without_a_moved_root_is_an_invariant_error(monkeypatch):
    """Every element of positive length moves some root; a form that
    kills none is an internal failure (exit 3), not a usage error."""
    rs = rsys("A3")
    monkeypatch.setattr(weyl, "moved_annihilator", lambda rs, img: [[1] * rs.n])
    with pytest.raises(InternalInvariantError, match="moves no root"):
        reflection_word(coxeter_element(rs))


def test_absolute_order_via_lengths():
    rs = rsys("B2")
    group = generate_group(rs)
    for u in group:
        for v in group:
            expected = u.length + compose(inverse(u), v).length == v.length
            assert absolute_leq(u, v) == expected


def test_coxeter_element():
    for name in GROUP_ORDERS:
        rs = rsys(name)
        c = coxeter_element(rs)
        assert element_order(c) == rs.coxeter_number
        assert c.length == rs.n


def test_relabelling_reorders_the_coxeter_element():
    """The Coxeter element of relabelled(rs, perm) is s_perm[0] ...
    s_perm[n-1] of rs, acting on the renamed coordinates."""
    for name, perm in [("A3", (1, 2, 0)), ("B3", (2, 0, 1)), ("G2", (1, 0)),
                       ("D4", (3, 1, 0, 2)), ("A1xB2", (2, 0, 1))]:
        rs = rsys(name)
        product = identity(rs)
        for i in perm:
            product = compose(product, simple_reflection(rs, i))
        image = coxeter_element(relabelled(rs, perm)).matrix
        assert image == tuple(
            tuple(product.matrix[p][q] for q in perm) for p in perm
        ), name


def test_matrix_order_matches_element_order():
    rs = rsys("G2")
    for w in generate_group(rs):
        order = element_order(w)
        acc = identity(rs)
        for _ in range(order):
            acc = compose(acc, w)
        assert acc == identity(rs)
        assert len(generate_group(rs)) % order == 0
