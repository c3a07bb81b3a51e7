import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fct.cluster import (
    build_complex,
    colored_rotation,
    compat_masks,
    f_triangle,
    full_rotation,
    half_rotation,
    positive_h_poly,
    vertex_count,
)
from fct.errors import InternalInvariantError, UsageError
from fct.poly import BivarPoly
from fct.nonnesting import enumerate_chains
from fct.rootsys import ENUMERATION_LIMIT, fuss_catalan_number, parabolic

from conftest import rsys, small_products
from oracles import (
    compatible,
    enumerate_faces,
    h_vector,
    half_rotation_by_group,
    positive_h_vector,
    relabelled,
)

GRID = [("A1", 3), ("A2", 1), ("A2", 2), ("B2", 2), ("A3", 2), ("G2", 2), ("B3", 1)]


def test_vertex_count():
    assert vertex_count(rsys("A2"), 2) == 2 + 2 * 3
    assert vertex_count(rsys("F4"), 2) == 4 + 2 * 24


def test_half_rotation_is_involution():
    for name in ["A2", "B2", "A3", "G2", "B3"]:
        rs = rsys(name)
        verts = list(range(-rs.n, len(rs.positive_roots)))
        for sign in (1, -1):
            for v in verts:
                w = half_rotation(rs, sign, v)
                assert half_rotation(rs, sign, w) == v
    with pytest.raises(UsageError):
        half_rotation(rsys("A2"), 0, 0)


def test_half_rotation_matches_the_group_element_product():
    """The rotation read off the Cartan rows is the action of the product
    of the simple reflections on one side, for both sides."""
    names = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "D5",
             "G2", "F4", "E6", "E7", "E8", "A1xB2", "B2xG2"]
    for name in names:
        rs = rsys(name)
        for sign in (1, -1):
            for v in range(-rs.n, len(rs.positive_roots)):
                assert half_rotation(rs, sign, v) == half_rotation_by_group(
                    rs, sign, v
                ), (name, sign, v)


def test_full_rotation_orbit_closes():
    # the uncoloured rotation has order h + 2 on almost positive roots
    for name in ["A2", "B2", "A3", "G2", "B3", "D4"]:
        rs = rsys(name)
        order = rs.coxeter_number + 2
        for v in list(range(-rs.n, 0)) + list(range(len(rs.positive_roots))):
            u = v
            for _ in range(order):
                u = full_rotation(rs, u)
            assert u == v, (name, v)


def test_colored_rotation_is_permutation():
    for name, k in GRID:
        rs = rsys(name)
        rot = colored_rotation(rs, k)
        assert sorted(rot) == list(range(vertex_count(rs, k)))


def test_compatibility_symmetric_and_rotation_invariant():
    for name, k in [("A2", 2), ("B2", 2), ("G2", 1), ("A3", 1)]:
        rs = rsys(name)
        rot = colored_rotation(rs, k)
        nv = vertex_count(rs, k)
        for u in range(nv):
            for v in range(u + 1, nv):
                c = compatible(rs, k, u, v)
                assert compatible(rs, k, v, u) == c
                assert compatible(rs, k, rot[u], rot[v]) == c
    with pytest.raises(UsageError):
        compatible(rsys("A2"), 1, 3, 3)


def test_compat_masks_match_pairwise_oracle():
    """Deciding each rotation orbit of pairs once gives the graph that
    rotating every pair to a negative simple root gives, wherever the
    pair bound allows."""
    names = ["A1", "A2", "A3", "B2", "B3", "G2", "D4", "F4", "E6", "A1xB2", "B2xG2"]
    for name in names:
        rs = rsys(name)
        for k in (1, 2, 3):
            nv = vertex_count(rs, k)
            assert nv * (nv - 1) // 2 <= ENUMERATION_LIMIT
            masks = compat_masks(rs, k)
            for u in range(nv):
                expected = sum(
                    1 << v for v in range(nv) if v != u and compatible(rs, k, u, v)
                )
                assert masks[u] == expected, (name, k, u)


def test_compat_masks_need_every_pair_reached(monkeypatch):
    """A rotation table under which some orbit of pairs holds no negative
    simple root leaves pairs undecided, and the graph is refused."""
    monkeypatch.setattr(
        "fct.cluster.colored_rotation",
        lambda rs, k: tuple(range(vertex_count(rs, k))),
    )
    with pytest.raises(InternalInvariantError):
        compat_masks(rsys("A2"), 1)


def test_negative_cluster_is_a_facet():
    for name, k in GRID:
        rs = rsys(name)
        masks = compat_masks(rs, k)
        for i in range(rs.n):
            for j in range(i + 1, rs.n):
                assert (masks[i] >> j) & 1
        assert build_complex(rs, k).maximal_sizes.get(rs.n, 0) >= 1


def test_facet_counts():
    for name, k in GRID:
        rs = rsys(name)
        assert build_complex(rs, k).facet_count == fuss_catalan_number(rs, k)


def test_complex_is_pure():
    for name, k in GRID:
        rs = rsys(name)
        cc = build_complex(rs, k)
        assert set(cc.maximal_sizes) == {rs.n}


def test_f_triangle_counts_faces():
    for name, k in [("A2", 2), ("B2", 2), ("A3", 1)]:
        rs = rsys(name)
        cc = build_complex(rs, k)
        f = f_triangle(rs, k)
        assert f.evaluate(1, 1) == cc.face_count()
        faces = enumerate_faces(rs, k)
        assert len(faces) == cc.face_count()
        # every enumerated face is a clique
        masks = compat_masks(rs, k)
        for face in faces:
            for a in face:
                for b in face:
                    if a != b:
                        assert (masks[a] >> b) & 1
        # f recounts faces by (#positive, #negative) vertices
        recount = {}
        for face in faces:
            key = (
                sum(1 for v in face if v >= rs.n),
                sum(1 for v in face if v < rs.n),
            )
            recount[key] = recount.get(key, 0) + 1
        assert BivarPoly(recount) == f


def test_f_triangle_anchor_rank_one():
    assert f_triangle(rsys("A1"), 3) == BivarPoly({(0, 0): 1, (0, 1): 1, (1, 0): 3})


def _cycle_type(perm) -> list:
    seen, out = set(), []
    for start in range(len(perm)):
        size, v = 0, start
        while v not in seen:
            seen.add(v)
            v = perm[v]
            size += 1
        if size:
            out.append(size)
    return sorted(out)


def test_flip_leaves_f_triangle_unchanged():
    """Node 1 is a neighbour of node 0 in these connected diagrams, so
    putting it first gives every node the other side."""
    for name, k in [("A2", 2), ("B2", 2), ("G2", 1), ("B3", 1)]:
        rs = rsys(name)
        perm = (1, 0) + tuple(range(2, rs.n))
        flipped = relabelled(rs, perm)
        assert flipped.bipartition == tuple(-rs.bipartition[p] for p in perm)
        assert f_triangle(flipped, k) == f_triangle(rs, k)
        assert _cycle_type(colored_rotation(flipped, k)) == _cycle_type(
            colored_rotation(rs, k)
        )


def test_h_vector_anchor():
    assert h_vector(rsys("A2"), 1) == (1, 3, 1)
    assert sum(h_vector(rsys("B3"), 2)) == fuss_catalan_number(rsys("B3"), 2)


def test_positive_h_poly():
    assert positive_h_poly(rsys("A2"), 1) == BivarPoly({(1, 0): 1, (2, 0): 1})
    for name, k in [("A2", 2), ("B2", 2), ("B3", 1)]:
        rs = rsys(name)
        vec = positive_h_vector(rs, k)
        poly = positive_h_poly(rs, k)
        n = rs.n
        assert poly == BivarPoly({(n - i, 0): c for i, c in enumerate(vec) if c})
        assert all(c >= 0 for c in vec)


def test_k_validation():
    with pytest.raises(UsageError):
        colored_rotation(rsys("A2"), 0)


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(small_products().map(rsys), st.builds(lambda: parabolic(rsys("A1"), 0))),
    st.integers(1, 3),
)
def test_chain_and_facet_counts_on_random_products(rs, k):
    """Both families number FC(W, k), on products and on the rank-0 type."""
    expected = fuss_catalan_number(rs, k)
    assert len(enumerate_chains(rs, k)) == expected
    assert build_complex(rs, k).facet_count == expected
