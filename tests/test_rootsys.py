import random
import re
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fct.cluster import build_complex, f_triangle
from fct.ehrhart import WallIncidenceCount
from fct.errors import UsageError
from fct.noncrossing import enumerate_delta_sequences, m_triangle
from fct.nonnesting import enumerate_chains, h_triangle
from fct.poly import BivarPoly, KFamily
from fct.rootsys import (
    RootSystem,
    TypeSpec,
    _build_from_cartan,
    build_root_system,
    classify_cartan,
    degrees,
    filter_mask,
    fuss_catalan_number,
    fuss_catalan_sum,
    irreducible_factors,
    parabolic,
    parabolic_root_embedding,
    root_leq,
    support,
)

from conftest import rsys, small_products
from oracles import classify_by_isomorphism, filter_generated, relabelled

POSITIVE_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "B2": 4, "B3": 9,
    "G2": 6, "D4": 12, "F4": 24, "E6": 36,
}
COXETER_NUMBERS = {
    "A1": 2, "A2": 3, "A3": 4, "B2": 4, "B3": 6,
    "G2": 6, "D4": 6, "F4": 12, "E6": 12,
}


def test_typespec_parse_roundtrip():
    assert str(TypeSpec.parse("b3xA1")) == "B3xA1"
    assert str(TypeSpec.parse("F4")) == "F4"
    assert TypeSpec.parse("A2").rank == 2
    assert TypeSpec.parse("A2xB2xA1").rank == 5
    for bad in ["", "H3", "A", "A0", "Bx", "D3", "E9", "F5", "G3", "Q2"]:
        with pytest.raises(UsageError):
            TypeSpec.parse(bad)


@pytest.mark.parametrize("text", ["A1_0", "A+3", "A 3", "A\u0663", "G+2"])
def test_typespec_rank_is_ascii_digits(text):
    # int() would read each of these as a rank
    message = f"cannot parse rank in factor {text!r}"
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        TypeSpec.parse(text)


def test_positive_root_counts_and_coxeter_numbers():
    for name, count in POSITIVE_COUNTS.items():
        rs = rsys(name)
        assert len(rs.positive_roots) == count
        assert rs.coxeter_number == COXETER_NUMBERS[name]
        # sum of degrees = |roots|/... : sum(d_i) = |Phi+| + n
        degs = degrees(name[0], int(name[1:]))
        assert sum(degs) == count + rs.n
        assert max(degs) == rs.coxeter_number


def test_roots_are_distinct_nonnegative_vectors():
    for name in POSITIVE_COUNTS:
        rs = rsys(name)
        seen = set(rs.positive_roots)
        assert len(seen) == len(rs.positive_roots)
        for r in rs.positive_roots:
            assert all(c >= 0 for c in r) and any(c > 0 for c in r)
        # simple roots first, in order
        for i in range(rs.n):
            assert rs.positive_roots[i] == tuple(
                1 if j == i else 0 for j in range(rs.n)
            )


def test_heights_and_highest_root():
    for name in ["A2", "B3", "G2", "F4", "D4"]:
        rs = rsys(name)
        hi = rs.positive_roots[rs.highest_roots[0]]
        assert sum(hi) == rs.coxeter_number - 1
        assert all(sum(r) <= sum(hi) for r in rs.positive_roots)
        # the highest root dominates every root coordinatewise
        assert all(root_leq(rs, r, hi) for r in rs.positive_roots)


def test_bipartition_two_colours():
    for name in ["A3", "B3", "F4", "D4", "A2xA1"]:
        rs = rsys(name)
        colour = rs.bipartition
        assert set(colour) <= {1, -1}
        for i in range(rs.n):
            for j in range(rs.n):
                if i != j and rs.cartan[i][j] != 0:
                    assert colour[i] != colour[j]


def test_sum_triples_literal():
    for name in ["A2", "B2", "B3", "G2", "D4"]:
        rs = rsys(name)
        idx = rs.root_index
        expected = set()
        for a, ra in enumerate(rs.positive_roots):
            for b, rb in enumerate(rs.positive_roots):
                if a > b:
                    continue
                total = tuple(x + y for x, y in zip(ra, rb))
                if total in idx:
                    expected.add(tuple(sorted((a, b))) + (idx[total],))
        got = {tuple(sorted((a, b))) + (c,) for a, b, c in rs.sum_triples}
        assert got == expected
        for c in range(len(rs.positive_roots)):
            pairs = {tuple(sorted(p)) for p in rs.pair_lists[c]}
            assert pairs == {(a, b) for a, b, cc in expected if cc == c}


def test_filter_mask_and_support():
    rs = rsys("B3")
    for a in range(rs.n):
        gen = filter_generated(rs, a)
        mask = filter_mask(rs, a)
        assert gen == frozenset(
            r for i, r in enumerate(rs.positive_roots) if (mask >> i) & 1
        )
        alpha = rs.positive_roots[a]
        assert gen == frozenset(
            r for r in rs.positive_roots if root_leq(rs, alpha, r)
        )
    assert support(rs, rs.positive_roots[rs.highest_roots[0]]) == frozenset(
        range(rs.n)
    )


def test_parabolic_deletion():
    # B3 with an end node removed leaves A2 or B2 depending on the end
    rs = rsys("B3")
    ends = {}
    for a in range(3):
        sub = parabolic(rs, a)
        ends[a] = (str(sub.typespec), len(sub.positive_roots))
    assert ends[0] == ("B2", 4)
    assert ends[1] == ("A1xA1", 2)
    assert ends[2] == ("A2", 3)

    rs4 = rsys("F4")
    subfactors = {
        tuple(sorted(parabolic(rs4, a).typespec.factors)) for a in range(4)
    }
    assert subfactors == {
        (("A", 1), ("A", 2)),
        (("B", 3),),
        (("C", 3),),
    }


def test_parabolic_embedding_is_coefficient_faithful():
    for name, remove in [("A3", 1), ("B3", 0), ("F4", 2), ("D4", 3)]:
        rs = rsys(name)
        sub = parabolic(rs, remove)
        emb = parabolic_root_embedding(rs, remove)
        assert len(emb) == len(sub.positive_roots)
        keep = [i for i in range(rs.n) if i != remove]
        for pos, orig in enumerate(emb):
            img = rs.positive_roots[orig]
            assert img[remove] == 0
            assert tuple(img[i] for i in keep) == sub.positive_roots[pos]
        assert len(set(emb)) == len(emb)


def test_fuss_catalan_anchors():
    assert [fuss_catalan_number(rsys("A2"), k) for k in (1, 2, 3)] == [5, 12, 22]
    assert fuss_catalan_number(rsys("A3"), 3) == 140
    assert fuss_catalan_number(rsys("B3"), 3) == 220
    assert fuss_catalan_number(rsys("G2"), 3) == 40
    assert fuss_catalan_number(rsys("D4"), 1) == 50
    assert fuss_catalan_number(rsys("D4"), 2) == 336
    assert fuss_catalan_number(rsys("F4"), 1) == 105
    assert fuss_catalan_number(rsys("F4"), 2) == 780
    assert fuss_catalan_number(rsys("E6"), 1) == 833
    # multiplicative over factors
    assert fuss_catalan_number(rsys("A2xB2"), 2) == 12 * fuss_catalan_number(
        rsys("B2"), 2
    )


def test_fuss_catalan_sum_is_the_plain_sum():
    for name in ("A3", "B3", "G2", "D4", "A1xB2"):
        rs = rsys(name)
        for k in range(31):
            plain = sum(fuss_catalan_number(rs, m) for m in range(1, k + 1))
            assert fuss_catalan_sum(rs, k) == plain, (name, k)


def test_irreducible_factors():
    rs = rsys("A2xB2xA1")
    parts = irreducible_factors(rs)
    assert [str(p.typespec) for p in parts] == ["A2", "B2", "A1"]
    assert sum(p.n for p in parts) == rs.n
    assert irreducible_factors(rsys("F4")) == (rsys("F4"),)


def test_root_system_identity_cache():
    assert rsys("B3") is rsys("B3")
    assert parabolic(rsys("B3"), 2) is parabolic(rsys("B3"), 2)


def test_caches_take_no_defaulted_parameter():
    """A cache keys on the arguments as spelled, so f(x) and f(x, d)
    with d the default would build twice; no cached function has a
    default to spell."""
    import inspect
    import sys

    import fct.verify  # loads every layer

    cached = {
        f"{name}.{attr}": fn
        for name, mod in list(sys.modules.items())
        if name.startswith("fct.")
        for attr, fn in vars(mod).items()
        if hasattr(fn, "cache_info")
    }
    assert len(cached) > 20
    for where, fn in cached.items():
        params = inspect.signature(fn).parameters.values()
        assert all(p.default is p.empty for p in params), where


@pytest.mark.parametrize(
    "cls, fields",
    [
        (TypeSpec, ((("A", 2),),)),
        (BivarPoly, ({(1, 0): 1},)),
        (WallIncidenceCount, (3, (1, 2))),
        (KFamily, (((1, BivarPoly.one()),), 0)),
    ],
)
def test_value_records_compare_and_hash_by_fields(cls, fields):
    a, b = cls(*fields), cls(*fields)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != fields


def test_root_systems_compare_by_identity():
    rs = rsys("A2")
    twin = RootSystem(rs.typespec, rs.cartan, rs.positive_roots)
    assert twin != rs and rs == rs


@settings(max_examples=25, deadline=None)
@given(
    small_products().flatmap(
        lambda name: st.tuples(st.just(name), st.permutations(range(rsys(name).n)))
    ),
    st.integers(1, 3),
)
def test_triangles_and_counts_ignore_the_labelling(case, k):
    """Renumbering the nodes changes the Coxeter element c and may flip
    the bipartition; the triangles and the three counts stay put."""
    name, perm = case
    rs = rsys(name)
    other = relabelled(rs, tuple(perm))
    assert h_triangle(other, k) == h_triangle(rs, k)
    assert f_triangle(other, k) == f_triangle(rs, k)
    assert m_triangle(other, k) == m_triangle(rs, k)
    assert len(enumerate_chains(other, k)) == len(enumerate_chains(rs, k))
    assert build_complex(other, k).facet_count == build_complex(rs, k).facet_count
    assert len(enumerate_delta_sequences(other, k)) == len(
        enumerate_delta_sequences(rs, k)
    )


def test_roots_come_in_height_order():
    """The decomposition-rank table walks the roots in index order, so
    every root system lists its roots by non-decreasing height."""
    names = ["A1", "A2", "A3", "B2", "B3", "G2", "D4", "F4", "A1xB2", "E6"]
    systems = [rsys(name) for name in names] + [
        relabelled(rsys("D4"), (3, 1, 0, 2)),
        relabelled(rsys("F4"), (2, 0, 3, 1)),
        parabolic(rsys("F4"), 1),
    ]
    for rs in systems:
        assert list(rs.heights) == sorted(rs.heights), rs.typespec


EVERY_LABELLING = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4", "C5",
    "D4", "D5", "F4", "G2", "A1xB2", "B2xG2",
]
SAMPLED_LABELLINGS = ["A6", "A7", "A8", "B6", "C6", "D6", "D7", "D8", "E6", "E7", "E8"]


def test_diagram_rules_match_isomorphism_search():
    """classify_cartan reads the type off Bourbaki's bond rules; the
    reference finds a node permutation onto a Bourbaki matrix.  They
    agree on every labelling of the small types, a fixed sample of the
    larger ones, and every one-node deletion of each; B and C differ only
    in the direction of the double bond, which the triangles cannot see.
    On the same matrices the bipartition is proper with each component's
    lowest node on the + side, and every root of a component lies below
    its highest root."""
    rng = random.Random(26)
    matrices = set()
    for name in EVERY_LABELLING + SAMPLED_LABELLINGS:
        cartan = rsys(name).cartan
        n = len(cartan)
        if name in EVERY_LABELLING:
            perms = permutations(range(n))
        else:
            perms = [rng.sample(range(n), n) for _ in range(30)]
        for perm in perms:
            mat = tuple(tuple(cartan[p][q] for q in perm) for p in perm)
            matrices.add(mat)
            for a in range(n):
                keep = [i for i in range(n) if i != a]
                matrices.add(tuple(tuple(mat[i][j] for j in keep) for i in keep))
    assert len(matrices) > 2000
    for mat in matrices:
        typespec = classify_cartan(mat)
        reference = classify_by_isomorphism(mat)
        assert typespec == reference, (mat, str(typespec), str(reference))
        rs = _build_from_cartan(mat, typespec)
        colour = rs.bipartition
        assert all(
            colour[i] != colour[j]
            for i in range(rs.n) for j in range(rs.n) if i != j and mat[i][j]
        )
        for comp, top in zip(rs.components, rs.highest_roots):
            assert colour[comp[0]] == 1
            hi = rs.positive_roots[top]
            assert all(
                root_leq(rs, r, hi)
                for r in rs.positive_roots if any(r[i] for i in comp)
            )
