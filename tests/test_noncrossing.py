import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fct import noncrossing
from fct.cli import _json_bytes
from fct.errors import InternalInvariantError, UsageError
from fct.noncrossing import (
    _interval_tables,
    _moebius_rows,
    _multichain_counts,
    absolute_interval,
    build_nc_poset,
    enumerate_delta_sequences,
    m_triangle,
    narayana_numbers,
    sequence_count,
)
from fct.poly import BivarPoly
from fct.rootsys import degrees, fuss_catalan_number
from fct.weyl import compose, coxeter_element, inverse, reflection_word

from conftest import rsys, small_products
from oracles import (
    cover_walk_by_ranks,
    covers_of,
    down_masks_by_pairs,
    interval_by_filtering,
    leq_rows_by_pairs,
    lower_covers,
    m_triangle_by_moebius,
    masked_nc_poset,
    moebius,
    moebius_by_inversion,
    multichain_counts_by_pairs,
    narayana_vector,
    nc_json_by_elements,
    pairs_by_composition,
    relabelled,
)

INTERVAL_SIZES = {"A1": 2, "A2": 5, "B2": 6, "A3": 14, "G2": 8, "B3": 20}


def test_absolute_interval_sizes():
    for name, size in INTERVAL_SIZES.items():
        assert len(absolute_interval(rsys(name))) == size


def test_interval_members_split_the_coxeter_length():
    for name in ["A2", "B2", "A3", "G2"]:
        rs = rsys(name)
        c = coxeter_element(rs)
        for w in absolute_interval(rs):
            rest = compose(inverse(w), c)
            assert w.length + rest.length == rs.n


ORACLE_CELLS = [
    ("A1", 3), ("A2", 2), ("A3", 2), ("B2", 2), ("B3", 2),
    ("G2", 2), ("D4", 1), ("A1xB2", 2),
]


def _rotated(rs):
    """rs, and rs relabelled so that its Coxeter element is
    s_1 ... s_{n-1} s_0 of rs."""
    return [rs, relabelled(rs, tuple(range(1, rs.n)) + (0,))]


def test_interval_tables_against_pairwise_oracles():
    for name in [name for name, _ in ORACLE_CELLS] + ["B4", "F4"]:
        for rs in _rotated(rsys(name)):
            tables = _interval_tables(rs)
            elems = absolute_interval(rs)
            assert elems[0].length == 0
            keys = list(noncrossing._breadth_first_keys(rs, tables))
            by_keys = sorted(range(len(elems)), key=keys.__getitem__)
            assert [elems[a] for a in by_keys] == list(interval_by_filtering(rs))
            leq = leq_rows_by_pairs(elems)
            lengths = tuple(tables.lengths)
            assert lengths == tuple(w.length for w in elems)
            assert list(lengths) == sorted(lengths)
            for u in range(len(elems)):
                assert sorted(tables.pairs(u)[0]) == [
                    w for w in range(len(elems)) if (leq[w] >> u) & 1
                ]
                for a in lower_covers(tables, u):
                    assert lengths[a] == lengths[u] - 1 and (leq[a] >> u) & 1


# Covers, lengths and pairs against the rank walk and composition; the
# rotation of D4 reaches a second Coxeter element.
WALK_CELLS = ["A1", "A2", "A3", "B2", "B3", "B4", "G2", "D4", "D5", "F4", "E6"]


def test_walk_and_pairs_against_rank_walk_and_composition():
    cells = [rsys(name) for name in WALK_CELLS] + _rotated(rsys("D4"))[1:]
    for rs in cells:
        walk = cover_walk_by_ranks(rs)
        tables = _interval_tables(rs)
        elems = absolute_interval(rs)
        assert set(elems) == set(walk), rs.typespec
        assert all(tables.lengths[a] == w.length for a, w in enumerate(elems))
        for b, v in enumerate(elems):
            assert {elems[a] for a in lower_covers(tables, b)} == set(walk[v])
        pairs = pairs_by_composition(walk)
        listed = {
            (elems[w], elems[u]): elems[q]
            for u in range(len(elems))
            for w, q in zip(*tables.pairs(u))
        }
        assert listed == pairs, rs.typespec


def test_reflection_words_read_off_the_tables():
    """The word table of ``dump nc``, built in index order from the
    covers, is ``weyl.reflection_word`` of every element of [1, c]."""
    cells = [rsys(name) for name in ["A3", "B4", "D5", "F4", "E6"]] + _rotated(rsys("D4"))[1:]
    for rs in cells:
        words = noncrossing._reflection_words(rs)
        assert words == tuple(map(reflection_word, absolute_interval(rs))), rs.typespec


def test_poset_masks_against_pairwise_oracle():
    for name, k in ORACLE_CELLS:
        for rs in _rotated(rsys(name)):
            leq = leq_rows_by_pairs(absolute_interval(rs))
            poset = masked_nc_poset(rs, k)
            seqs = build_nc_poset(rs, k).elements
            assert set(seqs) == set(enumerate_delta_sequences(rs, k))
            position = {w: p for p, w in enumerate(interval_by_filtering(rs))}
            elems = absolute_interval(rs)
            lengths = _interval_tables(rs).lengths
            keys = [
                (rs.n - lengths[s[0]], [position[elems[a]] for a in s[1:]])
                for s in seqs
            ]
            assert keys == sorted(keys)
            down = down_masks_by_pairs(poset.elements, poset.ranks, leq)
            assert poset.down == down
            for a, up in enumerate(poset.up):
                for b in range(len(down)):
                    assert bool((up >> b) & 1) == bool((down[b] >> a) & 1)


def test_delta_sequences_counted_by_fuss_catalan():
    for name, k in [
        ("A1", 3), ("A2", 1), ("A2", 2), ("A2", 3),
        ("B2", 2), ("G2", 2), ("A3", 2), ("B3", 2), ("D4", 1),
    ]:
        rs = rsys(name)
        seqs = enumerate_delta_sequences(rs, k)
        assert len(seqs) == fuss_catalan_number(rs, k)
        c = coxeter_element(rs)
        elems = absolute_interval(rs)
        for seq in seqs:
            parts = [elems[a] for a in seq]
            acc = parts[0]
            for part in parts[1:]:
                acc = compose(acc, part)
            assert acc == c
            assert sum(p.length for p in parts) == rs.n


def test_rank_via_first_part():
    """The rank n - l_T(d_0) read off the tables' lengths is the
    group element's corank and the sum of the other parts' lengths."""
    rs = rsys("B2")
    lengths = _interval_tables(rs).lengths
    elems = absolute_interval(rs)
    for seq in enumerate_delta_sequences(rs, 2):
        rank = rs.n - lengths[seq[0]]
        assert rank == rs.n - elems[seq[0]].length
        assert rank == sum(elems[a].length for a in seq[1:])


def test_nc_json_matches_the_group_element_path():
    """The index-tuple words of ``dump nc`` are byte for byte those of
    sequences of group elements, each part spelled by
    ``weyl.reflection_word``."""
    cells = [("B3", 2), ("D4", 1), ("F4", 1), ("G2", 3), ("A1xB2", 2)]
    cases = [(rsys(name), k) for name, k in cells] + [(_rotated(rsys("D4"))[1], 1)]
    for rs, k in cases:
        assert noncrossing.nc_json(rs, k) == _json_bytes(
            nc_json_by_elements(rs, k)
        ), (rs.typespec, k)


def test_poset_is_graded_with_unique_bottom():
    for name, k in [("A2", 2), ("B2", 2), ("A3", 1), ("G2", 3)]:
        rs = rsys(name)
        poset = masked_nc_poset(rs, k)
        mins = [a for a, m in enumerate(poset.down) if m == (1 << a)]
        assert len(mins) == 1
        assert poset.ranks[mins[0]] == 0
        for b in range(len(poset.elements)):
            m = covers_of(poset, b)
            while m:
                a = (m & -m).bit_length() - 1
                assert poset.ranks[b] == poset.ranks[a] + 1
                m &= m - 1


def test_moebius_against_recursive_oracle():
    for name, k in [("A2", 1), ("A2", 2), ("B2", 1), ("B2", 2), ("A3", 1)]:
        rs = rsys(name)
        poset = masked_nc_poset(rs, k)
        size = len(poset.elements)
        leq_pairs = {
            (a, b) for a in range(size) for b in range(size) if poset.leq(a, b)
        }
        oracle = moebius_by_inversion(leq_pairs, size)
        for (a, b), mu in oracle.items():
            assert moebius(poset, a, b) == mu
        with pytest.raises(UsageError):
            incomparable = next(
                (a, b)
                for a in range(size)
                for b in range(size)
                if (a, b) not in leq_pairs
            )
            moebius(poset, *incomparable)


def test_narayana_vector_matches_rank_histogram():
    for name, k in [("A2", 2), ("B2", 3), ("A3", 2), ("G2", 2), ("B3", 2)]:
        rs = rsys(name)
        vec = narayana_vector(rs, k)
        assert sum(vec) == fuss_catalan_number(rs, k)
        hist = masked_nc_poset(rs, k).rank_histogram()
        assert vec == tuple(reversed(hist))
        assert narayana_numbers(rs, k) == vec


def test_m_triangle_anchors():
    # rank one: k - ky + xy (two interval entries per maximal element,
    # one bottom pair; checked by hand against the Moebius sum)
    for k in (1, 2, 3):
        assert m_triangle(rsys("A1"), k) == BivarPoly(
            {(0, 0): k, (0, 1): -k, (1, 1): 1}
        )
    # (0,0) counts maximal elements, (n,n) the unique bottom, and the
    # whole sum telescopes to the bottom's indicator
    for name, k in [("A2", 1), ("A2", 2), ("B2", 2), ("A3", 1)]:
        rs = rsys(name)
        m = m_triangle(rs, k)
        assert m.coeff(0, 0) == narayana_vector(rs, k)[0]
        assert m.coeff(rs.n, rs.n) == 1
        assert m.evaluate(1, 1) == 1


def test_m_triangle_word_independent():
    for name in ["A2", "B2", "A3"]:
        rs, rotated = _rotated(rsys(name))
        assert m_triangle(rotated, 2) == m_triangle(rs, 2)
        assert narayana_vector(rotated, 2) == narayana_vector(rs, 2)


def test_k_validation():
    with pytest.raises(UsageError):
        enumerate_delta_sequences(rsys("A2"), 0)
    with pytest.raises(UsageError):
        m_triangle(rsys("A2"), 0)
    with pytest.raises(UsageError):
        sequence_count(rsys("A2"), 0)


def test_m_triangle_matches_moebius_sum_oracle():
    cells = ORACLE_CELLS + [("B4", 2), ("D4", 3), ("F4", 2)]
    for name, k in cells:
        for rs in _rotated(rsys(name)):
            assert m_triangle(rs, k) == m_triangle_by_moebius(rs, k), (name, k)


def test_pair_table_lists_every_comparable_pair():
    for name in ["A3", "B3", "G2", "A1xB2", "D4"]:
        for rs in _rotated(rsys(name)):
            tables = _interval_tables(rs)
            elems = absolute_interval(rs)
            leq = leq_rows_by_pairs(elems)
            for u in range(len(elems)):
                low, quot = tables.pairs(u)
                assert sorted(low) == [
                    w for w in range(len(elems)) if (leq[w] >> u) & 1
                ]
                for w, q in zip(low, quot):
                    assert elems[q] == compose(inverse(elems[w]), elems[u])
            assert [elems[q] for q in tables.comp] == [
                compose(inverse(w), coxeter_element(rs)) for w in elems
            ]


def test_g_at_k1_is_moebius_of_the_interval():
    for name in ["A2", "A3", "B3", "G2", "A1xB2", "D4"]:
        for rs in _rotated(rsys(name)):
            tables = _interval_tables(rs)
            leq = leq_rows_by_pairs(absolute_interval(rs))
            size = len(leq)
            leq_pairs = {
                (a, b) for a in range(size) for b in range(size) if (leq[a] >> b) & 1
            }
            mu = moebius_by_inversion(leq_pairs, size)
            g = _moebius_rows(rs, 1)
            for u in range(size):
                for w, q in zip(*tables.pairs(u)):
                    assert g[q] == mu[(w, u)]


def test_m_triangle_bottom_row_is_positive_catalan():
    """At k = 1 the coefficient of y^n in M(0, y) is (-1)^n Cat+(W), with
    Cat+(W) = prod (h + d_i - 2) / d_i over the degrees d_i.  E8 reads
    17 342 (computed once, about 6 s; too slow for this suite)."""
    for name in ["B4", "D4", "F4", "E6", "E7"]:
        rs = rsys(name)
        ((family, n),) = rs.typespec.factors
        h = rs.coxeter_number
        num = den = 1
        for d in degrees(family, n):
            num *= h + d - 2
            den *= d
        assert num % den == 0
        assert m_triangle(rs, 1).coeff(0, n) == (-1) ** n * (num // den), name


def test_multichain_counts_match_pairwise_oracle():
    for name in ["A1", "A3", "B3", "G2", "A1xB2", "D4"]:
        for rs in _rotated(rsys(name)):
            for j in range(4):
                assert _multichain_counts(rs, j) == multichain_counts_by_pairs(rs, j)


def test_multichain_counts_past_rank_match_the_loop():
    """Past j = n the counts are read off j = 0..n by Lagrange's formula."""
    for name in ["B3", "D4", "F4", "A1xB2"]:
        rs = rsys(name)
        for j in range(rs.n + 1, rs.n + 8):
            assert _multichain_counts(rs, j) == multichain_counts_by_pairs(rs, j), (name, j)


def test_multichain_counts_need_no_loop_over_j():
    assert _multichain_counts(rsys("A1"), 10**7) == (1, 10**7 + 1)
    rs = rsys("B3")
    assert sequence_count(rs, 50) == fuss_catalan_number(rs, 50)


def test_m_triangle_checks_its_total(monkeypatch):
    """A wrong g makes M(1, 1) differ from 1, and the build refuses it."""
    rs = rsys("B3")
    wrong = _moebius_rows(rs, 3)
    m_triangle.cache_clear()
    monkeypatch.setattr(noncrossing, "_moebius_rows", lambda rs, k: wrong)
    try:
        with pytest.raises(InternalInvariantError, match=r"M\(1, 1\)"):
            m_triangle(rs, 2)
    finally:
        monkeypatch.undo()
        m_triangle.cache_clear()
    assert m_triangle(rs, 2).evaluate(1, 1) == 1


@settings(max_examples=25, deadline=None)
@given(small_products(), st.integers(1, 3))
def test_m_triangle_and_count_on_random_products(name, k):
    rs = rsys(name)
    assert m_triangle(rs, k) == m_triangle_by_moebius(rs, k)
    assert sequence_count(rs, k) == len(enumerate_delta_sequences(rs, k))
