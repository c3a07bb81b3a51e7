import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fct import noncrossing
from fct.errors import InternalInvariantError, UsageError
from fct.noncrossing import (
    _interval_tables,
    _moebius_rows,
    _multichain_counts,
    _pair_table,
    absolute_interval,
    build_nc_poset,
    enumerate_delta_sequences,
    m_triangle,
    narayana_number,
    rank,
    sequence_count,
)
from fct.poly import BivarPoly
from fct.rootsys import fuss_catalan_number
from fct.weyl import absolute_length, compose, coxeter_element, inverse

from conftest import rsys
from oracles import (
    covers_of,
    down_masks_by_pairs,
    interval_by_filtering,
    leq_rows_by_pairs,
    m_triangle_by_moebius,
    masked_nc_poset,
    moebius,
    moebius_by_inversion,
    multichain_counts_by_pairs,
    narayana_vector,
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
            assert absolute_length(w) + absolute_length(rest) == rs.n


ORACLE_CELLS = [
    ("A1", 3), ("A2", 2), ("A3", 2), ("B2", 2), ("B3", 2),
    ("G2", 2), ("D4", 1), ("A1xB2", 2),
]


def _words(rs):
    return [None, tuple(range(1, rs.n)) + (0,)]


def test_interval_tables_against_pairwise_oracles():
    for name, _ in ORACLE_CELLS:
        rs = rsys(name)
        for word in _words(rs):
            elems, _, leq, lengths, _, lower = _interval_tables(rs, word)
            assert elems == absolute_interval(rs, word) == interval_by_filtering(rs, word)
            assert leq == leq_rows_by_pairs(elems)
            assert lengths == tuple(absolute_length(w) for w in elems)
            for b, covered in enumerate(lower):
                for a in covered:
                    assert lengths[a] == lengths[b] - 1 and (leq[a] >> b) & 1


def test_poset_masks_against_pairwise_oracle():
    for name, k in ORACLE_CELLS:
        rs = rsys(name)
        for word in _words(rs):
            leq = leq_rows_by_pairs(absolute_interval(rs, word))
            poset = masked_nc_poset(rs, k, word)
            seqs = build_nc_poset(rs, k, word).elements
            assert set(seqs) == set(enumerate_delta_sequences(rs, k, word))
            assert [(rank(rs, s), s.slot_ids) for s in seqs] == sorted(
                (rank(rs, s), s.slot_ids) for s in seqs
            )
            down = down_masks_by_pairs(poset.elements, poset.ranks, leq)
            assert poset.down == down
            for a, up in enumerate(poset.up):
                for b in range(len(down)):
                    assert bool((up >> b) & 1) == bool((down[b] >> a) & 1)


def test_default_word_shares_one_cache_entry():
    rs = rsys("B3")
    assert enumerate_delta_sequences(rs, 2) is enumerate_delta_sequences(rs, 2, None)
    assert build_nc_poset(rs, 2) is build_nc_poset(rs, 2, tuple(range(rs.n)))
    assert m_triangle(rs, 2) is m_triangle(rs, 2, word=None)
    assert _pair_table(rs) is _pair_table(rs, None) is _pair_table(rs, range(rs.n))
    assert _moebius_rows(rs, 2) is _moebius_rows(rs, 2, None)
    assert _moebius_rows(rs, 2) is _moebius_rows(rs, k=2, word=tuple(range(rs.n)))


def test_delta_sequences_counted_by_fuss_catalan():
    for name, k in [
        ("A1", 3), ("A2", 1), ("A2", 2), ("A2", 3),
        ("B2", 2), ("G2", 2), ("A3", 2), ("B3", 2), ("D4", 1),
    ]:
        rs = rsys(name)
        seqs = enumerate_delta_sequences(rs, k)
        assert len(seqs) == fuss_catalan_number(rs, k)
        c = coxeter_element(rs)
        for seq in seqs:
            acc = seq.parts[0]
            for part in seq.parts[1:]:
                acc = compose(acc, part)
            assert acc == c
            assert sum(absolute_length(p) for p in seq.parts) == rs.n


def test_rank_via_first_part():
    rs = rsys("B2")
    for seq in enumerate_delta_sequences(rs, 2):
        assert rank(rs, seq) == rs.n - absolute_length(seq.parts[0])


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
        for i, v in enumerate(vec):
            assert narayana_number(rs, k, i) == v


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
    from fct.weyl import simple_reflection

    for name in ["A2", "B2", "A3"]:
        rs = rsys(name)
        rotated = tuple(range(1, rs.n)) + (0,)
        assert m_triangle(rs, 2, rotated) == m_triangle(rs, 2)
        assert narayana_vector(rs, 2, rotated) == narayana_vector(rs, 2)


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
        rs = rsys(name)
        for word in _words(rs):
            assert m_triangle(rs, k, word) == m_triangle_by_moebius(rs, k, word), (
                name, k, word,
            )


def test_pair_table_lists_every_comparable_pair():
    for name in ["A3", "B3", "G2", "A1xB2", "D4"]:
        rs = rsys(name)
        for word in _words(rs):
            elems, index, leq, _, _, _ = _interval_tables(rs, word)
            for u, below in enumerate(_pair_table(rs, word)):
                assert [w for w, _ in below] == [
                    w for w in range(len(elems)) if (leq[w] >> u) & 1
                ]
                for w, q in below:
                    assert elems[q] == compose(inverse(elems[w]), elems[u])


def test_g_at_k1_is_moebius_of_the_interval():
    for name in ["A2", "A3", "B3", "G2", "A1xB2", "D4"]:
        rs = rsys(name)
        for word in _words(rs):
            elems, _, leq, _, _, _ = _interval_tables(rs, word)
            size = len(elems)
            leq_pairs = {
                (a, b) for a in range(size) for b in range(size) if (leq[a] >> b) & 1
            }
            mu = moebius_by_inversion(leq_pairs, size)
            g = _moebius_rows(rs, 1, word)
            for u, below in enumerate(_pair_table(rs, word)):
                for w, q in below:
                    assert g[q] == mu[(w, u)]


def test_multichain_counts_match_pairwise_oracle():
    for name in ["A1", "A3", "B3", "G2", "A1xB2", "D4"]:
        rs = rsys(name)
        for word in _words(rs):
            for j in range(4):
                assert _multichain_counts(rs, j, word) == multichain_counts_by_pairs(
                    rs, j, word
                )


def test_m_triangle_checks_its_total(monkeypatch):
    """A wrong g makes M(1, 1) differ from 1, and the build refuses it."""
    rs = rsys("B3")
    wrong = _moebius_rows(rs, 3)
    m_triangle.cache_clear()
    monkeypatch.setattr(noncrossing, "_moebius_rows", lambda rs, k, word: wrong)
    try:
        with pytest.raises(InternalInvariantError, match=r"M\(1, 1\)"):
            m_triangle(rs, 2)
    finally:
        monkeypatch.undo()
        m_triangle.cache_clear()
    assert m_triangle(rs, 2).evaluate(1, 1) == 1


SMALL_FACTORS = {"A1": 1, "A2": 2, "A3": 3, "B2": 2, "G2": 2}


@st.composite
def small_products(draw):
    factors = draw(
        st.lists(st.sampled_from(sorted(SMALL_FACTORS)), min_size=1, max_size=4)
    )
    keep = []
    for f in factors:
        if sum(SMALL_FACTORS[g] for g in keep) + SMALL_FACTORS[f] <= 4:
            keep.append(f)
    return "x".join(keep)


@settings(max_examples=25, deadline=None)
@given(small_products(), st.integers(1, 3))
def test_m_triangle_and_count_on_random_products(name, k):
    rs = rsys(name)
    assert m_triangle(rs, k) == m_triangle_by_moebius(rs, k)
    assert sequence_count(rs, k) == len(enumerate_delta_sequences(rs, k))
