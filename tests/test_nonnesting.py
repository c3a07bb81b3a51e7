import pytest

from fct import ehrhart, kernels, nonnesting
from fct.errors import ResourceLimitError, UsageError
from fct.nonnesting import (
    _decomposition_ranks,
    chain_statistics,
    chains_json,
    enumerate_chains,
    enumerate_filters,
    extend_chain,
    h_triangle,
    h_triangles,
    indecomposable_histogram,
    indecomposables,
    restrict_chain,
)
from fct.poly import BivarPoly
from fct.rootsys import ENUMERATION_LIMIT, fuss_catalan_number, parabolic

from conftest import rsys
from oracles import (
    brute_chains,
    brute_filters,
    chain_root_sets,
    flat_decomposition_rank,
    indecomposables_per_root,
    is_filter,
    is_geometric,
    mask_at,
    simple_indecomposables,
)

CHAIN_COUNTS = {
    ("A1", 1): 2, ("A1", 2): 3, ("A1", 3): 4,
    ("A2", 1): 5, ("A2", 2): 12, ("A2", 3): 22,
    ("B2", 1): 6, ("B2", 2): 15, ("B2", 3): 28,
    ("G2", 1): 8, ("G2", 2): 21, ("G2", 3): 40,
    ("A3", 1): 14, ("A3", 2): 55, ("A3", 3): 140,
    ("B3", 1): 20, ("B3", 2): 84, ("B3", 3): 220,
    ("D4", 1): 50, ("D4", 2): 336,
    ("F4", 1): 105, ("F4", 2): 780,
}


def test_enumerate_filters_against_brute_force():
    for name in ["A1", "A1xA1", "A2", "B2", "A3", "G2", "B3"]:
        rs = rsys(name)
        roots = rs.positive_roots
        filters = enumerate_filters(rs)
        assert list(filters) == sorted(filters)
        got = {
            frozenset(roots[i] for i in range(len(roots)) if (m >> i) & 1)
            for m in filters
        }
        assert got == brute_filters(rs)
        for m in filters:
            assert is_filter(rs, m)
    # past brute force: every mask is a filter, and there are Cat(W) of them
    for name in ["D4", "F4", "B2xG2", "E6"]:
        rs = rsys(name)
        filters = enumerate_filters(rs)
        assert len(set(filters)) == fuss_catalan_number(rs, 1), name
        assert all(is_filter(rs, m) for m in filters), name


def test_is_filter_rejects_non_filters():
    rs = rsys("A2")
    # {alpha_1} alone is not upward closed
    assert not is_filter(rs, 0b001)
    assert is_filter(rs, 0)
    assert is_filter(rs, 0b111)


def test_enumerate_chains_against_brute_force():
    for name, kmax in [("A1", 3), ("A2", 3), ("B2", 2), ("G2", 2), ("A3", 2)]:
        rs = rsys(name)
        for k in range(1, kmax + 1):
            got = {
                tuple(chain_root_sets(rs, ch))
                for ch in enumerate_chains(rs, k)
            }
            assert got == brute_chains(rs, k), (name, k)


def test_chain_counts_match_catalan():
    for (name, k), count in CHAIN_COUNTS.items():
        rs = rsys(name)
        stats = chain_statistics(rs, k)
        assert len(stats) == k
        assert sum(stats[-1].values()) == count
        assert fuss_catalan_number(rs, k) == count


def test_chains_are_geometric_and_sorted():
    for name, k in [("A2", 2), ("B2", 2), ("G2", 2), ("A3", 2)]:
        rs = rsys(name)
        chains = enumerate_chains(rs, k)
        assert list(chains) == sorted(chains)
        assert len(set(chains)) == len(chains)
        for ch in chains:
            assert is_geometric(rs, ch)
            assert len(ch) == k
            assert all(a | b == a for a, b in zip(ch, ch[1:]))


def nested_chains(rs, k):
    """Every nested tuple of k filters, no chain condition checked."""
    filters = enumerate_filters(rs)
    out = [()]
    for _ in range(k):
        out = [ch + (f,) for ch in out for f in filters if not ch or f & ~ch[-1] == 0]
    return out


def test_wrapped_condition_is_redundant():
    """The chain walk checks the pairs i + j <= k only.  The literal
    check of every pair (is_geometric, wrapped pairs included) accepts
    each chain it returns, they are all the geometric chains, and the
    prefixes of length m of the k-chains are exactly the m-chains."""
    for name in ["A3", "B3", "G2", "D4", "A1xB2"]:
        rs = rsys(name)
        chains = {k: enumerate_chains(rs, k) for k in range(1, 5)}
        for k, found in chains.items():
            masks = set(found)
            assert len(masks) == fuss_catalan_number(rs, k), (name, k)
            assert all(is_geometric(rs, ch) for ch in found), (name, k)
            if len(enumerate_filters(rs)) <= 20:
                brute = {ch for ch in nested_chains(rs, k) if is_geometric(rs, ch)}
                assert masks == brute, (name, k)
            for m in range(1, k):
                assert {ch[:m] for ch in masks} == set(chains[m]), (name, k, m)


def test_h_triangles_match_per_k():
    for name in ["A2", "B3", "G2", "D4", "A1xB2"]:
        rs = rsys(name)
        top = rs.n + 4
        family = h_triangles(rs, top)
        assert len(family) == top
        for k in range(1, top + 1):
            assert family[k - 1] == h_triangle(rs, k), (name, k)


def test_h_triangles_resource_bound(monkeypatch):
    """The family census is bounded by the exact number of chains it
    visits, before any work: E6 at k = 1..10 and E8 at k = 1..3 exit, F4
    and D4 at k = 1..n+4 stay in bounds."""

    def no_work(*args):
        raise AssertionError("the census started")

    monkeypatch.setattr(nonnesting, "_chain_data", no_work)
    monkeypatch.setattr(kernels, "nn_census_family", no_work)
    with pytest.raises(ResourceLimitError, match="166255385 chains"):
        h_triangles(rsys("E6"), 10)
    with pytest.raises(ResourceLimitError, match="23855289 chains"):
        h_triangles(rsys("E8"), 3)
    for name, visited in [("F4", 219548), ("D4", 86318)]:
        rs = rsys(name)
        assert sum(fuss_catalan_number(rs, m) for m in range(1, rs.n + 5)) == visited
        assert visited <= ENUMERATION_LIMIT
    with pytest.raises(UsageError):
        h_triangles(rsys("A2"), 0)


def test_chain_statistics_resource_bound(monkeypatch):
    """The single-k census walk visits the chains of every k' <= k, and
    their exact number bounds it before any work: E8 exits at k = 3, and
    E8 and E7 at k = 2 reach the walk."""

    def no_work(*args):
        raise AssertionError("the census started")

    monkeypatch.setattr(nonnesting, "_chain_data", no_work)
    with pytest.raises(ResourceLimitError, match="23855289 chains"):
        chain_statistics(rsys("E8"), 3)
    for name, visited in [("E8", 1546002), ("E7", 148370)]:
        rs = rsys(name)
        assert sum(fuss_catalan_number(rs, m) for m in (1, 2)) == visited
        assert visited <= ENUMERATION_LIMIT
        with pytest.raises(AssertionError, match="the census started"):
            chain_statistics(rs, 2)


def test_chain_levels():
    for name, k in [("A2", 2), ("B3", 3), ("G2", 3)]:
        rs = rsys(name)
        roots = range(len(rs.positive_roots))
        chains = enumerate_chains(rs, k)
        for ch, row in zip(chains, chains_json(rs, k), strict=True):
            levels = nonnesting.levels(rs, ch)
            for r in roots:
                expected = max(
                    [i for i in range(1, k + 1) if (mask_at(rs, ch, i) >> r) & 1],
                    default=0,
                )
                assert levels[r] == expected
            assert row == [[r for r in roots if (m >> r) & 1] for m in ch]


def test_max_decomposition_rank_against_flat_search():
    for name, k in [("A2", 2), ("A2", 3), ("B2", 2), ("G2", 2)]:
        rs = rsys(name)
        for ch in enumerate_chains(rs, k):
            levels = nonnesting.levels(rs, ch)
            best = _decomposition_ranks(rs, levels)
            for r in range(len(rs.positive_roots)):
                assert best[r] == flat_decomposition_rank(rs, levels, r), (name, k, r)


def test_indecomposables_match_per_root_oracle():
    for name in ["A3", "B3", "D4"]:
        rs = rsys(name)
        for k in (1, 2, 3):
            for ch in enumerate_chains(rs, k):
                for l in range(1, k + 1):
                    assert indecomposables(rs, ch, l) == indecomposables_per_root(
                        rs, ch, l
                    ), (name, k, ch, l)


def test_census_matches_literal_indecomposables():
    for name, k in [("A2", 2), ("B2", 2), ("A3", 2), ("G2", 2), ("B3", 1)]:
        rs = rsys(name)
        stats = chain_statistics(rs, k)[k - 1]
        literal = {}
        for ch in enumerate_chains(rs, k):
            key = (
                len(indecomposables(rs, ch, k)),
                len(simple_indecomposables(rs, ch, k)),
            )
            literal[key] = literal.get(key, 0) + 1
        assert stats == literal, (name, k)


def test_h_triangle_anchor():
    assert h_triangle(rsys("A2"), 1) == BivarPoly(
        {(0, 0): 1, (1, 0): 1, (1, 1): 2, (2, 2): 1}
    )
    # histogram rows sum to the chain count
    rs = rsys("B3")
    hist = indecomposable_histogram(rs, 2)
    assert sum(hist) == 84
    assert len(hist) == 4
    # H(x, 1) from the cached triangle is the literal count over the chains
    literal = [0] * 4
    for ch in enumerate_chains(rs, 2):
        literal[len(indecomposables(rs, ch, 2))] += 1
    assert hist == tuple(literal)


def test_e8_k1_census_matches_the_wall_counts():
    """E8's 120 roots are wider than a machine word, and at k = 1 the
    census reads every filter's free roots off the ``free`` recurrence;
    E7 at k = 2 lists its groups of children between their bounds.  On
    both H(x, 1) is the Ehrhart wall-incidence row, and H(1, 1) is the
    Fuss-Catalan number."""
    assert len(rsys("E8").positive_roots) == 120
    for name, k, count in [("E8", 1, 25080), ("E7", 2, 144210)]:
        rs = rsys(name)
        assert indecomposable_histogram(rs, k) == ehrhart.n_k_i(rs, k), name
        assert h_triangle(rs, k).evaluate(1, 1) == fuss_catalan_number(rs, k) == count


def test_restrict_extend_roundtrip():
    for name, k in [("A2", 2), ("B2", 2), ("A3", 1), ("G2", 2)]:
        rs = rsys(name)
        for ch in enumerate_chains(rs, k):
            for a in range(rs.n):
                if not (ch[-1] >> a) & 1:
                    with pytest.raises(UsageError):
                        restrict_chain(rs, ch, a)
                    continue
                sub = restrict_chain(rs, ch, a)
                assert sub in enumerate_chains(parabolic(rs, a), k)
                assert is_geometric(parabolic(rs, a), sub)
                assert extend_chain(rs, sub, a) == ch


def test_extend_chain_validates_parent():
    rs = rsys("A2")
    ch = enumerate_chains(rs, 1)[-1]
    assert ch == (0b111,)  # the full filter: three roots, the parabolic A1 has one
    with pytest.raises(UsageError):
        extend_chain(rs, ch, 0)  # chain must live in the parabolic


def test_chain_enumeration_resource_bound(monkeypatch):
    """The listing walk visits the chains of every k' <= k, and their
    exact number bounds it: F4 at k = 40 exits before any work, E6 at
    k = 3 starts."""

    class Started(Exception):
        pass

    def started(*args):
        raise Started

    monkeypatch.setattr(nonnesting, "_chain_data", started)
    with pytest.raises(ResourceLimitError, match="421055116 chains"):
        enumerate_chains.__wrapped__(rsys("F4"), 40)
    rs = rsys("E6")
    assert sum(fuss_catalan_number(rs, m) for m in (1, 2, 3)) == 137387 <= ENUMERATION_LIMIT
    with pytest.raises(Started):
        enumerate_chains.__wrapped__(rs, 3)
    with pytest.raises(ResourceLimitError, match="17980631 chains"):
        enumerate_chains.__wrapped__(rs, 7)


def test_k_validation():
    rs = rsys("A2")
    with pytest.raises(UsageError):
        enumerate_chains(rs, 0)
    with pytest.raises(UsageError):
        chain_statistics(rs, -1)

