"""The compiled kernel core against the pure one; tests/test_kernels.py
holds the kernel tests that need only the pure core."""
import pytest
from hypothesis import given, settings

from fct import _purecore, kernels
from fct.cluster import compat_masks
from fct.nonnesting import _chain_data

from conftest import rsys
from test_kernels import (
    HAND_CENSUS,
    HAND_GRAPH,
    fraction_rank,
    k1_subfilter_lists_unused,
    matrices,
)

_fast = pytest.importorskip(
    "fct._fastcore",
    reason="the compiled core fct._fastcore is not built; "
    "these tests compare it with the pure core",
)


def test_backend_is_compiled_by_default():
    assert kernels.BACKEND == "compiled"


def test_weyl_closure_backends_agree():
    from fct.weyl import simple_reflection

    for name in ["A2", "B2", "A3", "G2", "B3", "D4", "F4"]:
        rs = rsys(name)
        gens = tuple(simple_reflection(rs, i).img for i in range(rs.n))
        pure = _purecore.weyl_closure(gens, 10**7)
        fast = _fast.weyl_closure(gens, 10**7)
        assert pure == fast
        with pytest.raises(_purecore.LimitExceeded):
            _purecore.weyl_closure(gens, len(pure) - 1)
        with pytest.raises(_fast.LimitExceeded):
            _fast.weyl_closure(gens, len(pure) - 1)
        # the dispatcher translates the compiled exception
        with pytest.raises(kernels.LimitExceeded):
            kernels.weyl_closure(gens, len(pure) - 1)


@settings(max_examples=150)
@given(matrices)
def test_compiled_int_rank_matches_fraction_elimination(mat):
    assert _fast.int_rank(mat) == fraction_rank(mat)


def test_compiled_clique_census_hand_graph():
    assert _fast.clique_census(HAND_GRAPH, 3, 1) == HAND_CENSUS


def test_clique_census_backends_agree():
    for name, k in [("A3", 2), ("B3", 2), ("G2", 3), ("D4", 2), ("F4", 2)]:
        rs = rsys(name)
        masks = compat_masks(rs, k)
        assert _purecore.clique_census(masks, len(masks), rs.n) == _fast.clique_census(
            masks, len(masks), rs.n
        )


def test_clique_census_wide_masks():
    # more than 64 vertices exercises the two-word bitmask path
    for name, k in [("B3", 7), ("A3", 11), ("D4", 5)]:
        rs = rsys(name)
        masks = compat_masks(rs, k)
        assert len(masks) >= 63
        assert _purecore.clique_census(masks, len(masks), rs.n) == _fast.clique_census(
            masks, len(masks), rs.n
        )


def test_nn_backends_agree():
    for name in ["A2", "B2", "A3", "B3", "G2", "D4", "F4"]:
        rs = rsys(name)
        triples = rs.sum_triples
        nroots = len(rs.positive_roots)
        for k in (1, 2, 3):
            filters, subs, full = _chain_data(rs, k)
            assert _purecore.nn_chains(filters, subs, triples, k, full) == (
                _fast.nn_chains(filters, subs, triples, k, full)
            )
            assert _purecore.nn_census(
                filters, subs, triples, rs.pair_lists, k, full, nroots, rs.n
            ) == _fast.nn_census(
                filters, subs, triples, rs.pair_lists, k, full, nroots, rs.n
            )


def test_k1_chain_data_compiled_core():
    k1_subfilter_lists_unused(_fast)


def test_family_census_matches_compiled_per_k():
    for name in ["D4", "F4"]:
        rs = rsys(name)
        top = rs.n + 4
        filters, subs, full = _chain_data(rs, top)
        family = _purecore.nn_census_family(filters, subs, rs.sum_triples, top, full, rs.n)
        for k in range(1, top + 1):
            assert family[k - 1] == _fast.nn_census(
                filters, subs, rs.sum_triples, rs.pair_lists, k, full,
                len(rs.positive_roots), rs.n,
            ), (name, k)
