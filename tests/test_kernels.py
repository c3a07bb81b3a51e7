"""Kernel tests that need only the pure core; tests/test_kernels_compiled.py
compares the pure and compiled cores."""
import os
import subprocess
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fct import _purecore, kernels
from fct.nonnesting import _chain_data

from conftest import rsys


def test_env_forces_pure_backend():
    code = "from fct import kernels; print(kernels.BACKEND)"
    for value in ("python", "pure"):
        env = dict(os.environ, FCT_BACKEND=value)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.stdout.strip() == "python"


def fraction_rank(mat):
    rows = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda rows: st.integers(min_value=1, max_value=6).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


@settings(max_examples=150)
@given(matrices)
def test_int_rank_matches_fraction_elimination(mat):
    expected = fraction_rank(mat)
    assert _purecore.int_rank(mat) == expected
    assert kernels.int_rank(mat) == expected


def test_int_rank_degenerate():
    assert kernels.int_rank([[0, 0], [0, 0]]) == 0
    assert kernels.int_rank([[1]]) == 1


# path a - b - c with a tagged: cliques {}, a, b, c, ab, bc
HAND_GRAPH = [0b010, 0b101, 0b010]
HAND_CENSUS = (
    {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 1, (2, 0): 1},
    {2: 2},
)


def test_clique_census_hand_graph():
    assert _purecore.clique_census(HAND_GRAPH, 3, 1) == HAND_CENSUS
    assert kernels.clique_census(HAND_GRAPH, 3, 1) == HAND_CENSUS
    assert kernels.clique_census([], 0, 0) == ({(0, 0): 1}, {0: 1})


def test_nn_chains_sorted_and_nested():
    rs = rsys("B2")
    filters, subs, full = _chain_data(rs, 3)
    chains = kernels.nn_chains(filters, subs, rs.sum_triples, 3, full)
    assert chains == sorted(chains)
    for masks in chains:
        for a, b in zip(masks, masks[1:]):
            assert b & ~a == 0


NN_K1_TYPES = ["A1", "A2", "A3", "B2", "B3", "G2", "D4", "A1xB2", "F4"]


def k1_subfilter_lists_unused(core):
    """nn_chains and nn_census of ``core`` at k=1 give the same result with
    the empty subfilter lists of _chain_data(rs, 1) as with full ones."""
    for name in NN_K1_TYPES:
        rs = rsys(name)
        filters, empty, full = _chain_data(rs, 1)
        assert empty == ((),) * len(filters)
        _, subs, _ = _chain_data(rs, 2)
        args = (rs.sum_triples, 1, full)
        assert core.nn_chains(filters, empty, *args) == core.nn_chains(filters, subs, *args)
        census = (rs.sum_triples, rs.pair_lists, 1, full, len(rs.positive_roots), rs.n)
        assert core.nn_census(filters, empty, *census) == core.nn_census(
            filters, subs, *census
        )


def test_k1_chain_data_pure_core():
    k1_subfilter_lists_unused(_purecore)
