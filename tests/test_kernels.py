"""Kernel tests that need only the pure core; tests/test_kernels_compiled.py
compares the pure and compiled cores."""
import os
import re
import subprocess
import sys
from fractions import Fraction
from operator import mul
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fct import _purecore, kernels
from fct.nonnesting import _chain_data

from conftest import rsys
from oracles import census_per_leaf, is_filter, subfilter_table


def test_env_forces_pure_backend():
    code = "from fct import kernels; print(kernels.BACKEND)"
    env = dict(os.environ, FCT_BACKEND="python")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "python"


def fraction_rref(mat):
    """The nonzero rows of the reduced row echelon form, in Fractions,
    and their pivot columns."""
    rows = [[Fraction(x) for x in row] for row in mat]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rows[rank] = [a / rows[rank][col] for a in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def fraction_rank(mat):
    return len(fraction_rref(mat)[1])


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
    """Rank, d * RREF and kernel of the one fraction-free Gauss-Jordan
    elimination against the reduced form in Fractions."""
    rref, expected_pivots = fraction_rref(mat)
    expected = len(expected_pivots)
    assert _purecore.int_rank(mat) == expected
    assert kernels.int_rank(mat) == expected
    rows, pivots, d, _ = _purecore.gauss_jordan(mat)
    assert pivots == expected_pivots
    assert rows[:expected] == [[d * x for x in row] for row in rref]
    assert not any(map(any, rows[expected:]))
    kernel = _purecore.null_space(mat)
    assert len(kernel) == len(mat[0]) - expected
    if kernel:
        assert fraction_rank(kernel) == len(kernel)
    for y in kernel:
        for row in mat:
            assert sum(map(mul, row, y)) == 0


def fraction_det(mat):
    rows = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(len(rows)):
        piv = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            f = rows[r][col] / rows[col][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


square_matrices = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=150)
@given(square_matrices)
def test_bareiss_det_matches_fraction_elimination(mat):
    """Rank, determinant and adjugate: mat adj = det I when det != 0."""
    det, adj = _purecore.adjugate(mat)
    assert det == fraction_det(mat)
    assert _purecore.int_rank(mat) == fraction_rank(mat)
    if det:
        cols = list(zip(*adj))
        assert [[sum(map(mul, row, col)) for col in cols] for row in mat] == [
            [det * (i == j) for j in range(len(mat))] for i in range(len(mat))
        ]
    else:
        assert adj is None


def test_bareiss_det_row_swaps():
    """The determinant keeps the sign of the row swaps; rank and
    determinant of degenerate and empty matrices."""
    for mat, rank, det in [
        ([[0, 1], [1, 0]], 2, -1),
        ([[0, 0, 2], [0, 3, 0], [5, 0, 0]], 3, -30),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 3, 1),
        ([], 0, 1),
        ([[1, 2], [2, 4]], 1, 0),
    ]:
        assert _purecore.adjugate(mat)[0] == det, mat
        assert _purecore.int_rank(mat) == rank, mat
    assert _purecore.int_rank([[1, 2, 3], [4, 5, 6]]) == 2
    assert _purecore.adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
    assert _purecore.adjugate([[2, -1], [-1, 2]]) == (3, [[2, 1], [1, 2]])


def test_kernels_off_the_request_paths_are_pure():
    """Only the tests and the benchmark call the rank, closure and
    per-k census kernels, and every chain walk is the pure family walk,
    so all of them are the pure ones, whatever the backend."""
    assert kernels.int_rank is _purecore.int_rank
    assert kernels.weyl_closure is _purecore.weyl_closure
    assert kernels.nn_chains is _purecore.nn_chains
    assert kernels.nn_census is _purecore.nn_census
    assert kernels.nn_census_family is _purecore.nn_census_family


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
    empty subfilter lists as with the full table."""
    for name in NN_K1_TYPES:
        rs = rsys(name)
        filters, _, full = _chain_data(rs, 1)
        empty = ((),) * len(filters)
        subs = subfilter_table(filters)
        args = (rs.sum_triples, 1, full)
        assert core.nn_chains(filters, empty, *args) == core.nn_chains(filters, subs, *args)
        census = (rs.sum_triples, rs.pair_lists, 1, full, len(rs.positive_roots), rs.n)
        assert core.nn_census(filters, empty, *census) == core.nn_census(
            filters, subs, *census
        )


def test_k1_chain_data_pure_core():
    k1_subfilter_lists_unused(_purecore)


FAMILY_TYPES = ["A1", "A2", "A3", "B2", "B3", "G2", "D4", "A1xB2"]


def test_family_census_matches_per_leaf_oracle():
    """A walk to any depth K gives, at every k <= K, the histogram of the
    per-leaf statistic over the chains of k filters; nn_census at K is
    its last entry.  Every depth runs: K <= 3 records no state, and from
    K = 4 on the loop that picks I_{K-3} records them inline, picking I_1
    at K = 4 and I_2 at K = 5 and reading the pair (3, K - 3) from K = 6
    on.  F4 to depth 8 is the grid's costliest census, and its states
    group several chains each."""
    for name in FAMILY_TYPES + ["F4", "C3", "B2xG2"]:
        rs = rsys(name)
        top = rs.n + 4
        filters, subs, full = _chain_data(rs, top)
        expected = [
            census_per_leaf(rs, _purecore.nn_chains(filters, subs, rs.sum_triples, k, full))
            for k in range(1, top + 1)
        ]
        for depth in range(1, top + 1):
            family = kernels.nn_census_family(filters, rs.sum_triples, depth, full, rs.n)
            assert list(family) == expected[:depth], (name, depth)
            assert _purecore.nn_census(
                filters, subs, rs.sum_triples, rs.pair_lists, depth, full,
                len(rs.positive_roots), rs.n,
            ) == expected[depth - 1], (name, depth)
    assert kernels.nn_census_family(filters, rs.sum_triples, 0, full, rs.n) == ()


def test_squares_match_direct_pass():
    """The recurrence over ascending and descending filters gives, for
    every filter, the sums within it and within its complement that one
    pass over all the root sums gives."""
    for name in FAMILY_TYPES + ["F4", "E6", "E7"]:
        rs = rsys(name)
        filters, _, full = _chain_data(rs, 1)
        width = full.bit_length()
        both = [(1 << a | 1 << b, 1 << c) for a, b, c in rs.sum_triples]
        direct = []
        for f in filters:
            s = t = 0
            for ab, c in both:
                if f & ab == ab:
                    s |= c
                elif not f & ab:
                    t |= c
            direct.append(s | t << width)
        assert _purecore.squares(filters, rs.sum_triples, width) == direct, name


def test_walk_lower_bounds_are_filters():
    """Every lower bound L that the walk forms is an order filter, as the
    bracket argument of _walk's docstring shows, so each group is the
    filters between L and I_{m-1} - U, the same as a scan of all the
    subfilters of I_{m-1} against both bounds."""
    formed = 0
    for name in FAMILY_TYPES:
        rs = rsys(name)
        top = rs.n + 4
        filters, _, full = _chain_data(rs, top)
        tally, _, group = _purecore._walk(filters, rs.sum_triples, top, full)
        nf, width = len(filters), full.bit_length()
        subs = subfilter_table(filters)
        keys = {key for level in tally for key in level}
        lows = {key // nf & full for key in keys}
        formed += len(lows)
        assert all(is_filter(rs, low) for low in lows), name
        for key in keys:
            low, high = key // nf & full, key // nf >> width
            scan = tuple(
                g for g in subs[key % nf]
                if low & ~filters[g] == 0 and not high & filters[g]
            )
            assert group(key) == scan, (name, key)
    assert formed > 2 * len(FAMILY_TYPES)


def test_filters_between_needs_low_inside_allowed():
    up = _purecore.upper_masks(rsys("A2").sum_triples, 3)
    between = _purecore.filters_between(0b100, 0b111, up)
    assert sorted(between) == [0b100, 0b101, 0b110, 0b111]
    assert _purecore.filters_between(0b100, 0b011, up) == []


def test_shipped_c_matches_pyx():
    """Every source line the generated _fastcore.c quotes from
    _fastcore.pyx (the line Cython marks with "# <<<<<<<<<<<<<<" under a
    '/* "fct/_fastcore.pyx":N' header) equals line N of the .pyx."""
    src = Path(__file__).resolve().parents[1] / "src" / "fct"
    c_lines = (src / "_fastcore.c").read_text().splitlines()
    pyx_lines = (src / "_fastcore.pyx").read_text().splitlines()
    marker = "# <<<<<<<<<<<<<<"
    quoted = 0
    for at, line in enumerate(c_lines):
        header = re.fullmatch(r'\s*/\* "fct/_fastcore\.pyx":(\d+)', line)
        if header is None:
            continue
        n = int(header.group(1))
        body = at + 1
        while marker not in c_lines[body]:
            assert c_lines[body].startswith(" * "), (at, c_lines[body])
            body += 1
        text = c_lines[body][3:].split(marker)[0].rstrip()
        assert text == pyx_lines[n - 1].rstrip(), (n, text)
        quoted += 1
    assert quoted > 300
