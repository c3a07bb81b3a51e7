"""Acceptance suite: one test per criterion, each over its full grid.

Every check is exact; a single monomial or count off anywhere on the
grid fails the criterion.  Each test prints one PASS line so a -s run
reads as a checklist.
"""
import itertools

from conftest import rsys
from oracles import (
    covers_of,
    enumerate_faces,
    faces_to_incidence,
    h_vector,
    is_filter,
    is_geometric,
    mask_at,
    masked_nc_poset,
    verify_disjoint,
)

from fct import arrangement, cluster, ehrhart, nonnesting, noncrossing, verify
from fct.poly import (
    BivarPoly,
    require_f_support,
    require_h_support,
    require_m_support,
)
from fct.rootsys import fuss_catalan_number

GRID = [
    (name, k) for name in ("A1", "A2", "A3", "B2", "B3", "G2") for k in (1, 2, 3)
] + [(name, k) for name in ("D4", "F4") for k in (1, 2)]

LATTICE_GRID = [
    (name, k)
    for name in ("A1", "A2", "A3", "B2", "B3", "G2", "F4")
    for k in (1, 2)
]

ARRANGEMENT_GRID = [
    (name, k)
    for name, k in GRID
    if name in ("A1", "A2", "A3", "B2", "B3", "G2") and k <= 2
]

K1_TYPES = ("A1", "A2", "A3", "B2", "B3", "G2", "D4", "F4")


def check(identity, cells):
    for name, k in cells:
        detail = verify.run_identity(identity, rsys(name), k)
        assert detail is None, (identity, name, k, detail)


def test_acceptance_1_three_way_counts():
    check("counts", GRID)
    a2 = rsys("A2")
    for k, expected in ((1, 5), (2, 12), (3, 22)):
        assert fuss_catalan_number(a2, k) == expected
        assert len(nonnesting.enumerate_chains(a2, k)) == expected
    print("ACCEPTANCE 1: PASS - chains, facets, delta sequences and the "
          "closed formula agree on all %d grid cells" % len(GRID))


def test_acceptance_2_narayana_three_ways():
    for name, k in GRID:
        rs = rsys(name)
        hist = nonnesting.indecomposable_histogram(rs, k)
        nar = tuple(
            noncrossing.narayana_number(rs, k, i) for i in range(rs.n + 1)
        )
        h = h_vector(rs, k)
        assert hist == nar, (name, k, hist, nar)
        assert all(h[rs.n - i] == nar[i] for i in range(rs.n + 1)), (name, k, h, nar)
    print("ACCEPTANCE 2: PASS - indecomposable histogram, rank-refined "
          "counts and reversed h-vector agree on all %d cells" % len(GRID))


def test_acceptance_3_lattice_route():
    check("lattice-nar", LATTICE_GRID)
    for name in ("G2", "F4"):
        assert ehrhart.quasi_period(rsys(name)) in (1, 2)
    print("ACCEPTANCE 3: PASS - simplex wall counts at t=kh+1 match both "
          "families on %d cells, quasi-period in {1,2}" % len(LATTICE_GRID))


def test_acceptance_4_h_equals_f():
    check("h=f", GRID)
    print("ACCEPTANCE 4: PASS - the H-triangle equals the transformed "
          "F-triangle on all %d cells" % len(GRID))


def test_acceptance_5_specialization_and_derivatives():
    check("y1-nar", GRID)
    check("dh", GRID)
    check("df", GRID)
    print("ACCEPTANCE 5: PASS - H(x,1) and both parabolic derivative "
          "identities hold on all %d cells" % len(GRID))


def test_acceptance_6_bijection():
    check("bij", GRID)
    print("ACCEPTANCE 6: PASS - chain restriction is a bijection with exact "
          "indecomposable bookkeeping on all %d cells" % len(GRID))


def test_acceptance_7_corollaries():
    k1_cells = [(name, 1) for name in K1_TYPES]
    check("k1", k1_cells)
    check("dual", k1_cells)
    check("recip", k1_cells)
    check("h=m", GRID)
    check("m=f", GRID)
    check("pos", ARRANGEMENT_GRID)
    check("ceil", ARRANGEMENT_GRID)
    check("final", [(name, 1) for name in ("A1", "A2", "A3", "B2", "B3", "G2")])
    assert nonnesting.h_triangle(rsys("A2"), 1) == BivarPoly(
        {(0, 0): 1, (1, 0): 1, (1, 1): 2, (2, 2): 1}
    )
    assert arrangement.ceilings_poly(rsys("A2"), 1) == BivarPoly(
        {(2, 0): 1, (1, 0): 1}
    )
    assert noncrossing.m_triangle(rsys("A1"), 1) == BivarPoly(
        {(0, 0): 1, (0, 1): -1, (1, 1): 1}
    )
    print("ACCEPTANCE 7: PASS - k=1 form, H=M, M=F, reciprocity, duality, "
          "positive part, ceilings and the bottom row check out, micro "
          "oracles included")


def test_acceptance_8_structural_suites():
    for name, k in ARRANGEMENT_GRID + [("D4", 1), ("F4", 1)]:
        rs = rsys(name)
        for chain in nonnesting.enumerate_chains(rs, k):
            assert is_geometric(rs, chain)
            masks = (mask_at(rs, chain, 0),) + chain
            assert all(a | b == a for a, b in zip(masks, masks[1:]))
            assert all(is_filter(rs, m) for m in chain)

    for name, k in GRID:
        rs = rsys(name)
        require_h_support(nonnesting.h_triangle(rs, k))
        require_f_support(cluster.f_triangle(rs, k), rs.n)
        require_m_support(noncrossing.m_triangle(rs, k))
        assert set(cluster.build_complex(rs, k).maximal_sizes) == {rs.n}

    # flag-ness: every pairwise compatible set is a face
    for name, k in (("A1", 3), ("A2", 2), ("B2", 2)):
        rs = rsys(name)
        faces = set(enumerate_faces(rs, k))
        masks = cluster.compat_masks(rs, k)
        nv = cluster.vertex_count(rs, k)
        for size in range(rs.n + 1):
            for combo in itertools.combinations(range(nv), size):
                is_clique = all(
                    (masks[u] >> v) & 1 for u, v in itertools.combinations(combo, 2)
                )
                assert is_clique == (combo in faces), (name, k, combo)

    for name, k in (("A2", 2), ("B2", 2), ("A3", 1), ("G2", 2), ("B3", 1)):
        poset = masked_nc_poset(rsys(name), k)
        size = len(poset.elements)
        bottoms = [a for a in range(size) if poset.down[a] == 1 << a]
        assert len(bottoms) == 1 and poset.ranks[bottoms[0]] == 0
        for b in range(size):
            m = covers_of(poset, b)
            while m:
                a = (m & -m).bit_length() - 1
                assert poset.ranks[b] == poset.ranks[a] + 1
                m &= m - 1
            if poset.up[b] == 1 << b:
                assert poset.ranks[b] == poset.rs.n

    for name in ("A1", "A2", "B2", "G2"):
        rs = rsys(name)
        h = ehrhart.simplex_model(rs).h
        for t in (1, h + 1):
            assert faces_to_incidence(rs, t) == ehrhart.count_by_walls(rs, t).counts

    for name, k in ARRANGEMENT_GRID:
        rs = rsys(name)
        ok, detail = verify_disjoint(rs, k)
        assert ok, (name, k, detail)
        detail = verify.run_identity("phi", rs, k)
        assert detail is None, (name, k, detail)

    print("ACCEPTANCE 8: PASS - chain, support, complex, poset, simplex and "
          "region invariants hold on their sub-grids")
