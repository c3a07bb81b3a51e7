import tracemalloc
from fractions import Fraction

import pytest

from fct import arrangement, cli, grid
from fct.arrangement import (
    ceilings_poly,
    feasible,
    is_bounded,
    regions_of,
    wall_report,
)
from fct.errors import InternalInvariantError, UsageError
from fct.verify import run_identity
from fct import nonnesting
from fct.nonnesting import (
    enumerate_chains,
    h_triangle,
    indecomposables,
    indecomposables_by_rank,
    levels,
)
from fct.weyl import simple_reflection
from fct.poly import BivarPoly, ceiling_specialization
from fct.cluster import positive_h_poly

from conftest import rsys
from oracles import (
    cut_system,
    full_system,
    interior_point,
    is_bounded_by_fm,
    is_wall_by_fm,
    levels_of_point,
    relabelled,
    verify_disjoint,
    wall_report_by_fm,
    walls_by_fm_on_cut,
)

SMALL = [("A1", 1), ("A1", 2), ("A2", 1), ("A2", 2), ("B2", 1), ("B2", 2), ("G2", 1)]


def _floors(walls, lv) -> tuple:
    """The walls from lower rows of positive colour."""
    return tuple((r, c) for r, c in walls if 0 < c == lv[r])


def _ceilings(walls, lv) -> tuple:
    """The walls from upper rows."""
    return tuple((r, c) for r, c in walls if c == lv[r] + 1)


def test_feasible_toy_systems():
    # rows are (coeffs, rhs, strict) meaning coeffs . t > rhs (or >=)
    assert feasible([((1,), 0, True), ((-1,), -1, True)], 1)
    assert not feasible([((1,), 1, True), ((-1,), 0, True)], 1)
    assert feasible([((1, 0), 0, False), ((0, 1), 0, False)], 2)
    # equality via two opposite non-strict rows
    assert feasible([((1,), 2, False), ((-1,), -2, False)], 1)
    assert not feasible([((1,), 2, True), ((-1,), -2, False)], 1)


def test_interior_point_satisfies_system():
    for name, k in SMALL:
        rs = rsys(name)
        for lv in regions_of(rs, k):
            rows = full_system(rs, k, lv)
            point = interior_point(rows, rs.n)
            for coeffs, rhs, strict in rows:
                val = sum(Fraction(c) * p for c, p in zip(coeffs, point))
                assert val > rhs if strict else val >= rhs


def test_regions_biject_with_chains():
    for name, k in SMALL:
        rs = rsys(name)
        chains = enumerate_chains(rs, k)
        regions = tuple(regions_of(rs, k))
        assert len(regions) == len(chains)
        for ch, lv in zip(chains, regions):
            assert lv == levels(rs, ch)


def test_interior_point_recovers_levels():
    for name, k in SMALL:
        rs = rsys(name)
        for lv in regions_of(rs, k):
            point = interior_point(full_system(rs, k, lv), rs.n)
            assert levels_of_point(rs, k, point) == lv


def test_levels_of_point_rejects_hyperplane_points():
    rs = rsys("A2")
    with pytest.raises(UsageError):
        levels_of_point(rs, 1, (Fraction(1), Fraction(0)))


def test_regions_pairwise_disjoint():
    for name, k in SMALL:
        rs = rsys(name)
        ok, detail = verify_disjoint(rs, k)
        assert ok, detail


def test_a1_region_walls():
    rs = rsys("A1")
    low, high = regions_of(rs, 1)  # chains sorted: empty filter first
    assert low == (0,)
    assert is_bounded(rs, 1, low)
    walls = wall_report(rs, 1, low)
    assert walls == ((0, 0), (0, 1))
    assert _floors(walls, low) == ()
    assert _ceilings(walls, low) == ((0, 1),)

    assert high == (1,)
    assert not is_bounded(rs, 1, high)
    walls = wall_report(rs, 1, high)
    assert _floors(walls, high) == ((0, 1),)
    assert _ceilings(walls, high) == ()


def test_wall_detection_a2():
    rs = rsys("A2")
    # the region of the full filter chain has both simple walls at colour 1
    full = (1, 1, 1)
    assert full in regions_of(rs, 1)
    assert is_wall_by_fm(rs, 1, full, 0, 1)
    assert is_wall_by_fm(rs, 1, full, 1, 1)
    assert not is_wall_by_fm(rs, 1, full, 2, 1)  # the highest root hyperplane is implied
    assert _floors(wall_report(rs, 1, full), full) == ((0, 1), (1, 1))


def test_colour_zero_walls_are_neither_floor_nor_ceiling():
    for name, k in [("A2", 1), ("B2", 1), ("A2", 2)]:
        rs = rsys(name)
        for lv in regions_of(rs, k):
            walls = wall_report(rs, k, lv)
            floors, ceilings = _floors(walls, lv), _ceilings(walls, lv)
            for r, colour in walls:
                assert colour in (lv[r], lv[r] + 1)
                flagged = (r, colour) in floors or (r, colour) in ceilings
                assert flagged == (colour >= 1)


def test_ceilings_poly_anchors():
    assert ceilings_poly(rsys("A1"), 1) == BivarPoly({(1, 0): 1})
    assert ceilings_poly(rsys("A2"), 1) == BivarPoly({(1, 0): 1, (2, 0): 1})


def test_ceilings_poly_equals_h_specialization():
    for name, k in SMALL + [("A3", 1), ("B3", 1)]:
        rs = rsys(name)
        assert ceilings_poly(rs, k) == ceiling_specialization(h_triangle(rs, k))
        assert ceilings_poly(rs, k) == positive_h_poly(rs, k)


def test_floor_correspondence():
    for name, k in SMALL + [("A3", 1), ("B3", 1)]:
        rs = rsys(name)
        detail = run_identity("phi", rs, k)
        assert detail is None, (name, k, detail)


def test_floors_literally_match_indecomposables():
    rs = rsys("B2")
    for ch in enumerate_chains(rs, 2):
        lv = levels(rs, ch)
        floors = _floors(wall_report(rs, 2, lv), lv)
        for i in (1, 2):
            expected = {(r, i) for r in indecomposables(rs, ch, i)}
            got = {(r, c) for r, c in floors if c == i}
            assert got == expected


def test_region_walls_computed_once_per_cell(monkeypatch):
    """pos, ceil and final share `ceilings_poly`, so on one cell each
    region's walls are read once."""
    seen = []
    build = arrangement.wall_report

    def counting_wall_report(rs, k, levels):
        seen.append(levels)
        return build(rs, k, levels)

    monkeypatch.setattr(arrangement, "wall_report", counting_wall_report)
    rs = rsys("B3")
    ceilings_poly.cache_clear()
    for identity in ("pos", "ceil", "final"):
        assert run_identity(identity, rs, 1) is None
    assert seen == list(regions_of(rs, 1))
    ceilings_poly.cache_clear()


def test_regions_of_is_lazy_in_chain_order(monkeypatch):
    """`regions_of` makes each level vector only when it is asked for."""
    made = []
    make = nonnesting.levels

    def counting_levels(rs, chain):
        made.append(chain)
        return make(rs, chain)

    monkeypatch.setattr(nonnesting, "levels", counting_levels)
    rs = rsys("B3")
    chains = enumerate_chains(rs, 2)
    regions = regions_of(rs, 2)
    assert made == []
    assert next(regions) == make(rs, chains[0])
    assert made == [chains[0]]
    assert list(regions) == [make(rs, ch) for ch in chains[1:]]
    assert made == list(chains)


def test_ceilings_poly_holds_no_region():
    """Once the chains are listed, `ceilings_poly` reads each region and
    keeps only its polynomial.  On D4 k=2 (336 regions, CPython 3.11) a
    cache of one wall report per region held 225 KB after the call and
    peaked at 229 KB; the fold holds 0.4 KB and peaks at 1.2 KB.  The
    bounds sit between the two."""
    rs = rsys("D4")
    first = levels(rs, enumerate_chains(rs, 2)[0])
    wall_report(rs, 2, first)  # builds rs.sum_triples outside the trace
    ceilings_poly.cache_clear()
    tracemalloc.start()
    try:
        ceilings_poly(rs, 2)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 8_000, held
    assert peak < 16_000, peak


def test_wall_reports_match_fm_oracle():
    # every cell where the acceptance grid runs pos, ceil or phi, plus D4, F4,
    # a reducible system and k = 3
    cells = [(name, k) for name in ("A1", "A2", "A3", "B2", "B3", "G2") for k in (1, 2)]
    cells += [("D4", 1), ("D4", 2), ("F4", 1), ("A1xB2", 2), ("G2", 3)]
    systems = [(rsys(name), k) for name, k in cells]
    systems.append((relabelled(rsys("B3"), (1, 0, 2)), 2))
    for rs, k in systems:
        for lv in regions_of(rs, k):
            where = (str(rs.typespec), k, lv)
            assert wall_report(rs, k, lv) == wall_report_by_fm(rs, k, lv), where
            assert is_bounded(rs, k, lv) == is_bounded_by_fm(rs, k, lv), where


def _on_kept_row(rs, kept, wall) -> bool:
    """Whether the wall (root index, colour) lies on a kept row, lower
    or upper."""
    r, colour = wall
    root = rs.positive_roots[r]
    return (root, colour, True) in kept or (
        tuple(-c for c in root), -colour, True
    ) in kept


def test_irredundant_rows_are_rows_of_the_system():
    for name, k in [("A3", 2), ("B3", 2), ("G2", 3)]:
        rs = rsys(name)
        for lv in regions_of(rs, k):
            full = full_system(rs, k, lv)
            kept = cut_system(rs, k, lv)
            assert [row for row in full if row in kept] == kept
            # the full system's walls all survive the cut
            for wall in wall_report(rs, k, lv):
                assert _on_kept_row(rs, kept, wall), (name, k, wall)


def test_heaviest_e7_regions():
    """The E7 k=1 regions whose wall tests took longest on the full
    system: floors are the indecomposables, every wall is a row of the
    cut system, and Fourier-Motzkin finds the same walls."""
    rs = rsys("E7")
    chains = enumerate_chains(rs, 1)
    for i in (1160, 2072, 998, 1803):
        lv = levels(rs, chains[i])
        walls = wall_report(rs, 1, lv)
        expected = {
            (r, l)
            for l, roots in enumerate(indecomposables_by_rank(rs, chains[i]), 1)
            for r in roots
        }
        assert set(_floors(walls, lv)) == expected, i
        kept = cut_system(rs, 1, lv)
        for wall in walls:
            assert _on_kept_row(rs, kept, wall), (i, wall)
        assert walls == walls_by_fm_on_cut(rs, 1, lv), i


def _arrangement_cells():
    """The cells (name, k, identities) where `grid extended` runs the
    arrangement identities."""
    return [cell for cell in grid.cells("extended") if "pos" in cell[2]]


def test_regions_with_walls_are_the_nonempty_ones():
    """The direct emptiness test agrees with the wall search: on every
    cell where `grid extended` runs the arrangement identities, FM finds
    each region's cut system feasible, and each region has a wall."""
    for name, k, _ in _arrangement_cells():
        rs = rsys(name)
        for lv in regions_of(rs, k):
            assert feasible(cut_system(rs, k, lv), rs.n), (name, k, lv)
            assert wall_report(rs, k, lv), (name, k, lv)


def test_region_without_walls_raises():
    # t1 > 1, t2 > 1 and t1 + t2 < 1: no point, so no wall
    with pytest.raises(InternalInvariantError, match="empty region"):
        wall_report(rsys("A2"), 1, (1, 1, 0))


def test_fundamental_alcove_keeps_its_n_plus_1_rows():
    """The region with every level 0 at k = 1 is the fundamental alcove:
    the simple roots' lower rows and the highest root's upper row imply
    every other row, and they are its walls."""
    for name in ["A3", "B3", "C3", "D4", "F4", "G2", "E6", "E7", "E8"]:
        rs = rsys(name)
        region = (0,) * len(rs.positive_roots)
        top = len(rs.positive_roots) - 1
        theta = rs.positive_roots[top]
        alcove = [(root, 0, True) for root in rs.positive_roots[: rs.n]]
        alcove.append((tuple(-c for c in theta), -1, True))
        assert cut_system(rs, 1, region) == alcove, name
        walls = tuple((i, 0) for i in range(rs.n)) + ((top, 1),)
        assert wall_report(rs, 1, region) == walls, name


def test_wall_reports_match_the_cut_fm_oracle():
    """Every region of the `grid extended` arrangement cells, E6 k=1
    among them: the walls read off the level vector are those that
    Fourier-Motzkin finds among the rows of the cut system."""
    cells = [(name, k) for name, k, _ in _arrangement_cells()]
    assert ("E6", 1) in cells
    for name, k in cells:
        rs = rsys(name)
        for lv in regions_of(rs, k):
            assert wall_report(rs, k, lv) == walls_by_fm_on_cut(rs, k, lv), (name, k, lv)


def test_colour_zero_walls_are_the_reflection_invariant_regions():
    """t_i = 0 is a wall exactly when alpha_i is at level 0 and the level
    vector is invariant under the simple reflection s_i."""
    for name, k in [("A3", 2), ("B3", 2), ("C3", 2), ("G2", 3), ("D4", 2), ("F4", 1)]:
        rs = rsys(name)
        images = [
            [abs(s) - 1 for s in simple_reflection(rs, i).img] for i in range(rs.n)
        ]
        for lv in regions_of(rs, k):
            walls = set(wall_report(rs, k, lv))
            for i, image in enumerate(images):
                invariant = lv[i] == 0 and all(
                    lv[image[b]] == lv[b] for b in range(len(lv)) if b != i
                )
                assert ((i, 0) in walls) == invariant, (name, k, lv, i)


def test_arrangement_requests_run_no_fm(monkeypatch, capsys):
    def no_fm(*args):
        raise AssertionError("a Fourier-Motzkin run")

    monkeypatch.setattr(arrangement, "feasible", no_fm)
    ceilings_poly.cache_clear()
    for name, k, identities in _arrangement_cells():
        rs = rsys(name)
        for identity in [i for i in identities if i in grid.GEOMETRIC]:
            detail = run_identity(identity, rs, k)
            assert detail is None, (identity, name, k, detail)
        assert cli.main(["dump", "regions", "--type", name, "-k", str(k)]) == 0
    capsys.readouterr()
    ceilings_poly.cache_clear()
