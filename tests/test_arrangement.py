from fractions import Fraction

import pytest

from fct.arrangement import (
    Region,
    ceilings_poly,
    feasible,
    is_bounded,
    regions_of,
    wall_report,
    wall_reports,
)
from fct.cli import _grid_cells
from fct.errors import InternalInvariantError, UsageError
from fct.grid import _applicable
from fct.verify import run_identity
from fct.nonnesting import enumerate_chains, h_triangle, indecomposables
from fct.poly import BivarPoly, ceiling_specialization
from fct.cluster import positive_h_poly

from conftest import rsys
from oracles import (
    interior_point,
    is_bounded_by_fm,
    is_wall_by_fm,
    levels_of_point,
    relabelled,
    verify_disjoint,
    wall_report_by_fm,
)

SMALL = [("A1", 1), ("A1", 2), ("A2", 1), ("A2", 2), ("B2", 1), ("B2", 2), ("G2", 1)]


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
        for region in regions_of(rs, k):
            point = interior_point(region.system(), rs.n)
            for coeffs, rhs, strict in region.system():
                val = sum(Fraction(c) * p for c, p in zip(coeffs, point))
                assert val > rhs if strict else val >= rhs


def test_regions_biject_with_chains():
    for name, k in SMALL:
        rs = rsys(name)
        chains = enumerate_chains(rs, k)
        regions = regions_of(rs, k)
        assert len(regions) == len(chains)
        for ch, region in zip(chains, regions):
            assert region.levels == ch.levels()


def test_interior_point_recovers_levels():
    for name, k in SMALL:
        rs = rsys(name)
        for region in regions_of(rs, k):
            point = interior_point(region.system(), rs.n)
            assert levels_of_point(rs, k, point) == region.levels


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
    assert low.levels == (0,)
    assert is_bounded(low)
    rep = wall_report(low)
    assert rep.walls == ((0, 0), (0, 1))
    assert rep.floors == ()
    assert rep.ceilings == ((0, 1),)
    assert rep.coloured_ceiling_count(1) == 1

    assert high.levels == (1,)
    assert not is_bounded(high)
    rep = wall_report(high)
    assert rep.floors == ((0, 1),)
    assert rep.ceilings == ()


def test_wall_detection_a2():
    rs = rsys("A2")
    # the region of the full filter chain has both simple walls at colour 1
    full = [r for r in regions_of(rs, 1) if r.levels == (1, 1, 1)][0]
    assert is_wall_by_fm(full, 0, 1)
    assert is_wall_by_fm(full, 1, 1)
    assert not is_wall_by_fm(full, 2, 1)  # the highest root hyperplane is implied
    assert wall_report(full).floors == ((0, 1), (1, 1))


def test_colour_zero_walls_are_neither_floor_nor_ceiling():
    for name, k in [("A2", 1), ("B2", 1), ("A2", 2)]:
        rs = rsys(name)
        for region in regions_of(rs, k):
            rep = wall_report(region)
            for r, colour in rep.floors + rep.ceilings:
                assert colour >= 1
            for r, colour in rep.walls:
                flagged = (r, colour) in rep.floors or (r, colour) in rep.ceilings
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
        result = run_identity("phi", rs, k)
        assert result.ok, result.line()


def test_floors_literally_match_indecomposables():
    rs = rsys("B2")
    for ch in enumerate_chains(rs, 2):
        rep = wall_report(Region(rs, 2, ch.levels()))
        for i in (1, 2):
            expected = {(r, i) for r in indecomposables(ch, i)}
            got = {(r, c) for r, c in rep.floors if c == i}
            assert got == expected


def test_wall_reports_built_once_per_cell(monkeypatch):
    import fct.arrangement

    calls = [0]
    fm = fct.arrangement.feasible

    def counting_feasible(rows, n):
        calls[0] += 1
        return fm(rows, n)

    monkeypatch.setattr(fct.arrangement, "feasible", counting_feasible)
    rs = rsys("B3")
    wall_reports.cache_clear()
    wall_reports(rs, 2)
    one_build = calls[0]
    assert one_build > 0
    wall_reports.cache_clear()
    calls[0] = 0
    for identity in ("pos", "ceil", "phi"):
        assert run_identity(identity, rs, 2).ok
    assert calls[0] == one_build
    wall_reports.cache_clear()


def test_wall_reports_follow_chain_order():
    for name, k in SMALL:
        rs = rsys(name)
        chains = enumerate_chains(rs, k)
        reports = wall_reports(rs, k)
        assert len(reports) == len(chains)
        for ch, rep in zip(chains, reports):
            assert rep == wall_report(Region(rs, k, ch.levels()))


def test_wall_reports_match_fm_oracle():
    # every cell where the acceptance grid runs pos, ceil or phi, plus D4, F4,
    # a reducible system and k = 3
    cells = [(name, k) for name in ("A1", "A2", "A3", "B2", "B3", "G2") for k in (1, 2)]
    cells += [("D4", 1), ("D4", 2), ("F4", 1), ("A1xB2", 2), ("G2", 3)]
    systems = [(rsys(name), k) for name, k in cells]
    systems.append((relabelled(rsys("B3"), (1, 0, 2)), 2))
    for rs, k in systems:
        for region, report in zip(regions_of(rs, k), wall_reports(rs, k)):
            assert report == wall_report_by_fm(region), (str(rs.typespec), k)


def test_every_row_is_tested_by_fm(monkeypatch):
    import fct.arrangement

    calls = [0]
    fm = fct.arrangement.feasible

    def counting_feasible(rows, n):
        calls[0] += 1
        return fm(rows, n)

    monkeypatch.setattr(fct.arrangement, "feasible", counting_feasible)
    for name, k in [("A3", 2), ("B3", 2), ("G2", 2)]:
        rs = rsys(name)
        for region in regions_of(rs, k):
            calls[0] = 0
            wall_report(region)
            assert calls[0] >= len(region.system()), (name, k, region.levels)


def test_irredundant_rows_are_rows_of_the_system():
    for name, k in [("A3", 2), ("B3", 2), ("G2", 3)]:
        rs = rsys(name)
        for region in regions_of(rs, k):
            full = region.system()
            kept = region.irredundant_system()
            assert [row for row in full if row in kept] == kept
            # the full system's walls all survive the cut
            for wall in wall_report(region).walls:
                r, colour = wall
                root = rs.positive_roots[r]
                assert (root, colour, True) in kept or (
                    tuple(-c for c in root), -colour, True
                ) in kept


def test_regions_with_walls_are_the_nonempty_ones():
    """The direct emptiness test agrees with the wall search: on every
    cell where `grid extended` runs the arrangement identities, FM finds
    each region's irredundant system feasible, and each region has a
    wall."""
    for name, k, only in _grid_cells("extended"):
        rs = rsys(name)
        if not _applicable("pos", rs, k, "extended", only):
            continue
        for region, report in zip(regions_of(rs, k), wall_reports(rs, k)):
            assert feasible(region.irredundant_system(), rs.n), (name, k, region.levels)
            assert report.walls, (name, k, region.levels)


def test_region_without_walls_raises():
    # t1 > 1, t2 > 1 and t1 + t2 < 1: no point, so no wall
    with pytest.raises(InternalInvariantError, match="empty region"):
        wall_report(Region(rsys("A2"), 1, (1, 1, 0)))


def test_fundamental_alcove_keeps_its_n_plus_1_rows():
    """Region 0 at k = 1 is the fundamental alcove: the simple roots'
    lower rows and the highest root's upper row imply every other row."""
    for name in ["A3", "B3", "C3", "D4", "F4", "G2", "E6", "E7"]:
        rs = rsys(name)
        region = Region(rs, 1, (0,) * len(rs.positive_roots))
        theta = rs.positive_roots[-1]
        alcove = [(root, 0, True) for root in rs.positive_roots[: rs.n]]
        alcove.append((tuple(-c for c in theta), -1, True))
        assert region.irredundant_system() == alcove, name
