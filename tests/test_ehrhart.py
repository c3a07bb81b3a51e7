import pytest

from fct import noncrossing, nonnesting, verify
from fct.ehrhart import (
    count_by_walls,
    ehrhart_csv,
    n_k_i,
    quasi_period,
    simplex_model,
    simplex_period,
    wall_histograms,
)
from fct.errors import ResourceLimitError, UsageError
from fct.nonnesting import indecomposable_histogram
from fct.rootsys import fuss_catalan_number

from conftest import rsys
from oracles import (
    count_by_faces,
    faces_to_incidence,
    narayana_vector,
    walls_by_dp_at,
    walls_by_enumeration,
    yspace_wall_histogram,
)

PERIODS = {"A1": 2, "A2": 3, "B2": 2, "A3": 4, "B3": 4, "G2": 6, "F4": 12}
QUASI_PERIODS = {"A1": 1, "A2": 1, "B2": 1, "A3": 1, "B3": 2, "G2": 1, "F4": 1}


def test_simplex_model_basics():
    for name in PERIODS:
        rs = rsys(name)
        model = simplex_model(rs)
        assert model.h == rs.coxeter_number
        assert model.h == 1 + sum(model.c)
        assert model.det >= 1
    assert simplex_model(rsys("F4")).det == 1
    assert simplex_model(rsys("G2")).det == 1
    with pytest.raises(UsageError):
        simplex_model(rsys("A1xA1"))


def test_wall_counts_micro():
    assert count_by_walls(rsys("A1"), 3).counts == (1, 1)
    assert count_by_walls(rsys("A2"), 4).counts == (1, 3, 1)


def test_dilation_zero_origin_on_all_walls():
    for name in ["A1", "A2", "B2", "A3"]:
        rs = rsys(name)
        wc = count_by_walls(rs, 0)
        assert len(wc.counts) == rs.n + 2
        assert wc.total == 1
        assert wc.counts[rs.n + 1] == 1
    with pytest.raises(UsageError):
        count_by_walls(rsys("A2"), -1)


def test_one_dp_serves_every_smaller_dilation():
    for name in ["A1", "A2", "A3", "B2", "B3", "G2", "F4"]:
        rs = rsys(name)
        top = 2 * rs.coxeter_number + 1
        histograms = wall_histograms(rs, top)
        assert len(histograms) == top + 1
        assert len(histograms[0]) == rs.n + 2
        for t in range(top + 1):
            assert histograms[t] == walls_by_dp_at(rs, t), (name, t)


def test_lattice_dp_is_bounded_before_it_starts():
    rs = rsys("A1")
    with pytest.raises(ResourceLimitError, match="800000008 states"):
        wall_histograms(rs, 2 * 10**8 + 1)
    with pytest.raises(ResourceLimitError):
        n_k_i(rs, 10**8)
    with pytest.raises(ResourceLimitError, match="800000008 states"):
        ehrhart_csv(rs, 10**8)
    with pytest.raises(UsageError):
        wall_histograms(rs, -1)
    with pytest.raises(UsageError):
        ehrhart_csv(rs, 0)


def test_walls_dp_matches_point_enumeration():
    # residue groups: A3 Z/4, D4 Z/2 x Z/2, B3 Z/2, A4 Z/5; G2, F4 trivial
    for name in ["A3", "D4", "B3", "A4", "G2", "F4"]:
        rs = rsys(name)
        for t in range(2 * rs.coxeter_number + 2):
            assert count_by_walls(rs, t).counts == walls_by_enumeration(rs, t), (
                name,
                t,
            )


def test_against_coweight_space_enumeration():
    for name in ["A1", "A2", "B2"]:
        rs = rsys(name)
        for t in range(7):
            assert count_by_walls(rs, t).counts == yspace_wall_histogram(rs, t), (
                name,
                t,
            )


def test_face_inclusion_exclusion_matches_direct_histogram():
    for name, tmax in [("A1", 5), ("A2", 5), ("B2", 5), ("A3", 4), ("G2", 4)]:
        rs = rsys(name)
        for t in range(1, tmax + 1):
            assert faces_to_incidence(rs, t) == count_by_walls(rs, t).counts


def test_face_counts_monotone_and_nonnegative():
    rs = rsys("B2")
    data = count_by_faces(rs, 5)
    for s, (f, g) in data.items():
        assert g >= 0
        for s2, (f2, _) in data.items():
            if s <= s2:
                assert f >= f2
    with pytest.raises(UsageError):
        count_by_faces(rs, 0)


def test_n_k_i_equals_both_histograms():
    for name in ["A1", "A2", "A3", "B2", "B3", "G2"]:
        rs = rsys(name)
        for k in (1, 2):
            counts = n_k_i(rs, k)
            assert sum(counts) == fuss_catalan_number(rs, k)
            assert counts == narayana_vector(rs, k)
            assert counts == indecomposable_histogram(rs, k)


def test_f4_lattice_anchor():
    assert n_k_i(rsys("F4"), 1) == (1, 24, 55, 24, 1)
    assert n_k_i(rsys("F4"), 2) == (105, 360, 266, 48, 1)


def test_periods():
    for name, p in PERIODS.items():
        assert simplex_period(rsys(name)) == p
        assert quasi_period(rsys(name)) == QUASI_PERIODS[name]


def test_quasipolynomial_fit_predicts_held_out():
    for name in ["A1", "A2", "B2", "B3", "G2"]:
        rs = rsys(name)
        for k in (1, 2, 3):
            detail = verify.run_identity("lattice-nar", rs, k)
            assert detail is None, (name, k, detail)


def test_row_identities_name_the_perturbed_entry(monkeypatch):
    """Both rows of y1-nar and lattice-nar, H(x, 1) of the chains and the
    Fuss-Narayana numbers of [1, c]: one entry off, in either row, is
    the least differing monomial of y1-nar and shows in lattice-nar's
    counterexample."""
    rs, k = rsys("B3"), 2
    row = indecomposable_histogram(rs, k)
    assert noncrossing.narayana_numbers(rs, k) == row
    for module, name in [
        (nonnesting, "indecomposable_histogram"), (noncrossing, "narayana_numbers"),
    ]:
        for i in range(rs.n + 1):
            off = row[:i] + (row[i] + 1,) + row[i + 1:]
            monkeypatch.setattr(module, name, lambda rs, k: off)
            chains, sequences = (off, row) if module is nonnesting else (row, off)
            assert verify.run_identity("y1-nar", rs, k) == {
                "monomial": [i, 0], "lhs": chains[i], "rhs": sequences[i],
            }, (name, i)
            assert verify.run_identity("lattice-nar", rs, k) == {
                "lattice": row, "chains": chains, "sequences": sequences,
            }, (name, i)
        monkeypatch.undo()


def test_csv_rows_shape():
    # A2 at k = 1: the dilations 1..h+1 = 1..4, one row per wall count
    header, *lines = ehrhart_csv(rsys("A2"), 1).splitlines()
    assert header == "t,i,N"
    rows = [tuple(map(int, line.split(","))) for line in lines]
    assert all(len(r) == 3 for r in rows)
    assert [r[0] for r in rows] == [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]
    for t in (2, 4):
        body = [r for r in rows if r[0] == t]
        assert [r[1] for r in body] == [0, 1, 2]
        assert [r[2] for r in body] == list(count_by_walls(rsys("A2"), t).counts)
    assert [r[2] for r in rows if r[0] == 4] == list(n_k_i(rsys("A2"), 1))
