"""Exact machine checks for the identities tying the three families together.

Every identity function takes a root system and a level k, recomputes
both sides of one identity from scratch through independent code
paths, and returns None when the identity holds or a counterexample
dict (differing monomial, offending chain, or mismatching count
vector).  `run_identity` is the one entry point: it checks the request
against the identity's domain and returns the identity's own answer;
``fct verify`` and the cells of ``fct grid`` print it.
Nothing here is approximate: all comparisons are on integer polynomial
coefficients or integer counts.
"""
from __future__ import annotations

from . import arrangement, cluster, ehrhart, nonnesting, noncrossing
from .errors import UsageError, require_k
from .poly import (
    BivarPoly,
    KFamily,
    bottom_specialization,
    ceiling_specialization,
    f_from_h_k1,
    f_from_m,
    f_self_dual_image,
    h_dual_image,
    h_from_f,
    h_from_f_k1,
    h_from_m,
    h_reciprocal_image,
)
from .rootsys import (
    RootSystem,
    fuss_catalan_number,
    irreducible_factors,
    parabolic,
    parabolic_root_embedding,
)

# Identities that are statements about k = 1 only, and identities whose
# route needs an irreducible root system.
K1_ONLY = frozenset({"k1", "recip", "dual", "final"})
IRREDUCIBLE_ONLY = frozenset({"lattice-nar"})


def _poly_detail(lhs: BivarPoly, rhs: BivarPoly) -> dict | None:
    diff = lhs - rhs
    if not diff:
        return None
    (i, j) = min(diff.coeffs)
    return {
        "monomial": [i, j],
        "lhs": lhs.coeff(i, j),
        "rhs": rhs.coeff(i, j),
    }


def _row(values) -> BivarPoly:
    """The polynomial sum of values[i] x^i."""
    return BivarPoly({(i, 0): v for i, v in enumerate(values)})


def _first_miss(tag: str, cases) -> dict | None:
    """The detail of the first (label, lhs, rhs) whose sides differ,
    with the label stored under ``tag``."""
    for label, lhs, rhs in cases:
        detail = _poly_detail(lhs, rhs)
        if detail is not None:
            detail[tag] = label
            return detail
    return None


def _fit_held_out(samples: dict, ks, degree: int):
    """A KFamily fitted on the first degree+1 of the sample points ks,
    and the detail of the first remaining point it misses (or None)."""
    family = KFamily.fit({kk: samples[kk] for kk in ks[: degree + 1]}, degree)
    held_out = ((kk, family.predict(kk), samples[kk]) for kk in ks[degree + 1:])
    return family, _first_miss("held_out_k", held_out)


def verify_counts(rs: RootSystem, k: int) -> dict | None:
    """Same cardinality for chains, cluster facets, and delta sequences.

    The chains are counted by the census, H(1, 1), without listing them.
    """
    counts = {
        "chains": nonnesting.h_triangle(rs, k).evaluate(1, 1),
        "facets": cluster.build_complex(rs, k).facet_count,
        "sequences": noncrossing.sequence_count(rs, k),
        "formula": fuss_catalan_number(rs, k),
    }
    return None if len(set(counts.values())) == 1 else counts


def verify_h_eq_f(rs: RootSystem, k: int) -> dict | None:
    lhs = h_from_f(cluster.f_triangle(rs, k), rs.n)
    return _poly_detail(lhs, nonnesting.h_triangle(rs, k))


def verify_h_eq_m(rs: RootSystem, k: int) -> dict | None:
    lhs = h_from_m(noncrossing.m_triangle(rs, k), rs.n)
    return _poly_detail(lhs, nonnesting.h_triangle(rs, k))


def verify_m_eq_f(rs: RootSystem, k: int) -> dict | None:
    lhs = f_from_m(noncrossing.m_triangle(rs, k), rs.n)
    return _poly_detail(lhs, cluster.f_triangle(rs, k))


def verify_k1(rs: RootSystem, k: int) -> dict | None:
    """The closed substitution form of H = F, which holds at k = 1."""
    lhs = h_from_f_k1(cluster.f_triangle(rs, k), rs.n)
    return _poly_detail(lhs, nonnesting.h_triangle(rs, k))


def recip_depth(rs: RootSystem) -> int:
    """The depth of recip's one census: n + 1 fit points and three held
    out (``verify_recip``)."""
    return rs.n + 4


def verify_recip(rs: RootSystem, k: int) -> dict | None:
    """Coefficientwise interpolation in k, then the sign-flipped identity.

    The coefficients of the H-triangle are polynomials in k of degree
    at most n, so samples at k = 1..n+1 pin the family down and
    k = n+2..n+4 are held-out consistency checks before the family is
    evaluated at negative arguments.  All n+4 samples come from one
    chain census walk (``nonnesting.h_triangles``), which exits on the
    resource bound before it starts when the chains of k = 1..n+4 are
    too many.
    """
    n, depth = rs.n, recip_depth(rs)
    samples = dict(enumerate(nonnesting.h_triangles(rs, depth), start=1))
    family, detail = _fit_held_out(samples, range(1, depth + 1), n)
    return detail or _first_miss("at_k", (
        (kk, h_reciprocal_image(family.predict(-kk), n), samples[kk])
        for kk in range(1, n + 3)
    ))


def verify_dual(rs: RootSystem, k: int) -> dict | None:
    h = nonnesting.h_triangle(rs, k)
    f = cluster.f_triangle(rs, k)
    return _first_miss("relation", (
        ("h-dual", h_dual_image(h, rs.n), h),
        ("f-dual", f_self_dual_image(f, rs.n), f),
        ("f-from-h", f_from_h_k1(h, rs.n), f),
    ))


def verify_y1_nar(rs: RootSystem, k: int) -> dict | None:
    """H(x,1) lists the rank-k indecomposable counts, which must match
    the lattice-theoretic numbers from the delta-sequence order."""
    return _poly_detail(
        _row(nonnesting.indecomposable_histogram(rs, k)),
        _row(noncrossing.narayana_numbers(rs, k)),
    )


def verify_lattice_nar(rs: RootSystem, k: int) -> dict | None:
    """Simplex wall counts at t = kh+1 against both other families, plus
    their fit as a quasipolynomial in k.

    Per residue class of k modulo the quasi-period p, the counts
    N^(k)(i) are polynomials in k of degree at most n.  Of the samples
    k = 1..(n+1)p+2, and k itself, one KFamily per class is fitted on
    the first n+1 and every other sample of the class is held out.
    Every sample, k included, is read from one lattice point count at
    the largest dilation.
    """
    period = ehrhart.quasi_period(rs)
    ks = sorted({k, *range(1, (rs.n + 1) * period + 3)})
    h = ehrhart.simplex_model(rs).h
    histograms = ehrhart.wall_histograms(rs, ks[-1] * h + 1)
    counts = histograms[k * h + 1]
    nn = nonnesting.indecomposable_histogram(rs, k)
    nar = noncrossing.narayana_numbers(rs, k)
    if not counts == nn == nar:
        return {"lattice": counts, "chains": nn, "sequences": nar}
    if period not in (1, 2):
        return {"period": period}
    samples = {kk: _row(histograms[kk * h + 1]) for kk in ks}
    for r in range(period):
        ks_r = [kk for kk in ks if kk % period == r]
        detail = _fit_held_out(samples, ks_r, rs.n)[1]
        if detail is not None:
            return detail
    return None


def verify_pos(rs: RootSystem, k: int) -> dict | None:
    lhs = arrangement.ceilings_poly(rs, k)
    return _poly_detail(lhs, cluster.positive_h_poly(rs, k))


def verify_ceil(rs: RootSystem, k: int) -> dict | None:
    lhs = arrangement.ceilings_poly(rs, k)
    return _poly_detail(lhs, ceiling_specialization(nonnesting.h_triangle(rs, k)))


def verify_final(rs: RootSystem, k: int) -> dict | None:
    """The bottom-row ceiling count, a k = 1 statement."""
    lhs = arrangement.ceilings_poly(rs, k)
    return _poly_detail(lhs, bottom_specialization(nonnesting.h_triangle(rs, k), rs.n))


def _parabolic_sum(rs: RootSystem, k: int, triangle) -> BivarPoly:
    """Sum over the simple roots a of the triangle of the parabolic
    Phi minus a, each one the product over its irreducible factors."""
    out = BivarPoly.zero()
    for a in range(rs.n):
        term = BivarPoly.one()
        for factor in irreducible_factors(parabolic(rs, a)):
            term = term * triangle(factor, k)
        out = out + term
    return out


def verify_dh(rs: RootSystem, k: int) -> dict | None:
    lhs = nonnesting.h_triangle(rs, k).dy()
    rhs = BivarPoly.monomial(1, 0) * _parabolic_sum(rs, k, nonnesting.h_triangle)
    return _poly_detail(lhs, rhs)


def verify_df(rs: RootSystem, k: int) -> dict | None:
    lhs = cluster.f_triangle(rs, k).dy()
    return _poly_detail(lhs, _parabolic_sum(rs, k, cluster.f_triangle))


def verify_bij(rs: RootSystem, k: int) -> dict | None:
    """Chain restriction at each simple root: bijection onto the
    parabolic chains with exact indecomposable bookkeeping."""
    chains = nonnesting.enumerate_chains(rs, k)
    indec = {}  # chain -> its indecomposables of each rank, built once
    for a in range(rs.n):
        sub = parabolic(rs, a)
        embed = parabolic_root_embedding(rs, a)
        targets = set(nonnesting.enumerate_chains(sub, k))
        images = {}
        for chain in chains:
            if not (chain[-1] >> a) & 1:
                continue
            image = nonnesting.restrict_chain(rs, chain, a)
            if image in images:
                return {"simple": a, "reason": "not injective",
                        "levels": nonnesting.levels(rs, chain)}
            images[image] = chain
            if nonnesting.extend_chain(rs, image, a) != chain:
                return {"simple": a, "reason": "round trip failed",
                        "levels": nonnesting.levels(rs, chain)}
            if chain not in indec:
                indec[chain] = nonnesting.indecomposables_by_rank(rs, chain)
            by_rank = nonnesting.indecomposables_by_rank(sub, image)
            for l, want, image_roots in zip(range(1, k + 1), indec[chain], by_rank):
                got = {embed[r] for r in image_roots}
                want = set(want)
                if l == k:
                    want.discard(a)
                if got != want:
                    return {"simple": a, "rank": l,
                            "levels": nonnesting.levels(rs, chain),
                            "image": sorted(got), "expected": sorted(want)}
        if set(images) != targets:
            return {"simple": a, "reason": "not onto",
                    "missing": len(targets - set(images))}
    return None


def verify_phi(rs: RootSystem, k: int) -> dict | None:
    """Floors of each chain's region = its indecomposables, rank by rank."""
    chains = nonnesting.enumerate_chains(rs, k)
    for chain, levels in zip(chains, arrangement.regions_of(rs, k)):
        walls = arrangement.wall_report(rs, k, levels)
        floors = {(r, c) for r, c in walls if 0 < c == levels[r]}
        expected = {
            (r, i)
            for i, roots in enumerate(nonnesting.indecomposables_by_rank(rs, chain), 1)
            for r in roots
        }
        if floors != expected:
            return {"levels": levels, "floors": sorted(floors),
                    "indecomposables": sorted(expected)}
    return None


IDENTITIES = {
    "counts": verify_counts,
    "h=f": verify_h_eq_f,
    "h=m": verify_h_eq_m,
    "m=f": verify_m_eq_f,
    "k1": verify_k1,
    "recip": verify_recip,
    "dual": verify_dual,
    "y1-nar": verify_y1_nar,
    "lattice-nar": verify_lattice_nar,
    "pos": verify_pos,
    "ceil": verify_ceil,
    "final": verify_final,
    "dh": verify_dh,
    "df": verify_df,
    "bij": verify_bij,
    "phi": verify_phi,
}


def run_identity(name: str, rs: RootSystem, k: int) -> dict | None:
    """Check the request against the identity's domain, then run it:
    None when the identity holds, else its counterexample.

    The function is looked up in ``IDENTITIES`` at call time, so a
    wrapper installed there sees every run.
    """
    if name not in IDENTITIES:
        raise UsageError(f"unknown identity {name!r}")
    require_k(k)
    if name in K1_ONLY and k != 1:
        raise UsageError(f"{name} is a k=1 statement")
    if name in IRREDUCIBLE_ONLY and len(rs.components) != 1:
        raise UsageError(f"{name} needs an irreducible root system")
    return IDENTITIES[name](rs, k)
