"""Exact machine checks for the identities tying the three families together.

Every public function takes a root system and a level k, recomputes
both sides of one identity from scratch through independent code
paths, and returns a VerifyResult carrying either success or a
counterexample payload (differing monomial, offending chain, or
mismatching count vector).  Nothing here is approximate: all
comparisons are on integer polynomial coefficients or integer counts.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import arrangement, cluster, ehrhart, nonnesting, noncrossing
from .errors import UsageError
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


@dataclass(frozen=True)
class VerifyResult:
    identity: str
    type_name: str
    k: int
    ok: bool
    detail: dict | None = None

    def line(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        msg = f"{self.identity} {self.type_name} k={self.k}: {verdict}"
        if not self.ok and self.detail is not None:
            msg += " " + repr(self.detail)
        return msg


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


def _poly_result(identity, rs, k, lhs, rhs) -> VerifyResult:
    detail = _poly_detail(lhs, rhs)
    return VerifyResult(identity, str(rs.typespec), k, detail is None, detail)


def _require_positive_k(k: int) -> None:
    if k < 1:
        raise UsageError("k must be a positive integer")


def verify_counts(rs: RootSystem, k: int) -> VerifyResult:
    """Same cardinality for chains, cluster facets, and delta sequences."""
    _require_positive_k(k)
    nn = len(nonnesting.enumerate_chains(rs, k))
    facets = cluster.build_complex(rs, k).facet_count
    nc = noncrossing.sequence_count(rs, k)
    formula = fuss_catalan_number(rs, k)
    ok = nn == facets == nc == formula
    detail = None if ok else {
        "chains": nn, "facets": facets, "sequences": nc, "formula": formula,
    }
    return VerifyResult("counts", str(rs.typespec), k, ok, detail)


def verify_h_eq_f(rs: RootSystem, k: int) -> VerifyResult:
    _require_positive_k(k)
    lhs = h_from_f(cluster.f_triangle(rs, k), rs.n)
    return _poly_result("h=f", rs, k, lhs, nonnesting.h_triangle(rs, k))


def verify_h_eq_m(rs: RootSystem, k: int) -> VerifyResult:
    _require_positive_k(k)
    lhs = h_from_m(noncrossing.m_triangle(rs, k), rs.n)
    return _poly_result("h=m", rs, k, lhs, nonnesting.h_triangle(rs, k))


def verify_m_eq_f(rs: RootSystem, k: int) -> VerifyResult:
    _require_positive_k(k)
    lhs = f_from_m(noncrossing.m_triangle(rs, k), rs.n)
    return _poly_result("m=f", rs, k, lhs, cluster.f_triangle(rs, k))


def verify_k1(rs: RootSystem, k: int) -> VerifyResult:
    if k != 1:
        raise UsageError("the closed substitution form only holds at k=1")
    lhs = h_from_f_k1(cluster.f_triangle(rs, 1), rs.n)
    return _poly_result("k1", rs, 1, lhs, nonnesting.h_triangle(rs, 1))


def verify_recip(rs: RootSystem, k: int) -> VerifyResult:
    """Coefficientwise interpolation in k, then the sign-flipped identity.

    The coefficients of the H-triangle are polynomials in k of degree
    at most n, so samples at k = 1..n+2 pin the family down with one
    degree of slack; k = n+3 and n+4 are held-out consistency checks
    before the family is evaluated at negative arguments.  All n+4
    samples come from one chain census walk (``nonnesting.h_triangles``),
    which exits on the resource bound before it starts when the chains
    of k = 1..n+4 are too many.
    """
    if k != 1:
        raise UsageError("reciprocity is checked over the whole k-family, at k=1")
    n = rs.n
    samples = nonnesting.h_triangles(rs, n + 4)
    family = KFamily.fit({kk: samples[kk - 1] for kk in range(1, n + 3)}, n)
    for kk in (n + 3, n + 4):
        detail = _poly_detail(family.predict(kk), samples[kk - 1])
        if detail is not None:
            detail["held_out_k"] = kk
            return VerifyResult("recip", str(rs.typespec), k, False, detail)
    for kk in range(1, n + 3):
        lhs = h_reciprocal_image(family.predict(-kk), n)
        detail = _poly_detail(lhs, samples[kk - 1])
        if detail is not None:
            detail["at_k"] = kk
            return VerifyResult("recip", str(rs.typespec), k, False, detail)
    return VerifyResult("recip", str(rs.typespec), k, True)


def verify_dual(rs: RootSystem, k: int) -> VerifyResult:
    if k != 1:
        raise UsageError("duality is a k=1 statement")
    h = nonnesting.h_triangle(rs, 1)
    f = cluster.f_triangle(rs, 1)
    for name, lhs, rhs in (
        ("h-dual", h_dual_image(h, rs.n), h),
        ("f-dual", f_self_dual_image(f, rs.n), f),
        ("f-from-h", f_from_h_k1(h, rs.n), f),
    ):
        detail = _poly_detail(lhs, rhs)
        if detail is not None:
            detail["relation"] = name
            return VerifyResult("dual", str(rs.typespec), 1, False, detail)
    return VerifyResult("dual", str(rs.typespec), 1, True)


def verify_y1_nar(rs: RootSystem, k: int) -> VerifyResult:
    """H(x,1) lists the rank-k indecomposable counts, which must match
    the lattice-theoretic numbers from the delta-sequence order."""
    _require_positive_k(k)
    lhs = nonnesting.h_triangle(rs, k).substitute_y(1)
    rhs = BivarPoly(
        {
            (i, 0): noncrossing.narayana_number(rs, k, i)
            for i in range(rs.n + 1)
        }
    )
    return _poly_result("y1-nar", rs, k, lhs, rhs)


def verify_lattice_nar(rs: RootSystem, k: int) -> VerifyResult:
    """Simplex wall counts at t = kh+1 against both other families, plus
    the per-residue polynomial fit with its held-out samples."""
    _require_positive_k(k)
    if len(rs.components) != 1:
        raise UsageError("the lattice route needs an irreducible root system")
    counts = ehrhart.n_k_i(rs, k)
    nn = nonnesting.indecomposable_histogram(rs, k)
    nar = tuple(noncrossing.narayana_number(rs, k, i) for i in range(rs.n + 1))
    if not counts == nn == nar:
        return VerifyResult(
            "lattice-nar", str(rs.typespec), k, False,
            {"lattice": counts, "chains": nn, "sequences": nar},
        )
    period = ehrhart.quasi_period(rs)
    if period not in (1, 2):
        return VerifyResult(
            "lattice-nar", str(rs.typespec), k, False, {"period": period}
        )
    for i in range(rs.n + 1):
        try:
            fit = ehrhart.fit_quasipolynomial(rs, i)
        except ValueError as exc:
            return VerifyResult(
                "lattice-nar", str(rs.typespec), k, False,
                {"fit_index": i, "reason": str(exc)},
            )
        if fit.predict(k) != counts[i]:
            return VerifyResult(
                "lattice-nar", str(rs.typespec), k, False,
                {"fit_index": i, "predicted": str(fit.predict(k)),
                 "counted": counts[i]},
            )
    return VerifyResult("lattice-nar", str(rs.typespec), k, True)


def verify_pos(rs: RootSystem, k: int) -> VerifyResult:
    _require_positive_k(k)
    lhs = arrangement.ceilings_poly(rs, k)
    return _poly_result("pos", rs, k, lhs, cluster.positive_h_poly(rs, k))


def verify_ceil(rs: RootSystem, k: int) -> VerifyResult:
    _require_positive_k(k)
    lhs = arrangement.ceilings_poly(rs, k)
    rhs = ceiling_specialization(nonnesting.h_triangle(rs, k))
    return _poly_result("ceil", rs, k, lhs, rhs)


def verify_final(rs: RootSystem, k: int) -> VerifyResult:
    if k != 1:
        raise UsageError("the bottom-row ceiling count is a k=1 statement")
    lhs = arrangement.ceilings_poly(rs, 1)
    rhs = bottom_specialization(nonnesting.h_triangle(rs, 1), rs.n)
    return _poly_result("final", rs, 1, lhs, rhs)


def _parabolic_triangle(rs: RootSystem, remove: int, k: int, triangle) -> BivarPoly:
    """Triangle of the parabolic, as a product over irreducible factors."""
    out = BivarPoly.one()
    for factor in irreducible_factors(parabolic(rs, remove)):
        out = out * triangle(factor, k)
    return out


def verify_dh(rs: RootSystem, k: int) -> VerifyResult:
    _require_positive_k(k)
    lhs = nonnesting.h_triangle(rs, k).dy()
    rhs = BivarPoly.zero()
    for a in range(rs.n):
        rhs = rhs + _parabolic_triangle(rs, a, k, nonnesting.h_triangle)
    rhs = BivarPoly.monomial(1, 0) * rhs
    return _poly_result("dh", rs, k, lhs, rhs)


def verify_df(rs: RootSystem, k: int) -> VerifyResult:
    _require_positive_k(k)
    lhs = cluster.f_triangle(rs, k).dy()
    rhs = BivarPoly.zero()
    for a in range(rs.n):
        rhs = rhs + _parabolic_triangle(rs, a, k, cluster.f_triangle)
    return _poly_result("df", rs, k, lhs, rhs)


def verify_bij(rs: RootSystem, k: int) -> VerifyResult:
    """Chain restriction at each simple root: bijection onto the
    parabolic chains with exact indecomposable bookkeeping."""
    _require_positive_k(k)
    chains = nonnesting.enumerate_chains(rs, k)
    ranks = range(1, k + 1)
    indec = {}  # chain -> its indecomposables of each rank, built once
    for a in range(rs.n):
        sub = parabolic(rs, a)
        embed = parabolic_root_embedding(rs, a)
        targets = set(nonnesting.enumerate_chains(sub, k))
        images = {}
        for chain in chains:
            if not (chain.masks[-1] >> a) & 1:
                continue
            image = nonnesting.restrict_chain(chain, a)
            if image in images:
                return VerifyResult(
                    "bij", str(rs.typespec), k, False,
                    {"simple": a, "reason": "not injective",
                     "levels": chain.levels()},
                )
            images[image] = chain
            if nonnesting.extend_chain(rs, image, a) != chain:
                return VerifyResult(
                    "bij", str(rs.typespec), k, False,
                    {"simple": a, "reason": "round trip failed",
                     "levels": chain.levels()},
                )
            if chain not in indec:
                indec[chain] = [nonnesting.indecomposables(chain, l) for l in ranks]
            for l, want in zip(ranks, indec[chain]):
                got = {embed[r] for r in nonnesting.indecomposables(image, l)}
                want = set(want)
                if l == k:
                    want.discard(a)
                if got != want:
                    return VerifyResult(
                        "bij", str(rs.typespec), k, False,
                        {"simple": a, "rank": l, "levels": chain.levels(),
                         "image": sorted(got), "expected": sorted(want)},
                    )
        if set(images) != targets:
            return VerifyResult(
                "bij", str(rs.typespec), k, False,
                {"simple": a, "reason": "not onto",
                 "missing": len(targets - set(images))},
            )
    return VerifyResult("bij", str(rs.typespec), k, True)


def verify_phi(rs: RootSystem, k: int) -> VerifyResult:
    _require_positive_k(k)
    ok, detail = arrangement.verify_phi(rs, k)
    return VerifyResult("phi", str(rs.typespec), k, ok, detail)


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


def run_identity(name: str, rs: RootSystem, k: int) -> VerifyResult:
    if name not in IDENTITIES:
        raise UsageError(f"unknown identity {name!r}")
    return IDENTITIES[name](rs, k)
