"""Kernel dispatch: compiled core when available, pure Python otherwise.

The compiled backend (fct._fastcore, built from Cython) is used when it
imported successfully, the environment variable FCT_BACKEND is not set
to "python", and the call fits its machine-word limits.  Every kernel
has a pure fallback with identical observable behaviour; the test suite
compares the two backends directly.
"""
from __future__ import annotations

import os

from . import _purecore

LimitExceeded = _purecore.LimitExceeded

_fast = None
if os.environ.get("FCT_BACKEND", "").lower() not in ("python", "pure"):
    try:
        from . import _fastcore as _fast  # type: ignore
    except ImportError:
        _fast = None

BACKEND = "compiled" if _fast is not None else "python"


def weyl_closure(gens, limit):
    if _fast is not None and len(gens[0]) <= 32767:
        try:
            return _fast.weyl_closure(gens, limit)
        except _fast.LimitExceeded:
            raise LimitExceeded from None
    return _purecore.weyl_closure(gens, limit)


def int_rank(mat):
    # Hadamard: minors stay below (sqrt(8)*64)**8 < 2**63, so the
    # compiled 64-bit Bareiss is exact in this region.
    if _fast is not None and len(mat) <= 8 and all(abs(x) <= 64 for row in mat for x in row):
        return _fast.int_rank(mat)
    return _purecore.int_rank(mat)


def clique_census(nbrs, nvert, n_neg):
    if _fast is not None and nvert <= 128:
        return _fast.clique_census(nbrs, nvert, n_neg)
    return _purecore.clique_census(nbrs, nvert, n_neg)


def nn_chains(filters, subs, triples, k, full):
    if _fast is not None and full < 2**64 and k <= 64:
        return _fast.nn_chains(filters, subs, triples, k, full)
    return _purecore.nn_chains(filters, subs, triples, k, full)


def nn_census(filters, subs, triples, pair_lists, k, full, nroots, n_simple):
    if _fast is not None and full < 2**64 and k <= 64:
        return _fast.nn_census(filters, subs, triples, pair_lists, k, full, nroots, n_simple)
    return _purecore.nn_census(filters, subs, triples, pair_lists, k, full, nroots, n_simple)


# No compiled counterpart: the family census memoises its groups in
# dicts keyed by wide ints and counts each group once, so its cost is
# the walk to depth k-1, not the leaves; the pure walk to depth n+4
# already beats the compiled per-k kernels summed over k = 1..n+4 (F4:
# 0.21 s against 0.57-0.85 s on a 2-core host).  A single k stays
# compiled (E7 k=1: 1.0-1.4 ms compiled, 35 ms pure): there the walk
# has no other k to share with.
nn_census_family = _purecore.nn_census_family
