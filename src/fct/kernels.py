"""Kernel dispatch: compiled core when available, pure Python otherwise.

The compiled backend (fct._fastcore, built from Cython) serves one
kernel, the clique census, when it imported successfully, the
environment variable FCT_BACKEND is not set to exactly "python", and
the graph has at most 128 vertices.  Every other kernel is the pure one
on both backends; the test suite compares the two cores directly.  The
chain walk and the listing of all the filters share one loop over the
filter lattice, ``filters_between``, and read no subfilter table; the
compiled chain kernels, which no request calls, still take one.
"""
from __future__ import annotations

import os

from . import _purecore

LimitExceeded = _purecore.LimitExceeded

_fast = None
if os.environ.get("FCT_BACKEND") != "python":
    try:
        from . import _fastcore as _fast  # type: ignore
    except ImportError:
        _fast = None

BACKEND = "compiled" if _fast is not None else "python"


def clique_census(nbrs, nvert, n_neg):
    if _fast is not None and nvert <= 128:
        return _fast.clique_census(nbrs, nvert, n_neg)
    return _purecore.clique_census(nbrs, nvert, n_neg)


# One chain walk on every backend.  The census counts each group of
# children once, so it costs the walk to depth k-1, not the leaves (from
# k = 4 on, the walk to depth k-3 and one expansion per distinct state:
# the loop that picks I_{k-3}, I_1 at k = 4 and I_2 at k = 5, records the
# states of depth k-2 with no call per chain): on E7 k=2 the pure
# census and listing take 0.37 and 0.35 s, the compiled per-leaf kernels
# 1.2 and 1.6 s (2-core host).
nn_chains = _purecore.nn_chains
nn_census_family = _purecore.nn_census_family
filters_between = _purecore.filters_between
upper_masks = _purecore.upper_masks

# No request path calls these (every census is read off
# nn_census_family, and the noncrossing side never generates the group):
# they serve the tests, perfbench, ``GroupElement.length`` and
# ``weyl.generate_group``, and tests/test_kernels_compiled.py compares
# the compiled versions with them.
nn_census = _purecore.nn_census
weyl_closure = _purecore.weyl_closure
int_rank = _purecore.int_rank
