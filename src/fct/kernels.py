"""The compiled core's switch, and the kernel names perfbench binds.

The compiled backend (fct._fastcore, built from Cython) serves one
kernel, the clique census, when it imported successfully, the
environment variable FCT_BACKEND is not set to exactly "python", and
the graph has at most 128 vertices; ``cluster`` is the one layer that
imports this module.  Every other kernel is the pure one on both
backends, and the layers call it where it lives, in ``_purecore``; the
test suite compares the two cores directly.
"""
from __future__ import annotations

import os

from . import _purecore

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


# The names perfbench's tracer and kernel probe bind, pure on every
# backend: the layers call them in ``_purecore``, where the tracer's
# patch reaches them too.  One chain walk serves every backend.  The
# census counts each group of children once, so it costs the walk to
# depth k-1, not the leaves (from k = 4 on, the walk to depth k-3 and one
# expansion per distinct state: the loop that picks I_{k-3}, I_1 at k = 4
# and I_2 at k = 5, records the states of depth k-2 with no call per
# chain): on E7 k=2 the pure census and listing take 0.37 and 0.35 s, the
# compiled per-leaf kernels 1.2 and 1.6 s (2-core host).  No request
# calls nn_census, weyl_closure or int_rank (every census is read off
# ``_purecore.nn_census_family``, and the noncrossing side never
# generates the group): they serve the tests, perfbench,
# ``GroupElement.length`` and ``weyl.generate_group``, and
# tests/test_kernels_compiled.py compares the compiled versions with them.
nn_chains = _purecore.nn_chains
nn_census = _purecore.nn_census
weyl_closure = _purecore.weyl_closure
int_rank = _purecore.int_rank
