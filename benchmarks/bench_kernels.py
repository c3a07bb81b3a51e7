"""Timing comparison of the pure and compiled kernel backends.

Runs each kernel on a representative workload, checks that both
backends return identical results, and prints a table.  Usage:

    python3 benchmarks/bench_kernels.py
"""
from __future__ import annotations

import time

from fct import _purecore
from fct.cluster import compat_masks
from fct.nonnesting import _chain_data
from fct.rootsys import TypeSpec, build_root_system
from fct.weyl import generate_group, simple_reflection

try:
    from fct import _fastcore
except ImportError:
    _fastcore = None


def _time(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def workloads():
    f4 = build_root_system(TypeSpec.parse("F4"))
    d4 = build_root_system(TypeSpec.parse("D4"))

    gens = tuple(simple_reflection(f4, i).img for i in range(f4.n))
    yield "weyl_closure F4 (1152)", "weyl_closure", (gens, 10**6)

    mats = [
        [[w.matrix[i][j] - (i == j) for j in range(f4.n)] for i in range(f4.n)]
        for w in generate_group(f4)
    ]

    def rank_batch(core, batch):
        return [core.int_rank(m) for m in batch]

    yield "int_rank F4 batch (1152)", rank_batch, (mats,)

    masks = compat_masks(d4, 6)
    yield "clique_census D4 k=6 (76v)", "clique_census", (masks, len(masks), d4.n)

    filters, subs, full = _chain_data(f4, 3)
    args = (filters, subs, f4.sum_triples, 3, full)
    yield "nn_chains F4 k=3", "nn_chains", args

    cargs = (
        filters, subs, f4.sum_triples, f4.pair_lists,
        4, full, len(f4.positive_roots), f4.n,
    )
    yield "nn_census F4 k=4", "nn_census", cargs


def main() -> int:
    if _fastcore is None:
        print("compiled backend not built; nothing to compare")
        return 1
    rows = []
    for label, kern, args in workloads():
        if callable(kern):
            pure, tp = _time(kern, _purecore, *args)
            fast, tf = _time(kern, _fastcore, *args)
        else:
            pure, tp = _time(getattr(_purecore, kern), *args)
            fast, tf = _time(getattr(_fastcore, kern), *args)
        if pure != fast:
            print(f"MISMATCH in {label}")
            return 1
        rows.append((label, tp, tf))
    width = max(len(r[0]) for r in rows)
    print(f"{'workload'.ljust(width)}  {'pure':>9}  {'compiled':>9}  {'speedup':>8}")
    for label, tp, tf in rows:
        speed = tp / tf if tf > 0 else float("inf")
        print(f"{label.ljust(width)}  {tp:8.3f}s  {tf:8.3f}s  {speed:7.1f}x")
    print("all workloads: backends agree")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
