"""The five kernels on fixed inputs, pure against compiled.

The inputs are the heaviest grid cells of each kernel.  The pure core
is always timed; when the compiled core imports, it is timed too, and
both must return equal results.  Results go to a JSON file:

    {"backend": ..., "kernels": {name: {"pure_s": s, "compiled_s": s or null,
                                        "agree": bool or null}}}
"""
from __future__ import annotations

import json
from statistics import median
from time import perf_counter

COMPILED_REPEATS = 5


def _inputs():
    from fct.cluster import compat_masks
    from fct.nonnesting import enumerate_filters
    from fct.rootsys import TypeSpec, build_root_system
    from fct.weyl import generate_group, simple_reflection

    f4 = build_root_system(TypeSpec.parse("F4"))
    d4 = build_root_system(TypeSpec.parse("D4"))
    gens = tuple(simple_reflection(f4, i).img for i in range(f4.n))
    mats = [
        [[w.matrix[i][j] - (i == j) for j in range(f4.n)] for i in range(f4.n)]
        for w in generate_group(f4)
    ]
    masks = compat_masks(d4, 6)
    filters = enumerate_filters(f4)
    subs = tuple(tuple(j for j, g in enumerate(filters) if g & ~f == 0) for f in filters)
    full = (1 << len(f4.positive_roots)) - 1
    return {
        "weyl_closure": ("weyl_closure", (gens, 10**6)),
        "int_rank": (lambda core, batch: [core.int_rank(m) for m in batch], (mats,)),
        "clique_census": ("clique_census", (masks, len(masks), d4.n)),
        "nn_chains": ("nn_chains", (filters, subs, f4.sum_triples, 3, full)),
        "nn_census": ("nn_census", (
            filters, subs, f4.sum_triples, f4.pair_lists, 4, full,
            len(f4.positive_roots), f4.n,
        )),
    }


def _call(core, kernel, args):
    if callable(kernel):
        return kernel(core, *args)
    return getattr(core, kernel)(*args)


def _timed(core, kernel, args):
    t0 = perf_counter()
    out = _call(core, kernel, args)
    return out, perf_counter() - t0


def run(out_path: str) -> None:
    from fct import _purecore, kernels

    try:
        from fct import _fastcore
    except ImportError:
        _fastcore = None
    result = {"backend": kernels.BACKEND, "kernels": {}}
    for name, (kernel, args) in _inputs().items():
        pure, pure_s = _timed(_purecore, kernel, args)
        row = {"pure_s": pure_s, "compiled_s": None, "agree": None}
        if _fastcore is not None:
            times = []
            for _ in range(COMPILED_REPEATS):
                fast, seconds = _timed(_fastcore, kernel, args)
                times.append(seconds)
                if fast != pure:
                    break
            row.update(compiled_s=median(times), agree=fast == pure)
        result["kernels"][name] = row
    with open(out_path, "w") as fh:
        json.dump(result, fh)
