"""In-process span recorder for the fct layers.

``install()`` replaces the layer functions listed in ``SPANS`` and
``COUNTERS`` with recording wrappers, everywhere a loaded fct module
holds a reference to them: module globals (including names other
modules imported directly, such as ``verify.parabolic``), dict values
(``cli.TRIANGLES``, ``verify.IDENTITIES``) and class attributes.  The
program itself is not modified on disk.

A span records its name, start, end, parent and the size of the object
it built.  Self time is the span's duration minus the time of its child
spans and timed counters.  Hot inner calls (``absolute_leq``,
``int_rank``) are counted, not spanned.  Spans stay in memory; ``run_cli``
aggregates and writes them once, at the end of the process.
"""
from __future__ import annotations

import builtins
import functools
import inspect
import json
import sys
from time import perf_counter


def _len(out):
    return len(out)


def _subfilter_pairs(out):
    return sum(len(s) for s in out[1])


def _poset_size(out):
    return len(out.elements)


def _faces(out):
    return out.face_count()


def _points(out):
    return out.total


# (module, attribute, span name, size of the built object or None,
#  family whose size must be the Fuss-Catalan number or None)
SPANS = [
    ("kernels", "nn_census", "kernels.nn_census", None, None),
    ("kernels", "nn_chains", "kernels.nn_chains", None, None),
    ("kernels", "clique_census", "kernels.clique_census", None, None),
    ("kernels", "weyl_closure", "kernels.weyl_closure", None, None),
    ("nonnesting", "enumerate_filters", "nonnesting.filters", _len, None),
    ("nonnesting", "_chain_data", "nonnesting.chain_data", _subfilter_pairs, None),
    ("nonnesting", "enumerate_chains", "nonnesting.chains", _len, "chains"),
    ("nonnesting", "chain_statistics", "nonnesting.census", None, None),
    ("nonnesting", "indecomposables", "nonnesting.indecomposables", None, None),
    ("noncrossing", "absolute_interval", "noncrossing.interval", _len, None),
    ("noncrossing", "_interval_tables", "noncrossing.interval_tables", None, None),
    ("noncrossing", "enumerate_delta_sequences", "noncrossing.delta_sequences", _len,
     "sequences"),
    ("noncrossing", "build_nc_poset", "noncrossing.nc_poset", _poset_size, None),
    ("noncrossing", "_moebius_rows", "noncrossing.moebius", None, None),
    ("noncrossing", "_multichain_counts", "noncrossing.multichain", None, None),
    ("weyl", "generate_group", "weyl.group", _len, None),
    ("weyl", "reflection_word", "weyl.reflection_word", None, None),
    ("cluster", "colored_rotation", "cluster.rotation", None, None),
    ("cluster", "compat_masks", "cluster.compat", None, None),
    ("cluster", "build_complex", "cluster.complex", _faces, None),
    ("ehrhart", "count_by_walls", "ehrhart.walls", _points, None),
    ("arrangement", "feasible", "arrangement.fm", None, None),
    ("arrangement", "regions_of", "arrangement.regions", None, None),
    ("rootsys", "build_root_system", "rootsys.build", None, None),
    ("rootsys", "parabolic", "rootsys.build", None, None),
] + [
    ("poly", name, "poly.transform", None, None)
    for name in (
        "h_from_f", "h_from_m", "f_from_m", "m_from_h", "h_from_f_k1",
        "f_self_dual_image", "h_reciprocal_image", "m_reciprocal_image",
        "h_dual_image", "f_from_h_k1", "ceiling_specialization",
        "bottom_specialization",
    )
]

# (module, attribute, counter name, whether each call is also timed)
COUNTERS = [
    ("weyl", "absolute_leq", "weyl.absolute_leq", False),
    ("kernels", "int_rank", "kernels.int_rank", True),
]

# Stages whose builds are keyed by their normalised arguments, for
# useful_ratio: a key built twice is wasted work.
KEYED = ("nonnesting.chain_data", "noncrossing.interval_tables", "noncrossing.delta_sequences")

ROOT = "cli.run"


def identity_span(identity: str) -> str:
    """Span name of one verify identity ('h=f' -> 'verify.h_eq_f')."""
    return "verify." + identity.replace("=", "_eq_")


class Recorder:
    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end, self seconds)
        self.stack = []  # open spans: [id, child seconds]
        self.counters = {}  # name -> [calls, seconds]
        self.built = {}  # name -> [builds, set of normalised keys, size]
        self.families = []  # (family, root system, k, size)
        self.emitted = 0

    def span(self, name, fn, size=None, family=None, cached=None, signature=None):
        built = self.built.setdefault(name, [0, set(), 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = cached.cache_info().misses if cached is not None else 0
            sid = len(self.spans) + len(self.stack)
            parent = self.stack[-1][0] if self.stack else None
            frame = [sid, 0.0]
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += t1 - t0
                self.spans.append((sid, parent, name, t0, t1, t1 - t0 - frame[1]))
            if cached is None or cached.cache_info().misses > misses:
                built[0] += 1
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    built[1].add(tuple(bound.arguments.values()))
                if size is not None:
                    n = size(out)
                    built[2] += n
                    if family is not None:
                        self.families.append((family, args[0], args[1], n))
            return out

        return wrapper

    def counter(self, name, fn, timed):
        cell = self.counters.setdefault(name, [0, 0.0])
        stack = self.stack

        if not timed:
            def wrapper(*args):
                cell[0] += 1
                return fn(*args)
            return wrapper

        def timed_wrapper(*args):
            t0 = perf_counter()
            out = fn(*args)
            dt = perf_counter() - t0
            cell[0] += 1
            cell[1] += dt
            if stack:
                stack[-1][1] += dt
            return out

        return timed_wrapper

    def emit_span(self, fn, measure):
        """Span for output writers; ``measure`` gives the bytes written."""
        wrapped = self.span("cli.emit", fn)

        def wrapper(*args, **kwargs):
            self.emitted += measure(*args, **kwargs)
            return wrapped(*args, **kwargs)

        return wrapper

    def summary(self, cached_functions) -> dict:
        from fct.rootsys import fuss_catalan_number

        agg = {}
        for _, _, name, t0, t1, own in self.spans:
            row = agg.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += own
        for name, (builds, keys, size) in self.built.items():
            row = agg.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row.update(builds=builds, distinct=len(keys), size=size)
        return {
            "spans": agg,
            "counters": {k: {"calls": c, "seconds": s} for k, (c, s) in self.counters.items()},
            "families": [
                [family, str(rs.typespec), k, n, fuss_catalan_number(rs, k)]
                for family, rs, k, n in self.families
            ],
            "emitted_bytes": self.emitted,
            "cache_entries": sum(f.cache_info().currsize for f in cached_functions),
        }


def _fct_modules():
    return [m for name, m in list(sys.modules.items()) if name.startswith("fct.") and m]


def _replace_everywhere(original, wrapper) -> int:
    """Point every reference a loaded fct module holds at ``wrapper``."""
    hits = 0
    for mod in _fct_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                hits += 1
            elif isinstance(value, dict):
                for dkey, dval in list(value.items()):
                    if dval is original:
                        value[dkey] = wrapper
                        hits += 1
    return hits


def _cached_functions():
    seen = {}
    for mod in _fct_modules():
        for value in vars(mod).values():
            value = getattr(value, "__wrapped__", value)
            if hasattr(value, "cache_info"):
                seen[id(value)] = value
    return list(seen.values())


def _print_bytes(*args, sep=" ", end="\n", file=None, flush=False):
    return len((sep.join(map(str, args)) + end).encode())


def _emit_bytes(text, out):
    return len(text.encode())


def install() -> Recorder:
    """Instrument the loaded fct package; returns the recorder."""
    from fct import cli, poly, verify  # cli imports every layer

    rec = Recorder()
    mods = {name.split(".", 1)[1]: m for name, m in sys.modules.items() if name.startswith("fct.")}
    for modname, attr, name, size, family in SPANS:
        fn = getattr(mods[modname], attr)
        cached = fn if hasattr(fn, "cache_info") else None
        signature = inspect.signature(fn) if name in KEYED else None
        wrapper = rec.span(name, fn, size, family, cached, signature)
        if not _replace_everywhere(fn, wrapper):
            raise RuntimeError(f"no reference to {modname}.{attr} was patched")
    for modname, attr, name, timed in COUNTERS:
        fn = getattr(mods[modname], attr)
        if not _replace_everywhere(fn, rec.counter(name, fn, timed)):
            raise RuntimeError(f"no reference to {modname}.{attr} was patched")
    for identity, fn in list(verify.IDENTITIES.items()):
        _replace_everywhere(fn, rec.span(identity_span(identity), fn))
    kfam = poly.KFamily
    kfam.fit = classmethod(rec.span("poly.kfamily", vars(kfam)["fit"].__func__))
    kfam.predict = rec.span("poly.kfamily", kfam.predict)
    cli._emit = rec.emit_span(cli._emit, _emit_bytes)
    # cli writes the grid table and verify lines with print(); a module
    # global shadows the builtin for the cli module only.
    cli.print = rec.emit_span(builtins.print, _print_bytes)
    return rec


def run_cli(rec: Recorder, entry, out_path: str) -> int:
    """Run ``entry`` inside the root span, then write the summary once."""
    root = rec.span(ROOT, entry)
    try:
        root()
        code = 0
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    finally:
        summary = rec.summary(_cached_functions())
        with open(out_path, "w") as fh:
            json.dump(summary, fh)
    return code
