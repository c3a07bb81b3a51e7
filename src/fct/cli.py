"""Command line front end.

Subcommands: ``triangle`` prints one of the three generating
polynomials, ``verify`` runs a single named identity, ``grid`` runs a
whole verification matrix, and ``dump`` emits the raw combinatorial
objects behind the polynomials.  All machine output (JSON, CSV, LaTeX)
is byte-deterministic for fixed arguments.  ``triangle`` and ``dump``
read their producer from one table each, ``TRIANGLES`` and ``DUMPS``: a
layer function of (rs, k), and for a dump the writer of its result.
The chain and delta sequence dumps and the Ehrhart CSV return their text
(the JSON dumps the bytes of ``_json_bytes`` of their lists, built once
per distinct filter or element); the face numbers and regions return
objects for ``_json_bytes``.

Exit codes: 0 verified/success, 1 identity violated, 2 usage error,
3 internal invariant failure or any other unexpected exception (its
traceback is printed), 4 resource bound exceeded.  A reader that closes
stdout early ends the process by SIGPIPE, as it ends ``cat``.

``verify`` prints the answer of ``fct.verify.run_identity``: an ok
line, or the counterexample as one JSON line.

Every command runs in a fresh process, so start-up and exit are part of
its cost.  ``entry`` registers ``gc.freeze`` with ``atexit``, so the
process ends without the shutdown collections walking a heap that the
OS is about to free; a caller that runs ``entry`` in its own process
keeps its collector as it was until that process exits.
This module imports no layer at the top: each command loads the layers
it runs when it runs, so ``triangle M`` never loads the nonnesting,
cluster, Ehrhart or arrangement code.  ``verify`` and ``grid`` load
``fct.verify``, which imports every layer at module level, because its
identities span all of them; a caller that needs the whole package
loaded (the perfbench tracer patches the layers it finds in
``sys.modules``) imports ``fct.verify``.

``grid`` runs the cells of ``fct.grid.cells``, each of which names the
identities it runs, in worker processes that ``fct.grid.run_cells``
forks itself with ``os.fork`` and feeds through pipes, one per usable
CPU, costliest cell first, each with its own caches.  The rows, FAIL
lines and the first error come back in grid order, so the output is the
same as one process running the cells in turn.
"""
from __future__ import annotations

import argparse
import json
import signal
import sys
from importlib import import_module

from .errors import InternalInvariantError, ResourceLimitError, UsageError
from .rootsys import TypeSpec, build_root_system

GRID_COLUMNS = [
    "counts", "h=f", "h=m", "m=f", "y1-nar", "dh", "df", "bij",
    "k1", "dual", "recip", "lattice-nar", "pos", "ceil", "final", "phi",
]


def _emit(text: str, out) -> None:
    """Write ``text`` to stdout, or to the file ``out`` whole: it goes to a
    temporary file beside ``out`` that replaces ``out`` only once written,
    so a failed write leaves an existing ``out`` as it was."""
    if out is None:
        sys.stdout.write(text)
        return
    import os

    tmp = f"{out}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except OSError as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise UsageError(f"cannot write {out}: {exc.strerror}") from None


def _json_bytes(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# Triangle letter -> (layer module, function of (rs, k)), imported on use.
TRIANGLES = {
    "H": ("nonnesting", "h_triangle"),
    "F": ("cluster", "f_triangle"),
    "M": ("noncrossing", "m_triangle"),
}

# Dump name -> (layer module, function of (rs, k), writer of its result),
# imported on use; ``str`` writes a result that is its text already.
DUMPS = {
    "nn": ("nonnesting", "chains_json", str),
    "fnumbers": ("cluster", "fnumbers_json", _json_bytes),
    "nc": ("noncrossing", "nc_json", str),
    "regions": ("arrangement", "regions_json", _json_bytes),
    "ehrhart": ("ehrhart", "ehrhart_csv", str),
}


def _layer(module: str, function: str):
    """The function of a layer, whose module is imported on first use."""
    return getattr(import_module(f"{__package__}.{module}"), function)


def cmd_triangle(args) -> int:
    rs = build_root_system(TypeSpec.parse(args.type))
    poly = _layer(*TRIANGLES[args.triangle])(rs, args.k)
    if args.json:
        payload = {
            "triangle": args.triangle,
            "type": str(rs.typespec),
            "k": args.k,
            "n": rs.n,
            "monomials": poly.monomial_list(),
        }
        _emit(_json_bytes(payload), args.out)
    elif args.latex:
        _emit(poly.latex() + "\n", args.out)
    else:
        _emit(str(poly) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    from . import verify

    rs = build_root_system(TypeSpec.parse(args.type))
    detail = verify.run_identity(args.identity, rs, args.k)
    if detail is None:
        if not args.quiet:
            print(f"{args.identity} {rs.typespec} k={args.k}: ok")
        return 0
    print(_json_bytes(
        {"identity": args.identity, "type": str(rs.typespec), "k": args.k, "detail": detail}
    ), end="")
    return 1


def cmd_grid(args) -> int:
    from .grid import cells, run_cells

    header = ["type", "k", "|NN|", "facets", "|NC|"] + GRID_COLUMNS
    rows = []
    failures = 0
    for outcome in run_cells(cells(args.suite)):
        if isinstance(outcome, Exception):
            raise outcome
        row, lines = outcome
        rows.append(row)
        failures += len(lines)
        if not args.quiet:
            for line in lines:
                print(line, file=sys.stderr)
    if not args.quiet:
        widths = [
            max(len(header[c]), max(len(r[c]) for r in rows))
            for c in range(len(header))
        ]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        print("grid: %s, %d cell(s), %d failure(s)" % (args.suite, len(rows), failures))
    return 1 if failures else 0


def cmd_dump(args) -> int:
    rs = build_root_system(TypeSpec.parse(args.type))
    module, function, write = DUMPS[args.what]
    _emit(write(_layer(module, function)(rs, args.k)), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fct",
        description="Exact workbench for the three Fuss-Catalan families "
        "of a crystallographic root system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tri = sub.add_parser("triangle", help="print an H-, F-, or M-triangle")
    p_tri.add_argument("triangle", choices=sorted(TRIANGLES))
    p_tri.add_argument("--type", required=True, help="root system type, e.g. B3 or A1xA1")
    p_tri.add_argument("-k", type=int, required=True)
    fmt = p_tri.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--latex", action="store_true")
    p_tri.add_argument("--out", help="write to a file instead of stdout")
    p_tri.set_defaults(func=cmd_triangle)

    p_ver = sub.add_parser("verify", help="check one identity exactly")
    p_ver.add_argument("identity", choices=sorted(GRID_COLUMNS))
    p_ver.add_argument("--type", required=True)
    p_ver.add_argument("-k", type=int, required=True)
    p_ver.add_argument("--quiet", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    p_grid = sub.add_parser("grid", help="run a verification matrix")
    p_grid.add_argument("suite", choices=["acceptance", "extended"])
    p_grid.add_argument("--quiet", action="store_true")
    p_grid.set_defaults(func=cmd_grid)

    p_dump = sub.add_parser("dump", help="emit raw combinatorial objects")
    p_dump.add_argument("what", choices=list(DUMPS))
    p_dump.add_argument("--type", required=True)
    p_dump.add_argument("-k", type=int, required=True)
    p_dump.add_argument("--out")
    p_dump.set_defaults(func=cmd_dump)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "out", None) == "":  # a path variable left unset is not stdout
        raise UsageError("--out needs a file name")
    return args.func(args)


def entry() -> None:
    import atexit
    import gc

    # a reader that closes stdout early ends fct as it ends cat, with no
    # traceback
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    # the heap is freed with the process: the collections of interpreter
    # shutdown, run after the atexit handlers, need not walk it
    atexit.register(gc.freeze)
    try:
        code = main()
    except UsageError as exc:
        print(f"fct: {exc}", file=sys.stderr)
        code = 2
    except ResourceLimitError as exc:
        print(f"fct: resource bound exceeded: {exc}", file=sys.stderr)
        code = 4
    except MemoryError:
        print("fct: resource bound exceeded: out of memory", file=sys.stderr)
        code = 4
    except RecursionError:  # the chain walk recurses once per filter of a chain
        print("fct: resource bound exceeded: recursion too deep", file=sys.stderr)
        code = 4
    except InternalInvariantError as exc:
        print(f"fct: internal invariant violated: {exc}", file=sys.stderr)
        code = 3
    except Exception:
        # a crash, here or in a grid worker (whose traceback is a note),
        # must not read as a violated identity
        import traceback

        traceback.print_exc()
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    entry()
