"""The cells of ``fct grid``, run in forked worker processes.

``cells`` is the one table of a suite: each cell is (type, k,
identities), the identities in ``GRID_COLUMNS`` order.  Both suites run
A1-A3, B2, B3 and G2 at k = 1, 2, 3 and D4, F4 at k = 1, 2.  On each
cell the k = 1 statements (``verify.K1_ONLY``) run at k = 1 only;
lattice-nar runs on ``LATTICE_TYPES`` at k <= 2; pos, ceil, final and
phi run at k <= 2 up to rank 3 in ``acceptance`` and rank 4 in
``extended``; every other identity runs everywhere.  ``extended`` adds
two E6 cells with their own lists.

``row`` runs one cell's identities and returns its table row and FAIL
lines; it prints nothing.  ``run_cells`` freezes the heap (``gc.freeze``)
and forks one worker per usable CPU, at most one per cell, with a pipe
down for cell indices and one up for pickled outcomes.  A worker that
becomes idle is handed the costliest cell not yet started, so the
longest cells start first.  Each worker keeps its own caches, filled
from the layers and root systems loaded before the fork.  The results
come back in grid order, up to the first cell that raises, so
``fct.cli.cmd_grid`` prints exactly what one process running the cells
in turn would print.  Teardown signals every worker before it reaps
any, then closes the pipes.

Only ``grid`` imports this module, so no other command compiles or
loads it.
"""
from __future__ import annotations

import gc
import os
import pickle
import select
import signal
import sys

from . import cluster, noncrossing, nonnesting, verify
from .cli import GRID_COLUMNS
from .errors import InternalInvariantError, UsageError
from .rootsys import TypeSpec, build_root_system, fuss_catalan_number

# The (type, k) of both suites, and the two cells ``extended`` adds with
# their own identities.
ACCEPTANCE = [
    (name, k) for name in ("A1", "A2", "A3", "B2", "B3", "G2") for k in (1, 2, 3)
] + [(name, k) for name in ("D4", "F4") for k in (1, 2)]
EXTENDED_E6 = [
    ("E6", 1, ("counts", "pos", "ceil", "final", "phi")), ("E6", 2, ("h=m", "m=f"))
]
LATTICE_TYPES = {"A1", "A2", "A3", "B2", "B3", "G2", "F4"}
GEOMETRIC = {"pos", "ceil", "final", "phi"}


def cells(suite: str) -> list:
    """The cells (type, k, identities) of the suite, in grid order."""
    if suite not in ("acceptance", "extended"):
        raise UsageError(f"unknown suite {suite!r}")
    geometric_rank = 3 if suite == "acceptance" else 4
    out = []
    for name, k in ACCEPTANCE:
        skip = set() if k == 1 else set(verify.K1_ONLY)
        if name not in LATTICE_TYPES or k > 2:
            skip.add("lattice-nar")
        if TypeSpec.parse(name).rank > geometric_rank or k > 2:
            skip |= GEOMETRIC
        out.append((name, k, tuple(i for i in GRID_COLUMNS if i not in skip)))
    return out + EXTENDED_E6 if suite == "extended" else out


def row(cell: tuple) -> tuple:
    """One cell's table row and the FAIL lines of its identities, in
    column order."""
    name, k, identities = cell
    rs = build_root_system(TypeSpec.parse(name))
    nn = len(nonnesting.enumerate_chains(rs, k))
    facets = cluster.build_complex(rs, k).facet_count
    nc = noncrossing.sequence_count(rs, k)
    out = [name, str(k), str(nn), str(facets), str(nc)]
    lines = []
    for identity in GRID_COLUMNS:
        if identity not in identities:
            out.append("-")
            continue
        detail = verify.run_identity(identity, rs, k)
        if detail is None:
            out.append("ok")
        else:
            out.append("FAIL")
            lines.append(f"{identity} {name} k={k}: FAIL {detail!r}")
    return out, lines


def cost(cell: tuple) -> int:
    """The Fuss-Catalan number of the deepest census the cell runs:
    recip samples k = 1..``verify.recip_depth`` from one census, the
    rest stop at k."""
    name, k, identities = cell
    rs = build_root_system(TypeSpec.parse(name))
    return fuss_catalan_number(rs, verify.recip_depth(rs) if "recip" in identities else k)


def _worker(tasks, results, cells: list) -> None:
    """Receive cell indices until the parent goes away; send back each
    cell's ``row`` or the exception it raised."""
    while True:
        try:
            i = pickle.load(tasks)
        except EOFError:
            return
        try:
            outcome = row(cells[i])
        except Exception as exc:
            import traceback

            # the parent re-raises it; keep where it happened
            exc.add_note(traceback.format_exc().rstrip())
            outcome = exc
        results.write(pickle.dumps(outcome))  # whole, or not at all
        results.flush()


def run_cells(cells: list) -> list:
    """Each cell's ``row`` or exception, in grid order, up to the first
    exception.

    Once a cell raises, no later cell starts.  Every worker is reaped
    before this returns or raises; one that dies without a result is an
    internal invariant failure naming its cell.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    # stable sort: cells of equal cost go in grid order
    todo = sorted(range(len(cells)), key=lambda i: -cost(cells[i]))
    outcomes = [None] * len(cells)
    stop = len(cells)  # the first cell known to raise
    # a worker must not inherit buffered output and write it again
    sys.stdout.flush()
    sys.stderr.flush()
    gc.freeze()  # no later collection, here or in a worker, walks this heap
    workers = {}  # connection (the result pipe) -> (pid, task pipe)
    ends = []  # the parent's pipe descriptors, closed by it and every later worker
    try:
        for _ in range(min(cpus, len(cells))):
            (down, tasks), (results, up) = os.pipe(), os.pipe()
            ends += (tasks, results)
            pid = os.fork()
            if pid == 0:  # the worker never returns into the caller
                try:
                    for fd in ends:
                        os.close(fd)
                    _worker(open(down, "rb"), open(up, "wb"), cells)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(down)
            os.close(up)
            workers[open(results, "rb", closefd=False)] = (pid, tasks)  # closed with ends
        idle = list(workers)
        running = {}  # connection -> cell index
        while True:
            todo = [i for i in todo if i < stop]
            while idle and todo:
                conn = idle.pop()
                running[conn] = todo.pop(0)
                os.write(workers[conn][1], pickle.dumps(running[conn]))
            if not todo and all(i > stop for i in running.values()):
                break
            for conn in select.select(list(running), [], [])[0]:
                i = running.pop(conn)
                try:
                    outcomes[i] = pickle.load(conn)
                except EOFError:
                    name, k, _ = cells[i]
                    raise InternalInvariantError(
                        f"grid worker died on cell {name} k={k} without a result"
                    ) from None
                if isinstance(outcomes[i], Exception):
                    stop = min(stop, i)
                idle.append(conn)
    finally:
        for pid, _ in workers.values():
            os.kill(pid, signal.SIGTERM)
        for pid, _ in workers.values():
            os.waitpid(pid, 0)
        for fd in ends:
            os.close(fd)
    return outcomes[: stop + 1]
