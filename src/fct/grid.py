"""The cells of ``fct grid``, run in forked worker processes.

``row`` runs one cell's identities and returns its table row and FAIL
lines; it prints nothing.  ``run_cells`` runs every cell of a suite in
fork-started workers, one per usable CPU and at most one per cell.  A
worker that becomes idle is handed the costliest cell not yet started,
so the longest cells start first.  Each worker keeps its own caches,
filled from the layers and root systems loaded before the fork.  The
results come back in grid order, up to the first cell that raises, so
``fct.cli.cmd_grid`` prints exactly what one process running the cells
in turn would print.

Only ``grid`` imports this module, so no other command compiles or
loads it, nor the multiprocessing machinery it needs.
"""
from __future__ import annotations

import multiprocessing
import os
import sys
from multiprocessing.connection import wait

from . import cluster, noncrossing, nonnesting, verify
from .cli import GRID_COLUMNS
from .errors import InternalInvariantError
from .rootsys import RootSystem, TypeSpec, build_root_system, fuss_catalan_number

LATTICE_TYPES = {"A1", "A2", "A3", "B2", "B3", "G2", "F4"}

# The largest rank at which each suite runs the arrangement identities.
GEOMETRIC_RANK = {"acceptance": 3, "extended": 4}


def _applicable(identity: str, rs: RootSystem, k: int, suite: str, only) -> bool:
    """Whether a grid cell runs the identity: its own list if it has
    one, else the suite's domain rules."""
    if only is not None:
        return identity in only
    if identity in verify.K1_ONLY and k != 1:
        return False
    if identity == "lattice-nar":
        return str(rs.typespec) in LATTICE_TYPES and k <= 2
    if identity in ("pos", "ceil", "final", "phi"):
        return rs.n <= GEOMETRIC_RANK[suite] and k <= 2
    return True


def row(suite: str, cell: tuple) -> tuple:
    """One cell's table row and the FAIL lines of its identities, in
    column order."""
    name, k, only = cell
    rs = build_root_system(TypeSpec.parse(name))
    nn = len(nonnesting.enumerate_chains(rs, k))
    facets = cluster.build_complex(rs, k).facet_count
    nc = noncrossing.sequence_count(rs, k)
    out = [name, str(k), str(nn), str(facets), str(nc)]
    lines = []
    for identity in GRID_COLUMNS:
        if not _applicable(identity, rs, k, suite, only):
            out.append("-")
            continue
        result = verify.run_identity(identity, rs, k)
        if result.ok:
            out.append("ok")
        else:
            out.append("FAIL")
            lines.append(result.line())
    return out, lines


def cost(suite: str, cell: tuple) -> int:
    """The Fuss-Catalan number of the deepest census the cell runs:
    recip samples k = 1..n+4 from one census, the rest stop at k."""
    name, k, only = cell
    rs = build_root_system(TypeSpec.parse(name))
    depth = rs.n + 4 if _applicable("recip", rs, k, suite, only) else k
    return fuss_catalan_number(rs, depth)


def _worker(conn, suite: str, cells: list) -> None:
    """Receive cell indices until the parent goes away; send back each
    cell's ``row`` or the exception it raised."""
    while True:
        try:
            i = conn.recv()
        except EOFError:
            return
        try:
            outcome = row(suite, cells[i])
        except Exception as exc:
            import traceback

            # the parent re-raises it; keep where it happened
            exc.add_note(traceback.format_exc().rstrip())
            outcome = exc
        conn.send(outcome)


def run_cells(suite: str, cells: list) -> list:
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
    ctx = multiprocessing.get_context("fork")
    # stable sort: cells of equal cost go in grid order
    todo = sorted(range(len(cells)), key=lambda i: -cost(suite, cells[i]))
    outcomes = [None] * len(cells)
    stop = len(cells)  # the first cell known to raise
    # a worker must not inherit buffered output and write it again
    sys.stdout.flush()
    sys.stderr.flush()
    workers = {}  # connection -> process
    try:
        for _ in range(min(cpus, len(cells))):
            here, there = ctx.Pipe()
            proc = ctx.Process(target=_worker, args=(there, suite, cells), daemon=True)
            proc.start()
            workers[here] = proc
            there.close()
        idle = list(workers)
        running = {}  # connection -> cell index
        while True:
            todo = [i for i in todo if i < stop]
            while idle and todo:
                conn = idle.pop()
                running[conn] = todo.pop(0)
                conn.send(running[conn])
            if not todo and all(i > stop for i in running.values()):
                break
            for conn in wait(list(running)):
                i = running.pop(conn)
                try:
                    outcomes[i] = conn.recv()
                except EOFError:
                    name, k, _ = cells[i]
                    raise InternalInvariantError(
                        f"grid worker died on cell {name} k={k} without a result"
                    ) from None
                if isinstance(outcomes[i], Exception):
                    stop = min(stop, i)
                idle.append(conn)
    finally:
        for proc in workers.values():
            proc.terminate()
            proc.join()
        for conn in workers:
            conn.close()
    return outcomes[: stop + 1]
