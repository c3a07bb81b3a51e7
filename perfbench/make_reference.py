"""Write reference.json from the outputs of the current checkout.

    python3 perfbench/make_reference.py

Runs the grid and every cold request once and records the SHA-256 of
each output, plus the (cell, identity) checks the grid table shows.
Outputs are byte-deterministic, so a reference changes only when a
change to the program changes what it prints; run this only then.
"""
from __future__ import annotations

import json
import sys

import run


def main() -> int:
    launcher = run.make_launcher("compiled")
    cold = {}
    for args in run.COLD:
        proc = launcher.cli(args)
        if proc.code != 0:
            print(f"{run.key(args)} exited {proc.code}", file=sys.stderr)
            return 1
        cold[run.key(args)] = run.sha256(proc.stdout)
    proc = launcher.cli(run.GRID)
    status, _ = run.parse_grid(proc.stdout.decode())
    if proc.code != 0 or not status or set(status.values()) != {"ok"}:
        print(f"grid exited {proc.code}", file=sys.stderr)
        return 1
    reference = {
        "grid": {"sha256": run.sha256(proc.stdout), "checks": sorted(status)},
        "cold": cold,
    }
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
