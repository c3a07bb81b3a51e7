"""One fct process, launched by run.py with PYTHONPATH=src.

    child.py setup [--core DIR]
        import fct.cli, resolve the kernel backend, print it, exit 0
    child.py cli [--core DIR] [--trace FILE] -- ARGS...
        run the fct command line (fct.cli.entry) on ARGS and exit with
        its code; with --trace, record spans and write them to FILE
    child.py kernels [--core DIR] --out FILE
        time the kernels on fixed inputs (see kernel_probe.py)

--core names a build directory holding fct/_fastcore; its fct/ is
appended to the fct package path before the backend is resolved.
"""
from __future__ import annotations

import argparse
import os
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "cli", "kernels"])
    parser.add_argument("--core")
    parser.add_argument("--trace")
    parser.add_argument("--out")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    opts = parser.parse_args(argv[:split])
    fct_args = argv[split + 1:]

    import fct

    if opts.core:
        fct.__path__.append(os.path.join(opts.core, "fct"))
    import fct.cli
    from fct import kernels

    if opts.mode == "setup":
        print(kernels.BACKEND)
        return 0
    if opts.mode == "kernels":
        import kernel_probe

        kernel_probe.run(opts.out)
        return 0
    sys.argv = ["fct", *fct_args]
    if opts.trace:
        import tracer

        return tracer.run_cli(tracer.install(), fct.cli.entry, opts.trace)
    fct.cli.entry()
    return 0


if __name__ == "__main__":
    sys.exit(main())
