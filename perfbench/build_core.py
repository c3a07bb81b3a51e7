"""Compile the shipped C source of the kernel core.

    python3 perfbench/build_core.py SOURCE.c BUILD_LIB BUILD_TEMP

builds the extension fct._fastcore from SOURCE.c with the same compiler
and flags setuptools uses for the repository's own build, and writes it
to BUILD_LIB/fct/.  Cython is not needed: the generated C is compiled
directly.
"""
from __future__ import annotations

import sys

from setuptools import Distribution, Extension
from setuptools.command.build_ext import build_ext


def build(source: str, build_lib: str, build_temp: str) -> None:
    dist = Distribution({"ext_modules": [Extension("fct._fastcore", [source])]})
    cmd = build_ext(dist)
    cmd.build_lib = build_lib
    cmd.build_temp = build_temp
    cmd.ensure_finalized()
    cmd.run()


if __name__ == "__main__":
    build(*sys.argv[1:4])
