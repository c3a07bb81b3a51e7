"""Build script.

The compiled core fct._fastcore is built from the shipped C source
src/fct/_fastcore.c, so Cython is not needed to install.  The extension
is optional: without a C compiler the install still succeeds and the
package falls back to the pure Python kernels in fct._purecore at import
time.  After editing src/fct/_fastcore.pyx, regenerate the C source with
`cythonize -3 src/fct/_fastcore.pyx`; tests/test_kernels.py checks that
the two files agree.
"""
from setuptools import Extension, setup

setup(ext_modules=[Extension("fct._fastcore", ["src/fct/_fastcore.c"], optional=True)])
