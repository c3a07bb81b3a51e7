"""The compiled kernel core against the pure one; tests/test_kernels.py
holds the kernel tests that need only the pure core.

The module builds the shipped src/fct/_fastcore.c into a temporary
directory, with perfbench/build_core.py, and tests that build: an
installed or in-place core is not needed.  It skips only when there is
no C compiler.
"""
import importlib.util
import os
import runpy
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings

from fct import _purecore
from fct.cluster import compat_masks
from fct.nonnesting import _chain_data

from conftest import rsys
from oracles import subfilter_table
from test_kernels import (
    HAND_CENSUS,
    HAND_GRAPH,
    fraction_rank,
    k1_subfilter_lists_unused,
    matrices,
)

ROOT = Path(__file__).resolve().parents[1]


def _has_compiler() -> bool:
    """Whether the C compiler the extension build would call exists."""
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "").split()
    return bool(cc) and shutil.which(cc[0]) is not None


@pytest.fixture(scope="module")
def built(tmp_path_factory) -> Path:
    """Directory holding the freshly built fct/_fastcore extension."""
    if not _has_compiler():
        pytest.skip("no C compiler to build fct._fastcore from src/fct/_fastcore.c")
    build = runpy.run_path(str(ROOT / "perfbench" / "build_core.py"))["build"]
    out = tmp_path_factory.mktemp("fastcore")
    build(str(ROOT / "src" / "fct" / "_fastcore.c"), str(out / "lib"), str(out / "temp"))
    return out / "lib" / "fct"


@pytest.fixture(scope="module")
def fast(built):
    """The built compiled core, loaded as fct._fastcore without
    replacing the package's own kernel modules."""
    path = next(built.glob("_fastcore*" + sysconfig.get_config_var("EXT_SUFFIX")))
    spec = importlib.util.spec_from_file_location("fct._fastcore", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_backend_is_compiled_by_default(built):
    """With the core importable, kernels picks it unless FCT_BACKEND is
    exactly "python"."""
    code = (
        "import sys, fct; fct.__path__.insert(0, sys.argv[1]); "
        "from fct import kernels; print(kernels.BACKEND)"
    )
    env = {key: value for key, value in os.environ.items() if key != "FCT_BACKEND"}
    for value, backend in [
        (None, "compiled"), ("python", "python"), ("pure", "compiled"), ("PYTHON", "compiled"),
    ]:
        run_env = env if value is None else dict(env, FCT_BACKEND=value)
        out = subprocess.run(
            [sys.executable, "-c", code, str(built)],
            env=run_env, capture_output=True, text=True,
        )
        assert out.stdout.strip() == backend, (value, out.stderr)


# Run in a fresh interpreter with the built core first on fct's path:
# one command (argv[2:]), then whether it loaded the compiled core.
CORE_LOAD_PROBE = """
import contextlib, io, sys
import fct, fct.cli
fct.__path__.insert(0, sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    fct.cli.main(sys.argv[2:])
print("fct._fastcore" in sys.modules)
"""


def test_only_the_clique_census_commands_load_the_core(built):
    """kernels, the compiled core's switch, is loaded by the commands that
    may run a clique census, and by them only."""
    env = {key: value for key, value in os.environ.items() if key != "FCT_BACKEND"}
    cell = ["--type", "A2", "-k", "1"]
    for argv, loads in [
        (["triangle", "H", *cell], False),
        (["triangle", "M", *cell], False),
        *((["dump", what, *cell], False) for what in ("nn", "nc", "regions", "ehrhart")),
        (["triangle", "F", *cell], True),
        (["dump", "fnumbers", *cell], True),
        (["verify", "counts", *cell], True),
        (["grid", "acceptance", "--quiet"], True),
    ]:
        out = subprocess.run(
            [sys.executable, "-c", CORE_LOAD_PROBE, str(built), *argv],
            env=env, capture_output=True, text=True,
        )
        assert out.stdout == f"{loads}\n", (argv, out.stderr)


def test_weyl_closure_backends_agree(fast):
    from fct.weyl import simple_reflection

    for name in ["A2", "B2", "A3", "G2", "B3", "D4", "F4"]:
        rs = rsys(name)
        gens = tuple(simple_reflection(rs, i).img for i in range(rs.n))
        pure = _purecore.weyl_closure(gens, 10**7)
        assert fast.weyl_closure(gens, 10**7) == pure
        with pytest.raises(_purecore.LimitExceeded):
            _purecore.weyl_closure(gens, len(pure) - 1)
        with pytest.raises(fast.LimitExceeded):
            fast.weyl_closure(gens, len(pure) - 1)


@settings(max_examples=150)
@given(matrices)
def test_compiled_int_rank_matches_fraction_elimination(fast, mat):
    assert fast.int_rank(mat) == _purecore.int_rank(mat) == fraction_rank(mat)


def test_compiled_clique_census_hand_graph(fast):
    assert fast.clique_census(HAND_GRAPH, 3, 1) == HAND_CENSUS


def test_clique_census_backends_agree(fast):
    for name, k in [("A3", 2), ("B3", 2), ("G2", 3), ("D4", 2), ("F4", 2)]:
        rs = rsys(name)
        masks = compat_masks(rs, k)
        assert _purecore.clique_census(masks, len(masks), rs.n) == fast.clique_census(
            masks, len(masks), rs.n
        )


def test_clique_census_wide_masks(fast):
    # more than 64 vertices exercises the two-word bitmask path
    for name, k in [("B3", 7), ("A3", 11), ("D4", 5)]:
        rs = rsys(name)
        masks = compat_masks(rs, k)
        assert len(masks) >= 63
        assert _purecore.clique_census(masks, len(masks), rs.n) == fast.clique_census(
            masks, len(masks), rs.n
        )


def test_nn_backends_agree(fast):
    for name in ["A2", "B2", "A3", "B3", "G2", "D4", "F4"]:
        rs = rsys(name)
        triples = rs.sum_triples
        nroots = len(rs.positive_roots)
        for k in (1, 2, 3):
            filters, _, full = _chain_data(rs, k)
            subs = subfilter_table(filters)
            assert _purecore.nn_chains(filters, subs, triples, k, full) == (
                fast.nn_chains(filters, subs, triples, k, full)
            )
            assert _purecore.nn_census(
                filters, subs, triples, rs.pair_lists, k, full, nroots, rs.n
            ) == fast.nn_census(
                filters, subs, triples, rs.pair_lists, k, full, nroots, rs.n
            )


def test_k1_chain_data_compiled_core(fast):
    k1_subfilter_lists_unused(fast)


def test_family_census_matches_compiled_per_k(fast):
    for name in ["D4", "F4"]:
        rs = rsys(name)
        top = rs.n + 4
        filters, _, full = _chain_data(rs, top)
        subs = subfilter_table(filters)
        family = _purecore.nn_census_family(filters, rs.sum_triples, top, full, rs.n)
        for k in range(1, top + 1):
            assert family[k - 1] == fast.nn_census(
                filters, subs, rs.sum_triples, rs.pair_lists, k, full,
                len(rs.positive_roots), rs.n,
            ), (name, k)
