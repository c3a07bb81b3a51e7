import os
import signal
import sys

sys.path.insert(0, os.path.dirname(__file__))

import pytest
from hypothesis import strategies as st

from fct.rootsys import TypeSpec, build_root_system

SMALL_FACTORS = {"A1": 1, "A2": 2, "A3": 3, "B2": 2, "G2": 2}


@pytest.fixture(autouse=True)
def keep_sigpipe_handler():
    """``fct.cli.entry`` lets SIGPIPE end the process it runs in; a test
    that calls it must not change how the test process meets a closed
    pipe."""
    handler = signal.getsignal(signal.SIGPIPE)
    yield
    signal.signal(signal.SIGPIPE, handler)


def rsys(name: str):
    return build_root_system(TypeSpec.parse(name))


@st.composite
def small_products(draw):
    """Names of random products of A1-A3, B2 and G2 up to rank 4."""
    factors = draw(
        st.lists(st.sampled_from(sorted(SMALL_FACTORS)), min_size=1, max_size=4)
    )
    keep = []
    for f in factors:
        if sum(SMALL_FACTORS[g] for g in keep) + SMALL_FACTORS[f] <= 4:
            keep.append(f)
    return "x".join(keep)
