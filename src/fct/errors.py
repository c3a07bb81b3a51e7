"""Error types shared across the package, and the two checks that every
request passes before any work.

The command line tool maps these onto process exit codes:

* ``UsageError``             -> 2 (bad arguments, unsupported combination)
* ``InternalInvariantError`` -> 3 (a structural self-check failed)
* ``ResourceLimitError``     -> 4 (an enumeration exceeded its safety bound)

Verification failures (an identity that does not hold) are ordinary return
values, not exceptions; the CLI turns them into exit code 1.

``require_k`` is the one k rule of the three families, and
``require_within`` the one resource check: each bounded stage predicts
its work from (rs, k) before it starts (a Fuss-Catalan sum, a table
size, |W| as the product of the degrees) and passes that count, its
limit and a description of the work here.  No other module raises
either error's message.
"""
from __future__ import annotations


class UsageError(ValueError):
    """Raised when an operation is called outside its contract."""


class InternalInvariantError(AssertionError):
    """Raised when a structural invariant of the package itself fails."""


class ResourceLimitError(RuntimeError):
    """Raised when an enumeration would exceed a configured safety bound."""


def require_k(k: int) -> None:
    """Every family is indexed by a positive integer k."""
    if k < 1:
        raise UsageError("k must be a positive integer")


def require_within(count: int, limit: int, what: str) -> None:
    """Exit before the work when its predicted size ``count`` passes
    ``limit``; ``what`` says what would be built, with its count."""
    if count > limit:
        raise ResourceLimitError(f"{what}, more than the bound {limit}")
