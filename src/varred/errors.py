"""Shared failure types, mapped to distinct exit codes by the CLI, and the
time budget behind --max-minutes: the one module that reads the clock."""
from __future__ import annotations

import math
import time
from contextlib import contextmanager
from contextvars import ContextVar


class FileFormatError(ValueError):
    """Malformed input file (bad key, bad expression, wrong shape)."""


class PreconditionFailure(ValueError):
    """Input violates a documented precondition (e.g. the particular
    solution does not satisfy the field equations, or block metadata is
    missing/inconsistent)."""


class UnsupportedRegime(ValueError):
    """Structurally valid input outside the implemented regime (diagonal
    algebra not monogenous, eigenvalues outside Q, non-nilpotent tower
    shape)."""


class ReductionTimeout(RuntimeError):
    """The cooperative --max-minutes guard fired."""


# the time.monotonic() value past which check_deadline raises; None: no budget
_END = ContextVar("varred_time_budget_end", default=None)


@contextmanager
def time_budget(seconds):
    """Make check_deadline() raise, inside the with-block, once seconds have
    passed; None sets no budget, and an inner budget never outlasts an
    enclosing one.  NaN, which no clock reading passes, is refused."""
    end = _END.get()
    if seconds is not None:
        if math.isnan(seconds):
            raise PreconditionFailure("the time budget is not a number")
        mine = time.monotonic() + seconds
        end = mine if end is None else min(end, mine)
    token = _END.set(end)
    try:
        yield
    finally:
        _END.reset(token)


def check_deadline() -> None:
    """Raise ReductionTimeout once the enclosing time budget has passed."""
    end = _END.get()
    if end is not None and time.monotonic() > end:
        raise ReductionTimeout("time budget exhausted during reduction")
