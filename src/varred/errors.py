"""Shared failure types, mapped to distinct exit codes by the CLI."""
from __future__ import annotations

import time


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


def check_deadline(deadline) -> None:
    """Raise ReductionTimeout once time.monotonic() has passed deadline."""
    if deadline is not None and time.monotonic() > deadline:
        raise ReductionTimeout("time budget exhausted during reduction")
