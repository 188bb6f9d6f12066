"""Shared fixtures: the bundled example pipeline, computed once per session.

The order-3 reduction (orders 1 to 3) takes 1.3 to 1.5 seconds on a 2-CPU
Intel Xeon with Python 3.11 and the Fraction backend; every test that
needs its reports shares one run through these fixtures, and the acceptance tests
check the recorded wall-clock times against their budgets.
"""

import time

import pytest

from varred import fixtures
from varred.reduction import reduce_variational_tower


@pytest.fixture(scope="session")
def hh_system():
    return fixtures.load_hamiltonian().build_system()


@pytest.fixture(scope="session")
def hh_p1():
    return fixtures.load_p1()


@pytest.fixture(scope="session")
def lve2_run(hh_system, hh_p1):
    """(reports for orders 1..2, elapsed seconds)."""
    t0 = time.monotonic()
    reports = reduce_variational_tower(hh_system, 2, hh_p1)
    return reports, time.monotonic() - t0


@pytest.fixture(scope="session")
def lve3_run(hh_system, hh_p1):
    """(reports for orders 1..3, elapsed seconds)."""
    t0 = time.monotonic()
    reports = reduce_variational_tower(hh_system, 3, hh_p1)
    return reports, time.monotonic() - t0
