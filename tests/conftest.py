"""Shared fixtures: each optimizer run is expensive enough to do once.

The timed fixtures return (report, seconds) so the acceptance tests can
check the runtime budgets against the same run the unit tests inspect.
"""

import time

import pytest

from localmaxcut import optimize_classical, optimize_qaoa


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="session")
def qaoa_d2():
    return _timed(optimize_qaoa, 2)


@pytest.fixture(scope="session")
def qaoa_d3():
    return _timed(optimize_qaoa, 3)


@pytest.fixture(scope="session")
def classical_d2():
    return _timed(optimize_classical, 2)


@pytest.fixture(scope="session")
def classical_d3():
    return _timed(optimize_classical, 3)
