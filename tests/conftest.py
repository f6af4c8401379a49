"""Shared fixtures.

Every builtin scenario uses initial state 0, horizon 1 and unit
constant diffusion, so one reference ensemble serves all scenario-driven
unit tests (the same sharing the acceptance battery relies on).  Unit
tests run at a few thousand particles; the desk-scale run lives in
test_acceptance.py only.
"""

import pytest

from mfcontrol import get_builtin, simulate_for_scenario


@pytest.fixture(scope="session")
def lq():
    return get_builtin("linear-quadratic")


@pytest.fixture(scope="session")
def zero_drift():
    return get_builtin("zero-drift")


@pytest.fixture(scope="session")
def mean_field():
    return get_builtin("mean-field-mean-reversion")


@pytest.fixture(scope="session")
def variance_scenario():
    return get_builtin("variance")


@pytest.fixture(scope="session")
def separated_game():
    return get_builtin("separated-game")


@pytest.fixture(scope="session")
def bilinear_game():
    return get_builtin("bilinear-game")


@pytest.fixture(scope="session")
def paths4k(lq):
    # shared by every test that only needs the common builtin geometry
    return simulate_for_scenario(lq, particles=4000, steps=20, seed=11)


@pytest.fixture(scope="session")
def paths1k(lq):
    # cheaper ensemble for loops over many controls
    return simulate_for_scenario(lq, particles=1000, steps=16, seed=5)
