"""Shared fixtures.

Completing a builtin presentation is the expensive step in most tests, so
completions are cached once per session and shared.  The small fixture
modules (the 4- and 5-dimensional quotients of one projective) are built
from their explicit grading and action matrices here so every test file
agrees on them.
"""

import numpy as np
import pytest

from defcert import deform, fdmod


def E(n, i, j):
    m = np.zeros((n, n), dtype=np.int64)
    m[i, j] = 1
    return m


def completed_family(family, d):
    # one completion cache for fixtures and package-level scenario runs
    return deform.completed_system(family, d)


@pytest.fixture(scope="session")
def completed():
    return completed_family


def small_module(family, system):
    """The distinguished small quotient module for a builtin family.

    Family I: dim 5, basis (e1, b, gb, db, hdb), a quotient of P_1.
    Family II: dim 4, basis (e0, b, k, lk), a quotient of P_0.
    Family III: dim 5, basis (e2, h, dh, gh, bgh), a quotient of P_2.

    block_of indexes the grading labels, the vertices in the order the
    presentation lists them: (1, 0, 2) for families I and III, (0, 1, 2)
    for family II.
    """
    alg = fdmod.quiver_algebra(system)
    if family == "I":
        block_of = [0, 1, 0, 2, 1]  # vertices 1, 0, 1, 2, 0
        mats = {"beta": E(5, 1, 0), "gamma": E(5, 2, 1),
                "delta": E(5, 3, 1), "eta": E(5, 4, 3)}
    elif family == "II":
        block_of = [0, 1, 2, 0]  # vertices 0, 1, 2, 0
        mats = {"beta": E(4, 1, 0), "kappa": E(4, 2, 0),
                "lambda": E(4, 3, 2)}
    elif family == "III":
        block_of = [2, 1, 2, 0, 1]  # vertices 2, 0, 2, 1, 0
        mats = {"beta": E(5, 4, 3), "gamma": E(5, 3, 1),
                "delta": E(5, 2, 1), "eta": E(5, 1, 0)}
    else:
        raise ValueError(family)
    return fdmod.FdModule(alg, block_of, mats)


@pytest.fixture(scope="session")
def fixture_module():
    return small_module
