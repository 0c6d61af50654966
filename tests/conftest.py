"""Shared fixtures.

Completing a builtin presentation is the expensive step in most tests, so
completions are cached once per session and shared.  The small fixture
modules (the 4- and 5-dimensional quotients of one projective) are built
from their explicit grading and action matrices here so every test file
agrees on them.
"""

import numpy as np
import pytest

from defcert import coeff, deform, fdmod, groups


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


def uniserial(p, a_eps=None):
    """rho_bar on a fresh quotient table at p (and a_eps)."""
    return groups.uniserial_representation(
        groups.build_group(p, a_eps, quotient=True))


def hensel_chain_at(p, n):
    """The Hensel chain of rho_bar at p up to Z/p^n."""
    return deform.hensel_chain(uniserial(p), n)


def mixed_rep_at(p, n, N, full=None):
    """The mixed-ring representation of the level-n chain at p, on full
    (a fresh full table by default)."""
    if full is None:
        full = groups.build_group(p)
    return deform.mixed_representation(hensel_chain_at(p, n), full, N)


def unchecked_rep(table, ring, gens):
    """level-last generator matrices put together on every element of
    table without the table check."""
    return groups.GroupRep(table, ring,
                           groups.element_stack(table, ring.moduli, gens),
                           check=False)


def module_rep(table, M):
    """M's action on every element of table, checked on all |G|^2 pairs:
    the general check, for a module that is not a Kronecker square."""
    return groups.GroupRep.from_generators(table, coeff.prime_field(table.p),
                                           M.mats)


@pytest.fixture(scope="session")
def fixture_module():
    return small_module
