"""Mod-p linear algebra kernels, cross-checked against brute force."""

from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from defcert import flinalg


def test_rref_known():
    a = np.array([[1, 2, 3], [2, 4, 2], [0, 0, 5]])
    r, piv = flinalg.rref(a, 5)
    assert piv == [0, 2]
    # reduced form: only nonzero rows kept, unit pivots, zeros above
    assert r.shape == (2, 3)
    assert r[0, 0] == 1 and r[1, 2] == 1
    assert r[0, 2] == 0


def test_rank_of_outer_products():
    rng = np.random.default_rng(5150)
    for p in (2, 3, 7):
        for _ in range(20):
            n, r = 8, int(rng.integers(0, 4))
            b = rng.integers(0, p, (n, r))
            c = rng.integers(0, p, (r, n))
            a = (b @ c) % p
            assert flinalg.rank(a, p) <= r


def test_nullspace_annihilates_and_counts():
    rng = np.random.default_rng(77)
    for p in (2, 3, 5):
        for _ in range(25):
            a = rng.integers(0, p, (6, 9))
            ns = flinalg.nullspace(a, p)
            assert not np.any((a @ ns) % p)
            assert flinalg.rank(a, p) + ns.shape[1] == 9
            # columns are independent
            assert flinalg.rank(ns, p) == ns.shape[1]


def test_solve_consistent_systems():
    rng = np.random.default_rng(123)
    for p in (2, 3, 5):
        for _ in range(25):
            a = rng.integers(0, p, (7, 5))
            x = rng.integers(0, p, (5, 3))
            b = (a @ x) % p
            sol = flinalg.solve(a, b, p)
            assert sol is not None
            assert not np.any((a @ sol - b) % p)


def test_solve_detects_inconsistency():
    a = np.array([[1, 0], [0, 0]])
    b = np.array([0, 1])
    assert flinalg.solve(a, b, 3) is None


def test_row_blocks_give_the_one_reduction(monkeypatch):
    rng = np.random.default_rng(5)
    p = 7
    coords = rng.integers(0, p, (11, 3))
    coords[:4, 1:] = 0  # the first row block alone has rank 1
    a = flinalg.matmul_mod(coords, rng.integers(0, p, (3, 6)), p)
    x = rng.integers(0, p, 6)
    rows, pivots = flinalg.rref(a, p)
    monkeypatch.setattr(flinalg, "_ROW_BLOCK", 4)
    blocked_rows, blocked_pivots = flinalg.row_space_basis(a, p)
    assert np.array_equal(blocked_rows, rows) and blocked_pivots == pivots
    assert flinalg.rank(a, p) == len(pivots)
    ker = flinalg.nullspace(a, p)
    assert ker.shape[1] == 6 - len(pivots)
    assert not np.any(flinalg.matmul_mod(a, ker, p))
    b = flinalg.matmul_mod(a, x, p)
    assert np.array_equal(flinalg.matmul_mod(a, flinalg.solve(a, b, p), p), b)


def test_inverse_random():
    rng = np.random.default_rng(31337)
    for p in (2, 3, 7):
        got = 0
        while got < 15:
            a = rng.integers(0, p, (6, 6))
            inv = flinalg.inv(a, p)
            if inv is None:
                assert flinalg.rank(a, p) < 6
                continue
            got += 1
            assert not np.any((a @ inv - np.eye(6, dtype=np.int64)) % p)
            assert not np.any((inv @ a - np.eye(6, dtype=np.int64)) % p)


def test_matmul_mod_matches_naive():
    rng = np.random.default_rng(2)
    for p in (2, 3, 251):
        a = rng.integers(0, p, (13, 7))
        b = rng.integers(0, p, (7, 11))
        assert np.array_equal(flinalg.matmul_mod(a, b, p), (a @ b) % p)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.sampled_from([53, 63]), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_matmul_mod_is_exact_up_to_the_bound_and_refuses_past_it(
        k, bits, wide, seed):
    # the largest top entry whose products fit 2^bits, then the next odd
    # one past it, whose odd products float64 would round; wide operands
    # take the float64 route wherever the rule admits it
    top = isqrt((2**bits - 1) // k)
    side = isqrt(flinalg._BLAS_CUTOFF // k) + 2 if wide else 3
    rng = np.random.default_rng(seed)
    for high in (top, top + 1 + top % 2):
        mod = high + 1
        a = np.where(rng.random((side, k)) < 0.5, high,
                     rng.integers(0, mod, (side, k)))
        b = np.where(rng.random((k, side)) < 0.5, high,
                     rng.integers(0, mod, (k, side)))
        if bits == 63 and high > top:
            with pytest.raises(OverflowError):
                flinalg.matmul_mod(a, b, mod)
            continue
        want = np.matmul(a.astype(object), b.astype(object)) % mod
        assert np.array_equal(flinalg.matmul_mod(a, b, mod).astype(object),
                              want)


def test_matmul_mod_past_int64_refuses_instead_of_wrapping():
    a = np.full((2, 2), 3**30 - 1, dtype=np.int64)
    with pytest.raises(OverflowError):
        flinalg.matmul_mod(a, a, 3**30)


def test_row_reduction_past_int64_refuses_instead_of_wrapping():
    # the pivot scaling multiplies entries up to p - 1 by an inverse
    p = 4294967311
    with pytest.raises(OverflowError):
        flinalg.inv(np.array([[3, p - 2], [p - 5, 7]]), p)


def span_set(basis, p):
    """All vectors in the span, as byte tuples. Brute force, small only."""
    from itertools import product

    if basis.shape[1] == 0:
        return {tuple(np.zeros(basis.shape[0], dtype=int))}
    out = set()
    for combo in product(range(p), repeat=basis.shape[1]):
        v = (basis @ np.array(combo)) % p
        out.add(tuple(int(x) for x in v))
    return out


def test_in_span_matches_enumeration():
    rng = np.random.default_rng(404)
    p = 3
    for _ in range(10):
        basis = rng.integers(0, p, (5, 2))
        full = span_set(basis, p)
        for _ in range(10):
            v = rng.integers(0, p, 5)
            assert flinalg.in_span(basis, v, p) == (
                tuple(int(x) for x in v) in full
            )


def test_col_space_basis_preserves_span():
    rng = np.random.default_rng(8)
    p = 3
    for _ in range(15):
        a = rng.integers(0, p, (5, 7))
        b = flinalg.col_space_basis(a, p)
        assert b.shape[1] == flinalg.rank(a, p)
        assert span_set(b, p) == span_set(a, p)


def greedy_extension(base, cands, p):
    """Reference: keep each column of cands that raises the rank so far."""
    acc, out = base, []
    for c in range(cands.shape[1]):
        grown = np.concatenate([acc, cands[:, c:c + 1]], axis=1)
        if flinalg.rank(grown, p) > flinalg.rank(acc, p):
            acc = grown
            out.append(c)
    return out


@st.composite
def base_and_candidates(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rows = draw(st.integers(1, 6))
    entries = st.integers(0, p - 1)
    base = draw(arrays(np.int64, (rows, draw(st.integers(0, 4))),
                       elements=entries))
    cands = draw(arrays(np.int64, (rows, draw(st.integers(0, 7))),
                        elements=entries))
    zero = draw(arrays(bool, cands.shape[1]))
    cands[:, zero] = 0
    return p, base, cands


@settings(max_examples=300, deadline=None)
@given(base_and_candidates())
@example((3, np.zeros((4, 0), dtype=np.int64),
          np.array([[0, 1, 2, 0], [0, 2, 1, 0], [0, 0, 0, 0], [0, 1, 2, 1]])))
def test_extend_basis_is_the_greedy_rank_choice(case):
    p, base, cands = case
    assert flinalg.extend_basis(base, cands, p) == greedy_extension(
        base, cands, p
    )


@pytest.mark.parametrize("m", [3, 5, 7, 49, 343])
@pytest.mark.parametrize("dtype, bits", [(np.float32, 24), (np.float64, 53),
                                         (np.int64, 63)])
def test_is_multiple_is_exact_at_the_largest_admitted_magnitude(
        m, dtype, bits):
    # a float route admits |d| + m < 2^t; take multiples of m and their
    # neighbours, of both signs, at the top of that range
    top = 2**bits - m - 1
    q = (top - 1) // m
    values = [x for v in (m * q, m * q - 1, m * q + 1, top, 0, 1)
              for x in (v, -v)]
    d = np.array(values, dtype=dtype)
    assert d.astype(object).tolist() == values
    got = flinalg.is_multiple(d[:, None], np.array([m]))[:, 0]
    assert got.tolist() == [v % m == 0 for v in values]
