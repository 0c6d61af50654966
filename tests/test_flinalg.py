"""Mod-p linear algebra kernels, cross-checked against brute force."""

from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from defcert import flinalg
from defcert.coeff import is_prime


def test_rref_known():
    a = np.array([[1, 2, 3], [2, 4, 2], [0, 0, 5]])
    r, piv = flinalg.rref(a, 5)
    assert piv == [0, 2]
    # reduced form: only nonzero rows kept, unit pivots, zeros above
    assert r.shape == (2, 3)
    assert r[0, 0] == 1 and r[1, 2] == 1
    assert r[0, 2] == 0
    # over F_2 past one 64-bit word; -1 is read as 1, the third row is the
    # sum of the first two
    a = np.zeros((3, 70), dtype=np.int64)
    a[0, [3, 64, 69]] = 1
    a[1, [3, 65]] = 1, -1
    a[2, [64, 65, 69]] = 1
    r, piv = flinalg.rref(a, 2)
    assert piv == [3, 64]
    want = np.zeros((2, 70), dtype=np.int64)
    want[0, [3, 65]] = want[1, [64, 65, 69]] = 1
    assert np.array_equal(r, want)


def reference_rref(rows, cols, p):
    """Per-pivot elimination mod p on plain Python lists: the first
    nonzero row at or below the lead is swapped up, scaled to a unit
    pivot and subtracted from every other row."""
    r = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(cols):
        lead = len(pivots)
        pr = next((i for i in range(lead, len(r)) if r[i][c]), None)
        if pr is None:
            continue
        r[lead], r[pr] = r[pr], r[lead]
        unit = pow(r[lead][c], -1, p)
        r[lead] = [x * unit % p for x in r[lead]]
        for i, row in enumerate(r):
            if i != lead and row[c]:
                r[i] = [(x - row[c] * y) % p for x, y in zip(row, r[lead])]
        pivots.append(c)
    return r[: len(pivots)], pivots


@st.composite
def residue_matrices(draw, primes, widths):
    """A prime p and a matrix with entries in (-p, p), which rref reduces
    mod p itself, whose rows are sums of a few random rows mod p, so many
    reduce to zero."""
    p = draw(st.sampled_from(primes))
    cols = draw(st.sampled_from(widths))
    rows = draw(st.integers(0, 20))
    rank = draw(st.integers(0, 8))
    density = draw(st.sampled_from([0.05, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = rng.integers(1, p, (rank, cols)) * (rng.random((rank, cols))
                                               < density)
    mix = rng.integers(0, p, (rows, rank))
    res = np.zeros((rows, cols), dtype=np.int64)
    if rank:  # in Python ints, past int64 at the largest prime
        res[:] = mix.astype(object) @ span.astype(object) % p
    return p, res - p * ((res > 0) & (rng.random((rows, cols)) < 0.5))


def assert_reference_rref(got, a, p):
    r, pivots = got
    want_rows, want_pivots = reference_rref(a.tolist(), a.shape[1], p)
    assert pivots == want_pivots
    assert all(type(c) is int for c in pivots)
    assert r.dtype == np.int64 and r.shape == (len(pivots), a.shape[1])
    assert r.flags.c_contiguous and r.flags.writeable
    assert r.tolist() == want_rows


def assert_reference_answers(a, p):
    """rank and nullspace against the reference elimination, whose
    kernel has a unit at each free column and minus R's column above."""
    want_rows, want_pivots = reference_rref(a.tolist(), a.shape[1], p)
    free = [c for c in range(a.shape[1]) if c not in want_pivots]
    want_ker = [[int(c == f) for f in free] for c in range(a.shape[1])]
    for row, c in zip(want_rows, want_pivots):
        want_ker[c] = [-row[f] % p for f in free]
    assert flinalg.rank(a, p) == len(want_pivots)
    assert flinalg.nullspace(a, p).tolist() == want_ker


def tall_residues(p, cols, seed):
    """300 rows with entries in (-p, p) whose first 256 span one line and
    whose last 44 bring the rank up to 4 (at most)."""
    rng = np.random.default_rng(seed)
    mix = rng.integers(0, p, (300, 4))
    mix[:256, 1:] = 0
    res = (mix.astype(object) @ rng.integers(0, p, (4, cols)).astype(object)
           % p).astype(np.int64)
    return p, res - p * ((res > 0) & (rng.random(res.shape) < 0.5))


@settings(max_examples=300, deadline=None)
@given(residue_matrices([2], [0, 1, 7, 8, 9, 63, 64, 65, 130, 131]))
@example((2, np.zeros((0, 9), dtype=np.int64)))
@example((2, np.zeros((5, 0), dtype=np.int64)))
@example((2, np.zeros((0, 0), dtype=np.int64)))
@example(tall_residues(2, 9, 0))
@example(tall_residues(2, 65, 1))
def test_f2_rref_is_the_reference_elimination(case):
    # the packed F_2 kernel against per-pivot elimination on Python lists;
    # the widths sit on both sides of a byte and of a 64-bit word
    p, a = case
    assert_reference_rref(flinalg.rref(a, p), a, p)
    assert_reference_answers(a, p)


# 3037000493 is the largest prime with (p - 1)^2 < 2^63, its slots wider
# than 8 bytes; at 11 the slot reduction with k one bit short is inexact
ODD_PRIMES = [3, 5, 7, 11, 13, 241, 3037000493]


@settings(max_examples=300, deadline=None)
@given(residue_matrices(ODD_PRIMES, [0, 1, 2, 3, 4, 5, 7, 8, 9, 17, 33]))
@example((11, np.array([[1, 10], [1, 9]])))  # 9 + 10 * 10 = 109
@example((3037000493, np.array([[1, 3037000492], [-1, 3037000492]])))
@example((7, np.zeros((5, 0), dtype=np.int64)))
@example((7, np.zeros((0, 4), dtype=np.int64)))
@example(tall_residues(7, 9, 2))
@example(tall_residues(241, 33, 3))
def test_odd_p_rref_is_the_reference_elimination(case):
    # the packed odd-p kernel against per-pivot elimination on Python
    # lists; rows of 8-bit slots (p = 3), of 16-bit slots (5 <= p <= 13)
    # and of 32-bit slots (p = 241) sit on both sides of a 64-bit word,
    # and one slot of 128 bits (p = 3037000493) spans two
    p, a = case
    assert_reference_rref(flinalg.rref(a, p), a, p)
    assert_reference_answers(a, p)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_rref_returns_a_new_c_contiguous_int64_array(p):
    # whatever the layout of its input, as col_space_basis passes a.T
    rng = np.random.default_rng(p)
    a = flinalg.matmul_mod(rng.integers(0, p, (7, 3)),
                           rng.integers(0, p, (3, 8)), p)
    for name, m in {"C order": a, "Fortran order": a.T,
                    "negative strides": a[::-1, ::-2]}.items():
        r, pivots = flinalg.rref(m, p)
        assert r.dtype == np.int64, name
        assert r.flags.c_contiguous and r.flags.writeable, name
        assert not np.shares_memory(r, a), name
        assert all(type(c) is int for c in pivots), name
        want = reference_rref(m.tolist(), m.shape[1], p)
        assert (r.tolist(), pivots) == want, name


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


def test_row_blocks_give_the_one_reduction():
    # a block of 256 rows of rank 1 over a block of 44 rows that brings
    # the rank to 3: the answers of the whole matrix at once
    rng = np.random.default_rng(5)
    p = 7
    coords = rng.integers(0, p, (300, 3))
    coords[:256, 1:] = 0
    a = flinalg.matmul_mod(coords, rng.integers(0, p, (3, 6)), p)
    x = rng.integers(0, p, 6)
    rows, pivots = flinalg.rref(a, p)
    assert_reference_rref((rows, pivots), a, p)
    assert flinalg.rank(a[:256], p) == 1 and len(pivots) == 3
    assert flinalg.rank(a, p) == len(pivots)
    ker = flinalg.nullspace(a, p)
    assert ker.shape[1] == 6 - len(pivots)
    assert not np.any(flinalg.matmul_mod(a, ker, p))
    b = flinalg.matmul_mod(a, x, p)
    assert np.array_equal(flinalg.matmul_mod(a, flinalg.solve(a, b, p), p), b)


def one_rref_answers(a, b, p):
    """Basis, pivots, kernel and a solution of a x = b, read entry by
    entry off single rrefs of a and of [a | b]."""
    r, pivots = flinalg.rref(a, p)
    n = a.shape[1]
    free = [c for c in range(n) if c not in pivots]
    ker = np.zeros((n, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        ker[fc, k] = 1
        for i, pc in enumerate(pivots):
            ker[pc, k] = (-r[i, fc]) % p
    rb, pb = flinalg.rref(np.hstack([a, b[:, None]]), p)
    x = None
    if all(c < n for c in pb):
        x = np.zeros(n, dtype=np.int64)
        for i, pc in enumerate(pb):
            x[pc] = rb[i, n]
    return r, pivots, ker, x


def tall_cases(p, rng, block):
    """Tall systems stacked from row blocks of different kinds; each is
    checked to be the case it names."""
    right = rng.integers(0, p, (block, 6))
    right[:, :2] = 0
    right[0, 2] = right[1, 4] = 1
    zero = np.zeros((block, 6), dtype=np.int64)
    span = flinalg.matmul_mod(rng.integers(0, p, (block, block)), right, p)
    left = rng.integers(0, p, (block, 6))
    left[0, 0] = 1
    mixed = np.vstack([right, zero, span, left, rng.integers(0, p, (2, 6))])
    assert min(flinalg.rref(right, p)[1]) >= 2
    assert 0 in flinalg.rref(mixed, p)[1]
    basis = rng.integers(0, p, (2, 6))
    basis[0, 1] = basis[1, 3] = 1
    basis[1, 1] = 0
    kept = flinalg.matmul_mod(
        rng.integers(0, p, (31 * block, 2)), basis, p)
    kept[:block] = flinalg.matmul_mod(
        np.eye(block, 2, dtype=np.int64), basis, p)
    assert flinalg.rank(kept[:block], p) == 2
    return {"left pivot, zero block, span block": mixed,
            "rank kept through 30 blocks": kept}


@pytest.mark.parametrize("p", [2, 3, 7, 241])
def test_tall_systems_reduce_block_by_block_to_the_one_rref(p):
    # row blocks of 256 rows, 1026 and 7936 rows in all
    rng = np.random.default_rng(p)
    for name, a in tall_cases(p, rng, 256).items():
        x = rng.integers(0, p, a.shape[1])
        rhs = [flinalg.matmul_mod(a, x, p), rng.integers(0, p, a.shape[0])]
        want = [one_rref_answers(a, b, p) for b in rhs]
        assert_reference_rref(want[0][:2], a, p)
        assert flinalg.rank(a, p) == len(want[0][1])
        assert np.array_equal(flinalg.nullspace(a, p), want[0][2]), name
        for b, (_, _, _, sol) in zip(rhs, want):
            got = flinalg.solve(a, b, p)
            assert (got is None) == (sol is None), name
            assert sol is None or np.array_equal(got, sol), name


def test_tall_system_whose_products_could_pass_int64_is_reduced_exactly():
    # rank 3 in 4 columns over 300 rows at a prime where one row operation
    # fits int64, (p - 1)^2 < 2^63, but a product of inner dimension 4
    # could pass it; the rows past the first 256 bring pivot 0
    p = 1518500279
    assert is_prime(p) and (p - 1) ** 2 < 2**63 <= 4 * (p - 1) ** 2
    rng = np.random.default_rng(11)
    a = np.where(rng.random((300, 4)) < 0.6, p - 1,
                 rng.integers(0, p, (300, 4)))
    a[:256, 0] = 0
    coef = rng.integers(1, p, 3).astype(object)
    a[:, 3] = a[:, :3].astype(object) @ coef % p  # one kernel vector
    got = flinalg.rref(a, p)
    assert got[1] == [0, 1, 2]
    assert_reference_rref(got, a, p)
    assert_reference_answers(a, p)
    ker = flinalg.nullspace(a, p).astype(object)
    assert ker.shape == (4, 1) and not np.any(a.astype(object) @ ker % p)


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


def test_inverse_refuses_a_non_square_matrix():
    # a non-square matrix has no two-sided inverse, whatever its rank
    for a in ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]]):
        with pytest.raises(ValueError, match="square"):
            flinalg.inv(a, 5)
    assert flinalg.inv([[2, 1], [4, 2]], 5) is None
    assert flinalg.inv(np.zeros((0, 0), dtype=np.int64), 5).shape == (0, 0)


def plain_solution(a, b, p):
    """The solution of a x = b with free variables 0 read off one plain
    rref of [a | b], or None."""
    r, pivots = flinalg.rref(np.hstack([a, b]), p)
    n = a.shape[1]
    if any(c >= n for c in pivots):
        return None
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    x[pivots] = r[:, n:]
    return x


@pytest.mark.parametrize("p", [2, 7])
def test_tall_inverse_solve_and_extension_are_the_plain_rref_answers(p):
    rng = np.random.default_rng(p + 40)
    n = 260
    square = rng.integers(0, p, (n, n))
    square[np.tril_indices(n)] = 0
    square[np.diag_indices(n)] = 1
    square = flinalg.matmul_mod(square, rng.permutation(np.eye(n, dtype=int)),
                                p)
    singular = square.copy()
    singular[:, 3] = singular[:, 1]
    tall = flinalg.matmul_mod(rng.integers(0, p, (n, 3)),
                              rng.integers(0, p, (3, 6)), p)
    rhs = np.column_stack([flinalg.matmul_mod(tall, rng.integers(0, p, 6), p),
                           rng.integers(0, p, n)])
    base, cands = tall[:, :2], np.hstack([tall, rng.integers(0, p, (n, 2))])
    want_inv = [plain_solution(m, np.eye(n, dtype=np.int64), p)
                for m in (square, singular)]
    want_solve = [plain_solution(tall, rhs[:, :k], p) for k in (1, 2)]
    pivots = flinalg.rref(np.hstack([base, cands]), p)[1]
    want_extension = [c - 2 for c in pivots if c >= 2]
    assert want_inv[0] is not None and want_inv[1] is None
    assert want_solve[0] is not None and len(want_extension) > 1
    assert np.array_equal(flinalg.inv(square, p), want_inv[0])
    assert flinalg.inv(singular, p) is None
    assert np.array_equal(flinalg.solve(tall, rhs[:, :1], p), want_solve[0])
    assert np.array_equal(flinalg.solve(tall, rhs[:, 0], p),
                          want_solve[0][:, 0])
    got = flinalg.solve(tall, rhs, p)
    assert (got is None) == (want_solve[1] is None)
    assert got is None or np.array_equal(got, want_solve[1])
    assert flinalg.extend_basis(base, cands, p) == want_extension


def test_every_answer_is_read_off_one_rref(monkeypatch):
    # each public answer calls rref once, so a check of that one
    # (R, pivots) covers every answer; each rref call reaches exactly one
    # packed kernel, the F_2 one at p = 2 and the odd-p one at p = 5, and
    # no kernel is reached but through rref
    log, in_rref = [], []
    rref, f2, odd = flinalg.rref, flinalg._rref_f2, flinalg._rref_odd

    def traced_rref(a, p):
        log.append("rref")
        in_rref.append(1)
        try:
            return rref(a, p)
        finally:
            in_rref.pop()

    def traced(name, kernel):
        def run(*args):
            log.append(name if in_rref else "bare " + name)
            return kernel(*args)
        return run

    monkeypatch.setattr(flinalg, "rref", traced_rref)
    monkeypatch.setattr(flinalg, "_rref_f2", traced("F_2 kernel", f2))
    monkeypatch.setattr(flinalg, "_rref_odd", traced("odd-p kernel", odd))
    square = np.triu(np.ones((9, 9), dtype=np.int64))  # unit triangular
    answers = {
        "rank": flinalg.rank,
        "nullspace": flinalg.nullspace,
        "solve": lambda a, p: flinalg.solve(a, a[:, 0], p),
        "inv": lambda a, p: flinalg.inv(square, p),
        "extend_basis": lambda a, p: flinalg.extend_basis(a[:, :2], a[:, 2:],
                                                          p),
        "in_span": lambda a, p: flinalg.in_span(a[:, :2], a[:, 3], p),
        "col_space_basis": flinalg.col_space_basis,
    }
    for p in (2, 5):
        a = np.random.default_rng(9).integers(0, p, (9, 6))
        kernel = "F_2 kernel" if p == 2 else "odd-p kernel"
        for name, answer in answers.items():
            log.clear()
            answer(a, p)
            assert log == ["rref", kernel], (p, name, log)


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
    # make products of about 2^16 flops, narrow ones of 9 k
    top = isqrt((2**bits - 1) // k)
    side = isqrt((1 << 16) // k) + 2 if wide else 3
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


# the is_multiple tests pin the contract of the test m | d that
# multiple_test builds, applied once without tiling


@pytest.mark.parametrize("m", [3, 5, 7, 49, 343])
@pytest.mark.parametrize("dtype, bits", [(np.float32, 24), (np.float64, 53),
                                         (np.int64, 63)])
def test_is_multiple_is_exact_at_the_largest_admitted_magnitude(
        m, dtype, bits):
    # a slack that brings the bound to 2^t - 1 keeps the product on the
    # route with t bits; sums up to that bound, computed on the route and
    # cast to the word named for the same bound, are decided exactly
    slack = 2**bits - 1 - (m - 1) ** 2
    assert flinalg.exact_product(1, (m,), slack) == dtype
    word = flinalg.exact_word(1, (m,), slack)
    top = 2**bits - 1
    q = (top - 1) // m
    values = [m * q, m * q - 1, m * q + 1, top, 0, 1]
    d = np.array(values, dtype=dtype).astype(word)
    assert d.astype(object).tolist() == values
    got = flinalg.multiple_test((m,), d.dtype)(d[:, None])[:, 0]
    assert got.tolist() == [v % m == 0 for v in values]


@pytest.mark.parametrize("m", [3, 5, 7, 49, 343, 3**17])
@pytest.mark.parametrize("word", [np.uint16, np.uint32, np.uint64])
def test_is_multiple_is_exact_at_the_top_of_each_word(m, word):
    # multiples of m and their neighbours at the top of the word, plus 0
    # and 1, against Python's %; the product by m^-1 wraps mod 2^w
    top = int(np.iinfo(word).max)
    q = top // m
    values = sorted({v for v in (m * q - 1, m * q, m * q + 1, m - 1, m,
                                 m + 1, top - 1, top, 0, 1) if 0 <= v <= top})
    d = np.array(values, dtype=word)
    got = flinalg.multiple_test((m,), d.dtype)(d)
    assert got.tolist() == [v % m == 0 for v in values]
    assert d.dtype == word


@pytest.mark.parametrize("moduli", [(2,), (4,), (49, 7, 8)])
def test_is_multiple_refuses_an_even_modulus_before_any_arithmetic(moduli):
    d = np.arange(6 * len(moduli), dtype=np.uint16).reshape(6, -1)
    before = d.copy()
    with pytest.raises(ValueError, match="odd moduli"):
        flinalg.multiple_test(moduli, d.dtype)(d)
    assert np.array_equal(d, before)
    with pytest.raises(ValueError, match="odd moduli"):
        flinalg.exact_word(2, moduli, 2 * max(moduli))


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_is_multiple_refuses_a_signed_or_float_word(dtype):
    with pytest.raises(ValueError, match="unsigned"):
        d = np.array([0, 3, 6], dtype=dtype)
        flinalg.multiple_test((3,), d.dtype)(d)


@pytest.mark.parametrize("k, moduli, slack, word", [
    (4, (5,), 10, np.uint16),            # 4 * 16 + 10
    (1, (3,), 2**16 - 1 - 4, np.uint16),  # the bound at the top of a word
    (1, (3,), 2**16 - 4, np.uint32),      # and one past it
    (2, (243, 3, 3), 486, np.uint32),    # 2 * 242^2 + 486 > 2^16
    (2, (3**12, 3), 2 * 3**12, np.uint64),
    (1, (3**19,), 0, np.uint64),         # the int64 route
])
def test_exact_word_is_the_smallest_that_holds_the_bound(k, moduli, slack,
                                                         word):
    assert flinalg.exact_word(k, moduli, slack) == word


def test_exact_word_refuses_past_int64():
    with pytest.raises(OverflowError):
        flinalg.exact_word(2, (3**30,), 0)


@pytest.mark.parametrize("moduli", [(7,), (49, 7, 7), (3, 5, 343)])
def test_multiple_test_on_tiled_constants_agrees_with_is_multiple(moduli):
    # half the entries multiples of their level's modulus, half one past
    rng = np.random.default_rng(11)
    shape = (5, 2, 3, len(moduli))
    q = rng.integers(0, 60, size=shape) * np.array(moduli)
    d = (q + (rng.random(shape) < 0.5)).astype(np.uint16)
    want = d.astype(np.int64) % np.array(moduli) == 0
    assert np.array_equal(flinalg.multiple_test(moduli, d.dtype)(d.copy()),
                          want)
    decide = flinalg.multiple_test(moduli, np.uint16, shape[1:])
    for _ in range(2):  # the constants outlive each call
        assert np.array_equal(decide(d.copy()), want)
    with pytest.raises(ValueError, match="odd moduli"):
        flinalg.multiple_test(moduli + (2,), np.uint16, shape[1:])
