"""Exact arithmetic in the five coefficient rings and their matrices."""

import random
from functools import lru_cache
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcert import coeff, flinalg
from defcert.coeff import (
    DescriptorMismatch,
    Matrix,
    NonUnitError,
    mixed_deform,
    obstruction_ring,
    prime_field,
    teichmuller,
    trunc_poly,
    trunc_witt,
)

ALL_KINDS = [
    prime_field(5),
    trunc_poly(2, 4),
    trunc_witt(3, 3),
    mixed_deform(3, 2, 4),
    obstruction_ring(5),
]


def test_moduli_shapes():
    assert prime_field(7).moduli == (7,)
    assert trunc_poly(2, 3).moduli == (2, 2, 2)
    assert trunc_witt(3, 2).moduli == (9,)
    assert mixed_deform(3, 2, 3).moduli == (9, 3, 3)
    assert obstruction_ring(3).moduli == (27, 9, 3)


def elem(desc, coeffs):
    """The 1x1 matrix whose one entry has these t-level coefficients."""
    a = np.zeros((1, 1, desc.levels), dtype=np.int64)
    a[0, 0, : len(coeffs)] = coeffs
    return Matrix(desc, a)


def const(desc, k):
    return Matrix.from_int_array(desc, [[k]])


def t(desc):
    return Matrix.from_int_array(desc, [[1]], level=1)


def coeffs(m):
    return tuple(int(v) for v in m.arr[0, 0])


def test_prime_field_products():
    F5 = prime_field(5)
    assert coeffs(const(F5, 3) @ const(F5, 4)) == (2,)
    assert coeffs(const(F5, 2) + const(F5, 4)) == (1,)
    assert coeffs(const(F5, 2) ** 4) == (1,)
    assert coeffs(const(F5, 2).inv()) == (3,)


def test_trunc_poly_geometric_inverse():
    # (1 + t)^-1 = 1 + t + t^2 in characteristic 2 truncated at t^3
    R = trunc_poly(2, 3)
    u = const(R, 1) + t(R)
    assert coeffs(u.inv()) == (1, 1, 1)
    assert coeffs(u @ u.inv()) == (1, 0, 0)
    assert coeffs(u @ u) == (1, 0, 1)
    with pytest.raises(NonUnitError):
        t(R).inv()


def test_trunc_witt_inverse():
    W = trunc_witt(3, 2)
    assert coeffs(const(W, 2).inv()) == (5,)
    assert coeffs(const(W, 2) @ const(W, 5)) == (1,)


def test_teichmuller_frozen_values():
    assert teichmuller(3, 2, 2) == 8
    assert teichmuller(5, 2, 2) == 7
    assert teichmuller(3, 1, 2) == 2


def test_teichmuller_is_the_multiplicative_lift():
    for p in (3, 5, 7):
        for n in (1, 2, 3):
            for a in range(1, p):
                w = teichmuller(p, n, a)
                assert w % p == a
                assert coeffs(const(trunc_witt(p, n), w) ** (p - 1)) == (1,)


def test_mixed_deform_kills_p_times_t():
    R = mixed_deform(3, 2, 3)
    # (3 + t) * t = 3t + t^2, and 3t dies because level 1 is mod 3
    x = elem(R, (3, 1))
    assert coeffs(x @ t(R)) == (0, 0, 1)
    # but 3 itself survives at level 0 (mod 9)
    assert coeffs(const(R, 3)) == (3, 0, 0)
    assert coeffs(const(R, 3) @ const(R, 3)) == (0, 0, 0)


def test_obstruction_ring_truncation():
    R = obstruction_ring(3)
    pt = elem(R, (0, 3))
    assert (pt @ pt).is_zero()
    assert (const(R, 3) ** 3).is_zero()
    assert not (const(R, 3) ** 2).is_zero()
    assert (t(R) @ t(R) @ t(R)).is_zero()


def rand_coeffs(rng, desc):
    return [rng.randrange(m) for m in desc.moduli]


def rand_unit_coeffs(rng, desc):
    c = rand_coeffs(rng, desc)
    c[0] = (c[0] - c[0] % desc.p) + rng.randrange(1, desc.p)
    return c


def test_ring_axioms_random():
    rng = random.Random(20240311)
    for desc in ALL_KINDS:
        one = const(desc, 1)
        for _ in range(60):
            a, b, c = (elem(desc, rand_coeffs(rng, desc)) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a @ b) @ c == a @ (b @ c)
            assert a @ (b + c) == a @ b + a @ c
            assert a @ b == b @ a
            assert one @ a == a
            assert (a + (-a)).is_zero()


def test_random_units_invert():
    rng = random.Random(7)
    for desc in ALL_KINDS:
        for _ in range(25):
            u = elem(desc, rand_unit_coeffs(rng, desc))
            assert u @ u.inv() == const(desc, 1)


def test_conversion_is_a_ring_map():
    rng = random.Random(99)
    pairs = [
        (mixed_deform(3, 2, 3), trunc_poly(3, 3)),
        (mixed_deform(3, 2, 3), prime_field(3)),
        (trunc_witt(3, 2), prime_field(3)),
        (obstruction_ring(5), mixed_deform(5, 2, 3)),
        (trunc_poly(2, 4), trunc_poly(2, 2)),
    ]
    for src, dst in pairs:
        assert const(src, 1).convert(dst) == const(dst, 1)
        for _ in range(30):
            a, b = (elem(src, rand_coeffs(rng, src)) for _ in range(2))
            assert (a @ b).convert(dst) == a.convert(dst) @ b.convert(dst)
            assert (a + b).convert(dst) == a.convert(dst) + b.convert(dst)


def test_illegal_conversion_rejected():
    with pytest.raises(DescriptorMismatch):
        const(prime_field(3), 1).convert(trunc_witt(3, 2))
    with pytest.raises(DescriptorMismatch):
        const(trunc_poly(2, 2), 1).convert(trunc_poly(2, 3))


def test_cross_ring_arithmetic_rejected():
    a = const(prime_field(3), 1)
    b = const(prime_field(5), 1)
    with pytest.raises(DescriptorMismatch):
        a + b


def test_matrix_frozen_product():
    R = trunc_poly(2, 3)
    m = Matrix.identity(R, 2) + Matrix.from_int_array(R, [[0, 1], [0, 0]], 1)
    sq = m @ m
    # the t entries cancel mod 2
    assert sq == Matrix.identity(R, 2)
    assert (m ** 4) == Matrix.identity(R, 2)


def test_matrix_inverse_random():
    rng = random.Random(314)
    for desc in [trunc_poly(3, 3), mixed_deform(3, 2, 3), obstruction_ring(3)]:
        ident = Matrix.identity(desc, 4)
        for _ in range(10):
            # unit lower times unit upper is always invertible
            low = np.zeros((4, 4, desc.levels), dtype=np.int64)
            up = np.zeros((4, 4, desc.levels), dtype=np.int64)
            for i in range(4):
                low[i, i, 0] = 1
                up[i, i] = rand_unit_coeffs(rng, desc)
                for j in range(i):
                    low[i, j] = rand_coeffs(rng, desc)
                    up[j, i] = rand_coeffs(rng, desc)
            a = Matrix(desc, low) @ Matrix(desc, up)
            assert a @ a.inv() == ident
            assert a.inv() @ a == ident


@pytest.mark.parametrize("desc", ALL_KINDS, ids=str)
@pytest.mark.parametrize("c", [0, 1, -1, 7, 10**6 + 3])
def test_scale_is_the_product_by_the_constant(desc, c):
    rng = random.Random(c)
    a = Matrix(desc, [[rand_coeffs(rng, desc) for _ in range(3)]
                      for _ in range(2)])
    col = a.arr.reshape(-1, 1, desc.levels)
    want = coeff.level_matmul(desc.moduli, col, const(desc, c).arr)
    assert np.array_equal(a.scale(c).arr, want.reshape(a.arr.shape))


def test_matrix_inverse_needs_unit_residue():
    R = mixed_deform(3, 2, 2)
    m = Matrix.from_int_array(R, [[3, 0], [0, 1]])
    with pytest.raises(NonUnitError):
        m.inv()


def test_matrix_convert_reduces_entries():
    R = mixed_deform(3, 2, 3)
    F = prime_field(3)
    m = Matrix.from_int_array(R, [[4, 0], [3, 1]]) + Matrix.from_int_array(
        R, [[0, 1], [0, 0]], level=1)
    r = m.convert(F)
    assert r == Matrix.from_int_array(F, [[1, 0], [0, 1]])


# ---------------------------------------------------------------------------
# the exactness rule of the level-convolved product

INT64_LIMIT = 2**63


def unreduced_peak(moduli):
    """max over levels of sum_i (m_i - 1)(m_{l-i} - 1), in Python ints."""
    return max(
        sum((moduli[i] - 1) * (moduli[l - i] - 1) for i in range(l + 1))
        for l in range(len(moduli))
    )


# per kind: the primes whose exponent grows, or the level counts N whose
# prime grows
NEAR_BOUND_KNOBS = {
    "prime_field": (1,),
    "trunc_poly": (1, 2, 4),
    "trunc_witt": (2, 3, 5, 7),
    "mixed_deform": (3, 5, 7),
    "obstruction": (1,),
}


@lru_cache(maxsize=None)
def ring_near_bound(kind, k, knob):
    """The ring of this kind with the largest modulus the rule admits at k."""
    if kind in ("trunc_witt", "mixed_deform"):
        n = 1
        while k * (knob ** (n + 1) - 1) ** 2 < INT64_LIMIT:
            n += 1
        return (trunc_witt(knob, n) if kind == "trunc_witt"
                else mixed_deform(knob, n, 3))
    root = 6 if kind == "obstruction" else 2
    q = int((INT64_LIMIT // (k * knob)) ** (1 / root)) + 2
    while not (coeff.is_prime(q) and k * unreduced_peak(
            coeff.ring_moduli(kind, q, 1, knob)) < INT64_LIMIT):
        q -= 1
    return coeff.RingDescriptor(kind, q, N=knob if kind == "trunc_poly" else 1)


@st.composite
def rings_near_bound(draw):
    kind = draw(st.sampled_from(sorted(NEAR_BOUND_KNOBS)))
    k = draw(st.integers(1, 3))
    knob = draw(st.sampled_from(NEAR_BOUND_KNOBS[kind]))
    return ring_near_bound(kind, k, knob)


def reference_level_product(moduli, a, b):
    """Level-convolved product in Python ints (object arrays)."""
    ao, bo = a.astype(object), b.astype(object)
    out = []
    for l in range(len(moduli)):
        acc = sum(np.matmul(ao[..., i], bo[..., l - i]) for i in range(l + 1))
        out.append(acc % moduli[l])
    return np.stack(out, axis=-1)


def extreme_entries(rng, shape, moduli):
    """Canonical coefficients, about half of them at the top value m_l - 1."""
    cols = []
    for m in moduli:
        top = rng.random(shape) < 0.5
        cols.append(np.where(top, m - 1, rng.integers(0, m, shape)))
    return np.stack(cols, axis=-1).astype(np.int64)


@settings(max_examples=60, deadline=None)
@given(rings_near_bound(), st.integers(1, 2), st.integers(1, 2),
       st.integers(0, 2**32 - 1))
def test_level_matmul_is_exact_up_to_the_bound_and_refuses_past_it(
        desc, rows, cols, seed):
    moduli, L = desc.moduli, desc.levels
    k_max = (INT64_LIMIT - 1) // unreduced_peak(moduli)
    assert 1 <= k_max < 200
    rng = np.random.default_rng(seed)
    a = extreme_entries(rng, (rows, k_max), moduli)
    b = extreme_entries(rng, (k_max, cols), moduli)
    got = coeff.level_matmul(moduli, a, b)
    assert np.array_equal(got.astype(object),
                          reference_level_product(moduli, a, b))
    with pytest.raises(OverflowError):
        coeff.level_matmul(moduli, np.zeros((rows, k_max + 1, L), np.int64),
                           np.zeros((k_max + 1, cols, L), np.int64))


def test_product_past_int64_refuses_instead_of_wrapping():
    R = trunc_witt(3, 30)
    a = const(R, -1)
    with pytest.raises(OverflowError):
        a @ a
    with pytest.raises(OverflowError):
        a.scale(-1)


FLOAT_LIMIT = 2**53

# per kind: knobs as for NEAR_BOUND_KNOBS, with (p, N) pairs for the mixed
# ring so that both three and 64 t-levels are reached
FLOAT_BOUND_KNOBS = {
    "prime_field": (1,),
    "trunc_poly": (1, 4, 64),
    "trunc_witt": (3, 7),
    "mixed_deform": ((3, 3), (3, 64), (7, 64)),
    "obstruction": (1,),
}


@lru_cache(maxsize=None)
def ring_near_float_bound(kind, k, knob, limit=FLOAT_LIMIT):
    """The ring of this kind with the largest modulus a float type holds at
    k: float64 at the default limit, float32 at 2^24."""
    if kind in ("trunc_witt", "mixed_deform"):
        p, N = knob if kind == "mixed_deform" else (knob, 1)
        n = 1
        while k * unreduced_peak(
                coeff.ring_moduli(kind, p, n + 1, N)) < limit:
            n += 1
        return coeff.RingDescriptor(kind, p, n=n, N=N)
    root = 6 if kind == "obstruction" else 2
    q = int((limit // (k * knob)) ** (1 / root)) + 2
    while not (coeff.is_prime(q) and k * unreduced_peak(
            coeff.ring_moduli(kind, q, 1, knob)) < limit):
        q -= 1
    return coeff.RingDescriptor(kind, q, N=knob if kind == "trunc_poly" else 1)


@st.composite
def rings_near_float_bound(draw, limit=FLOAT_LIMIT):
    kind = draw(st.sampled_from(sorted(FLOAT_BOUND_KNOBS)))
    k = draw(st.integers(1, 3))
    knob = draw(st.sampled_from(FLOAT_BOUND_KNOBS[kind]))
    return ring_near_float_bound(kind, k, knob, limit)


@settings(max_examples=40, deadline=None)
@given(rings_near_float_bound(), st.integers(0, 2**32 - 1))
def test_level_matmul_float_route_is_exact_up_to_the_float_bound(desc, seed):
    # operands wide enough for the float64 route, at the largest k whose
    # peak float64 holds and at k + 1, where only int64 is exact.  Entry
    # (0, 0) sums every peak term; entry (1, 1) swaps one term per level
    # for an odd one, so past 2^53 its sum is odd and float64 would round
    moduli, L = desc.moduli, desc.levels
    top = np.array(moduli, dtype=np.int64) - 1
    k_max = (FLOAT_LIMIT - 1) // unreduced_peak(moduli)
    assert 1 <= k_max < 200
    rng = np.random.default_rng(seed)
    for k in (k_max, k_max + 1):
        side = isqrt(flinalg._BLAS_CUTOFF // (k * L * L)) + 2
        a = extreme_entries(rng, (side, k), moduli)
        b = extreme_entries(rng, (k, side), moduli)
        a[:2], b[:, :2] = top, top
        a[1, 0, 0] -= 1
        b[0, 1] -= 1
        got = coeff.level_matmul(moduli, a, b)
        assert np.array_equal(got.astype(object),
                              reference_level_product(moduli, a, b))


FLOAT32_LIMIT = 2**24


@settings(max_examples=40, deadline=None)
@given(rings_near_float_bound(FLOAT32_LIMIT), st.integers(0, 2**32 - 1))
def test_level_matmul_float32_route_is_exact_up_to_its_bound(desc, seed):
    # as the float64 test above, at 2^24: the largest k whose peak float32
    # holds takes the float32 route, k + 1 another one, both exact
    moduli, L = desc.moduli, desc.levels
    top = np.array(moduli, dtype=np.int64) - 1
    k_max = (FLOAT32_LIMIT - 1) // unreduced_peak(moduli)
    assert 1 <= k_max < 200
    rng = np.random.default_rng(seed)
    for k in (k_max, k_max + 1):
        route = flinalg.exact_product(k, moduli)
        assert (route == np.float32) == (k == k_max)
        side = isqrt(flinalg._BLAS_CUTOFF // (k * L * L)) + 2
        a = extreme_entries(rng, (side, k), moduli)
        b = extreme_entries(rng, (k, side), moduli)
        a[:2], b[:, :2] = top, top
        a[1, 0, 0] -= 1
        b[0, 1] -= 1
        got = coeff.level_matmul(moduli, a, b)
        assert np.array_equal(got.astype(object),
                              reference_level_product(moduli, a, b))


@pytest.mark.parametrize("e", range(10))
@settings(max_examples=15, deadline=None)
@given(st.sampled_from(ALL_KINDS), st.sampled_from([(1,), (3,), (2, 3)]),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_level_power_is_repeated_level_matmul(e, desc, lead, d, seed):
    moduli = desc.moduli
    stack = extreme_entries(np.random.default_rng(seed), (*lead, d, d),
                            moduli)
    # at e = 0 the reference is the identity on every slice
    want = np.broadcast_to(Matrix.identity(desc, d).arr, stack.shape)
    for _ in range(e):
        want = coeff.level_matmul(moduli, want, stack)
    got = coeff.level_power(moduli, stack, e)
    assert got.shape == stack.shape
    assert np.array_equal(got, want)
