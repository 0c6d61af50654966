"""Exact arithmetic in the five coefficient rings and their matrices."""

import random
from functools import lru_cache, partial, reduce
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcert import coeff, flinalg
from defcert.coeff import (
    mixed_deform,
    obstruction_ring,
    prime_field,
    teichmuller,
    trunc_poly,
    trunc_witt,
)

# one ring of each kind, by the name its tests are reported under
ALL_KINDS = {
    "PrimeField(p=5)": prime_field(5),
    "TruncPoly(p=2,N=4)": trunc_poly(2, 4),
    "TruncWitt(p=3,n=3)": trunc_witt(3, 3),
    "MixedDeform(p=3,n=2,N=4)": mixed_deform(3, 2, 4),
    "ObstructionRing(p=5)": obstruction_ring(5),
}

# each kind's constructor, called with (p, n, N)
RING_OF_KIND = {
    "prime_field": lambda p, n, N: prime_field(p),
    "trunc_poly": lambda p, n, N: trunc_poly(p, N),
    "trunc_witt": lambda p, n, N: trunc_witt(p, n),
    "mixed_deform": mixed_deform,
    "obstruction": lambda p, n, N: obstruction_ring(p),
}


def test_moduli_shapes():
    assert prime_field(7) == (7,)
    assert trunc_poly(2, 3) == (2, 2, 2)
    assert trunc_witt(3, 2) == (9,)
    assert mixed_deform(3, 2, 3) == (9, 3, 3)
    assert obstruction_ring(3) == (27, 9, 3)


def elem(moduli, coeffs):
    """The 1x1 level stack whose one entry has these t-level coefficients."""
    a = np.zeros((1, 1, len(moduli)), dtype=np.int64)
    a[0, 0, : len(coeffs)] = coeffs
    return a % np.array(moduli)


def const(moduli, k):
    return elem(moduli, (k,))


def t(moduli):
    return elem(moduli, (0, 1))


def identity(moduli, d):
    a = np.zeros((d, d, len(moduli)), dtype=np.int64)
    a[..., 0] = np.eye(d, dtype=np.int64)
    return a


def add(moduli, a, b):
    return (a + b) % np.array(moduli)


def mul(moduli, *factors):
    return reduce(partial(coeff.level_matmul, moduli), factors)


def power(moduli, a, e):
    return coeff.level_power(moduli, a, e)


same = np.array_equal


def coeffs(m):
    return tuple(int(v) for v in m[0, 0])


def test_prime_field_products():
    F5 = prime_field(5)
    assert coeffs(mul(F5, const(F5, 3), const(F5, 4))) == (2,)
    assert coeffs(add(F5, const(F5, 2), const(F5, 4))) == (1,)
    assert coeffs(power(F5, const(F5, 2), 4)) == (1,)


def test_trunc_poly_geometric_inverse():
    # (1 + t)^-1 = 1 + t + t^2 in characteristic 2 truncated at t^3
    R = trunc_poly(2, 3)
    u = add(R, const(R, 1), t(R))
    assert coeffs(mul(R, u, elem(R, (1, 1, 1)))) == (1, 0, 0)
    assert coeffs(mul(R, u, u)) == (1, 0, 1)


def test_trunc_witt_inverse():
    W = trunc_witt(3, 2)
    assert coeffs(mul(W, const(W, 2), const(W, 5))) == (1,)


def test_teichmuller_frozen_values():
    assert teichmuller(3, 2, 2) == 8
    assert teichmuller(5, 2, 2) == 7
    assert teichmuller(3, 1, 2) == 2


def test_teichmuller_is_the_multiplicative_lift():
    for p in (3, 5, 7):
        for n in (1, 2, 3):
            W = trunc_witt(p, n)
            for a in range(1, p):
                w = teichmuller(p, n, a)
                assert w % p == a
                assert coeffs(power(W, const(W, w), p - 1)) == (1,)


def test_mixed_deform_kills_p_times_t():
    R = mixed_deform(3, 2, 3)
    # (3 + t) * t = 3t + t^2, and 3t dies because level 1 is mod 3
    x = elem(R, (3, 1))
    assert coeffs(mul(R, x, t(R))) == (0, 0, 1)
    # but 3 itself survives at level 0 (mod 9)
    assert coeffs(const(R, 3)) == (3, 0, 0)
    assert coeffs(mul(R, const(R, 3), const(R, 3))) == (0, 0, 0)


def test_obstruction_ring_truncation():
    R = obstruction_ring(3)
    pt = elem(R, (0, 3))
    assert not mul(R, pt, pt).any()
    assert not power(R, const(R, 3), 3).any()
    assert power(R, const(R, 3), 2).any()
    assert not mul(R, t(R), t(R), t(R)).any()


def rand_coeffs(rng, moduli):
    return [rng.randrange(m) for m in moduli]


def test_ring_axioms_random():
    rng = random.Random(20240311)
    for moduli in ALL_KINDS.values():
        one = const(moduli, 1)
        for _ in range(60):
            a, b, c = (elem(moduli, rand_coeffs(rng, moduli)) for _ in range(3))
            assert same(add(moduli, add(moduli, a, b), c),
                        add(moduli, a, add(moduli, b, c)))
            assert same(mul(moduli, mul(moduli, a, b), c),
                        mul(moduli, a, mul(moduli, b, c)))
            assert same(mul(moduli, a, add(moduli, b, c)),
                        add(moduli, mul(moduli, a, b), mul(moduli, a, c)))
            assert same(mul(moduli, a, b), mul(moduli, b, a))
            assert same(mul(moduli, one, a), a)
            assert not add(moduli, a, -a).any()


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
        convert = partial(coeff.reduce_levels, src, dst)
        assert same(convert(const(src, 1)), const(dst, 1))
        for _ in range(30):
            a, b = (elem(src, rand_coeffs(rng, src)) for _ in range(2))
            assert same(convert(mul(src, a, b)),
                        mul(dst, convert(a), convert(b)))
            assert same(convert(add(src, a, b)),
                        add(dst, convert(a), convert(b)))


def test_illegal_conversion_rejected():
    with pytest.raises(ValueError, match="no ring surjection"):
        coeff.reduce_levels(prime_field(3), trunc_witt(3, 2),
                            const(prime_field(3), 1))
    with pytest.raises(ValueError, match="no ring surjection"):
        coeff.reduce_levels(trunc_poly(2, 2), trunc_poly(2, 3),
                            const(trunc_poly(2, 2), 1))


def test_matrix_frozen_product():
    R = trunc_poly(2, 3)
    m = identity(R, 2)
    m[0, 1, 1] = 1
    sq = mul(R, m, m)
    # the t entries cancel mod 2
    assert same(sq, identity(R, 2))
    assert same(power(R, m, 4), identity(R, 2))


@pytest.mark.parametrize("moduli", ALL_KINDS.values(), ids=list(ALL_KINDS))
@pytest.mark.parametrize("c", [0, 1, -1, 7, 10**6 + 3])
def test_scale_is_the_product_by_the_constant(moduli, c):
    # the entrywise product by c is the level product by the 1x1 constant
    rng = random.Random(c)
    a = np.array([[rand_coeffs(rng, moduli) for _ in range(3)]
                  for _ in range(2)])
    col = a.reshape(-1, 1, len(moduli))
    want = coeff.level_matmul(moduli, col, const(moduli, c))
    scaled = c % moduli[0] * a % np.array(moduli)
    assert np.array_equal(scaled, want.reshape(a.shape))


def test_matrix_convert_reduces_entries():
    R = mixed_deform(3, 2, 3)
    F = prime_field(3)
    m = np.zeros((2, 2, len(R)), dtype=np.int64)
    m[..., 0] = [[4, 0], [3, 1]]
    m[0, 1, 1] = 1
    r = coeff.reduce_levels(R, F, m)
    assert same(r, identity(F, 2))


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
    ring = RING_OF_KIND[kind]
    while not (coeff.is_prime(q) and k * unreduced_peak(
            ring(q, 1, knob)) < INT64_LIMIT):
        q -= 1
    return ring(q, 1, knob)


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
        moduli, rows, cols, seed):
    L = len(moduli)
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
        mul(R, a, a)


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
        ring = RING_OF_KIND[kind]
        while k * unreduced_peak(ring(p, n + 1, N)) < limit:
            n += 1
        return ring(p, n, N)
    root = 6 if kind == "obstruction" else 2
    q = int((limit // (k * knob)) ** (1 / root)) + 2
    ring = RING_OF_KIND[kind]
    while not (coeff.is_prime(q) and k * unreduced_peak(
            ring(q, 1, knob)) < limit):
        q -= 1
    return ring(q, 1, knob)


@st.composite
def rings_near_float_bound(draw, limit=FLOAT_LIMIT):
    kind = draw(st.sampled_from(sorted(FLOAT_BOUND_KNOBS)))
    k = draw(st.integers(1, 3))
    knob = draw(st.sampled_from(FLOAT_BOUND_KNOBS[kind]))
    return ring_near_float_bound(kind, k, knob, limit)


@settings(max_examples=40, deadline=None)
@given(rings_near_float_bound(), st.integers(0, 2**32 - 1))
def test_level_matmul_float_route_is_exact_up_to_the_float_bound(moduli, seed):
    # operands of about 2^16 flops on the float64 route, at the largest k whose
    # peak float64 holds and at k + 1, where only int64 is exact.  Entry
    # (0, 0) sums every peak term; entry (1, 1) swaps one term per level
    # for an odd one, so past 2^53 its sum is odd and float64 would round
    L = len(moduli)
    top = np.array(moduli, dtype=np.int64) - 1
    k_max = (FLOAT_LIMIT - 1) // unreduced_peak(moduli)
    assert 1 <= k_max < 200
    rng = np.random.default_rng(seed)
    for k in (k_max, k_max + 1):
        side = isqrt((1 << 16) // (k * L * L)) + 2
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
def test_level_matmul_float32_route_is_exact_up_to_its_bound(moduli, seed):
    # as the float64 test above, at 2^24: the largest k whose peak float32
    # holds takes the float32 route, k + 1 another one, both exact
    L = len(moduli)
    top = np.array(moduli, dtype=np.int64) - 1
    k_max = (FLOAT32_LIMIT - 1) // unreduced_peak(moduli)
    assert 1 <= k_max < 200
    rng = np.random.default_rng(seed)
    for k in (k_max, k_max + 1):
        route = flinalg.exact_product(k, moduli)
        assert (route == np.float32) == (k == k_max)
        side = isqrt((1 << 16) // (k * L * L)) + 2
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
@given(st.sampled_from(list(ALL_KINDS.values())), st.sampled_from([(1,), (3,), (2, 3)]),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_level_power_is_repeated_level_matmul(e, moduli, lead, d, seed):
    stack = extreme_entries(np.random.default_rng(seed), (*lead, d, d),
                            moduli)
    # at e = 0 the reference is the identity on every slice
    want = np.broadcast_to(identity(moduli, d), stack.shape)
    for _ in range(e):
        want = coeff.level_matmul(moduli, want, stack)
    got = coeff.level_power(moduli, stack, e)
    assert got.shape == stack.shape
    assert np.array_equal(got, want)
