"""Exact arithmetic in the coefficient rings used by the workbench.

Every ring here is a finite local ring presented as truncated polynomials
in one variable t, where the degree-i coefficient is an integer modulo a
level modulus m_i.  A ring is its tuple of level moduli; each constructor
below returns that tuple:

    prime_field(p)           m = (p,)
    trunc_poly(p, N)         m = (p,) * N            F_p[t]/(t^N)
    trunc_witt(p, n)         m = (p^n,)              Z/p^n
    mixed_deform(p, n, N)    m = (p^n, p, ..., p)    Z_p[[t]]/(p*t, t^N) truncated
    obstruction_ring(p)      m = (p^3, p^2, p)       Z[t]/(p^3, t^3, p^2*t, p*t^2)

Multiplication is polynomial convolution with the degree-i sum reduced mod
m_i.  This is well defined because m_i divides m_j whenever j <= i, which
holds in every ring above.  A single implementation therefore serves all
five rings, and matrices over them vectorize as integer arrays with one
slice per t-degree.

Matrix products are exact or refused: with inner dimension k,
`level_matmul` raises OverflowError unless k * max_l sum_{i<=l}
(m_i - 1)(m_{l-i} - 1) < 2^63, the rule `flinalg.exact_product` states.
Each product is one matmul against a block-Toeplitz expansion of the
right operand, on the route that rule names: float32 BLAS when that sum
is below 2^24, float64 BLAS below 2^53, int64 otherwise.

>>> m = mixed_deform(3, 2, 3)
>>> three_plus_t = np.array([[[3, 1, 0]]])
>>> t = np.array([[[0, 1, 0]]])
>>> level_matmul(m, three_plus_t, t).tolist()
[[[0, 0, 1]]]
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from . import flinalg


def is_prime(n: int) -> bool:
    """Trial division; callers refuse oversized parameters first."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def prime_field(p: int) -> tuple:
    return (p,)


def trunc_poly(p: int, N: int) -> tuple:
    return (p,) * N


def trunc_witt(p: int, n: int) -> tuple:
    return (p**n,)


def mixed_deform(p: int, n: int, N: int) -> tuple:
    return (p**n,) + (p,) * (N - 1)


def obstruction_ring(p: int) -> tuple:
    return (p**3, p**2, p)


def convolve_levels(a, b, route):
    """Unreduced C_l = sum_{i+j=l} A_i @ B_j, as one matmul on `route`.

    a (..., r, k, L) folds its levels into the inner axis as it lies; b
    (..., k, c, L) expands to the block lower-triangular Toeplitz operand
    (..., k L, c L) whose block (i, l) is B_{l-i}, zero above the diagonal,
    in b's dtype.  The product comes back unreduced, (..., r, c, L), in the
    dtype `flinalg.routed_matmul` computes it in.
    """
    *lead, k, c, L = b.shape
    toeplitz = np.zeros((*lead, k, L, c, L), dtype=b.dtype)
    for i in range(L):
        toeplitz[..., i, :, i:] = b[..., : L - i]
    out = flinalg.routed_matmul(
        a.reshape(*a.shape[:-2], k * L),
        toeplitz.reshape(*lead, k * L, c * L), route,
    )
    return out.reshape(*out.shape[:-1], c, L)


def level_matmul(moduli, a, b):
    """Level-convolved matrix product of integer stacks, level axis last.

    a and b hold canonical coefficients with shapes (..., r, k, L) and
    (..., k, c, L); the leading axes broadcast as in np.matmul.  This is
    the one matrix product over the rings above, exact or refused.  Put
    a stack on the left: the right operand is expanded L-fold.
    """
    out = convolve_levels(a, b, flinalg.exact_product(a.shape[-2], moduli))
    return out.astype(np.int64, copy=False) % np.array(moduli)


def level_power(moduli, stack, e):
    """The e-th power, e >= 0, of a level-last stack (..., d, d, L), by
    squaring: every slice of the leading axes in one product per step."""
    out = None
    while e:
        if e & 1:
            out = stack if out is None else level_matmul(moduli, out, stack)
        e >>= 1
        if e:
            stack = level_matmul(moduli, stack, stack)
    if out is None:
        out = np.zeros_like(stack)
        out[..., 0] = np.eye(stack.shape[-2], dtype=np.int64)
    return out


def reduce_levels(src, dst, arr):
    """Reduce a level-last coefficient array along the surjection src -> dst
    of two moduli tuples.

    Legal when dst has at most as many t-levels and each dst modulus divides
    the corresponding src modulus (quotient by (p^k, t^N') ideals).
    """
    if len(dst) > len(src) or any(s % d for s, d in zip(src, dst)):
        raise ValueError(f"no ring surjection {src} -> {dst}")
    return arr[..., : len(dst)] % np.array(dst, dtype=np.int64)


def teichmuller(p: int, n: int, a: int) -> int:
    """Teichmuller lift of a mod p into Z/p^n: a^(p^(n-1)) mod p^n.

    The unique lift with x^(p-1) = 1 (for a not divisible by p).
    """
    return pow(a % p**n, p ** (n - 1), p**n)


class Matrix:
    """A level-last (rows, cols, levels) stack tagged with its moduli; its
    product and power are `level_matmul` and `level_power` (e >= 0).

    The package itself multiplies level stacks directly.  The class stays
    because the benchmark's tracer (`bench/spans.py`) names its `__matmul__`
    and `__pow__`.
    """

    __slots__ = ("moduli", "arr")

    def __init__(self, moduli, arr: np.ndarray):
        self.moduli = moduli
        self.arr = np.asarray(arr, dtype=np.int64) % np.array(moduli)

    def __matmul__(self, other):
        out = level_matmul(self.moduli, self.arr, other.arr)
        return Matrix(self.moduli, out)

    def __pow__(self, e: int):
        return Matrix(self.moduli, level_power(self.moduli, self.arr, e))
