"""Exact arithmetic in the coefficient rings used by the workbench.

Every ring here is a finite local ring presented as truncated polynomials
in one variable t, where the degree-i coefficient is an integer modulo a
level modulus m_i:

    PrimeField(p)          m = (p,)
    TruncPoly(p, N)        m = (p,) * N              F_p[t]/(t^N)
    TruncWitt(p, n)        m = (p^n,)                Z/p^n
    MixedDeform(p, n, N)   m = (p^n, p, ..., p)      Z_p[[t]]/(p*t, t^N) truncated
    ObstructionRing(p)     m = (p^3, p^2, p)         Z[t]/(p^3, t^3, p^2*t, p*t^2)

Multiplication is polynomial convolution with the degree-i sum reduced mod
m_i.  This is well defined because m_i divides m_j whenever j <= i, which
holds in every kind above.  A single implementation therefore serves all
five rings, and matrices over them vectorize as integer arrays with one
slice per t-degree.

Matrix products are exact or refused: with inner dimension k,
`level_matmul` raises OverflowError unless k * max_l sum_{i<=l}
(m_i - 1)(m_{l-i} - 1) < 2^63, the rule `flinalg.exact_product` states.
Each product is one matmul against a block-Toeplitz expansion of the
right operand, on the route that rule names: float32 BLAS when that sum
is below 2^24, float64 BLAS below 2^53, int64 otherwise.

>>> d = mixed_deform(3, 2, 3)
>>> t = Matrix.from_int_array(d, [[1]], level=1)
>>> print((Matrix.from_int_array(d, [[3]]) + t) @ t)
Matrix over MixedDeform(p=3,n=2,N=3)
[t^2]
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import numpy as np

from . import flinalg


class NonUnitError(ZeroDivisionError):
    """Raised when inverting an element whose residue mod p is zero."""


class DescriptorMismatch(ValueError):
    """Raised when operands belong to different coefficient rings."""


def is_prime(n: int) -> bool:
    """Trial division; callers refuse oversized parameters first."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def ring_moduli(kind: str, p: int, n: int = 1, N: int = 1) -> tuple:
    """Level moduli of a ring kind, without validating its parameters."""
    if kind == "prime_field":
        return (p,)
    if kind == "trunc_poly":
        return (p,) * N
    if kind == "trunc_witt":
        return (p**n,)
    if kind == "mixed_deform":
        return (p**n,) + (p,) * (N - 1)
    if kind == "obstruction":
        return (p**3, p**2, p)
    raise ValueError(f"unknown ring kind {kind!r}")


@dataclass(frozen=True)
class RingDescriptor:
    """Identifies one of the five supported coefficient rings."""

    kind: str
    p: int
    n: int = 1
    N: int = 1

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.n < 1 or self.N < 1:
            raise ValueError("n and N must be >= 1")

    @cached_property
    def moduli(self) -> tuple[int, ...]:
        return ring_moduli(self.kind, self.p, self.n, self.N)

    @property
    def levels(self) -> int:
        return len(self.moduli)

    def __str__(self):
        if self.kind == "prime_field":
            return f"PrimeField(p={self.p})"
        if self.kind == "trunc_poly":
            return f"TruncPoly(p={self.p},N={self.N})"
        if self.kind == "trunc_witt":
            return f"TruncWitt(p={self.p},n={self.n})"
        if self.kind == "mixed_deform":
            return f"MixedDeform(p={self.p},n={self.n},N={self.N})"
        return f"ObstructionRing(p={self.p})"


def prime_field(p: int) -> RingDescriptor:
    return RingDescriptor("prime_field", p)


def trunc_poly(p: int, N: int) -> RingDescriptor:
    return RingDescriptor("trunc_poly", p, N=N)


def trunc_witt(p: int, n: int) -> RingDescriptor:
    return RingDescriptor("trunc_witt", p, n=n)


def mixed_deform(p: int, n: int, N: int) -> RingDescriptor:
    return RingDescriptor("mixed_deform", p, n=n, N=N)


def obstruction_ring(p: int) -> RingDescriptor:
    return RingDescriptor("obstruction", p)


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


def poly_str(coeffs) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            tpow = "t" if i == 1 else f"t^{i}"
            terms.append(tpow if c == 1 else f"{c}*{tpow}")
    return " + ".join(terms) if terms else "0"


def reduce_levels(src: RingDescriptor, dst: RingDescriptor, arr):
    """Reduce a level-last coefficient array along the surjection src -> dst.

    Legal when dst has at most as many t-levels and each dst modulus divides
    the corresponding src modulus (quotient by (p^k, t^N') ideals).
    """
    ms, md = src.moduli, dst.moduli
    if len(md) > len(ms) or any(ms[i] % md[i] for i in range(len(md))):
        raise DescriptorMismatch(f"no ring surjection {src} -> {dst}")
    return arr[..., : len(md)] % np.array(md, dtype=np.int64)


def teichmuller(p: int, n: int, a: int) -> int:
    """Teichmuller lift of a mod p into Z/p^n: a^(p^(n-1)) mod p^n.

    The unique lift with x^(p-1) = 1 (for a not divisible by p).
    """
    return pow(a % p**n, p ** (n - 1), p**n)


class Matrix:
    """Dense matrix over a RingDescriptor ring.

    Backed by an int64 array of shape (rows, cols, levels) holding canonical
    coefficients; the level axis is the t-degree.  Products convolve the
    level slices and reduce each mod its level modulus, which is exact.
    """

    __slots__ = ("desc", "arr")

    def __init__(self, desc: RingDescriptor, arr: np.ndarray):
        arr = np.asarray(arr, dtype=np.int64)
        if arr.ndim != 3 or arr.shape[2] != desc.levels:
            raise ValueError(f"expected (rows, cols, {desc.levels}) array")
        arr = arr % np.array(desc.moduli, dtype=np.int64)
        arr.flags.writeable = False
        self.desc = desc
        self.arr = arr

    @classmethod
    def identity(cls, desc, dim):
        a = np.zeros((dim, dim, desc.levels), dtype=np.int64)
        a[np.arange(dim), np.arange(dim), 0] = 1
        return cls(desc, a)

    @classmethod
    def from_int_array(cls, desc, mat2d, level: int = 0):
        """Embed a plain integer matrix at the given t-degree."""
        m = np.asarray(mat2d, dtype=np.int64)
        a = np.zeros(m.shape + (desc.levels,), dtype=np.int64)
        if level < desc.levels:
            a[:, :, level] = m
        return cls(desc, a)

    @property
    def shape(self):
        return self.arr.shape[:2]

    def _match(self, other) -> "Matrix":
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {type(other)!r}")
        if other.desc != self.desc:
            raise DescriptorMismatch(f"{self.desc} vs {other.desc}")
        return other

    def __add__(self, other):
        o = self._match(other)
        return Matrix(self.desc, self.arr + o.arr)

    def __sub__(self, other):
        o = self._match(other)
        return Matrix(self.desc, self.arr - o.arr)

    def __neg__(self):
        return Matrix(self.desc, -self.arr)

    def scale(self, c: int) -> "Matrix":
        """Entrywise product with the constant c, exact or refused."""
        flinalg.exact_product(1, self.desc.moduli)
        return Matrix(self.desc, c % self.desc.moduli[0] * self.arr)

    def __matmul__(self, other):
        o = self._match(other)
        out = level_matmul(self.desc.moduli, self.arr, o.arr)
        return Matrix(self.desc, out)

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        return Matrix(self.desc, level_power(self.desc.moduli, self.arr, e))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.desc == self.desc
            and self.shape == other.shape
            and bool(np.array_equal(self.arr, other.arr))
        )

    def is_zero(self) -> bool:
        return not self.arr.any()

    def residue(self) -> np.ndarray:
        """Entrywise residue mod p as a plain 2d int64 array."""
        return self.arr[:, :, 0] % self.desc.p

    def convert(self, target: RingDescriptor) -> "Matrix":
        return Matrix(target, reduce_levels(self.desc, target, self.arr))

    def inv(self) -> "Matrix":
        """Newton lift of the residue inverse; requires unit determinant."""
        r = flinalg.inv(self.residue(), self.desc.p)
        if r is None:
            raise NonUnitError("matrix is not invertible over the residue field")
        x = Matrix.from_int_array(self.desc, r)
        ident = Matrix.identity(self.desc, self.shape[0])
        for _ in range(12):
            if (self @ x - ident).is_zero():
                return x
            x = x @ (ident + ident - self @ x)
        raise RuntimeError("Newton matrix inversion failed to converge")

    def __str__(self):
        rows = []
        for i in range(self.shape[0]):
            rows.append(
                "[" + ", ".join(poly_str(self.arr[i, j]) for j in range(self.shape[1])) + "]"
            )
        return f"Matrix over {self.desc}\n" + "\n".join(rows)

    __repr__ = __str__
