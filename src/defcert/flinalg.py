"""Exact linear algebra over F_p on numpy int64 arrays.

Every answer here (`rank`, `nullspace`, `solve`, `inv`, `extend_basis`,
`in_span`, `col_space_basis`) is read off one `(R, pivots)` from one
`rref` of the whole matrix.  `rref` picks its kernel by p alone, and
both reduce rows packed into Python ints, one row at a time against the
basis so far: at p = 2 a bit per entry, by XOR, at odd p a slot of W
bits per entry, each row operation one multiply-add and one reduction
mod p of every slot at once (Dumas, Fousse and Salvy, J. Symb. Comput.
46(7), 2011).  An rref is unique, so every answer is the same whichever
kernel made it.

`routed_matmul` is the one product route.  `exact_product` is the one
exactness rule of every product here, in `coeff.level_matmul` and in the
group table checks.  It names one of three routes by the largest partial
sum a product can reach: float32 BLAS below 2^24, float64 BLAS below
2^53 and int64 below 2^63; past that a product is refused.  Beside it,
`exact_word` names the smallest unsigned word, uint16, uint32 or uint64,
that holds the same bound, and `multiple_test` builds the exact
divisibility test in that word.  All functions expect and return
canonical residues.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def _level_peak(m: tuple) -> int:
    return max(sum((m[i] - 1) * (m[l - i] - 1) for i in range(l + 1))
               for l in range(len(m)))


def exact_product(k: int, moduli: tuple, slack: int = 0):
    """The dtype that holds a product exactly: float32, float64 or int64.

    Canonical operands with inner dimension k over level moduli m_0..m_{L-1}
    sum at most k * max_l sum_{i<=l} (m_i - 1)(m_{l-i} - 1) before
    reduction, partial sums included; `slack` adds what a caller sums on
    top of the product.  Every integer of magnitude below 2^24 is a
    float32, below 2^53 a float64, so the route is float32 when that total
    is below 2^24, float64 when it is below 2^53 (the FFPACK bound of
    Dumas, Giorgi and Pernet, ISSAC 2004) and int64 when it is below 2^63.
    OverflowError past that.
    """
    peak = k * _level_peak(moduli) + slack
    if peak >= 2**63:
        raise OverflowError(
            f"a product of inner dimension {k} over moduli {moduli} "
            "is too large for exact int64 arithmetic"
        )
    if peak < 2**24:
        return np.float32
    return np.float64 if peak < 2**53 else np.int64


def exact_word(k: int, moduli: tuple, slack: int = 0):
    """The smallest of uint16, uint32 and uint64 that holds the bound of
    `exact_product(k, moduli, slack)`, which raises past int64; ValueError
    on an even modulus, which `multiple_test` cannot decide."""
    exact_product(k, moduli, slack)
    if any(m % 2 == 0 for m in moduli):
        raise ValueError(f"multiple_test needs odd moduli, not {moduli}")
    peak = k * _level_peak(moduli) + slack
    return next(w for w in (np.uint16, np.uint32, np.uint64)
                if peak <= np.iinfo(w).max)


def multiple_test(moduli, word, shape=None):
    """The test m | d, entrywise, that overwrites d in the unsigned `word`.

    The odd moduli m broadcast over d's last axis; an even one raises
    ValueError before any arithmetic.  m^-1 and the limits are built once,
    and tiled to `shape` (..., L) for L > 1 levels, so each step is one
    long inner loop.  d is multiplied in place by m^-1 mod 2^w, a wrap that
    is deliberate, exact modular arithmetic: an odd m^-1 permutes Z/2^w and
    takes the multiples m q in [0, 2^w) onto q = 0..floor((2^w - 1) / m),
    so m | d exactly when the product is at most that (Granlund and
    Montgomery, PLDI 1994).
    """
    moduli, word = np.atleast_1d(moduli).tolist(), np.dtype(word)
    if word.kind != "u" or any(m % 2 == 0 for m in moduli):
        raise ValueError(f"need unsigned d and odd moduli: {word}, {moduli}")
    top = int(np.iinfo(word).max)
    inv = np.array([pow(m, -1, top + 1) for m in moduli], dtype=word)
    limit = np.array([top // m for m in moduli], dtype=word)
    if shape is not None and len(moduli) > 1:
        inv, limit = (np.broadcast_to(c, shape).copy() for c in (inv, limit))
    return lambda d: np.multiply(d, inv, out=d) <= limit


def routed_matmul(a, b, route) -> np.ndarray:
    """Unreduced a @ b of integer-valued arrays, in the dtype `route` that
    `exact_product` named: the one place that takes BLAS."""
    return np.matmul(a.astype(route, copy=False), b.astype(route, copy=False))


def matmul_mod(a, b, m: int) -> np.ndarray:
    """Exact a @ b mod m, via float BLAS where safe and worthwhile."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    c = routed_matmul(a, b, exact_product(a.shape[-1], (m,)))
    return c.astype(np.int64, copy=False) % m


def _rref_f2(r):
    """The rref of a 0/1 matrix over F_2, on rows packed into Python ints.

    Bit c of a row's int is its column c.  Each row is reduced by XOR
    against the basis so far; its lowest set bit is its pivot, which is
    cleared from the earlier basis rows.  The basis is keyed by the pivot
    bit 2^c, so sorting the keys sorts the pivots.
    """
    rows, cols = r.shape
    data = np.packbits(r, axis=1, bitorder="little")
    width = data.shape[1]
    data = data.tobytes()
    basis, mask = {}, 0
    for i in range(rows):
        row = int.from_bytes(data[i * width : (i + 1) * width], "little")
        hit = row & mask
        while hit:
            low = hit & -hit
            row ^= basis[low]
            hit ^= low
        if row:
            low = row & -row
            for bit, b in basis.items():
                if b & low:
                    basis[bit] = b ^ row
            basis[low] = row
            mask |= low
    bits = sorted(basis)
    packed = b"".join(basis[bit].to_bytes(width, "little") for bit in bits)
    r = np.unpackbits(np.frombuffer(packed, dtype=np.uint8).reshape(
        len(bits), width), axis=1, count=cols, bitorder="little")
    return r.astype(np.int64), [bit.bit_length() - 1 for bit in bits]


def _rref_odd(r, p):
    """The rref of a matrix of residues mod an odd prime p, on rows packed
    into Python ints.

    Column c of a row is the W-bit slot c of its int, W a multiple of 8.
    The row operation a - f b is s = a + (p - f) b, each slot s_i at most
    (p - 1) + (p - 1)^2 < p^2, then one reduction of every slot at once,
    s - p (((s M) >> k) & Q), with k = bitlen(p^2) + bitlen(p) and
    M = ceil(2^k / p) = (2^k + e) / p, 0 <= e < p.  Since s_i e < p^3 <
    2^k, floor(s_i M / 2^k) = floor(s_i / p): Barrett's, or Granlund and
    Montgomery's, division by a constant (PLDI 1994), slot by slot.
    Since s_i M <= (p - 1)(2^k + e) < p 2^k, W >= k + bitlen(p) keeps each
    product in its slot and each quotient in the low W - k bits of the
    slot, the mask Q, which drops what the shift brings down from the slot
    above.  Rows are reduced in order as in `_rref_f2`: a row is cleared
    at the pivots it hits, its lowest nonzero slot is scaled to 1 and
    cleared from the earlier basis rows, and the basis is keyed by pivot.
    """
    rows, cols = r.shape
    k = (p * p).bit_length() + p.bit_length()
    width = (k + p.bit_length() + 7) // 8  # bytes per slot
    w, m, n = 8 * width, -(-(1 << k) // p), min(width, 8)
    ones = int.from_bytes(b"\1".ljust(width, b"\0") * cols, "little")
    slot, q = (1 << w) - 1, ones * ((1 << (w - k)) - 1)

    def reduce(s):
        return s - p * (((s * m) >> k) & q)

    data = np.zeros((rows, cols, width), dtype=np.uint8)
    data[..., :n] = np.ascontiguousarray(r, dtype="<i8").view(
        np.uint8).reshape(rows, cols, 8)[..., :n]  # bytes past 8 stay 0
    data, size = data.tobytes(), cols * width
    basis, mask = {}, 0
    for i in range(rows):
        row = int.from_bytes(data[i * size : (i + 1) * size], "little")
        hit = row & mask
        while hit:
            c = ((hit & -hit).bit_length() - 1) // w
            row = reduce(row + (p - (row >> c * w & slot)) * basis[c])
            hit = row & mask
        if row:
            c = ((row & -row).bit_length() - 1) // w
            row = reduce(row * pow(row >> c * w & slot, -1, p))
            for d, b in basis.items():
                if f := b >> c * w & slot:
                    basis[d] = reduce(b + (p - f) * row)
            basis[c] = row
            mask |= slot << c * w
    pivots = sorted(basis)
    packed = np.frombuffer(b"".join(basis[c].to_bytes(size, "little")
                                    for c in pivots), dtype=np.uint8)
    out = np.zeros((len(pivots), cols, 8), dtype=np.uint8)
    out[..., :n] = packed.reshape(len(pivots), cols, width)[..., :n]
    return out.view("<i8").reshape(len(pivots), cols), pivots


def rref(a, p: int):
    """Reduced row echelon form mod p.  Returns (R, pivot_columns).

    Two kernels give the one rref, both on rows packed into Python ints
    and chosen by p alone: at p = 2 one bit per entry, reduced by XOR
    (`_rref_f2`), at odd p one slot per entry, each row operation one
    multiply-add and one reduction mod p of every slot at once
    (`_rref_odd`).  R is a new C-contiguous int64 array, the pivots Python
    ints.  p is admitted while a product of two residues fits int64.

    >>> a = np.zeros((3, 11), dtype=np.int64)
    >>> a[0, [1, 9]] = a[1, [1, 10]] = a[2, [9, 10]] = 1
    >>> r, pivots = rref(a, 2)  # rows of 11 bits cross a byte
    >>> pivots, r[:, [1, 9, 10]].tolist()
    ([1, 9], [[1, 0, 1], [0, 1, 1]])
    >>> r, pivots = rref([[3, 1, 4, 1], [6, 2, 1, 5]], 7)  # 3^-1 = 5 mod 7
    >>> pivots, r.tolist()
    ([0, 3], [[1, 5, 6, 0], [0, 0, 0, 1]])
    """
    exact_product(1, (p,))
    r = np.asarray(a, dtype=np.int64) % p
    return _rref_f2(r) if p == 2 else _rref_odd(r, p)


def rank(a, p: int) -> int:
    return len(rref(a, p)[1])


def nullspace(a, p: int) -> np.ndarray:
    """Kernel basis as columns of an (n, k) array, from the rref of a."""
    r, pivots = rref(a, p)
    n = r.shape[1]
    free = np.delete(np.arange(n), pivots)
    basis = np.eye(n, dtype=np.int64)[:, free]
    basis[pivots] = (-r[:, free]) % p
    return basis


def solve(a, b, p: int):
    """One solution of a x = b mod p (free variables 0), or None.

    b may be a vector or a matrix of stacked right-hand sides (as columns).
    """
    a = np.asarray(a)
    b1 = np.asarray(b)
    vec = b1.ndim == 1
    if vec:
        b1 = b1[:, None]
    r, pivots = rref(np.hstack([a, b1]), p)
    n = a.shape[1]
    if any(c >= n for c in pivots):
        return None
    x = np.zeros((n, b1.shape[1]), dtype=np.int64)
    x[pivots] = r[:, n:]
    return x[:, 0] if vec else x


def inv(a, p: int):
    """Inverse mod p, or None if singular: the one solution of a x = I.

    >>> inv([[1, 0, 0], [0, 1, 0]], 5)
    Traceback (most recent call last):
    ...
    ValueError: inv needs a square matrix, not shape (2, 3)
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"inv needs a square matrix, not shape {a.shape}")
    return solve(a, np.eye(len(a), dtype=np.int64), p)


def extend_basis(base, cands, p: int) -> list:
    """Indices of the columns of cands that extend span(base), greedily.

    Column c is kept when it lies outside the span of base and the kept
    columns before it.  Those are exactly the pivot columns past base of
    one rref of [base | cands].
    """
    base = np.asarray(base)
    _, pivots = rref(np.hstack([base, cands]), p)
    return [c - base.shape[1] for c in pivots if c >= base.shape[1]]


def col_space_basis(a, p: int) -> np.ndarray:
    """Column space basis, as columns."""
    return rref(np.asarray(a).T, p)[0].T


def in_span(basis_cols, v, p: int) -> bool:
    """Is v (column vector or matrix of columns) in the span of basis_cols?"""
    v = np.asarray(v)
    return not extend_basis(basis_cols, v.reshape(v.shape[0], -1), p)

