"""Exact linear algebra over F_p on numpy int64 arrays.

Row reduction is vectorized per pivot.  `exact_product` is the one
exactness rule of every product here and in `coeff.level_matmul`; large
products route through float64 BLAS where it admits them.  All functions
expect and return canonical residues.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_BLAS_CUTOFF = 1 << 16  # flops below this: plain int64 matmul is fine
_ROW_BLOCK = 2048  # row_space_basis reduces taller matrices in row blocks


@lru_cache(maxsize=64)
def _level_peak(m: tuple) -> int:
    return max(sum((m[i] - 1) * (m[l - i] - 1) for i in range(l + 1))
               for l in range(len(m)))


def exact_product(k: int, moduli: tuple) -> bool:
    """Refuse a product int64 cannot hold; say whether float64 holds it.

    Canonical operands with inner dimension k over level moduli m_0..m_{L-1}
    sum at most k * max_l sum_{i<=l} (m_i - 1)(m_{l-i} - 1) before
    reduction, partial sums included.  OverflowError unless that is below
    2^63; True when it is below 2^53, where float64 is exact too (the FFPACK
    bound of Dumas, Giorgi and Pernet, ISSAC 2004).
    """
    peak = k * _level_peak(moduli)
    if peak >= 2**63:
        raise OverflowError(
            f"a product of inner dimension {k} over moduli {moduli} "
            "is too large for exact int64 arithmetic"
        )
    return peak < 2**53


def asmod(a, p: int) -> np.ndarray:
    return np.asarray(a, dtype=np.int64) % p


def routed_matmul(a, b, fits_float: bool) -> np.ndarray:
    """Unreduced a @ b of int64 arrays; the one place that takes float64
    BLAS, when fits_float (`exact_product`'s answer) and flops allow."""
    k = a.shape[-1]
    flops = a.size // max(k, 1) * k * (b.size // max(k, 1))
    if flops > _BLAS_CUTOFF and fits_float:
        c = np.matmul(a.astype(np.float64), b.astype(np.float64))
        return c.astype(np.int64)
    return np.matmul(a, b)


def matmul_mod(a, b, m: int) -> np.ndarray:
    """Exact a @ b mod m, via BLAS float64 where safe and worthwhile."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return routed_matmul(a, b, exact_product(a.shape[-1], (m,))) % m


def rref(a, p: int):
    """Reduced row echelon form mod p.  Returns (R, pivot_columns)."""
    exact_product(1, (p,))  # pivot scaling and row updates multiply entries
    r = asmod(a, p).copy()
    rows, cols = r.shape
    pivots = []
    lead = 0
    for c in range(cols):
        if lead >= rows:
            break
        nz = np.nonzero(r[lead:, c])[0]
        if nz.size == 0:
            continue
        pr = lead + int(nz[0])
        if pr != lead:
            r[[lead, pr]] = r[[pr, lead]]
        inv = pow(int(r[lead, c]), -1, p)
        r[lead, c:] = (r[lead, c:] * inv) % p
        other = np.nonzero(r[:, c])[0]
        other = other[other != lead]
        if other.size:
            r[np.ix_(other, range(c, cols))] = (
                r[np.ix_(other, range(c, cols))]
                - np.outer(r[other, c], r[lead, c:])
            ) % p
        pivots.append(c)
        lead += 1
    return r[: len(pivots)], pivots


def row_space_basis(a, p: int):
    """Row space basis (rref rows) and its pivot columns.

    Tall matrices are reduced _ROW_BLOCK rows at a time; the pivots are
    those of the last reduction.
    """
    a = asmod(a, p)
    acc = a[:0], []
    for i in range(0, a.shape[0], _ROW_BLOCK):
        acc = rref(np.vstack([acc[0], a[i : i + _ROW_BLOCK]]), p)
    return acc


def rank(a, p: int) -> int:
    a = np.asarray(a)
    if a.size == 0:
        return 0
    return len(row_space_basis(a, p)[1])


def nullspace(a, p: int) -> np.ndarray:
    """Kernel basis as columns of an (n, k) array, from the rref of a."""
    a = asmod(a, p)
    n = a.shape[1]
    if a.shape[0] == 0 or n == 0:
        return np.eye(n, dtype=np.int64)
    r, pivots = row_space_basis(a, p)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-r[i, fc]) % p
    return basis


def solve(a, b, p: int):
    """One solution of a x = b mod p (free variables 0), or None.

    b may be a vector or a matrix of stacked right-hand sides (as columns).
    """
    a = asmod(a, p)
    b1 = asmod(b, p)
    vec = b1.ndim == 1
    if vec:
        b1 = b1[:, None]
    r, pivots = row_space_basis(np.hstack([a, b1]), p)
    n = a.shape[1]
    if any(c >= n for c in pivots):
        return None
    x = np.zeros((n, b1.shape[1]), dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, n:]
    return x[:, 0] if vec else x


def inv(a, p: int):
    """Inverse mod p, or None if singular."""
    a = asmod(a, p)
    n = a.shape[0]
    r, pivots = rref(np.hstack([a, np.eye(n, dtype=np.int64)]), p)
    if pivots != list(range(n)):
        return None
    return r[:, n:]


def extend_basis(base, cands, p: int) -> list:
    """Indices of the columns of cands that extend span(base), greedily.

    Column c is kept when it lies outside the span of base and the kept
    columns before it.  Those are exactly the pivot columns past base of
    one rref of [base | cands].
    """
    base = asmod(base, p)
    _, pivots = rref(np.hstack([base, asmod(cands, p)]), p)
    return [c - base.shape[1] for c in pivots if c >= base.shape[1]]


def col_space_basis(a, p: int) -> np.ndarray:
    """Column space basis, as columns."""
    return row_space_basis(np.asarray(a).T, p)[0].T


def in_span(basis_cols, v, p: int) -> bool:
    """Is v (column vector or matrix of columns) in the span of basis_cols?"""
    v = np.asarray(v)
    return not extend_basis(basis_cols, v.reshape(v.shape[0], -1), p)

