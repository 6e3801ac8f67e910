"""Linear algebra over prime fields F_p, on numpy int64 arrays.

This is the one home of F_p matrix arithmetic in the package: row reduction,
rank and inverses (used by the action checks and the constructors), powers
of matrices, companion matrices (used by the primitive-polynomial
search and the Singer cycles), and the action of matrices on the numbered
vectors of F_p^n, which turns a matrix group into a permutation group on p^n
points.  Entries are reduced to [0, p) after every product, so a product of
n x n matrices stays exact while n * (p - 1)**2 < 2**63; `mul` and the
character-table descent over F_l work in float64 while
n * (p - 1)**2 < 2**53 (`exact_dtype`).
"""
from __future__ import annotations

import numpy as np


def exact_dtype(n: int, p: int):
    """float64 if a sum of n products of entries in [0, p) stays below 2**53,
    so that it is exact there and products go through the BLAS; else int64."""
    return np.float64 if n * (p - 1) ** 2 < 2**53 else np.int64


def mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p as int64, for entries in [0, p); in float64 where exact."""
    dtype = exact_dtype(a.shape[-1], p)
    out = a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
    return out.astype(np.int64, copy=False) % p  # float64 remainders are slower


def mat_pow(m: np.ndarray, n: int, p: int) -> np.ndarray:
    if n < 0:
        raise ValueError("negative exponent")
    result = np.eye(len(m), dtype=np.int64)
    base = m % p
    while n:
        if n & 1:
            result = result @ base % p
        base = base @ base % p
        n >>= 1
    return result


def companion(coeffs, p: int) -> np.ndarray:
    """Companion matrix of the monic polynomial with ascending coeffs."""
    n = len(coeffs) - 1
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(1, n):
        m[i, i - 1] = 1
    for i in range(n):
        m[i, n - 1] = (-coeffs[i]) % p
    return m


def mat_inv(m: np.ndarray, p: int) -> np.ndarray:
    n = len(m)
    aug = np.concatenate([m % p, np.eye(n, dtype=np.int64)], axis=1)
    aug = row_reduce(aug, p)
    if not np.array_equal(aug[:, :n], np.eye(n, dtype=np.int64)):
        raise ZeroDivisionError("matrix is singular")
    return aug[:, n:]


def row_reduce(m: np.ndarray, p: int) -> np.ndarray:
    """Reduced row echelon form over F_p."""
    m = m.copy() % p
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i, c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        m[r] = m[r] * pow(int(m[r, c]), p - 2, p) % p
        col = m[:, c].copy()
        col[r] = 0
        if col.any():
            m -= np.outer(col, m[r])
            m %= p
        r += 1
        if r == rows:
            break
    return m


def mat_rank(m: np.ndarray, p: int) -> int:
    red = row_reduce(m, p)
    return int(np.count_nonzero(red.any(axis=1)))


def all_vectors(p: int, n: int) -> np.ndarray:
    """The p^n vectors of F_p^n as rows, in lexicographic order: row i holds
    the base-p digits of i, the first coordinate most significant."""
    return np.arange(p**n)[:, None] // p ** np.arange(n - 1, -1, -1) % p


def vector_numbers(rows: np.ndarray, p: int) -> list[int]:
    """The numbers of vectors over F_p (rows) in the order of `all_vectors`."""
    return (rows @ p ** np.arange(rows.shape[1] - 1, -1, -1)).tolist()


def vector_action(mats, p: int) -> list[list[int]]:
    """For each n x n matrix m over F_p, the numbers of the images m v of the
    vectors v of F_p^n in the order of `all_vectors`: <mats> as a permutation
    group on p^n points."""
    return [
        vector_numbers(mul(all_vectors(p, len(m)), np.asarray(m).T % p, p), p)
        for m in mats
    ]
