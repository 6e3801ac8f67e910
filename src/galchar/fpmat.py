"""Linear algebra over prime fields F_p, on numpy int64 arrays.

This is the one home of F_p matrix arithmetic in the package: row reduction,
rank and null spaces (used by the character-table splitter over F_l as well
as by the action checks), powers and orders of matrices, companion matrices
(used by the primitive-polynomial search and the Singer cycles), and
closures of small matrix groups and vector orbits.  Entries are reduced to
[0, p) after every product, so a product of n x n matrices stays exact while
n * (p - 1)**2 < 2**63; `mul` and the character-table splitter work in
float64 while n * (p - 1)**2 < 2**53 (`exact_dtype`).
"""
from __future__ import annotations

import numpy as np

MATRIX_GROUP_BOUND = 200_000


def mat(rows, p: int) -> np.ndarray:
    return np.array(rows, dtype=np.int64) % p


def mat_key(m: np.ndarray) -> bytes:
    return m.tobytes()


def exact_dtype(n: int, p: int):
    """float64 if a sum of n products of entries in [0, p) stays below 2**53,
    so that it is exact there and products go through the BLAS; else int64."""
    return np.float64 if n * (p - 1) ** 2 < 2**53 else np.int64


def mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p as int64, for entries in [0, p); in float64 where exact."""
    dtype = exact_dtype(a.shape[-1], p)
    out = a.astype(dtype, copy=False) @ b.astype(dtype, copy=False) % p
    return out.astype(np.int64)


def mat_pow(m: np.ndarray, n: int, p: int) -> np.ndarray:
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


def mat_order(m: np.ndarray, p: int, cap: int = MATRIX_GROUP_BOUND) -> int:
    ident = np.eye(len(m), dtype=np.int64)
    cur = m % p
    for k in range(1, cap + 1):
        if np.array_equal(cur, ident):
            return k
        cur = cur @ m % p
    raise RuntimeError("matrix order exceeds cap")


def close_matrix_group(gens, p: int, bound: int = MATRIX_GROUP_BOUND) -> list[np.ndarray]:
    """All elements of the group generated by gens; identity first."""
    if not gens:
        raise ValueError("need at least one generator to fix the dimension")
    n = len(gens[0])
    ident = np.eye(n, dtype=np.int64)
    elements = [ident]
    seen = {mat_key(ident)}
    frontier = [ident]
    gens = [g % p for g in gens]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x @ g % p
            key = mat_key(y)
            if key not in seen:
                if len(elements) >= bound:
                    raise RuntimeError(f"matrix group exceeds bound {bound}")
                seen.add(key)
                elements.append(y)
                frontier.append(y)
    return elements


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


def null_space(m: np.ndarray, p: int) -> np.ndarray:
    """Rows spanning the right null space of m over F_p."""
    rows, cols = m.shape
    red = row_reduce(m, p)
    pivots = []
    for r in range(rows):
        nz = np.nonzero(red[r])[0]
        if len(nz):
            pivots.append(int(nz[0]))
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, c in enumerate(free):
        basis[i, c] = 1
        for r_i, pc in enumerate(pivots):
            basis[i, pc] = (-red[r_i, c]) % p
    return basis


def fixed_space_dim(m: np.ndarray, p: int) -> int:
    """Dimension of the eigenspace for eigenvalue 1."""
    n = len(m)
    return n - mat_rank((m - np.eye(n, dtype=np.int64)) % p, p)


def vector_orbit(gens, start: np.ndarray, p: int) -> set[tuple]:
    """Orbit of a vector under a list of matrices."""
    start = tuple(int(x) % p for x in start)
    orbit = {start}
    frontier = [start]
    while frontier:
        v = np.array(frontier.pop(), dtype=np.int64)
        for g in gens:
            w = tuple(int(x) for x in (g @ v % p))
            if w not in orbit:
                orbit.add(w)
                frontier.append(w)
    return orbit


def all_vectors(p: int, n: int):
    """All vectors of F_p^n in lexicographic order."""
    vecs = [()]
    for _ in range(n):
        vecs = [v + (c,) for v in vecs for c in range(p)]
    return [np.array(v, dtype=np.int64) for v in vecs]


def span_dim(vectors, p: int, n: int) -> int:
    if not vectors:
        return 0
    m = np.array(vectors, dtype=np.int64).reshape(len(vectors), n)
    return mat_rank(m, p)
