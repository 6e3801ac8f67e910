"""Elementary number theory: primality, factoring, Zsigmondy primes,
primitive polynomials over prime fields, and the prime search used by the
character-table lifter.

Everything here is exact integer arithmetic with deterministic search
orders (smallest prime first, lexicographic coefficient order), so outputs
are reproducible across runs.
"""
from __future__ import annotations

from itertools import product
from math import gcd

import numpy as np

from .fpmat import companion, mat_pow

PN_BOUND = 10**6          # largest p**n of a prime-power search or construction
DIXON_PRIME_CAP = 2**62   # give up (loudly) past this

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic primality test, valid for all m < 3.3e24."""
    if m < 2:
        return False
    for p in _MR_WITNESSES:
        if m % p == 0:
            return m == p
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def factorize(m: int) -> dict[int, int]:
    """Prime factorization by trial division; fine at desk scale."""
    if m < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    d = 5
    while d * d <= m:
        for q in (d, d + 2):
            while m % q == 0:
                out[q] = out.get(q, 0) + 1
                m //= q
        d += 6
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def divisors(m: int) -> list[int]:
    """All positive divisors of m, ascending."""
    divs = [1]
    for p, a in factorize(m).items():
        divs = [d * p**i for d in divs for i in range(a + 1)]
    return sorted(divs)


def is_prime_power(m: int) -> tuple[int, int] | None:
    """Return (p, a) with m = p**a, or None if m is not a prime power."""
    if m < 2:
        return None
    fac = factorize(m)
    if len(fac) != 1:
        return None
    ((p, a),) = fac.items()
    return p, a


def is_mersenne_prime(p: int) -> bool:
    """True iff p is prime and p + 1 is a power of two."""
    if p < 2 or not is_prime(p):
        return False
    q = p + 1
    return q & (q - 1) == 0


def primitive_root(p: int) -> int:
    """Smallest primitive root modulo the prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return 1
    qs = list(factorize(p - 1))
    for r in range(2, p):
        if all(pow(r, (p - 1) // q, p) != 1 for q in qs):
            return r
    raise AssertionError("unreachable: every prime has a primitive root")


def unit_generators(e: int) -> list[int]:
    """Units mod e, increasing, each outside the group the earlier ones generate."""
    gens: list[int] = []
    reached = {1 % e}
    for u in range(2, e):
        if gcd(u, e) != 1 or u in reached:
            continue
        gens.append(u)
        grown = set(reached)
        x = u
        while x not in reached:  # the cosets reached * u^j
            grown |= {r * x % e for r in reached}
            x = x * u % e
        reached = grown
    return gens


def zsigmondy_prime(p: int, n: int) -> int | None:
    """Smallest prime q dividing p**n - 1 but no p**k - 1 with k < n.

    Computed from the prime factors of p**n - 1 by checking multiplicative
    orders, independently of the classical exception list (p**n = 2, n = 2
    with p Mersenne, p**n = 64), so the tests check that list against this
    function.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("n must be positive")
    if p**n > PN_BOUND:
        raise ValueError(f"p**n exceeds configured bound {PN_BOUND}")
    m = p**n - 1
    if m == 1:
        return None
    proper = [k for k in divisors(n) if k < n]
    for q in factorize(m):
        # q | p^n - 1, so ord_q(p) divides n; q is a Zsigmondy prime iff the
        # order is exactly n, i.e. no proper divisor k of n has q | p^k - 1.
        if q == p:
            continue
        if all(pow(p, k, q) != 1 for k in proper):
            return q
    return None


def matrix_order_is(mat: np.ndarray, p: int, target: int) -> bool:
    """True iff mat has multiplicative order exactly target over F_p."""
    ident = np.eye(len(mat), dtype=np.int64)
    if not np.array_equal(mat_pow(mat, target, p), ident):
        return False
    return all(
        not np.array_equal(mat_pow(mat, target // q, p), ident)
        for q in factorize(target)
    )


def primitive_polynomial(p: int, n: int) -> list[int]:
    """First (lexicographic) monic degree-n polynomial over F_p whose
    companion matrix has order p**n - 1.

    Returns ascending coefficients [c0, ..., c_{n-1}, 1].  Exhaustive search
    over constant-first lexicographic coefficient tuples, so the result is
    deterministic.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("n must be positive")
    if p**n > PN_BOUND:
        raise ValueError(f"p**n exceeds configured bound {PN_BOUND}")
    target = p**n - 1
    for coeffs in product(range(p), repeat=n):  # lazily: p**n tuples
        if coeffs[0] == 0:
            continue  # reducible: x divides
        full = list(coeffs) + [1]
        if matrix_order_is(companion(full, p), p, target):
            return full
    raise AssertionError(f"no primitive polynomial found for p={p}, n={n}")


def find_dixon_prime(e: int, group_order: int) -> int:
    """Smallest prime l with l = 1 (mod e) and l**2 > 4 * group_order."""
    if e < 1 or group_order < 1:
        raise ValueError("e and group_order must be positive")
    threshold = 4 * group_order
    ell = 1 + e
    while ell <= DIXON_PRIME_CAP:
        if ell * ell > threshold and is_prime(ell):
            return ell
        ell += e
    raise OverflowError("Dixon prime search exceeded 2**62")
