"""Elementary number theory: primality, factoring, Zsigmondy primes,
primitive polynomials over prime fields, and the prime search used by the
character-table lifter.

Everything here is exact integer arithmetic with deterministic search
orders (smallest prime first, lexicographic coefficient order), so outputs
are reproducible across runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd

import numpy as np

from .fpmat import companion, mat_pow

PN_BOUND = 10**6          # default bound for prime-power sweeps
DIXON_PRIME_CAP = 2**62   # give up (loudly) past this

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic primality test, valid for all m < 3.3e24."""
    if m < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def multiplicative_order(a: int, m: int) -> int:
    """Order of a in (Z/m)*; requires gcd(a, m) = 1."""
    a %= m
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    if m == 1:
        return 1
    order = 1
    for p, k in factorize(m).items():
        # group order contribution is p^(k-1)*(p-1) for odd p; handle via
        # totient of the prime power and peel off factors
        t = p ** (k - 1) * (p - 1)
        order = order * t // gcd(order, t)
    # order divides totient; strip unnecessary prime factors
    for q in factorize(order):
        while order % q == 0 and pow(a, order // q, m) == 1:
            order //= q
    return order


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


@dataclass(frozen=True)
class PrimePower:
    """A prime p together with a positive exponent n."""

    p: int
    n: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.n < 1:
            raise ValueError("exponent must be positive")

    @property
    def value(self) -> int:
        return self.p**self.n


def _prime_factors_ascending(m: int):
    """Distinct prime factors of m in ascending order, lazily."""
    for p in (2, 3):
        if m % p == 0:
            yield p
            while m % p == 0:
                m //= p
    d = 5
    while d * d <= m:
        for q in (d, d + 2):
            if m % q == 0:
                yield q
                while m % q == 0:
                    m //= q
        d += 6
    if m > 1:
        yield m


def zsigmondy_prime(p: int, n: int, bound: int = PN_BOUND) -> int | None:
    """Smallest prime q dividing p**n - 1 but no p**k - 1 with k < n.

    Computed from the prime factors of p**n - 1 by checking multiplicative
    orders, independently of the classical exception list (p**n = 2, n = 2
    with p Mersenne, p**n = 64), so the exception list is testable against
    this function.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("n must be positive")
    if p**n > bound:
        raise ValueError(f"p**n exceeds configured bound {bound}")
    m = p**n - 1
    if m == 1:
        return None
    proper = [k for k in divisors(n) if k < n]
    for q in _prime_factors_ascending(m):
        # q | p^n - 1, so ord_q(p) divides n; q is a Zsigmondy prime iff the
        # order is exactly n, i.e. no proper divisor k of n has q | p^k - 1.
        if q == p:
            continue
        if all(pow(p, k, q) != 1 for k in proper):
            return q
    return None


def zsigmondy_exception_expected(p: int, n: int) -> bool:
    """The classical exception list: no Zsigmondy prime exists exactly here."""
    return p**n == 2 or (n == 2 and is_mersenne_prime(p)) or p**n == 64


def matrix_order_is(mat: np.ndarray, p: int, target: int) -> bool:
    """True iff mat has multiplicative order exactly target over F_p."""
    ident = np.eye(len(mat), dtype=np.int64)
    if not np.array_equal(mat_pow(mat, target, p), ident):
        return False
    return all(
        not np.array_equal(mat_pow(mat, target // q, p), ident)
        for q in factorize(target)
    )


def primitive_polynomial(p: int, n: int, bound: int = PN_BOUND) -> list[int]:
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
    if p**n > bound:
        raise ValueError(f"p**n exceeds configured bound {bound}")
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
