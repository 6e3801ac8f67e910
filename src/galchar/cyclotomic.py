"""Exact arithmetic in rings of cyclotomic integers.

A value is stored as an integer coefficient vector of length phi(e) over the
power basis 1, z, ..., z^(phi(e)-1) of Z[z], z a primitive e-th root of
unity, reduced modulo the e-th cyclotomic polynomial.  Within one conductor
the representation is a unique normal form; values whose coefficients beyond
index 0 vanish are rational and are normalised to conductor 1, and equality
of mixed-conductor values rebases both sides to the lcm.  Coefficients are
plain Python integers, so there is no overflow to guard against.

The complex-float view exists for diagnostics only and never participates in
an equality decision.
"""
from __future__ import annotations

import cmath
from functools import lru_cache
from math import gcd

CONDUCTOR_BOUND = 10**4


class ConductorOverflow(ValueError):
    """Raised when an operation would need a conductor past the bound."""


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Ascending coefficients of the e-th cyclotomic polynomial."""
    if e < 1:
        raise ValueError("conductor must be positive")
    if e == 1:
        return (-1, 1)
    # (x^e - 1) / prod_{d | e, d < e} Phi_d, by exact polynomial division.
    num = [0] * (e + 1)
    num[0] = -1
    num[e] = 1
    for d in range(1, e):
        if e % d == 0:
            num = _poly_div_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (den monic up to sign)."""
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q, r = divmod(c, lead)
        if r:
            raise ArithmeticError("non-exact polynomial division")
        out[i] = q
        if q:
            for j, dj in enumerate(den):
                num[i + j] -= q * dj
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def phi(e: int) -> int:
    return len(cyclotomic_polynomial(e)) - 1


@lru_cache(maxsize=None)
def _monomial_table(e: int) -> tuple[tuple[int, ...], ...]:
    """Canonical vectors of z^t for t in 0..e-1 at conductor e."""
    d = phi(e)
    poly = cyclotomic_polynomial(e)
    rows: list[tuple[int, ...]] = []
    cur = [0] * d
    cur[0] = 1
    rows.append(tuple(cur))
    for _ in range(1, e):
        nxt = [0] + cur[: d - 1]
        top = cur[d - 1]
        if top:
            for j in range(d):
                nxt[j] -= top * poly[j]
        rows.append(tuple(nxt))
        cur = nxt
    return tuple(rows)


def _reduce_dense(e: int, dense: list[int]) -> list[int]:
    """Reduce an arbitrary-degree polynomial in z_e to the canonical vector."""
    d = phi(e)
    folded = [0] * e
    for t, c in enumerate(dense):
        if c:
            folded[t % e] += c
    out = [0] * d
    table = _monomial_table(e)
    for t in range(e):
        c = folded[t]
        if c:
            row = table[t]
            for j in range(d):
                out[j] += c * row[j]
    return out


class Cyclotomic:
    """An element of the ring of integers of a cyclotomic field.

    Values are immutable: every operation returns a new value.  A character
    table shares one object between all its entries that hold the same
    value, so nothing may change a value in place.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: tuple[int, ...], _raw: bool = False):
        if _raw:
            self.conductor = conductor
            self.coeffs = coeffs
            return
        if conductor < 1:
            raise ValueError("conductor must be positive")
        if conductor > CONDUCTOR_BOUND:
            raise ConductorOverflow(f"conductor {conductor} exceeds bound")
        vec = _reduce_dense(conductor, list(coeffs))
        if conductor > 1 and not any(vec[1:]):
            self.conductor = 1
            self.coeffs = (vec[0],)
        else:
            self.conductor = conductor
            self.coeffs = tuple(vec)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "Cyclotomic":
        return Cyclotomic(1, (n,), _raw=True)

    @staticmethod
    def zeta(e: int, k: int = 1) -> "Cyclotomic":
        """The root of unity z_e**k."""
        dense = [0] * e
        dense[k % e] = 1
        return Cyclotomic(e, tuple(dense))

    @staticmethod
    def from_root_multiplicities(e: int, mults) -> "Cyclotomic":
        """Canonical form of sum_t mults[t] * z_e**t; len(mults) must be e."""
        mults = list(mults)
        if len(mults) != e:
            raise ValueError(f"need exactly {e} multiplicities, got {len(mults)}")
        return Cyclotomic._from_monomials(e, enumerate(mults))

    @staticmethod
    def _from_monomials(e: int, pairs) -> "Cyclotomic":
        """Canonical form of sum (t, c) -> c * z_e**t without a dense pass."""
        d = phi(e)
        table = _monomial_table(e)
        out = [0] * d
        for t, c in pairs:
            if c:
                row = table[t % e]
                for j in range(d):
                    out[j] += c * row[j]
        if e > 1 and not any(out[1:]):
            return Cyclotomic(1, (out[0],), _raw=True)
        return Cyclotomic(e, tuple(out), _raw=True)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.conductor == 1 and self.coeffs[0] == 0

    @property
    def is_rational(self) -> bool:
        return self.conductor == 1

    def rational_value(self) -> int:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def _rebased(self, big: int) -> tuple[int, ...]:
        """Coefficient vector of this value at conductor big (self.conductor | big)."""
        if big == self.conductor:
            return self.coeffs
        step = big // self.conductor
        dense = [0] * (step * (len(self.coeffs) - 1) + 1)
        for i, c in enumerate(self.coeffs):
            dense[i * step] = c
        return tuple(_reduce_dense(big, dense))

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.conductor == 1 and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if self.conductor == other.conductor:
            return self.coeffs == other.coeffs
        big = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        return self._rebased(big) == other._rebased(big)

    __hash__ = None  # mixed-conductor equality makes hashing a trap

    # -- arithmetic --------------------------------------------------------

    def _common(self, other: "Cyclotomic") -> int:
        big = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        if big > CONDUCTOR_BOUND:
            raise ConductorOverflow(f"conductor {big} exceeds bound")
        return big

    def __add__(self, other) -> "Cyclotomic":
        if isinstance(other, int):
            other = Cyclotomic.from_int(other)
        if self.conductor == other.conductor:
            vec = [a + b for a, b in zip(self.coeffs, other.coeffs)]
            if self.conductor > 1 and not any(vec[1:]):
                return Cyclotomic(1, (vec[0],), _raw=True)
            return Cyclotomic(self.conductor, tuple(vec), _raw=True)
        big = self._common(other)
        a = self._rebased(big)
        b = other._rebased(big)
        return Cyclotomic(big, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.conductor, tuple(-c for c in self.coeffs), _raw=True)

    def __sub__(self, other) -> "Cyclotomic":
        if isinstance(other, int):
            other = Cyclotomic.from_int(other)
        return self + (-other)

    def __rsub__(self, other) -> "Cyclotomic":
        return (-self) + other

    def __mul__(self, other) -> "Cyclotomic":
        if isinstance(other, int):
            if other == 0:
                return Cyclotomic.from_int(0)
            return Cyclotomic(
                self.conductor, tuple(other * c for c in self.coeffs), _raw=True
            )
        if self.is_rational:
            return other * self.coeffs[0]
        if other.is_rational:
            return self * other.coeffs[0]
        big = self._common(other)
        a = self._rebased(big)
        b = other._rebased(big)
        na = [i for i, c in enumerate(a) if c]
        nb = [i for i, c in enumerate(b) if c]
        if len(na) * len(nb) <= 4 * phi(big):
            # sparse path: accumulate monomial products via the power table
            table = _monomial_table(big)
            out = [0] * phi(big)
            for i in na:
                ci = a[i]
                for j in nb:
                    row = table[(i + j) % big]
                    c = ci * b[j]
                    for t in range(len(out)):
                        out[t] += c * row[t]
            return Cyclotomic(big, tuple(out))
        dense = [0] * (2 * len(a) - 1)
        for i in na:
            ci = a[i]
            for j in nb:
                dense[i + j] += ci * b[j]
        return Cyclotomic(big, tuple(dense))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Cyclotomic":
        if n < 0:
            raise ValueError("negative powers are not ring operations")
        result = Cyclotomic.from_int(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def galois_apply(self, k: int) -> "Cyclotomic":
        """Image under z_e -> z_e**k; requires gcd(k, e) = 1."""
        e = self.conductor
        if gcd(k, e) != 1:
            raise ValueError(f"{k} is not coprime to conductor {e}")
        if e == 1:
            return self
        return Cyclotomic._from_monomials(
            e, ((i * k, c) for i, c in enumerate(self.coeffs))
        )

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, the Galois map k = -1."""
        if self.conductor == 1:
            return self
        return self.galois_apply(self.conductor - 1)

    # -- diagnostics and io --------------------------------------------------

    def to_complex(self) -> complex:
        """Floating approximation; never used in equality decisions."""
        e = self.conductor
        return sum(
            c * cmath.exp(2j * cmath.pi * i / e)
            for i, c in enumerate(self.coeffs)
            if c
        ) + 0j

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.coeffs[0])
        parts = []
        if self.coeffs[0]:
            parts.append(str(self.coeffs[0]))
        for i, c in enumerate(self.coeffs):
            if i and c:
                parts.append(f"{c}*z({self.conductor})^{i}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Cyclotomic({self})"

    @staticmethod
    def parse(text: str) -> "Cyclotomic":
        """Inverse of str(); exact round trip."""
        total = Cyclotomic.from_int(0)
        for term in text.strip().split(" + "):
            if "*" in term:
                coeff_s, mono = term.split("*", 1)
                if not (mono.startswith("z(") and "^" in mono):
                    raise ValueError(f"bad term {term!r}")
                e_s, k_s = mono[2:].split(")^", 1)
                total = total + Cyclotomic.zeta(int(e_s), int(k_s)) * int(coeff_s)
            else:
                total = total + int(term)
        return total


def cyc(n: int) -> Cyclotomic:
    """Shorthand for a rational cyclotomic value."""
    return Cyclotomic.from_int(n)


def zeta(e: int, k: int = 1) -> Cyclotomic:
    return Cyclotomic.zeta(e, k)


def cyc_from_root_multiplicities(e: int, mults) -> Cyclotomic:
    return Cyclotomic.from_root_multiplicities(e, mults)
