"""Values in rings of cyclotomic integers, as a character table holds them.

A value is stored as an integer coefficient vector of length phi(e) over the
power basis 1, z, ..., z^(phi(e)-1) of Z[z], z a primitive e-th root of
unity, reduced modulo the e-th cyclotomic polynomial.  Within one conductor
the representation is a unique normal form; values whose coefficients beyond
index 0 vanish are rational and are normalised to conductor 1.  Coefficients
are plain Python integers, so there is no overflow to guard against.

The library builds every value in that form already: a character table's
lift writes each value at its class order through the _raw constructor, and
from_int writes a rational one.  So values are compared and rendered here,
not combined.  One routine, _normal_form, makes the form from any sum of
terms c * z_e**t: it folds the exponents mod e and adds each residue's
power-basis row once.  It serves the checked constructor and == between
conductors, which holds when the terms of the difference over z_lcm fold to
zero.  Conductors past CONDUCTOR_BOUND raise ConductorOverflow, in
_normal_form and, through _check_conductor, in character_table before a
table is split.
"""
from __future__ import annotations

from functools import lru_cache
from math import lcm

CONDUCTOR_BOUND = 10**4


class ConductorOverflow(ValueError):
    """Raised when a value would need a conductor past the bound."""


def _check_conductor(e: int) -> None:
    """ConductorOverflow if e is past the bound, read at the call."""
    if e > CONDUCTOR_BOUND:
        raise ConductorOverflow(f"conductor {e} exceeds bound")


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


def _normal_form(e: int, terms) -> "Cyclotomic":
    """The value sum c * z_e**t over the (t, c) terms, in normal form."""
    if e < 1:
        raise ValueError("conductor must be positive")
    _check_conductor(e)
    folded = [0] * e
    for t, c in terms:
        folded[t % e] += c
    d = phi(e)
    out = [0] * d
    for row, c in zip(_monomial_table(e), folded):
        if c:
            for j in range(d):
                out[j] += c * row[j]
    if e > 1 and not any(out[1:]):
        return Cyclotomic(1, (out[0],), _raw=True)
    return Cyclotomic(e, tuple(out), _raw=True)


class Cyclotomic:
    """An element of the ring of integers of a cyclotomic field.

    Values are immutable.  A character table shares one object between all
    its entries that hold the same value, so nothing may change a value in
    place.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: tuple[int, ...], _raw: bool = False):
        if _raw:
            self.conductor = conductor
            self.coeffs = coeffs
            return
        value = _normal_form(conductor, enumerate(coeffs))
        self.conductor = value.conductor
        self.coeffs = value.coeffs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "Cyclotomic":
        return Cyclotomic(1, (n,), _raw=True)

    # -- structure ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.conductor == 1

    def _terms(self, big: int) -> list[tuple[int, int]]:
        """The (exponent, coefficient) pairs of this value over z_big, for a
        multiple big of its conductor; zero coefficients are left out."""
        step = big // self.conductor
        return [(i * step, c) for i, c in enumerate(self.coeffs) if c]

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.conductor == 1 and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if self.conductor == other.conductor:
            return self.coeffs == other.coeffs
        big = lcm(self.conductor, other.conductor)
        terms = self._terms(big) + [(t, -c) for t, c in other._terms(big)]
        return _normal_form(big, terms) == 0

    __hash__ = None  # mixed-conductor equality makes hashing a trap

    # -- io ------------------------------------------------------------------

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


def cyc(n: int) -> Cyclotomic:
    """Shorthand for a rational cyclotomic value."""
    return Cyclotomic.from_int(n)

