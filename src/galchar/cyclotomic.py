"""Values in rings of cyclotomic integers, as a character table holds them.

A value is stored as an integer coefficient vector of length phi(e) over the
power basis 1, z, ..., z^(phi(e)-1) of Z[z], z a primitive e-th root of
unity, reduced modulo the e-th cyclotomic polynomial.  Within one conductor
the representation is a unique normal form; values whose coefficients beyond
index 0 vanish are rational and are normalised to conductor 1.  Coefficients
are plain Python integers, so there is no overflow to guard against.

A character table keeps its values in that form already, as int64 rows per
conductor (a rational one as (n,) at conductor 1), and makes a Cyclotomic
from a row through the _raw constructor when a value is read or rendered:
values are compared and rendered here, not combined.  _power_basis maps
sums of terms c * z_m**t to power-basis rows with the table of r = rad(m)
alone, one kept per squarefree r: Phi_m(x) = Phi_r(x^s) for s = m / r
(Washington, Introduction to Cyclotomic Fields, GTM 83), so z^(i + j s),
i < s, is row j of r's table at the columns i + c s.  _normal_form folds its
terms mod e and maps them once, for the checked constructor and == between
conductors, which holds when the terms of the difference over z_lcm fold to
zero.  Conductors past CONDUCTOR_BOUND raise ConductorOverflow, in
_normal_form and, through _check_conductor, before a table is split.
"""
from __future__ import annotations

from functools import lru_cache
from math import lcm, prod

import numpy as np

from .numth import factorize

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
    # (x^e - 1) / prod_{d | e, d < e} Phi_d, by exact polynomial division.
    num = [-1] + [0] * (e - 1) + [1]
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


def phi(e: int) -> int:
    return prod(p ** (a - 1) * (p - 1) for p, a in factorize(e).items())


@lru_cache(maxsize=None)
def _monomial_table(e: int) -> np.ndarray:
    """The read-only (e, phi(e)) int64 array whose row t is z^t at conductor
    e in the power basis: z times row t - 1, reduced by Phi_e."""
    d = phi(e)
    poly = np.array(cyclotomic_polynomial(e)[:d], dtype=np.int64)
    out = np.zeros((e, d), dtype=np.int64)
    out[0, 0] = 1
    for t in range(1, e):
        out[t, 1:] = out[t - 1, :-1]
        out[t] -= out[t - 1, -1] * poly
    out.flags.writeable = False
    return out


def _power_basis(x: np.ndarray, m: int) -> np.ndarray:
    """Rows sum_t x[:, t] z_m^t of an (n, m) array x in the power basis at m,
    int64 (Python ints for an object x): one product with the rows of rad(m)'s
    table that x reads, in float64 (BLAS) while each partial sum is < 2**52."""
    r, n = prod(factorize(m)), len(x)
    y = x.reshape(n, r, m // r).transpose(1, 0, 2)  # y[j, :, i] weighs z^(j m/r + i)
    used = y.any(axis=(1, 2))
    table = _monomial_table(r)[used]
    fast = x.dtype != object and abs(x).sum(1, float).max(initial=0) * abs(table).max(initial=0) < 2**52
    y = y[used].astype(np.float64 if fast else x.dtype, copy=False).reshape(len(table), x.size // r)
    out = (table.T @ y).reshape(table.shape[1], n, m // r).transpose(1, 0, 2)
    return out.astype(np.result_type(x.dtype, table.dtype), order="C").reshape(n, -1)


def _normal_form(e: int, terms) -> "Cyclotomic":
    """The value sum c * z_e**t over the (t, c) terms, in normal form."""
    if e < 1:
        raise ValueError("conductor must be positive")
    _check_conductor(e)
    folded = np.zeros((1, e), dtype=object)  # Python ints, which do not overflow
    for t, c in terms:
        folded[0, t % e] += c
    out = _power_basis(folded, e)[0].tolist()
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

