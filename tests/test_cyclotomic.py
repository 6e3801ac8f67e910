import cmath
import hashlib
import random
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from galchar.cyclotomic import (
    CONDUCTOR_BOUND,
    ConductorOverflow,
    Cyclotomic,
    _monomial_table,
    _power_basis,
    cyclotomic_polynomial,
    phi,
)

from reference import Cyc, cyc, zeta


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert phi(12) == 4


def test_phi_from_the_factorization_is_the_degree_of_phi_m():
    assert [phi(m) for m in range(1, 301)] == [
        len(cyclotomic_polynomial(m)) - 1 for m in range(1, 301)
    ]
    for m in (0, -4):
        with pytest.raises(ValueError):
            phi(m)


def test_root_multiplicities_examples():
    assert Cyc.from_root_multiplicities(3, [0, 1, 1]) == cyc(-1)
    i = Cyc.from_root_multiplicities(4, [0, 1, 0, 0])
    assert i == zeta(4)
    assert i * i == cyc(-1)
    v = Cyc.from_root_multiplicities(5, [0, 1, 0, 0, 1])
    # minimal-polynomial reduction: z + z^4 = -1 - z^2 - z^3
    assert v.conductor == 5
    assert v.coeffs == (-1, 0, -1, -1)
    assert v == zeta(5) + zeta(5, 4)


def test_root_multiplicities_length_check():
    with pytest.raises(ValueError):
        Cyc.from_root_multiplicities(3, [1, 2])


def test_arithmetic_examples():
    assert zeta(3) + zeta(3, 2) == cyc(-1)
    assert zeta(4) * zeta(4) == cyc(-1)
    v = zeta(5) + zeta(5, 4)
    assert v.conjugate() == v  # k = -1 permutes {1, 4}


def test_golden_ratio_approx():
    v = zeta(5) + zeta(5, 4)
    assert abs(v.to_complex() - (5**0.5 - 1) / 2) < 1e-9


def test_galois_apply_examples():
    assert zeta(3).galois_apply(2) == zeta(3, 2)
    for k in (1, 3, 7, 9):
        assert cyc(-1).galois_apply(k) == cyc(-1)
    v = zeta(5) + zeta(5, 4)
    assert v.galois_apply(2) == zeta(5, 2) + zeta(5, 3)
    with pytest.raises(ValueError):
        zeta(6).galois_apply(2)


def test_is_rational():
    assert cyc(-1).is_rational
    assert not zeta(3).is_rational
    assert (zeta(3) + zeta(3, 2)).is_rational
    assert zeta(8) * zeta(8) == zeta(4)  # equality rebases conductors
    with pytest.raises(ValueError):
        zeta(3).rational_value()


def test_mixed_conductor_equality():
    assert zeta(6, 2) == zeta(3)
    assert zeta(8, 2) == zeta(4)
    assert zeta(4) != zeta(8)
    assert cyc(5) == 5
    assert cyc(0).is_zero


def test_library_values_compare_across_conductors():
    # values as galchar builds them, compared with no ring operation: ==
    # folds the difference over z_lcm once
    z3 = Cyclotomic(3, (0, 1))
    assert Cyclotomic(6, (0, 0, 1)) == z3
    assert Cyclotomic(8, (0, 0, 1)) == Cyclotomic(4, (0, 1))
    assert Cyclotomic(8, (0, 1)) != Cyclotomic(4, (0, 1))
    assert Cyclotomic(5, (3,)) == 3 and Cyclotomic(5, (3,)).conductor == 1
    assert Cyclotomic(6, (1, 0, 1, 0, 1)) == 0 and z3 != 0


def test_conductor_overflow():
    with pytest.raises(ConductorOverflow):
        zeta(CONDUCTOR_BOUND + 1)


small_values = st.builds(
    lambda e, coeffs: Cyc(e, tuple(coeffs[: max(1, phi(e))])),
    st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12]),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=12, max_size=12),
)


@given(small_values, small_values, st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_galois_is_ring_automorphism(v, w, salt):
    e = v.conductor * w.conductor // gcd(v.conductor, w.conductor)
    units = [u for u in range(1, e + 1) if gcd(u, e) == 1]
    u = units[salt % len(units)]
    assert (v + w).galois_apply(u) == v.galois_apply(u) + w.galois_apply(u)
    assert (v * w).galois_apply(u) == v.galois_apply(u) * w.galois_apply(u)


@given(small_values)
@settings(max_examples=150, deadline=None)
def test_galois_composition(v):
    e = v.conductor
    units = [k for k in range(1, e + 1) if gcd(k, e) == 1]
    for k1 in units[:4]:
        for k2 in units[:4]:
            lhs = v.galois_apply(k1).galois_apply(k2)
            assert lhs == v.galois_apply((k1 * k2) % e if e > 1 else 1)


@given(small_values)
@settings(max_examples=150, deadline=None)
def test_conjugation_involution_and_norm(v):
    assert v.conjugate().conjugate() == v
    norm = v * v.conjugate()
    assert norm.to_complex().real > -1e-9
    assert abs(norm.to_complex().imag) < 1e-9


@given(small_values)
@settings(max_examples=150, deadline=None)
def test_render_parse_roundtrip(v):
    assert Cyc.parse(str(v)) == v


@given(small_values, small_values, small_values)
@settings(max_examples=100, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - b) + b == a
    assert a * (b * c) == (a * b) * c


def test_numeric_agreement():
    # the float view matches exact arithmetic on a small grid
    vals = [zeta(e, k) for e in (3, 4, 5, 8) for k in range(1, e)]
    for a in vals[:8]:
        for b in vals[:8]:
            exact = (a * b).to_complex()
            approx = a.to_complex() * b.to_complex()
            assert cmath.isclose(exact, approx, abs_tol=1e-9)


def at_root(v, u: int = 1) -> complex:
    """sum c_t * exp(2 pi i u t / e) over v's coefficients: v's complex value,
    or that of its Galois image z -> z^u, without the module's arithmetic."""
    e = v.conductor
    return sum(c * cmath.exp(2j * cmath.pi * u * t / e) for t, c in enumerate(v.coeffs))


wide_values = st.builds(
    lambda e, coeffs: Cyc(e, tuple(coeffs[: phi(e)])),
    st.sampled_from([7, 10, 15, 16, 20, 24, 30, 36]),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=12, max_size=12),
)


@given(wide_values, wide_values, st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_wide_conductors_match_complex_arithmetic(a, b, salt):
    units = [u for u in range(1, a.conductor + 1) if gcd(u, a.conductor) == 1]
    u = units[salt % len(units)]
    assert cmath.isclose((a + b).to_complex(), at_root(a) + at_root(b), abs_tol=1e-6)
    assert cmath.isclose((a * b).to_complex(), at_root(a) * at_root(b), abs_tol=1e-6)
    assert cmath.isclose(a.galois_apply(u).to_complex(), at_root(a, u), abs_tol=1e-6)


PINNED_DIGEST = "c54d4f02b83855e0c88e588b2d6ffb7bca183e0992a3baa413ac842f2b21deef"
PINNED_CONDUCTORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 21, 24, 30, 36)


def pinned_results(seed: int, pairs: int):
    """Seeded mixed-conductor results of every public operation: for each
    pair of random values, +, -, x, x int, 0 x, + int, negation, a root of
    unity, a cube, a Galois image, a root-multiplicity sum and equalities."""
    rng = random.Random(seed)

    def value():
        e = rng.choice(PINNED_CONDUCTORS)
        return Cyc(e, tuple(rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(rng.randint(1, e))))

    for _ in range(pairs):
        a, b, n = value(), value(), rng.randint(-5, 5)
        e = rng.choice(PINNED_CONDUCTORS)
        units = [u for u in range(1, a.conductor + 1) if gcd(u, a.conductor) == 1]
        yield from (a + b, a - b, a * b, a * n, 0 * a, a + n, -a, zeta(e, rng.randint(-40, 40)))
        yield from (a**3, a.galois_apply(rng.choice(units)))
        yield Cyc.from_root_multiplicities(e, [rng.randint(-2, 2) for _ in range(e)])
        yield from (a == b, a + b - b == a, a * b == b * a)


def representation_digest(results) -> str:
    """sha256 over each result's (conductor, coeffs, str), or its bool."""
    h = hashlib.sha256()
    for r in results:
        h.update(repr(r if isinstance(r, bool) else (r.conductor, r.coeffs, str(r))).encode())
    return h.hexdigest()


def test_representations_are_pinned_across_conductors():
    # Any change of conductor, coefficient vector or rendering of any
    # result, or of any equality, changes the digest.
    assert representation_digest(pinned_results(0, 1500)) == PINNED_DIGEST


@pytest.mark.parametrize("m", [1, 2, 4, 12, 105, 385, 1155, 2401, 4374])
def test_power_basis_is_the_dense_product_with_m_s_own_table(m):
    # _power_basis reads the rows of rad(m)'s table at stride m / rad(m); the
    # reference is m's dense table, built here and not cached
    dense = _monomial_table.__wrapped__(m)
    if m in (105, 385, 1155):  # entries past 1 in absolute value
        assert np.abs(dense).max() == {105: 2, 385: 3, 1155: 9}[m]
    rng = np.random.default_rng(m)
    x = rng.integers(-(2**20), 2**20, size=(7, m))
    big = x.copy()
    big[:, 0] = 2**53  # past the float64 bound of 2**52: an int64 product
    sparse = np.where(rng.random(m) < 0.1, x, 0)  # at m = rad(m), most table rows unread
    for rows in (x, big, sparse, 0 * x[:1]):
        got = _power_basis(rows, m)
        assert got.dtype == np.int64 and np.array_equal(got, rows @ dense)
    # coefficients past 2^63 go through the object path of the constructor
    coeffs = [0] * m
    for t in rng.choice(m, size=min(m, 20), replace=False).tolist():
        coeffs[t] = int(rng.integers(1, 2**20)) * 2**64 + t
    want = sum(c * dense[t].astype(object) for t, c in enumerate(coeffs) if c).tolist()
    value = Cyclotomic(m, tuple(coeffs))
    if m > 1 and not any(want[1:]):
        want = want[:1]
    assert value.coeffs == tuple(want) and max(map(abs, want)) >= 2**63
