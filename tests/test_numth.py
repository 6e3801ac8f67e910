import numpy as np
import pytest
from hypothesis import given, strategies as st

from galchar.numth import (
    divisors,
    factorize,
    find_dixon_prime,
    is_mersenne_prime,
    is_prime,
    is_prime_power,
    primitive_polynomial,
    primitive_root,
    zsigmondy_prime,
)

from reference import multiplicative_order, zsigmondy_exception_expected


def trial_division_prime(m):
    if m < 2:
        return False
    return all(m % d for d in range(2, int(m**0.5) + 1))


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(1)
    assert is_prime(13)


@given(st.integers(min_value=1, max_value=50_000))
def test_is_prime_matches_trial_division(m):
    assert is_prime(m) == trial_division_prime(m)


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}
    with pytest.raises(ValueError):
        factorize(0)


def test_is_prime_power():
    assert is_prime_power(8) == (2, 3)
    assert is_prime_power(7) == (7, 1)
    assert is_prime_power(12) is None
    assert is_prime_power(1) is None


def test_mersenne():
    assert is_mersenne_prime(3)
    assert is_mersenne_prime(7)
    assert not is_mersenne_prime(5)
    assert is_mersenne_prime(31)
    assert not is_mersenne_prime(2047)  # 23 * 89


def test_multiplicative_order():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 7) == 6
    assert multiplicative_order(1, 5) == 1
    with pytest.raises(ValueError):
        multiplicative_order(2, 4)


def test_primitive_root():
    for p in (3, 5, 7, 11, 13):
        r = primitive_root(p)
        assert multiplicative_order(r, p) == p - 1
    assert primitive_root(3) == 2
    assert primitive_root(7) == 3


class TestZsigmondy:
    def test_spec_examples(self):
        assert zsigmondy_prime(2, 1) is None
        assert zsigmondy_prime(2, 6) is None
        assert zsigmondy_prime(2, 4) == 5
        assert zsigmondy_prime(3, 2) is None

    def test_brute_force_small(self):
        # oracle: scan all primes q <= p^n - 1 directly
        for p in (2, 3, 5, 7, 11):
            for n in range(1, 8):
                if p**n > 10**6:
                    break
                expected = None
                for q in range(2, p**n):
                    if not trial_division_prime(q):
                        continue
                    if (p**n - 1) % q:
                        continue
                    if all((p**k - 1) % q for k in range(1, n)):
                        expected = q
                        break
                assert zsigmondy_prime(p, n) == expected, (p, n)

    def test_returned_prime_has_order_n(self):
        for p, n in ((2, 4), (2, 5), (3, 3), (5, 4), (7, 3), (11, 3)):
            q = zsigmondy_prime(p, n)
            assert q is not None
            assert multiplicative_order(p, q) == n

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            zsigmondy_prime(6, 2)


def companion(coeffs, p):
    n = len(coeffs) - 1
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(1, n):
        m[i, i - 1] = 1
    for i in range(n):
        m[i, n - 1] = (-coeffs[i]) % p
    return m


def explicit_matrix_order(m, p):
    ident = np.eye(len(m), dtype=np.int64)
    cur = m.copy()
    for k in range(1, 10**6):
        if np.array_equal(cur % p, ident):
            return k
        cur = cur @ m % p
    raise AssertionError


class TestPrimitivePolynomial:
    def test_unique_quadratic_over_f2(self):
        assert primitive_polynomial(2, 2) == [1, 1, 1]  # x^2 + x + 1

    def test_linear_over_f3(self):
        # x - 2 = x + 1 over F_3; companion matrix [2] has order 2
        coeffs = primitive_polynomial(3, 1)
        assert coeffs == [1, 1]
        assert explicit_matrix_order(companion(coeffs, 3), 3) == 2

    def test_first_lexicographic_quadratic_over_f3(self):
        coeffs = primitive_polynomial(3, 2)
        # oracle: exhaustive scan in the same (c0 major, c1 minor) order
        scan = [
            [c0, c1, 1]
            for c0 in range(1, 3)
            for c1 in range(3)
            if explicit_matrix_order(companion([c0, c1, 1], 3), 3) == 8
        ]
        assert coeffs == scan[0]

    def test_companion_order_exact(self):
        for p, n in ((2, 3), (2, 4), (3, 2), (5, 2), (7, 2)):
            coeffs = primitive_polynomial(p, n)
            assert explicit_matrix_order(companion(coeffs, p), p) == p**n - 1


class TestDixonPrime:
    def test_spec_examples(self):
        assert find_dixon_prime(6, 24) == 13
        assert find_dixon_prime(1, 1) == 3
        assert find_dixon_prime(12, 72) == 37

    def test_direct_scan_oracle(self):
        for e, order in ((2, 8), (4, 16), (21, 21), (24, 216), (30, 992)):
            ell = find_dixon_prime(e, order)
            assert is_prime(ell) and ell % e == 1 and ell * ell > 4 * order
            for cand in range(2, ell):
                assert not (
                    is_prime(cand) and cand % e == 1 and cand * cand > 4 * order
                )


@given(st.integers(min_value=2, max_value=2000))
def test_divisors_property(m):
    divs = divisors(m)
    assert all(m % d == 0 for d in divs)
    assert divs == sorted(set(divs))
    assert 1 in divs and m in divs


def test_exception_list_shape():
    assert zsigmondy_exception_expected(2, 1)
    assert zsigmondy_exception_expected(2, 6)
    assert zsigmondy_exception_expected(7, 2)
    assert not zsigmondy_exception_expected(2, 4)
