"""fpmat against pure-Python reference loops."""
import pytest

from galchar.fpmat import companion, mat_pow
from galchar.numth import factorize, primitive_polynomial


def _ref_mat_mul(a, b, p):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)]
        for i in range(n)
    ]


def _ref_mat_pow(m, e, p):
    n = len(m)
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(e):
        result = _ref_mat_mul(result, m, p)
    return result


def _ref_primitive_polynomial(p, n):
    """First monic degree-n polynomial, constant term major, whose companion
    matrix has order exactly p**n - 1, by list-of-lists arithmetic."""
    target = p**n - 1
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    tuples = [[]]
    for _ in range(n):
        tuples = [t + [c] for t in tuples for c in range(p)]
    for coeffs in tuples:
        if coeffs[0] == 0:
            continue
        m = [[0] * n for _ in range(n)]
        for i in range(1, n):
            m[i][i - 1] = 1
        for i in range(n):
            m[i][n - 1] = (-coeffs[i]) % p
        if _ref_mat_pow(m, target, p) == ident and all(
            _ref_mat_pow(m, target // q, p) != ident for q in factorize(target)
        ):
            return coeffs + [1]
    raise AssertionError


POINTS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1), (3, 2), (3, 3),
          (5, 1), (5, 2), (7, 1), (7, 2), (11, 1)]


@pytest.mark.parametrize("p,n", POINTS)
def test_primitive_polynomial_matches_reference(p, n):
    assert primitive_polynomial(p, n) == _ref_primitive_polynomial(p, n)


def test_companion_and_power():
    m = companion([1, 2, 0, 1], 3)  # x^3 + 2x + 1 over F_3
    assert m.tolist() == [[0, 0, 2], [1, 0, 1], [0, 1, 0]]
    for e in (0, 1, 5, 13):
        assert mat_pow(m, e, 3).tolist() == _ref_mat_pow(m.tolist(), e, 3)
