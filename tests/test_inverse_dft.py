"""The lift's inverse DFT mod l in four steps against the dense sum in
Python ints: at m prime (m1 = 1, one dense product), at prime powers and
products of small primes, and where one factor's product runs in float64
and the other's in int64."""
from math import isqrt

import numpy as np
import pytest

from galchar import fpmat
from galchar.chartab import _find_root_of_unity, _inverse_dft
from galchar.numth import is_prime

from reference import inverse_dft


def _prime(e: int, above: int) -> int:
    """The least prime l = 1 (mod e) above the given bound."""
    t = above // e + 1
    while not is_prime(1 + t * e):
        t += 1
    return 1 + t * e


def _rows(m: int, ell: int) -> np.ndarray:
    """Two random rows in [0, l) and a row of l - 1, the largest sums."""
    rng = np.random.default_rng(m)
    return np.vstack([rng.integers(0, ell, (2, m)), np.full((1, m), ell - 1)])


@pytest.mark.parametrize("m", [1, 7, 97, 243, 486, 4374])
def test_the_transform_is_the_dense_sum(m):
    # the root is of order e = 2m, as the lift's w_e is of the exponent
    e = 2 * m
    ell = _prime(e, 2**20)
    w_e = _find_root_of_unity(ell, e)
    rows = _rows(m, ell)
    ts = [*range(0, m, 17), m - 1] if m > 1000 else None  # every 17th t at 54 x 81
    got = _inverse_dft(m, e, ell, w_e)(rows)
    assert got.dtype == np.int64 and got.shape == rows.shape
    want = inverse_dft(rows, m, ell, pow(w_e, 2, ell), ts)
    assert got[:, ts or slice(None)].tolist() == want


def test_factors_in_float64_and_int64_compose_exactly():
    # m = 54 = 6 x 9: with (l - 1)^2 between 2^53 / 9 and 2^53 / 6 the
    # length-9 product runs in int64 and the length-6 one in float64
    m = 54
    ell = _prime(m, isqrt(2**53 // 9) + 1)
    assert 2**53 / 9 < (ell - 1) ** 2 < 2**53 / 6
    assert fpmat.exact_dtype(9, ell) is np.int64 and fpmat.exact_dtype(6, ell) is np.float64
    w_m = _find_root_of_unity(ell, m)
    rows = _rows(m, ell)
    assert _inverse_dft(m, m, ell, w_m)(rows).tolist() == inverse_dft(rows, m, ell, w_m)
