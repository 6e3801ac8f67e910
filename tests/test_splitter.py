"""The Dixon splitter's linear algebra and the checks that guard the lift."""
import numpy as np
import pytest

from galchar import chartab, fpmat
from galchar.chartab import (
    TableVerificationError,
    _annihilator_of,
    _find_root_of_unity,
    _Splitter,
    _verify,
    character_table,
)
from galchar.constructors import cyclic, symmetric

ELL = 101


def reference_annihilator(v, a, ell):
    """Least monic f with v . f(a) = 0, one Krylov row and one basis row at a time."""
    basis_rows, pivots, coords = [], [], []
    cur = v % ell
    while True:
        red = cur.copy()
        coord = np.zeros(len(basis_rows) + 1, dtype=np.int64)
        coord[-1] = 1
        for row, pv, co in zip(basis_rows, pivots, coords):
            c = int(red[pv])
            if c:
                red = (red - c * row) % ell
                coord[: len(co)] = (coord[: len(co)] - c * co) % ell
        if not red.any():
            return coord % ell
        pv = int(np.nonzero(red)[0][0])
        inv = pow(int(red[pv]), ell - 2, ell)
        basis_rows.append(red * inv % ell)
        coords.append(coord * inv % ell)
        pivots.append(pv)
        cur = cur @ a % ell


def _derogatory(rng, m):
    """p diag(eig) p^-1 with few, repeated eigenvalues."""
    eig = rng.choice([3, 5, 7], size=m)
    while True:
        p = rng.integers(0, ELL, size=(m, m))
        try:
            p_inv = fpmat.mat_inv(p, ELL)
        except ZeroDivisionError:
            continue
        return p * eig[None, :] % ELL @ p_inv % ELL


@pytest.mark.parametrize("m", [1, 2, 5, 31, 32, 33, 70])
def test_annihilator_matches_reference(m):
    rng = np.random.default_rng(m)
    for a in (rng.integers(0, ELL, size=(m, m)), _derogatory(rng, m)):
        for v in (rng.integers(0, ELL, size=m), np.eye(m, dtype=np.int64)[0]):
            f, kry = _annihilator_of(v, a, ELL)
            assert np.array_equal(f, reference_annihilator(v, a, ELL))
            assert np.array_equal(kry[0], v % ELL)
            for s in range(1, len(kry)):
                assert np.array_equal(kry[s], kry[s - 1] @ a % ELL)


class _QueuedRng:
    """Hands out the given probe vectors in order."""

    def __init__(self, vectors):
        self.vectors = [np.array(v, dtype=np.int64) for v in vectors]

    def integers(self, low, high, size, dtype):
        return self.vectors.pop(0)


def _split(a, probes, monkeypatch):
    calls = []

    def counted(v, a, ell):
        calls.append(v)
        return _annihilator_of(v, a, ell)

    monkeypatch.setattr(chartab, "_annihilator_of", counted)
    splitter = _Splitter(iter(()), len(a), ELL, _QueuedRng(probes))
    pieces = splitter._split_once(np.eye(len(a), dtype=np.int64), np.array(a) % ELL)
    return [p.tolist() for p in pieces], len(calls)


def test_reused_annihilator_with_a_proper_divisor(monkeypatch):
    # a = diag(1, 1, 2): the first probe sees both eigenvalues; the second
    # is annihilated by x - 1 alone, a proper divisor of the reused f
    pieces, fresh = _split(np.diag([1, 1, 2]), [[1, 0, 1], [0, 1, 0]], monkeypatch)
    assert fresh == 1
    assert pieces == [[[1, 0, 0], [0, 1, 0]], [[0, 0, 1]]]


def test_reuse_falls_back_when_the_check_fails(monkeypatch):
    # the first probe's annihilator x - 1 does not kill the second probe
    pieces, fresh = _split(np.diag([1, 2, 3]), [[1, 0, 0], [0, 1, 1]], monkeypatch)
    assert fresh == 2
    assert pieces == [[[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]]]


def test_corrupted_lifted_value_fails_verification():
    table = character_table(symmetric(4))
    w_e = _find_root_of_unity(table.dixon_prime, table.exponent)
    _verify(table, w_e)
    chi = table.chars[-1]
    values = list(chi.values)
    values[2] = values[2] + 1
    chi.values = tuple(values)
    with pytest.raises(TableVerificationError, match="lift is inconsistent"):
        _verify(table, w_e)


def test_galois_check_runs_in_verification():
    # C5: send class 1 under k = 2 to a class other than that of its square
    table = character_table(cyclic(5))
    w_e = _find_root_of_unity(table.dixon_prime, table.exponent)
    _verify(table, w_e)
    powers = table._powers()
    j = int(powers[1, 2])
    powers[1, 2] = next(c for c in range(2, 5) if c not in (1, j))
    with pytest.raises(TableVerificationError):
        _verify(table, w_e)
