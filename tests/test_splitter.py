"""The Krylov annihilator's linear algebra and the checks that guard the lift."""
import numpy as np
import pytest

from galchar import chartab, fpmat
from galchar.chartab import TableVerificationError, _verify, character_table
from galchar.constructors import CaseParams, construct_case, cyclic, symmetric
from galchar.numth import find_dixon_prime

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


def _isotropic_part(v, a, ell, f, norm):
    """Whether some eigenspace part of v has norm 0: f is the minimal
    polynomial of v, and its part for the root lam is v (f/(x - lam))(a)."""
    values = np.zeros(ell, dtype=np.int64)
    for c in f[::-1]:
        values = (values * np.arange(ell) + c) % ell
    roots = np.flatnonzero(values == 0).tolist()
    assert len(roots) == len(f) - 1
    krylov = [v % ell]
    for _ in range(len(f) - 2):
        krylov.append(krylov[-1] @ a % ell)
    for lam in roots:
        quotient, carry = [], 0
        for c in f[:0:-1]:  # synthetic division, highest coefficient first
            carry = (carry * lam + int(c)) % ell
            quotient.append(carry)
        if not norm(np.array(quotient[::-1]) @ np.array(krylov) % ell):
            return True
    return False


def _accepted(v, a, ell, form, norm) -> bool:
    """Run _krylov on one full chain: it must find the reference with its
    chain, or refuse exactly when a part of v is isotropic."""
    dtype = fpmat.exact_dtype(len(v), ell)
    chain, polys, killed = chartab._krylov(v[None], a.astype(dtype), len(v), ell, form)
    ref = reference_annihilator(v, a, ell)
    assert (not killed[0]) == _isotropic_part(v, a, ell, ref, norm)
    if not killed[0]:
        return False
    f = polys[0, : chartab._degrees(polys)[0] + 1]
    assert np.array_equal(f, ref)
    assert np.array_equal(chain[0, 0], v % ell)
    for s in range(1, len(f)):
        assert np.array_equal(chain[s, 0], chain[s - 1, 0] @ a % ell)
    return True


def _invertible(rng, m):
    while True:
        p = rng.integers(0, ELL, size=(m, m))
        try:
            return p, fpmat.mat_inv(p, ELL)
        except ZeroDivisionError:
            continue


@pytest.mark.parametrize("m", [1, 2, 5, 31, 32, 33, 70])
def test_annihilator_matches_reference(m):
    # a block with basis rows P carries the form <x, y> = (x P) . (y P), and
    # a = P diag(eig) P^-1 is self-adjoint for it: a P P^T = P diag(eig) P^T
    rng = np.random.default_rng(m)
    p, p_inv = _invertible(rng, m)

    def form(rows):
        full = fpmat.mul(rows, p, ELL)
        return full, full

    def norm(x):
        return int((x @ p % ELL) @ (x @ p % ELL)) % ELL

    accepted = 0
    for eig in (rng.integers(0, ELL, size=m), rng.choice([3, 5, 7], size=m)):
        a = p * eig[None, :] % ELL @ p_inv % ELL
        for v in (rng.integers(0, ELL, size=m), np.eye(m, dtype=np.int64)[0]):
            accepted += _accepted(v, a, ELL, form, norm)
    assert accepted


@pytest.mark.parametrize(
    "build, seeds",
    [
        (lambda: symmetric(4), 60),
        (lambda: construct_case(CaseParams("a7", 2, 2, 1, 2)), 40),
        (lambda: construct_case(CaseParams("a7", 2, 2, 1, 3)), 20),
    ],
    ids=["S4", "a7(h=2)", "a7(h=3)"],
)
def test_class_matrix_annihilator_is_the_reference_or_refused(build, seeds):
    group = build()
    inv = group.power_maps[:, -1]
    ell = find_dixon_prime(group.exponent, group.order)
    size_inv = np.array([pow(c.size, -1, ell) for c in group.conjugacy_classes()])
    products, k = chartab._Products(group), len(size_inv)
    rows, support = np.arange(k), np.ones(k, dtype=bool)

    def form(rows):  # the class-function form
        return rows, rows[:, inv] * size_inv % ell

    def norm(x):
        return int(x @ (x[inv] * size_inv % ell)) % ell

    accepted = 0
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        coeffs = rng.integers(0, ell, size=k, dtype=np.int64)
        a = products.combination(rows, coeffs, support).astype(np.int64) % ell
        v = rng.integers(0, ell, size=k, dtype=np.int64)
        accepted += _accepted(v, a, ell, form, norm)
    assert accepted >= seeds // 2


def test_isotropic_probe_is_refused():
    # a = diag(1, 1, 2) under the form sum_c x[c] y[c]: the first probe's part
    # (1, 10, 0) of the 1-eigenspace has norm 101 = 0 mod 101, so its
    # sequence misses the eigenvalue 1 and f = x - 2 does not kill it
    probes = np.array([[1, 10, 1], [1, 0, 1], [0, 1, 0]])
    a = np.diag([1.0, 1.0, 2.0])
    _, polys, killed = chartab._krylov(probes, a, 3, ELL, lambda rows: (rows, rows))
    assert killed.tolist() == [False, True, True]
    assert chartab._degrees(polys).tolist() == [1, 2, 1]
    assert polys[0, :2].tolist() == [ELL - 2, 1]


def test_corrupted_lifted_value_fails_verification():
    table = character_table(symmetric(4))
    _verify(table)
    chi = table.chars[-1]
    table.value_pool.append(chi(2) + 1)
    table.value_ids[chi.index, 2] = len(table.value_pool) - 1
    with pytest.raises(TableVerificationError, match="lift is inconsistent"):
        _verify(table)


def test_galois_check_runs_in_verification():
    # C5: send class 1 under k = 2 to a class other than that of its square
    table = character_table(cyclic(5))
    _verify(table)
    powers = table.group.power_maps.copy()
    table.group._power_maps = powers  # the group's own array is read-only
    j = int(powers[1, 2])
    powers[1, 2] = next(c for c in range(2, 5) if c not in (1, j))
    with pytest.raises(TableVerificationError):
        _verify(table)
