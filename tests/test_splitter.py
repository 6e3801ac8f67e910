"""The Dixon splitter's linear algebra and the checks that guard the lift."""
import numpy as np
import pytest

from galchar import chartab, fpmat
from galchar.chartab import TableVerificationError, _Splitter, _verify, character_table
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


def _class_splitters(group):
    """seed -> a splitter over the class functions of group, with the
    combinations and probes character_table would draw at that seed."""
    classes = group.conjugacy_classes()
    ell = find_dixon_prime(group.exponent, group.order)
    products = chartab._product_index(group)
    size_inv = [pow(c.size, -1, ell) for c in classes]

    def at(seed):
        rng = np.random.default_rng(seed)
        combos = chartab._combo_source(products, group.class_index_array(), ell, rng)
        return _Splitter(combos, len(classes), ell, rng, size_inv, group.power_maps[:, -1])

    return at


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


def _accepted(splitter, v, a, red, norm) -> bool:
    """Run the annihilator on a full chain: it must return the reference
    with its chain, or refuse exactly when a part of v is isotropic."""
    ell = splitter.ell
    found = splitter._annihilator(v, a.astype(splitter.dtype), red, len(v))
    ref = reference_annihilator(v, a, ell)
    assert (found is None) == _isotropic_part(v, a, ell, ref, norm)
    if found is None:
        return False
    f, chain = found
    assert np.array_equal(f, ref)
    assert np.array_equal(chain[0], v % ell)
    for s in range(1, len(chain)):
        assert np.array_equal(chain[s], chain[s - 1] @ a % ell)
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
    splitter = _Splitter(iter(()), m, ELL, rng, [1] * m, np.arange(m))

    def norm(x):
        return int((x @ p % ELL) @ (x @ p % ELL)) % ELL

    accepted = 0
    for eig in (rng.integers(0, ELL, size=m), rng.choice([3, 5, 7], size=m)):
        a = p * eig[None, :] % ELL @ p_inv % ELL
        for v in (rng.integers(0, ELL, size=m), np.eye(m, dtype=np.int64)[0]):
            accepted += _accepted(splitter, v, a, p, norm)
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
    splitters = _class_splitters(group)
    accepted = 0
    for seed in range(seeds):
        splitter = splitters(seed)
        ell = splitter.ell
        size_inv = np.array([pow(c.size, -1, ell) for c in group.conjugacy_classes()])

        def norm(x):
            return int(x @ (x[inv] * size_inv % ell)) % ell

        a = next(splitter.combo_source).T % ell
        v = splitter.rng.integers(0, ell, size=splitter.k, dtype=np.int64)
        accepted += _accepted(splitter, v, a, None, norm)
    assert accepted >= seeds // 2


class _QueuedRng:
    """Hands out the given probe vectors in order."""

    def __init__(self, vectors):
        self.vectors = [np.array(v, dtype=np.int64) for v in vectors]

    def integers(self, low, high, size, dtype):
        return self.vectors.pop(0)


def _recorded(monkeypatch):
    """Record (block size, annihilator or None) for every _annihilator call."""
    calls = []
    original = _Splitter._annihilator

    def recording(self, v, a, red, bound):
        found = original(self, v, a, red, bound)
        calls.append((len(v), None if found is None else found[0]))
        return found

    monkeypatch.setattr(_Splitter, "_annihilator", recording)
    return calls


def test_isotropic_probe_is_refused(monkeypatch):
    # a = diag(1, 1, 2) under the form sum_c x[c] y[c]: the first probe's part
    # (1, 10, 0) of the 1-eigenspace has norm 101 = 0 mod 101, so its
    # sequence misses the eigenvalue 1 and f = x - 2 does not kill it
    calls = _recorded(monkeypatch)
    probes = _QueuedRng([[1, 10, 1], [1, 0, 1], [0, 1, 0]])
    splitter = _Splitter(iter(()), 3, ELL, probes, [1] * 3, [0, 1, 2])
    pieces = splitter._split_once(np.eye(3, dtype=np.int64), np.diag([1, 1, 2]).astype(np.float64))
    assert [p.tolist() for p in pieces] == [[[1, 0, 0], [0, 1, 0]], [[0, 0, 1]]]
    assert calls[0] == (3, None)
    assert [len(f) - 1 for _, f in calls[1:]] == [2, 1]


def test_projected_probes_stay_off_the_eigenlines_found(monkeypatch):
    # each later probe of the first block is projected off every deflation
    # vector found before it, so its annihilator's degree is at most k less
    # their number; an unprojected later probe has degree about 180 of 189
    group = construct_case(CaseParams("a7", 2, 2, 1, 4))
    splitters = _class_splitters(group)
    calls = _recorded(monkeypatch)
    for seed in (0, 1):
        splitter = splitters(seed)
        mt = (next(splitter.combo_source).T % splitter.ell).astype(splitter.dtype)
        del calls[:]
        splitter._split_once(np.eye(splitter.k, dtype=np.int64), mt)
        degrees = [len(f) - 1 for _, f in calls if f is not None]
        assert degrees[0] < splitter.k and len(degrees) > 1  # eigenvalues repeat
        for i in range(1, len(degrees)):
            assert degrees[i] <= splitter.k - sum(degrees[:i]), (seed, degrees)


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
    powers = table._powers()
    j = int(powers[1, 2])
    powers[1, 2] = next(c for c in range(2, 5) if c not in (1, j))
    with pytest.raises(TableVerificationError):
        _verify(table)
