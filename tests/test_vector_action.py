"""The action checks on <mats> acting on F_p^n, held as permutation groups on
the p^n numbered vectors, against the matrix-list code they replaced.

The reference routines below are that code: a matrix group closed as a list
of matrices, one orbit and one rank per vector for irreducibility, a vector
orbit by breadth-first search for scalar transitivity, and the eigenvalue-1
dimension of each element for the Frobenius test.
"""
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from galchar import fpmat
from galchar.chartab import character_table
from galchar.classify import analyze_structure
from galchar.constructors import CaseParams, construct_case, quaternion_subgroup_SL2, singer_matrix
from galchar.numth import matrix_order_is, primitive_root
from galchar.perm import (
    ORDER_BOUND,
    OrderBoundExceeded,
    PermGroup,
    Permutation,
    check_frobenius_action,
    check_irreducible_action,
    check_scalar_transitivity,
    vector_group,
)

from reference import check_frobenius_criterion

PN = ((2, 2), (2, 3), (3, 2), (5, 2), (2, 4), (3, 3), (7, 2), (2, 6), (3, 4), (5, 3))
ACTIONS_PER_PN = 21


# -- reference implementations ---------------------------------------------------


def close_matrix_group(gens, p, bound=200_000):
    """All elements of the group generated by gens; identity first."""
    n = len(gens[0])
    ident = np.eye(n, dtype=np.int64)
    elements = [ident]
    seen = {ident.tobytes()}
    frontier = [ident]
    gens = [g % p for g in gens]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x @ g % p
            key = y.tobytes()
            if key not in seen:
                if len(elements) >= bound:
                    raise RuntimeError(f"matrix group exceeds bound {bound}")
                seen.add(key)
                elements.append(y)
                frontier.append(y)
    return elements


def vector_orbit(gens, start, p):
    """Orbit of a vector under a list of matrices."""
    start = tuple(int(x) % p for x in start)
    orbit = {start}
    frontier = [start]
    while frontier:
        v = np.array(frontier.pop(), dtype=np.int64)
        for g in gens:
            w = tuple(int(x) for x in (g @ v % p))
            if w not in orbit:
                orbit.add(w)
                frontier.append(w)
    return orbit


def fixed_space_dim(m, p):
    """Dimension of the eigenspace for eigenvalue 1."""
    n = len(m)
    return n - fpmat.mat_rank((m - np.eye(n, dtype=np.int64)) % p, p)


def lexicographic(p, n):
    return [np.array(v, dtype=np.int64) for v in itertools.product(range(p), repeat=n)]


def ref_frobenius(mats, p, n):
    for m in mats:
        if fpmat.mat_rank(m, p) < n:
            raise ValueError("matrices must be invertible")
    elements = close_matrix_group(list(mats), p) if mats else []
    nontrivial = [m for m in elements if not np.array_equal(m, elements[0])]
    if not nontrivial:
        return False
    return all(fixed_space_dim(m, p) == 0 for m in nontrivial)


def ref_irreducible(mats, p, n):
    elements = close_matrix_group(list(mats), p) if mats else [np.eye(n, dtype=np.int64)]
    for v in lexicographic(p, n):
        if not v.any():
            continue
        orbit = [m @ v % p for m in elements]
        if fpmat.mat_rank(np.array(orbit).reshape(len(orbit), n), p) < n:
            return False
    return True


def ref_scalar_transitivity(mats, p, n):
    gens = list(mats) + [primitive_root(p) * np.eye(n, dtype=np.int64) % p]
    seed_vec = np.zeros(n, dtype=np.int64)
    seed_vec[0] = 1
    return len(vector_orbit(gens, seed_vec, p)) == p**n - 1


def ref_matrix_perm_group(mats, p, n):
    vecs = lexicographic(p, n)
    index = {tuple(int(x) for x in v): i for i, v in enumerate(vecs)}
    gens = []
    for m in mats:
        gens.append(Permutation([index[tuple(int(x) for x in (m @ v % p))] for v in vecs]))
    return PermGroup(len(vecs), gens)


def ref_criterion(mats, p, n):
    elements = close_matrix_group(list(mats), p)
    if len(elements) == 1:
        raise ValueError("acting group must be nontrivial")
    if not ref_irreducible(mats, p, n):
        raise ValueError("action must be irreducible")
    if not ref_matrix_perm_group(mats, p, n).is_nilpotent():
        raise ValueError("acting group must be nilpotent")
    order = len(elements)
    stack = np.array(elements)
    for v in lexicographic(p, n):
        if not v.any():
            continue
        stab = int((stack @ v % p == v).all(axis=1).sum())
        if stab != 1 and (stab * stab) % order != 0:
            return False
    if not ref_frobenius(mats, p, n):
        raise AssertionError("stabilizer hypothesis held but the action is not Frobenius")
    return True


# -- seeded random invertible actions ---------------------------------------------


def _random_invertible(rng, p, n):
    while True:
        m = rng.integers(0, p, size=(n, n))
        if fpmat.mat_rank(m, p) == n:
            return m


def _random_monomial(rng, p, n):
    m = np.zeros((n, n), dtype=np.int64)
    m[np.arange(n), rng.permutation(n)] = rng.integers(1, p, size=n)
    return m


def _frobenius_map(p, n):
    """x -> x^p on F_p[x]/(f) in the basis 1, x, ..., x^(n-1) of the Singer
    cycle's companion matrix S: column i is S^(ip) e_0."""
    s = singer_matrix(p, n)
    return np.array([fpmat.mat_pow(s, i * p, p)[:, 0] for i in range(n)]).T


def random_action(p, n, seed):
    """A list of invertible n x n matrices over F_p generating a small group,
    conjugated by a random invertible matrix: cyclic, monomial, Singer
    normalizer, unitriangular, block-diagonal, quaternion or scalar."""
    rng = np.random.default_rng(seed)
    kinds = ["cyclic", "monomial", "singer", "block", "scalar"]
    if p ** (n * (n - 1) // 2) <= 1000:
        kinds.append("unitriangular")
    if n == 2 and p > 2:
        kinds.append("quaternion")
    kind = kinds[seed % len(kinds)]
    if kind == "cyclic":
        m = _random_invertible(rng, p, n)
        mats = [m, fpmat.mat_pow(m, int(rng.integers(2, 5)), p)][: int(rng.integers(1, 3))]
    elif kind == "monomial":
        mats = [_random_monomial(rng, p, n) for _ in range(int(rng.integers(1, 3)))]
    elif kind == "singer":
        s = singer_matrix(p, n)
        mats = [fpmat.mat_pow(s, int(rng.integers(1, p**n)), p)]
        if rng.integers(2):
            mats.append(_frobenius_map(p, n))
    elif kind == "block":
        k = int(rng.integers(1, n))
        m = np.zeros((n, n), dtype=np.int64)
        m[:k, :k] = _random_invertible(rng, p, k)
        m[k:, k:] = _random_invertible(rng, p, n - k)
        mats = [m]
    elif kind == "scalar":
        mats = [int(rng.integers(1, p)) * np.eye(n, dtype=np.int64)]
    elif kind == "unitriangular":
        mats = []
        for _ in range(2):
            m = np.triu(rng.integers(0, p, size=(n, n)), 1)
            mats.append(m + np.eye(n, dtype=np.int64))
    else:
        mats = list(quaternion_subgroup_SL2(p, 8))
        if rng.integers(2):
            mats.append(int(rng.integers(1, p)) * np.eye(n, dtype=np.int64))
    g = _random_invertible(rng, p, n)
    g_inv = fpmat.mat_inv(g, p)
    return [g @ m % p @ g_inv % p for m in mats]


def _outcome(fn, mats, p, n):
    try:
        return ("value", fn(mats, p, n))
    except (ValueError, AssertionError) as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("p,n", PN)
def test_checks_match_the_matrix_list_code(p, n):
    verdicts = set()
    for i in range(ACTIONS_PER_PN):
        mats = random_action(p, n, seed=1000 * p + 10 * n + i)
        got = (
            check_frobenius_action(mats, p, n),
            check_irreducible_action(mats, p, n),
            check_scalar_transitivity(mats, p, n),
            _outcome(check_frobenius_criterion, mats, p, n),
        )
        want = (
            ref_frobenius(mats, p, n),
            ref_irreducible(mats, p, n),
            ref_scalar_transitivity(mats, p, n),
            _outcome(ref_criterion, mats, p, n),
        )
        assert got == want, (p, n, i, [m.tolist() for m in mats])
        verdicts.add(got[:3])
    # the actions are not all alike: some pass and some fail each check
    for check in range(3):
        assert {v[check] for v in verdicts} == {True, False}, (p, n, check)


@pytest.mark.parametrize("p,n", PN)
def test_numbering_is_lexicographic(p, n):
    vecs = lexicographic(p, n)
    assert fpmat.all_vectors(p, n).tolist() == [v.tolist() for v in vecs]
    index = {tuple(v.tolist()): i for i, v in enumerate(vecs)}
    mats = random_action(p, n, seed=n)
    for m, images in zip(mats, fpmat.vector_action(mats, p)):
        assert images == [index[tuple((m @ v % p).tolist())] for v in vecs]


@pytest.mark.parametrize(
    "check",
    [
        check_frobenius_action,
        check_irreducible_action,
        check_scalar_transitivity,
        check_frobenius_criterion,
    ],
)
def test_singular_matrix_raises(check):
    singular = np.array([[1, 0], [0, 0]], dtype=np.int64)
    with pytest.raises(ValueError, match="invertible"):
        check([singular], 5, 2)


def test_oversized_action_fails_at_the_order_bound():
    p, n = 2, 12
    s = singer_matrix(p, n)
    assert matrix_order_is(s, p, p**n - 1) and p**n - 1 > ORDER_BOUND // p**n
    with pytest.raises(OrderBoundExceeded):
        check_frobenius_action([s], p, n)


def test_vectors_past_the_order_bound_raise_before_any_is_built():
    # any group containing F_2^19 has order at least 2^19 > ORDER_BOUND
    p, n = 2, 19
    assert p**n > ORDER_BOUND
    for build in (vector_group, check_frobenius_action, check_irreducible_action,
                  check_scalar_transitivity):
        with pytest.raises(OrderBoundExceeded, match=f"{p**n}.*{ORDER_BOUND}"):
            build([np.eye(n, dtype=np.int64)], p, n)


def test_analyze_structure_builds_one_matrix_group(monkeypatch):
    # only the Frobenius check enumerates <mats>; the irreducibility and
    # scalar checks read the generators' images
    group = construct_case(CaseParams("a1", 7, 2, 3))
    table = character_table(group)
    group.conjugacy_classes()
    built = []
    init = PermGroup.__init__

    def counted(self, degree, *args, **kwargs):
        built.append(degree)
        init(self, degree, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", counted)
    report = analyze_structure(group, table)
    assert report.case_tag == "a1" and report.n == 2
    assert built == [7**2]


def test_construct_past_the_order_bound_exits_at_once():
    code = (
        "import resource, time\n"
        "from galchar.cli import main\n"
        "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "start = time.perf_counter()\n"
        "code = main(['construct', 'a1', '--p', '2', '--n', '19'])\n"
        "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss\n"
        "print(code, time.perf_counter() - start, grown / 1024)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert "524288" in out.stderr and "500000" in out.stderr
    code, seconds, grown_mb = out.stdout.split()
    assert code == "2" and float(seconds) < 1.0 and float(grown_mb) < 50
