"""Exact orthogonality at every table size: the pool-level Galois check and
the Gram matrices modulo primes, against the cyclotomic triple loop they
replaced, and the corruptions each of them must catch on a7(h=3) (k = 63)."""
import gc
import weakref

import numpy as np
import pytest

from galchar import chartab
from galchar.chartab import (
    Character,
    TableVerificationError,
    character_table,
    verify_orthogonality_exact,
)
from galchar.classify import analyze_structure
from galchar.cli import main
from galchar.constructors import CaseParams, ParamsInvalid, construct_case, sweep_parameter_points
from galchar.cyclotomic import cyc
from galchar.perm import group_to_json


def reference_orthogonality(table) -> bool:
    """Row and column orthogonality summed entry by entry in cyclotomic
    arithmetic, O(k^3) additions; reads the id array and the pool, and
    makes each product of a value and a conjugate value once."""
    group = table.group
    k = table.n_classes
    sizes = [c.size for c in table.classes]
    pool = table.value_pool
    ids = table.value_ids.tolist()
    products = {}

    def times_conjugate(a, b):  # pool[a] * conj(pool[b])
        if (a, b) not in products:
            products[a, b] = pool[a] * pool[b].conjugate()
        return products[a, b]

    for i in range(k):
        for j in range(i, k):
            total = cyc(0)
            for c in range(k):
                a, b = ids[i][c], ids[j][c]
                if pool[a].is_zero or pool[b].is_zero:
                    continue
                total = total + sizes[c] * times_conjugate(a, b)
            if total != (group.order if i == j else 0):
                return False
    for c1 in range(k):
        for c2 in range(c1, k):
            total = cyc(0)
            for i in range(k):
                a, b = ids[i][c1], ids[i][c2]
                if pool[a].is_zero or pool[b].is_zero:
                    continue
                total = total + times_conjugate(a, b)
            if total != (group.order // sizes[c1] if c1 == c2 else 0):
                return False
    return True


def _small_sweep_groups():
    """Default-sweep groups with at most 40 classes, where the triple loop
    takes well under a second."""
    for params in sweep_parameter_points():
        try:
            group = construct_case(params)
        except ParamsInvalid:
            continue
        if len(group.conjugacy_classes()) <= 40:
            yield params.label(), group


def test_reference_agrees_on_the_corpus(get_table, corpus_keys):
    for key in corpus_keys:
        table = get_table(key)
        verify_orthogonality_exact(table)
        assert reference_orthogonality(table), key


def test_reference_agrees_on_the_small_sweep():
    labels = []
    for label, group in _small_sweep_groups():
        table = character_table(group)  # runs verify_orthogonality_exact
        assert reference_orthogonality(table), label
        labels.append(label)
    assert len(labels) >= 20


@pytest.fixture(scope="module")
def a7h3_group():
    return construct_case(CaseParams("a7", 2, 2, 1, 3))


@pytest.fixture
def a7h3(a7h3_group):
    table = character_table(a7h3_group, seed=1)
    assert table.n_classes == 63
    return table


def test_conjugated_entry_fails_the_galois_check(a7h3):
    pool, ids = a7h3.value_pool, a7h3.value_ids
    inv = a7h3._powers()[:, -1]
    i, c = next(
        (i, c)
        for i in range(a7h3.n_classes)
        for c in range(a7h3.n_classes)
        if pool[ids[i, c]] != pool[ids[i, c]].conjugate()
    )
    assert pool[ids[i, inv[c]]] == pool[ids[i, c]].conjugate()
    ids[i, c] = ids[i, inv[c]]
    with pytest.raises(TableVerificationError, match="Galois"):
        verify_orthogonality_exact(a7h3)
    assert not reference_orthogonality(a7h3)


def test_swap_in_a_rational_column_fails_orthogonality_mod_p(a7h3):
    pool, ids = a7h3.value_pool, a7h3.value_ids
    rational_rows = [chi.index for chi in a7h3.chars if chi.is_rational()]
    c, i, j = next(
        (c, i, j)
        for c in range(1, a7h3.n_classes)
        if all(pool[v].is_rational for v in ids[:, c])
        for i in rational_rows
        for j in rational_rows
        if ids[i, c] != ids[j, c]
    )
    ids[[i, j], c] = ids[[j, i], c]
    with pytest.raises(TableVerificationError, match="orthogonality fails mod"):
        verify_orthogonality_exact(a7h3)
    assert not reference_orthogonality(a7h3)


def test_swap_with_a_nonrational_row_fails_the_galois_check(a7h3):
    # entrywise consistent with the power maps, but the Galois image of the
    # changed non-rational row is no longer a row of the table
    pool, ids = a7h3.value_pool, a7h3.value_ids
    c, i, j = next(
        (c, i.index, j.index)
        for c in range(1, a7h3.n_classes)
        if all(pool[v].is_rational for v in ids[:, c])
        for i in a7h3.chars
        if i.is_rational()
        for j in a7h3.chars
        if not j.is_rational() and ids[i.index, c] != ids[j.index, c]
    )
    ids[[i, j], c] = ids[[j, i], c]
    with pytest.raises(TableVerificationError, match="Galois images of the rows"):
        verify_orthogonality_exact(a7h3)
    assert not reference_orthogonality(a7h3)


def test_entry_shifted_by_the_first_prime_needs_a_second(a7h3):
    # a rational entry plus the largest usable prime p is unchanged mod p;
    # its L1 norm raises the bound past p, so a second prime must catch it
    pool, ids = a7h3.value_pool, a7h3.value_ids
    (p,) = chartab._gram_primes(a7h3.exponent, a7h3.n_classes, 1)
    i = next(chi.index for chi in a7h3.chars if chi.is_rational() and chi.degree > 1)
    c = next(c for c in range(1, a7h3.n_classes) if pool[ids[i, c]].is_rational)
    pool.append(pool[ids[i, c]] + p)
    ids[i, c] = len(pool) - 1
    with pytest.raises(TableVerificationError, match="orthogonality fails mod"):
        verify_orthogonality_exact(a7h3)
    assert not reference_orthogonality(a7h3)


def test_primes_exceed_the_bound_within_the_budget():
    e, width = 972, 567
    for bound, count in [(11666, 1), (10**20, 4)]:
        primes = chartab._gram_primes(e, width, bound)
        assert len(primes) == count and np.prod(primes, dtype=object) > bound
        assert all(p % e == 1 and width * (p - 1) ** 2 < 2**53 for p in primes)


def test_no_prime_below_the_budget_fails_loudly(a7h3, a7h3_group, monkeypatch, tmp_path, capsys):
    verify_orthogonality_exact(a7h3)
    monkeypatch.setattr(chartab, "EXACT_BUDGET", a7h3.n_classes * a7h3.exponent**2)
    with pytest.raises(TableVerificationError, match="exactness budget"):
        verify_orthogonality_exact(a7h3)
    gf = tmp_path / "a7h3.json"
    gf.write_text(group_to_json(a7h3_group))
    assert main(["chartab", str(gf)]) == 2
    capsys.readouterr()


def test_each_character_is_built_once(monkeypatch):
    group = construct_case(CaseParams("a7", 2, 2, 1, 4))
    built = []
    init = Character.__init__

    def counting(self, *args):
        built.append(args[1])
        init(self, *args)

    monkeypatch.setattr(Character, "__init__", counting)
    table = character_table(group, seed=1)
    analyze_structure(group, table, seed=1)
    assert len(built) == table.n_classes == 189
    chi = table.chars[5]
    kernel = chi.kernel_classes()
    assert table.chars[5] is chi and chi.kernel_classes() is kernel


def test_tables_are_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        group = construct_case(CaseParams("a7", 2, 2, 1, 2))
        table = character_table(group)
        analyze_structure(group, table)
        for chi in table.chars:
            chi.kernel()
        refs = [weakref.ref(table), weakref.ref(group)]
        del group, table, chi
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_pool_reduction_matches_the_dixon_table(a7h3):
    # the reduction of the pool at the Dixon prime is the mod-l table
    ell, e = a7h3.dixon_prime, a7h3.exponent
    by_conductor = chartab._pool_by_conductor(a7h3.value_pool)
    reduced = chartab._pool_mod(by_conductor, len(a7h3.value_pool), e, ell)
    assert np.array_equal(reduced[a7h3.value_ids], a7h3.mod_table % ell)
