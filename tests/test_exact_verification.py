"""Exact orthogonality at every table size: the pool-level Galois check, the
check of the row permutations pi, and one Gram product per prime over one
row per Galois orbit, against the cyclotomic triple loop they replaced; the
corruptions each of them must catch on a7(h=3) (k = 63), seeded corruptions
on a7(h=2) and a7(h=3), and the shapes of the products."""
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
from galchar.perm import group_to_json

from reference import Cyc, cyc, is_rational, mod_table, pool_by_conductor


def reference_orthogonality(table) -> bool:
    """Row and column orthogonality summed entry by entry in cyclotomic
    arithmetic, O(k^3) additions; reads the id array and the pool, and
    makes each product of a value and a conjugate value once."""
    group = table.group
    k = table.n_classes
    sizes = [c.size for c in table.classes]
    pool = [Cyc.of(v) for v in table.value_pool]
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


def test_conjugated_entry_fails_the_galois_check(a7h3, monkeypatch):
    pool, ids = a7h3.value_pool, a7h3.value_ids
    inv = a7h3.group.power_maps[:, -1]
    i, c = next(
        (i, c)
        for i in range(a7h3.n_classes)
        for c in range(a7h3.n_classes)
        if pool[ids[i, c]] != Cyc.of(pool[ids[i, c]]).conjugate()
    )
    assert pool[ids[i, inv[c]]] == Cyc.of(pool[ids[i, c]]).conjugate()
    ids[i, c] = ids[i, inv[c]]
    with pytest.raises(TableVerificationError, match="Galois"):
        verify_orthogonality_exact(a7h3)
    assert not reference_orthogonality(a7h3)


def test_swap_in_a_rational_column_fails_orthogonality_mod_p(a7h3, monkeypatch):
    pool, ids = a7h3.value_pool, a7h3.value_ids
    rational_rows = [chi.index for chi in a7h3.chars if is_rational(chi)]
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


def test_swap_with_a_nonrational_row_fails_the_galois_check(a7h3, monkeypatch):
    # entrywise consistent with the power maps, but the Galois image of the
    # changed non-rational row is no longer a row of the table
    pool, ids = a7h3.value_pool, a7h3.value_ids
    c, i, j = next(
        (c, i.index, j.index)
        for c in range(1, a7h3.n_classes)
        if all(pool[v].is_rational for v in ids[:, c])
        for i in a7h3.chars
        if is_rational(i)
        for j in a7h3.chars
        if not is_rational(j) and ids[i.index, c] != ids[j.index, c]
    )
    ids[[i, j], c] = ids[[j, i], c]
    with pytest.raises(TableVerificationError, match="Galois images of the rows"):
        verify_orthogonality_exact(a7h3)
    assert not reference_orthogonality(a7h3)


def test_entry_shifted_by_the_first_prime_needs_a_second(a7h3, monkeypatch):
    # a rational entry plus the largest usable prime p is unchanged mod p;
    # its L1 norm raises the bound past p, so a second prime must catch it
    pool, ids = a7h3.value_pool, a7h3.value_ids
    (p,) = chartab._gram_primes(a7h3.exponent, a7h3.n_classes, 1)
    i = next(chi.index for chi in a7h3.chars if is_rational(chi) and chi.degree > 1)
    c = next(c for c in range(1, a7h3.n_classes) if pool[ids[i, c]].is_rational)
    pool.append(Cyc.of(pool[ids[i, c]]) + p)
    ids[i, c] = len(pool) - 1
    with pytest.raises(TableVerificationError, match="orthogonality fails mod"):
        verify_orthogonality_exact(a7h3)
    assert not reference_orthogonality(a7h3)


def _non_representative_rows(table):
    """Rows that are not the least row of their Galois orbit."""
    return np.flatnonzero(table.galois.min(axis=0) != np.arange(table.n_classes))


def test_rational_column_swap_at_a_non_representative_row_fails(a7h3, monkeypatch):
    # only the rows of one character per Galois orbit enter the Gram product,
    # so the row check of pi must see a non-representative row changed
    pool, ids = a7h3.value_pool, a7h3.value_ids
    c, i, j = next(
        (c, i, j)
        for c in range(1, a7h3.n_classes)
        if all(pool[v].is_rational for v in ids[:, c])
        for i in _non_representative_rows(a7h3)
        for j in range(a7h3.n_classes)
        if ids[i, c] != ids[j, c]
    )
    ids[[i, j], c] = ids[[j, i], c]
    with pytest.raises(TableVerificationError):
        verify_orthogonality_exact(a7h3)
    assert not reference_orthogonality(a7h3)


def test_one_entry_of_a_non_representative_row_fails(a7h3, monkeypatch):
    pool, ids = a7h3.value_pool, a7h3.value_ids
    i = _non_representative_rows(a7h3)[-1]
    c = a7h3.n_classes - 1
    ids[i, c] = next(v for v in range(len(pool)) if v != ids[i, c] and pool[v].is_rational)
    with pytest.raises(TableVerificationError):
        verify_orthogonality_exact(a7h3)
    assert not reference_orthogonality(a7h3)


def test_swapped_entries_of_a_galois_row_fail(a7h3, monkeypatch):
    # the values are untouched, but pi no longer names the conjugate rows
    t = a7h3.unit_index[-1 % a7h3.exponent]  # complex conjugation, not a generator here
    i, j = _non_representative_rows(a7h3)[:2]
    a7h3.galois[t, [i, j]] = a7h3.galois[t, [j, i]]
    with pytest.raises(TableVerificationError, match="Galois row permutations"):
        verify_orthogonality_exact(a7h3)


def test_swapped_entries_of_the_identity_row_of_pi_fail(a7h3):
    i, j = _non_representative_rows(a7h3)[:2]
    a7h3.galois[0, [i, j]] = a7h3.galois[0, [j, i]]  # the unit 1 comes first
    with pytest.raises(TableVerificationError, match="unit 1 is not the identity"):
        verify_orthogonality_exact(a7h3)


def test_random_corruptions_are_caught_or_harmless():
    # seeded single corruptions of the ids or of pi: whatever the exact check
    # accepts must pass the triple loop, and no corruption of pi is accepted
    rng = np.random.default_rng(2)
    verdicts = {}
    for h, runs in [(2, 300), (3, 300)]:
        table = character_table(construct_case(CaseParams("a7", 2, 2, 1, h)), seed=1)
        ids, galois, k = table.value_ids, table.galois, table.n_classes
        kept_ids, kept_galois = ids.copy(), galois.copy()
        for _ in range(runs):
            kind, i, j, c = rng.integers(3), *rng.integers(k, size=3)
            if kind == 0:  # one id set to another pool id
                ids[i, c] = (ids[i, c] + rng.integers(1, len(table.value_pool))) % len(table.value_pool)
            elif kind == 1:  # two different entries of a column swapped
                j = rng.choice(np.flatnonzero(ids[:, c] != ids[i, c]))
                ids[[i, j], c] = ids[[j, i], c]
            else:  # two entries of a row of pi swapped
                t, j = rng.integers(len(galois)), (i + rng.integers(1, k)) % k
                galois[t, [i, j]] = galois[t, [j, i]]
            try:
                verify_orthogonality_exact(table)
                accepted = True
            except TableVerificationError:
                accepted = False
            verdicts[kind, accepted] = verdicts.get((kind, accepted), 0) + 1
            if accepted:
                assert kind != 2 and reference_orthogonality(table)
            ids[:], galois[:] = kept_ids, kept_galois
    assert all(verdicts.get((kind, False), 0) > 50 for kind in range(3)), verdicts


def test_one_gram_product_per_prime_over_one_row_per_orbit(a7h3, monkeypatch):
    # mod the Dixon prime no product has a k x k operand; per Gram prime
    # exactly one has, the r rows of one character per orbit by all k rows
    shapes = []
    mul = chartab.fpmat.mul

    def recording(a, b, p):
        shapes.append((a.shape, b.shape, p))
        return mul(a, b, p)

    monkeypatch.setattr(chartab.fpmat, "mul", recording)
    chartab._verify(a7h3)
    k, r = a7h3.n_classes, len(a7h3.galois_orbits())
    square = [(a, b, p) for a, b, p in shapes if (k, k) in (a, b)]
    primes = {p for _, _, p in shapes} - {a7h3.dixon_prime}
    assert primes and all(p != a7h3.dixon_prime for _, _, p in square)
    assert sorted(p for _, _, p in square) == sorted(primes)
    assert all(a == (r, k) and b == (k, k) for a, b, _ in square) and r < k


def _writable_power_maps(table, monkeypatch):
    """A writable copy of the group's read-only power maps, swapped in for
    the rest of the test."""
    monkeypatch.setattr(table.group, "_power_maps", table.group.power_maps.copy())
    return table.group.power_maps


def test_power_maps_are_read_only(a7h3):
    with pytest.raises(ValueError):
        a7h3.group.power_maps[0, 0] = 1


def test_misplaced_square_fails_the_frobenius_schur_sum(a7h3, monkeypatch):
    # c^2 read as the identity class for one class c: on some row the sum
    # over classes of |C_c| chi(c^2) is no longer 0 or +-|G|
    square = _writable_power_maps(a7h3, monkeypatch)[:, 2]
    square[next(c for c in range(a7h3.n_classes) if square[c] != 0)] = 0
    with pytest.raises(TableVerificationError, match="not -1, 0 or 1"):
        verify_orthogonality_exact(a7h3)


def test_squares_read_as_the_classes_fail_the_real_row_check(a7h3, monkeypatch):
    # with c^2 read as c the sum is |G| <chi, 1>, so 0 on every nontrivial
    # row, the real ones included
    _writable_power_maps(a7h3, monkeypatch)[:, 2] = np.arange(a7h3.n_classes)
    with pytest.raises(TableVerificationError, match="0 on a real row"):
        verify_orthogonality_exact(a7h3)


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
    kernels = table.kernels()
    assert table.chars[5] is chi and table.kernels() is kernels  # one mask, kept
    assert chi.kernel_classes() == frozenset(np.flatnonzero(kernels[0][5]).tolist())


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


def test_pool_reduction_matches_the_dixon_table(a7h3_group, monkeypatch):
    # the reduction of the pool at the Dixon prime is the mod-l table the
    # lift started from, which the build reads back once and then drops
    seen, check = [], chartab._check_lift
    monkeypatch.setattr(chartab, "_check_lift", lambda *args: seen.append(args) or check(*args))
    table = character_table(a7h3_group, seed=1)
    ((ids, _, size, table_mod, e, ell),) = seen
    assert size == len(table.value_pool) and ell == table.dixon_prime
    reduced = chartab._pool_mod(pool_by_conductor(table.value_pool), size, e, ell)
    assert np.array_equal(reduced[ids], table_mod % ell)
    # reference.mod_table is that table with its rows in the final order
    assert np.array_equal(np.unique(mod_table(table), axis=0), np.unique(table_mod, axis=0))


CORRUPTIONS = [  # each takes the table and a monkeypatch, which two of them use
    test_conjugated_entry_fails_the_galois_check,
    test_swap_in_a_rational_column_fails_orthogonality_mod_p,
    test_swap_with_a_nonrational_row_fails_the_galois_check,
    test_entry_shifted_by_the_first_prime_needs_a_second,
    test_misplaced_square_fails_the_frobenius_schur_sum,
    test_squares_read_as_the_classes_fail_the_real_row_check,
    test_rational_column_swap_at_a_non_representative_row_fails,
    test_one_entry_of_a_non_representative_row_fails,
    test_swapped_entries_of_a_galois_row_fail,
]


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=[c.__name__[5:] for c in CORRUPTIONS])
def test_checks_read_in_small_blocks_fail_alike(corrupt, a7h3_group, monkeypatch):
    # the k x k checks read blocks of rows; with two rows per block the
    # corruptions that the default blocks catch must still be caught
    monkeypatch.setattr(chartab, "_BLOCK_CELLS", 2 * 63)
    corrupt(character_table(a7h3_group, seed=1), monkeypatch)


def test_small_blocks_build_and_verify_the_same_table(monkeypatch):
    # every array built or read in blocks, here a few cells each (so the
    # expansion of a combination from its least rows and the lift's
    # gathers run a row or a few at a time), gives the table the default
    # blocks give, and passes the same checks
    groups = [construct_case(CaseParams("a7", 2, 2, 1, 3)), construct_case(CaseParams("a3", 2, 2, 1, 2))]
    expected = [(t.to_dict(), mod_table(t), t.galois) for t in map(character_table, groups)]
    monkeypatch.setattr(chartab, "_BLOCK_CELLS", 100)
    for group, (doc, table_mod, galois) in zip(groups, expected):
        table = character_table(group)  # verified in blocks of one row
        assert table.to_dict() == doc
        assert np.array_equal(mod_table(table), table_mod) and np.array_equal(table.galois, galois)
