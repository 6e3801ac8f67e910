"""One eigenline per Galois orbit, found by descent from the identity-class
vector over the subgroups of the units mod e, and the eigen-check every row
must pass.

The reference is a dense oracle: every class matrix, built from group.mul
and the class array, must have every row as an eigenvector, and the Galois
row permutations must permute the rows as the power maps permute the
columns.
"""
import hashlib
import json
import random

import numpy as np
import pytest

from galchar import chartab
from galchar.chartab import (
    TableVerificationError,
    _Descent,
    _descent_levels,
    _eigen_checker,
    _galois_rows,
    _Products,
    _split,
    _uniform,
    _units_mod,
    character_table,
)
from galchar.constructors import CaseParams, construct_case, cyclic, dihedral
from galchar.numth import find_dixon_prime
from galchar.perm import PermGroup

from reference import mod_table

GROUPS = {
    "a7(h=3)": CaseParams("a7", 2, 2, 1, 3),
    "a7(h=4)": CaseParams("a7", 2, 2, 1, 4),
    "a3(h=5)": CaseParams("a3", 2, 2, 1, 5),
}
A7H3_ROUNDS_SEED = 8  # level 0 takes two rounds at this seed
_groups = {}


def _elementary_abelian(n):
    """C2^n as n disjoint transpositions on 2n points."""
    gens = [[i ^ 1 if i // 2 == j else i for i in range(2 * n)] for j in range(n)]
    return PermGroup(2 * n, gens)


def _group(key):
    if key not in _groups:
        if key.startswith("C2^"):
            _groups[key] = _elementary_abelian(int(key[3:]))
        else:
            _groups[key] = construct_case(GROUPS[key])
    return _groups[key]


def _setup(group):
    """(ell, size_inv, inv_class) as _build_table passes them to _split."""
    ell = find_dixon_prime(group.exponent, group.order)
    size_inv = np.array([pow(c.size, -1, ell) for c in group.conjugacy_classes()], dtype=np.int64)
    return ell, size_inv, group.power_maps[:, -1]


def _least(group):
    """S as _split takes it: the least class of each power-orbit of classes."""
    rep_of = chartab._orbits(group.power_maps, _units_mod(group.exponent))[0]
    return rep_of == np.arange(len(rep_of))


def _digest(table):
    return hashlib.sha256(json.dumps(table.to_dict(), sort_keys=True).encode()).hexdigest()


def _table_omegas(table):
    """The table's eigenlines mod l, 1 at the identity class."""
    ell = table.dixon_prime
    sizes = np.array([c.size for c in table.classes], dtype=np.int64)
    degree_inv = np.array([pow(d, -1, ell) for d in table.degrees], dtype=np.int64)
    return mod_table(table) * sizes % ell * degree_inv[:, None] % ell


def assert_dense_oracle(group, omegas, galois, ell):
    """The k rows are distinct, 1 at the identity class and eigenvectors of
    every class matrix: with a[i, j, m] the pairs (x, y) in C_i x C_j with
    x y = z_m (z_m the representative of class m), the class sums multiply
    as K_i K_j = sum_m a[i, j, m] K_m, and a central character omega takes
    omega_i omega_j = sum_m a[i, j, m] omega_m.  galois[t] permutes the rows
    as the t-th unit s permutes the columns, c -> c^s."""
    classes = group.class_index_array()
    k = len(omegas)
    assert len({row.tobytes() for row in omegas}) == k
    assert (omegas[:, 0] == 1).all()
    reps = np.array([c.element_ids[0] for c in group.conjugacy_classes()])
    rows = omegas.astype(np.float64)  # exact: sums of k |C_i| l^2 < 2**53
    for i, cls in enumerate(group.conjugacy_classes()):
        xs = np.array(cls.element_ids)
        ys = group.mul(group.inverse[xs][:, None], reps[None, :])  # [x, m] = x^-1 z_m
        flat = np.arange(k)[None, :] * k + classes[ys]
        a_i = np.bincount(flat.ravel(), minlength=k * k).reshape(k, k)  # [m, j] = a[i, j, m]
        lhs = (rows @ a_i).astype(np.int64) % ell
        assert np.array_equal(lhs, omegas[:, i : i + 1] * omegas % ell), i
    for t, s in enumerate(_units_mod(group.exponent)):
        assert np.array_equal(omegas[galois[t]], omegas[:, group.power_maps[:, s]])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("key", ["a7(h=4)", "a3(h=5)"])
def test_descent_passes_the_dense_oracle(key, seed):
    group = _group(key)
    ell, size_inv, inv_class = _setup(group)
    omegas, galois, split = _split(group, ell, seed, size_inv, inv_class)
    assert split["level0_rounds"] >= 1
    assert_dense_oracle(group, omegas, galois, ell)
    assert character_table(group, seed=seed).split == split


# sha256 of the sorted-key JSON of to_dict() for C2^6
C2_6_TABLES = {
    0: "1b531724ab265a6f633fd85754ab1648409c6b737141b5d5cab5bcabda61d7f4",
    1: "00bc8b9f15e0fb6b88d260698deb763521d4eec97dcc95407ded1bdbd47919d5",
}


@pytest.mark.parametrize("key, seed", [("C2^6", 0), ("a7(h=3)", A7H3_ROUNDS_SEED)])
def test_level_zero_refines_over_rounds(key, seed):
    group = _group(key)
    ell, size_inv, inv_class = _setup(group)
    omegas, galois, split = _split(group, ell, seed, size_inv, inv_class)
    assert split["level0_rounds"] >= 2
    assert_dense_oracle(group, omegas, galois, ell)
    table = character_table(group, seed=seed)
    assert table.split == split
    if key == "a7(h=3)":  # the same table as at a seed where one round suffices
        other = character_table(group, seed=0)
        assert other.split["level0_rounds"] == 1
        assert other.text_lines()[1:] == table.text_lines()[1:]
        assert {**other.to_dict(), "config": None} == {**table.to_dict(), "config": None}


@pytest.mark.parametrize("seed", sorted(C2_6_TABLES))
def test_more_orbits_than_field_elements_refine_level_zero(seed):
    # r = k = 64 Galois orbits, more than the 17 elements of F_l
    table = character_table(_group("C2^6"), seed=seed)
    assert (len(table.classes), table.dixon_prime) == (64, 17)
    assert table.split["level0_rounds"] >= 2
    assert _digest(table) == C2_6_TABLES[seed]


def test_c2_8_descends_from_level_zero_refinement():
    # k = r = 256 Galois orbits against the 37 elements of F_l
    table = character_table(_group("C2^8"), seed=0)
    assert (len(table.classes), table.dixon_prime) == (256, 37)
    assert table.split["level0_rounds"] >= 2
    assert _digest(table) == "72d8bef9a38f18a3eb7f9431f851aa131b54a1632fe54a36e06e1fcff8d95b90"


def test_small_tables_never_run_out_of_passes():
    # C11 at l = 23 has one level of index 10, whose least eigenvalue is often
    # shared; at seed 3646, the least such seed, four passes were not enough
    for seed in range(40):
        character_table(cyclic(11), seed=seed)
    # one orbit is redone per pass after the first: six passes
    assert character_table(cyclic(11), seed=3646).split["redone"] == 5
    for group in [cyclic(n) for n in range(2, 40)] + [dihedral(n) for n in range(3, 20)]:
        for seed in range(8):
            character_table(group, seed=seed)


def test_level_zero_raises_past_its_round_cap(monkeypatch):
    monkeypatch.setattr(chartab, "_LEVEL0_ROUNDS", 1)  # C2^6 needs at least two
    with pytest.raises(TableVerificationError, match="level 0 found"):
        character_table(_group("C2^6"))


def test_galois_rows_raise_unless_they_give_k_rows(monkeypatch):
    group = _group("a7(h=3)")
    table = character_table(group, seed=1)
    ell = table.dixon_prime
    omegas = _table_omegas(table)
    lines = omegas[[orbit[0] for orbit in table.galois_orbits()]]
    rng = random.Random(0)
    rows, _ = _galois_rows(lines, group.power_maps, ell, rng)
    assert len(rows) == len(omegas)
    assert len(_galois_rows(lines[1:], group.power_maps, ell, rng)[0]) < len(omegas)
    with pytest.raises(TableVerificationError, match="more than k rows"):
        _galois_rows(lines[[0, *range(len(lines))]], group.power_maps, ell, rng)
    # rows that all pass the eigen-check but fall short of k are refused
    real = chartab._galois_rows

    def short(lines, *args):
        return real(lines[:-1], *args)

    monkeypatch.setattr(chartab, "_galois_rows", short)
    with pytest.raises(TableVerificationError, match="fewer than k rows"):
        character_table(group, seed=1)


def _coarse_last_level(monkeypatch, group):
    """Make the first draw at the last level of the descent (T = 1) use the
    orbits of the level before it, so every orbit of characters that level
    should split keeps a sum of eigenlines."""
    levels = _descent_levels(group.power_maps)
    last, coarser = levels[-1][0], levels[-2][0]
    real = chartab._invariant_combinations
    stubbed = []

    def source(products, power_maps, ell, rng):
        draw = real(products, power_maps, ell, rng)

        def stub(orbits, support):
            if not stubbed and np.array_equal(orbits[0], last[0]):
                stubbed.append(orbits)
                return draw(coarser, np.isin(coarser[0], coarser[0][support]))
            return draw(orbits, support)

        return stub

    monkeypatch.setattr(chartab, "_invariant_combinations", source)
    return stubbed


def test_collision_at_the_last_level_is_redone(monkeypatch):
    group = _group("a7(h=4)")
    expected = character_table(group, seed=1)
    stubbed = _coarse_last_level(monkeypatch, group)
    table = character_table(group, seed=1)
    assert stubbed
    assert table.split["redone"] > 0
    assert table.to_dict() == expected.to_dict()
    assert np.array_equal(table.galois, expected.galois)


def test_eigen_check_flags_exactly_the_merged_rows(monkeypatch):
    # the merged-level failure: rows that are sums of the eigenlines of one
    # orbit pass the counts and f(a) kills them, and only a fresh combination
    # tells them apart
    group = _group("a7(h=4)")
    ell, size_inv, inv_class = _setup(group)
    truth = {row.tobytes() for row in _table_omegas(character_table(group, seed=0))}
    _coarse_last_level(monkeypatch, group)
    rng = random.Random(3)
    products, least = _Products(group), _least(group)
    draw = chartab._invariant_combinations(products, group.power_maps, ell, rng)
    failing = _eigen_checker(products, least, ell, random.Random(4))
    descent = _Descent(draw, group.power_maps, ell, rng, size_inv, inv_class, failing)
    lines, ok = descent._descend(descent._starts(), _descent_levels(group.power_maps), least)
    assert ok.all()  # every chain was accepted
    lines = lines * np.array([pow(int(x), -1, ell) for x in lines[:, 0]])[:, None] % ell
    wrong = np.array([row.tobytes() not in truth for row in lines])
    assert 0 < wrong.sum() < len(lines)
    assert np.array_equal(failing(lines), wrong)


def test_eigen_check_flags_a_corrupted_row():
    # one entry of one row is corrupted, at a class of S (the least class of
    # each power-orbit, whose class matrices the check combines) and at a
    # class outside S, which only the products M r can reveal
    group = _group("a7(h=3)")
    table = character_table(group, seed=1)
    ell = table.dixon_prime
    omegas = _table_omegas(table)
    least = _least(group)
    inside, outside = np.flatnonzero(least), np.flatnonzero(~least)
    corrupted = [(5, outside[3]), (40, outside[-1]), (62, inside[1]), (7, inside[-1])]
    for seed in range(3):
        s = least.copy()
        failing = _eigen_checker(_Products(group), s, ell, random.Random(seed))
        assert not failing(omegas).any()
        for row, col in corrupted:
            bad = omegas.copy()
            bad[row, col] = (bad[row, col] + 1) % ell
            assert failing(bad).tolist() == [i == row for i in range(len(bad))]
        assert np.array_equal(s, least)  # flagged by the test over S, which never widened


def test_split_raises_when_a_row_fails_the_eigen_check(monkeypatch):
    group = _group("C2^6")
    monkeypatch.setattr(chartab, "_eigen_checker", lambda *args: lambda rows: rows[:, 1] >= 0)
    with pytest.raises(TableVerificationError, match="fresh combination"):
        character_table(group)


@pytest.mark.parametrize("key", ["a7(h=3)", "a3(h=5)"])
def test_a_non_separating_s_widens_to_the_same_table(monkeypatch, key):
    # S forced to the central classes: their class matrices act as scalars
    # on each central character, so neither the first pass's supports nor
    # the check over S tell its rows apart
    group = _group(key)
    expected = character_table(group, seed=1)
    central = np.array([c.size == 1 for c in group.conjugacy_classes()])
    assert not central.all()
    real = chartab._eigen_checker

    def forced(products, least, ell, rng):
        least[:] = central  # in place: the first pass's supports read it too
        return real(products, least, ell, rng)

    monkeypatch.setattr(chartab, "_eigen_checker", forced)
    table = character_table(group, seed=1)
    assert table.split["widened"] > 0 and table.split["redone"] > 0
    assert table.to_dict() == expected.to_dict()
    assert np.array_equal(table.galois, expected.galois)


def test_uniform_draws_repeat_by_seed_and_cover_the_range():
    draws = _uniform(random.Random(5), 7, (3, 400))
    assert np.array_equal(draws, _uniform(random.Random(5), 7, (3, 400)))
    assert draws.shape == (3, 400) and draws.dtype == np.int64
    assert 0 <= draws.min() and draws.max() < 7
    assert np.bincount(draws.ravel(), minlength=7).all()  # every residue appears
    assert _uniform(random.Random(5), 2**53 // 3, 9).shape == (9,)


class _CountingRandom(random.Random):
    """A random.Random that records the byte counts asked of randbytes."""

    def randbytes(self, n):
        self.asked.append(n)
        return super().randbytes(n)


def test_uniform_redraws_the_words_above_the_largest_multiple():
    # 2**64 % (2**63 + 1) = 2**63 - 1, so a word is kept iff it is at most
    # 2**63: about half are drawn again
    high, rng = 2**63 + 1, _CountingRandom(3)
    rng.asked = []
    draws = _uniform(rng, high, 1000)
    assert len(rng.asked) > 2 and 1700 * 8 < sum(rng.asked) < 2300 * 8
    assert all(0 <= int(v) < high for v in draws.tolist())
    words = np.frombuffer(random.Random(3).randbytes(8000), dtype="<u8")
    kept = words <= 2**63
    assert 400 < kept.sum() < 600
    assert np.array_equal(draws[kept], words[kept])  # kept words are their own residues
