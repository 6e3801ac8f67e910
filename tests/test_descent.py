"""One eigenline per Galois orbit, found by descent over the subgroups of the
units mod e, and the eigen-check every row must pass.

The references are the general splitter, which splits the whole space into
eigenlines, and the Galois row permutations matched from its rows by one
sort of the rows as bytes.
"""
import hashlib
import json

import numpy as np
import pytest

from galchar import chartab
from galchar.chartab import (
    TableVerificationError,
    _Descent,
    _Splitter,
    _combo_source,
    _descent_levels,
    _eigen_checker,
    _galois_generators,
    _orbits,
    _product_index,
    _split,
    _units_mod,
    character_table,
)
from galchar.constructors import CaseParams, construct_case
from galchar.numth import find_dixon_prime
from galchar.perm import PermGroup, compose_over_exponents

GROUPS = {
    "a7(h=3)": CaseParams("a7", 2, 2, 1, 3),
    "a7(h=4)": CaseParams("a7", 2, 2, 1, 4),
    "a3(h=5)": CaseParams("a3", 2, 2, 1, 5),
}
A7H3_FALLBACK_SEED = 8  # level 0 is refused three times at this seed
_groups = {}


def _group(key):
    if key not in _groups:
        if key == "C2^6":
            gens = [[i ^ 1 if i // 2 == j else i for i in range(12)] for j in range(6)]
            _groups[key] = PermGroup(12, gens)
        else:
            _groups[key] = construct_case(GROUPS[key])
    return _groups[key]


def _setup(group):
    """(index, ell, size_inv, inv_class) as _build_table passes them to _split."""
    ell = find_dixon_prime(group.exponent, group.order)
    size_inv = np.array([pow(c.size, -1, ell) for c in group.conjugacy_classes()], dtype=np.int64)
    return _product_index(group), ell, size_inv, group.power_maps[:, -1]


def reference_split(group, seed):
    """(omegas, galois): the general splitter's normalised eigenlines, and
    the row permutations matched from them and composed over Z/e."""
    index, ell, size_inv, inv_class = _setup(group)
    rng = np.random.default_rng(seed)
    combos = _combo_source(index, group.class_index_array(), ell, rng)
    lines = np.array(_Splitter(combos, len(size_inv), ell, rng, size_inv, inv_class).run())
    omegas = lines * np.array([pow(int(x), -1, ell) for x in lines[:, 0]])[:, None] % ell
    k, e = group.power_maps.shape
    maps = _galois_generators(omegas.astype(np.int32), group.power_maps)
    return omegas, compose_over_exponents(maps, k, e)[_units_mod(e)]


def _positions(rows, reference):
    """For each row, the index of the equal reference row."""
    lookup = {row.tobytes(): i for i, row in enumerate(reference)}
    assert len(lookup) == len(reference)
    return np.array([lookup[row.tobytes()] for row in rows])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("key", ["a7(h=4)", "a3(h=5)"])
def test_descent_matches_the_splitter(key, seed):
    group = _group(key)
    index, ell, size_inv, inv_class = _setup(group)
    omegas, galois, split = _split(group, index, ell, seed, size_inv, inv_class)
    assert split["path"] == "descent"
    ref_omegas, ref_galois = reference_split(group, seed)
    where = _positions(omegas, ref_omegas)  # a bijection onto the reference rows
    assert sorted(where.tolist()) == list(range(len(ref_omegas)))
    assert galois.shape == ref_galois.shape
    assert np.array_equal(ref_galois[:, where], where[galois])
    assert character_table(group, seed=seed).split["path"] == "descent"


@pytest.mark.parametrize("key, seed", [("C2^6", 0), ("a7(h=3)", A7H3_FALLBACK_SEED)])
def test_refused_level_zero_falls_back_to_the_splitter(key, seed):
    group = _group(key)
    index, ell, size_inv, inv_class = _setup(group)
    omegas, galois, split = _split(group, index, ell, seed, size_inv, inv_class)
    assert split["path"] == "fallback"
    ref_omegas, ref_galois = reference_split(group, seed)
    assert np.array_equal(omegas, ref_omegas)  # its rows, in its order
    assert np.array_equal(galois, ref_galois)
    table = character_table(group, seed=seed)
    assert table.split["path"] == "fallback"
    if key == "a7(h=3)":  # the same table as the descent gives at another seed
        other = character_table(group, seed=0)
        assert other.split["path"] == "descent"
        assert other.text_lines()[1:] == table.text_lines()[1:]
        assert {**other.to_dict(), "config": None} == {**table.to_dict(), "config": None}


def _coarse_last_level(monkeypatch, group):
    """Make the first draw at the last level of the descent (T = 1) use the
    orbits of the level before it, so every orbit of characters that level
    should split keeps a sum of eigenlines."""
    levels = _descent_levels(group.power_maps)
    last, coarser = levels[-1][0], levels[-2][0]
    real = chartab._invariant_combinations
    stubbed = []

    def source(index, class_of, power_maps, ell, rng):
        draw = real(index, class_of, power_maps, ell, rng)

        def stub(orbits):
            if not stubbed and np.array_equal(orbits[0], last[0]):
                stubbed.append(orbits)
                return draw(coarser)
            return draw(orbits)

        return stub

    monkeypatch.setattr(chartab, "_invariant_combinations", source)
    return stubbed


def test_collision_at_the_last_level_is_redone(monkeypatch):
    group = _group("a7(h=4)")
    expected = character_table(group, seed=1)
    stubbed = _coarse_last_level(monkeypatch, group)
    table = character_table(group, seed=1)
    assert stubbed
    assert table.split["path"] == "descent" and table.split["redone"] > 0
    assert table.to_dict() == expected.to_dict()
    assert np.array_equal(table.galois, expected.galois)


def test_eigen_check_flags_exactly_the_merged_rows(monkeypatch):
    # the merged-level failure: rows that are sums of the eigenlines of one
    # orbit pass the counts and f(a) kills them, and only a fresh combination
    # tells them apart
    group = _group("a7(h=4)")
    index, ell, size_inv, inv_class = _setup(group)
    truth = {row.tobytes() for row in reference_split(group, 0)[0]}
    _coarse_last_level(monkeypatch, group)
    rng = np.random.default_rng(3)
    draw = chartab._invariant_combinations(index, group.class_index_array(), group.power_maps, ell, rng)
    failing = _eigen_checker(index, group.class_index_array(), ell, np.random.default_rng(4))
    descent = _Descent(draw, group.power_maps, ell, rng, size_inv, inv_class, failing)
    orbits = _orbits(group.power_maps, _units_mod(group.exponent))
    starts = descent._starts(orbits, len(np.unique(orbits[0])))
    lines, ok = descent._descend(starts, _descent_levels(group.power_maps))
    assert ok.all()  # every chain was accepted
    lines = lines * np.array([pow(int(x), -1, ell) for x in lines[:, 0]])[:, None] % ell
    wrong = np.array([row.tobytes() not in truth for row in lines])
    assert 0 < wrong.sum() < len(lines)
    assert np.array_equal(failing(lines), wrong)


def test_eigen_check_flags_a_corrupted_row():
    group = _group("a7(h=3)")
    table = character_table(group, seed=1)
    ell = table.dixon_prime
    sizes = np.array([c.size for c in table.classes], dtype=np.int64)
    degree_inv = np.array([pow(d, -1, ell) for d in table.degrees], dtype=np.int64)
    omegas = table.mod_table * sizes % ell * degree_inv[:, None] % ell
    index = _product_index(group)
    for seed in range(3):
        failing = _eigen_checker(index, group.class_index_array(), ell, np.random.default_rng(seed))
        assert not failing(omegas).any()
        for row, col in [(5, 7), (40, 1), (62, 62)]:
            bad = omegas.copy()
            bad[row, col] = (bad[row, col] + 1) % ell
            assert failing(bad).tolist() == [i == row for i in range(len(bad))]


def test_split_raises_when_a_row_fails_the_eigen_check(monkeypatch):
    group = _group("C2^6")
    monkeypatch.setattr(chartab, "_eigen_checker", lambda *args: lambda rows: rows[:, 1] >= 0)
    with pytest.raises(TableVerificationError, match="fresh combination"):
        character_table(group)


# sha256 of the sorted-key JSON of to_dict() for C2^6, as the three refused
# level-0 draws before the splitter gave it
C2_6_TABLES = {
    0: "1b531724ab265a6f633fd85754ab1648409c6b737141b5d5cab5bcabda61d7f4",
    1: "00bc8b9f15e0fb6b88d260698deb763521d4eec97dcc95407ded1bdbd47919d5",
}


@pytest.mark.parametrize("seed", sorted(C2_6_TABLES))
def test_more_orbits_than_field_elements_skip_level_zero(monkeypatch, seed):
    group = _group("C2^6")
    draws = []
    real = _Descent._starts
    monkeypatch.setattr(_Descent, "_starts", lambda self, *a: draws.append(a) or real(self, *a))
    table = character_table(group, seed=seed)
    assert (len(table.classes), table.dixon_prime) == (64, 17)  # r = k = 64 > l
    assert draws == []
    assert table.split["path"] == "fallback"
    digest = hashlib.sha256(json.dumps(table.to_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == C2_6_TABLES[seed]
