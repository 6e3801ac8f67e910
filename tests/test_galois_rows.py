"""Values lifted at one class per power-orbit, and the Galois action on rows
read off one permutation per unit.

The references are the earlier code: a lift that walked each power-orbit
class by class, mapping the values of a filled column through z -> z^u, and
Galois queries that looked up each permuted mod-l row in a dict keyed by the
bytes of the rows.
"""
import numpy as np
import pytest

from galchar import fpmat
from galchar.chartab import (
    TableVerificationError,
    _find_root_of_unity,
    _galois_image,
    character_table,
)
from galchar.corpus import CORPUS
from galchar.cyclotomic import Cyclotomic, _monomial_table, cyc
from galchar.numth import factorize, unit_generators
from reference import galois_stabilizer, is_rational, mod_table
from test_metamorphic import relabelling
from test_power_maps import SWEEP, _group

KEYS = [e.key for e in CORPUS] + sorted(SWEEP)  # the sweep has a7(h=3) and a7(h=4)
A7 = [key for key in sorted(SWEEP) if key.startswith("a7")]
_tables = {}


def _table(key, relabel):
    """The table of a group of KEYS, plain at seed 0 or relabelled at seed 1."""
    if (key, relabel) not in _tables:
        group = _group(key)
        if relabel:
            group = relabelling(group, seed=len(key))[0]
        _tables[key, relabel] = character_table(group, seed=int(relabel))
    return _tables[key, relabel]


def reference_lift(group, table_mod, ell, w_e):
    """(ids, pool): per power-orbit, the inverse DFT at its first class, then
    each other class reached from a filled one by a generator u of the units
    mod m, its column the image of that one under z -> z^u."""
    classes = group.conjugacy_classes()
    power_maps = group.power_maps
    e = power_maps.shape[1]
    ids = np.full(table_mod.shape, -1, dtype=np.int32)
    pool, rational, books = [], {}, {}

    def intern(coeffs, m):  # distinct rows at conductor m
        book = books.setdefault(m, {})
        keys = coeffs.view(np.dtype((np.void, 8 * coeffs.shape[1]))).ravel().tolist()
        out = list(map(book.get, keys))
        for r in [r for r, vid in enumerate(out) if vid is None]:
            c0, irrational = int(coeffs[r, 0]), coeffs[r, 1:].any()
            vid = len(pool) if irrational else rational.setdefault(c0, len(pool))
            if vid == len(pool):
                vec = tuple(coeffs[r].tolist())
                pool.append(Cyclotomic(m, vec, _raw=True) if irrational else cyc(c0))
            out[r] = book[keys[r]] = vid
        return np.array(out, dtype=np.int32)

    for j, c in enumerate(classes):
        if ids[0, j] >= 0:
            continue
        m = c.order
        cols, inverse = np.unique(table_mod[:, power_maps[j, :m]], axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        powers = np.array([pow(w_e, -(e // m) * t, ell) for t in range(m)])
        dft = powers[np.outer(np.arange(m), np.arange(m)) % m]
        mults = fpmat.mul(cols, dft, ell) * pow(m, -1, ell) % ell
        if not np.array_equal(mults.sum(axis=1)[inverse], table_mod[:, 0]):
            raise TableVerificationError("root-of-unity multiplicities do not sum to chi(1)")
        monomials = np.array(_monomial_table(m), dtype=np.int64)
        vals, which = np.unique(_galois_image(mults, monomials, 1), axis=0, return_inverse=True)
        ids[:, j] = intern(vals, m)[which.reshape(-1)[inverse]]
        image_of = {u: np.empty(0, dtype=np.int32) for u in unit_generators(m)}
        frontier = [j]
        while frontier:
            jc = frontier.pop()
            for u, lut in image_of.items():
                jn = power_maps[jc, u % e]
                if ids[0, jn] < 0:
                    lut = image_of[u] = np.pad(lut, (0, len(pool) - len(lut)), constant_values=-1)
                    new = np.unique(ids[lut[ids[:, jc]] < 0, jc])
                    if len(new):
                        zero = np.zeros(monomials.shape[1], dtype=np.int64)
                        rows = np.array([sum((c * monomials[t] for t, c in pool[i]._terms(m)), zero)
                                         for i in new.tolist()])
                        lut[new] = intern(_galois_image(rows, monomials, u), m)
                    ids[:, jn] = lut[ids[:, jc]]
                    frontier.append(jn)
    return ids, pool


def reference_permuted_row(table):
    """(i, k) -> the row g -> chi_i(g**k), looked up by the bytes of the
    mod-l rows."""
    rows = mod_table(table)
    lookup = {row.tobytes(): r for r, row in enumerate(rows)}
    assert len(lookup) == table.n_classes
    powers = table.group.power_maps

    def permuted_row(i, k):
        return lookup[rows[i][powers[:, k % table.exponent]].tobytes()]

    return permuted_row


def reference_orbits(table):
    permuted_row = reference_permuted_row(table)
    seen, orbits = set(), []
    for i in range(table.n_classes):
        if i not in seen:
            orbit = {permuted_row(i, k) for k in table.units()}
            seen |= orbit
            orbits.append(tuple(sorted(orbit)))
    return orbits


def _entries(ids, pool):
    """Each entry as (conductor, coefficients)."""
    keys = [(v.conductor, v.coeffs) for v in pool]
    return [[keys[i] for i in row] for row in ids.tolist()]


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("key", KEYS)
def test_lift_matches_the_orbit_walk(key, relabel):
    table = _table(key, relabel)
    ell = table.dixon_prime
    w_e = _find_root_of_unity(ell, table.exponent)
    expected = _entries(*reference_lift(table.group, mod_table(table), ell, w_e))
    assert _entries(table.value_ids, table.value_pool) == expected


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("key", KEYS)
def test_row_permutations_match_the_row_lookup(key, relabel):
    table = _table(key, relabel)
    e, k = table.exponent, table.n_classes
    table_mod = mod_table(table)
    lookup = {row.tobytes(): r for r, row in enumerate(table_mod)}
    powers = table.group.power_maps
    units = [u % e for u in table.units()]
    assert table.galois.shape == (len(units), k)
    for u in units:
        rows = table_mod[:, powers[:, u]]
        assert table.galois[table.unit_index[u]].tolist() == [lookup[row.tobytes()] for row in rows]
    others = np.ones(e, dtype=bool)
    others[units] = False
    assert (table.unit_index[others] == -1).all()


@pytest.mark.parametrize("key", [e.key for e in CORPUS] + A7)
def test_galois_queries_match_the_row_lookup(key):
    table = _table(key, False)
    assert table.galois_orbits() == reference_orbits(table)
    primes = sorted(factorize(table.group.order)) + [next(
        p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23) if table.group.order % p
    )]
    permuted_row = reference_permuted_row(table)
    for chi in table.chars:
        fixed = {k for k in table.units() if permuted_row(chi.index, k) == chi.index}
        assert galois_stabilizer(chi) == fixed
        for p in primes:
            expected = (
                all(k in fixed for k in table.units() if k % p == 1)
                if table.exponent % p == 0 else is_rational(chi)
            )
            assert table.field_in_pth_cyclotomic(chi, p) == expected
