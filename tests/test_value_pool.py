"""Character values held as a k x k id array into a pool of distinct values,
on a table with 63 classes: sharing, and the checks that must still see a
value changed in one entry or a corrupted mod-l table."""
import numpy as np
import pytest

from galchar.chartab import (
    TableVerificationError,
    _find_root_of_unity,
    _check_lift,
    _lift_values,
    _verify,
    character_table,
)
from galchar.constructors import CaseParams, construct_case

from reference import Cyc, mod_table, pool_by_conductor


@pytest.fixture(scope="module")
def a7h3():
    group = construct_case(CaseParams("a7", 2, 2, 1, 3))
    table = character_table(group, seed=1)
    assert table.n_classes == 63
    return table


def test_each_distinct_value_is_one_object(a7h3):
    chars = a7h3.chars
    objects = {id(v): v for chi in chars for v in chi.values}
    distinct = {(v.conductor, v.coeffs) for v in objects.values()}
    assert len(objects) == len(distinct) < a7h3.n_classes**2
    pool, ids = a7h3.value_pool, a7h3.value_ids
    assert len(pool) == len(distinct) and ids.dtype == np.int32
    for chi, row in zip(chars, ids):
        assert all(v is pool[i] for v, i in zip(chi.values, row))


def test_lift_reproduces_the_table(a7h3):
    ell, e = a7h3.dixon_prime, a7h3.exponent
    w_e = _find_root_of_unity(ell, e)
    ids, pool, by_conductor = _lift_values(a7h3.group, mod_table(a7h3), ell, w_e, a7h3.galois)
    for chi, row in zip(a7h3.chars, ids):
        assert [pool[i] for i in row] == list(chi.values)
    # the lift's own arrays, which the table keeps, are those rebuilt from the pool's values
    rebuilt = pool_by_conductor(pool)
    assert list(by_conductor) == list(rebuilt) == list(a7h3.by_conductor)
    for m, (idx, coeffs) in by_conductor.items():
        assert np.array_equal(idx, rebuilt[m][0]) and np.array_equal(coeffs, rebuilt[m][1])
        kept_idx, kept_coeffs = a7h3.by_conductor[m]
        assert np.array_equal(kept_idx, idx) and np.array_equal(kept_coeffs, coeffs)


def test_the_table_keeps_no_mod_table(a7h3):
    # the build checks the lift against the mod-l table and drops it; the
    # values by conductor are set once, not rebuilt when the pool grows
    assert not hasattr(a7h3, "mod_table") and not hasattr(a7h3, "_conductors")
    assert set(vars(a7h3)) == {
        "group", "classes", "degrees", "exponent", "dixon_prime", "seed", "value_ids",
        "value_pool", "by_conductor", "galois", "unit_index", "chars", "split", "_kernels",
    }


@pytest.mark.parametrize("row,col,delta", [(5, 7, 1), (30, 40, 2), (62, 1, 10)])
def test_corrupted_mod_table_breaks_the_multiplicity_bounds(a7h3, row, col, delta):
    ell, e = a7h3.dixon_prime, a7h3.exponent
    table_mod = mod_table(a7h3)
    table_mod[row, col] = (table_mod[row, col] + delta) % ell
    with pytest.raises(TableVerificationError, match="multiplicities"):
        _lift_values(a7h3.group, table_mod, ell, _find_root_of_unity(ell, e), a7h3.galois)


def test_shared_value_replaced_in_one_row_fails_verification():
    group = construct_case(CaseParams("a7", 2, 2, 1, 3))
    table = character_table(group, seed=1)
    chars = table.chars
    # the last irrational value object that an earlier row also holds
    seen = {}
    for chi in chars:
        for j, v in enumerate(chi.values):
            if not v.is_rational and id(v) in seen and seen[id(v)] != chi.index:
                row, col = chi.index, j
            seen.setdefault(id(v), chi.index)
    chi = chars[row]
    shared = chi.values[col]
    assert sum(v is shared for other in chars for v in other.values) > 1
    _verify(table)
    table_mod = mod_table(table)
    table.value_pool.append(Cyc.of(shared) + 1)
    table.value_ids[row, col] = len(table.value_pool) - 1
    table.by_conductor = pool_by_conductor(table.value_pool)
    with pytest.raises(TableVerificationError, match="lift is inconsistent"):
        _check_lift(table.value_ids, table.by_conductor, len(table.value_pool), table_mod,
                    table.exponent, table.dixon_prime)
    with pytest.raises(TableVerificationError):
        _verify(table)
