"""Kernels read off the table as class sets, and the checks that guard them."""
import pytest

from galchar.chartab import TableVerificationError, character_table
from galchar.constructors import cyclic, symmetric
from galchar.cyclotomic import cyc

from reference import kernel_index, pool_by_conductor


def _set_values(table, row, classes, value):
    """Point row's ids on the given classes at the pool's id of the rational
    value, appended (with the table's values by conductor rebuilt) only if
    the pool lacks it."""
    ids = [i for i, v in enumerate(table.value_pool) if v == value]
    if not ids:
        table.value_pool.append(cyc(value))
        table.by_conductor = pool_by_conductor(table.value_pool)
        ids = [len(table.value_pool) - 1]
    table.value_ids[row, classes] = ids[0]
    return table.chars[row]


def _class_of(table, order, size):
    (j,) = [
        j for j, c in enumerate(table.classes) if (c.order, c.size) == (order, size)
    ]
    return j


def _faithful_row(table):
    """A row equal to its degree only on the identity class (uncached)."""
    return next(
        chi.index
        for chi in table.chars
        if [v == chi.degree for v in chi.values].count(True) == 1
    )


@pytest.mark.parametrize("key", ["S3", "S4", "SL(2,3)", "V4:C9", "A4xC2"])
def test_class_sets_match_kernel_subgroups(get_table, key):
    table = get_table(key)
    for chi in table.chars:
        ker = chi.kernel()
        assert sum(table.classes[j].size for j in chi.kernel_classes()) == ker.order
        assert kernel_index(chi) * ker.order == table.group.order
        assert ker.is_normal()


def test_class_set_size_must_divide_the_order():
    # identity plus the six transpositions of S4: closed under conjugation,
    # 7 elements, and 7 does not divide 24
    table = character_table(symmetric(4))
    row = _faithful_row(table)
    chi = _set_values(table, row, [_class_of(table, 2, 6)], table.chars[row].degree)
    with pytest.raises(TableVerificationError):
        chi.kernel_classes()
    with pytest.raises(TableVerificationError):
        kernel_index(chi)


def test_class_set_must_contain_the_identity():
    # the degree-2 row of S4 has kernel V4: without the identity class the
    # three double transpositions remain, and 3 divides 24
    table = character_table(symmetric(4))
    (row,) = [chi.index for chi in table.chars if chi.degree == 2]
    chi = _set_values(table, row, [0], -2)
    assert [v == 2 for v in chi.values].count(True) == 1
    with pytest.raises(TableVerificationError):
        chi.kernel_classes()


def test_kernel_subgroup_must_be_closed():
    # C6: the identity, the involution and one generator make 3 elements,
    # a divisor of 6, but they generate all of C6
    table = character_table(cyclic(6))
    assert [c.order for c in table.classes] == [1, 2, 3, 3, 6, 6]
    row = _faithful_row(table)
    chi = _set_values(table, row, [1, 5], 1)
    assert chi.kernel_classes() == {0, 1, 5}
    assert kernel_index(chi) == 2
    with pytest.raises(TableVerificationError):
        chi.kernel()
