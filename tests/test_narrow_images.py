"""Image arrays in the narrowest unsigned type: the type chosen, products
that would wrap if any arithmetic stayed in it, class representatives kept
as rows, and the memory that building a group or a table takes."""
import tracemalloc

import numpy as np
import pytest

from galchar import chartab, cyclotomic
from galchar.chartab import character_table
from galchar.constructors import CaseParams, construct_case, cyclic, symmetric
from galchar.cyclotomic import phi
from galchar.numth import factorize
from galchar.perm import ConjugacyClass, Permutation


@pytest.mark.parametrize(
    "degree, dtype", [(1, np.uint8), (2, np.uint8), (256, np.uint8), (257, np.uint16)]
)
def test_images_take_the_narrowest_type_that_holds_every_point(degree, dtype):
    group = cyclic(degree)
    assert group.images.dtype == dtype
    assert group.images[group.inverse].dtype == dtype
    assert all(c.row.dtype == dtype for c in group.conjugacy_classes())


@pytest.mark.parametrize("build", [lambda: cyclic(256), lambda: cyclic(257), lambda: symmetric(7)])
def test_products_agree_with_whole_rows_composed_in_wide_types(build):
    # |G| degree reaches 65,536 on C256, so any offset or label computed in
    # the image type would wrap
    group = build()
    rows = group.images.astype(np.int64)
    rng = np.random.default_rng(group.order)
    a, b = rng.integers(0, group.order, (2, 300))
    a[:2], b[:2] = group.order - 1, group.order - 2
    for wide in (np.int32, np.int64):
        composed = np.take_along_axis(rows[a], rows[b], axis=1).astype(wide)  # a(b(x))
        assert group.mul(a, b).tolist() == group.ids_of_rows(composed).tolist()
    squared = np.take_along_axis(rows[a], rows[a], axis=1)
    cubed = np.take_along_axis(rows[a], squared, axis=1)
    assert group.power(a, 3).tolist() == group.ids_of_rows(cubed).tolist()
    assert group.inverse.tolist() == group.ids_of_rows(np.argsort(rows, axis=1)).tolist()
    zs = [0, group.order - 1, *a[:3].tolist()]
    expected = [group.ids_of_rows(rows[:, rows[z]]) for z in zs]
    assert np.array_equal(group.mul(np.arange(group.order), np.array(zs)[:, None]), expected)


@pytest.mark.parametrize("wide", [np.int32, np.int64])
def test_a_row_that_only_wraps_into_an_element_is_refused(wide):
    group = cyclic(256)
    for point in (group._lookup[0][0], 200):
        row = group.images[3].astype(wide)
        row[point] += 256  # equal to images[3] once cast to uint8
        with pytest.raises(KeyError):
            group.ids_of_rows(row[None, :])


def test_classes_keep_rows_and_build_representatives_on_access():
    group = symmetric(5)
    for c in group.conjugacy_classes():
        assert c.row.dtype == group.images.dtype
        assert np.array_equal(c.row, group.images[c.element_ids[0]])
        assert Permutation(c.row.tolist()) == group.element(c.element_ids[0])
    first = group.conjugacy_classes()[1]
    assert first == ConjugacyClass(
        first.row[::-1], first.element_ids, first.order, first.powers
    )


def test_building_a_group_peaks_at_a_few_mib():
    # at int32 images the set's row keys and the layers peaked at 12.1 MiB
    tracemalloc.start()
    try:
        group = construct_case(CaseParams("a1", 5, 3, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group.order == 7750 and group.images.dtype == np.uint8
    assert peak < 6 * 2**20


def test_two_tables_agree_and_no_transform_is_kept_between_them():
    # the lift's inverse DFT is built per call, at every m: no matrix of one
    # table serves the next
    group = construct_case(CaseParams("a7", 2, 2, 1, 5))
    assert not hasattr(chartab._inverse_dft, "cache_info")
    assert character_table(group).text_lines() == character_table(group).text_lines()


def test_a_table_peaks_at_a_few_mb_above_its_start():
    # with the classes and the monomial tables built, what a7(h=5)'s table
    # (k = 567) allocates beside the arrays it keeps stays within one block:
    # a k x k table of -1s, a k x k int64 index of a combination's
    # expansion and int64 blocks of 2^20 cells once took it to 18.0 MB
    group = construct_case(CaseParams("a7", 2, 2, 1, 5))
    character_table(group)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        table = character_table(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.n_classes == 567
    assert peak - start < 12e6


def test_a_table_reads_monomial_tables_only_at_squarefree_conductors(monkeypatch):
    # Phi_m(x) = Phi_r(x^(m/r)), r = rad(m): the lift, the Galois check and
    # _normal_form read r's table at stride m / r, so no dense m x phi(m)
    # table is made at a class order m with a square factor
    seen, table_at = [], cyclotomic._monomial_table
    monkeypatch.setattr(cyclotomic, "_monomial_table", lambda r: seen.append(r) or table_at(r))
    group = construct_case(CaseParams("a7", 2, 2, 1, 4))
    assert any(max(factorize(c.order).values(), default=1) > 1 for c in group.conjugacy_classes())
    character_table(group)
    assert seen and all(max(factorize(r).values(), default=1) == 1 for r in seen)
    assert not hasattr(chartab, "_galois_image")
    table = table_at(max(seen))
    assert table.dtype == np.int64 and table.shape == (max(seen), phi(max(seen)))
    assert not table.flags.writeable
