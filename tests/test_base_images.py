"""The per-element passes read off base images: orbit labels by hooking
against a breadth-first oracle, the trivial group's empty base, a group
whose base has several points and whose right multiplications come in
several blocks, and subgroups given unsorted or repeated ids."""
import time

import numpy as np
import pytest

from galchar.chartab import character_table
from galchar.constructors import symmetric
from galchar.perm import _BLOCK_CELLS, PermGroup, Subgroup, orbit_labels


def bfs_labels(n: int, maps) -> list[int]:
    """Orbit numbers by a breadth-first walk from each unlabelled id, in
    increasing order: the least id of each orbit opens it."""
    maps = [list(m) for m in maps]
    label, count = [-1] * n, 0
    for start in range(n):
        if label[start] < 0:
            label[start], walk = count, [start]
            for x in walk:
                for m in maps:
                    if label[m[x]] < 0:
                        label[m[x]] = count
                        walk.append(m[x])
            count += 1
    return label


def shuffled_cycle(rng, n):
    order = rng.permutation(n)
    out = np.empty(n, dtype=np.int64)
    out[order] = np.roll(order, 1)
    return out


def involution(rng, n):
    """Swaps the points of disjoint random pairs covering about half the ids."""
    order, out = rng.permutation(n), np.arange(n)
    a, b = order[: n // 2 : 2], order[1 : n // 2 : 2]
    out[a], out[b] = b, a
    return out


def mostly_fixed(rng, n):
    out, moved = np.arange(n), rng.choice(n, 12, replace=False)
    out[moved] = np.roll(moved, 1)
    return out


MAPS = {
    "shuffled cycle": lambda rng, n: [shuffled_cycle(rng, n)],
    "two random permutations": lambda rng, n: [rng.permutation(n), rng.permutation(n)],
    "involutions": lambda rng, n: [involution(rng, n), involution(rng, n)],
    "mostly fixed": lambda rng, n: [mostly_fixed(rng, n)],
}


@pytest.mark.parametrize("kind", sorted(MAPS))
def test_orbit_labels_match_breadth_first_search(kind):
    n = 100_000
    maps = MAPS[kind](np.random.default_rng(len(kind)), n)
    t0 = time.perf_counter()
    labels = orbit_labels(n, maps)
    assert time.perf_counter() - t0 < 10.0
    assert labels.tolist() == bfs_labels(n, maps)


def test_orbit_labels_take_lists_and_no_maps():
    assert orbit_labels(4, [[1, 0, 2, 3]]).tolist() == [0, 0, 1, 2]
    assert orbit_labels(3, []).tolist() == [0, 1, 2]


@pytest.mark.parametrize("degree", [1, 3])
def test_trivial_group_has_an_empty_base(degree):
    group = PermGroup(degree, [])
    assert group.order == 1 and group._lookup == ([], [])
    assert group.inverse.tolist() == [0]
    assert group.rank.tolist() == [0]
    assert group.mul([0], np.zeros((2, 1), dtype=np.int64)).tolist() == [[0], [0]]
    (cls,) = group.conjugacy_classes()
    assert (cls.element_ids, cls.order, cls.power_map) == ((0,), 1, (0,))
    table = character_table(group)
    assert table.degrees == [1] and table.text_lines()[-1] == "X0[1]: 1"


def test_a_long_base_and_blocks_of_right_multiplications():
    group = symmetric(6)
    assert len(group._lookup[0]) >= 3
    rows = group.images
    assert group.inverse.tolist() == group.ids_of_rows(np.argsort(rows, axis=1)).tolist()
    by_tuple = sorted(range(group.order), key=lambda i: tuple(rows[i].tolist()))
    assert np.argsort(group.rank).tolist() == by_tuple
    zs = np.random.default_rng(6).integers(0, group.order, 3 * _BLOCK_CELLS // group.order)
    expected = [group.ids_of_rows(rows[:, rows[z]]) for z in zs]
    assert np.array_equal(group.mul(np.arange(group.order), zs[:, None]), expected)


def test_subgroups_from_unsorted_or_repeated_ids():
    group = symmetric(4)
    ids = group.closure([1])
    shuffled = np.random.default_rng(4).permutation(np.repeat(ids, 2))
    sub = Subgroup(group, shuffled)
    assert sub.ids.tolist() == ids.tolist()
    assert sub == Subgroup(group, ids) and hash(sub) == hash(Subgroup(group, ids))
    assert Subgroup(group, [3, 0, 3]).ids.tolist() == [0, 3]
    assert group.mask(shuffled).sum() == len(ids)
