"""Elements found by their base images, against a reference that composes
whole image rows and finds them in a dict keyed by row bytes; and the checks
the lookup keeps, each shown to fail."""
import numpy as np
import pytest

from galchar.constructors import affine_semidirect, singer_matrix, symmetric
from galchar.corpus import CORPUS, build
from galchar.perm import PermGroup, Permutation, _base_lookup
from test_metamorphic import relabelling


def c2_14() -> PermGroup:
    """The cell-budget group of test_power_maps: 14 disjoint transpositions."""
    gens = [[2 * i + 1 if x == 2 * i else 2 * i if x == 2 * i + 1 else x for x in range(28)]
            for i in range(14)]
    return PermGroup(28, gens)


def agl_3_2() -> PermGroup:
    transvection = np.eye(3, dtype=np.int64)
    transvection[0, 1] = 1
    return affine_semidirect(2, 3, [singer_matrix(2, 3), transvection])


BUILDERS = {e.key: (lambda key=e.key: build(key)) for e in CORPUS}
BUILDERS.update({"S7": lambda: symmetric(7), "AGL(3,2)": agl_3_2, "C2^14": c2_14})


class Reference:
    """Products of whole image rows, found by their bytes."""

    def __init__(self, group: PermGroup):
        self.rows = group.images
        self.id_of = {row.tobytes(): i for i, row in enumerate(self.rows)}

    def find(self, row) -> int:
        return self.id_of[np.asarray(row, dtype=np.int32).tobytes()]

    def mul(self, *ids) -> int:
        row = np.arange(self.rows.shape[1])
        for i in reversed(ids):  # (a * b)(x) = a(b(x))
            row = self.rows[i][row]
        return self.find(row)

    def inverse(self, i) -> int:
        return self.find(np.argsort(self.rows[i]))

    def right_multiplication(self, z) -> list[int]:
        return [self.find(row) for row in self.rows[:, self.rows[z]]]


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("key", sorted(BUILDERS))
def test_products_match_the_whole_row_reference(key, relabel):
    group = BUILDERS[key]()
    if relabel:
        group = relabelling(group, seed=len(key))[0]
    ref = Reference(group)
    rng = np.random.default_rng(len(key))
    a, b, c = rng.integers(0, group.order, (3, 200))
    assert group.mul(a, b).tolist() == [ref.mul(x, y) for x, y in zip(a, b)]
    assert group.mul(a, b, c).tolist() == [ref.mul(x, y, z) for x, y, z in zip(a, b, c)]
    assert group.conj(a, b).tolist() == [ref.mul(x, y, ref.inverse(x)) for x, y in zip(a, b)]
    for n in (0, 1, 2, 3, 7):
        assert group.power(a, n).tolist() == [ref.mul(*[x] * n) for x in a]
    assert group.inverse.tolist() == [ref.inverse(x) for x in range(group.order)]
    zs = [0, *a[:3].tolist()]
    assert group.right_multiplication(zs).tolist() == [ref.right_multiplication(z) for z in zs]


def test_c2_14_keys_are_its_exponent_vectors():
    # orbit-rank digits: 14 base points with orbits of 2, so |G| = 2^14 keys
    # where digits in base degree would need 28^14 > 2^63
    group = c2_14()
    base, _digits, keys, _ids = group._lookup
    assert base == list(range(0, 28, 2))
    assert keys.tolist() == list(range(2**14))


def test_wrapped_keys_when_the_radix_overflows():
    # 64 two-valued digits: the orbit sizes multiply to 2^64, so the digits
    # take fixed odd multipliers and the sums wrap
    rng = np.random.default_rng(0)
    images = np.unique(rng.integers(0, 2, (3000, 64), dtype=np.int32), axis=0)
    digits, keys, ids = _base_lookup(images, list(range(64)))
    assert (digits[:, 1].view(np.uint64) % 2 == 1).all()
    key = digits[np.arange(64), images].sum(axis=1)
    assert np.array_equal(ids[np.searchsorted(keys, key)], np.arange(len(images)))
    with pytest.raises(ValueError, match="do not tell the elements apart"):
        _base_lookup(np.concatenate([images, images[:1]]), list(range(64)))


def c3_on_5() -> PermGroup:
    return PermGroup(5, [Permutation.from_cycles(5, (0, 1, 2))])


def test_rows_from_outside_are_compared_whole():
    group = c3_on_5()
    outsider = Permutation.from_cycles(5, (0, 1, 2), (3, 4))
    inside = Permutation.from_cycles(5, (0, 1, 2))
    base = group._lookup[0]
    assert [outsider(b) for b in base] == [inside(b) for b in base]  # same base images
    assert inside in group and outsider not in group
    with pytest.raises(KeyError):
        group.ids_of_rows(np.array([outsider.images]))
    with pytest.raises(KeyError):
        group.element_id(outsider)
    with pytest.raises(KeyError):
        group.ids_of([inside, outsider])
    assert group.ids_of_rows(np.array([inside.images])).tolist() == [group.element_id(inside)]


def test_rows_of_another_degree_are_rejected():
    group = c3_on_5()
    for degree in (3, 6):
        assert Permutation.identity(degree) not in group
        with pytest.raises(KeyError):
            group.ids_of_rows(np.arange(degree)[None, :])


def test_distinctness_check_rejects_points_that_are_not_a_base():
    group = c3_on_5()
    with pytest.raises(ValueError, match="do not tell the elements apart"):
        _base_lookup(group.images, [3])  # a fixed point
    group = c2_14()
    with pytest.raises(ValueError, match="do not tell the elements apart"):
        _base_lookup(group.images, list(range(0, 26, 2)))  # 13 of the 14 base points


def test_a_key_miss_in_a_product_raises():
    group = symmetric(4)
    base, digits, keys, ids = group._lookup
    gone = int(group.mul(1, 2))
    at = int(np.flatnonzero(ids == gone)[0])
    group.__dict__["_lookup"] = (base, digits, np.delete(keys, at), np.delete(ids, at))
    others = [x for x in range(group.order) if x != gone]
    assert group.mul(0, others).tolist() == others  # 0 is the identity
    with pytest.raises(KeyError):
        group.mul(1, 2)
    with pytest.raises(KeyError):
        group.mul(np.arange(group.order), 2)
