"""Elements found by their base images, against a reference that composes
whole image rows and finds them in a dict keyed by row bytes; the size of the
base tables and their rows of -1; and the checks the lookup keeps, each shown
to fail."""
import numpy as np
import pytest

from galchar.constructors import affine_semidirect, singer_matrix, symmetric
from galchar.corpus import CORPUS, build
from galchar.perm import PermGroup, Permutation, _base_tables
from reference import element_id, identity, member
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
        self.id_of = {self.key(row): i for i, row in enumerate(self.rows)}

    @staticmethod
    def key(row) -> bytes:
        """The row's int32 bytes, whatever its type."""
        return np.asarray(row, dtype=np.int32).tobytes()

    def find(self, row) -> int:
        return self.id_of[self.key(row)]

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
    xs, ys = a[:12], np.concatenate([b[:6], group.power(a[:6], 2)])
    assert group.commuting(xs, ys).tolist() == [
        [ref.mul(x, y) == ref.mul(y, x) for y in ys] for x in xs
    ]
    zs = [0, *a[:3].tolist()]
    right = group.mul(np.arange(group.order), np.array(zs)[:, None])  # [i, x] = x * z_i
    assert right.tolist() == [ref.right_multiplication(z) for z in zs]


def walk(base, tables, rows) -> np.ndarray:
    """The labels the base images of rows reach through the tables."""
    label = np.zeros(len(rows), dtype=np.int64)
    for b, table in zip(base, tables):
        label = table[label * rows.shape[1] + rows[:, b]]
    return label


@pytest.mark.parametrize("key", sorted(BUILDERS))
def test_tables_hold_at_most_order_times_degree_cells(key):
    group = BUILDERS[key]()
    base, tables = group._lookup
    assert sum(len(t) - group.degree for t in tables) <= group.order * group.degree
    assert np.array_equal(walk(base, tables, group.images), np.arange(group.order))


@pytest.mark.parametrize("key", sorted(BUILDERS))
def test_every_table_ends_in_a_row_of_minus_ones(key):
    group = BUILDERS[key]()
    for table in group._lookup[1]:
        assert len(table) % group.degree == 0
        assert (table[-group.degree:] == -1).all()


def test_c2_14_base_is_its_even_points_and_tables_are_smaller_than_its_images():
    # each even point halves the classes: 1 + 2 + ... + 2^13 classes of 28 cells
    group = c2_14()
    base, tables = group._lookup
    assert base == list(range(0, 28, 2))
    assert [len(t) - 28 for t in tables] == [2**i * 28 for i in range(14)]
    assert sum(len(t) - 28 for t in tables) == (2**14 - 1) * 28 < group.images.size


@pytest.mark.parametrize("key", ["S4", "AGL(3,2)", "C2^14"])
def test_a_row_that_leaves_the_tables_at_any_level_raises(key):
    # a row that agrees with an element up to base level i and then reads a
    # -1 cell: its -1 label reads each later table's row of -1s, and the
    # lookup refuses it at the end
    group = BUILDERS[key]()
    base, tables = group._lookup
    deg, rng = group.degree, np.random.default_rng(len(key))
    levels = set()
    for i, table in enumerate(tables):
        label = walk(base[:i], tables, group.images)
        cells = table[label[:, None] * deg + np.arange(deg)]  # [x, image at base[i]]
        leaves = np.flatnonzero((cells < 0).any(axis=1))
        if i > 0:  # an image of base[0] again is no permutation
            assert len(leaves) == group.order
        if not len(leaves):
            continue
        levels.add(i)
        rows = group.images[leaves].astype(np.int64)
        rows[:, base[i]] = (cells[leaves] < 0).argmax(axis=1)
        assert (walk(base, tables, rows) == -1).all()
        for row in rows[rng.choice(len(rows), min(len(rows), 24), replace=False)]:
            with pytest.raises(KeyError):
                group.ids_of_rows(row[None, :])
            with pytest.raises(KeyError):
                group._ids_of_base_images(row[base])
    transitive = key != "C2^14"  # so every cell of the first table is filled
    assert levels == set(range(int(transitive), len(tables)))


def two_valued_rows() -> np.ndarray:
    """Distinct random rows of 64 two-valued columns, not a group: the values
    of the columns multiply to 2^64, and no number is formed from them all."""
    rng = np.random.default_rng(0)
    return np.unique(rng.integers(0, 2, (3000, 64), dtype=np.int32), axis=0)


def test_64_two_valued_columns_are_found_at_their_own_index():
    images = two_valued_rows()
    base, tables = _base_tables(images)
    assert np.array_equal(walk(base, tables, images), np.arange(len(images)))


def test_a_duplicated_row_raises():
    for rows in (two_valued_rows(), symmetric(4).images, c3_on_5().images):
        with pytest.raises(ValueError, match="two rows are equal"):
            _base_tables(np.concatenate([rows, rows[-1:]]))


def c3_on_5() -> PermGroup:
    return PermGroup(5, [Permutation.from_cycles(5, (0, 1, 2))])


def test_rows_from_outside_are_compared_whole():
    group = c3_on_5()
    outsider = Permutation.from_cycles(5, (0, 1, 2), (3, 4))
    inside = Permutation.from_cycles(5, (0, 1, 2))
    base = group._lookup[0]
    # the same base images
    assert [outsider.images[b] for b in base] == [inside.images[b] for b in base]
    assert member(inside, group) and not member(outsider, group)
    with pytest.raises(KeyError):
        group.ids_of_rows(np.array([outsider.images]))
    with pytest.raises(KeyError):
        element_id(group, outsider)
    with pytest.raises(KeyError):
        group.ids_of([inside, outsider])
    assert group.ids_of_rows(np.array([inside.images])).tolist() == [element_id(group, inside)]


def test_rows_of_another_degree_are_rejected():
    group = c3_on_5()
    for degree in (3, 6):
        assert not member(identity(degree), group)
        with pytest.raises(KeyError):
            group.ids_of_rows(np.arange(degree)[None, :])


def test_a_blank_table_cell_makes_exactly_its_products_raise():
    group = symmetric(4)
    base, tables = group._lookup
    gone = int(group.mul(1, 2))
    assert len(base) == 3
    for level in range(len(base)):  # two intermediate tables and the last
        label = walk(base[:level], tables, group.images)
        cells = label * group.degree + group.images[:, base[level]]
        blanked = [t.copy() for t in tables]
        blanked[level][cells[gone]] = -1
        reached = cells == cells[gone]  # the elements agreeing with gone up to base[level]
        assert reached.sum() == [6, 2, 1][level]
        group.__dict__["_lookup"] = (base, blanked)
        for x in range(group.order):
            if reached[x]:
                with pytest.raises(KeyError):
                    group.mul(0, x)  # 0 is the identity
            else:
                assert group.mul(0, x) == x
        with pytest.raises(KeyError):
            group.mul(1, 2)
        with pytest.raises(KeyError):
            group.mul(np.arange(group.order), 2)


@pytest.mark.parametrize("key", ["S4", "SL(2,3)", "Heis3:Q8", "C3^2:Q8", "Q8:C9", "C2^14", "AGL(3,2)"])
def test_mul_is_the_lookup_of_the_composed_rows(key):
    # mul walks the tables without testing each label, so an oracle that
    # composes whole image rows and looks them up with every check
    group = BUILDERS[key]()
    rng = np.random.default_rng(17)
    a, b = rng.integers(0, group.order, (2, 300))
    rows = np.take_along_axis(group.images[a], group.images[b], axis=1)  # a(b(x))
    assert group.mul(a, b).tolist() == group.ids_of_rows(rows).tolist()
    scalars = [int(group.mul(int(x), int(y))) for x, y in zip(a[:20], b[:20])]
    assert scalars == group.mul(a, b)[:20].tolist()
