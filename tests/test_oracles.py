"""Class data against sympy.combinatorics, and normality that can fail."""
import pytest
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup

from galchar.constructors import symmetric
from galchar.corpus import CORPUS, build
from galchar.perm import Permutation, Subgroup

from reference import subgroup


@pytest.mark.parametrize("key", [entry.key for entry in CORPUS])
def test_class_sizes_and_orders_match_sympy(key):
    group = build(key)
    gens = [SympyPermutation(list(g.images)) for g in group.generators]
    oracle = PermutationGroup(gens or [SympyPermutation(list(range(group.degree)))])
    assert oracle.order() == group.order
    theirs = sorted(
        (next(iter(c)).order(), len(c)) for c in oracle.conjugacy_classes()
    )
    ours = sorted((c.order, c.size) for c in group.conjugacy_classes())
    assert ours == theirs


def test_is_normal_requires_closure():
    s4 = symmetric(4)
    transpositions = [
        x for x in s4.elements if sum(i != y for i, y in enumerate(x.images)) == 2
    ]
    assert len(transpositions) == 6
    # closed under conjugation, but not under products
    not_closed = Subgroup(s4, [0, *s4.ids_of(transpositions).tolist()])
    assert not not_closed.is_normal()
    v4 = subgroup(
        s4,
        [
            Permutation.from_cycles(4, (0, 1), (2, 3)),
            Permutation.from_cycles(4, (0, 2), (1, 3)),
        ]
    )
    assert v4.order == 4
    assert v4.is_normal()
    # closed under products, but not normal
    assert not subgroup(s4, [Permutation.from_cycles(4, (0, 1))]).is_normal()
