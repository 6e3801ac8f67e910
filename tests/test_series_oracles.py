"""Centre, commutator series, nilpotency and solvability of the corpus
against sympy.combinatorics, an independent implementation."""
import pytest
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup

from galchar.corpus import CORPUS, build


@pytest.mark.parametrize("key", [entry.key for entry in CORPUS])
def test_series_match_sympy(key):
    group = build(key)
    gens = [SympyPermutation(list(g.images)) for g in group.generators]
    oracle = PermutationGroup(gens or [SympyPermutation(list(range(group.degree)))])
    assert group.center().order == oracle.center().order()
    assert group.derived_subgroup().order == oracle.derived_subgroup().order()
    assert [t.order for t in group.lower_central_series()] == [
        t.order() for t in _stable(oracle.lower_central_series())
    ]
    assert [t.order for t in group.derived_series()] == [
        t.order() for t in _stable(oracle.derived_series())
    ]
    assert group.is_nilpotent() == oracle.is_nilpotent
    assert group.is_solvable() == oracle.is_solvable


def _stable(series):
    """The terms up to the first repeat: galchar stops a series there."""
    out = [series[0]]
    for term in series[1:]:
        if term.order() == out[-1].order():
            break
        out.append(term)
    return out
