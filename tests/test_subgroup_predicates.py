"""Subgroup predicates read off element orders: nilpotent and cyclic against
sympy, generalized quaternion against its definition by structure."""
import pytest
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup

from galchar.classify import find_complement
from galchar.constructors import cyclic, generalized_quaternion
from galchar.corpus import CORPUS
from galchar.numth import is_prime_power
from galchar.perm import direct_product
from test_power_maps import SWEEP, _group


def _oracle(sub) -> PermutationGroup:
    gens = [SympyPermutation(sub.parent.images[i].tolist()) for i in sub.gen_ids]
    return PermutationGroup(gens or [SympyPermutation(list(range(sub.parent.degree)))])


def _quaternion_by_structure(oracle: PermutationGroup) -> bool:
    """A nonabelian 2-group of order >= 8 with one involution and an element
    of order |P|/2."""
    n = oracle.order()
    pp = is_prime_power(n)
    if pp is None or pp[0] != 2 or n < 8 or oracle.is_abelian:
        return False
    orders = [g.order() for g in oracle.elements]
    return orders.count(2) == 1 and n // 2 in orders


def _subgroups(group):
    """The whole group, its nilpotent residue P and, where P is a normal
    Sylow subgroup, a complement H and, for a nilpotent H, its Sylow
    subgroups."""
    residue = group.nilpotent_residue()
    out = [group.full_subgroup(), residue]
    pp = is_prime_power(residue.order)
    if pp is not None and (group.order // residue.order) % pp[0]:
        hsub = find_complement(group, residue)
        out.append(hsub)
        if hsub.is_nilpotent():
            out += hsub.sylow_decomposition().values()
    return out


def _check(sub):
    oracle = _oracle(sub)
    assert oracle.order() == sub.order
    assert sub.is_nilpotent() == oracle.is_nilpotent
    assert sub.is_cyclic() == oracle.is_cyclic
    assert sub.is_generalized_quaternion() == _quaternion_by_structure(oracle)


@pytest.mark.parametrize("key", [e.key for e in CORPUS] + sorted(SWEEP))
def test_predicates_match_the_oracles(key):
    group = _group(key)
    subs = _subgroups(group)
    for sub in subs:
        _check(sub)
    whole = subs[0]
    assert group.is_nilpotent() == whole.is_nilpotent()


def test_a2_complements_have_their_sylow_subgroups_checked():
    for key in [k for k in SWEEP if k.startswith("a2")]:
        subs = _subgroups(SWEEP[key])
        assert len(subs) > 3 and any(s.is_generalized_quaternion() for s in subs)


@pytest.mark.parametrize(
    "group, quaternion, cyclic_",
    [
        (direct_product(cyclic(2), cyclic(4)), False, False),  # three involutions
        (generalized_quaternion(16), True, False),
        (cyclic(8), False, True),
    ],
    ids=["C2xC4", "Q16", "C8"],
)
def test_small_two_groups(group, quaternion, cyclic_):
    sub = group.full_subgroup()
    _check(sub)
    assert sub.is_generalized_quaternion() == quaternion
    assert sub.is_cyclic() == cyclic_
    assert sub.is_nilpotent()
