"""The id core of galchar.perm: elements are ids into the image array, and
every internal product goes through PermGroup.mul.  The plain Permutation
loops below are the references the vectorised routines must match."""
import math

import numpy as np
import pytest

from galchar.chartab import character_table
from galchar.classify import analyze_structure
from galchar.constructors import cyclic, symmetric
from galchar.corpus import CORPUS, build
from galchar.perm import OrderBoundExceeded, PermGroup, Permutation

from reference import commutator, element_id, element_set, identity, inverse, member, subgroup


def reference_elements(group):
    """Breadth-first over the generators with Permutation products."""
    elements = [identity(group.degree)]
    seen = {elements[0]}
    frontier = list(elements)
    while frontier:
        nxt = []
        for x in frontier:
            for g in group.generators:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    elements.append(y)
                    nxt.append(y)
        frontier = nxt
    return elements


def reference_closure(gens, identity):
    closure, frontier = {identity}, [identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            if x * g not in closure:
                closure.add(x * g)
                frontier.append(x * g)
    return closure


@pytest.mark.parametrize("key", ["S3", "Q16", "Heis3:C8", "Q8:C9", "A4xC2"])
def test_ids_follow_the_breadth_first_order(key):
    group = build(key)
    assert group.elements == reference_elements(group)


@pytest.mark.parametrize("key", ["S4", "SL(2,3)", "Heis3:Q8"])
def test_products_match_permutation_arithmetic(key):
    group = build(key)
    rng = np.random.default_rng(7)
    a, b = rng.integers(0, group.order, (2, 40))
    elements = group.elements
    for x, y, xy, c, sq, cube in zip(
        a, b, group.mul(a, b), group.comm(a, b), group.power(a, 2), group.power(a, 3)
    ):
        x, y = elements[x], elements[y]
        assert elements[xy] == x * y
        assert elements[c] == commutator(x, y)
        assert elements[sq] == x * x and elements[cube] == x * x * x
    assert all(elements[i] == inverse(e) for i, e in zip(group.inverse, elements))


@pytest.mark.parametrize("key", ["S4", "Heis3:Q8"])
def test_closure_and_cosets_match_the_reference(key):
    group = build(key)
    elements = group.elements
    rng = np.random.default_rng(3)
    for size in (1, 2):
        gens = rng.integers(0, group.order, size)
        ids = group.closure(gens)
        expected = reference_closure([elements[g] for g in gens], elements[0])
        assert {elements[i] for i in ids} == expected
        cap = len(expected)
        assert group.closure(gens, cap=cap) is not None
        assert cap == 1 or group.closure(gens, cap=cap - 1) is None
    normal = group.nilpotent_residue()
    labels = group.coset_labels(normal)
    for x in range(group.order):
        coset = [elements[x] * u for u in element_set(normal)]
        assert labels[x] == min(group.rank[element_id(group, y)] for y in coset)


def test_order_bound_is_exact():
    gens = [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]
    assert PermGroup(5, gens, order_bound=120).order == 120
    with pytest.raises(OrderBoundExceeded):
        PermGroup(5, gens, order_bound=119)


def test_membership_outside_the_group():
    c4 = cyclic(4)
    transposition = Permutation([1, 0, 2, 3])
    assert member(Permutation([1, 2, 3, 0]), c4)
    assert not member(transposition, c4)
    assert not member(Permutation([1, 0, 2]), c4)
    with pytest.raises(ValueError):
        subgroup(c4, [transposition])
    assert not member(transposition, subgroup(symmetric(4), [Permutation([1, 2, 0, 3])]))


@pytest.mark.parametrize("key", [entry.key for entry in CORPUS])
def test_normal_closures_have_few_generators(key):
    group = build(key)
    terms = group.lower_central_series() + group.derived_series()
    terms += [group._normal_closure([g], group.gen_ids) for g in group.gen_ids]
    for term in terms:
        assert len(term.gen_ids) <= math.log2(term.order), term


@pytest.mark.parametrize("key, case", [("Heis3:Q8", "a6"), ("Q8:C9", "a7")])
def test_no_permutation_products(monkeypatch, key, case):
    built = build(key)
    products = []
    multiply = Permutation.__mul__

    def counted(a, b):
        products.append(1)
        return multiply(a, b)

    monkeypatch.setattr(Permutation, "__mul__", counted)
    group = PermGroup(built.degree, built.generators)
    group.conjugacy_classes()
    report = analyze_structure(group, character_table(group))
    assert report.case_tag == case
    assert len(products) == 0


def test_elements_validate_no_row(monkeypatch):
    # the rows are permutations by construction, as element() has them
    group = build("Heis3:C8")
    expected = reference_elements(group)
    validated = []
    init = Permutation.__init__

    def counted(self, images):
        validated.append(1)
        init(self, images)

    monkeypatch.setattr(Permutation, "__init__", counted)
    assert group.elements == expected
    assert validated == []
