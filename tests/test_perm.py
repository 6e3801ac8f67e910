import json
import os
import subprocess
import sys
from itertools import combinations
from math import gcd

import numpy as np
import pytest

from galchar.constructors import (
    alternating,
    cyclic,
    dihedral,
    generalized_quaternion,
    heisenberg,
    quaternion8,
    symmetric,
)
from galchar.corpus import build
from galchar.perm import (
    OrderBoundExceeded,
    PermGroup,
    Permutation,
    Subgroup,
    direct_product,
    frattini_of_pgroup,
    group_from_dict,
    group_from_json,
    group_to_json,
    quotient_module_action,
)

from reference import (
    commutator,
    element_id,
    element_set,
    identity,
    inverse,
    order,
    power,
    subgroup,
    trivial_subgroup,
)


def test_permutation_basics():
    a = Permutation([1, 2, 0])
    b = Permutation([1, 0, 2])
    assert (a * b).images == (2, 1, 0)
    assert inverse(a) * a == identity(3)
    assert order(a) == 3
    assert power(a, 3).is_identity
    assert Permutation.from_cycles(3, (0, 1, 2)) == a
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


def test_group_from_generators_examples():
    s3 = PermGroup(3, [[1, 2, 0], [1, 0, 2]])
    assert s3.order == 6
    klein = PermGroup(4, [[1, 0, 3, 2], [2, 3, 0, 1]])
    assert klein.order == 4
    assert quaternion8().order == 8


def test_order_bound():
    with pytest.raises(OrderBoundExceeded):
        PermGroup(
            5, [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], order_bound=20
        )


def brute_force_classes(group):
    elements = group.elements
    leftover = set(range(group.order))
    classes = []
    while leftover:
        i = min(leftover)
        orbit = {
            element_id(group, g * elements[i] * inverse(g)) for g in elements
        }
        classes.append(frozenset(orbit))
        leftover -= orbit
    return set(classes)


@pytest.mark.parametrize("key", ["S3", "Q8", "C1", "A4", "SL(2,3)"])
def test_conjugacy_classes_match_brute_force(key):
    group = build(key)
    computed = {frozenset(c.element_ids) for c in group.conjugacy_classes()}
    assert computed == brute_force_classes(group)


def test_class_data_examples():
    assert sorted(c.size for c in symmetric(3).conjugacy_classes()) == [1, 2, 3]
    assert sorted(c.size for c in quaternion8().conjugacy_classes()) == [1, 1, 2, 2, 2]
    assert len(cyclic(1).conjugacy_classes()) == 1


def test_class_equation_and_power_maps():
    for key in ("S3", "Q8", "SL(2,3)", "V4:C9"):
        group = build(key)
        classes = group.conjugacy_classes()
        assert sum(c.size for c in classes) == group.order
        e, class_of = group.exponent, group.class_index_array()
        for c in classes:
            assert group.order % c.size == 0
            rep = group.element(c.element_ids[0])
            assert c.powers[1 % e] == class_of[element_id(group, rep)]
            assert c.powers[(c.order - 1) % e] == class_of[element_id(group, inverse(rep))]
            # power map composition: (rep^a)^b lands where rep^(ab) does
            for a in (2, 3):
                for b in (2, 5):
                    ca = classes[c.powers[a % e]]
                    assert ca.powers[b % e] == c.powers[(a * b) % e]


def test_derived_and_series():
    s3 = symmetric(3)
    assert s3.derived_subgroup().order == 3
    # brute-force oracle: subgroup generated by all commutators
    comms = [commutator(a, b) for a in s3.elements for b in s3.elements]
    assert element_set(s3.derived_subgroup()) == s3.close(comms)

    c6 = cyclic(6)
    series = c6.derived_series()
    assert len(series) == 2 and series[1].order == 1

    q8 = quaternion8()
    lcs = q8.lower_central_series()
    assert [t.order for t in lcs] == [8, 2, 1]

    sl23 = build("SL(2,3)")
    assert sl23.nilpotent_residue().order == 8
    assert symmetric(3).nilpotent_residue().order == 3


def test_nilpotent_solvable():
    assert quaternion8().is_nilpotent()
    assert not symmetric(3).is_nilpotent()
    assert symmetric(3).is_solvable()
    assert alternating(4).is_solvable()
    assert not symmetric(5).is_solvable()


def test_fitting_height():
    assert symmetric(3).has_fitting_height_at_most_two()
    assert not symmetric(4).has_fitting_height_at_most_two()
    assert quaternion8().has_fitting_height_at_most_two()
    with pytest.raises(ValueError):
        symmetric(5).has_fitting_height_at_most_two()


def test_residue_normality_and_quotient():
    for key in ("S3", "S4", "SL(2,3)", "V4:C9"):
        group = build(key)
        residue = group.nilpotent_residue()
        assert residue.is_normal()
        quotient, _ = group.quotient(residue)
        assert quotient.is_nilpotent()
        assert quotient.order * residue.order == group.order


def test_center_centralizer():
    q8 = quaternion8()
    assert q8.center().order == 2
    s3 = symmetric(3)
    a3 = subgroup(s3, [Permutation([1, 2, 0])])
    assert element_set(s3.centralizer(a3)) == element_set(a3)
    c6 = cyclic(6)
    assert c6.center().order == 6


def test_frattini():
    klein = PermGroup(4, [[1, 0, 3, 2], [2, 3, 0, 1]])
    assert frattini_of_pgroup(klein.full_subgroup(), 2).order == 1
    q8 = quaternion8()
    assert element_set(frattini_of_pgroup(q8.full_subgroup(), 2)) == element_set(q8.center())
    heis = heisenberg(3)
    fr = frattini_of_pgroup(heis.full_subgroup(), 3)
    assert fr.order == 3
    assert element_set(fr) == element_set(heis.derived_subgroup())
    with pytest.raises(ValueError):
        frattini_of_pgroup(symmetric(3).full_subgroup(), 2)


def all_subgroups(group):
    """Brute-force subgroup lattice by closing each found subgroup with one
    more element; fine for order <= 100."""
    found = {element_set(trivial_subgroup(group))}
    frontier = [element_set(trivial_subgroup(group))]
    while frontier:
        current = frontier.pop()
        for x in group.elements:
            if x in current:
                continue
            gens = [g for g in current if not g.is_identity][:3] + [x]
            closure = group.close(list(current) + [x])
            if closure not in found:
                found.add(closure)
                frontier.append(closure)
    return found


@pytest.mark.parametrize(
    "maker",
    [
        lambda: build("Q8"),
        lambda: build("D8"),
        lambda: build("Heis3"),
        lambda: build("C2xC2"),
        lambda: cyclic(8),
        lambda: cyclic(9),
        lambda: direct_product(cyclic(3), cyclic(9)),
        lambda: direct_product(quaternion8(), cyclic(2)),
    ],
)
def test_frattini_is_intersection_of_maximals(maker):
    group = maker()
    from galchar.numth import is_prime_power

    pp = is_prime_power(group.order)
    assert pp is not None
    subs = all_subgroups(group)
    maximals = [
        s
        for s in subs
        if len(s) < group.order
        and not any(len(s) < len(t) < group.order and s < t for t in subs)
    ]
    expected = frozenset.intersection(*(frozenset(m) for m in maximals))
    assert element_set(frattini_of_pgroup(group.full_subgroup(), pp[0])) == expected


def test_quotient_module_action_examples():
    a4 = alternating(4)
    v4 = a4.nilpotent_residue()
    u = trivial_subgroup(a4)
    h = [g for g in a4.elements if order(g) == 3][0]
    mats, basis, p, n = quotient_module_action(a4, v4, u, a4.ids_of([h]))
    assert (p, n) == (2, 2) and len(basis) == 2 and v4.contains(basis).all()
    m = mats[0]
    m2 = m @ m % 2
    m3 = m2 @ m % 2
    assert not np.array_equal(m, np.eye(2, dtype=np.int64))
    assert np.array_equal(m3, np.eye(2, dtype=np.int64))

    # trivial action: identity matrices
    mats, _, _, _ = quotient_module_action(a4, v4, u, [0])  # id 0 is the identity
    assert np.array_equal(mats[0], np.eye(2, dtype=np.int64))

    sl23 = build("SL(2,3)")
    q8 = sl23.nilpotent_residue()
    z = Subgroup(sl23, sl23.ids_of(
        [x for x in element_set(q8) if all(x * y == y * x for y in element_set(q8))]
    ))
    h3 = [g for g in sl23.elements if order(g) == 3][0]
    mats, _, p, n = quotient_module_action(sl23, q8, z, sl23.ids_of([h3]))
    assert (p, n) == (2, 2)
    m = mats[0]
    assert np.array_equal(m @ m % 2 @ m % 2, np.eye(2, dtype=np.int64))
    assert not np.array_equal(m, np.eye(2, dtype=np.int64))


def test_quotient_module_action_rejects_nonelementary():
    c8 = cyclic(8)
    full = c8.full_subgroup()
    triv = trivial_subgroup(c8)
    with pytest.raises(ValueError):
        quotient_module_action(c8, full, triv, [0])


def test_structure_tests():
    assert cyclic(6).full_subgroup().is_cyclic()
    assert quaternion8().full_subgroup().is_generalized_quaternion()
    assert generalized_quaternion(16).full_subgroup().is_generalized_quaternion()
    assert not dihedral(4).full_subgroup().is_generalized_quaternion()
    assert not cyclic(8).full_subgroup().is_generalized_quaternion()
    syl = build("C3xQ8").full_subgroup().sylow_decomposition()
    assert sorted((p, s.order) for p, s in syl.items()) == [(2, 8), (3, 3)]
    with pytest.raises(ValueError):
        symmetric(3).full_subgroup().sylow_decomposition()


def test_subgroup_equality_by_elements():
    s3 = symmetric(3)
    a = subgroup(s3, [Permutation([1, 2, 0])])
    b = subgroup(s3, [Permutation([2, 0, 1])])
    assert a == b
    assert a.gen_ids.tolist() != b.gen_ids.tolist()


def test_direct_product():
    g = direct_product(cyclic(3), quaternion8())
    assert g.order == 24
    assert g.is_nilpotent()


def test_groupfile_roundtrip(tmp_path):
    s3 = symmetric(3)
    text = group_to_json(s3)
    doc = json.loads(text)
    assert doc["degree"] == 3 and doc["name"] == "S3"
    back = group_from_json(text)
    assert back.order == 6
    assert back.generators == s3.generators
    # byte-exact round trip through the parsed form
    assert group_to_json(back) == text
    path = tmp_path / "s3.json"
    path.write_text(text)
    assert group_from_json(path.read_text()).order == 6


def test_quotient_cosets_deterministic():
    s4 = symmetric(4)
    v4 = s4._normal_closure(s4.ids_of([Permutation([1, 0, 3, 2])]), s4.gen_ids)
    assert v4.order == 4
    q1, _ = s4.quotient(v4)
    q2, _ = s4.quotient(v4)
    assert [g.images for g in q1.generators] == [g.images for g in q2.generators]
    assert q1.order == 6


_NEGATIVE_POWERS = """
import numpy as np
from galchar import fpmat
from galchar.constructors import symmetric
for call in (lambda: symmetric(3).power([1], -1),
             lambda: fpmat.mat_pow(np.eye(2, dtype=np.int64), -1, 3)):
    try:
        call()
    except ValueError as exc:
        print(exc)
"""


def test_negative_exponents_raise_instead_of_looping():
    # run apart with a timeout: halving -1 stays -1, so a loop on n >>= 1 never ends
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", _NEGATIVE_POWERS],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["negative exponent"] * 2
