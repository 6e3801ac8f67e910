"""The theorem check against groups no constructor builds: direct products
with P = C_p, U = 1 and C = C_H(P) != 1 (the n = 1 family of case a3), the
corpus's case positives times small cyclic groups, and random subgroups of
S_5..S_10, each of which must classify with no theorem violation."""
import random

import numpy as np
import pytest

from galchar.chartab import character_table
from galchar.classify import analyze_structure
from galchar.cli import main
from galchar.constructors import affine_semidirect, cyclic, dihedral, quaternion8, symmetric
from galchar.corpus import build
from galchar.perm import OrderBoundExceeded, PermGroup, direct_product, save_group


def _c7_c3():
    return affine_semidirect(7, 1, [np.array([[2]], dtype=np.int64)], 1)


def _f5_c4():
    return affine_semidirect(5, 1, [np.array([[2]], dtype=np.int64)], 1)


def _dic3():
    # (0 1 2) and (1 2)(3 4 5 6): the order-4 element inverts the 3-cycle
    return PermGroup(7, [[1, 2, 0, 3, 4, 5, 6], [0, 2, 1, 4, 5, 6, 3]])


# name -> (builder, |G|, p, d, |H|, |C|): H a Sylow q-subgroup, |H/C| = q prime
N1_POSITIVES = {
    "S3xC2": (lambda: direct_product(symmetric(3), cyclic(2)), 12, 3, 1, 4, 2),
    "S3xC4": (lambda: direct_product(symmetric(3), cyclic(4)), 24, 3, 1, 8, 4),
    "S3xC2xC2": (
        lambda: direct_product(direct_product(symmetric(3), cyclic(2)), cyclic(2)), 24, 3, 1, 8, 4,
    ),
    "S3xQ8": (lambda: direct_product(symmetric(3), quaternion8()), 48, 3, 1, 16, 8),
    "D10xC2": (lambda: direct_product(dihedral(5), cyclic(2)), 20, 5, 2, 4, 2),
    "Dic3": (_dic3, 12, 3, 1, 4, 2),
    "C7:C3xC3": (lambda: direct_product(_c7_c3(), cyclic(3)), 63, 7, 2, 9, 3),
    "C7:C3xC9": (lambda: direct_product(_c7_c3(), cyclic(9)), 189, 7, 2, 27, 9),
}

# a q'-factor, or |H/C| not prime: not one Galois class
N1_NEGATIVES = {
    "S3xC3": lambda: direct_product(symmetric(3), cyclic(3)),
    "C7:C3xC2": lambda: direct_product(_c7_c3(), cyclic(2)),
    "F5:C4xC2": lambda: direct_product(_f5_c4(), cyclic(2)),
}


@pytest.mark.parametrize("name", N1_POSITIVES)
def test_n1_family_is_case_a3(name):
    build, order, p, d, order_h, order_c = N1_POSITIVES[name]
    group = build()
    report = analyze_structure(group, character_table(group))
    assert group.order == order
    assert report.theorem_violation is None
    assert (report.verdict, report.case_tag) == ("SingleGaloisClass", "a3")
    assert (report.p, report.n, report.d) == (p, 1, d)
    assert (report.order_U, report.order_H, report.order_C) == (1, order_h, order_c)
    assert all(report.checklist.values())


@pytest.mark.parametrize("name", N1_NEGATIVES)
def test_n1_near_misses_stay_negative(name):
    group = N1_NEGATIVES[name]()
    report = analyze_structure(group, character_table(group))
    assert report.theorem_violation is None
    assert (report.verdict, report.case_tag) == ("NotSingleClass", None)


@pytest.mark.parametrize("name", ["S3xC2", "Dic3"])
def test_classify_exits_0_on_the_n1_family(name, tmp_path, capsys):
    path = tmp_path / "group.json"
    save_group(N1_POSITIVES[name][0](), path)
    assert main(["classify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "case: a3  (p=3, n=1, d=1)" in out and "THEOREM-VIOLATION" not in out


# the corpus's CASES positives times C_m: (verdict, case tag, (p, n, d)), as
# the recognizer gave them when it restated the cases' rules.  A factor C3 or
# C9 of V4:C9, SL(2,3) or Q8:C9 keeps H a 3-group with |H/C| = 3, so the
# C > 1 cases a3 and a7; no other product is one Galois class
NEAR_MISSES = {
    ("F8:C7", 2): ("NotSingleClass", None, (None, None, 2)),
    ("F8:C7", 3): ("NotSingleClass", None, (2, None, 3)),
    ("F8:C7", 5): ("NotSingleClass", None, (2, None, 5)),
    ("F8:C7", 9): ("NotSingleClass", None, (2, None, 9)),
    ("C3^2:Q8", 2): ("NotSingleClass", None, (3, None, 2)),
    ("C3^2:Q8", 3): ("NotSingleClass", None, (None, None, 3)),
    ("C3^2:Q8", 5): ("NotSingleClass", None, (3, None, 5)),
    ("C3^2:Q8", 9): ("NotSingleClass", None, (None, None, 9)),
    ("V4:C9", 2): ("NotSingleClass", None, (None, None, 2)),
    ("V4:C9", 3): ("SingleGaloisClass", "a3", (2, 2, 1)),
    ("V4:C9", 5): ("NotSingleClass", None, (2, None, 5)),
    ("V4:C9", 9): ("SingleGaloisClass", "a3", (2, 2, 1)),
    ("Heis3:C8", 2): ("NotSingleClass", None, (3, None, 2)),
    ("Heis3:C8", 3): ("NotSingleClass", None, (None, None, 3)),
    ("Heis3:C8", 5): ("NotSingleClass", None, (3, None, 5)),
    ("Heis3:C8", 9): ("NotSingleClass", None, (None, None, 9)),
    ("SL(2,3)", 2): ("NotSingleClass", None, (None, None, 2)),
    ("SL(2,3)", 3): ("SingleGaloisClass", "a7", (2, 2, 1)),
    ("SL(2,3)", 5): ("NotSingleClass", None, (2, None, 5)),
    ("SL(2,3)", 9): ("SingleGaloisClass", "a7", (2, 2, 1)),
    ("Heis3:Q8", 2): ("NotSingleClass", None, (3, None, 2)),
    ("Heis3:Q8", 3): ("NotSingleClass", None, (None, None, 3)),
    ("Heis3:Q8", 5): ("NotSingleClass", None, (3, None, 5)),
    ("Heis3:Q8", 9): ("NotSingleClass", None, (None, None, 9)),
    ("Q8:C9", 2): ("NotSingleClass", None, (None, None, 2)),
    ("Q8:C9", 3): ("SingleGaloisClass", "a7", (2, 2, 1)),
    ("Q8:C9", 5): ("NotSingleClass", None, (2, None, 5)),
    ("Q8:C9", 9): ("SingleGaloisClass", "a7", (2, 2, 1)),
}


@pytest.mark.parametrize("key,m", sorted(NEAR_MISSES))
def test_case_positives_times_a_cyclic_group(key, m):
    group = direct_product(build(key), cyclic(m))
    report = analyze_structure(group, character_table(group))
    assert report.theorem_violation is None
    assert (report.verdict, report.case_tag, (report.p, report.n, report.d)) == NEAR_MISSES[key, m]


def random_subgroups(seeds, max_order=5000):
    """(seed, group) for each seed whose group has order at most max_order:
    S_n, n from 5 to 10, and 2 or 3 generators, each a random permutation of
    a random set of 2 to 7 points."""
    for seed in seeds:
        rng = random.Random(seed)
        degree = rng.randint(5, 10)
        gens = []
        for _ in range(rng.choice((2, 3))):
            moved = rng.sample(range(degree), rng.randint(2, min(7, degree)))
            images = list(range(degree))
            for a, b in zip(moved, rng.sample(moved, len(moved))):
                images[a] = b
            gens.append(images)
        try:
            yield seed, PermGroup(degree, gens, order_bound=max_order)
        except OrderBoundExceeded:
            continue


def test_random_subgroups_have_no_theorem_violation():
    drawn, violations = 0, []
    for seed, group in random_subgroups(range(400)):
        drawn += 1
        report = analyze_structure(group, character_table(group))
        if report.theorem_violation is not None:
            violations.append((seed, group.order, report.theorem_violation))
    assert drawn >= 300
    assert violations == []
