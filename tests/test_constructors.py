import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from galchar.classify import VERDICT_SINGLE, analyze_structure, check_frobenius_action
from galchar.constructors import (
    CASES,
    CaseParams,
    ParamsInvalid,
    _automorphism,
    affine_semidirect,
    construct_case,
    dihedral,
    extraspecial_semidirect,
    generalized_quaternion,
    heisenberg,
    quaternion8,
    quaternion_subgroup_SL2,
    singer_matrix,
    sweep_parameter_points,
    symmetric,
)
from galchar.corpus import CORPUS, build
from galchar.fpmat import vector_action
from galchar.numth import divisors, matrix_order_is, primitive_root
from galchar.perm import ORDER_BOUND, PermGroup, Permutation

from reference import element_set, order


def test_singer_matrix():
    s = singer_matrix(2, 2)
    assert s.tolist() == [[0, 1], [1, 1]]
    assert matrix_order_is(s, 2, 3)
    assert singer_matrix(3, 1).tolist() == [[2]]
    for p, n in ((3, 2), (5, 2), (2, 4)):
        assert matrix_order_is(singer_matrix(p, n), p, p**n - 1)


def test_affine_semidirect_examples():
    a4 = affine_semidirect(2, 2, [singer_matrix(2, 2)], 1)
    assert a4.order == 12
    assert a4.nilpotent_residue().order == 4

    s3 = affine_semidirect(3, 1, [np.array([[2]], dtype=np.int64)], 1)
    assert s3.order == 6
    assert not s3.is_nilpotent()

    cover = affine_semidirect(2, 2, [singer_matrix(2, 2)], 2)
    assert cover.order == 36


def test_affine_rejects_singular():
    with pytest.raises(ParamsInvalid):
        affine_semidirect(3, 2, [np.array([[1, 0], [0, 0]], dtype=np.int64)], 1)


def test_extraspecial_rejects_singular():
    for p in (2, 3):
        for m in ([[0, 0], [0, 0]], [[1, 1], [1, 1]]):
            with pytest.raises(ParamsInvalid, match="singular"):
                extraspecial_semidirect(p, [np.array(m, dtype=np.int64)])


def test_nested_list_matrices_build_the_same_group_as_arrays():
    m = [[0, 1], [1, 1]]
    for build in (
        lambda mats: affine_semidirect(3, 2, mats),
        lambda mats: extraspecial_semidirect(3, mats),
        lambda mats: extraspecial_semidirect(2, mats),
    ):
        listed, arrayed = build([m]), build([np.array(m, dtype=np.int64)])
        assert np.array_equal(listed.images, arrayed.images)


def test_acting_matrices_of_the_wrong_size_raise():
    three = np.eye(3, dtype=np.int64)
    for build in (
        lambda: affine_semidirect(3, 2, [three]),
        lambda: extraspecial_semidirect(3, [three]),
        lambda: extraspecial_semidirect(2, [three]),
        lambda: affine_semidirect(5, 1, [np.array([2])]),
    ):
        with pytest.raises(ParamsInvalid, match=r"\d x \d"):
            build()


def test_quaternion_subgroups():
    for p, order in ((3, 8), (7, 16), (5, 8)):
        x, y = quaternion_subgroup_SL2(p, order)
        dets = [int(round(np.linalg.det(m))) % p for m in (x, y)]
        assert dets == [1, 1]
        group = PermGroup(p * p, vector_action([x, y], p))
        assert group.order == order
        # unique involution, cyclic index-2 subgroup: generalized quaternion
        assert int((group.order_of(np.arange(order)) == 2).sum()) == 1
        assert matrix_order_is(x, p, order // 2)
        # acts Frobeniusly on F_p^2
        assert check_frobenius_action([x, y], p, 2)

    with pytest.raises(ParamsInvalid):
        quaternion_subgroup_SL2(3, 4)


def test_heisenberg_and_q8():
    h = heisenberg(3)
    assert h.order == 27
    assert h.exponent == 3
    assert h.center().order == 3
    q8 = quaternion8()
    assert q8.order == 8
    assert sum(1 for x in q8.elements if order(x) == 2) == 1
    assert heisenberg(2).order == 8


def test_generalized_quaternion_structure():
    for order in (8, 16, 32):
        q = generalized_quaternion(order)
        assert q.order == order
        assert q.full_subgroup().is_generalized_quaternion()
    with pytest.raises(ValueError):
        generalized_quaternion(4)


def test_extraspecial_semidirect_sl23():
    g = extraspecial_semidirect(2, [np.array([[0, 1], [1, 1]], dtype=np.int64)], 1)
    assert g.order == 24
    assert g.center().order == 2
    assert g.derived_subgroup().order == 8
    report = analyze_structure(g)
    assert report.case_tag == "a5"


def test_extraspecial_semidirect_a4_a6():
    g = extraspecial_semidirect(3, [singer_matrix(3, 2)], 1)
    assert g.order == 216
    assert analyze_structure(g).case_tag == "a4"
    x, y = quaternion_subgroup_SL2(3, 8)
    g = extraspecial_semidirect(3, [x, y], 1)
    assert g.order == 216
    assert analyze_structure(g).case_tag == "a6"


def test_heisenberg_automorphism_is_homomorphism():
    # phi_g . phi_h = phi_{gh} realised on the permutation level: the
    # group generated by P-translations and two automorphisms has order
    # |P| * |<g, h>|
    s = singer_matrix(3, 2)
    s2 = s @ s % 3
    g = extraspecial_semidirect(3, [s2], 1)
    assert g.order == 27 * 4


def test_automorphism_refuses_a_map_that_is_not_one():
    # x -> x, y -> x: a homomorphism onto <x>, but not a bijection
    heis = heisenberg(3)
    with pytest.raises(ParamsInvalid, match="bijection"):
        _automorphism(heis, [9, 9])
    assert _automorphism(heis, [9, 3]) == list(range(27))
    # x -> x, y -> x^2 in Q8: y^2 = x^2 would go to 1 = x^2
    with pytest.raises(ParamsInvalid, match="homomorphism"):
        _automorphism(quaternion8(), [1, 2])


def test_extraspecial_semidirect_p2_takes_any_matrix_group():
    # the swap x <-> y of Q8
    assert extraspecial_semidirect(2, [[[0, 1], [1, 0]]]).order == 16
    # the images x^a y^b define automorphisms, but no action of GL(2,2)
    with pytest.raises(ParamsInvalid, match="not faithful"):
        extraspecial_semidirect(2, [[[0, 1], [1, 1]], [[0, 1], [1, 0]]])
    q8 = extraspecial_semidirect(2, [], name="E")
    assert (q8.order, q8.name) == (8, "E")


def test_construct_case_examples():
    d10 = construct_case(CaseParams("a1", 5, 1, 2))
    assert d10.order == 10
    assert analyze_structure(d10).case_tag == "a1"

    a2 = construct_case(CaseParams("a2", 3, 2, 1))
    assert a2.order == 72
    table_report = analyze_structure(a2)
    assert table_report.case_tag == "a2"

    a3 = construct_case(CaseParams("a3", 2, 2, 1, height=2))
    assert a3.order == 36

    a7 = construct_case(CaseParams("a7", 2, 2, 1, height=2))
    assert a7.order == 72


def test_construct_case_invalid_params():
    with pytest.raises(ParamsInvalid):
        construct_case(CaseParams("a1", 5, 1, 3))  # 3 does not divide 4
    with pytest.raises(ParamsInvalid):
        construct_case(CaseParams("a5", 3, 2, 2))  # odd-p a5: not transitive
    with pytest.raises(ParamsInvalid):
        construct_case(CaseParams("a6", 3, 2, 2))  # Q4 does not exist
    with pytest.raises(ParamsInvalid):
        construct_case(CaseParams("a1", 2, 1, 1))  # trivial complement
    with pytest.raises(ParamsInvalid):
        construct_case(CaseParams("a3", 2, 2, 1, height=1))  # needs C > 1
    with pytest.raises(ParamsInvalid):
        construct_case(CaseParams("a2", 5, 2, 1))  # 5 is not Mersenne


def test_construct_a3_takes_d():
    # n = 1: q = (p - 1)/d prime, H = C_q^h acting through C_q
    group = construct_case(CaseParams("a3", 7, 1, 2, height=2))
    assert group.order == 7 * 9
    assert analyze_structure(group).case_tag == "a3"
    # n >= 2 needs d = p - 1: (3^3 - 1)/1 = 26 is not prime
    with pytest.raises(ParamsInvalid, match="must be prime"):
        construct_case(CaseParams("a3", 3, 3, 1, height=2))
    with pytest.raises(ParamsInvalid, match="divide"):
        construct_case(CaseParams("a3", 7, 1, 4, height=2))


def test_constructed_frobenius_property():
    # a1 groups are Frobenius: stabilizers of nonzero vector points trivial
    g = construct_case(CaseParams("a1", 7, 1, 2))
    # points 0..6 are the vectors; 0 is the zero vector
    for point in range(1, 7):
        stab = [x for x in g.elements if x.images[point] == point and not x.is_identity]
        non_translations = [x for x in stab if x.images[0] == 0]
        assert not non_translations or all(x.is_identity for x in non_translations)
    report = analyze_structure(g)
    assert report.checklist["frobenius_action"]


def test_extraspecial_lemma_converse():
    # p-groups with Phi = P' = Z of index p^2 have order exactly p^3
    from galchar.perm import frattini_of_pgroup

    for maker, p in ((lambda: heisenberg(3), 3), (quaternion8, 2)):
        group = maker()
        z = group.center()
        fr = frattini_of_pgroup(group.full_subgroup(), p)
        der = group.derived_subgroup()
        if element_set(z) == element_set(fr) == element_set(der) and group.order == z.order * p * p:
            assert group.order == p**3


def test_sweep_enumeration():
    points = sweep_parameter_points()
    labels = {params.label() for params in points}
    assert "a1(p=3,n=1,d=1,h=1)" in labels  # S3
    assert "a3(p=2,n=2,d=1,h=5)" in labels  # order 972
    assert "a7(p=2,n=2,d=1,h=4)" in labels  # order 648
    assert "a5(p=3,n=2,d=2,h=1)" in labels  # infeasible, must be probed
    assert all(params.tag in {"a1", "a2", "a3", "a4", "a5", "a6", "a7"} for params in points)
    # enumeration is deterministic
    assert [p.label() for p in sweep_parameter_points()] == [
        p.label() for p in points
    ]


def _projected_order(tag, p, n, d, h):
    # stated apart from CASES: P is p^{1+2} for a4..a7, (C_p)^n otherwise
    return p ** (n + (tag in ("a4", "a5", "a6", "a7"))) * ((p**n - 1) // d) ** h


def test_every_label_names_the_group_it_builds_or_is_refused():
    # a1(5,1,2,3) once built D10 and a7(2,2,5,2) the d = 1 group of order 72
    grid = [
        (tag, p, n, d, h)
        for tag in CASES
        for p in (2, 3, 5, 7, 11, 13)
        for n in range(1, 5)
        for d in divisors(p**n - 1)
        for h in range(1, 5)
        if _projected_order(tag, p, n, d, h) <= 5000
    ]
    built = 0
    for point in grid:
        params = CaseParams(*point)
        try:
            group = construct_case(params)
        except ParamsInvalid:
            continue
        built += 1
        report = analyze_structure(group)
        assert group.order == _projected_order(*point), params.label()
        assert (report.case_tag, report.p, report.n, report.d) == point[:4], params.label()
        assert report.theorem_violation is None, params.label()
    assert built == 63


def test_construct_refuses_the_fields_a_case_does_not_use():
    for params, reason in (
        (CaseParams("a1", 5, 1, 2, 3), "h must be 1"),
        (CaseParams("a4", 3, 1, 1, 1), "n must be 2"),
        (CaseParams("a7", 2, 2, 5, 2), "d must be 1"),
        (CaseParams("a7", 2, 2, 1, 1), "h must be at least 2"),
        (CaseParams("a6", 7, 2, 2), r"d must be \(p - 1\)/2 or p - 1"),
    ):
        with pytest.raises(ParamsInvalid, match=reason):
            construct_case(params)


def test_each_corpus_positive_is_admitted_at_exactly_one_height():
    heights = {}
    for entry in CORPUS:
        if entry.verdict != VERDICT_SINGLE:
            continue
        case, order = CASES[entry.tag], build(entry.key).order
        heights[entry.key] = [
            h
            for h in range(1, order.bit_length())
            if case.refusal(entry.p, entry.n, entry.d, h) is None
            and math.prod(case.sizes(entry.p, entry.n, entry.d, h)) == order
        ]
    assert len(heights) == 13
    assert heights == {key: [2 if key in ("V4:C9", "Q8:C9") else 1] for key in heights}


@pytest.mark.parametrize(
    "bounds",
    [
        {},
        {"max_order": 20000, "max_pn": 25},
        {"max_order": 5000, "max_pn": 3},
        {"primes": (2, 3, 5, 7, 11, 13), "max_pn": 400, "max_order": 20000},
    ],
)
def test_every_swept_point_is_within_the_bounds(bounds):
    # a6(p=7) was once swept at max_pn = 25, and a7 at any max_pn
    points = sweep_parameter_points(**bounds)
    assert points
    for params in points:
        assert params.p**params.n <= bounds.get("max_pn", 81), params.label()
        assert params.p in bounds.get("primes", (2, 3, 5, 7)), params.label()
        order = _projected_order(params.tag, params.p, params.n, params.d, params.height)
        assert order <= bounds.get("max_order", 1000), params.label()


def test_sweep_refuses_an_unknown_tag():
    with pytest.raises(ValueError, match="unknown case tag a8"):
        sweep_parameter_points(tags=("a1", "a8"))


# sha256 over the labels of the sweep, one a line; the default sweep is
# pinned by the stdout digest of tests/test_cli.py
SWEEP_LABELS = [
    ({"max_order": 5000}, 54, "081357a9a6c3502f607596f1b36ffc4cb4097c7b7b4f5004c637758e617955cf"),
    (
        {"primes": (2, 3, 5, 7, 11, 13), "max_pn": 400, "max_order": 20000},
        86,
        "4a967585a9986f46a2bbf03a9a9073affdc739948871671f76e63d8842af5398",
    ),
]


@pytest.mark.parametrize("bounds, count, digest", SWEEP_LABELS)
def test_sweep_grids_are_pinned(bounds, count, digest):
    labels = [params.label() for params in sweep_parameter_points(**bounds)]
    assert len(labels) == count
    assert hashlib.sha256("\n".join(labels).encode()).hexdigest() == digest


# Child process: make one call of _REFUSED, and report the seconds of the call
# and the ru_maxrss growth (kB) until it is refused.  Exit 3 if nothing raised.
_REFUSE = """
import json, resource, sys, time
import numpy as np
from galchar.constructors import affine_semidirect, extraspecial_semidirect, heisenberg
from galchar.perm import OrderBoundExceeded
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
t0 = time.perf_counter()
try:
    {call}
except OrderBoundExceeded as exc:
    grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    print(json.dumps([time.perf_counter() - t0, grown, str(exc)]))
    sys.exit(0)
sys.exit(3)
"""


# (call, the order its refusal names)
_REFUSED = [
    # 7^{1+2} x| H for H = <diag(3, 1), [[0, 6], [1, 1]]> of order 2,016 in
    # GL(2, 7): |G| = 343 * 2,016 = 691,488.  Enumerating 500,000 elements
    # first took seconds and more than a GB
    ("extraspecial_semidirect(7, [np.diag([3, 1]), [[0, 6], [1, 1]]])", 691488),
    # F_7^7 x| C_7 under a cyclic shift of the coordinates: p^n = 823,543 was
    # refused only after its vectors and their images were built, about 450 MB
    ("affine_semidirect(7, 7, [np.roll(np.eye(7, dtype=int), 1, axis=0)])", 823543),
    # 83^3 = 571,787 points, numbered before any bound was read
    ("heisenberg(83)", 571787),
]


def test_semidirect_past_the_order_bound_is_refused_before_enumeration():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for call, order in _REFUSED:
        done = subprocess.run(
            [sys.executable, "-c", _REFUSE.format(call=call)], capture_output=True, text=True,
            env=env, timeout=60,
        )
        assert done.returncode == 0, (call, done.stderr)
        seconds, grown_kb, message = json.loads(done.stdout)
        assert str(order) in message and str(ORDER_BOUND) in message, call
        assert seconds < 1.0, call
        assert grown_kb < 50 * 1024, call
