import dataclasses
import random

import numpy as np
import pytest

from galchar import classify
from galchar.chartab import character_table
from galchar.classify import (
    COMPLEMENT_CLOSURE_CAP,
    ComplementNotFound,
    analyze_structure,
    check_frobenius_action,
    check_irreducible_action,
    check_scalar_transitivity,
    find_complement,
    irr_partition,
    is_extraspecial_p3,
    is_single_galois_class,
)
from galchar.constructors import (
    CASES,
    CaseParams,
    ParamsInvalid,
    affine_semidirect,
    alternating,
    construct_case,
    cyclic,
    heisenberg,
    quaternion8,
    singer_matrix,
    sweep_parameter_points,
    symmetric,
)
from galchar.corpus import CORPUS, build
from galchar.numth import factorize
from galchar.perm import Permutation, Subgroup

from reference import check_frobenius_criterion, check_isaacs_bound, element_set, trivial_subgroup


def mat(rows):
    return np.array(rows, dtype=np.int64)


class TestPartition:
    def test_nilpotent_empty(self, get_table):
        for key in ("C12", "D8", "Q8", "Heis3", "C3xQ8"):
            part = irr_partition(get_table(key))
            assert part.exceptional == ()

    def test_s3(self, get_table):
        table = get_table("S3")
        part = irr_partition(table)
        assert len(part.exceptional) == 1
        assert table.chars[part.exceptional[0]].degree == 2

    def test_s4_hand_check(self, get_table):
        table = get_table("S4")
        part = irr_partition(table)
        degrees = sorted(table.chars[i].degree for i in part.exceptional)
        assert degrees == [2, 3, 3]
        kernels = {table.chars[i].kernel().order for i in part.exceptional}
        assert kernels == {1, 4}


class TestSingleClass:
    def test_examples(self, get_table):
        assert is_single_galois_class(get_table("S3"))
        assert is_single_galois_class(get_table("D10"))
        assert not is_single_galois_class(get_table("S4"))
        assert not is_single_galois_class(get_table("Q8"))  # empty set


class TestComplement:
    def test_s3(self):
        s3 = symmetric(3)
        h = find_complement(s3, s3.nilpotent_residue())
        assert h.order == 2

    def test_a4(self):
        a4 = alternating(4)
        h = find_complement(a4, a4.nilpotent_residue())
        assert h.order == 3

    def test_whole_group(self):
        q8 = quaternion8()
        h = find_complement(q8, q8.full_subgroup())
        assert h.order == 1

    def test_deterministic(self):
        g = build("Heis3:C8")
        p = g.nilpotent_residue()
        h1 = find_complement(g, p, seed=123)
        h2 = find_complement(g, p, seed=123)
        assert element_set(h1) == element_set(h2)

    def test_not_sylow_rejected(self):
        s4 = symmetric(4)
        with pytest.raises(ValueError):
            find_complement(s4, s4.nilpotent_residue())  # A4 is not a p-group


class TestActionChecks:
    def test_frobenius(self):
        assert not check_frobenius_action([mat([[1, 0], [0, 1]])], 2, 2)
        assert check_frobenius_action([mat([[0, 1], [1, 1]])], 2, 2)
        assert not check_frobenius_action([mat([[1, 0], [0, 4]])], 5, 2)
        with pytest.raises(ValueError):
            check_frobenius_action([mat([[1, 0], [0, 0]])], 5, 2)

    def test_irreducible(self):
        assert check_irreducible_action([mat([[2]])], 5, 1)
        assert check_irreducible_action([mat([[0, 1], [1, 1]])], 2, 2)
        block = mat([[2, 0], [0, 1]])
        assert not check_irreducible_action([block], 5, 2)

    def test_scalar_transitivity(self):
        assert check_scalar_transitivity([singer_matrix(2, 2)], 2, 2)
        # index-2 subgroup of the Singer cycle of GL(1,5) plus scalars
        assert check_scalar_transitivity([mat([[4]])], 5, 1)
        # order-4 rotation over F_3 with scalars {+-1}: orbits too small
        assert not check_scalar_transitivity([mat([[0, 2], [1, 0]])], 3, 2)


class TestExtraspecial:
    def test_examples(self):
        assert is_extraspecial_p3(quaternion8().full_subgroup(), 2)
        assert not is_extraspecial_p3(cyclic(8).full_subgroup(), 2)
        assert is_extraspecial_p3(heisenberg(3).full_subgroup(), 3)
        assert not is_extraspecial_p3(heisenberg(3).full_subgroup(), 2)


class TestAnalyze:
    def test_s3(self):
        report = analyze_structure(symmetric(3))
        assert report.verdict == "SingleGaloisClass"
        assert report.case_tag == "a1"
        assert (report.p, report.n, report.d) == (3, 1, 1)
        assert all(v for v in report.checklist.values() if v is not None)
        assert report.theorem_violation is None

    def test_sl23(self):
        g = build("SL(2,3)")
        report = analyze_structure(g)
        assert report.case_tag == "a5"
        assert (report.p, report.n, report.d) == (2, 2, 1)
        assert report.order_K == 2
        assert report.order_U == 2 and report.order_C == 1

    def test_s4_negative(self):
        report = analyze_structure(symmetric(4))
        assert report.verdict == "NotSingleClass"
        assert "kernels" in report.failure_reason
        assert report.theorem_violation is None

    def test_transitivity_negative(self):
        report = analyze_structure(build("C3^2:C4"))
        assert report.verdict == "NotSingleClass"
        assert "2 Galois orbits" in report.failure_reason
        assert report.theorem_violation is None

    def test_nilpotent(self):
        report = analyze_structure(build("D8"))
        assert report.verdict == "NilpotentEmpty"
        assert report.case_tag is None


class TestLemmaChecks:
    def test_isaacs_bound_a4(self):
        a4 = alternating(4)
        v4 = a4.nilpotent_residue()
        h = find_complement(a4, v4)
        assert check_isaacs_bound(a4, h, v4)

    def test_isaacs_bound_s3(self):
        s3 = symmetric(3)
        p = s3.nilpotent_residue()
        h = find_complement(s3, p)
        assert check_isaacs_bound(s3, h, p)

    def test_isaacs_bound_rejects_noncoprime(self):
        q8 = quaternion8()
        z = q8.center()
        with pytest.raises(ValueError):
            check_isaacs_bound(q8, q8.full_subgroup(), z)

    def test_frobenius_criterion_a4(self):
        assert check_frobenius_criterion([mat([[0, 1], [1, 1]])], 2, 2)

    def test_frobenius_criterion_c4(self):
        assert check_frobenius_criterion([mat([[0, 2], [1, 0]])], 3, 2)

    def test_frobenius_criterion_rejects_reducible(self):
        with pytest.raises(ValueError):
            check_frobenius_criterion([mat([[1, 0], [0, 4]])], 5, 2)


@pytest.mark.parametrize("name,error,item,reason", [
    ("find_complement", ComplementNotFound("no complement here"),
     "complement_found", "no complement here"),
    ("quotient_module_action", ValueError("no basis"),
     "action_kernel_is_centralizer", "module action unavailable: no basis"),
])
def test_a_failed_step_stops_the_checklist_with_its_own_reason(
    monkeypatch, name, error, item, reason
):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(classify, name, fail)
    report = analyze_structure(symmetric(3))
    items = list(report.checklist)
    after = items[items.index(item) + 1:]
    assert report.checklist[item] is False
    assert all(report.checklist[i] for i in items[:items.index(item)])
    assert all(report.checklist[i] is None for i in after)
    assert report.theorem_violation == f"single Galois class but structure fails: {reason}"


def test_the_recognizer_reads_the_case_table(monkeypatch):
    # SL(2,3) is a5; once CASES refuses every a5 point, no case fits it
    group = construct_case(CaseParams("a5", 2, 2, 1))
    table = character_table(group)
    assert analyze_structure(group, table).case_tag == "a5"
    refused = ((lambda p, n, d: False, "refused"),)
    monkeypatch.setitem(CASES, "a5", dataclasses.replace(CASES["a5"], conditions=refused))
    report = analyze_structure(group, table)
    assert report.case_tag is None
    assert report.checklist["case_recognized"] is False
    assert report.theorem_violation == (
        "single Galois class but structure fails: no recognised case shape"
    )


def test_report_roundtrip():
    report = analyze_structure(symmetric(3))
    doc = report.to_dict()
    assert doc["verdict"] == "SingleGaloisClass"
    assert doc["case_tag"] == "a1"
    assert doc["checklist"]["scalar_transitivity"] is True
    assert doc["group_order"] == 6


def reference_complement(group, psub, seed):
    """find_complement's earlier loop: every sample is closed from the
    identity with the size cap alone, and kept when its order is prime to p."""
    target = group.order // psub.order
    if target == 1:
        return trivial_subgroup(group)
    p = min(factorize(psub.order))
    rng = random.Random(seed)
    gens, closures = [], 0
    while closures < COMPLEMENT_CLOSURE_CAP:
        g = rng.randrange(group.order)
        o, p_part = int(group.order_of(g)), 1
        while o % p == 0:
            o //= p
            p_part *= p
        h = int(group.power(g, p_part))
        if h == 0:
            continue
        candidate = gens + [h]
        closures += 1
        closure = group.closure(candidate, cap=target)
        if closure is None:
            continue
        if len(closure) == target:
            return Subgroup(group, closure, candidate)
        if len(closure) % p:
            gens = candidate
    raise ComplementNotFound("reference")


def _complement_inputs(monkeypatch):
    """(label, group, P) for every call analyze_structure makes to
    find_complement on the corpus and the default sweep."""
    groups = [(e.key, build(e.key)) for e in CORPUS]
    for params in sweep_parameter_points():
        try:
            groups.append((params.label(), construct_case(params)))
        except ParamsInvalid:
            pass
    calls = []
    for label, group in groups:
        def record(g, psub, seed, label=label):
            calls.append((label, g, psub))
            return find_complement(g, psub, seed=seed)

        monkeypatch.setattr(classify, "find_complement", record)
        analyze_structure(group)
    monkeypatch.undo()
    return calls


def test_find_complement_matches_the_earlier_loop(monkeypatch):
    calls = _complement_inputs(monkeypatch)
    assert len(calls) > 30
    for label, group, psub in calls:
        for seed in range(4):
            ours, ref = find_complement(group, psub, seed=seed), reference_complement(group, psub, seed)
            assert np.array_equal(ours.ids, ref.ids), (label, seed)
            assert np.array_equal(ours.gen_ids, ref.gen_ids), (label, seed)


def test_distinct_kernels_are_the_distinct_rows_of_the_kernel_mask(corpus_keys, get_table):
    for key in corpus_keys:
        table = get_table(key)
        part = irr_partition(table)
        if part.exceptional:
            rows = table.kernels()[0][sorted(part.exceptional)]
            assert classify._distinct_kernels(table, part) == len(np.unique(rows, axis=0))
