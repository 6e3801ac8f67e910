"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Expected values follow the stated oracles: hand-built character tables and a
numeric regular-representation cross-check for criterion 1, brute-force
order checks for the Zsigmondy sweep, and independent character-theoretic /
structural verdicts cross-checked for the central equivalence.
"""
import json
import time
from math import gcd

import numpy as np
import pytest

from galchar.chartab import character_table, verify_orthogonality_exact
from galchar.classify import (
    analyze_structure,
    find_complement,
    irr_partition,
    is_single_galois_class,
)
from galchar.constructors import (
    ParamsInvalid,
    affine_semidirect,
    construct_case,
    sweep_parameter_points,
)
from galchar.corpus import CORPUS, POSITIVE_KEYS, build, entry
from galchar.numth import factorize, zsigmondy_prime
from galchar.perm import frattini_of_pgroup, quotient_module_action

from conftest import corpus_group, corpus_table
from reference import (
    Cyc,
    check_frobenius_criterion,
    check_isaacs_bound,
    cyc,
    element_id,
    element_set,
    identity,
    is_rational,
    subgroup,
    zeta,
    zsigmondy_exception_expected,
)


def report(criterion: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


# -- criterion 1: character-table oracle equivalence ------------------------------


def assert_rows_match(computed, expected):
    """Multiset equality of rows of exact values (rendering-independent)."""
    remaining = list(expected)
    for row in computed:
        for i, cand in enumerate(remaining):
            if len(cand) == len(row) and all(a == b for a, b in zip(row, cand)):
                del remaining[i]
                break
        else:
            raise AssertionError(f"unmatched row {[str(v) for v in row]}")
    assert not remaining


def _linear_from_powermaps(table, order3_first_index):
    """A cube-root character pattern on the order-3/6 classes of SL(2,3)."""
    lam = {}
    cls = table.classes
    e = table.exponent
    c = order3_first_index
    lam[c] = zeta(3)
    lam[cls[c].powers[2 % e]] = zeta(3, 2)
    for j, cj in enumerate(cls):
        if cj.order == 6:
            sq = cj.powers[2 % e]
            lam[j] = lam[sq] * lam[sq]
    return lam


def expected_hand_table(key, table):
    cls = table.classes
    k = len(cls)
    one = cyc(1)

    def by(order, size):
        return [j for j, c in enumerate(cls) if (c.order, c.size) == (order, size)]

    if key == "S3":
        return [
            (cyc(1), cyc(1), cyc(1)),
            (cyc(1), cyc(-1), cyc(1)),
            (cyc(2), cyc(0), cyc(-1)),
        ]
    if key == "C6":
        g_idx = by(6, 1)[0]
        group = table.group
        g, class_of = group.element(cls[g_idx].element_ids[0]), group.class_index_array()
        dlog = {}
        cur = identity(group.degree)
        for t in range(6):
            dlog[int(class_of[element_id(group, cur)])] = t
            cur = cur * g
        return [
            tuple(zeta(6, (j * dlog[c]) % 6) for c in range(k)) for j in range(6)
        ]
    if key in ("D8", "Q8"):
        # columns: 1, center, three further classes x, y, z; linears have
        # kernel containing the center and exactly one of x, y, z
        rest = [j for j in range(k) if j not in (0, 1)]
        rows = [tuple(one for _ in range(k))]
        for keep in rest:
            rows.append(
                tuple(
                    one if j in (0, 1, keep) else cyc(-1) for j in range(k)
                )
            )
        chi2 = [cyc(0)] * k
        chi2[0] = cyc(2)
        chi2[1] = cyc(-2)
        rows.append(tuple(chi2))
        return rows
    if key == "D10":
        refl = by(2, 5)[0]
        rot_a, rot_b = by(5, 2)
        beta = zeta(5) + zeta(5, 4)
        gamma = zeta(5, 2) + zeta(5, 3)
        def row(vals):
            out = [None] * k
            out[0], out[refl], out[rot_a], out[rot_b] = vals
            return tuple(out)
        return [
            row((one, one, one, one)),
            row((one, cyc(-1), one, one)),
            row((cyc(2), cyc(0), beta, gamma)),
            row((cyc(2), cyc(0), gamma, beta)),
        ]
    if key == "A4":
        v4 = by(2, 3)[0]
        t_a, t_b = by(3, 4)
        w, w2 = zeta(3), zeta(3, 2)
        def row(vals):
            out = [None] * k
            out[0], out[v4], out[t_a], out[t_b] = vals
            return tuple(out)
        return [
            row((one, one, one, one)),
            row((one, one, w, w2)),
            row((one, one, w2, w)),
            row((cyc(3), cyc(-1), cyc(0), cyc(0))),
        ]
    if key == "SL(2,3)":
        c3a = by(3, 4)[0]
        c4 = by(4, 6)[0]
        lam = _linear_from_powermaps(table, c3a)
        idx36 = sorted(lam)
        def fill(base, mul):
            out = [None] * k
            out[0], out[1], out[c4] = base
            for j in idx36:
                out[j] = mul(j)
            return tuple(out)
        rows = [
            fill((one, one, one), lambda j: one),
            fill((one, one, one), lambda j: lam[j]),
            fill((one, one, one), lambda j: lam[j] * lam[j]),
            fill((cyc(2), cyc(-2), cyc(0)),
                 lambda j: cyc(-1) if cls[j].order == 3 else one),
            fill((cyc(2), cyc(-2), cyc(0)),
                 lambda j: (cyc(-1) if cls[j].order == 3 else one) * lam[j]),
            fill((cyc(2), cyc(-2), cyc(0)),
                 lambda j: (cyc(-1) if cls[j].order == 3 else one) * lam[j] * lam[j]),
            fill((cyc(3), cyc(3), cyc(-1)), lambda j: cyc(0)),
        ]
        return rows
    raise KeyError(key)


def regular_representation_check(table, tol=1e-8):
    """Numeric oracle: each row's isotypic projector in the left regular
    representation must be idempotent with trace deg^2."""
    group = table.group
    n = group.order
    arr = group.images
    ids = np.arange(n)
    class_sums = []
    for c in table.classes:
        s = np.zeros((n, n))
        for eid in c.element_ids:
            prod_rows = arr[eid][arr]  # row x = images of g*x
            s[group.ids_of_rows(prod_rows), ids] += 1.0
        class_sums.append(s)
    for chi in table.chars:
        proj = np.zeros((n, n), dtype=complex)
        for j, s in enumerate(class_sums):
            proj += np.conj(Cyc.of(chi.values[j]).to_complex()) * s
        proj *= chi.degree / n
        assert abs(np.trace(proj).real - chi.degree**2) < tol
        assert abs(np.trace(proj).imag) < tol
        assert np.max(np.abs(proj @ proj - proj)) < tol


HAND_TABLE_KEYS = ("S3", "C6", "D8", "Q8", "D10", "A4", "SL(2,3)")


def test_criterion_1_table_oracles():
    for key in HAND_TABLE_KEYS:
        table = corpus_table(key)
        expected = expected_hand_table(key, table)
        assert sorted(chi.degree for chi in table.chars) == sorted(
            int(r[0].rational_value()) for r in expected
        )
        assert_rows_match([chi.values for chi in table.chars], expected)
    for e in CORPUS:
        table = corpus_table(e.key)
        assert sum(d * d for d in table.degrees) == table.group.order
        verify_orthogonality_exact(table)
        regular_representation_check(table, tol=1e-8)
    report("criterion 1: tables match hand oracles, orthogonality exact", True)


def test_criterion_2_no_exceptional_iff_nilpotent():
    for e in CORPUS:
        group = corpus_group(e.key)
        part = irr_partition(corpus_table(e.key))
        assert (len(part.exceptional) == 0) == group.is_nilpotent(), e.key
    nilpotent_members = {"C12", "D8", "Q8", "Heis3", "C3xQ8"}
    assert nilpotent_members <= {
        e.key for e in CORPUS if e.verdict == "NilpotentEmpty"
    }
    report("criterion 2: exceptional set empty iff nilpotent", True)


EXPECTED_POSITIVES = {
    "S3": ("a1", 3, 1, 1),
    "C7:C3": ("a1", 7, 1, 2),
    "D10": ("a1", 5, 1, 2),
    "A4": ("a1", 2, 2, 1),
    "C3^2:Q8": ("a2", 3, 2, 1),
    "V4:C9": ("a3", 2, 2, 1),
    "Heis3:C8": ("a4", 3, 2, 1),
    "SL(2,3)": ("a5", 2, 2, 1),
    "Heis3:Q8": ("a6", 3, 2, 1),
    "Q8:C9": ("a7", 2, 2, 1),
}


def test_criterion_3_positive_classifications():
    for key, (tag, p, n, d) in EXPECTED_POSITIVES.items():
        table = corpus_table(key)
        group = corpus_group(key)
        rep = analyze_structure(group, table)
        assert rep.verdict == "SingleGaloisClass", key
        assert rep.case_tag == tag, key
        assert (rep.p, rep.n, rep.d) == (p, n, d), key
        part = irr_partition(table)
        assert len(part.exceptional) == d
        assert is_single_galois_class(table, part)
        assert rep.checklist["kernels_all_equal"]
        assert rep.checklist["kernel_is_centralizer_times_frattini"]
        assert rep.checklist["values_in_prime_cyclotomic"]
        assert rep.theorem_violation is None
    # spot checks from the statement of the criterion
    t_a2 = corpus_table("C3^2:Q8")
    part = irr_partition(t_a2)
    assert [t_a2.chars[i].degree for i in part.exceptional] == [8]
    assert corpus_group("C3^2:Q8").order == 72
    rep_a3 = analyze_structure(corpus_group("V4:C9"), corpus_table("V4:C9"))
    assert rep_a3.order_H // rep_a3.order_C == 3  # q = 3
    assert corpus_group("Heis3:C8").order == 216
    assert corpus_group("Heis3:Q8").order == 216
    assert corpus_group("Q8:C9").order == 72
    report("criterion 3: ten positive families classified exactly", True)


def test_criterion_4_negative_controls():
    table = corpus_table("S4")
    part = irr_partition(table)
    assert sorted(table.chars[i].degree for i in part.exceptional) == [2, 3, 3]
    assert len({element_set(table.chars[i].kernel()) for i in part.exceptional}) == 2
    rep = analyze_structure(corpus_group("S4"), table)
    assert rep.verdict == "NotSingleClass"

    table = corpus_table("C3^2:C4")
    part = irr_partition(table)
    exc = [table.chars[i] for i in part.exceptional]
    assert sorted(chi.degree for chi in exc) == [4, 4]
    assert all(is_rational(chi) for chi in exc)
    rep = analyze_structure(corpus_group("C3^2:C4"), table)
    assert rep.verdict == "NotSingleClass"

    rep = analyze_structure(corpus_group("D8"), corpus_table("D8"))
    assert rep.verdict == "NilpotentEmpty"
    report("criterion 4: negative controls behave exactly", True)


def _sweep_reports():
    if not hasattr(_sweep_reports, "cache"):
        records = []
        for params in sweep_parameter_points():
            try:
                group = construct_case(params)
            except ParamsInvalid as exc:
                records.append((params, None, exc.condition))
                continue
            records.append((params, analyze_structure(group), None))
        _sweep_reports.cache = records
    return _sweep_reports.cache


def test_criterion_5_central_equivalence():
    # corpus side: the classifier cross-checks both directions internally and
    # records any disagreement as a theorem violation
    for e in CORPUS:
        rep = analyze_structure(corpus_group(e.key), corpus_table(e.key))
        assert rep.theorem_violation is None, (e.key, rep.theorem_violation)
        struct_all = all(
            rep.checklist[item] for item in rep.checklist
            if item not in ("nonnilpotent", "solvable", "single_galois_class")
            and rep.checklist[item] is not None
        ) and rep.checklist["case_recognized"]
        char_side = rep.checklist.get("single_galois_class")
        if rep.verdict != "NilpotentEmpty":
            assert bool(char_side) == bool(struct_all and rep.case_tag), e.key
    # sweep side
    n_ok = n_invalid = 0
    for params, rep, reason in _sweep_reports():
        if rep is None:
            n_invalid += 1
            continue
        n_ok += 1
        assert rep.theorem_violation is None, params.label()
        assert rep.verdict == "SingleGaloisClass", params.label()
        assert rep.case_tag == params.tag, params.label()
    assert n_ok >= 25 and n_invalid >= 8
    report(
        f"criterion 5: central equivalence, zero discrepancies "
        f"({n_ok} built + {n_invalid} params-invalid)",
        True,
    )


def test_criterion_6_fitting_height():
    for e in CORPUS:
        if e.verdict != "SingleGaloisClass":
            continue
        group = corpus_group(e.key)
        assert group.is_solvable(), e.key
        assert group.has_fitting_height_at_most_two(), e.key
    for params, rep, _ in _sweep_reports():
        if rep is not None:
            assert rep.checklist["solvable"]
    report("criterion 6: positives are solvable with Fitting height <= 2", True)


def test_criterion_7_zsigmondy_sweep():
    start = time.time()
    limit = 10**6
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    primes = np.nonzero(sieve)[0]

    checked = 0
    for p in primes:
        p = int(p)
        q = zsigmondy_prime(p, 1)
        assert (q is None) == zsigmondy_exception_expected(p, 1), p
        if q is not None:
            assert (p - 1) % q == 0 and sieve[q]
        checked += 1
    for p in primes[primes <= 1000]:
        p = int(p)
        n = 2
        while p**n <= limit:
            q = zsigmondy_prime(p, n)
            assert (q is None) == zsigmondy_exception_expected(p, n), (p, n)
            if q is None:
                # brute force: no prime factor of p^n - 1 avoids all k < n
                for f in factorize(p**n - 1):
                    assert any((p**k - 1) % f == 0 for k in range(1, n)), (p, n, f)
            else:
                assert (p**n - 1) % q == 0
                assert all((p**k - 1) % q for k in range(1, n))
                # smallest such prime: all smaller prime factors fail
                for f in sorted(factorize(p**n - 1)):
                    if f >= q:
                        break
                    assert any((p**k - 1) % f == 0 for k in range(1, n))
            checked += 1
            n += 1
    elapsed = time.time() - start
    assert elapsed < 30, f"sweep took {elapsed:.1f}s"
    report(
        f"criterion 7: Zsigmondy exception list verified for {checked} "
        f"prime powers <= 1e6 in {elapsed:.1f}s",
        True,
    )


def test_criterion_8_coprime_action_checks():
    count = 0
    for key in POSITIVE_KEYS:
        group = corpus_group(key)
        psub = group.nilpotent_residue()
        from galchar.numth import is_prime_power

        p = is_prime_power(psub.order)[0]
        usub = frattini_of_pgroup(psub, p)
        hsub = find_complement(group, psub)
        mats, _, p2, n = quotient_module_action(group, psub, usub, hsub.gen_ids)
        assert check_frobenius_criterion(mats, p2, n), key
        ambient = affine_semidirect(p2, n, mats, 1)
        acting = subgroup(ambient, ambient.generators[n:])
        target = subgroup(ambient, ambient.generators[:n])
        assert check_isaacs_bound(ambient, acting, target), key
        count += 1
    assert count >= 10
    report(f"criterion 8: stabilizer lemmas verified on {count} actions", True)


def test_criterion_9_determinism(tmp_path):
    from galchar.cli import main

    outputs = []
    for run_id in (1, 2):
        out = tmp_path / f"run{run_id}"
        out.mkdir()
        gf = out / "g.json"
        code = main(
            ["construct", "a3", "--p", "2", "--n", "2", "--height", "2", "--out", str(gf)]
        )
        assert code == 0
        assert (
            main(
                ["--seed", "42", "chartab", str(gf), "--format", "json",
                 "--out", str(out / "table.json")]
            )
            == 0
        )
        assert (
            main(
                ["--seed", "42", "classify", str(gf), "--report", "json",
                 "--out", str(out / "report.json")]
            )
            == 0
        )
        assert (
            main(
                ["--seed", "42", "sweep", "--tags", "a5", "--max-order", "200",
                 "--out", str(out / "census.json")]
            )
            == 0
        )
        outputs.append(
            tuple(
                (out / name).read_bytes()
                for name in ("g.json", "table.json", "report.json", "census.json")
            )
        )
    assert outputs[0] == outputs[1]
    report("criterion 9: byte-identical outputs for identical seeds", True)
