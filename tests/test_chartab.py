import json
from math import gcd

import numpy as np
import pytest

from galchar import chartab
from galchar.chartab import (
    TableVerificationError,
    character_table,
    verify_orthogonality_exact,
)
from galchar.constructors import (
    CaseParams,
    ParamsInvalid,
    construct_case,
    cyclic,
    dihedral,
    sweep_parameter_points,
    symmetric,
)
from galchar.corpus import CORPUS, build
from galchar.cyclotomic import cyc

from reference import Cyc, element_set, galois_conjugate, galois_stabilizer, is_rational, zeta


def test_s3_table():
    table = character_table(symmetric(3))
    assert table.degrees == [1, 1, 2]
    # classes sorted by element order: identity, transpositions, 3-cycles
    assert [c.order for c in table.classes] == [1, 2, 3]
    chi2 = table.chars[2]
    assert chi2.degree == 2
    assert chi2.values[1] == cyc(0)  # transpositions
    assert chi2.values[2] == cyc(-1)  # 3-cycles


def test_c3_table_is_dual_group():
    table = character_table(cyclic(3))
    rows = {tuple(str(v) for v in chi.values) for chi in table.chars}
    w = zeta(3)
    w2 = zeta(3, 2)
    expected = {
        tuple(str(v) for v in (cyc(1), cyc(1), cyc(1))),
        tuple(str(v) for v in (cyc(1), w, w2)),
        tuple(str(v) for v in (cyc(1), w2, w)),
    }
    assert rows == expected


def test_sl23_degrees():
    table = character_table(build("SL(2,3)"))
    assert table.degrees == [1, 1, 1, 2, 2, 2, 3]


def test_degree_sum_invariant(get_table, corpus_keys):
    for key in corpus_keys:
        table = get_table(key)
        assert sum(d * d for d in table.degrees) == table.group.order


def test_first_column_is_degree(get_table):
    for key in ("S3", "Q8", "SL(2,3)", "V4:C9"):
        table = get_table(key)
        for chi in table.chars:
            assert chi.values[0] == chi.degree


def test_kernels():
    table = character_table(symmetric(3))
    principal = table.chars[1] if table.chars[1].values[1] == cyc(1) else table.chars[0]
    sign = table.chars[0] if principal is table.chars[1] else table.chars[1]
    assert principal.kernel().order == 6
    assert sign.kernel().order == 3  # A3
    sl = character_table(build("SL(2,3)"))
    chi3 = sl.chars[6]
    assert chi3.degree == 3
    assert chi3.kernel().order == 2
    assert element_set(chi3.kernel()) == element_set(sl.group.center())


def test_galois_conjugate_examples():
    table = character_table(cyclic(3))
    for chi in table.chars:
        assert galois_conjugate(table, chi, 1) is chi
    nonreal = [chi for chi in table.chars if not is_rational(chi)]
    assert len(nonreal) == 2
    assert galois_conjugate(table, nonreal[0], 2) is nonreal[1]

    s3 = character_table(symmetric(3))
    for chi in s3.chars:
        for k in (1, 5):
            assert galois_conjugate(s3, chi, k) is chi
    with pytest.raises(ValueError):
        galois_conjugate(s3, s3.chars[0], 2)  # exponent 6, gcd(2,6) != 1


def test_galois_orbits():
    c5 = character_table(cyclic(5))
    orbits = c5.galois_orbits()
    assert sorted(len(o) for o in orbits) == [1, 4]

    s3 = character_table(symmetric(3))
    assert sorted(len(o) for o in s3.galois_orbits()) == [1, 1, 1]

    c3 = character_table(cyclic(3))
    assert sorted(len(o) for o in c3.galois_orbits()) == [1, 2]


def test_orbit_size_equals_stabilizer_index(get_table):
    for key in ("C7:C3", "D10", "SL(2,3)", "C12"):
        table = get_table(key)
        units = table.units()
        orbits = table.galois_orbits()
        for chi in table.chars:
            orbit = next(o for o in orbits if chi.index in o)
            stab = galois_stabilizer(chi)
            assert len(orbit) * len(stab) == len(units)


def test_field_in_pth_cyclotomic():
    s3 = character_table(symmetric(3))
    for chi in s3.chars:
        for p in (2, 3, 5, 7):
            assert s3.field_in_pth_cyclotomic(chi, p)  # all rational

    d10 = character_table(dihedral(5))
    two_dims = [chi for chi in d10.chars if chi.degree == 2]
    assert len(two_dims) == 2
    for chi in two_dims:
        assert d10.field_in_pth_cyclotomic(chi, 5)
        assert not d10.field_in_pth_cyclotomic(chi, 3)

    c4 = character_table(cyclic(4))
    nonreal = [chi for chi in c4.chars if not is_rational(chi)]
    assert nonreal
    for chi in nonreal:
        assert not c4.field_in_pth_cyclotomic(chi, 5)
        # Q(zeta_2) = Q, so a nonreal character is not contained there either
        assert not c4.field_in_pth_cyclotomic(chi, 2)


def test_rational_rows_equal_rational_classes(get_table):
    for key in ("S3", "Q8", "SL(2,3)", "C7:C3", "Heis3:C8"):
        table = get_table(key)
        e = table.exponent
        units = [k for k in range(1, e + 1) if gcd(k, e) == 1]
        rational_classes = sum(
            1
            for c in table.classes
            if all(c.powers[u % e] == table.classes.index(c) for u in units)
        )
        rational_rows = sum(1 for chi in table.chars if is_rational(chi))
        assert rational_rows == rational_classes


def test_exact_orthogonality_explicit():
    for key in ("S3", "Q8", "SL(2,3)"):
        verify_orthogonality_exact(character_table(build(key)))


def test_determinism_same_seed():
    a = character_table(build("SL(2,3)"), seed=7).to_dict()
    b = character_table(build("SL(2,3)"), seed=7).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_table_serialization_schema():
    table = character_table(build("Q8"))
    doc = table.to_dict()
    assert set(doc) == {"order", "exponent", "classes", "degrees", "values", "config"}
    assert doc["order"] == 8 and doc["exponent"] == 4
    assert all(set(c) == {"size", "elt_order"} for c in doc["classes"])
    assert len(doc["values"]) == len(doc["degrees"]) == 5
    # values render back to the same cyclotomics
    for row, chi in zip(doc["values"], table.chars):
        for text, value in zip(row, chi.values):
            assert Cyc.parse(text) == value


def _sweep_groups():
    for params in sweep_parameter_points():
        try:
            yield params.label(), construct_case(params)
        except ParamsInvalid:
            pass


def test_rows_are_sorted_by_degree_then_rendered_values(get_table, corpus_keys):
    tables = [(key, get_table(key)) for key in corpus_keys]
    tables += [(label, character_table(group)) for label, group in _sweep_groups()]
    tables.append(("a7(h=4)", character_table(construct_case(CaseParams("a7", 2, 2, 1, 4)))))
    for label, table in tables:
        keys = [(chi.degree, [str(v) for v in chi.values]) for chi in table.chars]
        assert keys == sorted(keys), label


_split_tables = []


def _split_tables_at_seeds_0_and_1():
    """(label, |G|, table) for the corpus and the default sweep at seeds 0 and 1."""
    if not _split_tables:
        groups = [(entry.key, build(entry.key)) for entry in CORPUS] + list(_sweep_groups())
        _split_tables.extend(
            (f"{label} seed {seed}", group.order, character_table(group, seed=seed))
            for seed in (0, 1) for label, group in groups
        )
    return _split_tables


def test_split_forms_at_most_g_k_products():
    # each product x^-1 z_m is formed at most once per table, and only for
    # the classes a level reads; the |G| x k index of every product is gone
    for label, order, table in _split_tables_at_seeds_0_and_1():
        assert 0 < table.split["products"] <= order * table.n_classes, label
    group = construct_case(CaseParams("a7", 2, 2, 1, 5))
    for seed in (0, 1):
        table = character_table(group, seed=seed)
        assert table.split["products"] <= group.order * table.n_classes // 4


def test_no_small_table_widens_the_eigen_check():
    # the least class of each power-orbit tells the central characters of
    # every corpus and default-sweep table apart mod l
    for label, _, table in _split_tables_at_seeds_0_and_1():
        assert table.split["widened"] == 0, label
