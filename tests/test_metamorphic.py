"""Classification does not depend on how a group is written down: relabelled
points and reordered generators give the same report, and the complement
search seed does not change the verdict, the case or (p, n, d).  Nor does the
character table: the table seed changes only ``config.seed``, and relabelling
permutes rows and columns only."""
import random

import pytest

from galchar.chartab import character_table
from galchar.classify import analyze_structure
from galchar.perm import PermGroup, Permutation

KEYS = (
    "S3", "C3^2:Q8", "V4:C9", "Heis3:C8", "SL(2,3)", "Heis3:Q8", "Q8:C9", "S4", "A4xC2",
)


TABLE_KEYS = ("S4", "SL(2,3)", "Heis3:Q8", "Q8:C9", "C3^2:Q8", "A4xC2", "F8:C7")


def conjugated(perm: Permutation, sigma: list[int]) -> Permutation:
    """sigma perm sigma^-1: perm with its points renamed by sigma."""
    images = [0] * len(sigma)
    for x, y in enumerate(perm.images):
        images[sigma[x]] = sigma[y]
    return Permutation(images)


def relabelling(group: PermGroup, seed: int) -> tuple[PermGroup, list[int]]:
    """The same group with its points renamed by a seeded sigma and its
    generators shuffled, and sigma."""
    rng = random.Random(seed)
    sigma = list(range(group.degree))
    rng.shuffle(sigma)
    gens = [conjugated(g, sigma) for g in group.generators]
    rng.shuffle(gens)
    return PermGroup(group.degree, gens), sigma


def relabelled(group: PermGroup, seed: int) -> PermGroup:
    """The same group with its points renamed and its generators shuffled."""
    return relabelling(group, seed)[0]


@pytest.mark.parametrize("key", KEYS)
def test_report_is_invariant(get_group, get_table, key):
    group, table = get_group(key), get_table(key)
    report = analyze_structure(group, table)
    other = relabelled(group, seed=len(key))
    assert analyze_structure(other, character_table(other)).to_dict() == report.to_dict()
    for seed in (0, 1, 2):
        again = analyze_structure(group, table, seed=seed)
        assert again.verdict == report.verdict
        assert again.case_tag == report.case_tag
        assert (again.p, again.n, again.d) == (report.p, report.n, report.d)


@pytest.mark.parametrize("key", TABLE_KEYS)
def test_table_is_invariant(get_group, key):
    group = get_group(key)
    docs = []
    for seed in (0, 1, 2):
        doc = character_table(group, seed=seed).to_dict()
        assert doc["config"].pop("seed") == seed
        docs.append(doc)
    assert docs[0] == docs[1] == docs[2]

    other, sigma = relabelling(group, seed=len(key))
    table, moved = character_table(group), character_table(other)
    reps = [conjugated(group.element(c.element_ids[0]), sigma) for c in group.conjugacy_classes()]
    column = other.class_index_array()[other.ids_of(reps)].tolist()
    assert sorted(column) == list(range(len(column)))
    assert [(c.size, c.order) for c in group.conjugacy_classes()] == [
        (moved.classes[j].size, moved.classes[j].order) for j in column
    ]
    rows = sorted([str(v) for v in chi.values] for chi in table.chars)
    moved_rows = sorted([str(chi.values[j]) for j in column] for chi in moved.chars)
    assert moved_rows == rows
