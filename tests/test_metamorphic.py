"""Classification does not depend on how a group is written down: relabelled
points and reordered generators give the same report, and the complement
search seed does not change the verdict, the case or (p, n, d)."""
import random

import pytest

from galchar.chartab import character_table
from galchar.classify import analyze_structure
from galchar.perm import PermGroup

KEYS = (
    "S3", "C3^2:Q8", "V4:C9", "Heis3:C8", "SL(2,3)", "Heis3:Q8", "Q8:C9", "S4", "A4xC2",
)


def relabelled(group: PermGroup, seed: int) -> PermGroup:
    """The same group with its points renamed and its generators shuffled."""
    rng = random.Random(seed)
    sigma = list(range(group.degree))
    rng.shuffle(sigma)
    gens = []
    for g in group.generators:
        images = [0] * group.degree
        for x, y in enumerate(g.images):
            images[sigma[x]] = sigma[y]
        gens.append(images)
    rng.shuffle(gens)
    return PermGroup(group.degree, gens)


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
