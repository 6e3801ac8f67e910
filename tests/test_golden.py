"""Pinned outputs: any change to tables, class sizes or power maps is deliberate.

Each digest is the sha256 of the JSON (sorted keys) of the table's
``to_dict()``, the class sizes and the power maps, as computed by the
element-by-element code before classes, splitter and lift were vectorised.
A change that alters the output on purpose updates the digests and says why.
"""
import hashlib
import json

import pytest

from galchar.chartab import character_table
from galchar.constructors import CaseParams, construct_case
from galchar.corpus import build

GOLDEN = {
    ("S4", 0): "112c98514d5c899e7d0f76e34c1ac69b3ee96b57751460abf191f0a0e48c1516",
    ("SL(2,3)", 0): "1ff6ec2260d5976af3383de9f64216315c0ef55d9d622fcfb7f885d986401bca",
    ("F8:C7", 1): "3b8905181ba864c201d364110e1c889e502624edd3e4018d099d1d5109339784",
    ("Heis3:Q8", 0): "93c9b4a60780542e8de76df4853582e17b88600c96a5dc6ac4da928b95a47a08",
    # a sweep point with 63 classes, past the exact-verification limit
    ("a7(h=3)", 1): "070aac67cfe351bbeb1c9c8f406642b1eeb7592a0c536d144b08ab3a5c618b99",
}


def _group(key):
    if key == "a7(h=3)":
        return construct_case(CaseParams("a7", 2, 2, 1, 3))
    return build(key)


@pytest.mark.parametrize("key,seed", sorted(GOLDEN))
def test_output_digest(key, seed):
    group = _group(key)
    classes = group.conjugacy_classes()
    doc = {
        "table": character_table(group, seed=seed).to_dict(),
        "sizes": [c.size for c in classes],
        "power_maps": [list(c.power_map) for c in classes],
    }
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN[(key, seed)]
