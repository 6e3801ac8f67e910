"""Pinned outputs: any change to tables, class sizes, power maps or group
files is deliberate.

Each table digest is the sha256 of the JSON (sorted keys) of the table's
``to_dict()``, the class sizes and the power maps, as computed by the
element-by-element code before classes, splitter and lift were vectorised.
Each group-file digest is the sha256 of ``group_to_json`` (or of the
PARAMS-INVALID condition) as computed when matrix groups were closed as
lists of matrices and vectors were numbered through a dict; it pins the
numbering of the vectors of F_p^n in the affine and semidirect builders.
A change that alters the output on purpose updates the digests and says why.
"""
import hashlib
import json

import pytest

from galchar.chartab import character_table
from galchar.constructors import (
    CaseParams,
    ParamsInvalid,
    construct_case,
    sweep_parameter_points,
)
from galchar.corpus import build
from galchar.perm import group_to_json

GOLDEN = {
    ("S4", 0): "112c98514d5c899e7d0f76e34c1ac69b3ee96b57751460abf191f0a0e48c1516",
    ("SL(2,3)", 0): "1ff6ec2260d5976af3383de9f64216315c0ef55d9d622fcfb7f885d986401bca",
    ("F8:C7", 1): "3b8905181ba864c201d364110e1c889e502624edd3e4018d099d1d5109339784",
    ("Heis3:Q8", 0): "93c9b4a60780542e8de76df4853582e17b88600c96a5dc6ac4da928b95a47a08",
    # a sweep point with 63 classes
    ("a7(h=3)", 1): "070aac67cfe351bbeb1c9c8f406642b1eeb7592a0c536d144b08ab3a5c618b99",
    # 189 classes, where the lift dominates; taken before the values were pooled
    ("a7(h=4)", 1): "4083de7cea17203c691ef196246246461ee10de7a9884cc2f7fc002343bbd74b",
    # 324 classes, the largest table of check-theorem; taken before the lift
    # filled columns from one class per power-orbit
    ("a3(p=2,n=2,h=5)", 1): "46d2ba2d3f36405045ade9c3dec61c7676d6936defd25f169ad7c27693b5fca8",
}
CASES = {
    "a7(h=3)": CaseParams("a7", 2, 2, 1, 3),
    "a7(h=4)": CaseParams("a7", 2, 2, 1, 4),
    "a3(p=2,n=2,h=5)": CaseParams("a3", 2, 2, 1, 5),
}


def _group(key):
    return construct_case(CASES[key]) if key in CASES else build(key)


@pytest.mark.parametrize("key,seed", sorted(GOLDEN))
def test_output_digest(key, seed):
    group = _group(key)
    classes = group.conjugacy_classes()
    doc = {
        "table": character_table(group, seed=seed).to_dict(),
        "sizes": [c.size for c in classes],
        "power_maps": [c.powers.tolist() for c in classes],
    }
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN[(key, seed)]


# the default sweep, the classify benchmark's four points, and the corpus
# groups built by affine_semidirect(3, 2, ...) and extraspecial_semidirect(3, ...)
GROUP_FILES = {
    "a1(p=2,n=1,d=1,h=1)": "6d35d417206a86571570e00deebb0e33c791d4b0535664b473419a63ad21498a",
    "a1(p=2,n=2,d=1,h=1)": "472c51870346d9915b14f5426dd3ff7558172763213f19714a144f049ab96beb",
    "a1(p=2,n=3,d=1,h=1)": "fa27438dcc8b19d44158edbc6a88443331cda18c029cd6cce29300583e5f6764",
    "a1(p=2,n=4,d=1,h=1)": "03a42f54aead6b693b49f4ad82b9278baff2d4b19c7a03dda2d7a9216b424419",
    "a1(p=2,n=5,d=1,h=1)": "f2402d9eb2b70869e2b74230e809bd13e570b085468d4b162585f8d740ad49ff",
    "a1(p=3,n=1,d=1,h=1)": "2316d652188a6845db4695b5fa8247e38b113f17c78cc2f9deab31eacd22bf50",
    "a1(p=3,n=1,d=2,h=1)": "6d35d417206a86571570e00deebb0e33c791d4b0535664b473419a63ad21498a",
    "a1(p=3,n=2,d=1,h=1)": "45be6812d978467b65c4f467a3cf4cc45df3ba67750edf1a2629b7d568a985cc",
    "a1(p=3,n=2,d=2,h=1)": "c24fcfb938b7a57ed5ac3c1abf4187d9d8dc4f89ef76f0d97e75a00b0b4d0119",
    "a1(p=3,n=3,d=1,h=1)": "b69638224d1f8a823608193273de0519f6ca5e0b66cb39cc232f290f28853350",
    "a1(p=3,n=3,d=2,h=1)": "c337cf52747b6e922192cbdeb35aea155d2e238371ba501753d98375d9e5c1df",
    "a1(p=5,n=1,d=1,h=1)": "86c13cc38cd9b9898f00215ec62bd00c2a1d89fa7d02207177fe04b8a23cea1c",
    "a1(p=5,n=1,d=2,h=1)": "d1a80933d807bf75b78e5fb2de8f6c65810cfa2d03a0dd914fcf8b102386ab22",
    "a1(p=5,n=1,d=4,h=1)": "6d35d417206a86571570e00deebb0e33c791d4b0535664b473419a63ad21498a",
    "a1(p=5,n=2,d=1,h=1)": "17c26746d6d6c7114480a58000cc80a005faa69621ef28250761e713ed1e4b59",
    "a1(p=5,n=2,d=2,h=1)": "c24fcfb938b7a57ed5ac3c1abf4187d9d8dc4f89ef76f0d97e75a00b0b4d0119",
    "a1(p=5,n=2,d=4,h=1)": "c24fcfb938b7a57ed5ac3c1abf4187d9d8dc4f89ef76f0d97e75a00b0b4d0119",
    "a1(p=7,n=1,d=1,h=1)": "3c8a3d91aab0c6e938f1ce51e7fe086e2b27e3e6ed49f6b344a6491f46a12c78",
    "a1(p=7,n=1,d=2,h=1)": "ee4505a4b7b166110df482bef8291baa7e31545b391a77cd695e460efafc058f",
    "a1(p=7,n=1,d=3,h=1)": "ed41a81ae1c950dc6ffc6099d53b252cb3867cf03d36b20c7cc9acc9de277686",
    "a1(p=7,n=1,d=6,h=1)": "6d35d417206a86571570e00deebb0e33c791d4b0535664b473419a63ad21498a",
    "a1(p=7,n=2,d=3,h=1)": "3eb9044abc8b9d2a632cff5efa63d33326de3fd90cf7ddbe1e6c663994bfd06c",
    "a1(p=7,n=2,d=6,h=1)": "c24fcfb938b7a57ed5ac3c1abf4187d9d8dc4f89ef76f0d97e75a00b0b4d0119",
    "a2(p=3,n=2,d=1,h=1)": "4daf2d0d866b25b6e55cf97cf44e2cfb4d28332997cbf3d95c6be4774582df6f",
    "a2(p=3,n=2,d=2,h=1)": "d20e8c7fc1af316f2a49c1210cb4aed9fde711f272108417b74f9b6594f95d4c",
    "a2(p=7,n=2,d=3,h=1)": "6f9e1ffe4ede3d6aea0b50ab7f464dabe4d70a0d61c4379d37495d266d415c7a",
    "a2(p=7,n=2,d=6,h=1)": "c24fcfb938b7a57ed5ac3c1abf4187d9d8dc4f89ef76f0d97e75a00b0b4d0119",
    "a3(p=2,n=2,d=1,h=2)": "dcd2bae2fc959ef2a50e521c36955e1f18bbe8b03e47d3b682eba98f7bb3b5c2",
    "a3(p=2,n=2,d=1,h=3)": "00bcee7ba21b9ad1e3eac607dae64015bbc0e6674cf2a76359fea747f6dd1d80",
    "a3(p=2,n=2,d=1,h=4)": "8980b2382e781fbeb4fbafe5d071392ef83dd727f0eb12f4e376fac8ff5aa661",
    "a3(p=2,n=2,d=1,h=5)": "d460c79670d46f9f56748059cd580d786e967e7d906717760a7871ae18d15a16",
    "a3(p=2,n=3,d=1,h=2)": "cf718e4e12e40e1f36a2e66feaf9110766db9076caf535a09e5b56a2b00e5431",
    "a4(p=3,n=2,d=1,h=1)": "d179bad5397049dc5c6d0184adc832357096684a08cc37f1667966487198eb5c",
    "a5(p=2,n=2,d=1,h=1)": "05519d76963d66d1ddc940463c1671d9e579c6cbd978355eeae7a02c1284bfcb",
    "a5(p=3,n=2,d=2,h=1)": "c24fcfb938b7a57ed5ac3c1abf4187d9d8dc4f89ef76f0d97e75a00b0b4d0119",
    "a5(p=5,n=2,d=4,h=1)": "c24fcfb938b7a57ed5ac3c1abf4187d9d8dc4f89ef76f0d97e75a00b0b4d0119",
    "a6(p=3,n=2,d=1,h=1)": "7daf34ee15d1e3be9735ffca13517231d703fc1b11e7742bdc9492f7e1306606",
    "a6(p=3,n=2,d=2,h=1)": "d20e8c7fc1af316f2a49c1210cb4aed9fde711f272108417b74f9b6594f95d4c",
    "a7(p=2,n=2,d=1,h=2)": "5e1805a719421ba3855a9e60ec30cf30d8c1e3e9f61bf7bb4784a0e13be66b86",
    "a7(p=2,n=2,d=1,h=3)": "c6bc5617ceb2d5fae16b0807e4edb270b31f80fb2d8ad3706f53011be88607dc",
    "a7(p=2,n=2,d=1,h=4)": "835bad35ff1c543e3e4d1bbfb5ec6f1f78607ef3b882a090151dd8afcb1a3464",
    "a1(p=3,n=4,d=1,h=1)": "f74b791e63cde6fd7b32fa9fb2a63f71acac99db92c8432ad432e7c2ad755d1a",
    "a1(p=5,n=3,d=2,h=1)": "fe06b527de9fd30e2bd0cd3cd0f20c103c292685c04d06a2a1d49713dd68445a",
    "a2(p=7,n=2,d=1,h=1)": "a8cb5f8b5f422dc4470227e0e997d7d4bf3612ee8a38a9c927425e92f209ac30",
    "a1(p=2,n=6,d=1,h=1)": "5b9d509dac512d6127c37bfb7827a7e1439435536e9a8884960741bcc9603013",
    "C3^2:C4": "8500ba55179f2eaa73ed599c4659932b714516e32118b18d4d7aa5185587a901",
    "C3^2:Q8": "d49945ac9aadcf63a6d42572d9da27301fb21201b08f2cfeb4944f26da5ba2bb",
    "Heis3:C8": "00fa40502b4673cb039f50dd042fc304b5e3e7eb54938f50e490f933fc02c74f",
    "Heis3:Q8": "11d24052d341d683dd1d4f419cac854ddc0adb3167ba60a12ab4066e018f4f9e",
}
POINTS = {
    params.label(): params
    for params in list(sweep_parameter_points())
    + [
        CaseParams("a1", 3, 4, 1),
        CaseParams("a1", 5, 3, 2),
        CaseParams("a2", 7, 2, 1),
        CaseParams("a1", 2, 6, 1),
    ]
}


def test_group_files_cover_the_sweep():
    assert set(POINTS) <= set(GROUP_FILES)


@pytest.mark.parametrize("key", sorted(GROUP_FILES))
def test_group_file_digest(key):
    if key in POINTS:
        try:
            text = group_to_json(construct_case(POINTS[key]))
        except ParamsInvalid as exc:
            text = f"PARAMS-INVALID: {exc.condition}\n"
    else:
        text = group_to_json(build(key))
    assert hashlib.sha256(text.encode()).hexdigest() == GROUP_FILES[key]
