"""Inputs, per-input jobs and answer checks of the galchar benchmark.

Every call into galchar goes through a module attribute (``chartab.character_table``
and so on) at call time, so the wrappers that ``tracer.Tracer`` installs see it.
"""
from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from galchar import chartab, classify, constructors, corpus, perm
from galchar.constructors import CaseParams

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

SINGLE = "SingleGaloisClass"

# `galchar chartab` traffic: the largest table that fits a run (k = 567).
TABLE_LARGE = (CaseParams("a7", 2, 2, 1, 5),)
# `galchar classify` traffic: large orders, small tables (k <= 81).
CLASSIFY_LARGE = (
    CaseParams("a1", 3, 4, 1),
    CaseParams("a1", 5, 3, 2),
    CaseParams("a2", 7, 2, 1),
    CaseParams("a1", 2, 6, 1),
)
# Two tiny corpus groups, one positive and one negative, for the smoke test.
SMOKE_KEYS = ("S3", "S4")

# workload -> what each input goes through after its table is built
JOBS = {
    "theorem": "theorem",
    "table_large": "table",
    "classify_large": "classify",
    "smoke": "theorem",
}
# Passes a run makes at least.  classify_large's closures over sets of
# permutations are the most sensitive to other tenants of the machine; on a
# shared 2-core host the median of two passes cut its run-to-run spread
# across seeds from about 20 % to about 9 %.
MIN_PASSES = {"classify_large": 2}


@dataclass(frozen=True)
class Spec:
    """One input before set-up: how to build it and what it must answer."""

    key: str
    build: Callable[[], perm.PermGroup]
    declared: dict


def _corpus_spec(entry) -> Spec:
    declared = {"verdict": entry.verdict}
    if entry.verdict == SINGLE:
        declared.update(
            case=entry.tag, pnd=[entry.p, entry.n, entry.d], fitting_at_most_two=True
        )
    return Spec(entry.key, lambda: corpus.build(entry.key), declared)


def _case_spec(params: CaseParams, job: str) -> Spec:
    declared = {"verdict": SINGLE, "case": params.tag} if job != "table" else {}
    return Spec(params.label(), lambda: constructors.construct_case(params), declared)


def specs(workload: str) -> list[Spec]:
    if workload == "theorem":
        out = [_corpus_spec(e) for e in corpus.CORPUS]
        # `galchar check-theorem` sweeps the default points with |G| <= 1000;
        # PARAMS-INVALID points are dropped when the inputs are built.
        out += [_case_spec(p, "theorem") for p in constructors.sweep_parameter_points()]
        return out
    if workload == "table_large":
        return [_case_spec(p, "table") for p in TABLE_LARGE]
    if workload == "classify_large":
        return [_case_spec(p, "classify") for p in CLASSIFY_LARGE]
    if workload == "smoke":
        return [_corpus_spec(corpus.entry(k)) for k in SMOKE_KEYS]
    raise ValueError(f"unknown workload {workload}")


def relabel(group: perm.PermGroup, seed: int, key: str) -> str:
    """The group as group-file JSON, its points relabelled and its
    generators shuffled by the seed; seed 0 keeps the group as built."""
    doc = perm.group_to_dict(group)
    if seed:
        rng = random.Random(f"{seed}:{key}")
        sigma = list(range(group.degree))
        rng.shuffle(sigma)
        gens = []
        for images in doc["generators"]:
            new = [0] * group.degree
            for x, y in enumerate(images):
                new[sigma[x]] = sigma[y]
            gens.append(new)
        rng.shuffle(gens)
        doc["generators"] = gens
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def fingerprint(table: chartab.CharacterTable) -> dict:
    """|G|, k, the degree multiset and the exceptional count of a table.

    Kernels are read off the table (classes where chi equals its degree),
    independently of ``Character.kernel`` and ``irr_partition``.
    """
    order = table.group.order
    sizes = [c.size for c in table.classes]
    exceptional = 0
    for chi in table.chars:
        kernel = sum(s for s, v in zip(sizes, chi.values) if v == chi.degree)
        if (order // kernel) % (chi.degree**2):
            exceptional += 1
    return {
        "order": order,
        "k": table.n_classes,
        "degrees": sorted(Counter(table.degrees).items()),
        "exceptional": exceptional,
    }


def run_input(job: str, text: str, seed: int) -> dict:
    """Load one group from its JSON and do the workload's job on it."""
    group = perm.group_from_json(text)
    table = chartab.character_table(group, seed=seed)
    answer = {"fingerprint": fingerprint(table)}
    if job == "table":
        return answer
    if job == "theorem":
        part = classify.irr_partition(table)
        answer["irr_exceptional"] = len(part.exceptional)
        answer["nilpotent"] = group.is_nilpotent()
    report = classify.analyze_structure(group, table, seed=seed)
    answer.update(
        verdict=report.verdict,
        case=report.case_tag,
        pnd=[report.p, report.n, report.d],
        theorem_violation=report.theorem_violation,
    )
    if job == "theorem" and report.verdict == SINGLE:
        answer["fitting_at_most_two"] = (
            group.is_solvable() and group.has_fitting_height_at_most_two()
        )
    return answer


def mismatches(answer: dict, expected: dict) -> list[str]:
    """Every way an answer differs from the checked-in expectation."""
    out = []
    if answer["fingerprint"] != expected["fingerprint"]:
        out.append(f"fingerprint {answer['fingerprint']} != {expected['fingerprint']}")
    for name in ("verdict", "case", "pnd"):
        if name in expected and answer.get(name) != expected[name]:
            out.append(f"{name} {answer.get(name)} != {expected[name]}")
    if answer.get("theorem_violation"):
        out.append(f"theorem violation: {answer['theorem_violation']}")
    if "nilpotent" in answer:
        if (answer["fingerprint"]["exceptional"] == 0) != answer["nilpotent"]:
            out.append("no-exceptional iff nilpotent fails")
        if answer["irr_exceptional"] != answer["fingerprint"]["exceptional"]:
            out.append("irr_partition disagrees with the table's kernels")
    if expected.get("fitting_at_most_two") and not answer.get("fitting_at_most_two"):
        out.append("solvable with Fitting height <= 2 fails")
    return out


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        doc = json.load(fh)
    for entries in doc.values():
        for exp in entries.values():
            exp["fingerprint"]["degrees"] = [tuple(d) for d in exp["fingerprint"]["degrees"]]
    return doc
