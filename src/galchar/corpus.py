"""The standard test corpus: ~25 groups of order <= 216 with known verdicts.

Used both by the pytest acceptance suite and by the check-theorem command.
Each entry records the expected verdict and, for positives, the expected
case tag and (p, n, d) witnesses.  A positive without a builder of its own
is the constructors.CASES point of those witnesses and its height, built by
construct_case, so its witnesses are stated once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constructors import (
    CaseParams,
    alternating,
    affine_semidirect,
    construct_case,
    cyclic,
    dihedral,
    generalized_quaternion,
    heisenberg,
    quaternion8,
    symmetric,
)
from .perm import PermGroup, direct_product


@dataclass(frozen=True)
class CorpusEntry:
    key: str
    build: "callable | None"  # None: the CASES point (tag, p, n, d, height)
    verdict: str  # expected: NilpotentEmpty | SingleGaloisClass | NotSingleClass
    tag: str | None = None
    p: int | None = None
    n: int | None = None
    d: int | None = None
    height: int = 1


def _c3xq8() -> PermGroup:
    g = direct_product(cyclic(3), quaternion8(), name="C3xQ8")
    return g


def _c12() -> PermGroup:
    return cyclic(12)


def _klein() -> PermGroup:
    return direct_product(cyclic(2), cyclic(2), name="C2xC2")


def _c7_c3() -> PermGroup:
    # 2 has order 3 mod 7
    return affine_semidirect(7, 1, [np.array([[2]], dtype=np.int64)], 1, name="C7:C3")


def _f9_c4() -> PermGroup:
    # the order-4 rotation [[0,-1],[1,0]] over F_3: two rational exceptional
    # characters, the designed negative control for the transitivity clause
    m = np.array([[0, 2], [1, 0]], dtype=np.int64)
    return affine_semidirect(3, 2, [m], 1, name="C3^2:C4")


def _f5_c4() -> PermGroup:
    return affine_semidirect(5, 1, [np.array([[2]], dtype=np.int64)], 1, name="F5:C4")


CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry("C1", lambda: cyclic(1), "NilpotentEmpty"),
    CorpusEntry("C2", lambda: cyclic(2), "NilpotentEmpty"),
    CorpusEntry("C3", lambda: cyclic(3), "NilpotentEmpty"),
    CorpusEntry("C5", lambda: cyclic(5), "NilpotentEmpty"),
    CorpusEntry("C6", lambda: cyclic(6), "NilpotentEmpty"),
    CorpusEntry("C12", _c12, "NilpotentEmpty"),
    CorpusEntry("C2xC2", _klein, "NilpotentEmpty"),
    CorpusEntry("D8", lambda: dihedral(4), "NilpotentEmpty"),
    CorpusEntry("Q8", quaternion8, "NilpotentEmpty"),
    CorpusEntry("Q16", lambda: generalized_quaternion(16), "NilpotentEmpty"),
    CorpusEntry("Heis3", lambda: heisenberg(3), "NilpotentEmpty"),
    CorpusEntry("C3xQ8", _c3xq8, "NilpotentEmpty"),
    CorpusEntry("S3", lambda: symmetric(3), "SingleGaloisClass", "a1", 3, 1, 1),
    CorpusEntry("D10", lambda: dihedral(5), "SingleGaloisClass", "a1", 5, 1, 2),
    CorpusEntry("D14", lambda: dihedral(7), "SingleGaloisClass", "a1", 7, 1, 3),
    CorpusEntry("C7:C3", _c7_c3, "SingleGaloisClass", "a1", 7, 1, 2),
    CorpusEntry("F5:C4", _f5_c4, "SingleGaloisClass", "a1", 5, 1, 1),
    CorpusEntry("A4", lambda: alternating(4), "SingleGaloisClass", "a1", 2, 2, 1),
    CorpusEntry("F8:C7", None, "SingleGaloisClass", "a1", 2, 3, 1),
    CorpusEntry("C3^2:Q8", None, "SingleGaloisClass", "a2", 3, 2, 1),
    CorpusEntry("V4:C9", None, "SingleGaloisClass", "a3", 2, 2, 1, height=2),
    CorpusEntry("Heis3:C8", None, "SingleGaloisClass", "a4", 3, 2, 1),
    CorpusEntry("SL(2,3)", None, "SingleGaloisClass", "a5", 2, 2, 1),
    CorpusEntry("Heis3:Q8", None, "SingleGaloisClass", "a6", 3, 2, 1),
    CorpusEntry("Q8:C9", None, "SingleGaloisClass", "a7", 2, 2, 1, height=2),
    CorpusEntry("S4", lambda: symmetric(4), "NotSingleClass"),
    CorpusEntry("C3^2:C4", _f9_c4, "NotSingleClass"),
    CorpusEntry(
        "A4xC2",
        lambda: direct_product(alternating(4), cyclic(2), name="A4xC2"),
        "NotSingleClass",
    ),
)

NILPOTENT_KEYS = tuple(e.key for e in CORPUS if e.verdict == "NilpotentEmpty")
POSITIVE_KEYS = tuple(e.key for e in CORPUS if e.verdict == "SingleGaloisClass")
NEGATIVE_KEYS = tuple(e.key for e in CORPUS if e.verdict == "NotSingleClass")


def build(key: str) -> PermGroup:
    e = entry(key)
    g = e.build() if e.build else construct_case(CaseParams(e.tag, e.p, e.n, e.d, e.height))
    g.name = key
    return g


def entry(key: str) -> CorpusEntry:
    for e in CORPUS:
        if e.key == key:
            return e
    raise KeyError(key)
