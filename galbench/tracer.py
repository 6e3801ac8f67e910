"""Spans and counts around galchar's public functions, installed at run time.

The tracer replaces module attributes and class methods with wrappers that
record a span (name, start, end, parent span, input id) or bump a counter,
and puts the originals back on ``uninstall``.  A layer's self time is the
duration of its spans minus the part their child spans cover, so the self
times of all layers plus ``other_s`` add up to the traced wall time.
"""
from __future__ import annotations

import functools
import time
from collections import Counter

from galchar import chartab, classify, constructors, corpus, cyclotomic, perm

# (layer, owner, attribute): a span around every call.  Module functions are
# patched in the namespace their callers look them up in; the action checks
# only in classify, so the ones run while constructing groups count as set-up.
SPANNED = (
    ("perm.enumerate", perm.PermGroup, "__init__"),
    ("perm.classes", perm.PermGroup, "conjugacy_classes"),
    ("perm.close", perm.PermGroup, "close"),
    ("perm.series", perm.PermGroup, "derived_subgroup"),
    ("perm.series", perm.PermGroup, "derived_series"),
    ("perm.series", perm.PermGroup, "lower_central_series"),
    ("perm.series", perm.PermGroup, "nilpotent_residue"),
    ("perm.series", perm, "frattini_of_pgroup"),
    ("perm.series", classify, "frattini_of_pgroup"),
    ("perm.quotient_module", perm, "quotient_module_action"),
    ("perm.quotient_module", classify, "quotient_module_action"),
    ("chartab.table", chartab, "character_table"),
    ("chartab.table", classify, "character_table"),
    ("chartab.verify_exact", chartab, "verify_orthogonality_exact"),
    ("chartab.kernel", chartab.Character, "kernel"),
    ("chartab.galois_orbits", chartab.CharacterTable, "galois_orbits"),
    ("classify.analyze", classify, "analyze_structure"),
    ("classify.irr_partition", classify, "irr_partition"),
    ("classify.find_complement", classify, "find_complement"),
    ("classify.extraspecial", classify, "is_extraspecial_p3"),
    ("classify.action_checks", classify, "check_frobenius_action"),
    ("classify.action_checks", classify, "check_irreducible_action"),
    ("classify.action_checks", classify, "check_scalar_transitivity"),
    ("constructors.build", constructors, "construct_case"),
    ("constructors.build", corpus, "build"),
)

# (counter, owner, attribute): calls too frequent for a span each.
COUNTED = (
    ("perm.products", perm.Permutation, "__mul__"),
    ("perm.perms_built", perm.Permutation, "__init__"),
    ("cyclotomic.values_built", cyclotomic.Cyclotomic, "__init__"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SPANNED))


def _name(owner, attr: str) -> str:
    return f"{getattr(owner, '__name__', owner)}.{attr}".replace("galchar.", "")


class Tracer:
    """Collects spans and counts in memory while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, input]
        self.counts: Counter = Counter()
        self.input_id: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for layer, owner, attr in SPANNED:
            self._replace(owner, attr, self._spanned(_name(owner, attr), layer))
        for counter, owner, attr in COUNTED:
            self._replace(owner, attr, self._counted(counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr: str, wrap) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrap(original)))

    def _spanned(self, name: str, layer: str):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrap(fn):
            def traced(*args, **kwargs):
                sid = len(spans)
                rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.input_id]
                spans.append(rec)
                stack.append(sid)
                rec[2] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[3] = time.perf_counter()
                    stack.pop()
                if layer == "perm.enumerate":
                    counts["perm.elements_enumerated"] += len(args[0].elements)
                elif layer == "chartab.table":
                    counts["chartab.classes_k"] += result.n_classes
                return result

            return traced

        return wrap

    def _counted(self, counter: str):
        counts = self.counts

        def wrap(fn):
            def counted(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)

            return counted

        return wrap

    def layer_metrics(self, traced_wall: float) -> dict[str, float]:
        """Self time per layer, counts, and the time no span covers."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = Counter()
        covered = 0.0
        for i, (_, layer, start, end, parent, _) in enumerate(spans):
            self_s[layer] += end - start - child[i]
            calls[layer] += 1
            if parent < 0:
                covered += end - start
        complement_closures = sum(
            1
            for _, layer, _, _, parent, _ in spans
            if layer == "perm.close"
            and parent >= 0
            and spans[parent][1] == "classify.find_complement"
        )
        out = {f"{layer}_s": value for layer, value in self_s.items()}
        out.update(
            {
                "perm.groups_built": calls["perm.enumerate"],
                "perm.elements_enumerated": self.counts["perm.elements_enumerated"],
                "perm.close_calls": calls["perm.close"],
                "perm.products": self.counts["perm.products"],
                "perm.perms_built": self.counts["perm.perms_built"],
                "chartab.classes_k": self.counts["chartab.classes_k"],
                "chartab.tables_exact": calls["chartab.verify_exact"],
                "cyclotomic.values_built": self.counts["cyclotomic.values_built"],
                "classify.complement_closures": complement_closures,
                "classify.complement_yield": (
                    calls["classify.find_complement"] / complement_closures
                    if complement_closures
                    else 0.0
                ),
                "other_s": traced_wall - covered,
            }
        )
        return out
