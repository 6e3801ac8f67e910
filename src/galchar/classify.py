"""The decision problem: which groups have all their exceptional irreducible
characters in one Galois conjugacy class, and what do those groups look like.

Irr(G) is partitioned by whether chi(1)^2 divides |G : ker chi|; characters
failing the divisibility are called exceptional here.  The classifier
computes two verdicts independently and cross-checks them:

* the character-theoretic verdict: the exceptional characters are nonempty
  and form a single orbit under the Galois group of the cyclotomic field of
  the group exponent;
* the structural verdict: a checklist on the shape of the group (nilpotent
  residue is a Sylow p-subgroup, complement action Frobenius and irreducible
  with scalar transitivity, kernel and field constraints, and one of seven
  recognised case shapes a1..a7).

Agreement of the two verdicts on every input is the point of the exercise;
a disagreement is reported as a theorem violation, never reconciled.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field, asdict
from math import gcd

import numpy as np

from . import fpmat
from .chartab import CharacterTable, character_table
from .numth import factorize, is_mersenne_prime, is_prime, is_prime_power, primitive_root
from .perm import (
    ORDER_BOUND,
    OrderBoundExceeded,
    PermGroup,
    Subgroup,
    frattini_of_pgroup,
    orbit_labels,
    quotient_module_action,
)

COMPLEMENT_SEED = 0xC0FFEE
COMPLEMENT_CLOSURE_CAP = 100_000

VERDICT_NILPOTENT = "NilpotentEmpty"
VERDICT_SINGLE = "SingleGaloisClass"
VERDICT_NOT_SINGLE = "NotSingleClass"

CASE_TAGS = ("a1", "a2", "a3", "a4", "a5", "a6", "a7")

CHECKLIST_ITEMS = (
    "nonnilpotent",
    "solvable",
    "single_galois_class",
    "residue_is_sylow_subgroup",
    "frattini_equals_derived",
    "complement_found",
    "kernels_all_equal",
    "kernel_is_centralizer_times_frattini",
    "action_kernel_is_centralizer",
    "frobenius_action",
    "irreducible_action",
    "order_formula_holds",
    "index_divides_p_minus_1",
    "scalar_transitivity",
    "values_in_prime_cyclotomic",
    "case_recognized",
)


class ComplementNotFound(RuntimeError):
    pass


@dataclass
class IrrPartition:
    """Row indices split by the degree-square / kernel-index divisibility."""

    regular: tuple[int, ...]      # chi(1)^2 divides |G : ker chi|
    exceptional: tuple[int, ...]  # the rest


def irr_partition(table: CharacterTable) -> IrrPartition:
    regular = []
    exceptional = []
    for chi in table.chars:
        if chi.kernel_index() % (chi.degree**2) == 0:
            regular.append(chi.index)
        else:
            exceptional.append(chi.index)
    return IrrPartition(tuple(regular), tuple(exceptional))


def is_single_galois_class(table: CharacterTable, part: IrrPartition | None = None) -> bool:
    """True iff the exceptional characters are one nonempty Galois orbit."""
    if part is None:
        part = irr_partition(table)
    if not part.exceptional:
        return False
    target = tuple(sorted(part.exceptional))
    return target in table.galois_orbits()


@dataclass
class ClassificationReport:
    verdict: str
    case_tag: str | None = None
    p: int | None = None
    n: int | None = None
    d: int | None = None
    group_order: int = 0
    order_P: int | None = None
    order_U: int | None = None
    order_K: int | None = None
    order_H: int | None = None
    order_C: int | None = None
    checklist: dict = field(default_factory=dict)
    failure_reason: str | None = None
    theorem_violation: str | None = None
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


# -- action checks: matrix groups as permutation groups on F_p^n ---------------


def vector_group(mats, p: int, n: int) -> PermGroup:
    """<mats> as a permutation group on the p^n vectors of F_p^n, numbered as
    in `fpmat.all_vectors`, so the identity is element 0 and vector 0 is
    point 0.

    A group containing V x| <mats> has order at least p^n |<mats>|, so
    p^n > ORDER_BOUND raises OrderBoundExceeded before any vector is built,
    and a matrix group with more than ORDER_BOUND // p^n elements raises it
    as soon as its enumeration passes that bound.
    """
    if p**n > ORDER_BOUND:
        raise OrderBoundExceeded(f"p^n = {p}^{n} = {p**n} exceeds the order bound {ORDER_BOUND}")
    for m in mats:
        if fpmat.mat_rank(m, p) < n:
            raise ValueError("matrices must be invertible")
    return PermGroup(p**n, fpmat.vector_action(mats, p), order_bound=ORDER_BOUND // p**n)


def check_frobenius_action(mats, p: int, n: int) -> bool:
    """Every nonidentity element of <mats> fixes only the zero vector: each
    image row after the identity's has exactly one fixed point.

    A trivial group does not act Frobeniusly (the acting group must be
    nontrivial), so identity-only input returns False.
    """
    group = vector_group(mats, p, n)
    fixed = (group.images[1:] == np.arange(p**n)).sum(axis=1)
    return group.order > 1 and bool((fixed == 1).all())


def check_irreducible_action(mats, p: int, n: int) -> bool:
    """The span of every nonzero vector's orbit is the whole space.

    One rank per orbit, since the vectors of one orbit span one subspace;
    orbit c is members[ends[c - 1]:ends[c]], and orbit 0 is the zero vector.
    """
    group = vector_group(mats, p, n)
    label = orbit_labels(p**n, [g.images for g in group.generators])
    members, ends = np.argsort(label, kind="stable"), np.cumsum(np.bincount(label))
    vectors = fpmat.all_vectors(p, n)
    return all(
        fpmat.mat_rank(vectors[members[a:b]], p) == n for a, b in zip(ends, ends[1:])
    )


def check_scalar_transitivity(mats, p: int, n: int) -> bool:
    """<mats> together with the scalars acts transitively on nonzero vectors:
    the orbit of e_1 under the generators and a primitive-root scalar has
    p^n - 1 points."""
    group = vector_group(mats, p, n)
    scalar = fpmat.vector_action([primitive_root(p) * np.eye(n, dtype=np.int64)], p)
    label = orbit_labels(p**n, [g.images for g in group.generators] + scalar)
    return int((label == label[p ** (n - 1)]).sum()) == p**n - 1


# -- complements ------------------------------------------------------------------


def find_complement(
    group: PermGroup, psub: Subgroup, seed: int = COMPLEMENT_SEED
) -> Subgroup:
    """A subgroup H with H meet P = 1 and |H| = |G|/|P|, for P a normal
    Sylow p-subgroup (exists by Schur-Zassenhaus).

    Seeded randomized search: sample p'-parts of random elements, close under
    multiplication with a size cap, keep the closure when it stays a
    p'-group, restart the sample otherwise.  Deterministic given the seed.
    """
    target = group.order // psub.order
    if group.order % psub.order:
        raise ValueError("subgroup order does not divide the group order")
    if target == 1:
        return group.trivial_subgroup()
    pp = is_prime_power(psub.order)
    if pp is None:
        raise ValueError("P must be a p-group")
    p = pp[0]
    if target % p == 0:
        raise ValueError("P must be a full Sylow p-subgroup")
    rng = random.Random(seed)
    gens: list[int] = []
    closures = 0
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
            continue  # overshoot: p-singular closure, drop the sample
        if len(closure) == target:
            return Subgroup(group, closure, candidate)
        if len(closure) % p:
            gens = candidate
    raise ComplementNotFound(
        f"no complement of order {target} found within "
        f"{COMPLEMENT_CLOSURE_CAP} closures"
    )


# -- structural predicates ----------------------------------------------------------


def is_extraspecial_p3(psub: Subgroup | PermGroup, p: int) -> bool:
    """|P| = p^3 with center = derived = Frattini of order p."""
    if isinstance(psub, PermGroup):
        psub = psub.full_subgroup()
    if psub.order != p**3:
        return False
    center = psub.parent.centralizer(psub, within=psub)
    return (
        center.order == p
        and center == psub.derived_subgroup()
        and center == frattini_of_pgroup(psub, p)
    )


# -- the classifier -------------------------------------------------------------------


def analyze_structure(
    group: PermGroup,
    table: CharacterTable | None = None,
    seed: int = COMPLEMENT_SEED,
) -> ClassificationReport:
    """Run the full checklist and cross-check both routes to the verdict."""
    if table is None:
        table = character_table(group)
    part = irr_partition(table)
    checklist: dict[str, bool | None] = {item: None for item in CHECKLIST_ITEMS}
    report = ClassificationReport(
        verdict=VERDICT_NOT_SINGLE,
        group_order=group.order,
        checklist=checklist,
        seed=seed,
    )

    nilpotent = group.is_nilpotent()
    checklist["nonnilpotent"] = not nilpotent
    if not part.exceptional:
        report.verdict = VERDICT_NILPOTENT
        if not nilpotent:
            report.theorem_violation = (
                "no exceptional characters in a nonnilpotent group"
            )
        return report
    if nilpotent:
        report.theorem_violation = "exceptional characters in a nilpotent group"
        report.verdict = VERDICT_NOT_SINGLE
        return report

    checklist["solvable"] = group.is_solvable()
    single = is_single_galois_class(table, part)
    checklist["single_galois_class"] = single
    report.d = len(part.exceptional)

    struct_ok, failure = _structural_checklist(group, table, part, report, seed)

    report.verdict = VERDICT_SINGLE if single else VERDICT_NOT_SINGLE
    if not single:
        kernels = {table.chars[i].kernel_classes() for i in part.exceptional}
        orbits = [
            o for o in table.galois_orbits() if o[0] in set(part.exceptional)
        ]
        if len(kernels) > 1:
            report.failure_reason = (
                f"{len(part.exceptional)} exceptional characters with "
                f"{len(kernels)} distinct kernels"
            )
        else:
            report.failure_reason = (
                f"exceptional characters split into {len(orbits)} Galois orbits"
            )
        report.case_tag = None
    if single and not struct_ok:
        report.theorem_violation = f"single Galois class but structure fails: {failure}"
    elif struct_ok and not single:
        report.theorem_violation = (
            "structural checklist passed without a single Galois class"
        )
    return report


def _structural_checklist(group, table, part, report, seed) -> tuple[bool, str | None]:
    """Items (4)..(11): returns (all passed, first failure)."""
    checklist = report.checklist

    residue = group.nilpotent_residue()
    report.order_P = residue.order
    pp = is_prime_power(residue.order)
    gsize = group.order
    ok = (
        pp is not None
        and gsize % residue.order == 0
        and (gsize // residue.order) % pp[0] != 0
    )
    checklist["residue_is_sylow_subgroup"] = ok
    if not ok:
        return False, "nilpotent residue is not a Sylow p-subgroup"
    p = pp[0]
    report.p = p

    psub = residue
    usub = frattini_of_pgroup(psub, p)
    report.order_U = usub.order
    ok = usub == psub.derived_subgroup()
    checklist["frattini_equals_derived"] = ok
    if not ok:
        return False, "Frattini subgroup of P differs from P'"

    try:
        hsub = find_complement(group, psub, seed=seed)
    except ComplementNotFound as exc:
        checklist["complement_found"] = False
        return False, str(exc)
    checklist["complement_found"] = True
    report.order_H = hsub.order
    csub = group.centralizer(psub, within=hsub)
    report.order_C = csub.order

    kernels = {table.chars[i].kernel_classes() for i in part.exceptional}
    ok = len(kernels) == 1
    checklist["kernels_all_equal"] = ok
    if not ok:
        return False, "exceptional characters have different kernels"
    ksub = table.chars[part.exceptional[0]].kernel()
    report.order_K = ksub.order
    product = np.unique(group.mul(csub.ids[:, None], usub.ids[None, :]))
    ok = (
        np.array_equal(product, ksub.ids)
        and len(np.intersect1d(csub.ids, usub.ids)) == 1
        and group.centralizer(usub, within=csub) == csub
    )
    checklist["kernel_is_centralizer_times_frattini"] = ok
    if not ok:
        return False, "shared kernel is not C_H(P) x Phi(P)"

    try:
        mats, basis, p2, n = quotient_module_action(
            group, psub, usub, hsub.generating_set()
        )
    except ValueError as exc:
        checklist["action_kernel_is_centralizer"] = False
        return False, f"module action unavailable: {exc}"
    assert p2 == p
    report.n = n
    # h acts trivially on P/U iff it fixes every basis coset
    fixes = np.ones(hsub.order, dtype=bool)
    for b in group.ids_of(basis):
        fixes &= usub.contains(group.mul(group.conj(hsub.ids, b), group.inverse[b]))
    ok = np.array_equal(hsub.ids[fixes], csub.ids)
    checklist["action_kernel_is_centralizer"] = ok
    if not ok:
        return False, "kernel of the P/U action is not C_H(P)"

    frob = check_frobenius_action(mats, p, n)
    checklist["frobenius_action"] = frob
    if not frob:
        return False, "complement does not act Frobeniusly on P/U"
    irr = check_irreducible_action(mats, p, n)
    checklist["irreducible_action"] = irr
    if not irr:
        return False, "complement does not act irreducibly on P/U"

    d = len(part.exceptional)
    hbar = hsub.order // csub.order
    ok = hbar * d == p**n - 1
    checklist["order_formula_holds"] = ok
    if not ok:
        return False, "|H/C| * |exceptional| differs from p^n - 1"
    ok = (p - 1) % d == 0
    checklist["index_divides_p_minus_1"] = ok
    if not ok:
        return False, "number of exceptional characters does not divide p - 1"

    ok = check_scalar_transitivity(mats, p, n)
    checklist["scalar_transitivity"] = ok
    if not ok:
        return False, "scalars times the action are not transitive on P/U"

    ok = all(
        table.field_in_pth_cyclotomic(table.chars[i], p) for i in part.exceptional
    )
    checklist["values_in_prime_cyclotomic"] = ok
    if not ok:
        return False, "exceptional values leave the p-th cyclotomic field"

    tag = _case_tag(group, psub, usub, csub, hsub, p, n, d)
    checklist["case_recognized"] = tag is not None
    if tag is None:
        return False, "no recognised case shape"
    report.case_tag = tag
    return True, None


def _case_tag(group, psub, usub, csub, hsub, p, n, d) -> str | None:
    hgroup = hsub.as_group()
    u_trivial = usub.order == 1
    c_trivial = csub.order == 1
    if u_trivial and c_trivial:
        if hgroup.is_cyclic():
            return "a1"
        if (
            n == 2
            and is_mersenne_prime(p)
            and hgroup.is_nilpotent()
            and _quaternion_times_cyclic(hgroup)
        ):
            return "a2"
        return None
    if u_trivial and not c_trivial:
        if p > 2 and (p**n - 1) % (p - 1):
            return None
        q = (p**n - 1) // (p - 1)
        if not is_prime(q):
            return None
        hpp = is_prime_power(hsub.order)
        if hpp is None or hpp[0] != q:
            return None
        if hsub.order // csub.order != q:
            return None
        qpart = q ** factorize(group.order).get(q, 0)
        return "a3" if hsub.order == qpart else None
    if not u_trivial and c_trivial:
        if not is_extraspecial_p3(psub, p):
            return None
        chu = group.centralizer(usub, within=hsub)
        h_cyclic = hgroup.is_cyclic()
        if (
            h_cyclic
            and hsub.order == 2 * (p + 1)
            and chu.order * 2 == hsub.order
        ):
            return "a4"
        if h_cyclic and chu == hsub and hsub.order == p + 1:
            return "a5"
        if (
            chu == hsub
            and hgroup.is_generalized_quaternion()
            and is_mersenne_prime(p)
            and hsub.order * d == p * p - 1
            and d in ((p - 1) // 2, p - 1)
        ):
            return "a6"
        return None
    # U > 1 and C > 1
    if p != 2 or psub.order != 8 or not is_extraspecial_p3(psub, p):
        return None
    hpp = is_prime_power(hsub.order)
    if hpp is None or hpp[0] != 3:
        return None
    tpart = 3 ** factorize(group.order).get(3, 0)
    if hsub.order != tpart:
        return None
    quot, _ = group.quotient(csub)
    if quot.order != 24:
        return None
    orders = quot.order_of(np.arange(quot.order))
    syl2 = Subgroup(quot, np.flatnonzero((orders & (orders - 1)) == 0))
    if syl2.order != 8 or not syl2.is_normal():
        return None
    if not syl2.as_group().is_generalized_quaternion():
        return None
    if quot.center().order != 2:
        return None
    if quot.derived_subgroup().order != 8:
        return None
    return "a7"


def _quaternion_times_cyclic(hgroup: PermGroup) -> bool:
    """H = Q x D with Q a generalized quaternion Sylow 2 and D cyclic odd."""
    syl = hgroup.sylow_decomposition()
    if 2 not in syl:
        return False
    if not syl[2].as_group().is_generalized_quaternion():
        return False
    odd = [s for q, s in syl.items() if q != 2]
    for s in odd:
        if not s.as_group().is_cyclic():
            return False
    return True


# -- lemma-style property checks -----------------------------------------------------


def check_isaacs_bound(group: PermGroup, acting: Subgroup, target: Subgroup) -> bool:
    """Some element of the target has a small centralizer in the acting group.

    For a nontrivial nilpotent group N acting faithfully and coprimely (here:
    by conjugation inside a common parent) there must be a g in the target
    with |C_N(g)|^p <= |N|/p, p the smallest prime divisor of |N|.
    """
    if acting.order == 1:
        raise ValueError("acting group must be nontrivial")
    if not acting.as_group().is_nilpotent():
        raise ValueError("acting group must be nilpotent")
    if gcd(acting.order, target.order) != 1:
        raise ValueError("action must be coprime")
    if group.centralizer(target, within=acting).order != 1:
        raise ValueError("action must be faithful")
    p = min(factorize(acting.order))
    cent = group.commuting(acting.ids, target.ids).sum(axis=0)
    return bool((cent**p * p <= acting.order).any())


def check_frobenius_criterion(mats, p: int, n: int) -> bool:
    """Pointwise stabilizer criterion for a Frobenius action.

    Preconditions: <mats> nontrivial, nilpotent, acting irreducibly (the
    action of matrices on F_p^n is faithful by construction).  When every
    nonzero vector v has either a trivial stabilizer or one whose order
    squared is divisible by |H|, the action must be Frobenius; the
    conclusion is computed and returned, and a failure of the implication
    is raised as an inconsistency.
    """
    group = vector_group(mats, p, n)
    if group.order == 1:
        raise ValueError("acting group must be nontrivial")
    if not check_irreducible_action(mats, p, n):
        raise ValueError("action must be irreducible")
    if not group.is_nilpotent():
        raise ValueError("acting group must be nilpotent")
    stab = (group.images == np.arange(p**n)).sum(axis=0)[1:]
    if not ((stab == 1) | (stab * stab % group.order == 0)).all():
        return False
    if not check_frobenius_action(mats, p, n):
        raise AssertionError(
            "stabilizer hypothesis held but the action is not Frobenius"
        )
    return True
