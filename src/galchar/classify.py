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

The table CHECKLIST names each item once, in the order the items are
recorded, with the failure reason the report gives.  Each item goes through
one recorder, which stores its bool and stops the checklist at the first
failure; the report keeps None for the items after it.

Agreement of the two verdicts on every input is the point of the exercise;
a disagreement is reported as a theorem violation, never reconciled.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field, asdict

import numpy as np

from . import fpmat
from .chartab import CharacterTable, _distinct_rows, character_table
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

# The checklist, in the order its items are recorded, each with the failure
# reason the report gives when the item fails.  The first three are recorded
# before the structural items and never stop the checklist; complement_found
# fails only with the search's own reason.
CHECKLIST = (
    ("nonnilpotent", None),
    ("solvable", None),
    ("single_galois_class", None),
    ("residue_is_sylow_subgroup", "nilpotent residue is not a Sylow p-subgroup"),
    ("frattini_equals_derived", "Frattini subgroup of P differs from P'"),
    ("complement_found", None),
    ("kernels_all_equal", "exceptional characters have different kernels"),
    ("kernel_is_centralizer_times_frattini", "shared kernel is not C_H(P) x Phi(P)"),
    ("action_kernel_is_centralizer", "kernel of the P/U action is not C_H(P)"),
    ("frobenius_action", "complement does not act Frobeniusly on P/U"),
    ("irreducible_action", "complement does not act irreducibly on P/U"),
    ("order_formula_holds", "|H/C| * |exceptional| differs from p^n - 1"),
    ("index_divides_p_minus_1", "number of exceptional characters does not divide p - 1"),
    ("scalar_transitivity", "scalars times the action are not transitive on P/U"),
    ("values_in_prime_cyclotomic", "exceptional values leave the p-th cyclotomic field"),
    ("case_recognized", "no recognised case shape"),
)
CHECKLIST_ITEMS = tuple(item for item, _ in CHECKLIST)


class ComplementNotFound(RuntimeError):
    pass


@dataclass
class IrrPartition:
    """Row indices split by the degree-square / kernel-index divisibility."""

    regular: tuple[int, ...]      # chi(1)^2 divides |G : ker chi|
    exceptional: tuple[int, ...]  # the rest


def irr_partition(table: CharacterTable) -> IrrPartition:
    regular = table.kernels()[1] % np.array(table.degrees, dtype=np.int64) ** 2 == 0
    return IrrPartition(*(tuple(np.flatnonzero(rows).tolist()) for rows in (regular, ~regular)))


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


def _action_images(mats, p: int, n: int) -> list[list[int]]:
    """For each of mats, the numbers of the images of the p^n vectors of
    F_p^n, numbered as in `fpmat.all_vectors`: <mats> acting on p^n points.
    Every action check starts here.

    A group containing V x| <mats> has order at least p^n |<mats>|, so
    p^n > ORDER_BOUND raises OrderBoundExceeded before any vector is built.
    """
    if p**n > ORDER_BOUND:
        raise OrderBoundExceeded(f"p^n = {p}^{n} = {p**n} exceeds the order bound {ORDER_BOUND}")
    for m in mats:
        if fpmat.mat_rank(m, p) < n:
            raise ValueError("matrices must be invertible")
    return fpmat.vector_action(mats, p)


def vector_group(mats, p: int, n: int) -> PermGroup:
    """<mats> as a permutation group on the p^n vectors of F_p^n (see
    _action_images), so the identity is element 0 and vector 0 is point 0.
    A matrix group with more than ORDER_BOUND // p^n elements raises
    OrderBoundExceeded as soon as its enumeration passes that bound.
    """
    return PermGroup(p**n, _action_images(mats, p, n), order_bound=ORDER_BOUND // p**n)


def check_frobenius_action(mats, p: int, n: int) -> bool:
    """Every nonidentity element of <mats> fixes only the zero vector: each
    image row after the identity's has exactly one fixed point.  The one
    action check that enumerates <mats>.

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
    label = orbit_labels(p**n, _action_images(mats, p, n))
    members, ends = np.argsort(label, kind="stable"), np.cumsum(np.bincount(label))
    vectors = fpmat.all_vectors(p, n)
    return all(
        fpmat.mat_rank(vectors[members[a:b]], p) == n for a, b in zip(ends, ends[1:])
    )


def check_scalar_transitivity(mats, p: int, n: int) -> bool:
    """<mats> together with the scalars acts transitively on nonzero vectors:
    the orbit of e_1 under the generators and a primitive-root scalar has
    p^n - 1 points."""
    scalar = primitive_root(p) * np.eye(n, dtype=np.int64)
    label = orbit_labels(p**n, _action_images([*mats, scalar], p, n))
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

    The order of a p'-subgroup divides |G|/|P|, and a subgroup of order
    divisible by p holds an element of order p (Cauchy), so a sample is
    dropped at the first layer of its closure holding an element of order
    divisible by p, or once the closure passes |G|/|P|.  The closure starts
    from that of the kept generators, and a sample already in it is kept
    without one.
    """
    target = group.order // psub.order
    if group.order % psub.order:
        raise ValueError("subgroup order does not divide the group order")
    if target == 1:
        return Subgroup(group, [0], [])
    pp = is_prime_power(psub.order)
    if pp is None:
        raise ValueError("P must be a p-group")
    p = pp[0]
    if target % p == 0:
        raise ValueError("P must be a full Sylow p-subgroup")
    orders = group.order_of(np.arange(group.order))
    singular = orders % p == 0
    rng = random.Random(seed)
    gens: list[int] = []
    kept = np.zeros(1, dtype=np.int64)  # the closure of gens, a p'-group
    inside = group.mask(kept)
    closures = 0
    while closures < COMPLEMENT_CLOSURE_CAP:
        g = rng.randrange(group.order)
        o, p_part = int(orders[g]), 1
        while o % p == 0:
            o //= p
            p_part *= p
        h = int(group.power(g, p_part))
        if h == 0:
            continue
        candidate = gens + [h]
        closures += 1
        if inside[h]:
            gens = candidate
            continue
        closure = group.closure(candidate, target, kept, refuse=lambda ids: singular[ids].any())
        if closure is None:
            continue  # p-singular or too large: drop the sample
        if len(closure) == target:
            return Subgroup(group, closure, candidate)
        gens, kept, inside = candidate, closure, group.mask(closure)
    raise ComplementNotFound(
        f"no complement of order {target} found within "
        f"{COMPLEMENT_CLOSURE_CAP} closures"
    )


# -- structural predicates ----------------------------------------------------------


def is_extraspecial_p3(psub: Subgroup, p: int) -> bool:
    """|P| = p^3 with center = derived = Frattini of order p."""
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
    record = _recorder(checklist)

    nilpotent = group.is_nilpotent()
    record(not nilpotent)
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

    record(group.is_solvable())
    single = is_single_galois_class(table, part)
    record(single)
    report.d = len(part.exceptional)

    try:
        _structural_checklist(group, table, part, report, seed, record)
        failure = None
    except _ItemFailed as exc:
        failure = str(exc)

    report.verdict = VERDICT_SINGLE if single else VERDICT_NOT_SINGLE
    if not single:
        kernels = _distinct_kernels(table, part)
        orbits = sum(o[0] in part.exceptional for o in table.galois_orbits())
        report.failure_reason = (
            f"{len(part.exceptional)} exceptional characters with {kernels} distinct kernels"
            if kernels > 1 else f"exceptional characters split into {orbits} Galois orbits"
        )
        report.case_tag = None
    if single and failure is not None:
        report.theorem_violation = f"single Galois class but structure fails: {failure}"
    elif failure is None and not single:
        report.theorem_violation = (
            "structural checklist passed without a single Galois class"
        )
    return report


class _ItemFailed(Exception):
    """A checklist item failed; the argument is the report's failure reason."""


def _recorder(checklist: dict):
    """record(ok, reason=None) stores ok as the next item of CHECKLIST and,
    when ok is false and the call or the item has a reason, raises
    _ItemFailed with it (the call's first)."""
    items = iter(CHECKLIST)

    def record(ok, reason=None) -> None:
        item, own = next(items)
        checklist[item] = ok
        if not ok and (reason or own):
            raise _ItemFailed(reason or own)

    return record


def _distinct_kernels(table: CharacterTable, part: IrrPartition) -> int:
    """The exceptional characters' distinct kernels: rows of the kernel mask."""
    return len(_distinct_rows(table.kernels()[0][list(part.exceptional)])[0])


def _structural_checklist(group, table, part, report, seed, record) -> None:
    """Items (4)..(11), each through record, which raises _ItemFailed at
    the first failure."""
    residue = group.nilpotent_residue()
    report.order_P = residue.order
    pp = is_prime_power(residue.order)
    gsize = group.order
    record(
        pp is not None
        and gsize % residue.order == 0
        and (gsize // residue.order) % pp[0] != 0
    )
    p = pp[0]
    report.p = p

    psub = residue
    usub = frattini_of_pgroup(psub, p)
    report.order_U = usub.order
    record(usub == psub.derived_subgroup())

    try:
        hsub = find_complement(group, psub, seed=seed)
    except ComplementNotFound as exc:
        record(False, str(exc))  # raises
    record(True)
    report.order_H = hsub.order
    csub = group.centralizer(psub, within=hsub)
    report.order_C = csub.order

    record(_distinct_kernels(table, part) == 1)
    ksub = table.chars[part.exceptional[0]].kernel()
    report.order_K = ksub.order
    product = np.flatnonzero(group.mask(group.mul(csub.ids[:, None], usub.ids[None, :])))
    record(
        np.array_equal(product, ksub.ids)
        and np.count_nonzero(group.mask(csub.ids)[usub.ids]) == 1
        and group.centralizer(usub, within=csub) == csub
    )

    try:
        mats, basis, p2, n = quotient_module_action(group, psub, usub, hsub.gen_ids)
    except ValueError as exc:
        record(False, f"module action unavailable: {exc}")  # raises
    assert p2 == p
    report.n = n
    # h acts trivially on P/U iff it fixes every basis coset
    fixes = np.ones(hsub.order, dtype=bool)
    for b in basis.tolist():
        fixes &= usub.contains(group.mul(group.conj(hsub.ids, b), group.inverse[b]))
    record(np.array_equal(hsub.ids[fixes], csub.ids))

    record(check_frobenius_action(mats, p, n))
    record(check_irreducible_action(mats, p, n))

    d = len(part.exceptional)
    record(hsub.order // csub.order * d == p**n - 1)
    record((p - 1) % d == 0)
    record(check_scalar_transitivity(mats, p, n))
    record(all(table.field_in_pth_cyclotomic(table.chars[i], p) for i in part.exceptional))

    tag = _case_tag(group, psub, usub, csub, hsub, p, n, d)
    record(tag is not None)
    report.case_tag = tag


def _case_tag(group, psub, usub, csub, hsub, p, n, d) -> str | None:
    u_trivial = usub.order == 1
    c_trivial = csub.order == 1
    if u_trivial and c_trivial:
        if hsub.is_cyclic():
            return "a1"
        if (
            n == 2
            and is_mersenne_prime(p)
            and hsub.is_nilpotent()
            and _quaternion_times_cyclic(hsub)
        ):
            return "a2"
        return None
    if u_trivial and not c_trivial:
        # |H/C| = q prime; for n >= 2 the order formula forces q = (p^n - 1)/(p - 1)
        q = hsub.order // csub.order
        if not is_prime(q):
            return None
        hpp = is_prime_power(hsub.order)
        if hpp is None or hpp[0] != q:
            return None
        qpart = q ** factorize(group.order).get(q, 0)
        return "a3" if hsub.order == qpart else None
    if not u_trivial and c_trivial:
        if not is_extraspecial_p3(psub, p):
            return None
        chu = group.centralizer(usub, within=hsub)
        h_cyclic = hsub.is_cyclic()
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
            and hsub.is_generalized_quaternion()
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
    if not syl2.is_generalized_quaternion():
        return None
    if quot.center().order != 2:
        return None
    if quot.derived_subgroup().order != 8:
        return None
    return "a7"


def _quaternion_times_cyclic(hsub: Subgroup) -> bool:
    """H = Q x D with Q a generalized quaternion Sylow 2 and D cyclic odd."""
    syl = hsub.sylow_decomposition()
    if 2 not in syl or not syl[2].is_generalized_quaternion():
        return False
    return all(s.is_cyclic() for q, s in syl.items() if q != 2)
