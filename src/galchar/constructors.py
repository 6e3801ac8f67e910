"""Builders for the classified families and the standard control groups.

Every constructor returns a faithful permutation group: vector spaces get
the affine action, extraspecial groups the regular action on their own
elements, and cyclic covers acting through a quotient receive an extra
regular orbit so the kernel stays visible.  A matrix acts on an extraspecial
group by the automorphism given by its generator images, column j naming
the image of generator j; _automorphism builds it and refuses images that
define none, for p = 2 (Q8) and odd p alike.

The families a1..a7 are one table, CASES.  Each is P x| H, with P either
(C_p)^n or extraspecial of order p^3 (then n = 2), and H acting through
matrices: powers s^d of the Singer cycle s of GL(n, p), or a quaternion
subgroup of SL(2, p).  Each entry gives the rule on (p, n, d, h), which
refuses every point the family does not build and names why, the type of P,
and the matrices.  One formula projects every order:
|G| = |P| |H| = p^(n + 1 if P is extraspecial, else n) ((p^n - 1)/d)^h.
The table has four readers: construct_case, sweep_parameter_points, the
classifier's recognizer, which tags a group by the first case whose rule
admits its witnesses, and the corpus, whose case positives are its points.
Points the rule admits but whose matrices or built action fail the
Frobenius / irreducibility / scalar-transitivity verification raise
ParamsInvalid with the failed condition named; the sweep records these
instead of hiding them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fpmat
from .numth import (
    PN_BOUND,
    divisors,
    is_mersenne_prime,
    is_prime,
    is_prime_power,
    matrix_order_is,
    primitive_polynomial,
    primitive_root,
)
from .perm import (
    ORDER_BOUND,
    OrderBoundExceeded,
    PermGroup,
    Permutation,
    check_frobenius_action,
    check_irreducible_action,
    check_scalar_transitivity,
    vector_group,
)


class ParamsInvalid(ValueError):
    """A parameter point does not yield a group of the requested case."""

    def __init__(self, condition: str):
        super().__init__(condition)
        self.condition = condition


# -- standard control groups -----------------------------------------------------


def cyclic(n: int, name: str | None = None) -> PermGroup:
    if n == 1:
        return PermGroup(1, [], name=name or "C1")
    images = [(i + 1) % n for i in range(n)]
    return PermGroup(n, [Permutation(images)], name=name or f"C{n}")


def symmetric(n: int) -> PermGroup:
    if n < 2:
        return PermGroup(max(n, 1), [], name=f"S{n}")
    gens = [Permutation.from_cycles(n, tuple(range(n)))]
    gens.append(Permutation.from_cycles(n, (0, 1)))
    return PermGroup(n, gens, name=f"S{n}")


def alternating(n: int) -> PermGroup:
    gens = []
    for i in range(n - 2):
        gens.append(Permutation.from_cycles(n, (i, i + 1, i + 2)))
    return PermGroup(n, gens, name=f"A{n}")


def dihedral(n: int) -> PermGroup:
    """Dihedral group of order 2n acting on n points (n >= 3)."""
    if n < 3:
        raise ValueError("dihedral needs n >= 3")
    rot = Permutation([(i + 1) % n for i in range(n)])
    ref = Permutation([(n - i) % n for i in range(n)])
    return PermGroup(n, [rot, ref], name=f"D{2 * n}")


def quaternion8() -> PermGroup:
    """Q8 in its regular action; points 0..7 are 1,-1,i,-i,j,-j,k,-k."""
    return generalized_quaternion(8)


def generalized_quaternion(order: int) -> PermGroup:
    """Q_{2^m} (order >= 8) as a regular permutation group.

    Elements are x^a y^b with x of order 2^(m-1), y^2 = x^(2^(m-2)),
    y x y^-1 = x^-1; point (a, b) is numbered a + b * 2^(m-1).
    """
    pp = is_prime_power(order)
    if order < 8 or pp is None or pp[0] != 2:
        raise ValueError("generalized quaternion groups have 2-power order >= 8")
    half = order // 2

    def num(a, b):
        return a % half + (b % 2) * half

    # right regular-ish action via left multiplication by the generators
    x_images = [0] * order
    y_images = [0] * order
    for a in range(half):
        for b in range(2):
            pt = num(a, b)
            # x . x^a y^b = x^(a+1) y^b
            x_images[pt] = num(a + 1, b)
            # y . x^a y^b: y x^a = x^-a y, so result is x^-a y^(b+1),
            # and y^2 = x^(half/2) folds into the x power when b = 1
            if b == 0:
                y_images[pt] = num(-a, 1)
            else:
                y_images[pt] = num(-a + half // 2, 0)
    return PermGroup(order, [Permutation(x_images), Permutation(y_images)], name=f"Q{order}")


def heisenberg(p: int) -> PermGroup:
    """Extraspecial group of order p^3 and exponent p (p odd) in its regular
    action; for p = 2 the quaternion group of order 8.

    Point a p^2 + b p + c is (a, b, c), with (a, b, c)(a', b', c') =
    (a + a', b + b', c + c' + a b'); the generators are left multiplication
    by x = (1, 0, 0) and y = (0, 1, 0).
    """
    if p == 2:
        return quaternion8()
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p**3 > ORDER_BOUND:  # refused before its p^3 points are numbered
        raise OrderBoundExceeded(f"order p^3 = {p**3} exceeds the order bound {ORDER_BOUND}")
    a, b, c = np.indices((p, p, p)).reshape(3, -1)
    x = ((a + 1) % p * p + b) * p + (c + b) % p
    y = (a * p + (b + 1) % p) * p + c
    return PermGroup(p**3, [x.tolist(), y.tolist()], name=f"Heis({p})")


# -- linear-algebra ingredients -----------------------------------------------------


def singer_matrix(p: int, n: int) -> np.ndarray:
    """Companion matrix of a primitive polynomial: order p^n - 1 in GL(n,p)."""
    if p**n > PN_BOUND:
        raise ValueError("p^n exceeds the construction bound")
    return fpmat.companion(primitive_polynomial(p, n), p)


def quaternion_subgroup_SL2(p: int, target_order: int) -> tuple[np.ndarray, np.ndarray]:
    """Generators (x, y) of a generalized quaternion subgroup of SL(2,p).

    x has order target_order/2, y^2 = x^(target_order/4) and y x y^-1 = x^-1.
    Deterministic exhaustive scan in lexicographic matrix order; p <= 31.
    """
    if p > 31 or not is_prime(p) or p < 3:
        raise ParamsInvalid(f"quaternion scan supports odd primes p <= 31, got {p}")
    if target_order < 8 or target_order % 4:
        raise ParamsInvalid(f"no generalized quaternion group of order {target_order}")
    half = target_order // 2
    x = next((m for m in _sl2_elements(p) if matrix_order_is(m, p, half)), None)
    if x is None:
        raise ParamsInvalid(f"SL(2,{p}) has no element of order {half}")
    x_inv = fpmat.mat_inv(x, p)
    central = fpmat.mat_pow(x, target_order // 4, p)
    for y in _sl2_elements(p):
        if not np.array_equal(y @ y % p, central):
            continue
        if np.array_equal(((y @ x) % p @ fpmat.mat_inv(y, p)) % p, x_inv):
            return x, y
    raise ParamsInvalid(
        f"SL(2,{p}) has no quaternion subgroup of order {target_order}"
    )


def _sl2_elements(p: int):
    """SL(2,p) in lexicographic (a, b, c, d) order."""
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (a * d - b * c) % p == 1:
                        yield np.array([[a, b], [c, d]], dtype=np.int64)


# -- semidirect products -------------------------------------------------------------


def _semidirect(base, acting, mats, p, central_height, name, what) -> PermGroup:
    """The group generated by base and acting, checked to have the order of
    B x| <mats> (h = 1) or B x| C_{q^(a+h-1)} (h > 1).

    base lists the images of generators of a group B acting regularly on
    its len(base[0]) points; acting lists the images of one automorphism of
    B per matrix of mats, in the same order.  With central height h > 1,
    <mats> must be cyclic of prime-power order q^a; the cyclic cover acts
    on B through <mats> and is made faithful by one extra regular orbit of
    length q^(a+h-1), which the base generators fix and the acting
    generator cycles.
    """
    n_base = len(base[0])
    mord = vector_group(mats, p, len(mats[0])).order if mats else 1
    if central_height == 1:
        gens = base + acting
        expected = n_base * mord
        failure = f"{what} action is not faithful"
    else:
        if len(mats) != 1:
            raise ParamsInvalid("central height > 1 needs a single cyclic generator")
        pp = is_prime_power(mord)
        if pp is None:
            raise ParamsInvalid("central height > 1 needs a prime-power order action")
        cyc_order = mord * pp[0] ** (central_height - 1)
        fixed = list(range(n_base, n_base + cyc_order))
        cycle = [n_base + (i + 1) % cyc_order for i in range(cyc_order)]
        gens = [b + fixed for b in base] + [acting[0] + cycle]
        expected = n_base * cyc_order
        failure = "cyclic cover action is not faithful"
    if expected > ORDER_BOUND:  # refused before a single element is enumerated
        raise OrderBoundExceeded(f"expected order {expected} exceeds the order bound {ORDER_BOUND}")
    group = PermGroup(len(gens[0]), gens, name=name)
    if group.order != expected:
        raise ParamsInvalid(failure)
    return group


def _acting_matrices(mats, p: int, n: int) -> list[np.ndarray]:
    """The acting matrices (arrays or nested lists) as int64 arrays mod p;
    ParamsInvalid unless each is n x n and invertible."""
    mats = [np.asarray(m, dtype=np.int64) % p for m in mats]
    for m in mats:
        if m.shape != (n, n):
            raise ParamsInvalid(f"acting matrices must be {n} x {n}")
        if fpmat.mat_rank(m, p) < n:
            raise ParamsInvalid("singular matrix in the acting set")
    return mats


def affine_semidirect(p, n, mats, central_height: int = 1, name=None) -> PermGroup:
    """V x| H on p^n vector points, V = F_p^n with H = <mats> acting linearly.

    With central_height h > 1 the matrix group must be cyclic of prime-power
    order q^a; the result is V x| C_{q^(a+h-1)} acting through the matrix
    group, realised faithfully by adding one regular orbit of the cyclic
    group.
    """
    if p**n > ORDER_BOUND:  # refused before the p^n vectors are built
        raise OrderBoundExceeded(f"p^n = {p}^{n} = {p**n} exceeds the order bound {ORDER_BOUND}")
    mats = _acting_matrices(mats, p, n)
    if central_height < 1:
        raise ValueError("central height must be >= 1")
    vecs = fpmat.all_vectors(p, n)
    translations = [fpmat.vector_numbers((vecs + e) % p, p) for e in np.eye(n, dtype=np.int64)]
    linear = fpmat.vector_action(mats, p)
    return _semidirect(translations, linear, mats, p, central_height, name, "affine")


def _automorphism(base: PermGroup, images) -> list[int]:
    """The automorphism phi of base that sends generator i to the element
    with point images[i], as a permutation of base's points; ParamsInvalid
    unless there is one.

    base acts regularly and element x is the point x(0), so phi as a point
    map conjugates each left multiplication L_x into L_phi(x).  A walk
    breadth-first from the identity sends x g_i to phi(x) phi(g_i) through
    base.mul; phi is a homomorphism iff no element is reached with two
    images, and then an automorphism iff its images are distinct.
    """
    ids = np.empty(base.order, dtype=np.int64)
    ids[base.images[:, 0]] = np.arange(base.order)  # the element at each point
    gens, targets = base.gen_ids, ids[images]
    phi = np.full(base.order, -1, dtype=np.int64)
    phi[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    while len(frontier):
        reached = base.mul(frontier[:, None], gens)
        sent = base.mul(phi[frontier][:, None], targets)
        unseen = phi < 0
        new = unseen[reached]
        phi[reached[new]] = sent[new]
        if not np.array_equal(phi[reached], sent):
            raise ParamsInvalid("generator images do not extend to a homomorphism")
        frontier = np.flatnonzero(unseen & (phi >= 0))
    if not np.array_equal(np.sort(phi), np.arange(base.order)):
        raise ParamsInvalid("generator images do not define a bijection")
    return base.images[phi[ids], 0].tolist()


def extraspecial_semidirect(p, mats, central_height: int = 1, name=None) -> PermGroup:
    """P x| H with P = heisenberg(p), the extraspecial group of order p^3
    (Q8 for p = 2), and H = <mats> <= GL(2,p) acting on P/Z(P).

    Matrix m acts by the automorphism that sends generator j of P, with
    column (a, b) = m[:, j], to x^a y^b when p = 2 (point a + 4b of
    quaternion8) and to (a, b, ab/2) when p is odd, which acts on the center
    by det(m); _automorphism checks that these images define one.
    central_height > 1 adds a regular orbit of the cyclic cover, as in
    affine_semidirect.
    """
    if central_height < 1:
        raise ValueError("central height must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    mats = _acting_matrices(mats, p, 2)
    base = heisenberg(p)
    autos = []
    for a, b in mats:
        points = a + 4 * b if p == 2 else (a * p + b) * p + a * b * ((p + 1) // 2) % p
        autos.append(_automorphism(base, points))
    gens = [list(g.images) for g in base.generators]
    return _semidirect(gens, autos, mats, p, central_height, name, "extraspecial")


# -- the case table ---------------------------------------------------------------------


@dataclass(frozen=True)
class CaseParams:
    """Parameters of one family member: tag, prime p, module rank n, the
    number d of exceptional characters, and the central height for the
    cases with a nontrivial centralizer."""

    tag: str
    p: int
    n: int = 1
    d: int = 1
    height: int = 1

    def __post_init__(self):
        if self.tag not in CASES:
            raise ValueError(f"unknown case tag {self.tag}")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.n < 1 or self.d < 1 or self.height < 1:
            raise ValueError("n, d, height must be positive")

    def label(self) -> str:
        return f"{self.tag}(p={self.p},n={self.n},d={self.d},h={self.height})"


@dataclass(frozen=True)
class Case:
    """One family of the table.  conditions are (test(p, n, d), reason)
    pairs tried in order; central says whether the height is at least 2
    rather than 1; extraspecial whether P is p^{1+2} rather than (C_p)^n;
    matrices(p, n, d) gives the acting matrices."""

    conditions: tuple
    central: bool
    extraspecial: bool
    matrices: "callable"

    def refusal(self, p: int, n: int, d: int, h: int) -> str | None:
        """Why the rule refuses the point, or None if it admits it."""
        if (h > 1) != self.central:
            return "h must be at least 2" if self.central else "h must be 1"
        return next((reason for test, reason in self.conditions if not test(p, n, d)), None)

    def sizes(self, p: int, n: int, d: int, h: int) -> tuple[int, int]:
        """|P| = p^(n + 1 if P is extraspecial, else n) and |H| = ((p^n - 1)/d)^h,
        whose product is the projected |G|."""
        return p ** (n + self.extraspecial), ((p**n - 1) // d) ** h


def _singer_power(p: int, n: int, d: int) -> list[np.ndarray]:
    """s^d for s = singer_matrix(p, n), of order (p^n - 1)/d."""
    if (p**n - 1) // d < 2:
        raise ParamsInvalid("complement would be trivial")
    return [fpmat.mat_pow(singer_matrix(p, n), d, p)]


def _quaternion(p: int, n: int, d: int) -> list[np.ndarray]:
    """A quaternion subgroup of SL(2, p) of order (p^2 - 1)/d."""
    return list(quaternion_subgroup_SL2(p, (p * p - 1) // d))


def _quaternion_and_scalars(p: int, n: int, d: int) -> list[np.ndarray]:
    """A quaternion subgroup of SL(2, p), of order 2(p + 1) for odd d and
    p + 1 for even d, with the scalars that bring the order to (p^2 - 1)/d."""
    if d % 2 and (p - 1) % (2 * d):
        raise ParamsInvalid("odd d must divide (p - 1)/2")
    q_order = 2 * (p + 1) if d % 2 else p + 1
    scalar_order = (p * p - 1) // d // q_order
    gens = list(quaternion_subgroup_SL2(p, q_order))
    if scalar_order > 1:
        r = pow(primitive_root(p), (p - 1) // scalar_order, p)
        gens.append(r * np.eye(2, dtype=np.int64) % p)
    return gens


_D_DIVIDES = (lambda p, n, d: (p - 1) % d == 0, "d must divide p - 1")
_N_IS_2 = (lambda p, n, d: n == 2, "n must be 2")

CASES = {
    "a1": Case((_D_DIVIDES,), central=False, extraspecial=False, matrices=_singer_power),
    "a2": Case(
        (_N_IS_2, (lambda p, n, d: is_mersenne_prime(p), "p must be a Mersenne prime"), _D_DIVIDES),
        central=False, extraspecial=False, matrices=_quaternion_and_scalars,
    ),
    "a3": Case(
        (_D_DIVIDES, (lambda p, n, d: is_prime((p**n - 1) // d), "(p^n - 1)/d must be prime")),
        central=True, extraspecial=False, matrices=_singer_power,
    ),
    "a4": Case(
        (
            _N_IS_2,
            (lambda p, n, d: p > 2, "p must be odd"),
            (lambda p, n, d: d == (p - 1) // 2, "d must be (p - 1)/2"),
        ),
        central=False, extraspecial=True, matrices=_singer_power,
    ),
    "a5": Case(
        (_N_IS_2, (lambda p, n, d: d == p - 1, "d must be p - 1")),
        central=False, extraspecial=True, matrices=_singer_power,
    ),
    "a6": Case(
        (
            _N_IS_2,
            (lambda p, n, d: p > 2 and is_mersenne_prime(p), "p must be an odd Mersenne prime"),
            (lambda p, n, d: d in ((p - 1) // 2, p - 1), "d must be (p - 1)/2 or p - 1"),
        ),
        central=False, extraspecial=True, matrices=_quaternion,
    ),
    "a7": Case(
        ((lambda p, n, d: p == 2, "p must be 2"), _N_IS_2, (lambda p, n, d: d == 1, "d must be 1")),
        central=True, extraspecial=True, matrices=_singer_power,
    ),
}
CASE_TAGS = tuple(CASES)


def _validated_action(mats, p, n):
    if not check_frobenius_action(mats, p, n):
        raise ParamsInvalid("action is not Frobenius")
    if not check_irreducible_action(mats, p, n):
        raise ParamsInvalid("action is not irreducible")
    if not check_scalar_transitivity(mats, p, n):
        raise ParamsInvalid("scalars times the action are not transitive")


def construct_case(params: CaseParams) -> PermGroup:
    """Build the family member for params.  Its case's rule refuses it with
    ParamsInvalid, and its projected order past ORDER_BOUND with
    OrderBoundExceeded, before any matrix is made; the action is then checked
    and P x| H built."""
    case, p, n, d, h = CASES[params.tag], params.p, params.n, params.d, params.height
    reason = case.refusal(p, n, d, h)
    if reason:
        raise ParamsInvalid(reason)
    size_p, size_h = case.sizes(p, n, d, h)
    if size_p * size_h > ORDER_BOUND:
        raise OrderBoundExceeded(
            f"expected order {size_p} * {size_h} = {size_p * size_h}"
            f" exceeds the order bound {ORDER_BOUND}"
        )
    mats = case.matrices(p, n, d)
    _validated_action(mats, p, n)
    if case.extraspecial:
        return extraspecial_semidirect(p, mats, h, name=params.label())
    return affine_semidirect(p, n, mats, h, name=params.label())


def sweep_parameter_points(
    tags=CASE_TAGS,
    primes=(2, 3, 5, 7),
    max_pn: int = 81,
    max_order: int = 1000,
) -> list[CaseParams]:
    """The points that their case's rule admits, in the order of the grid:
    tag, p in primes, n with p^n <= max_pn, d | p - 1, and h = 1 or
    h >= 2, keeping those of projected order at most max_order.

    Points the builders refuse stay in, so the sweep reports the
    realizability landscape.
    """
    points: list[CaseParams] = []
    for tag in tags:
        if tag not in CASES:
            raise ValueError(f"unknown case tag {tag}")
        case = CASES[tag]
        # q^h <= max_order with q >= 2 bounds the heights
        heights = range(2, max_order.bit_length()) if case.central else (1,)
        for p in primes:
            n = 2 if tag == "a3" else 1  # a3's n = 1 points wait for a new galbench/expected.json
            while p**n <= max_pn:
                for d in divisors(p - 1):
                    for h in heights:
                        size_p, size_h = case.sizes(p, n, d, h)
                        if case.refusal(p, n, d, h) or size_p * size_h > max_order:
                            break
                        points.append(CaseParams(tag, p, n, d, h))
                n += 1
    return points
