"""Builders for the classified families and the standard control groups.

Every constructor returns a faithful permutation group: vector spaces get
the affine action, extraspecial groups the regular action on their own
elements, and cyclic covers acting through a quotient receive an extra
regular orbit so the kernel stays visible.  Parameter points that violate
the arithmetic of a case, or whose built action fails the Frobenius /
irreducibility / scalar-transitivity verification, raise ParamsInvalid with
the failed condition named; the sweep records these instead of hiding them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fpmat
from .classify import (
    check_frobenius_action,
    check_irreducible_action,
    check_scalar_transitivity,
    vector_group,
)
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
from .perm import ORDER_BOUND, OrderBoundExceeded, PermGroup, Permutation

CASE_TAGS = ("a1", "a2", "a3", "a4", "a5", "a6", "a7")


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
    action; for p = 2 the quaternion group of order 8."""
    if p == 2:
        return quaternion8()
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return PermGroup(p**3, _heisenberg_generators(p), name=f"Heis({p})")


def _heisenberg_images(p: int, fn) -> list[int]:
    """Images of the points a p^2 + b p + c, i.e. (a, b, c) in Heis(p),
    under the map (a, b, c) -> fn(a, b, c) (components reduced mod p)."""
    images = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                a2, b2, c2 = fn(a, b, c)
                images.append(a2 * p * p + b2 * p + c2)
    return images


def _heisenberg_generators(p: int) -> list[list[int]]:
    """Left multiplication by x = (1, 0, 0) and y = (0, 1, 0), where
    (a, b, c)(a', b', c') = (a + a', b + b', c + c' + a b')."""

    def left_mul(ga, gb):
        return _heisenberg_images(
            p, lambda a, b, c: ((ga + a) % p, (gb + b) % p, (c + ga * b) % p)
        )

    return [left_mul(1, 0), left_mul(0, 1)]


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
    if p**n > PN_BOUND:
        raise ValueError("p^n exceeds the construction bound")
    mats = _acting_matrices(mats, p, n)
    if central_height < 1:
        raise ValueError("central height must be >= 1")
    vecs = fpmat.all_vectors(p, n)
    translations = [fpmat.vector_numbers((vecs + e) % p, p) for e in np.eye(n, dtype=np.int64)]
    linear = fpmat.vector_action(mats, p)
    return _semidirect(translations, linear, mats, p, central_height, name, "affine")


def _heisenberg_automorphism(p: int, g: np.ndarray) -> "callable":
    """The automorphism of Heis(p) induced by g in GL(2,p).

    On generators x=(1,0,0), y=(0,1,0) it applies g to the (a,b) coordinates
    and multiplies the center by det(g); the quadratic correction on the
    center makes g -> phi_g a homomorphism (p odd).
    """
    alpha, beta = int(g[0, 0]), int(g[0, 1])
    gamma, delta = int(g[1, 0]), int(g[1, 1])
    det = (alpha * delta - beta * gamma) % p
    inv2 = pow(2, p - 2, p)

    def phi(a, b, c):
        a2 = (alpha * a + beta * b) % p
        b2 = (gamma * a + delta * b) % p
        corr = (alpha * gamma * a * a + beta * delta * b * b) * inv2 + beta * gamma * a * b
        return a2, b2, (det * c + corr) % p

    return phi


def extraspecial_semidirect(p, mats, central_height: int = 1, name=None) -> PermGroup:
    """E(p^{1+2}) x| H with H = <mats> <= GL(2,p) acting on P/Z(P), on the
    center by determinant.

    For p = 2 only the quaternion family is available: the matrix group must
    be trivial or cyclic of order 3, realised by the automorphism
    i -> j -> ij of Q8; central_height > 1 adds a regular orbit of the
    cyclic cover, as in affine_semidirect.
    """
    if central_height < 1:
        raise ValueError("central height must be >= 1")
    if p == 2:
        return _q8_semidirect(mats, central_height, name)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    mats = _acting_matrices(mats, p, 2)
    autos = [_heisenberg_images(p, _heisenberg_automorphism(p, m)) for m in mats]
    return _semidirect(
        _heisenberg_generators(p), autos, mats, p, central_height, name, "extraspecial"
    )


def _q8_order3_automorphism() -> Permutation:
    """x -> y -> xy on the labels of generalized_quaternion(8).

    Point 0 is the identity in the regular action, so an element's label is
    where its translation sends 0; the automorphism permutes those labels.
    """
    q8 = quaternion8()
    x, y = q8.gen_ids
    k = q8.mul(x, y)
    perm = [0] * 8
    for a in range(4):
        for b in range(2):
            g = q8.mul(q8.power(x, a), q8.power(y, b))
            img = q8.mul(q8.power(y, a), q8.power(k, b))
            perm[q8.images[g, 0]] = int(q8.images[img, 0])
    return Permutation(perm)


def _q8_semidirect(mats, central_height: int, name) -> PermGroup:
    mats = _acting_matrices(mats, 2, 2)
    q8 = quaternion8()
    alpha = _q8_order3_automorphism()
    if mats:
        if len(mats) != 1:
            raise ParamsInvalid("p = 2 supports only a cyclic order-3 action")
        m = mats[0]
        if matrix_order_is(m, 2, 3):
            # match the matrix to alpha or alpha^2 by its action on e1, e2
            std = np.array([[0, 1], [1, 1]], dtype=np.int64)
            if np.array_equal(m, std):
                act = alpha
            else:
                act = Permutation(alpha.images[a] for a in alpha.images)  # alpha^2
        elif matrix_order_is(m, 2, 1):
            act = None
        else:
            raise ParamsInvalid("p = 2 supports only trivial or order-3 actions")
    else:
        act = None

    if act is None:
        if central_height != 1:
            raise ParamsInvalid("trivial action cannot have central height > 1")
        return q8
    base = [list(g.images) for g in q8.generators]
    return _semidirect(base, [list(act.images)], [m], 2, central_height, name, "Q8")


# -- the case constructors --------------------------------------------------------------


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
        if self.tag not in CASE_TAGS:
            raise ValueError(f"unknown case tag {self.tag}")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.n < 1 or self.d < 1 or self.height < 1:
            raise ValueError("n, d, height must be positive")

    def label(self) -> str:
        return f"{self.tag}(p={self.p},n={self.n},d={self.d},h={self.height})"


def _validated_action(mats, p, n, need_frobenius=True):
    if need_frobenius and not check_frobenius_action(mats, p, n):
        raise ParamsInvalid("action is not Frobenius")
    if not check_irreducible_action(mats, p, n):
        raise ParamsInvalid("action is not irreducible")
    if not check_scalar_transitivity(mats, p, n):
        raise ParamsInvalid("scalars times the action are not transitive")


def construct_case(params: CaseParams) -> PermGroup:
    """Build the family member for params, or raise ParamsInvalid."""
    tag, p, n, d, h = params.tag, params.p, params.n, params.d, params.height
    if tag == "a1":
        if (p - 1) % d:
            raise ParamsInvalid("d must divide p - 1")
        if (p**n - 1) // d < 2:
            raise ParamsInvalid("complement would be trivial")
        s = singer_matrix(p, n)
        hgen = fpmat.mat_pow(s, d, p)
        _validated_action([hgen], p, n)
        return affine_semidirect(p, n, [hgen], 1, name=params.label())
    if tag == "a2":
        if n != 2:
            raise ParamsInvalid("the quaternion complement case needs n = 2")
        if not is_mersenne_prime(p):
            raise ParamsInvalid("p must be a Mersenne prime")
        if (p - 1) % d:
            raise ParamsInvalid("d must divide p - 1")
        if d % 2:
            q_order = 2 * (p + 1)
            d_order = (p - 1) // (2 * d) if (p - 1) % (2 * d) == 0 else None
        else:
            q_order = p + 1
            d_order = (p - 1) // d
        if d_order is None:
            raise ParamsInvalid("odd d must divide (p - 1)/2")
        x, y = quaternion_subgroup_SL2(p, q_order)
        gens = [x, y]
        if d_order > 1:
            r = primitive_root(p)
            scal = pow(r, (p - 1) // d_order, p) * np.eye(2, dtype=np.int64) % p
            gens.append(scal)
        _validated_action(gens, p, 2)
        return affine_semidirect(p, 2, gens, 1, name=params.label())
    if tag == "a3":
        if h < 2:
            raise ParamsInvalid("a3 needs a nontrivial central kernel (height >= 2)")
        q = (p**n - 1) // (p - 1)
        if not is_prime(q):
            raise ParamsInvalid("(p^n - 1)/(p - 1) must be prime")
        s = singer_matrix(p, n)
        hgen = fpmat.mat_pow(s, p - 1, p)
        _validated_action([hgen], p, n)
        return affine_semidirect(p, n, [hgen], h, name=params.label())
    if tag == "a4":
        if p == 2 or not is_prime(p):
            raise ParamsInvalid("a4 needs an odd prime")
        if d != (p - 1) // 2:
            raise ParamsInvalid("a4 has d = (p - 1)/2")
        s = singer_matrix(p, 2)
        hgen = fpmat.mat_pow(s, (p - 1) // 2, p)
        _validated_action([hgen], p, 2)
        return extraspecial_semidirect(p, [hgen], 1, name=params.label())
    if tag == "a5":
        if d != p - 1:
            raise ParamsInvalid("a5 has d = p - 1")
        if p == 2:
            std = np.array([[0, 1], [1, 1]], dtype=np.int64)
            _validated_action([std], 2, 2)
            return extraspecial_semidirect(2, [std], 1, name=params.label())
        s = singer_matrix(p, 2)
        hgen = fpmat.mat_pow(s, p - 1, p)
        _validated_action([hgen], p, 2)
        return extraspecial_semidirect(p, [hgen], 1, name=params.label())
    if tag == "a6":
        if not is_mersenne_prime(p) or p == 2:
            raise ParamsInvalid("a6 needs an odd Mersenne prime")
        if d not in ((p - 1) // 2, p - 1):
            raise ParamsInvalid("a6 has d in {(p-1)/2, p-1}")
        if (p * p - 1) % d:
            raise ParamsInvalid("d must divide p^2 - 1")
        x, y = quaternion_subgroup_SL2(p, (p * p - 1) // d)
        _validated_action([x, y], p, 2)
        return extraspecial_semidirect(p, [x, y], 1, name=params.label())
    if tag == "a7":
        if p != 2:
            raise ParamsInvalid("a7 lives over p = 2")
        if h < 2:
            raise ParamsInvalid("a7 needs a nontrivial central kernel (height >= 2)")
        std = np.array([[0, 1], [1, 1]], dtype=np.int64)
        _validated_action([std], 2, 2)
        return extraspecial_semidirect(2, [std], h, name=params.label())
    raise ValueError(f"unknown tag {tag}")


def sweep_parameter_points(
    tags=CASE_TAGS,
    primes=(2, 3, 5, 7),
    max_pn: int = 81,
    max_order: int = 1000,
) -> list[CaseParams]:
    """Deterministic enumeration of parameter points within the bounds.

    Points whose projected order exceeds max_order are skipped; everything
    else is attempted, including infeasible points, so the sweep reports the
    realizability landscape.
    """
    points: list[CaseParams] = []
    for tag in tags:
        for p in primes:
            if tag == "a1":
                n = 1
                while p**n <= max_pn:
                    for d in divisors(p - 1):
                        order = p**n * (p**n - 1) // d
                        if 2 <= order <= max_order:
                            points.append(CaseParams("a1", p, n, d))
                    n += 1
            elif tag == "a2":
                if not is_mersenne_prime(p) or p * p > max_pn:
                    continue
                for d in divisors(p - 1):
                    order = p * p * (p * p - 1) // d
                    if order <= max_order:
                        points.append(CaseParams("a2", p, 2, d))
            elif tag == "a3":
                n = 2
                while p**n <= max_pn:
                    q = (p**n - 1) // (p - 1)
                    if is_prime(q):
                        height = 2
                        while p**n * q**height <= max_order:
                            points.append(CaseParams("a3", p, n, p - 1, height))
                            height += 1
                    n += 1
            elif tag == "a4":
                if p == 2 or p * p > max_pn:
                    continue
                order = p**3 * 2 * (p + 1)
                if order <= max_order:
                    points.append(CaseParams("a4", p, 2, (p - 1) // 2))
            elif tag == "a5":
                if p * p > max_pn:
                    continue
                order = p**3 * (p + 1)
                if order <= max_order:
                    points.append(CaseParams("a5", p, 2, p - 1))
            elif tag == "a6":
                if not is_mersenne_prime(p) or p == 2:
                    continue
                for d in ((p - 1) // 2, p - 1):
                    if d < 1 or (p * p - 1) % d:
                        continue
                    order = p**3 * (p * p - 1) // d
                    if order <= max_order:
                        points.append(CaseParams("a6", p, 2, d))
            elif tag == "a7":
                if p != 2:
                    continue
                height = 2
                while 8 * 3**height <= max_order:
                    points.append(CaseParams("a7", 2, 2, 1, height))
                    height += 1
    return points
