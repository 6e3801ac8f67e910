"""Reference arithmetic and oracles the tests check galchar with.

galchar keeps what its subcommands run: a character table's values are
built in normal form and only compared and rendered, and group elements are
ids.  The second models of the same objects live here, beside the oracles
that no subcommand needs:

- `Cyc`, a galchar value with the ring operations, the Galois action, a
  complex view and a parser for rendered values;
- the `Permutation` arithmetic (inverse, power, order, commutator) and the
  permutation-level membership, subgroup and element-set helpers;
- the Zsigmondy exception list (Lemma zsig) and multiplicative orders;
- the Galois action on rows read entrywise, and a row's stabilizer;
- a table's values by conductor rebuilt from its pool, its mod-l table
  read back from the pool, a row's rationality read entrywise and its
  kernel index;
- the two stabilizer lemmas on coprime actions.
"""
from __future__ import annotations

import cmath
from math import gcd, lcm

import numpy as np

from galchar.chartab import Character, CharacterTable, TableVerificationError, _pool_mod
from galchar.cyclotomic import Cyclotomic, _normal_form
from galchar.numth import factorize, is_mersenne_prime
from galchar.perm import (
    PermGroup,
    Permutation,
    Subgroup,
    check_frobenius_action,
    check_irreducible_action,
    vector_group,
)

# -- cyclotomic integers -----------------------------------------------------------


def _sum(e: int, terms) -> "Cyc":
    """The value sum c * z_e**t over the (t, c) terms, in normal form."""
    return Cyc.of(_normal_form(e, terms))


class Cyc(Cyclotomic):
    """A cyclotomic integer with its ring operations.  Every result is built
    through galchar's normal form, so it compares and renders as a library
    value; library values take part through Cyc.of or as right operands."""

    __slots__ = ()

    @classmethod
    def of(cls, value: Cyclotomic) -> "Cyc":
        return cls(value.conductor, value.coeffs, _raw=True)

    @staticmethod
    def zeta(e: int, k: int = 1) -> "Cyc":
        """The root of unity z_e**k."""
        return _sum(e, [(k, 1)])

    @staticmethod
    def from_root_multiplicities(e: int, mults) -> "Cyc":
        """Canonical form of sum_t mults[t] * z_e**t; len(mults) must be e."""
        mults = list(mults)
        if len(mults) != e:
            raise ValueError(f"need exactly {e} multiplicities, got {len(mults)}")
        return _sum(e, enumerate(mults))

    @property
    def is_zero(self) -> bool:
        return self == 0

    def rational_value(self) -> int:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def __add__(self, other) -> "Cyc":
        if isinstance(other, int):
            other = cyc(other)
        big = lcm(self.conductor, other.conductor)
        return _sum(big, self._terms(big) + other._terms(big))

    __radd__ = __add__

    def __neg__(self) -> "Cyc":
        return Cyc(self.conductor, tuple(-c for c in self.coeffs), _raw=True)

    def __sub__(self, other) -> "Cyc":
        if isinstance(other, int):
            other = cyc(other)
        return self + (-Cyc.of(other))

    def __rsub__(self, other) -> "Cyc":
        return (-self) + other

    def __mul__(self, other) -> "Cyc":
        if isinstance(other, int):
            other = cyc(other)
        big = lcm(self.conductor, other.conductor)
        theirs = other._terms(big)
        return _sum(big, ((s + t, c * d) for s, c in self._terms(big) for t, d in theirs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Cyc":
        if n < 0:
            raise ValueError("negative powers are not ring operations")
        result, base = cyc(1), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def galois_apply(self, k: int) -> "Cyc":
        """Image under z_e -> z_e**k; requires gcd(k, e) = 1."""
        e = self.conductor
        if gcd(k, e) != 1:
            raise ValueError(f"{k} is not coprime to conductor {e}")
        return _sum(e, ((t * k, c) for t, c in self._terms(e)))

    def conjugate(self) -> "Cyc":
        """Complex conjugation, the Galois map k = -1."""
        return self.galois_apply(-1)

    def to_complex(self) -> complex:
        """Floating approximation; never used in equality decisions."""
        e = self.conductor
        return sum(
            c * cmath.exp(2j * cmath.pi * i / e) for i, c in enumerate(self.coeffs) if c
        ) + 0j

    @staticmethod
    def parse(text: str) -> "Cyc":
        """Inverse of str(); exact round trip."""
        total = cyc(0)
        for term in text.strip().split(" + "):
            if "*" in term:
                coeff_s, mono = term.split("*", 1)
                if not (mono.startswith("z(") and "^" in mono):
                    raise ValueError(f"bad term {term!r}")
                e_s, k_s = mono[2:].split(")^", 1)
                total = total + Cyc.zeta(int(e_s), int(k_s)) * int(coeff_s)
            else:
                total = total + int(term)
        return total


def cyc(n: int) -> Cyc:
    """A rational value with the operations."""
    return Cyc(1, (n,), _raw=True)


def zeta(e: int, k: int = 1) -> Cyc:
    return Cyc.zeta(e, k)


# -- permutations ----------------------------------------------------------------


def identity(degree: int) -> Permutation:
    return Permutation(range(degree))


def inverse(x: Permutation) -> Permutation:
    out = [0] * len(x.images)
    for i, y in enumerate(x.images):
        out[y] = i
    return Permutation(out)


def order(x: Permutation) -> int:
    return lcm(1, *map(len, x._cycles()))


def power(x: Permutation, n: int) -> Permutation:
    result = identity(x.degree)
    for _ in range(n % order(x)):
        result = result * x
    return result


def commutator(x: Permutation, y: Permutation) -> Permutation:
    return inverse(x) * inverse(y) * x * y


def element_id(group: PermGroup, perm: Permutation) -> int:
    """The id of perm; KeyError if it is not in the group."""
    return int(group.ids_of([perm])[0])


def member(perm: Permutation, where: PermGroup | Subgroup) -> bool:
    """Whether perm lies in the group or subgroup."""
    group = where.parent if isinstance(where, Subgroup) else where
    try:
        eid = element_id(group, perm)
    except KeyError:
        return False
    return where is group or bool(where.contains(eid))


def subgroup(group: PermGroup, gens) -> Subgroup:
    """The subgroup generated by permutations of the group."""
    try:
        ids = group.ids_of(gens)
    except KeyError:
        raise ValueError("generator lies outside the parent group") from None
    return Subgroup(group, group.closure(ids), ids)


def trivial_subgroup(group: PermGroup) -> Subgroup:
    return Subgroup(group, [0], [])


def element_set(sub: Subgroup) -> frozenset[Permutation]:
    """The subgroup's elements as permutations."""
    return frozenset(map(sub.parent.element, sub.ids.tolist()))


# -- number theory -----------------------------------------------------------------


def multiplicative_order(a: int, m: int) -> int:
    """Order of a in (Z/m)*; requires gcd(a, m) = 1."""
    a %= m
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    if m == 1:
        return 1
    order = 1
    for p, k in factorize(m).items():
        # the totient of each prime power; the order divides their lcm
        t = p ** (k - 1) * (p - 1)
        order = order * t // gcd(order, t)
    for q in factorize(order):  # strip the prime factors the order does not need
        while order % q == 0 and pow(a, order // q, m) == 1:
            order //= q
    return order


def zsigmondy_exception_expected(p: int, n: int) -> bool:
    """The classical exception list: no Zsigmondy prime exists exactly here."""
    return p**n == 2 or (n == 2 and is_mersenne_prime(p)) or p**n == 64


# -- the Galois action on rows ---------------------------------------------------------


def galois_conjugate(table: CharacterTable, chi: Character, k: int) -> Character:
    """The row g -> chi(g**k), read off pi; raises unless it matches the
    entrywise galois_apply of chi's values."""
    if gcd(k, table.exponent) != 1:
        raise ValueError(f"{k} is not coprime to the exponent {table.exponent}")
    target = table.chars[table.galois[table.unit_index[k % table.exponent], chi.index]]
    powers = table.group.power_maps[:, k % table.exponent]
    row = table.value_ids[chi.index].tolist()
    images = {i: Cyc.of(table.value_pool[i]).galois_apply(k) for i in set(row)}
    values, target_values = chi.values, target.values
    for c, i in enumerate(row):
        lhs = values[powers[c]]
        if lhs != images[i] or lhs != target_values[c]:
            raise TableVerificationError("power-map and entrywise Galois actions disagree")
    return target


def galois_stabilizer(chi: Character) -> frozenset[int]:
    """Residues k mod e (units) with chi^sigma_k = chi."""
    units = chi.table.units()
    return frozenset(units[chi.table._fixes(chi.index, units)].tolist())


# -- a table's values -------------------------------------------------------------------


def pool_by_conductor(pool: list[Cyclotomic]) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Conductor m -> (pool ids, their coefficient rows at m), as the lift
    builds them."""
    groups: dict[int, list[int]] = {}
    for i, v in enumerate(pool):
        groups.setdefault(v.conductor, []).append(i)
    return {
        m: (np.array(idx, dtype=np.int32), np.array([pool[i].coeffs for i in idx], dtype=np.int64))
        for m, idx in groups.items()
    }


def mod_table(table: CharacterTable) -> np.ndarray:
    """The k x k int64 table mod the Dixon prime, read back from the pool:
    the build checks that it is the mod-l table the lift started from."""
    reduced = _pool_mod(table.by_conductor, len(table.value_pool), table.exponent, table.dixon_prime)
    return reduced[table.value_ids].astype(np.int64)


def is_rational(chi: Character) -> bool:
    """Every value of the row is rational."""
    return all(v.is_rational for v in chi.values)


def kernel_index(chi: Character) -> int:
    """|G : ker chi|, read off the table's kernels."""
    return int(chi.table.kernels()[1][chi.index])


# -- stabilizer lemmas ------------------------------------------------------------------


def check_isaacs_bound(group: PermGroup, acting: Subgroup, target: Subgroup) -> bool:
    """Some element of the target has a small centralizer in the acting group.

    For a nontrivial nilpotent group N acting faithfully and coprimely (here:
    by conjugation inside a common parent) there must be a g in the target
    with |C_N(g)|^p <= |N|/p, p the smallest prime divisor of |N|.
    """
    if acting.order == 1:
        raise ValueError("acting group must be nontrivial")
    if not acting.is_nilpotent():
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
