"""Exact irreducible character tables by the class-matrix eigenvector method.

The table of a group G is computed in five steps:

1. conjugacy classes, class sizes and exponent e, and the group's (k, e)
   int32 power-map array, composed from a few prime and unit power maps
   (see perm).  Every step below reads columns of that array; a table
   reads its group's read-only array;
2. a prime l = 1 (mod e) with l^2 > 4|G| (so degrees and root-of-unity
   multiplicities lift uniquely from arithmetic mod l);
3. simultaneous eigenvectors of the class matrices M_c over F_l, built only
   from the products they read (Schneider, J. Symbolic Comput. 9, 1990):
   row m of sum_c a_c M_c counts the classes of x^-1 z_m (z_m the class
   representatives) for the x of its support, the classes with a_c possibly
   nonzero, each product formed at most once per table into one cache keyed
   by the row class.  Each seeded random combination a is self-adjoint for
   the class-function form <x, y> = sum_c x[c] y[c^-1] / |C_c| mod l, under
   which the eigenlines are orthogonal with nonzero norms |G| / chi(1)^2
   (the form that gives the degrees in step 4).  So one Krylov chain v a^s
   of a probe v gives the scalar sequence <v a^i, v a^j>, and
   Berlekamp-Massey on it gives a polynomial f, accepted only if f(a) kills
   v, which proves it is v's minimal polynomial; otherwise the form was
   isotropic on v's part of a repeated eigenspace.  The eigenline of
   chi^sigma_s is that of chi with its columns permuted by c -> c^s, so only
   one eigenline per Galois orbit of characters is sought, by descent from
   e_0, the class function that is 1 on the identity class and 0 elsewhere:
   - e_0 = sum_chi (chi(1)^2 / |G|) omega_chi, omega_chi the eigenline of
     chi with value 1 at the identity class, and l does not divide |G|
     (l = 1 mod e), so every coefficient is nonzero mod l.  Every vector
     the descent builds from e_0 is a nonzero multiple of e_0's part on
     some set X of characters, whose norm is sum_(chi in X) chi(1)^2 / |G|.
     Inside one Galois orbit all degrees are one d, with d^2 <= |G| < l^2/4,
     and |X| <= phi(e) < l, so a part inside one orbit's span, of norm
     |X| d^2 / |G|, is never isotropic;
   - level 0: a combination whose coefficients are constant on the
     power-orbits of classes (over every class, its rows formed at the least
     class of each) takes one eigenvalue on each Galois orbit of
     characters (Brauer's permutation lemma), and both kinds of orbit
     number r, the count of rational classes.  From e_0, each round chains
     all n current vectors as one block under a fresh such combination, to
     min(l, r - n + 1) steps (a vector's part spans at most r - n + 1
     orbits and takes at most l eigenvalues), and replaces each accepted
     vector v by its deflation vectors v (f/(x - lam))(a), one per root
     lam of f.  A vector whose chain is refused (isotropic on a part that
     spans several orbits) waits for the next round.  The vectors are
     nonzero parts of e_0 on disjoint sets of whole orbits, so once there
     are r of them each lies in the span of exactly one orbit's
     eigenlines;
   - levels i >= 1 walk down the subgroups T_i = {s = 1 (mod e_i)} of the
     units mod e, e_i climbing to e one prime factor at a time (levels
     where no orbit of classes splits are skipped).  A combination
     constant on the T_i-orbits of classes has one eigenvalue per
     T_i-orbit of characters, and a T_(i-1)-orbit holds at most
     |T_(i-1) : T_i| of those, so each orbit's chain stops there; the
     chains of all orbits advance as one block product per step, and each
     vector is deflated onto its least eigenvalue.  At T = 1 each vector
     is an eigenline.  Level i's support is the union of the T_i-orbits of
     S, the least class of each power-orbit, and its rows are the least
     classes of the T_i-orbits: supports shrink as the rows grow, so what
     the cache holds for a row serves every later level;
   Two eigenvalues of one level can still coincide mod l, leaving a vector
   in a sum of eigenspaces.  The conjugates of the eigenlines, told apart
   by an exact integer fingerprint, give all k rows and the Galois row
   permutations pi of step 5, and the k rows must pass the eigen-check
   together; the orbit of a failing row is sent down the levels again from
   its level-0 vector with fresh combinations, which mostly settle a chance
   coincidence, and from the third pass on over every class.
   The eigen-check (Dixon 1967): the k rows must be pairwise distinct on
   the columns S (else S widens to every class), and each row x must pass
   Freivalds' test x (M r) = lambda (x r), lambda read off x, for random
   combinations M of the M_c, c in S, and random vectors r from a stream
   the split never reads, M r summed over the products of S's elements.
   A row that is not a joint eigenvector of these M_c passes a round with
   probability at most 2/l, so there are enough rounds to bring that below
   2^-30 (3 for l = 2,917, 17 for l = 7).  Rows that pass are the central
   characters omega_j: the M_c act diagonally on their basis (l does not
   divide |G|), omega_j M_c = omega_j(c) omega_j, so a joint eigenvector x
   of the M_c, c in S, with x[0] = 1, whose eigenvalues are
   (x M_c)[0] = x(c), lies in the span of the omega_j equal to x on S.  k
   rows pairwise distinct on S meet k disjoint nonempty sets of the k
   omega_j, so each meets one, and x[0] = 1 = omega_j(1) makes x = omega_j.
   Everything is deterministic given the seed: the descent draws from
   random.Random(f"descent:{seed}"), the check from (f"check:{seed}"), a
   value below n as w mod n from 64-bit words w < 2^64 - (2^64 mod n);
4. degrees from <omega, omega> = |G| / chi(1)^2 mod l, at the least row of
   each Galois orbit only: permuting the classes by c -> c^s keeps the
   form, so the degree holds on the orbit.  Then the values mod l;
5. exact values, as ids into a pool of the table's few distinct values,
   each held once as an int64 coefficient row at its conductor (a rational
   one as the row (n,) at conductor 1), found among the lift's rows of each
   conductor, which the table keeps.  Only at the r representatives g, one
   per power-orbit of classes (the least class c^s, s a unit mod e), does
   an inverse DFT mod l of the distinct rows of the columns of the powers
   g^s of the int32 mod-l table give the multiplicities of the roots of
   unity, and so each value at g, into a (k, r) int32 array of ids; each
   multiplicity row must sum to chi(1).  The DFT of length m = m1 m2 takes
   four steps (Bailey, J. Supercomputing 4, 1990): a product of length m2,
   a twiddle, a product of length m1 and a transpose, by factors made per
   call.  A unit permutes the rows as it
   permutes the classes (Brauer's permutation lemma; Isaacs, Character
   Theory of Finite Groups, 6.32): the (phi(e), k) int32 array pi holds,
   for the t-th unit s mod e, pi[t, i] the row of chi_i^sigma_s, so
   chi_i(c^s) = chi_pi[t, i](c).  pi comes only from the descent, with the
   rows (step 3).  Every column of the k x k int32 id array is then one
   gather from its representative's, ids[:, g^s] = ids[pi[t], g].  The
   multiplicity checks run before pi is read, so a corrupted mod-l table
   is reported by them.  The rows are sorted by degree, then by the ranks
   of their rendered values: big-endian int32 keys >= 0 compare as bytes
   as they do as numbers, so a stable sort of the rank rows as bytes, then
   a stable sort by degree.

The build checks the lift before it reorders the rows: the pool reduced
mod l, one product per conductor, must give back the mod-l table through
the id array, and then the mod-l table is dropped.  The finished table is
verified before it is returned: degree sum, first column and the
rational-row = rational-class count.  Their temporaries (the lift's
inverse-DFT products, the expansion of a combination from its least rows,
the checks' products) are made a block of rows at a time, of the one
block size perm._BLOCK_CELLS cells (or one row).  Orthogonality is then checked exactly, at every
table size, at the cost of one row per Galois orbit (Cohen, A Course in
Computational Algebraic Number Theory, 1993, 1.3.3).  R is the set of
least rows of the orbits, s' the inverse of a unit s mod e, and
Gram(x, y) = sum_c |C_c| x(c) conj y(c):

- Galois action.  pi_1 must be the identity.  For each generator u of the
  units mod e, every pool value is mapped through z -> z^u at its own
  conductor (classes c and c^u have the same order); the image of the id
  array must equal its columns permuted by the power map c -> c^u, and its
  row i must be row pi_u(i).  pi_(u s) must be pi_u after pi_s for every
  unit s.  By induction over words in the generators, sigma_s chi_i, the
  row c -> chi_i(c^s), is row pi_s(i) for every unit s, and pi is an
  action, so pi_s is a permutation with inverse pi_s'.  With s = -1,
  conj chi(c) = chi(c^-1).  As c -> c^s permutes the classes and keeps
  their sizes, each Gram(chi_i, chi_j) and sum_c |C_c| chi_i(c^2) is fixed
  by Gal(Q(zeta_e)/Q): a cyclotomic integer, so a rational integer.
- One row per orbit.  Row i's label rho = min_s pi_s(i) lies in its
  orbit, so chi_i = sigma_s chi_rho for some s, and as sigma_s commutes
  with conj and fixes rational integers,
  Gram(chi_i, chi_j) = Gram(chi_rho, chi_pi_s'(j)), where pi_s'(i) = rho.
  So if Gram(chi_rho, chi_j) = |G| delta_(rho j) for rho in R and every j,
  Gram(chi_i, chi_j) = |G| delta_ij: X D conj(X)^T = |G| I for the table X
  and D = diag |C_c|.  X is square, so conj(X)^T X = |G| D^-1, column
  orthogonality, and with the lift check the rows are orthogonal mod l.
- The bound.  With L1 the sum of the absolute coefficients of a value,
  |chi(c)| <= L1(chi(c)), so |Gram(chi_i, chi_j)| is at most
  sum_c |C_c| L1(chi_i(c)) L1(chi_j(c)), and by Cauchy-Schwarz at most the
  largest i = j sum.  The rows of one orbit hold the same ids on classes
  permuted within their sizes, so R attains it.  B is the larger of that
  and of max over R of sum_c |C_c| L1(chi(c^2)), and each checked sum
  differs from its target by at most B + |G|.
- Primes.  Primes p = 1 (mod e) with n (p - 1)^2 < 2^53, n the larger of
  k and the longest coefficient vector, so that every float64 product is
  exact, are taken largest first until their product exceeds
  2 (B + |G|); usually one suffices.  For each, the pool is reduced
  under zeta_e -> an element of order e in F_p, and one product of the r
  rows of R, times |C_c| at c^-1, by the k x k right factor, made a block
  of its columns at a time, checks Gram(chi_rho, .); agreement mod every p
  is exact equality.  If the primes run out first, verification fails.
- Frobenius-Schur indicators.  Mod each of those primes, one product over
  the square power-map column gives sum_c |C_c| chi(c^2) on R, which must
  be nu |G| with nu in {-1, 0, 1} the same for every prime, and nu != 0
  exactly on the rows fixed by u = -1 (the real ones).  The sum is a
  rational integer that B covers, so the check is exact; both it and
  being real are constant on Galois orbits, so R stands for all rows.

The table keeps the id array, the lift's rows of each conductor (the one
store of the values), pi in its final row order, and unit_index, the row
of pi of each residue mod e (-1 for the others); it keeps no mod-l table.
galois_orbits labels each row by the least row of its orbit, the minimum
of pi over its rows, and field_in_pth_cyclotomic reads pi too: chi's field
lies in Q(zeta_p) iff every unit u = 1 (mod gcd(p, e)) fixes chi's row.
A Character's values are read through the id array and value_pool, made
from the rows on its first read, one Cyclotomic per value; the row order
and the text output render each value from its row.  The F_l products
come from fpmat.

Kernels are one (k, k) bool mask of classes, built on first use: c lies in
ker chi iff chi(c) has the id of the rational pool value chi(1), looked up
among the rational values, not read off column 0.  |G : ker chi| is |G|
over the mask's product with the class sizes, and two kernels are equal
iff their rows are.  Every row must hold the identity class and a size
dividing |G|.  Only Character.kernel() builds a kernel as a Subgroup of
elements, and it checks that the closure of its generators is the set.
"""
from __future__ import annotations

import weakref
from functools import cached_property
from math import ceil, gcd, isqrt, log2

import numpy as np

from . import fpmat
from .cyclotomic import Cyclotomic, _check_conductor, _monomial_table
from .numth import factorize, find_dixon_prime, is_prime, primitive_root, unit_generators
from .perm import _BLOCK_CELLS, ConjugacyClass, PermGroup, Subgroup, _check_cells, _void

EXACT_BUDGET = 2**53  # n (p - 1)^2 below it keeps the exact check's products exact
_LEVEL0_ROUNDS = 64  # refining rounds at level 0 before the descent gives up
_DESCENT_PASSES = 32  # passes over failing orbits before it does


class TableVerificationError(AssertionError):
    """The computed table failed an exactness check (an implementation bug)."""


class Character:
    """One row of a character table.  The table holds its characters and each
    refers to the table weakly: a cycle would keep the table and its group
    alive until the cyclic garbage collector runs."""

    __slots__ = ("_table", "index", "degree", "_kernel")

    def __init__(self, table: "CharacterTable", index: int, degree: int):
        self._table = weakref.ref(table)
        self.index = index
        self.degree = degree
        self._kernel: Subgroup | None = None

    @property
    def table(self) -> "CharacterTable":
        return self._table()

    @property
    def values(self) -> tuple[Cyclotomic, ...]:
        """The row's pool values, read through the table's id array."""
        table = self.table
        return tuple(map(table.value_pool.__getitem__, table.value_ids[self.index].tolist()))

    def __call__(self, class_index: int) -> Cyclotomic:
        table = self.table
        return table.value_pool[table.value_ids[self.index, class_index]]

    def kernel_classes(self) -> frozenset[int]:
        """Indices of the classes where the value equals the degree: the
        row's entries of the table's kernel mask."""
        return frozenset(np.flatnonzero(self.table.kernels()[0][self.index]).tolist())

    def kernel(self) -> Subgroup:
        """The kernel as a subgroup: the union of the kernel classes."""
        if self._kernel is None:
            group = self.table.group
            classes = [self.table.classes[j].element_ids for j in self.kernel_classes()]
            sub = Subgroup(group, np.concatenate(classes))
            if not np.array_equal(group.closure(sub.gen_ids), sub.ids):
                raise TableVerificationError("character kernel is not a subgroup")
            self._kernel = sub
        return self._kernel

    def __repr__(self) -> str:
        return f"<Character #{self.index} degree {self.degree}>"


class CharacterTable:
    def __init__(self, group, classes, ids, by_conductor, galois, degrees, exponent, dixon_prime, seed):
        self.group: PermGroup = group
        self.classes: list[ConjugacyClass] = classes
        self.degrees: list[int] = degrees
        self.exponent = exponent
        self.dixon_prime = dixon_prime
        self.seed = seed
        self.value_ids: np.ndarray = ids  # k x k int32, ids into value_pool
        # conductor m -> (pool ids, their int64 coefficient rows at m), as the
        # lift built them: the only store of the values
        self.by_conductor: dict[int, tuple[np.ndarray, np.ndarray]] = by_conductor
        # galois[unit_index[s], i]: the row of chi_i^sigma_s, chi_i(c^s) as a
        # function of c, for each unit s mod e; unit_index is -1 elsewhere
        self.galois: np.ndarray = galois
        self.unit_index = _unit_index(exponent)
        self.chars: list[Character] = [Character(self, i, d) for i, d in enumerate(degrees)]
        self.split: dict = {}  # how the eigenlines were found (set by _build_table)
        self._kernels: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @cached_property
    def value_pool(self) -> list[Cyclotomic]:
        """The distinct values by id, each one object, made on first read."""
        return _read_pool(self.by_conductor)

    def units(self) -> np.ndarray:
        """The units mod the exponent, ascending."""
        return _units_mod(self.exponent)

    def kernels(self) -> tuple[np.ndarray, np.ndarray]:
        """(mask, index): mask[i, c] whether chi_i(c) is the rational pool
        value chi_i(1), so whether class c lies in ker chi_i, and index[i] =
        |G : ker chi_i|.  A kernel is a normal subgroup: a row that lacks the
        identity class, or whose class sizes sum to no divisor of |G|, is not
        a character of G (see the module docstring)."""
        if self._kernels is None:
            idx, coeffs = self.by_conductor[1]  # the rational values
            id_of = dict(zip(coeffs[:, 0].tolist(), idx.tolist()))
            degree_ids = np.array([id_of.get(d, -1) for d in self.degrees])
            mask = self.value_ids == degree_ids[:, None]
            sizes = mask @ np.array([c.size for c in self.classes], dtype=np.int64)
            if not mask[:, 0].all() or (self.group.order % sizes).any():
                raise TableVerificationError("character kernel is not a subgroup")
            self._kernels = mask, self.group.order // sizes
        return self._kernels

    def _fixes(self, i: int, units: np.ndarray) -> np.ndarray:
        """For each of the units, whether it fixes row i."""
        return self.galois[self.unit_index[units % self.exponent], i] == i

    # -- Galois action -------------------------------------------------------

    def galois_orbits(self) -> list[tuple[int, ...]]:
        """Orbits of row indices under the full unit group mod e, in order of
        their least row: each row is labelled by the least row of its orbit."""
        label = self.galois.min(axis=0)
        rows = np.argsort(label, kind="stable")
        ends = np.flatnonzero(np.diff(label[rows])) + 1
        return [tuple(orbit.tolist()) for orbit in np.split(rows, ends)]

    def field_in_pth_cyclotomic(self, chi: Character, p: int) -> bool:
        """True iff the field of values of chi lies in Q(zeta_p).  It lies in
        Q(zeta_e), which meets Q(zeta_p) in Q(zeta_g), g = gcd(p, e): so iff
        every unit u = 1 (mod g) fixes chi's row (every unit when g = 1)."""
        g = gcd(p, self.exponent)
        units = self.units()
        return bool(self._fixes(chi.index, units[units % g == 1 % g]).all())

    # -- serialization -------------------------------------------------------

    def _rendered_rows(self) -> list[list[str]]:
        """Each row's values as strings, each pool value rendered once."""
        labels = _read_pool(self.by_conductor, str)
        return [[labels[i] for i in row] for row in self.value_ids.tolist()]

    def to_dict(self) -> dict:
        return {
            "order": self.group.order,
            "exponent": self.exponent,
            "classes": [{"size": c.size, "elt_order": c.order} for c in self.classes],
            "degrees": list(self.degrees),
            "values": self._rendered_rows(),
            "config": {"seed": self.seed, "dixon_prime": self.dixon_prime},
        }

    def text_lines(self) -> list[str]:
        lines = [
            f"order {self.group.order}  exponent {self.exponent}  "
            f"classes {self.n_classes}  dixon_prime {self.dixon_prime}  seed {self.seed}"
        ]
        lines.append(
            "class sizes:  " + " ".join(str(c.size) for c in self.classes)
        )
        lines.append(
            "elt orders:   " + " ".join(str(c.order) for c in self.classes)
        )
        for chi, row in zip(self.chars, self._rendered_rows()):
            lines.append(f"X{chi.index}[{chi.degree}]: " + " | ".join(row))
        return lines

    def __repr__(self) -> str:
        return f"<CharacterTable of {self.group!r}: {self.n_classes} classes>"


# -- mod-l linear algebra helpers -------------------------------------------------


def _roots_mod(polys: np.ndarray, ell: int) -> np.ndarray:
    """(n, l) bool: which points of F_l are roots of each row's polynomial
    (ascending coefficients), by Horner's rule over all of F_l at once."""
    xs = np.arange(ell, dtype=np.int64)
    out = np.empty((len(polys), ell), dtype=bool)
    for r in _row_blocks(len(polys), ell):  # bounded temporaries
        vals = np.zeros((len(polys[r]), ell), dtype=np.int64)
        for c in polys[r, ::-1].T:
            vals = (vals * xs + c[:, None]) % ell
        out[r] = vals == 0
    return out


def _berlekamp_massey(seq: np.ndarray, ell: int) -> np.ndarray:
    """Ascending coefficients of the least monic f = x^L + c_1 x^(L-1) + ...
    + c_L with seq[n] + c_1 seq[n-1] + ... + c_L seq[n-L] = 0 mod l for every
    n from L to len(seq) - 1 (Massey 1969), as an int64 array.  The
    sequences are short, so the recurrence runs on Python ints."""
    seq = seq.tolist()
    conn = [1] + [0] * len(seq)  # 1 + c_1 x + ... + c_L x^L
    prev = conn  # the connection polynomial before the last length change
    length, gap, last = 0, 1, 1
    for n in range(len(seq)):
        d = sum(c * s for c, s in zip(conn[: length + 1], seq[n::-1])) % ell
        if not d:
            gap += 1
            continue
        coef = d * pow(last, ell - 2, ell) % ell
        kept = conn
        conn = conn[:gap] + [(c - coef * q) % ell for c, q in zip(conn[gap:], prev)]
        if 2 * length <= n:
            length, prev, last, gap = n + 1 - length, kept, d, 1
        else:
            gap += 1
    return np.array(conn[length::-1], dtype=np.int64)


def _krylov(vectors: np.ndarray, a: np.ndarray, bound: int, ell: int, form):
    """(chain, polys, killed) for a block of probes, one block product per
    step: chain[s, i] = vectors[i] a^s for s <= bound (in a's dtype); polys[i]
    the ascending coefficients, padded to bound + 1, of the least monic f
    that Berlekamp-Massey finds for the form sequence <v a^i, v a^j> of
    v = vectors[i]; killed[i] whether deg f <= bound and f(a) kills v.
    form(rows) gives (x, y) with x the rows as class functions and
    <x_i, z> = y_i . z (see _Descent._form).

    a is self-adjoint for the form, so the one chain v a^s, s <= bound,
    gives s_(i+j) = <v a^i, v a^j> up to 2 bound, and Berlekamp-Massey
    finds the least f generating them.  The minimal polynomial of v
    generates them too, so deg f is at most its degree; once f(a) kills v,
    it is that polynomial.  f misses exactly the eigenvalues whose
    eigenspace part of v is isotropic, and then f(a) does not kill v."""
    n, m = vectors.shape
    chain = np.empty((bound + 1, n, m), dtype=a.dtype)
    chain[0] = vectors
    for s in range(bound):
        chain[s + 1] = (chain[s] @ a).astype(np.int64) % ell
    full, dual = (x.reshape(bound + 1, n, -1) for x in form(chain.reshape(-1, m)))
    seq = np.empty((n, 2 * bound + 1), dtype=np.int64)
    seq[:, 0::2] = np.einsum("sik,sik->is", full, dual) % ell
    seq[:, 1::2] = np.einsum("sik,sik->is", full[1:], dual[:-1]) % ell
    polys = np.zeros((n, bound + 1), dtype=np.int64)
    fits = np.zeros(n, dtype=bool)
    for i, row in enumerate(seq):
        f = _berlekamp_massey(row, ell)
        fits[i] = len(f) <= bound + 1
        polys[i, : len(f)] = f[: bound + 1]
    residue = np.einsum("is,sik->ik", polys.astype(a.dtype), chain) % ell
    return chain, polys, fits & ~residue.any(axis=1)


def _degrees(polys: np.ndarray) -> np.ndarray:
    """Degrees of monic polynomials given as padded ascending coefficients."""
    return polys.shape[1] - 1 - (polys[:, ::-1] != 0).argmax(axis=1)


def _synthetic_division(poly: np.ndarray, lams: np.ndarray, ell: int) -> np.ndarray:
    """Row r: coefficients of poly(x) / (x - lams[r]), ascending, length deg(poly)."""
    deg = len(poly) - 1
    out = np.zeros((len(lams), deg), dtype=np.int64)
    carry = np.zeros(len(lams), dtype=np.int64)
    for i in range(deg - 1, -1, -1):
        carry = (poly[i + 1] + carry * lams) % ell
        out[:, i] = carry
    return out


# -- the table computation ---------------------------------------------------------


class _Products:
    """The classes of the products x^-1 z_m (z_m the representative of class
    m) that the split reads, each formed at most once per table, so never
    more than |G| k, in batches for some rows m and the x of some classes."""

    def __init__(self, group: PermGroup):
        self.group, self.class_of = group, group.class_index_array()
        self.reps = np.array([c.element_ids[0] for c in group.conjugacy_classes()])
        self.held = np.zeros((len(self.reps),) * 2, dtype=bool)  # [m, c]: row m holds class c
        self.batches = []  # (rows, classes of the x, (rows, x) int32 classes of x^-1 z_m)
        self.count = 0  # products formed

    def blocks(self, rows: np.ndarray, support: np.ndarray):
        """Blocks (rows, products, classes) of about _BLOCK_CELLS cells (or
        one row): products[i, j] is the class of x_j^-1 z_m, m = rows[i], x_j
        of the support's classes[j] in one batch.  Each set of classes some of
        the rows lack of the support is formed first; a row's batches are disjoint."""
        lacks = support & ~self.held[rows]
        first, which = _distinct_rows(lacks)
        for i, missing in enumerate(lacks[first]):
            batch, xs = rows[which == i], np.flatnonzero(missing[self.class_of])
            if len(xs):
                _check_cells(self.count + len(batch) * len(xs), "the product columns")
                products = np.empty((len(batch), len(xs)), dtype=np.int32)
                inverse, step = self.group.inverse[xs], max(1, _BLOCK_CELLS // len(xs))
                for lo in range(0, len(batch), step):  # x^-1 z for the x and a block of z
                    zs = self.reps[batch[lo : lo + step], None]
                    products[lo : lo + step] = self.class_of[self.group.mul(inverse, zs)]
                self.batches.append((batch, self.class_of[xs], products))
                self.count += products.size
                self.held[batch] |= missing
        wanted = np.zeros(len(self.reps), dtype=bool)
        wanted[rows] = True
        for held, classes, products in self.batches:
            mine, cols = wanted[held], support[classes]
            if not (mine.all() and cols.all()):  # one copy of what is read
                held, classes, products = held[mine], classes[cols], products[np.ix_(mine, cols)]
            step = max(1, _BLOCK_CELLS // max(1, len(classes)))
            for lo in range(0, len(held) if len(classes) else 0, step):
                yield held[lo : lo + step], products[lo : lo + step], classes

    def combination(self, rows: np.ndarray, coeffs: np.ndarray, support: np.ndarray) -> np.ndarray:
        """The given rows m, ascending, of the float64 k x k matrix of
        sum_c coeffs[c] M_c, c over the support, acting on rows
        (x -> x @ matrix): row m sums coeffs[c] at j over the x in C_c with
        x^-1 . z_m in C_j, exactly while |G| l < 2**53 (not reduced mod l)."""
        k = len(self.reps)
        out = np.zeros((len(rows), k))
        for at, products, classes in self.blocks(rows, support):
            flat = products + (np.arange(len(at)) * k)[:, None]
            weights = np.tile(coeffs[classes].astype(np.float64), len(at))
            summed = np.bincount(flat.ravel(), weights, minlength=len(at) * k).reshape(-1, k)
            out[np.searchsorted(rows, at)] += summed
        return out


def _invariant_combinations(products: _Products, power_maps: np.ndarray, ell: int, rng):
    """(orbits, support) -> a seeded combination acting on rows whose
    coefficients are constant on the orbits of classes under a subgroup T of
    the units mod e, orbits = (rep_of, step) as _orbits gives them for T, and
    0 off the support, a union of those orbits.

    Such a combination is fixed by T: its entry (m^t, j^t) is its entry
    (m, j), because class multiplication coefficients are rational and so
    fixed by the Galois action.  Only the rows of the least classes are
    summed; row r^t is read off row r, its entry j^t being that of j, a
    block of rows at a time.
    """
    k, e = power_maps.shape
    units = _units_mod(e)
    inverse = np.zeros(e, dtype=np.intp)
    inverse[units] = [pow(int(u), -1, e) for u in units]
    classes_to = power_maps.T  # row s: c -> c^s

    def draw(orbits, support: np.ndarray) -> np.ndarray:
        rep_of, step = orbits
        coeffs = _uniform(rng, ell, k)[rep_of] * support
        is_rep = rep_of == np.arange(k)
        summed = products.combination(np.flatnonzero(is_rep), coeffs, support)
        if is_rep.all():
            return summed
        out, at = np.empty((k, k)), (np.cumsum(is_rep) - 1)[rep_of] * k  # c's row in summed, flat
        for r in _row_blocks(k):  # entry (r^t, j) is entry (r, j^(1/t))
            out[r] = np.take(summed, at[r, None] + classes_to[inverse[step[r]]])
        return out

    return draw


def _eigen_checker(products: _Products, least: np.ndarray, ell: int, rng):
    """rows -> for each row x (a class function with x[0] = 1), whether it
    fails the eigen-check of step 3 of the module docstring over S = least,
    which widens in place to every class unless the rows are distinct on S.
    lambda = (x M)[0] = x . c for the coefficients c: x^-1 z_m = 1 iff x = z_m."""
    coeffs, probes = _uniform(rng, ell, (2, len(least), ceil(30 / log2(ell / 2))))

    def failing(rows: np.ndarray) -> np.ndarray:
        for _ in range(2):  # S widens to every class if two rows are equal on it
            keys = _void(np.ascontiguousarray(rows[:, least]))
            _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
            least[:] |= (counts > 1).any()
        images = np.zeros(coeffs.shape, dtype=np.int64)  # column t: M_t r_t
        for at, held, classes in products.blocks(np.arange(len(least)), least):
            for t, (probe, coeff) in enumerate(zip(probes.T, coeffs.T)):  # one probe at a time
                images[at, t] += (probe[held] * coeff[classes] % ell).sum(axis=1)  # [m, x] summed
        lam = fpmat.mul(rows, coeffs * least[:, None], ell)
        rhs = fpmat.mul(rows, probes, ell) * lam % ell
        return (counts[inverse] > 1) | (fpmat.mul(rows, images % ell, ell) != rhs).any(axis=1)

    return failing


def _units_mod(e: int) -> np.ndarray:
    """The units mod e, ascending."""
    return np.flatnonzero(np.gcd(np.arange(e), e) == 1)


def _unit_index(e: int) -> np.ndarray:
    """For each residue mod e its position among the units, -1 for others."""
    units = _units_mod(e)
    index = np.full(e, -1, dtype=np.intp)
    index[units] = np.arange(len(units))
    return index


def _orbits(power_maps: np.ndarray, units: np.ndarray):
    """(rep_of, step) for the orbits of classes under a group of units mod
    e: rep_of[c] is the least class c^s, s among the units, and step[c] is a
    unit s with rep_of[c]^s = c."""
    orbit = power_maps[:, units]  # the classes c^s
    rep_of = orbit.min(axis=1)
    step = units[(orbit[rep_of] == np.arange(len(orbit))[:, None]).argmax(axis=1)]
    return rep_of, step


def _descent_levels(power_maps: np.ndarray) -> list[tuple[tuple, int]]:
    """(orbits, index) for each level i >= 1 of the descent: orbits are the
    _orbits of classes under T_i = {s = 1 (mod e_i)} among the units mod e,
    e_i climbing to e one prime factor at a time, and index is
    |T_(i-1) : T_i|.  A level is skipped where T does not shrink, or where
    the T_i-orbits of classes are the T_(i-1)-orbits: then so are those of
    characters (there are as many of each, by Brauer's permutation lemma),
    and the level would split nothing."""
    units = _units_mod(power_maps.shape[1])
    levels, size, modulus = [], len(units), 1
    count = np.count_nonzero(np.bincount(_orbits(power_maps, units)[0]))
    for p, a in sorted(factorize(power_maps.shape[1]).items()):
        for _ in range(a):
            modulus *= p
            subgroup = units[units % modulus == 1]
            orbits = _orbits(power_maps, subgroup)
            finer = np.count_nonzero(np.bincount(orbits[0]))
            if finer > count:
                levels.append((orbits, size // len(subgroup)))
            size, count = len(subgroup), finer
    return levels


class _Descent:
    """One eigenline per Galois orbit of characters, by descent over the
    subgroups of the units mod e (step 3 of the module docstring).

    draw(orbits, support): a combination acting on rows, its coefficients
    constant on the orbits and 0 off the support; failing: the eigen-check."""

    def __init__(self, draw, power_maps: np.ndarray, ell: int, rng, size_inv, inv_class, failing):
        self.draw = draw
        self.power_maps = power_maps
        self.ell = ell
        self.rng = rng
        self.dtype = fpmat.exact_dtype(power_maps.shape[0], ell)
        self.size_inv = np.asarray(size_inv).astype(self.dtype)
        self.inv_class = np.asarray(inv_class)
        self.failing = failing
        self.level0_rounds = 0  # refining rounds at level 0
        self.redone = 0  # orbits sent down the levels again

    def run(self, least: np.ndarray):
        """(omegas, galois) as _galois_rows gives them, once the k rows pass
        the eigen-check.  Supports: the orbits meeting least, all from pass 3."""
        starts = self._starts()
        levels = _descent_levels(self.power_maps)
        lines = np.empty(starts.shape, dtype=np.int64)
        todo = np.arange(len(starts))
        for _pass in range(_DESCENT_PASSES):
            found, ok = self._descend(starts[todo], levels, least)
            ok &= found[:, 0] != 0
            inverse = np.array([pow(int(v), -1, self.ell) for v in found[ok, 0]], dtype=np.int64)
            lines[todo[ok]] = found[ok] * inverse[:, None] % self.ell
            todo = todo[~ok]
            if not len(todo):
                omegas, galois = _galois_rows(lines, self.power_maps, self.ell, self.rng)
                line_of = np.unique(galois.min(axis=0), return_inverse=True)[1]  # by orbit
                todo = np.flatnonzero(np.bincount(line_of[self.failing(omegas)]))
                if not len(todo) and len(omegas) < len(lines[0]):
                    raise TableVerificationError("the eigenline conjugates give fewer than k rows")
                if not len(todo):
                    return omegas, galois
            self.redone += len(todo)
            least = np.ones_like(least) if _pass else least
        raise TableVerificationError(
            f"{len(todo)} orbits failed {_DESCENT_PASSES} descent passes: a chain was refused"
            " or a row is not an eigenvector of a fresh combination"
        )

    def _starts(self) -> np.ndarray:
        """Level 0: one vector in the span of each Galois orbit's eigenlines,
        refined from e_0 over rounds of combinations constant on the
        power-orbits of classes (step 3 of the module docstring)."""
        k, e = self.power_maps.shape
        orbits = _orbits(self.power_maps, _units_mod(e))
        r = np.count_nonzero(np.bincount(orbits[0]))
        vectors = np.zeros((1, k), dtype=np.int64)
        vectors[0, 0] = 1
        while len(vectors) < r:
            self.level0_rounds += 1
            if self.level0_rounds > _LEVEL0_ROUNDS:
                raise TableVerificationError(
                    f"level 0 found {len(vectors)} of {r} Galois orbits in {_LEVEL0_ROUNDS} rounds"
                )
            # a vector's orbits number at most r - n + 1, the others' holding one each
            bound = min(self.ell, r - len(vectors) + 1)
            a = self._matrix(orbits, np.ones(k, dtype=bool))  # over every class
            chain, found = self._annihilators(vectors, a, bound)
            parts = []
            for j, fr in enumerate(found):
                if fr is None:  # isotropic on a part spanning several orbits: wait
                    parts.append(vectors[j : j + 1])
                else:
                    f, roots = fr
                    quotients = _synthetic_division(f, roots, self.ell)
                    parts.append(fpmat.mul(quotients, chain[: len(f) - 1, j], self.ell))
            vectors = np.concatenate(parts)
        return vectors

    def _descend(self, starts: np.ndarray, levels, least: np.ndarray):
        """Each start taken down the levels, deflated at each onto its least
        eigenvalue, and whether each chain was accepted at every level."""
        ell = self.ell
        vectors = starts.astype(np.int64)
        ok = np.ones(len(vectors), dtype=bool)
        for orbits, index in levels:
            live = np.flatnonzero(ok)
            if not len(live):
                break
            a = self._matrix(orbits, np.bincount(orbits[0][least], minlength=len(least))[orbits[0]] > 0)
            chain, found = self._annihilators(vectors[live], a, index)
            quotients = np.zeros((len(live), index), dtype=self.dtype)
            for j, fr in enumerate(found):
                if fr is None:
                    ok[live[j]] = False
                else:
                    f, roots = fr
                    quotients[j, : len(f) - 1] = _synthetic_division(f, roots[:1], ell)[0]
            vectors[live] = np.einsum("is,sik->ik", quotients, chain[:index]) % ell
        return vectors, ok

    def _annihilators(self, vectors: np.ndarray, a: np.ndarray, bound: int):
        """(chain, found): _krylov's chain, and found[i] = (f, roots) with f
        the minimal polynomial of vectors[i] under a, of degree 1 to bound,
        and its deg f distinct roots in F_l; None if f is refused, vectors[i]
        is 0 or f does not split so."""
        chain, polys, killed = _krylov(vectors, a, bound, self.ell, self._form)
        degrees = _degrees(polys)
        roots = _roots_mod(polys, self.ell)
        ok = killed & (degrees >= 1) & (roots.sum(axis=1) == degrees)
        return chain, [
            (f[: d + 1], np.flatnonzero(row)) if good else None
            for f, d, row, good in zip(polys, degrees.tolist(), roots, ok.tolist())
        ]

    def _form(self, rows: np.ndarray):
        """(rows, y) with <rows_i, z> = y_i . z for every class function z,
        under <x, z> = sum_c x[c] z[c^-1] / |C_c| mod l."""
        return rows, (rows[:, self.inv_class] * self.size_inv).astype(np.int64) % self.ell

    def _matrix(self, orbits, support: np.ndarray) -> np.ndarray:
        """The combination draw(orbits, support) in the chains' dtype,
        reduced mod l unless a chain step on it stays exact without."""
        a = self.draw(orbits, support)
        if self.dtype is np.float64 and a.max(initial=0) * (self.ell - 1) * len(a) < 2**53:
            return a
        return (a.astype(np.int64) % self.ell).astype(self.dtype)


def _galois_rows(lines: np.ndarray, power_maps: np.ndarray, ell: int, rng):
    """(omegas, galois) from one normalised eigenline per Galois orbit: the
    rows omega_chi^sigma_s(c) = omega_chi(c^s) over the units s, each
    distinct one once and each line's in turn, and galois[t, i] the row of
    chi_i^sigma_s for the t-th unit s.  Raises if that gives more than k rows.

    Conjugates are told apart by an exact integer fingerprint, their dot
    product with a random vector z: it is lines @ Z^T with
    Z[s, c^s] = z[c].  Distinct fingerprints are distinct rows, and rows
    merged by a chance collision leave fewer than k rows.
    """
    k, e = power_maps.shape
    units = _units_mod(e)
    position = _unit_index(e)
    columns = power_maps[:, units].T  # row s: c -> c^s
    z = _uniform(rng, 2**53 // (k * ell), k).astype(np.float64)
    scattered = np.empty(columns.shape)
    scattered[np.arange(len(units))[:, None], columns] = z
    prints = lines.astype(np.float64) @ scattered.T  # exact: k l z < 2**53
    rows, galois, count = np.empty((k, k), dtype=lines.dtype), np.empty((len(units), k), np.int32), 0
    for line, row_prints in zip(lines, prints):
        _, first, inverse = np.unique(row_prints, return_index=True, return_inverse=True)
        if count + len(first) > k:
            raise TableVerificationError("the eigenline conjugates give more than k rows")
        # chi^sigma_s is the row inverse[s], and its image under sigma_t is chi^sigma_(t s)
        products = position[np.outer(units, units[first]) % e]
        galois[:, count : count + len(first)] = count + inverse[products]
        rows[count : count + len(first)] = line[columns[first]]
        count += len(first)
    return rows[:count], galois[:, :count]


def _degrees_from_omegas(group, omegas: np.ndarray, ell: int, size_inv, inv_class) -> np.ndarray:
    """chi(1) from <omega, omega> = |G| / chi(1)^2 mod l, a block of rows at a time."""
    forms = np.concatenate([
        (omegas[r] * omegas[r][:, inv_class] % ell * size_inv % ell).sum(axis=1) % ell
        for r in _row_blocks(*omegas.shape)
    ])
    squares = np.array([group.order * pow(int(s), ell - 2, ell) % ell for s in forms])
    root = np.zeros(ell, dtype=np.int64)  # root[t^2 mod l] = t for 0 < t <= l/2
    small = np.arange(1, ell // 2 + 1, dtype=np.int64)
    root[small * small % ell] = small
    degrees = root[squares]
    if not degrees.all():
        raise TableVerificationError("degree is not a small square root mod l")
    return degrees


def _find_root_of_unity(ell: int, e: int) -> int:
    """An element of order e in F_l* (deterministic: smallest generator)."""
    return pow(primitive_root(ell), (ell - 1) // e, ell)


def _inverse_dft(m: int, e: int, ell: int, w_e: int):
    """The inverse DFT mod l of length m in four steps: a function of (n, m)
    rows x in [0, l), giving the int64 rows m^-1 sum_s x[:, s] w_m^-(s t),
    w_m = w_e^(e/m).  m1 is the largest divisor of m up to sqrt(m), and
    with s = s1 + m1 s2 and t = t2 + m2 t1, s t = m1 s2 t2 + s1 t2 + m2 s1 t1
    (mod m): x as [s1, s2] times f2 = w_m^-(m1 s2 t2), then the twiddle
    w_m^-(s1 t2), then over s1 times f1 = w_m^-(m2 s1 t1) / m.  A prime m
    has m1 = 1: one dense product."""
    m1 = max(d for d in range(1, isqrt(m) + 1) if m % d == 0)
    m2 = m // m1
    powers = np.array([pow(w_e, -(e // m) * t, ell) for t in range(m)])  # w_m^-t
    f2 = powers[np.outer(np.arange(m2), m1 * np.arange(m2)) % m].astype(fpmat.exact_dtype(m2, ell))
    twiddle = powers[np.outer(np.arange(m1), np.arange(m2)) % m]
    f1 = powers[np.outer(np.arange(m1), m2 * np.arange(m1)) % m] * pow(m, -1, ell) % ell

    def transform(x: np.ndarray) -> np.ndarray:
        n = len(x)
        y = x.reshape(n, m2, m1).transpose(0, 2, 1).reshape(n * m1, m2)  # [s1, s2]
        y = fpmat.mul(y, f2, ell).reshape(n, m1, m2) * twiddle % ell
        z = fpmat.mul(y.transpose(0, 2, 1).reshape(n * m2, m1), f1, ell)  # [t2, t1]
        return z.reshape(n, m2, m1).transpose(0, 2, 1).reshape(n, m)
    return transform


def _lift_values(group, table_mod: np.ndarray, ell: int, w_e: int, galois: np.ndarray):
    """(ids, by_conductor): exact values from the integer mod-l table, as a
    k x k int32 array of ids into a pool of distinct values, given the
    (phi(e), k) Galois row permutations pi of its rows (step 5 of the module
    docstring), and the pool by conductor: m -> (pool ids, their int64
    coefficient rows at m).  The ids are found at the r representatives of
    the power-orbits, into a (k, r) array, and gathered from it."""
    classes = group.conjugacy_classes()
    power_maps = group.power_maps
    k, e = power_maps.shape
    by_conductor: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def add(rows: np.ndarray, pick: np.ndarray, m: int) -> np.ndarray:
        """Pool ids of the distinct rows[pick] at conductor m, looked up in
        place: only the new ones are copied, to be kept."""
        idx, known = by_conductor.get(m, (np.empty(0, dtype=np.int32), rows[:0]))
        found = _find_rows(rows, known)[pick] if len(known) else np.full(len(pick), -1)
        new = found < 0
        added = rows[pick[new]]
        found[new] = len(known) + np.arange(len(added))
        size = _pool_size(by_conductor)
        idx = np.concatenate([idx, np.arange(size, size + len(added), dtype=np.int32)])
        by_conductor[m] = idx, np.concatenate([known, added]) if len(known) else added
        return idx[found]

    def intern(coeffs: np.ndarray, m: int) -> np.ndarray:  # C-contiguous rows at conductor m
        first, inverse = _distinct_rows(coeffs)
        irrational = coeffs[:, 1:].any(axis=1)[first]  # the others are kept at conductor 1
        out = np.empty(len(first), dtype=np.int32)
        for pick, rows, at in ((~irrational, coeffs[:, :1].copy(), 1), (irrational, coeffs, m)):
            if pick.any():
                out[pick] = add(rows, first[pick], at)
        return out[inverse]

    rep_of, step = _orbits(power_maps, _units_mod(e))  # one representative per power-orbit
    is_rep = rep_of == np.arange(k)
    rep_ids = np.empty((k, int(is_rep.sum())), dtype=np.int32)
    for q, j in enumerate(np.flatnonzero(is_rep).tolist()):
        m = classes[j].order
        # inverse DFT of the distinct rows of the columns of the classes g^s:
        # mult[t] = m^{-1} sum_s table[:, class(g^s)] w_m^{-st}, w_m = w_e^(e/m)
        cols = np.take(table_mod, power_maps[j, :m], axis=1)
        first, inverse = _distinct_rows(cols)
        dft = _inverse_dft(m, e, ell, w_e)
        mults = np.empty((len(first), m), dtype=np.int32)  # entries below l < 2^31
        for r in _row_blocks(len(first), m):
            mults[r] = dft(cols[first[r]])
        # chi(g) is a sum of chi(1) = table_mod[:, 0] roots of unity (Isaacs, Lemma 2.15)
        if not np.array_equal(mults.sum(axis=1)[inverse], table_mod[:, 0]):
            raise TableVerificationError("root-of-unity multiplicities do not sum to chi(1)")
        del cols, dft  # before the coefficient rows are made
        rep_ids[:, q] = intern(_galois_image(mults, _monomial_table(m), 1), m)[inverse]
    # chi_i(rep^s) = chi_pi_s(i)(rep): every column is a gather of its
    # representative's, made a block of columns at a time
    ids, at, col = np.empty((k, k), np.int32), _unit_index(e)[step], (np.cumsum(is_rep) - 1)[rep_of]
    for c in _row_blocks(k):
        ids[:, c] = rep_ids[galois[at[c]].T, col[c]]
    return ids, by_conductor


def _pool_size(by_conductor) -> int:
    """The number of pool values, over every conductor."""
    return sum(len(idx) for idx, _ in by_conductor.values())


def _read_pool(by_conductor, read=lambda value: value) -> list:
    """read(v) for each pool value v by id, v a Cyclotomic made from its
    coefficient row at its conductor, one row at a time."""
    out = [None] * _pool_size(by_conductor)
    for m, (idx, coeffs) in by_conductor.items():
        for i, row in zip(idx.tolist(), coeffs):
            out[i] = read(Cyclotomic(m, tuple(row.tolist()), _raw=True))
    return out


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) for integer rows: the index of one row per distinct
    row, in byte order, and for each row the position of its own among them.
    Neighbours in that order are compared a block of rows at a time."""
    keys = _void(rows)
    order = np.argsort(keys)
    new = np.ones(len(keys), dtype=bool)
    for r in _row_blocks(len(keys) - 1, rows.shape[1]):
        new[r.start + 1 : r.stop + 1] = keys[order[r.start + 1 : r.stop + 1]] != keys[order[r]]
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _galois_image(weights: np.ndarray, monomials: np.ndarray, kk: int) -> np.ndarray:
    """Rows sum_t weights[r, t] z_m^(t kk) in the power basis; monomials[t] is
    z_m^t.  Each nonzero weight gives one term, a monomial row, and the
    terms are summed a block of rows at a time, about _BLOCK_CELLS cells of
    terms (or one row) each."""
    out = np.zeros((len(weights), monomials.shape[1]), dtype=np.int64)
    cells = np.cumsum(np.count_nonzero(weights, axis=1)) * monomials.shape[1]
    total = cells[-1] if len(cells) else 0
    ends = np.searchsorted(cells, np.arange(_BLOCK_CELLS, total, _BLOCK_CELLS))
    for lo, hi in zip([0, *ends.tolist()], [*ends.tolist(), len(weights)]):
        rows, ts = np.nonzero(weights[lo:hi])  # row-major: each row's entries adjacent
        present, starts = np.unique(rows, return_index=True)
        terms = weights[lo + rows, ts][:, None] * monomials[ts * kk % len(monomials)]
        out[lo + present] = np.add.reduceat(terms, starts, axis=0)
    return out


def character_table(group: PermGroup, seed: int = 0) -> CharacterTable:
    """Exact irreducible character table of a permutation group."""
    table = _build_table(group, seed)
    _verify(table)  # once the working arrays of the build are freed
    return table


def _build_table(group: PermGroup, seed: int) -> CharacterTable:
    """The unverified table."""
    classes = group.conjugacy_classes()
    k = len(classes)
    _check_cells(k * k, "the k x k table")
    # the lift builds values at class orders, and classes are sorted by order
    _check_conductor(classes[-1].order)
    e = group.exponent
    ell = find_dixon_prime(e, group.order)
    if ell >= 2**31:
        raise ValueError("the Dixon prime does not fit the int32 mod-l table")

    sizes = np.array([c.size for c in classes], dtype=np.int64)
    size_inv = np.array([pow(int(s), ell - 2, ell) for s in sizes], dtype=np.int64)
    inv_class = group.power_maps[:, -1]
    omegas, galois, split = _split(group, ell, seed, size_inv, inv_class)
    # a degree is constant on its Galois orbit: one per orbit's least row
    reps, orbit_of = np.unique(galois.min(axis=0), return_inverse=True)
    degrees = _degrees_from_omegas(group, omegas[reps], ell, size_inv, inv_class)[orbit_of]
    omegas *= degrees[:, None]  # omega chi(1) / |C_c| mod l, in place
    omegas %= ell
    omegas *= size_inv
    omegas %= ell
    table_mod = omegas.astype(np.int32)  # held once, for the lift and its check
    del omegas

    w_e = _find_root_of_unity(ell, e)
    ids, by_conductor = _lift_values(group, table_mod, ell, w_e, galois)
    # lifted values must reduce back to the mod-l table, which is then dropped
    _check_lift(ids, by_conductor, table_mod, e, ell)
    del table_mod

    # deterministic row order: by degree, then the rendered values; equal ids
    # are equal values, so each pool value is rendered once and ranked.  Rows
    # of big-endian nonnegative int32 keys compare as bytes as they do as
    # numbers, so a stable sort of the k x k rank rows as bytes, then one by
    # degree, is np.lexsort's order; the rows fit where the mod-l table was
    labels = _read_pool(by_conductor, str)
    rank = {label: r for r, label in enumerate(sorted(set(labels)))}
    ranks = np.array([rank[label] for label in labels], dtype=">i4")
    keys = np.empty((k, k), dtype=">i4")
    for r in _row_blocks(k):
        keys[r] = ranks[ids[r]]
    order = np.argsort(_void(keys), kind="stable")
    order = order[np.argsort(degrees[order], kind="stable")]
    del keys  # before the reordered copy of ids
    where = np.empty(k, dtype=np.int32)
    where[order] = np.arange(k)
    table = CharacterTable(
        group, classes, ids[order], by_conductor, where[galois[:, order]],
        degrees[order].tolist(), e, ell, seed,
    )
    table.split = split
    return table


def _uniform(rng, high: int, shape) -> np.ndarray:
    """Draws uniform on [0, high) from rng, a random.Random: little-endian 64-bit
    words of rng.randbytes below the largest multiple of high up to 2**64, mod
    high, the others drawn again.  int64 (uint64 for high above 2**63)."""
    out = np.empty(shape, dtype=np.uint64)
    flat, todo, last = out.reshape(-1), np.arange(out.size), np.uint64(2**64 - 1 - 2**64 % high)
    while len(todo):
        words = np.frombuffer(rng.randbytes(8 * len(todo)), dtype="<u8")
        kept = words <= last
        flat[todo[kept]] = words[kept] % np.uint64(high)
        todo = todo[~kept]
    return out.astype(np.int64 if high <= 2**63 else np.uint64)


def _split(group: PermGroup, ell: int, seed: int, size_inv, inv_class):
    """(omegas, galois, split): the eigenlines (step 3 of the module
    docstring) as class functions with value 1 at the identity class, their
    Galois row permutations, and how they were found.  S (least) is the least
    class of each power-orbit of classes."""
    from random import Random  # already loaded by classify
    # the descent and the eigen-check draw from streams of their own, by _uniform
    descent_rng, check_rng = Random(f"descent:{seed}"), Random(f"check:{seed}")
    products, power_maps = _Products(group), group.power_maps
    least = _orbits(power_maps, _units_mod(group.exponent))[0] == np.arange(len(power_maps))
    failing = _eigen_checker(products, least, ell, check_rng)  # widens least in place
    draw = _invariant_combinations(products, power_maps, ell, descent_rng)
    descent = _Descent(draw, power_maps, ell, descent_rng, size_inv, inv_class, failing)
    r = int(least.sum())
    omegas, galois = descent.run(least)
    return omegas, galois, {"level0_rounds": descent.level0_rounds, "redone": descent.redone,
                            "widened": int(least.sum()) - r, "products": products.count}


def _check_lift(ids, by_conductor, table_mod, e: int, ell: int) -> None:
    """The id array's values, the pool reduced mod l, must be the mod-l
    table, a block of rows at a time."""
    reduced = _pool_mod(by_conductor, e, ell).astype(np.int64)
    for r in _row_blocks(len(ids)):
        if not np.array_equal(reduced[ids[r]], table_mod[r]):
            raise TableVerificationError("lift is inconsistent with the mod-l table")


def _verify(table: CharacterTable) -> None:
    group, k, e = table.group, table.n_classes, table.exponent
    if sum(d * d for d in table.degrees) != group.order:
        raise TableVerificationError("degree squares do not sum to |G|")
    # each id's rational value, 0 at the others: column 0 must be the degrees >= 1
    ids, (idx, coeffs) = table.value_ids, table.by_conductor[1]
    value = np.zeros(_pool_size(table.by_conductor), dtype=np.int64)
    value[idx] = coeffs[:, 0]
    if not np.array_equal(value[ids[:, 0]], table.degrees):
        raise TableVerificationError("first column does not equal the degree")
    # rational rows match rational classes
    powers = group.power_maps
    units = _units_mod(e)
    rational_classes = int((powers[:, units] == np.arange(k)[:, None]).all(axis=1).sum())
    rational = np.bincount(idx, minlength=len(value)).astype(bool)
    if rational_classes != int(rational[ids].all(axis=1).sum()):
        raise TableVerificationError("rational row/class counts differ")
    verify_orthogonality_exact(table)


def verify_orthogonality_exact(table: CharacterTable) -> None:
    """Exact orthogonality at Galois-orbit cost: the Galois action on the
    value pool and the row permutations pi, an integer bound on the Gram
    entries, and per prime one product of the rows of one character per
    Galois orbit against all rows, modulo enough primes to exceed the bound
    (see the module docstring).  Besides the id array and the pool mod p,
    the products are made a block of rows and of columns at a time."""
    by_conductor = table.by_conductor
    ids, e, k, size = table.value_ids, table.exponent, table.n_classes, _pool_size(by_conductor)
    powers = table.group.power_maps
    _check_galois_action(table, by_conductor, powers)
    reps = np.flatnonzero(np.bincount(table.galois.min(axis=0)))  # the least row of each orbit
    order = table.group.order
    sizes = np.array([c.size for c in table.classes], dtype=np.int64)
    inv, square = powers[:, -1], powers[:, 2 % e]
    # each Gram entry is dominated by a positive semidefinite form in the L1
    # norms of the values, whose largest entry is on its diagonal; rows of
    # one orbit hold the same ids on permuted classes, so reps attain it
    l1 = np.empty(size)
    for idx, coeffs in by_conductor.values():
        l1[idx] = np.abs(coeffs).sum(axis=1)
    rep_ids = ids[reps]
    cap = max((l1[rep_ids] ** 2 @ sizes).max(), (l1[rep_ids[:, square]] @ sizes).max())
    # float64 sums of k nonnegative terms: relative error below k 2^-53
    bound = 2 * (int(cap * (1 + 2**-20)) + 1 + order)
    width = max(k, max(coeffs.shape[1] for _, coeffs in by_conductor.values()))
    real = (rep_ids[:, inv] == rep_ids).all(axis=1)
    indicators = None
    for p in _gram_primes(e, width, bound):
        x = _pool_mod(by_conductor, e, p)
        for r in _row_blocks(len(reps), k):
            # float64 x |C_c| < p |G| < 2^53
            left = x[rep_ids[r][:, inv]] * sizes % p
            # sum_c |C_c| chi(c^-1) psi(c) = sum_c |C_c| chi(c) conj psi(c)
            gram = np.hstack([fpmat.mul(left, x[ids[cols]].T, p) for cols in _row_blocks(k)])
            gram[np.arange(len(gram)), reps[r]] -= order % p
            if gram.any():
                raise TableVerificationError(f"row orthogonality fails mod {p}")
        twisted = fpmat.mul(x[rep_ids[:, square]], sizes[:, None] % p, p)[:, 0]  # sum_c |C_c| chi(c^2)
        nu = np.select([twisted == 0, twisted == order % p, twisted == -order % p], [0, 1, -1], 2)
        if indicators is None:
            indicators = nu
        if (nu == 2).any() or (nu != indicators).any():
            raise TableVerificationError(f"Frobenius-Schur indicator is not -1, 0 or 1 mod {p}")
        if ((nu != 0) != real).any():
            raise TableVerificationError("Frobenius-Schur indicator is 0 on a real row or nonzero on another")


def _check_galois_action(table: CharacterTable, by_conductor, powers: np.ndarray) -> None:
    """pi_1 must be the identity and, for each generator u of the units mod
    e, the pool mapped through z -> z^u must move the id array as the power
    map c -> c^u moves its columns, row i moving to row pi_u(i), and
    pi_(u s) must be pi_u after pi_s for every unit s."""
    ids, galois, at = table.value_ids, table.galois, table.unit_index
    k, e = table.n_classes, table.exponent
    units = _units_mod(e)
    if not np.array_equal(galois[at[1 % e]], np.arange(k)):
        raise TableVerificationError("the Galois row permutation of the unit 1 is not the identity")
    for u in unit_generators(e):
        lut = np.arange(_pool_size(by_conductor), dtype=ids.dtype)  # rationals are fixed
        for m, (idx, coeffs) in by_conductor.items():
            if m > 1:
                found = _find_rows(_galois_image(coeffs, _monomial_table(m), u % m), coeffs)
                lut[idx] = np.where(found >= 0, idx[found], -1)
        pi_u = galois[at[u]]
        for r in _row_blocks(k):
            moved = lut[ids[r]]
            if not np.array_equal(moved, ids[r][:, powers[:, u]]):
                raise TableVerificationError("entrywise Galois action disagrees with the power maps")
            if not np.array_equal(moved, ids[pi_u[r]]):
                raise TableVerificationError("Galois images of the rows are not the rows pi names")
        for r in _row_blocks(len(units), k):
            if not np.array_equal(galois[at[u * units[r] % e]], pi_u[galois[r]]):
                raise TableVerificationError("the Galois row permutations do not compose")


def _find_rows(rows: np.ndarray, among: np.ndarray) -> np.ndarray:
    """For each of the rows, the index of the last equal row of among, or -1."""
    keys, wanted = _void(among), _void(rows)
    order = np.argsort(keys, kind="stable")
    at = np.searchsorted(keys, wanted, side="right", sorter=order) - 1
    found = order[at.clip(0)]
    return np.where((at >= 0) & (keys[found] == wanted), found, -1)


def _row_blocks(n: int, width: int | None = None) -> list[slice]:
    """Slices of consecutive rows of an n x width array (width n by
    default), _BLOCK_CELLS cells (or one row) each: the one block size."""
    step = max(1, _BLOCK_CELLS // (n if width is None else width))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _gram_primes(e: int, width: int, bound: int) -> list[int]:
    """Primes p = 1 (mod e), largest first, with width * (p - 1)**2 below
    EXACT_BUDGET, until their product exceeds bound."""
    primes, product = [], 1
    t = isqrt((EXACT_BUDGET - 1) // width) // e  # p - 1 = t e
    while product <= bound:
        if t < 1:
            raise TableVerificationError(
                f"primes = 1 (mod {e}) below the exactness budget cannot exceed {bound}"
            )
        if is_prime(1 + t * e):
            primes.append(1 + t * e)
            product *= primes[-1]
        t -= 1
    return primes


def _pool_mod(by_conductor, e: int, p: int) -> np.ndarray:
    """Each pool value mod p under zeta_e -> an element of order e in F_p."""
    w_e = _find_root_of_unity(p, e)
    out = np.empty(_pool_size(by_conductor))
    for m, (idx, coeffs) in by_conductor.items():
        if e % m:
            raise ValueError("conductor does not divide the exponent")
        w = pow(w_e, e // m, p)
        powers = np.array([pow(w, t, p) for t in range(coeffs.shape[1])], dtype=np.int64)
        out[idx] = fpmat.mul(coeffs % p, powers[:, None], p)[:, 0]
    return out


