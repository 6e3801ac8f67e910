"""Exact irreducible character tables by the class-matrix eigenvector method.

The table of a group G is computed in five steps:

1. conjugacy classes, class sizes and exponent e, and the group's (k, e)
   power-map array, composed from a few prime and unit power maps (see
   perm).  Every step below reads columns of that array; a table keeps its
   own int64 copy;
2. a prime l = 1 (mod e) with l^2 > 4|G| (so degrees and root-of-unity
   multiplicities lift uniquely from arithmetic mod l);
3. simultaneous eigenvectors of the class matrices over F_l.  The |G| x k
   array of the classes of x^-1 z_m (z_m the class representatives) is
   built once per table; each seeded random combination M of the class
   matrices is then k weighted bincounts over it.  The minimal polynomial
   of a probe vector is found on its Krylov vectors, reduced a block at a
   time against an RREF basis, and eigenspaces are read off by polynomial
   deflation; a block's last annihilator is reused for later probes once
   it is checked to kill them.  Subspaces that stay entangled are split
   recursively with fresh combinations.  Everything is deterministic given
   the seed;
4. degrees from the eigenvector normalisation and character values mod l;
5. exact values, as a k x k int32 array of ids into a pool of the table's
   few distinct Cyclotomics, keyed by (conductor, coefficients).  Per
   power-orbit of classes an inverse DFT mod l of the distinct rows of the
   columns of the powers g^s gives the multiplicities of the roots of
   unity, and so each value at g.  Each other class of the orbit is reached
   from a filled one by a generator u of the units mod m; its column is the
   image of that one under z -> z^u, found once per distinct value and u.

The finished table is verified before it is returned: degree sum, first
column, orthogonality modulo l, the rational-row = rational-class count,
and consistency of the lifted values with the mod-l table.  Each distinct
multiplicity row must sum to chi(1) (chi(g) is a sum of chi(1) roots of
unity).  The lift check reduces the pool mod l with one product per
conductor, and the same way, apart, the entries whose objects are not
their pool values, so a value replaced in one row is still checked.

Orthogonality is then checked exactly, at every table size, on the id array
and the pool (Cohen, A Course in Computational Algebraic Number Theory,
1993, 1.3.3):

- Galois equivariance.  For each generator u of the units mod e, every pool
  value is mapped through z -> z^u at its own conductor (classes c and c^u
  have the same order), and the image of the id array must equal its
  columns permuted by the power map c -> c^u, with its rows a permutation
  of the table's rows.  This composes to every unit, u = -1 included, so
  conj chi(c) = chi(c^-1), and each entry of the Gram matrices
  X D X[:, inv]^T and X^T X[:, inv] is fixed by Gal(Q(zeta_e)/Q): being a
  cyclotomic integer, it is a rational integer.
- The bound.  With L1 the sum of the absolute coefficients of a value,
  |chi(c)| <= L1(chi(c)), so the (i, j) row Gram entry is at most
  sum_c |C_c| L1(chi_i(c)) L1(chi_j(c)) in absolute value, and by
  Cauchy-Schwarz at most the largest i = j sum; likewise for columns.  B
  is the larger of the two, and each entry differs from its target
  |G| delta_ij or delta |G|/|C_c| by at most B + |G|.
- Primes.  Primes p = 1 (mod e) with n (p - 1)^2 < 2^53, n the larger of
  k and the longest coefficient vector, so that every float64 product is
  exact, are taken largest first until their product exceeds
  2 (B + |G|); usually one suffices.  For each, the pool is reduced
  under zeta_e -> an element of order e in F_p and both Gram matrices are
  checked with one product each; agreement mod every p is exact equality.
  If the primes run out first, verification fails.

galois_orbits then reads orbits off the power maps alone.  The F_l linear
algebra (row reduction, null spaces, products) comes from fpmat.

Kernels are read off the table as sets of class indices, the classes where
chi(c) = chi(1); |G : ker chi| is |G| over the sum of their sizes, and two
kernels are equal iff their class sets are.  Each class set is checked to
contain the identity class and to have a size dividing |G|.  Only
Character.kernel() builds the kernel as a Subgroup of elements, and it
checks that the closure of its generators is the set itself.
"""
from __future__ import annotations

import weakref
from itertools import chain
from math import gcd, isqrt

import numpy as np

from . import fpmat
from .cyclotomic import Cyclotomic, _monomial_table, cyc
from .numth import find_dixon_prime, is_prime, primitive_root, unit_generators
from .perm import ConjugacyClass, PermGroup, Subgroup, _void

EXACT_BUDGET = 2**53  # n (p - 1)^2 below it keeps the exact check's products exact
_SPLIT_ROUND_CAP = 200
_KRYLOV_BLOCK = 32  # Krylov rows reduced per product with the RREF basis


class TableVerificationError(AssertionError):
    """The computed table failed an exactness check (an implementation bug)."""


class Character:
    """One row of a character table.  The table holds its characters and each
    refers to the table weakly: a cycle would keep the table and its group
    alive until the cyclic garbage collector runs."""

    __slots__ = ("_table", "index", "degree", "values", "_kernel_classes", "_kernel", "_stab")

    def __init__(self, table: "CharacterTable", index: int, degree: int, values):
        self._table = weakref.ref(table)
        self.index = index
        self.degree = degree
        self.values: tuple[Cyclotomic, ...] = tuple(values)
        self._kernel_classes: frozenset[int] | None = None
        self._kernel: Subgroup | None = None
        self._stab: frozenset | None = None

    @property
    def table(self) -> "CharacterTable":
        return self._table()

    def __call__(self, class_index: int) -> Cyclotomic:
        return self.values[class_index]

    def kernel_classes(self) -> frozenset[int]:
        """Indices of the classes where the value equals the degree.

        A kernel is a normal subgroup, so the identity class (index 0) must
        be in the set and the class sizes must sum to a divisor of |G|;
        a row failing either is not a character of G.
        """
        if self._kernel_classes is None:
            members = frozenset(j for j, v in enumerate(self.values) if v == self.degree)
            size = sum(self.table.classes[j].size for j in members)
            if 0 not in members or self.table.group.order % size:
                raise TableVerificationError("character kernel is not a subgroup")
            self._kernel_classes = members
        return self._kernel_classes

    def kernel_index(self) -> int:
        """|G : ker chi|, from the class sizes alone."""
        size = sum(self.table.classes[j].size for j in self.kernel_classes())
        return self.table.group.order // size

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

    def is_rational(self) -> bool:
        return all(v.is_rational for v in self.values)

    def galois_stabilizer(self) -> frozenset[int]:
        """Residues k mod e (units) with chi^sigma_k = chi."""
        if self._stab is None:
            self._stab = frozenset(
                k for k in self.table.units() if self.table._permuted_row(self.index, k) == self.index
            )
        return self._stab

    def __repr__(self) -> str:
        return f"<Character #{self.index} degree {self.degree}>"


class CharacterTable:
    def __init__(self, group, classes, ids, pool, degrees, exponent, dixon_prime, mod_table, seed):
        self.group: PermGroup = group
        self.classes: list[ConjugacyClass] = classes
        self.degrees: list[int] = degrees
        self.exponent = exponent
        self.dixon_prime = dixon_prime
        self.mod_table: np.ndarray = mod_table  # k x k, values mod l
        self.seed = seed
        self.value_ids: np.ndarray = ids  # k x k int32, ids into value_pool
        self.value_pool: list[Cyclotomic] = pool  # the distinct values
        self.chars: list[Character] = [  # one per row, built once
            Character(self, i, d, map(pool.__getitem__, row))
            for i, (d, row) in enumerate(zip(degrees, ids.tolist()))
        ]
        self._units: tuple[int, ...] | None = None
        self._row_lookup: dict[bytes, int] | None = None
        self._power_matrix: np.ndarray | None = None

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def units(self) -> tuple[int, ...]:
        if self._units is None:
            self._units = tuple(
                k for k in range(1, self.exponent + 1) if gcd(k, self.exponent) == 1
            )
        return self._units

    def _powers(self) -> np.ndarray:
        """This table's int64 copy of the group's (k, e) power-map array."""
        if self._power_matrix is None:
            self._power_matrix = self.group.power_maps.astype(np.int64)
        return self._power_matrix

    def _lookup(self) -> dict[bytes, int]:
        if self._row_lookup is None:
            self._row_lookup = {
                self.mod_table[i].tobytes(): i for i in range(self.n_classes)
            }
            if len(self._row_lookup) != self.n_classes:
                raise TableVerificationError("mod-l rows are not distinct")
        return self._row_lookup

    def _permuted_row(self, i: int, k: int) -> int:
        """Index of the row obtained from row i by g -> g**k, via power maps."""
        perm = self._powers()[:, k % self.exponent]
        permuted = self.mod_table[i][perm]
        j = self._lookup().get(permuted.tobytes())
        if j is None:
            raise TableVerificationError("Galois image is not a table row")
        return j

    # -- Galois action -------------------------------------------------------

    def galois_conjugate(self, chi: Character, k: int) -> Character:
        """The row g -> chi(g**k); asserts it matches entrywise galois_apply."""
        if gcd(k, self.exponent) != 1:
            raise ValueError(f"{k} is not coprime to the exponent {self.exponent}")
        target = self.chars[self._permuted_row(chi.index, k)]
        powers = self._powers()
        (images,) = _map_once(lambda v: v.galois_apply(k), [chi.values])
        for c, image in enumerate(images):
            lhs = chi.values[powers[c, k % self.exponent]]
            if lhs != image or lhs != target.values[c]:
                raise TableVerificationError("power-map and entrywise Galois actions disagree")
        return target

    def galois_orbits(self) -> list[tuple[int, ...]]:
        """Orbits of row indices under the full unit group mod e."""
        seen = set()
        orbits = []
        for i in range(self.n_classes):
            if i in seen:
                continue
            orbit = {self._permuted_row(i, k) for k in self.units()}
            seen |= orbit
            orbits.append(tuple(sorted(orbit)))
        return orbits

    def field_in_pth_cyclotomic(self, chi: Character, p: int) -> bool:
        """True iff the field of values of chi lies in Q(zeta_p)."""
        if self.exponent % p != 0:
            return chi.is_rational()
        return all(
            self._permuted_row(chi.index, k) == chi.index
            for k in self.units()
            if k % p == 1
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "order": self.group.order,
            "exponent": self.exponent,
            "classes": [{"size": c.size, "elt_order": c.order} for c in self.classes],
            "degrees": list(self.degrees),
            "values": _map_once(str, [chi.values for chi in self.chars]),
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
        for chi, row in zip(self.chars, _map_once(str, [c.values for c in self.chars])):
            lines.append(f"X{chi.index}[{chi.degree}]: " + " | ".join(row))
        return lines

    def __repr__(self) -> str:
        return f"<CharacterTable of {self.group!r}: {self.n_classes} classes>"


# -- mod-l linear algebra helpers -------------------------------------------------


def _poly_roots_mod(coeffs: np.ndarray, ell: int) -> list[int]:
    """Roots in F_l of the polynomial with ascending coeffs (vectorized)."""
    xs = np.arange(ell, dtype=np.int64)
    vals = np.zeros(ell, dtype=np.int64)
    for c in reversed(coeffs):
        vals = (vals * xs + int(c)) % ell
    return [int(x) for x in np.nonzero(vals == 0)[0]]


def _krylov(v: np.ndarray, a: np.ndarray, count: int, ell: int) -> np.ndarray:
    """Rows v, v a, ..., v a^(count-1) mod l."""
    a = a.astype(fpmat.exact_dtype(len(a), ell))
    out = np.empty((count, len(v)), dtype=np.int64)
    out[0] = v
    for s in range(1, count):
        out[s] = fpmat.mul(out[s - 1], a, ell)
    return out


def _annihilator_of(v: np.ndarray, a: np.ndarray, ell: int):
    """Least monic poly f (ascending coeffs) with v . f(a) = 0 mod l, and
    the Krylov rows v a^s for s <= deg f.

    The Krylov rows are reduced a block at a time.  The reduced rows are
    kept in RREF together with their coordinates over the Krylov rows, so
    reducing a block against them is one product; within the block the rows
    are reduced one by one, and the first that reduces to zero gives the
    coefficients of f.
    """
    m = len(a)
    a = a.astype(fpmat.exact_dtype(m, ell))
    kry = np.empty((m + 1, m), dtype=np.int64)
    rows = np.zeros((m, m), dtype=np.int64)  # RREF; row s has pivot pivots[s]
    coords = np.zeros((m, m + 1), dtype=np.int64)  # rows = coords @ kry
    pivots = np.empty(m, dtype=np.int64)
    kry[0] = v % ell
    s = 0
    while s <= m:
        t = min(s + _KRYLOV_BLOCK, m + 1)
        for i in range(s + 1, t):
            kry[i] = fpmat.mul(kry[i - 1], a, ell)
        c = kry[s:t, pivots[:s]]
        new = (kry[s:t] - fpmat.mul(c, rows[:s], ell)) % ell
        crd = -fpmat.mul(c, coords[:s, :t], ell) % ell
        crd[np.arange(t - s), np.arange(s, t)] = 1
        for i in range(t - s):
            fac = new[i, pivots[s : s + i]]
            new[i] = (new[i] - fac @ new[:i]) % ell
            crd[i] = (crd[i] - fac @ crd[:i]) % ell
            nz = np.flatnonzero(new[i])
            if not len(nz):  # f is monic by construction
                return crd[i, : s + i + 1], kry[: s + i + 1]
            pv = nz[0]
            inv = pow(int(new[i, pv]), ell - 2, ell)
            new[i] = new[i] * inv % ell
            crd[i] = crd[i] * inv % ell
            fac = new[:i, pv].copy()
            new[:i] = (new[:i] - np.outer(fac, new[i])) % ell
            crd[:i] = (crd[:i] - np.outer(fac, crd[i])) % ell
            pivots[s + i] = pv
        # clear the block's pivot columns from the earlier rows, then append
        fac = rows[:s][:, pivots[s:t]]
        rows[:s] = (rows[:s] - fpmat.mul(fac, new, ell)) % ell
        coords[:s, :t] = (coords[:s, :t] - fpmat.mul(fac, crd, ell)) % ell
        rows[s:t] = new
        coords[s:t, :t] = crd
        if t <= m:
            kry[t] = fpmat.mul(kry[t - 1], a, ell)
        s = t
    raise TableVerificationError("Krylov sequence failed to close")


class _Splitter:
    """Splits F_l^k into the common eigenlines of the class-matrix algebra."""

    def __init__(self, combo_source, k: int, ell: int, rng):
        self.combo_source = combo_source
        self.k = k
        self.ell = ell
        self.rng = rng

    def run(self) -> list[np.ndarray]:
        ident = np.eye(self.k, dtype=np.int64)
        pending = [ident]  # row bases of unsplit invariant subspaces
        lines: list[np.ndarray] = []
        rounds = 0
        while pending:
            rounds += 1
            if rounds > _SPLIT_ROUND_CAP:
                raise TableVerificationError("eigenvector splitting did not converge")
            mt = next(self.combo_source).T % self.ell  # act on row vectors
            still = []
            for basis in pending:
                for sub in self._split_once(basis, mt):
                    if len(sub) == 1:
                        lines.append(sub[0] % self.ell)
                    else:
                        still.append(sub)
            pending = still
        if len(lines) != self.k:
            raise TableVerificationError("wrong number of eigenlines")
        return lines

    def _restrict(self, basis: np.ndarray, mt: np.ndarray) -> np.ndarray:
        """Matrix A with basis @ mt = A @ basis (basis rows in RREF)."""
        red = fpmat.row_reduce(basis, self.ell)
        pivots = []
        for r in range(len(red)):
            nz = np.nonzero(red[r])[0]
            pivots.append(int(nz[0]))
        image = fpmat.mul(red, mt, self.ell)
        return image[:, pivots], red

    def _split_once(self, basis: np.ndarray, mt: np.ndarray):
        """Decompose the row space of basis into eigenspaces of the combo.

        For each seeded probe vector v the monic annihilator f of v is
        found on its Krylov sequence; for every root lam of f the deflation
        v . (f/(x-lam))(a) lands in the lam-eigenspace.  Probes are
        accumulated until the eigenspace dimensions sum to the block size,
        which avoids any full-size nullspace eliminations.

        The last annihilator f is reused for a later probe once v . f(a) = 0
        is checked.  f has distinct roots, so if the probe's own annihilator
        g is a proper divisor, the deflation by f is (f/g)(lam) times the one
        by g for the roots of g, and zero for the others: the eigenspaces
        come out the same as with g.
        """
        ell = self.ell
        m = len(basis)
        if m == 1:
            return [basis]
        a, red = self._restrict(basis, mt)
        spans: dict[int, tuple[list, list]] = {}
        seen_roots: set[int] = set()
        total = 0
        ann = None
        for _probe in range(16):
            v = self.rng.integers(0, ell, size=m, dtype=np.int64)
            if not v.any():
                continue
            if ann is not None:
                kry = _krylov(v, a, len(ann), ell)
                if fpmat.mul(ann, kry, ell).any():
                    ann = None
            if ann is None:
                ann, kry = _annihilator_of(v, a, ell)
                roots = _poly_roots_mod(ann, ell)
                if len(roots) < len(ann) - 1:
                    raise TableVerificationError("annihilator fails to split over F_l")
                seen_roots |= set(roots)
                deflate = _synthetic_division(ann, np.array(roots), ell)
            cands = fpmat.mul(deflate, kry[:-1], ell)
            for lam, u in zip(roots, cands):
                total += _insert_reduced(spans.setdefault(lam, ([], [])), u, ell)
            if total == m:
                break
        if total < m:
            # safety net: direct eigenspaces for the roots seen so far, plus
            # the image of the product of the shifts (eigenvalues missed by
            # every probe)
            spans = {}
            ident = np.eye(m, dtype=np.int64)
            residual = ident.copy()
            total = 0
            for lam in sorted(seen_roots):
                shifted = (a - lam * ident) % ell
                rows = fpmat.null_space(shifted.T.copy(), ell)
                spans[lam] = (list(rows), [int(np.nonzero(r0)[0][0]) for r0 in rows])
                total += len(rows)
                residual = residual @ shifted % ell
            if total < m:
                rest = fpmat.row_reduce(residual, ell)
                rest = rest[rest.any(axis=1)]
                if len(rest):
                    spans[ell] = (list(rest), [])
        if len(spans) <= 1:
            # the combination looks scalar on this block; try the next one
            return [basis]
        pieces = [rows for _, (rows, _) in sorted(spans.items())]
        images = fpmat.mul(np.array([r for rows in pieces for r in rows]), red, ell)
        return np.split(images, np.cumsum([len(rows) for rows in pieces])[:-1])


def _insert_reduced(span: tuple[list, list], vec: np.ndarray, ell: int) -> int:
    """Insert vec into an independent row collection; 1 if the rank grew."""
    rows, pivots = span
    red = vec % ell
    for row, pv in zip(rows, pivots):
        c = int(red[pv])
        if c:
            red = (red - c * row) % ell
    nz = np.nonzero(red)[0]
    if len(nz) == 0:
        return 0
    pv = int(nz[0])
    rows.append(red * pow(int(red[pv]), ell - 2, ell) % ell)
    pivots.append(pv)
    return 1


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


def _class_of_products(group: PermGroup) -> np.ndarray:
    """|G| x k int32 array whose [x, m] entry is the class of x^-1 . z_m,
    z_m the representative of class m."""
    reps = [c.element_ids[0] for c in group.conjugacy_classes()]
    right = group.right_multiplication(reps)  # [m, y] = id of y . z_m
    return group.class_index_array()[right[:, group.inverse]].astype(np.int32).T


def _combo_source(product_classes: np.ndarray, class_of: np.ndarray, ell: int, rng):
    """Seeded combinations sum_i c_i M_i of the class matrices, where
    (M_i)[j, m] counts the x in C_i with x^-1 . z_m in C_j."""
    k = product_classes.shape[1]
    while True:
        coeffs = rng.integers(0, ell, size=k, dtype=np.int64)
        # float64 sums of |G| weights below l stay exact while |G| * l < 2**53
        weights = (coeffs[class_of] % ell).astype(np.float64)
        combo = np.empty((k, k), dtype=np.int64)
        for m in range(k):
            combo[:, m] = np.bincount(product_classes[:, m], weights, minlength=k)
        yield combo % ell


def _degrees_from_omegas(group, omegas: np.ndarray, ell: int) -> list[int]:
    sizes = np.array([c.size for c in group.conjugacy_classes()], dtype=np.int64)
    inv_class = group.power_maps[:, -1]
    size_inv = np.array([pow(int(s), ell - 2, ell) for s in sizes], dtype=np.int64)
    n = group.order
    sqrt_small = {}
    half = ell // 2
    for t in range(1, half + 1):
        sqrt_small[t * t % ell] = t
    degrees = []
    for v in omegas:
        s = int(np.sum(v * v[inv_class] % ell * size_inv % ell) % ell)
        d2 = n * pow(s, ell - 2, ell) % ell
        d = sqrt_small.get(d2)
        if d is None:
            raise TableVerificationError("degree is not a small square root mod l")
        degrees.append(d)
    return degrees


def _find_root_of_unity(ell: int, e: int) -> int:
    """An element of order e in F_l* (deterministic: smallest generator)."""
    return pow(primitive_root(ell), (ell - 1) // e, ell)


def _lift_values(group, table_mod: np.ndarray, ell: int, w_e: int):
    """Exact values from the mod-l table, as a k x k int32 array of ids into
    a pool of distinct Cyclotomics (step 5 of the module docstring)."""
    classes = group.conjugacy_classes()
    power_maps = group.power_maps
    e = power_maps.shape[1]
    ids = np.full(table_mod.shape, -1, dtype=np.int32)
    pool: list[Cyclotomic] = []
    rational: dict[int, int] = {}  # value -> id
    books: dict[int, dict] = {}  # conductor m -> coefficient bytes at m -> id

    def intern(coeffs: np.ndarray, m: int) -> np.ndarray:  # distinct rows at conductor m
        book = books.setdefault(m, {})
        keys = coeffs.view(np.dtype((np.void, 8 * coeffs.shape[1]))).ravel().tolist()
        out = list(map(book.get, keys))
        for r in [r for r, vid in enumerate(out) if vid is None]:  # new at conductor m
            c0, irrational = int(coeffs[r, 0]), coeffs[r, 1:].any()
            vid = len(pool) if irrational else rational.setdefault(c0, len(pool))
            if vid == len(pool):
                vec = tuple(coeffs[r].tolist())
                pool.append(Cyclotomic(m, vec, _raw=True) if irrational else cyc(c0))
            out[r] = book[keys[r]] = vid
        return np.array(out, dtype=np.int32)

    for j, c in enumerate(classes):
        if ids[0, j] >= 0:
            continue
        m = c.order
        # inverse DFT of the distinct rows of the columns of the classes g^s:
        # mult[t] = m^{-1} sum_s table[:, class(g^s)] w_m^{-st}, w_m = w_e^(e/m)
        cols, inverse = np.unique(table_mod[:, power_maps[j, :m]], axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        powers = np.array([pow(w_e, -(e // m) * t, ell) for t in range(m)])  # w_m^-t
        dft = powers[np.outer(np.arange(m), np.arange(m)) % m]
        mults = fpmat.mul(cols, dft, ell) * pow(m, -1, ell) % ell  # in [0, l)
        # chi(g) is a sum of chi(1) = table_mod[:, 0] roots of unity (Isaacs, Lemma 2.15)
        if not np.array_equal(mults.sum(axis=1)[inverse], table_mod[:, 0]):
            raise TableVerificationError("root-of-unity multiplicities do not sum to chi(1)")
        monomials = np.array(_monomial_table(m), dtype=np.int64)
        vals, which = np.unique(_galois_image(mults, monomials, 1), axis=0, return_inverse=True)
        ids[:, j] = intern(vals, m)[which.reshape(-1)[inverse]]
        image_of = {u: np.empty(0, dtype=np.int32) for u in unit_generators(m)}  # by id
        frontier = [j]
        while frontier:
            jc = frontier.pop()
            for u, lut in image_of.items():
                jn = power_maps[jc, u % e]
                if ids[0, jn] < 0:  # the image under z -> z^u of column jc
                    lut = image_of[u] = np.pad(lut, (0, len(pool) - len(lut)), constant_values=-1)
                    new = np.unique(ids[lut[ids[:, jc]] < 0, jc])
                    if len(new):
                        rows = np.array([pool[i]._rebased(m) for i in new.tolist()], dtype=np.int64)
                        lut[new] = intern(_galois_image(rows, monomials, u), m)
                    ids[:, jn] = lut[ids[:, jc]]
                    frontier.append(jn)
    return ids, pool


def _galois_image(weights: np.ndarray, monomials: np.ndarray, kk: int) -> np.ndarray:
    """Rows sum_t weights[r, t] z_m^(t kk) in the power basis; monomials[t] is z_m^t."""
    rows, ts = np.nonzero(weights)  # row-major: each row's entries adjacent
    present, starts = np.unique(rows, return_index=True)
    terms = weights[rows, ts][:, None] * monomials[ts * kk % len(monomials)]
    out = np.zeros((len(weights), monomials.shape[1]), dtype=np.int64)
    out[present] = np.add.reduceat(terms, starts, axis=0)
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
    e = group.exponent
    ell = find_dixon_prime(e, group.order)
    rng = np.random.default_rng(seed)

    product_classes = _class_of_products(group)
    combos = _combo_source(product_classes, group.class_index_array(), ell, rng)
    lines = _Splitter(combos, k, ell, rng).run()
    omegas = []
    for line in lines:
        v = line.ravel() % ell
        if v[0] == 0:
            raise TableVerificationError("eigenvector vanishes on the identity class")
        omegas.append(v * pow(int(v[0]), ell - 2, ell) % ell)
    omegas = np.array(omegas, dtype=np.int64)
    degrees = _degrees_from_omegas(group, omegas, ell)

    sizes = np.array([c.size for c in classes], dtype=np.int64)
    size_inv = np.array([pow(int(s), ell - 2, ell) for s in sizes], dtype=np.int64)
    table_mod = (
        omegas * np.array(degrees, dtype=np.int64)[:, None] % ell * size_inv[None, :] % ell
    )

    w_e = _find_root_of_unity(ell, e)
    ids, pool = _lift_values(group, table_mod, ell, w_e)

    # deterministic row order: by degree, then the rendered values; equal ids
    # are equal values, so each pool value is rendered once and ranked
    labels = [str(v) for v in pool]
    rank = {label: r for r, label in enumerate(sorted(set(labels)))}
    ranks = np.array([rank[label] for label in labels], dtype=np.int64)[ids]
    order = sorted(range(len(degrees)), key=lambda i: (degrees[i], ranks[i].tolist()))
    degrees = [degrees[i] for i in order]
    return CharacterTable(
        group, classes, ids[order], pool, degrees, e, ell, table_mod[order], seed
    )


def _verify(table: CharacterTable) -> None:
    group = table.group
    k = table.n_classes
    ell = table.dixon_prime
    e = table.exponent
    if sum(d * d for d in table.degrees) != group.order:
        raise TableVerificationError("degree squares do not sum to |G|")
    chars = table.chars
    for chi in chars:
        if chi.values[0] != chi.degree:
            raise TableVerificationError("first column does not equal the degree")
    # lifted values must reduce back to the mod-l table: the pool is reduced
    # once, and the values a row holds in place of their pool objects are
    # reduced the same way on their own
    pool = table.value_pool
    reduced = _pool_mod(_pool_by_conductor(pool), len(pool), e, ell).astype(np.int64)
    lifted = reduced[table.value_ids]
    held = np.fromiter(map(id, chain.from_iterable(chi.values for chi in chars)), np.uint64, k * k)
    pool_ids = np.fromiter(map(id, pool), np.uint64, len(pool))
    stray = np.nonzero(held.reshape(k, k) != pool_ids[table.value_ids])
    values = [chars[i].values[j] for i, j in zip(*stray)]
    lifted[stray] = _pool_mod(_pool_by_conductor(values), len(values), e, ell)
    if not np.array_equal(lifted, table.mod_table % ell):
        raise TableVerificationError("lift is inconsistent with the mod-l table")
    # modular orthogonality (always)
    powers = table._powers()
    sizes = np.array([c.size for c in table.classes], dtype=np.int64)
    t_inv = table.mod_table[:, powers[:, -1]]
    gram = fpmat.mul(table.mod_table, (t_inv * sizes[None, :] % ell).T, ell)
    if not np.array_equal(gram, (group.order % ell) * np.eye(k, dtype=np.int64) % ell):
        raise TableVerificationError("row orthogonality fails mod l")
    # rational rows match rational classes
    units = np.array(table.units()) % e
    rational_classes = int((powers[:, units] == np.arange(k)[:, None]).all(axis=1).sum())
    rational_rows = sum(1 for chi in chars if chi.is_rational())
    if rational_classes != rational_rows:
        raise TableVerificationError("rational row/class counts differ")
    verify_orthogonality_exact(table)


def _map_once(fn, rows) -> list[list]:
    """[[fn(v) for v in row] for row in rows], calling fn once per distinct
    object; rows keep every object, and so its id, alive meanwhile."""
    memo: dict[int, object] = {}
    for row in rows:
        for v in row:
            if id(v) not in memo:
                memo[id(v)] = fn(v)
    return [[memo[id(v)] for v in row] for row in rows]


def verify_orthogonality_exact(table: CharacterTable) -> None:
    """Exact row and column orthogonality: the Galois action on the value
    pool, an integer bound on the Gram entries, and the Gram matrices modulo
    enough primes to exceed it (see the module docstring)."""
    ids, e, k = table.value_ids, table.exponent, table.n_classes
    powers = table._powers()
    by_conductor = _pool_by_conductor(table.value_pool)
    key_of = {
        (m, row.tobytes()): i
        for m, (idx, coeffs) in by_conductor.items()
        for i, row in zip(idx, coeffs)
    }
    rows = np.sort(_void(np.ascontiguousarray(ids)))
    for u in unit_generators(e):
        lut = np.arange(len(table.value_pool), dtype=ids.dtype)  # rationals are fixed
        for m, (idx, coeffs) in by_conductor.items():
            if m > 1:
                monomials = np.array(_monomial_table(m), dtype=np.int64)
                images = _galois_image(coeffs, monomials, u % m)
                lut[idx] = [key_of.get((m, row.tobytes()), -1) for row in images]
        moved = lut[ids]
        if not np.array_equal(moved, ids[:, powers[:, u]]):
            raise TableVerificationError("entrywise Galois action disagrees with the power maps")
        if not np.array_equal(np.sort(_void(moved)), rows):
            raise TableVerificationError("Galois images of the rows are not the rows")
    # each Gram matrix is dominated entrywise by a positive semidefinite one
    # in the L1 norms of the values, whose largest entry is on its diagonal
    order = table.group.order
    sizes = np.array([c.size for c in table.classes], dtype=np.int64)
    l1 = np.array([sum(map(abs, v.coeffs)) for v in table.value_pool], dtype=np.float64)
    sq = (l1**2)[ids]
    cap = max((sq @ sizes).max(), sq.sum(axis=0).max())
    # float64 sums of k nonnegative terms: relative error below k 2^-53
    bound = 2 * (int(cap * (1 + 2**-20)) + 1 + order)
    width = max(k, max(coeffs.shape[1] for _, coeffs in by_conductor.values()))
    inv = powers[:, -1]
    diagonal = np.arange(k), np.arange(k)
    for p in _gram_primes(e, width, bound):
        x = _pool_mod(by_conductor, len(table.value_pool), e, p)[ids]
        x_inv = x[:, inv]
        gram = fpmat.mul(x * sizes % p, x_inv.T, p)  # float64 x |C_c| < p |G| < 2^53
        gram[diagonal] -= order % p
        if gram.any():
            raise TableVerificationError(f"row orthogonality fails mod {p}")
        gram = fpmat.mul(x.T, x_inv, p)
        gram[diagonal] -= order // sizes % p
        if gram.any():
            raise TableVerificationError(f"column orthogonality fails mod {p}")


def _pool_by_conductor(pool: list[Cyclotomic]) -> dict[int, tuple[list[int], np.ndarray]]:
    """Conductor m -> (pool ids, their coefficient rows at m)."""
    groups: dict[int, list[int]] = {}
    for i, v in enumerate(pool):
        groups.setdefault(v.conductor, []).append(i)
    return {
        m: (idx, np.array([pool[i].coeffs for i in idx], dtype=np.int64))
        for m, idx in groups.items()
    }


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


def _pool_mod(by_conductor, size: int, e: int, p: int) -> np.ndarray:
    """Each pool value mod p under zeta_e -> an element of order e in F_p."""
    w_e = _find_root_of_unity(p, e)
    out = np.empty(size)
    for m, (idx, coeffs) in by_conductor.items():
        if e % m:
            raise ValueError("conductor does not divide the exponent")
        w = pow(w_e, e // m, p)
        powers = np.array([pow(w, t, p) for t in range(coeffs.shape[1])], dtype=np.int64)
        out[idx] = fpmat.mul(coeffs % p, powers[:, None], p)[:, 0]
    return out


def kernel_of(chi: Character) -> Subgroup:
    return chi.kernel()


def galois_conjugate(chi: Character, k: int) -> Character:
    return chi.table.galois_conjugate(chi, k)


def galois_orbits(table: CharacterTable) -> list[tuple[int, ...]]:
    return table.galois_orbits()


def field_in_pth_cyclotomic(chi: Character, p: int) -> bool:
    return chi.table.field_in_pth_cyclotomic(chi, p)
