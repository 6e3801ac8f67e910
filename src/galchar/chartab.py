"""Exact irreducible character tables by the class-matrix eigenvector method.

The table of a group G is computed in five steps:

1. conjugacy classes, class sizes, power maps, exponent e;
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
5. exact values: for one representative per power-orbit of classes the
   root-of-unity multiplicities are recovered by an inverse DFT mod l.
   Each class g^kk of the orbit takes the multiplicity at z^t to z^(t kk):
   the few nonzero ones are scattered through the power-basis rows of
   those roots into a k x phi(m) integer array, and each row becomes one
   Cyclotomic.

The finished table is verified before it is returned: degree sum, first
column, orthogonality (exactly in cyclotomic arithmetic up to
EXACT_VERIFY_LIMIT classes, modulo l above it), consistency of the lifted
values with the mod-l table, and the rational-row = rational-class count.
Up to EXACT_VERIFY_LIMIT classes it also checks, once per row, that the
entrywise Galois action agrees with the power maps, for generators of the
units mod e; galois_orbits then reads orbits off the power maps alone.
The F_l linear algebra (row reduction, null spaces, products) comes from
fpmat.

Kernels are read off the table as sets of class indices, the classes where
chi(c) = chi(1); |G : ker chi| is |G| over the sum of their sizes, and two
kernels are equal iff their class sets are.  Each class set is checked to
contain the identity class and to have a size dividing |G|.  Only
Character.kernel() builds the kernel as a Subgroup of elements, and it
checks that the closure of its generators is the set itself.
"""
from __future__ import annotations

import weakref
from functools import cmp_to_key
from math import gcd

import numpy as np

from . import fpmat
from .cyclotomic import Cyclotomic, _monomial_table, cyc, phi
from .numth import find_dixon_prime, primitive_root
from .perm import ConjugacyClass, PermGroup, Subgroup

EXACT_VERIFY_LIMIT = 40
_SPLIT_ROUND_CAP = 200
_KRYLOV_BLOCK = 32  # Krylov rows reduced per product with the RREF basis


class TableVerificationError(AssertionError):
    """The computed table failed an exactness check (an implementation bug)."""


class Character:
    """One row of a character table."""

    __slots__ = (
        "table", "index", "degree", "values", "_kernel_classes", "_kernel", "_stab",
        "__weakref__",
    )

    def __init__(self, table: "CharacterTable", index: int, degree: int, values):
        self.table = table
        self.index = index
        self.degree = degree
        self.values: tuple[Cyclotomic, ...] = tuple(values)
        self._kernel_classes: frozenset[int] | None = None
        self._kernel: Subgroup | None = None
        self._stab: frozenset | None = None

    def __call__(self, class_index: int) -> Cyclotomic:
        return self.values[class_index]

    def kernel_classes(self) -> frozenset[int]:
        """Indices of the classes where the value equals the degree.

        A kernel is a normal subgroup, so the identity class (index 0) must
        be in the set and the class sizes must sum to a divisor of |G|;
        a row failing either is not a character of G.
        """
        if self._kernel_classes is None:
            deg = cyc(self.degree)
            # mod-l prescreen (necessary condition), then exact confirmation
            d_mod = self.degree % self.table.dixon_prime
            candidates = np.nonzero(self.table.mod_table[self.index] == d_mod)[0]
            members = frozenset(int(j) for j in candidates if self.values[j] == deg)
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
    def __init__(self, group, classes, chars_values, degrees, exponent, dixon_prime, mod_table, seed):
        self.group: PermGroup = group
        self.classes: list[ConjugacyClass] = classes
        self.degrees: list[int] = degrees
        self.exponent = exponent
        self.dixon_prime = dixon_prime
        self.mod_table: np.ndarray = mod_table  # k x k, values mod l
        self.seed = seed
        self._rows = [tuple(row) for row in chars_values]
        self._chars: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        self._units: tuple[int, ...] | None = None
        self._row_lookup: dict[bytes, int] | None = None
        self._power_matrix: np.ndarray | None = None

    @property
    def chars(self) -> list[Character]:
        """One Character per row, the same object while any caller holds it.
        The table holds its characters weakly: they refer to the table, and
        a cycle would keep the table and its group alive until the cyclic
        garbage collector runs."""
        out = []
        for i, row in enumerate(self._rows):
            chi = self._chars.get(i)
            if chi is None:
                chi = self._chars[i] = Character(self, i, self.degrees[i], row)
            out.append(chi)
        return out

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
        if self._power_matrix is None:
            self._power_matrix = np.array(
                [c.power_map for c in self.classes], dtype=np.int64
            )
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
        j = self._permuted_row(chi.index, k)
        target = self.chars[j]
        powers = self._powers()
        for c in range(self.n_classes):
            lhs = chi.values[powers[c, k % self.exponent]]
            if lhs != chi.values[c].galois_apply(k) or lhs != target.values[c]:
                raise TableVerificationError(
                    "power-map and entrywise Galois actions disagree"
                )
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
            "values": [[str(v) for v in chi.values] for chi in self.chars],
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
        for chi in self.chars:
            lines.append(
                f"X{chi.index}[{chi.degree}]: " + " | ".join(str(v) for v in chi.values)
            )
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
    classes = group.conjugacy_classes()
    k = len(classes)
    sizes = np.array([c.size for c in classes], dtype=np.int64)
    inv_class = np.array([c.power_map[-1] for c in classes], dtype=np.int64)
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
    """Exact cyclotomic values from the mod-l table, one DFT per power-orbit."""
    classes = group.conjugacy_classes()
    e = group.exponent
    k = len(classes)
    values: list[list[Cyclotomic | None]] = [[None] * k for _ in range(k)]
    done = [False] * k

    for j, c in enumerate(classes):
        if done[j]:
            continue
        m = c.order
        w_m = pow(w_e, e // m, ell)
        # inverse DFT: mult[t] = m^{-1} sum_s table[:, class(g^s)] w_m^{-st}
        pm = c.power_map
        cols = table_mod[:, [pm[s] for s in range(m)]]  # k x m
        w_inv = pow(w_m, ell - 2, ell)
        wpow = np.ones(m, dtype=np.int64)
        for t in range(1, m):
            wpow[t] = wpow[t - 1] * w_inv % ell
        st = np.outer(np.arange(m), np.arange(m)) % m
        powers = wpow[st]
        m_inv = pow(m, ell - 2, ell)
        mults = fpmat.mul(cols, powers, ell) * m_inv % ell  # k x m, in [0, l)
        orbit_cols = {}
        for kk in range(1, m + 1):
            if gcd(kk, m) == 1:
                j2 = pm[kk % e] if m > 1 else j
                if not done[j2] and j2 not in orbit_cols:
                    orbit_cols[j2] = kk
        # the class g^kk has multiplicity mults[row, t] at z_m^(t kk): scatter
        # the few nonzero ones through the power-basis rows of those roots
        rows, ts = np.nonzero(mults)  # row-major: each row's entries adjacent
        counts = mults[rows, ts][:, None]
        present, starts = np.unique(rows, return_index=True)
        monomials = np.array(_monomial_table(m), dtype=np.int64)
        for j2, kk in sorted(orbit_cols.items()):
            coeffs = np.zeros((k, phi(m)), dtype=np.int64)
            terms = counts * monomials[ts * kk % m]
            coeffs[present] = np.add.reduceat(terms, starts, axis=0)
            rational = ~coeffs[:, 1:].any(axis=1)
            for row, vec, flat in zip(values, coeffs.tolist(), rational.tolist()):
                if flat:
                    row[j2] = Cyclotomic(1, (vec[0],), _raw=True)
                else:
                    row[j2] = Cyclotomic(m, tuple(vec), _raw=True)
            done[j2] = True
    return values


def _row_order(degrees: list[int], values) -> list[int]:
    """Row indices sorted by degree, then by the tuple of rendered values.

    Within a column equal values have equal conductors and coefficients,
    so only the first column where two rows differ is rendered."""

    def compare(i: int, j: int) -> int:
        if degrees[i] != degrees[j]:
            return -1 if degrees[i] < degrees[j] else 1
        for a, b in zip(values[i], values[j]):
            if a.conductor == b.conductor and a.coeffs == b.coeffs:
                continue
            a, b = str(a), str(b)
            if a != b:
                return -1 if a < b else 1
        return 0

    return sorted(range(len(degrees)), key=cmp_to_key(compare))


def character_table(group: PermGroup, seed: int = 0) -> CharacterTable:
    """Exact irreducible character table of a permutation group."""
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
    values = _lift_values(group, table_mod, ell, w_e)

    # deterministic row order: by degree, then rendered values
    order = _row_order(degrees, values)
    degrees = [degrees[i] for i in order]
    values = [values[i] for i in order]
    table_mod = table_mod[order]

    table = CharacterTable(
        group, classes, values, degrees, e, ell, table_mod, seed
    )
    _verify(table, w_e)
    return table


def _verify(table: CharacterTable, w_e: int) -> None:
    group = table.group
    k = table.n_classes
    ell = table.dixon_prime
    e = table.exponent
    if sum(d * d for d in table.degrees) != group.order:
        raise TableVerificationError("degree squares do not sum to |G|")
    for chi in table.chars:
        if chi.values[0] != chi.degree:
            raise TableVerificationError("first column does not equal the degree")
    # lifted values must reduce back to the mod-l table under zeta_e -> w_e,
    # row by row and, within a row, one conductor at a time
    w_powers: dict[int, np.ndarray] = {}  # conductor f -> powers of w_e^(e/f)
    for chi, mod_row in zip(table.chars, table.mod_table):
        by_conductor: dict[int, list[int]] = {}
        for j, v in enumerate(chi.values):
            by_conductor.setdefault(v.conductor, []).append(j)
        for f, cols in by_conductor.items():
            if f not in w_powers:
                if e % f:
                    raise ValueError("conductor does not divide the exponent")
                w_f = pow(w_e, e // f, ell)
                w_powers[f] = np.array([pow(w_f, i, ell) for i in range(phi(f))])
            coeffs = np.array([chi.values[j].coeffs for j in cols], dtype=np.int64)
            reduced = coeffs % ell @ w_powers[f] % ell
            if not np.array_equal(reduced, mod_row[cols] % ell):
                raise TableVerificationError("lift is inconsistent with the mod-l table")
    # modular orthogonality (always)
    sizes = np.array([c.size for c in table.classes], dtype=np.int64)
    inv_class = [c.power_map[-1] for c in table.classes]
    t_inv = table.mod_table[:, inv_class]
    gram = fpmat.mul(table.mod_table, (t_inv * sizes[None, :] % ell).T, ell)
    if not np.array_equal(gram, (group.order % ell) * np.eye(k, dtype=np.int64) % ell):
        raise TableVerificationError("row orthogonality fails mod l")
    # rational rows match rational classes
    units = table.units()
    powers = table._powers()
    rational_classes = sum(
        1 for c in range(k) if all(powers[c, u % e] == c for u in units)
    )
    rational_rows = sum(1 for chi in table.chars if chi.is_rational())
    if rational_classes != rational_rows:
        raise TableVerificationError("rational row/class counts differ")
    if k <= EXACT_VERIFY_LIMIT:
        # the entrywise Galois action agrees with the power maps; both
        # actions compose, so generators of the units mod e suffice
        for u in _unit_generators(e):
            for chi in table.chars:
                table.galois_conjugate(chi, u)
        verify_orthogonality_exact(table)


def _unit_generators(e: int) -> list[int]:
    """Units mod e, increasing, each outside the group the earlier ones generate."""
    gens: list[int] = []
    reached = {1 % e}
    for u in range(2, e):
        if gcd(u, e) != 1 or u in reached:
            continue
        gens.append(u)
        grown = set(reached)
        x = u
        while x not in reached:  # the cosets reached * u^j
            grown |= {r * x % e for r in reached}
            x = x * u % e
        reached = grown
    return gens


def verify_orthogonality_exact(table: CharacterTable) -> None:
    """Exact row and column orthogonality in cyclotomic arithmetic."""
    group = table.group
    k = table.n_classes
    sizes = [c.size for c in table.classes]
    rows = [chi.values for chi in table.chars]
    conj_rows = [[v.conjugate() for v in row] for row in rows]
    for i in range(k):
        for j in range(i, k):
            total = cyc(0)
            for c in range(k):
                a = rows[i][c]
                b = conj_rows[j][c]
                if a.is_zero or b.is_zero:
                    continue
                total = total + sizes[c] * (a * b)
            expected = group.order if i == j else 0
            if total != expected:
                raise TableVerificationError(f"row orthogonality fails for ({i},{j})")
    for c1 in range(k):
        for c2 in range(c1, k):
            total = cyc(0)
            for i in range(k):
                a = rows[i][c1]
                b = conj_rows[i][c2]
                if a.is_zero or b.is_zero:
                    continue
                total = total + a * b
            expected = group.order // sizes[c1] if c1 == c2 else 0
            if total != expected:
                raise TableVerificationError(
                    f"column orthogonality fails for ({c1},{c2})"
                )


def kernel_of(chi: Character) -> Subgroup:
    return chi.kernel()


def galois_conjugate(chi: Character, k: int) -> Character:
    return chi.table.galois_conjugate(chi, k)


def galois_orbits(table: CharacterTable) -> list[tuple[int, ...]]:
    return table.galois_orbits()


def field_in_pth_cyclotomic(chi: Character, p: int) -> bool:
    return chi.table.field_in_pth_cyclotomic(chi, p)
