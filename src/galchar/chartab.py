"""Exact irreducible character tables by the class-matrix eigenvector method.

The table of a group G is computed in five steps:

1. conjugacy classes, class sizes, power maps, exponent e;
2. a prime l = 1 (mod e) with l^2 > 4|G| (so degrees and root-of-unity
   multiplicities lift uniquely from arithmetic mod l);
3. simultaneous eigenvectors of the class matrices over F_l.  A seeded
   random linear combination M of the class matrices is built directly from
   the group (one pass of |G| * k products), its minimal polynomial is found
   on Krylov vectors, and eigenspaces are read off by polynomial deflation;
   subspaces that stay entangled are split recursively with fresh
   combinations.  Everything is deterministic given the seed;
4. degrees from the eigenvector normalisation and character values mod l;
5. exact values: for one representative per power-orbit of classes the
   root-of-unity multiplicities are recovered by an inverse DFT mod l, and
   the remaining classes of the orbit reuse the same multiplicities with
   permuted exponents.

The finished table is verified before it is returned: degree sum, first
column, orthogonality (exactly in cyclotomic arithmetic up to
EXACT_VERIFY_LIMIT classes, modulo l above it), consistency of the lifted
values with the mod-l table, and the rational-row = rational-class count.
The F_l linear algebra (row reduction, null spaces) comes from fpmat.

Kernels are read off the table as sets of class indices, the classes where
chi(c) = chi(1); |G : ker chi| is |G| over the sum of their sizes, and two
kernels are equal iff their class sets are.  Each class set is checked to
contain the identity class and to have a size dividing |G|.  Only
Character.kernel() builds the kernel as a Subgroup of elements, and it
checks that the closure of its generators is the set itself.
"""
from __future__ import annotations

import numpy as np

from . import fpmat
from .cyclotomic import Cyclotomic, cyc
from .numth import factorize, find_dixon_prime
from .perm import ConjugacyClass, PermGroup, Subgroup

EXACT_VERIFY_LIMIT = 40
_SPLIT_ROUND_CAP = 200


class TableVerificationError(AssertionError):
    """The computed table failed an exactness check (an implementation bug)."""


class Character:
    """One row of a character table."""

    __slots__ = (
        "table", "index", "degree", "values", "_kernel_classes", "_kernel", "_stab"
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
            members = [
                group.elements[i]
                for j in self.kernel_classes()
                for i in self.table.classes[j].element_ids
            ]
            sub = group.subgroup_from_elements(members)
            if group.close(sub.generating_set()) != sub.elements:
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
        self.chars = [
            Character(self, i, degrees[i], row) for i, row in enumerate(chars_values)
        ]
        self._units: tuple[int, ...] | None = None
        self._row_lookup: dict[bytes, int] | None = None
        self._power_matrix: np.ndarray | None = None

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def units(self) -> tuple[int, ...]:
        if self._units is None:
            from math import gcd

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
        from math import gcd

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
        small = self.n_classes <= EXACT_VERIFY_LIMIT
        seen = set()
        orbits = []
        for i in range(self.n_classes):
            if i in seen:
                continue
            orbit = {i}
            for k in self.units():
                if small:
                    orbit.add(self.galois_conjugate(self.chars[i], k).index)
                else:
                    orbit.add(self._permuted_row(i, k))
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
        image = red @ mt % self.ell
        return image[:, pivots], red

    def _split_once(self, basis: np.ndarray, mt: np.ndarray):
        """Decompose the row space of basis into eigenspaces of the combo.

        For each seeded probe vector v the monic annihilator f of v is
        computed on its Krylov sequence; for every root lam of f the
        deflation v . (f/(x-lam))(a) lands in the lam-eigenspace.  Probes are
        accumulated until the eigenspace dimensions sum to the block size,
        which avoids any full-size nullspace eliminations.
        """
        m = len(basis)
        if m == 1:
            return [basis]
        a, red = self._restrict(basis, mt)
        spans: dict[int, tuple[list, list]] = {}
        seen_roots: set[int] = set()
        total = 0
        for _probe in range(16):
            v = self.rng.integers(0, self.ell, size=m, dtype=np.int64)
            if not v.any():
                continue
            ann = self._annihilator_of(v % self.ell, a)
            roots = _poly_roots_mod(ann, self.ell)
            if len(roots) < len(ann) - 1:
                raise TableVerificationError("annihilator fails to split over F_l")
            seen_roots |= set(roots)
            r = len(ann) - 1
            kry = np.zeros((r, m), dtype=np.int64)
            cur = v % self.ell
            for s in range(r):
                kry[s] = cur
                cur = cur @ a % self.ell
            coeff = np.stack(
                [_synthetic_division(ann, lam, self.ell) for lam in roots]
            )
            cands = coeff @ kry % self.ell
            for lam, u in zip(roots, cands):
                total += _insert_reduced(
                    spans.setdefault(lam, ([], [])), u, self.ell
                )
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
                shifted = (a - lam * ident) % self.ell
                rows = fpmat.null_space(shifted.T.copy(), self.ell)
                spans[lam] = (list(rows), [int(np.nonzero(r0)[0][0]) for r0 in rows])
                total += len(rows)
                residual = residual @ shifted % self.ell
            if total < m:
                rest = fpmat.row_reduce(residual, self.ell)
                rest = rest[rest.any(axis=1)]
                if len(rest):
                    spans[self.ell] = (list(rest), [])
        if len(spans) <= 1:
            # the combination looks scalar on this block; try the next one
            return [basis]
        pieces = [
            np.array(rows, dtype=np.int64) for _, (rows, _) in sorted(spans.items())
        ]
        return [piece @ red % self.ell for piece in pieces]

    def _annihilator_of(self, v: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Least monic poly f with v . f(a) = 0, by incremental reduction."""
        ell = self.ell
        basis_rows: list[np.ndarray] = []
        pivots: list[int] = []
        coords: list[np.ndarray] = []
        count = 0
        cur = v.copy()
        while True:
            red = cur.copy()
            coord = np.zeros(count + 1, dtype=np.int64)
            coord[count] = 1
            for row, pv, co in zip(basis_rows, pivots, coords):
                c = int(red[pv])
                if c:
                    red = (red - c * row) % ell
                    coord[: len(co)] = (coord[: len(co)] - c * co) % ell
            if not red.any():
                return coord % ell  # monic by construction
            pv = int(np.nonzero(red)[0][0])
            inv = pow(int(red[pv]), ell - 2, ell)
            basis_rows.append(red * inv % ell)
            coords.append(coord * inv % ell)
            pivots.append(pv)
            count += 1
            if count > len(a):
                raise TableVerificationError("Krylov sequence failed to close")
            cur = cur @ a % ell


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


def _synthetic_division(poly: np.ndarray, lam: int, ell: int) -> np.ndarray:
    """Coefficients of poly(x) / (x - lam), ascending, length deg(poly)."""
    deg = len(poly) - 1
    out = np.zeros(deg, dtype=np.int64)
    carry = 0
    for i in range(deg - 1, -1, -1):
        carry = (poly[i + 1] + carry * lam) % ell
        out[i] = carry
    return out


# -- the table computation ---------------------------------------------------------


def _class_matrix_combo(group: PermGroup, coeffs: np.ndarray, ell: int) -> np.ndarray:
    """sum_i coeffs[i] * M_i where (M_i)[j, m] counts products C_i * C_j -> rep_m."""
    classes = group.conjugacy_classes()
    k = len(classes)
    arr, inv = group.arrays()
    class_of = group.class_index_array()
    weights = coeffs[class_of] % ell
    combo = np.zeros((k, k), dtype=np.int64)
    for m_idx, c in enumerate(classes):
        rows = inv[:, c.rep.images]  # row x = x^{-1} . z_m
        j_ids = class_of[group.ids_of_rows(rows)]
        np.add.at(combo[:, m_idx], j_ids, weights)
    return combo % ell


def _combo_source(group: PermGroup, ell: int, rng):
    k = len(group.conjugacy_classes())
    while True:
        coeffs = rng.integers(0, ell, size=k, dtype=np.int64)
        yield _class_matrix_combo(group, coeffs, ell)


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
    fac = list(factorize(ell - 1))
    for u in range(2, ell):
        if all(pow(u, (ell - 1) // q, ell) != 1 for q in fac):
            return pow(u, (ell - 1) // e, ell)
    raise AssertionError("F_l* has a generator")


def _lift_values(group, table_mod: np.ndarray, ell: int, w_e: int):
    """Exact cyclotomic values from the mod-l table, one DFT per power-orbit."""
    classes = group.conjugacy_classes()
    e = group.exponent
    k = len(classes)
    values: list[list[Cyclotomic | None]] = [[None] * k for _ in range(k)]
    done = [False] * k
    from math import gcd

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
        mults = cols @ powers % ell * m_inv % ell  # k x m, entries in [0, l)
        orbit_cols = {}
        for kk in range(1, m + 1):
            if gcd(kk, m) == 1:
                j2 = pm[kk % e] if m > 1 else j
                if not done[j2] and j2 not in orbit_cols:
                    orbit_cols[j2] = kk
        nonzero = [np.nonzero(mults[row])[0] for row in range(k)]
        for j2, kk in sorted(orbit_cols.items()):
            for row in range(k):
                values[row][j2] = Cyclotomic._from_monomials(
                    m,
                    ((int(t) * kk % m, int(mults[row, t])) for t in nonzero[row]),
                )
            done[j2] = True
    return values


def _cyclotomic_mod(value: Cyclotomic, ell: int, w_e: int, e: int) -> int:
    """Reduce an exact value to F_l via zeta_e -> w_e."""
    f = value.conductor
    if e % f != 0:
        raise ValueError("conductor does not divide the exponent")
    w_f = pow(w_e, e // f, ell)
    total = 0
    for i, c in enumerate(value.coeffs):
        if c:
            total += c * pow(w_f, i, ell)
    return total % ell


def character_table(group: PermGroup, seed: int = 0) -> CharacterTable:
    """Exact irreducible character table of a permutation group."""
    classes = group.conjugacy_classes()
    k = len(classes)
    e = group.exponent
    ell = find_dixon_prime(e, group.order)
    rng = np.random.default_rng(seed)

    lines = _Splitter(_combo_source(group, ell, rng), k, ell, rng).run()
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
    order = sorted(
        range(k),
        key=lambda i: (degrees[i], tuple(str(v) for v in values[i])),
    )
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
    # lifted values must reduce back to the mod-l table
    for i, chi in enumerate(table.chars):
        for j, v in enumerate(chi.values):
            if _cyclotomic_mod(v, ell, w_e, e) != int(table.mod_table[i, j]) % ell:
                raise TableVerificationError("lift is inconsistent with the mod-l table")
    # modular orthogonality (always)
    sizes = np.array([c.size for c in table.classes], dtype=np.int64)
    inv_class = [c.power_map[-1] for c in table.classes]
    t_inv = table.mod_table[:, inv_class]
    gram = table.mod_table @ (t_inv * sizes[None, :]).T % ell
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
        verify_orthogonality_exact(table)


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
