"""Finite permutation groups at desk scale.

Groups are stored by full element enumeration (bounded, default 5e5) with
hashed membership; that is all the spec's target groups need, and it keeps
every derived computation (classes, series, centralizers, quotients) exact
and simple.  Conjugacy classes are orbits of element ids: each generator
conjugates the whole (|G|, degree) image array at once, and the rows are
mapped back to ids.  Classes carry power maps indexed 0..e-1 (e the group
exponent) because the Galois action on characters is driven by them; they
are found by stepping every class representative at once.

All orderings are deterministic: element enumeration is breadth-first over
the generator list, classes are sorted by (element order, class size,
minimal member), cosets by minimal member.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import lcm

import numpy as np

from .numth import factorize, is_prime_power

ORDER_BOUND = 500_000


class OrderBoundExceeded(RuntimeError):
    pass


class Permutation:
    """A bijection on {0..deg-1}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation: {images}")
        object.__setattr__(self, "images", images)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(range(degree))

    @staticmethod
    def from_cycles(degree: int, *cycles) -> "Permutation":
        images = list(range(degree))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
        return Permutation(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (a * b)(x) = a(b(x))."""
        a = self.images
        return Permutation(tuple(a[x] for x in other.images))

    def inv(self) -> "Permutation":
        out = [0] * len(self.images)
        for i, x in enumerate(self.images):
            out[x] = i
        return Permutation(out)

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inv() ** (-n)
        result = Permutation.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def order(self) -> int:
        n = 1
        seen = set()
        for start in range(len(self.images)):
            if start in seen or self.images[start] == start:
                continue
            length = 0
            x = start
            while True:
                seen.add(x)
                x = self.images[x]
                length += 1
                if x == start:
                    break
            n = lcm(n, length)
        return n

    @property
    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def conj(self, other: "Permutation") -> "Permutation":
        """self * other * self^-1."""
        return self * other * self.inv()

    def commutator(self, other: "Permutation") -> "Permutation":
        return self.inv() * other.inv() * self * other

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def cycle_string(self) -> str:
        seen = set()
        out = []
        for start in range(len(self.images)):
            if start in seen or self.images[start] == start:
                continue
            cyc = [start]
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self.images[x]
            out.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(out) or "()"

    def __repr__(self) -> str:
        return f"Perm{self.cycle_string()}"


@dataclass
class ConjugacyClass:
    """One conjugacy class: representative, members, and its power map."""

    rep: Permutation
    element_ids: tuple[int, ...]
    order: int
    power_map: tuple[int, ...] = ()  # index t -> class of rep**t, t in 0..e-1

    @property
    def size(self) -> int:
        return len(self.element_ids)


class PermGroup:
    """A permutation group generated by explicit permutations."""

    def __init__(self, degree, generators, name=None, order_bound=ORDER_BOUND):
        self.degree = int(degree)
        gens = []
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != self.degree:
                raise ValueError("generator degree mismatch")
            if not g.is_identity:
                gens.append(g)
        self.generators: tuple[Permutation, ...] = tuple(gens)
        self.name = name
        self._enumerate(order_bound)
        self._classes: list[ConjugacyClass] | None = None
        self._class_of: np.ndarray | None = None
        self._exponent: int | None = None
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None
        self._void_sorted: np.ndarray | None = None  # rows as sorted byte strings
        self._void_order: np.ndarray | None = None  # their element ids
        self._center: "Subgroup" | None = None
        self._lcs: list["Subgroup"] | None = None
        self._dseries: list["Subgroup"] | None = None

    def _enumerate(self, order_bound: int) -> None:
        ident = Permutation.identity(self.degree)
        elements = [ident]
        index = {ident.images: 0}
        frontier = [ident]
        while frontier:
            nxt = []
            for x in frontier:
                for g in self.generators:
                    y = x * g
                    if y.images not in index:
                        index[y.images] = len(elements)
                        elements.append(y)
                        nxt.append(y)
                        if len(elements) > order_bound:
                            raise OrderBoundExceeded(
                                f"group order exceeds bound {order_bound}"
                            )
            frontier = nxt
        self.elements: list[Permutation] = elements
        self._index: dict[tuple, int] = index

    # -- basics -------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, perm: Permutation) -> bool:
        return perm.images in self._index

    def element_id(self, perm: Permutation) -> int:
        return self._index[perm.images]

    def identity(self) -> Permutation:
        return self.elements[0]

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(elements, inverses) as int32 image matrices, row i = element i."""
        if self._arrays is None:
            arr = np.array([e.images for e in self.elements], dtype=np.int32)
            inv = np.empty_like(arr)
            rows = np.arange(self.order)[:, None]
            inv[rows, arr] = np.arange(self.degree, dtype=np.int32)[None, :]
            self._arrays = (arr, inv)
        return self._arrays

    def ids_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Element ids for a stack of image rows (each row must lie in G)."""
        arr, _ = self.arrays()
        if self._void_order is None:
            void = np.ascontiguousarray(arr).view(
                np.dtype((np.void, arr.shape[1] * arr.itemsize))
            ).ravel()
            order = np.argsort(void)
            self._void_sorted = void[order]
            self._void_order = order
        rows = np.ascontiguousarray(rows.astype(np.int32, copy=False))
        void = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
        pos = np.searchsorted(self._void_sorted, void)
        pos = np.minimum(pos, len(self._void_order) - 1)
        ids = self._void_order[pos]
        if not np.array_equal(arr[ids], rows):
            raise KeyError("row is not an element of the group")
        return ids

    def right_multiplication(self, ids) -> np.ndarray:
        """Row i: the id of x * elements[ids[i]], for every element id x.

        A breadth-first walk over the generators' right multiplications on
        ids writes each element as a word; a row composes the word's maps."""
        arr, _ = self.arrays()
        by_gen = [self.ids_of_rows(arr[:, g.images]) for g in self.generators]
        # element y is element parent[y] times generator via[y]
        parent, via = [-1] * self.order, [0] * self.order
        parent[0] = 0
        walk = [0]
        steps = [r.tolist() for r in by_gen]
        for x in walk:  # grows while it is walked
            for gi, step in enumerate(steps):
                y = step[x]
                if parent[y] < 0:
                    parent[y], via[y] = x, gi
                    walk.append(y)
        out = np.empty((len(ids), self.order), dtype=np.int64)
        for row, z in zip(out, ids):
            word = []
            while z:
                word.append(via[z])
                z = parent[z]
            cur = np.arange(self.order)
            for gi in reversed(word):
                cur = by_gen[gi][cur]
            row[:] = cur
        return out

    # -- conjugacy classes ----------------------------------------------------

    def conjugacy_classes(self) -> list[ConjugacyClass]:
        if self._classes is not None:
            return self._classes
        n = self.order
        arr, _ = self.arrays()
        # conj[g][x] = id of g x g^-1, for every element x at once
        conj = []
        for g in self.generators:
            images = np.array(g.images, dtype=np.int32)
            conj.append(self.ids_of_rows(images[arr[:, np.argsort(images)]]).tolist())
        label = [-1] * n
        raw: list[list[int]] = []
        for start in range(n):
            if label[start] >= 0:
                continue
            label[start] = len(raw)
            members = [start]
            for x in members:  # grows while it is walked: a breadth-first orbit
                for images in conj:
                    y = images[x]
                    if label[y] < 0:
                        label[y] = len(raw)
                        members.append(y)
            raw.append(members)

        # rank[i] is the position of element i in the order of image tuples
        rank = np.empty(n, dtype=np.int64)
        rank[np.lexsort(arr.T[::-1])] = np.arange(n)
        rank = rank.tolist()
        classes = []
        for members in raw:
            members.sort(key=rank.__getitem__)
            rep = self.elements[members[0]]
            classes.append(ConjugacyClass(rep, tuple(members), rep.order()))
        classes.sort(key=lambda c: (c.order, c.size, rank[c.element_ids[0]]))

        class_of = np.empty(n, dtype=np.int64)
        for ci, c in enumerate(classes):
            class_of[list(c.element_ids)] = ci
        e = 1
        for c in classes:
            e = lcm(e, c.order)
        self._exponent = e
        # powers[ci, t] = class of rep_ci ** t for t < order; classes are
        # sorted by order, so the reps still stepping form a suffix
        orders = np.array([c.order for c in classes])
        reps = arr[[c.element_ids[0] for c in classes]]
        cur = np.tile(np.arange(self.degree, dtype=np.int32), (len(classes), 1))
        powers = np.zeros((len(classes), int(orders[-1])), dtype=np.int64)
        for t in range(int(orders[-1])):
            first = int(np.searchsorted(orders, t, side="right"))
            powers[first:, t] = class_of[self.ids_of_rows(cur[first:])]
            cur[first:] = np.take_along_axis(cur[first:], reps[first:], 1)
        for ci, c in enumerate(classes):
            c.power_map = tuple(powers[ci, np.arange(e) % c.order].tolist())
        self._classes = classes
        self._class_of = class_of
        return classes

    @property
    def exponent(self) -> int:
        if self._exponent is None:
            self.conjugacy_classes()
        return self._exponent

    def class_of(self, perm: Permutation) -> int:
        self.conjugacy_classes()
        return int(self._class_of[self._index[perm.images]])

    def class_index_array(self) -> np.ndarray:
        self.conjugacy_classes()
        return self._class_of

    # -- subgroup machinery ---------------------------------------------------

    def close(self, gens, cap: int | None = None) -> frozenset[Permutation] | None:
        """Subgroup closure of gens; None if a size cap is exceeded."""
        ident = self.identity()
        elements = {ident}
        frontier = [ident]
        gens = [g for g in gens if not g.is_identity]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = x * g
                if y not in elements:
                    if cap is not None and len(elements) >= cap:
                        return None
                    elements.add(y)
                    frontier.append(y)
        return frozenset(elements)

    def subgroup(self, gens, name=None) -> "Subgroup":
        gens = tuple(
            g if isinstance(g, Permutation) else Permutation(g) for g in gens
        )
        for g in gens:
            if g not in self:
                raise ValueError("generator lies outside the parent group")
        return Subgroup(self, self.close(gens), gens, name=name)

    def subgroup_from_elements(self, elements, name=None) -> "Subgroup":
        elements = frozenset(elements)
        return Subgroup(self, elements, None, name=name)

    def trivial_subgroup(self) -> "Subgroup":
        return self.subgroup([])

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, frozenset(self.elements), self.generators)

    def normal_closure(self, gens, ambient_gens=None) -> "Subgroup":
        """Closure of gens under products and conjugation by ambient_gens
        (default: this group's generators), generated by the seeds plus
        the conjugates that enlarged it."""
        if ambient_gens is None:
            ambient_gens = self.generators
        work = [g for g in gens if not g.is_identity]
        closure = self.close(work)
        queue = list(work)
        while queue:
            s = queue.pop()
            for g in ambient_gens:
                t = g * s * g.inv()
                if t not in closure:
                    work.append(t)
                    queue.append(t)
                    closure = self.close(work)
        return Subgroup(self, closure, tuple(work))

    def centralizer(self, other) -> "Subgroup":
        """Elements of this group commuting with every element of other.

        other may be a Subgroup, a PermGroup, or an iterable of permutations;
        commuting with a generating set suffices.
        """
        gens = _generating_set(other)
        members = [
            x for x in self.elements if all(x * g == g * x for g in gens)
        ]
        return self.subgroup_from_elements(members)

    def center(self) -> "Subgroup":
        if self._center is None:
            self._center = self.centralizer(self)
        return self._center

    # -- series and structure ---------------------------------------------------

    def derived_subgroup(self) -> "Subgroup":
        comms = [
            a.commutator(b) for a in self.generators for b in self.generators
        ]
        return self.normal_closure(comms)

    def derived_series(self) -> list["Subgroup"]:
        if self._dseries is not None:
            return self._dseries
        series = [self.full_subgroup()]
        while True:
            cur = series[-1]
            gens = cur.generating_set()
            comms = [a.commutator(b) for a in gens for b in gens]
            # normal closure inside the current term; the term is kept
            # without normal_closure's generators (every commutator seed),
            # because the next step takes commutators of all pairs of them
            closure = self.normal_closure(comms, gens).elements
            if closure == cur.elements:
                break
            nxt = Subgroup(self, closure, None)
            series.append(nxt)
            if nxt.order == 1:
                break
        self._dseries = series
        return series

    def lower_central_series(self) -> list["Subgroup"]:
        if self._lcs is not None:
            return self._lcs
        series = [self.full_subgroup()]
        while True:
            cur = series[-1]
            comms = [
                a.commutator(b)
                for a in cur.generating_set()
                for b in self.generators
            ]
            nxt = self.normal_closure(comms)
            if nxt.elements == cur.elements:
                break
            series.append(nxt)
            if nxt.order == 1:
                break
        self._lcs = series
        return series

    def nilpotent_residue(self) -> "Subgroup":
        """Stable term of the lower central series."""
        return self.lower_central_series()[-1]

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].order == 1

    def is_solvable(self) -> bool:
        return self.derived_series()[-1].order == 1

    def is_abelian(self) -> bool:
        return all(
            a * b == b * a for a in self.generators for b in self.generators
        )

    def is_cyclic(self) -> bool:
        return any(x.order() == self.order for x in self.elements)

    def has_fitting_height_at_most_two(self) -> bool:
        """For solvable groups: the nilpotent residue is itself nilpotent."""
        if not self.is_solvable():
            raise ValueError("Fitting height test requires a solvable group")
        return self.nilpotent_residue().as_group().is_nilpotent()

    def element_orders(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for c in self.conjugacy_classes():
            out[c.order] = out.get(c.order, 0) + c.size
        return out

    def is_generalized_quaternion(self) -> bool:
        """2-group of order >= 8, nonabelian, one involution, cyclic index 2."""
        pp = is_prime_power(self.order)
        if pp is None or pp[0] != 2 or self.order < 8:
            return False
        if self.is_abelian():
            return False
        orders = self.element_orders()
        return orders.get(2, 0) == 1 and orders.get(self.order // 2, 0) > 0

    def sylow_decomposition(self) -> dict[int, "Subgroup"]:
        """Internal Sylow subgroups of a nilpotent group."""
        if not self.is_nilpotent():
            raise ValueError("Sylow decomposition requires a nilpotent group")
        out = {}
        for p, a in factorize(self.order).items():
            members = [x for x in self.elements if _is_p_order(x.order(), p)]
            sub = self.subgroup_from_elements(members)
            if sub.order != p**a:
                raise AssertionError("p-elements of a nilpotent group must form Syl_p")
            out[p] = sub
        return out

    # -- quotients ---------------------------------------------------------------

    def quotient(self, normal: "Subgroup") -> tuple["PermGroup", dict]:
        """Action on the cosets of a normal subgroup.

        Returns (quotient group, map element-id -> coset index).  Cosets are
        ordered by their minimal member, so the construction is deterministic.
        """
        if not normal.is_normal():
            raise ValueError("quotient requires a normal subgroup")
        coset_key: dict[tuple, int] = {}
        reps: list[Permutation] = []
        assignment: dict[int, int] = {}
        for eid, x in enumerate(self.elements):
            key = min((x * u).images for u in normal.elements)
            if key not in coset_key:
                coset_key[key] = len(reps)
                reps.append(Permutation(key))
            assignment[eid] = coset_key[key]
        # renumber cosets by minimal representative
        order = sorted(range(len(reps)), key=lambda i: reps[i].images)
        renum = {old: new for new, old in enumerate(order)}
        assignment = {eid: renum[c] for eid, c in assignment.items()}
        reps = [reps[i] for i in order]
        k = len(reps)
        gen_images = []
        for g in self.generators:
            images = [assignment[self._index[(g * r).images]] for r in reps]
            gen_images.append(Permutation(images))
        q = PermGroup(k, gen_images, name=f"{self.name or 'G'}/N")
        if q.order != k:
            raise AssertionError("coset action has wrong order")
        return q, assignment

    def __repr__(self) -> str:
        label = self.name or "PermGroup"
        return f"<{label}: degree {self.degree}, order {self.order}>"


def _is_p_order(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def _generating_set(other) -> tuple[Permutation, ...]:
    if isinstance(other, Subgroup):
        return other.generating_set()
    if isinstance(other, PermGroup):
        return other.generators or (other.identity(),)
    return tuple(other)


class Subgroup:
    """A subgroup of a PermGroup, identified by its element set."""

    def __init__(self, parent: PermGroup, elements: frozenset, gens, name=None):
        self.parent = parent
        self.elements = frozenset(elements)
        self._gens = tuple(gens) if gens is not None else None
        self.name = name
        self._group: PermGroup | None = None
        self._normal: bool | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, perm: Permutation) -> bool:
        return perm in self.elements

    def __eq__(self, other) -> bool:
        if isinstance(other, Subgroup):
            return self.elements == other.elements
        return NotImplemented

    def __le__(self, other: "Subgroup") -> bool:
        return self.elements <= other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def generating_set(self) -> tuple[Permutation, ...]:
        if self._gens is None:
            gens: list[Permutation] = []
            closure = frozenset([self.parent.identity()])
            for x in sorted(self.elements):
                if x not in closure:
                    gens.append(x)
                    closure = self.parent.close(gens)
                    if len(closure) == self.order:
                        break
            self._gens = tuple(gens)
        return self._gens

    def as_group(self) -> PermGroup:
        if self._group is None:
            self._group = PermGroup(
                self.parent.degree, self.generating_set(), name=self.name
            )
            if self._group.order != self.order:
                raise AssertionError("generating set does not span the subgroup")
        return self._group

    def is_normal(self) -> bool:
        """A subgroup (the set is closed under products) normalized by the
        parent's generators."""
        if self._normal is None:
            gens = self.generating_set()
            self._normal = self.parent.close(gens) == self.elements and all(
                g * s * g.inv() in self.elements
                for g in self.parent.generators
                for s in gens
            )
        return self._normal

    def __repr__(self) -> str:
        label = self.name or "Subgroup"
        return f"<{label}: order {self.order} in {self.parent!r}>"


# -- spec-level convenience wrappers ---------------------------------------------


def group_from_generators(degree, gens, name=None, order_bound=ORDER_BOUND) -> PermGroup:
    return PermGroup(degree, gens, name=name, order_bound=order_bound)


def frattini_of_pgroup(pgroup: Subgroup | PermGroup, p: int) -> Subgroup:
    """Frattini subgroup of a p-group: normal closure of generator
    commutators and p-th powers (equals P' * P^p)."""
    if isinstance(pgroup, PermGroup):
        pgroup = pgroup.full_subgroup()
    pp = is_prime_power(pgroup.order)
    if pgroup.order != 1 and (pp is None or pp[0] != p):
        raise ValueError(f"not a {p}-group (order {pgroup.order})")
    gens = pgroup.generating_set()
    seed = [a.commutator(b) for a in gens for b in gens]
    seed += [g**p for g in gens]
    closure = pgroup.parent.normal_closure(seed, gens).elements
    return Subgroup(pgroup.parent, closure, None)


def quotient_module_action(
    group: PermGroup, psub: Subgroup, usub: Subgroup, acting_gens
) -> tuple[list[np.ndarray], list[Permutation], int, int]:
    """Matrices of acting_gens (by conjugation) on the elementary abelian
    quotient P/U over F_p.

    Returns (matrices, basis coset representatives, p, n).  The basis is the
    first elements of P (in sorted order) whose cosets are independent.
    """
    if not usub.elements <= psub.elements:
        raise ValueError("U must be contained in P")
    idx = psub.order // usub.order
    pp = is_prime_power(idx)
    if pp is None:
        raise ValueError("P/U is not a nontrivial p-group")
    p, n = pp
    u_els = sorted(usub.elements)

    def coset_key(x: Permutation) -> tuple:
        return min((x * u).images for u in u_els)

    # check elementary abelian: x^p in U and commutators in U
    basis: list[Permutation] = []
    vec_of: dict[tuple, tuple] = {coset_key(group.identity()): (0,) * n}
    members: list[tuple[Permutation, tuple]] = [(group.identity(), (0,) * n)]
    for x in sorted(psub.elements):
        if len(basis) == n:
            break
        key = coset_key(x)
        if key in vec_of:
            continue
        if x**p not in usub.elements:
            raise ValueError("P/U is not elementary abelian (wrong exponent)")
        for b in basis:
            if b.commutator(x) not in usub.elements:
                raise ValueError("P/U is not elementary abelian (not abelian)")
        i = len(basis)
        basis.append(x)
        new_members = list(members)
        for y, vec in members:
            cur = y
            for c in range(1, p):
                cur = cur * x
                nv = vec[:i] + (c,) + vec[i + 1 :]
                nk = coset_key(cur)
                vec_of[nk] = nv
                new_members.append((cur, nv))
        members = new_members
    if len(vec_of) != idx or len(basis) != n:
        raise ValueError("could not span P/U with p-power cosets")

    mats = []
    for h in acting_gens:
        hinv = h.inv()
        cols = []
        for b in basis:
            img = h * b * hinv
            if img not in psub.elements:
                raise ValueError("acting element does not normalize P")
            cols.append(vec_of[coset_key(img)])
        mats.append(np.array(cols, dtype=np.int64).T % p)
    return mats, basis, p, n


def direct_product(a: PermGroup, b: PermGroup, name=None) -> PermGroup:
    """Direct product acting on the disjoint union of the point sets."""
    d = a.degree + b.degree
    gens = [list(g.images) + list(range(a.degree, d)) for g in a.generators]
    gens += [
        list(range(a.degree)) + [a.degree + x for x in g.images]
        for g in b.generators
    ]
    return PermGroup(d, gens, name=name)


# -- group files -------------------------------------------------------------------


def group_to_dict(group: PermGroup) -> dict:
    doc = {
        "degree": group.degree,
        "generators": [list(g.images) for g in group.generators],
    }
    if group.name:
        doc["name"] = group.name
    return doc


def group_to_json(group: PermGroup) -> str:
    return json.dumps(group_to_dict(group), sort_keys=True, separators=(",", ":")) + "\n"


def group_from_dict(doc: dict, order_bound=ORDER_BOUND) -> PermGroup:
    return PermGroup(
        doc["degree"],
        [Permutation(images) for images in doc["generators"]],
        name=doc.get("name"),
        order_bound=order_bound,
    )


def group_from_json(text: str, order_bound=ORDER_BOUND) -> PermGroup:
    return group_from_dict(json.loads(text), order_bound=order_bound)


def save_group(group: PermGroup, path) -> None:
    with open(path, "w") as fh:
        fh.write(group_to_json(group))


def load_group(path, order_bound=ORDER_BOUND) -> PermGroup:
    with open(path) as fh:
        return group_from_json(fh.read(), order_bound=order_bound)
