"""Finite permutation groups at desk scale.

A group is enumerated once, breadth-first over its generator list, into an
(|G|, degree) int32 image array (bounded, default 5e5 rows).  An element is
its id, the index of its row; a subgroup is a sorted id array.  Products,
closures, centralizers, classes and cosets all work on ids, batched over
arrays.  `Permutation` is the value type at the edges only: generators,
`elements`, class representatives, `Subgroup.elements` and `close()`.
Classes carry power maps indexed 0..e-1 (e the group exponent) because the
Galois action on characters is driven by them.

All orderings are deterministic: ids follow the breadth-first order over
the generator list, classes are sorted by (element order, class size,
minimal member), cosets by minimal member, where members compare as image
tuples.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
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
        result = Permutation.identity(self.degree)
        for _ in range(n % self.order()):
            result = result * self
        return result

    def _cycles(self) -> list[list[int]]:
        """The cycles of length > 1, each from its least point."""
        seen, out = set(), []
        for start in range(len(self.images)):
            if start not in seen and self.images[start] != start:
                cycle = [start]
                while self.images[cycle[-1]] != start:
                    cycle.append(self.images[cycle[-1]])
                seen.update(cycle)
                out.append(cycle)
        return out

    def order(self) -> int:
        return lcm(1, *map(len, self._cycles()))

    @property
    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def commutator(self, other: "Permutation") -> "Permutation":
        return self.inv() * other.inv() * self * other

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def cycle_string(self) -> str:
        return "".join("(" + " ".join(map(str, c)) + ")" for c in self._cycles()) or "()"

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


def _void(rows: np.ndarray) -> np.ndarray:
    """Each int32 row of a C-contiguous array as one opaque byte string."""
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def orbit_labels(n: int, maps: list[list[int]]) -> np.ndarray:
    """Orbit number of each id 0..n-1 under the id maps; orbits are
    numbered in order of their least id."""
    label, count = [-1] * n, 0
    for start in range(n):
        if label[start] < 0:
            label[start], walk = count, [start]
            for x in walk:  # grows while it is walked: a breadth-first orbit
                for m in maps:
                    if label[m[x]] < 0:
                        label[m[x]] = count
                        walk.append(m[x])
            count += 1
    return np.array(label, dtype=np.int64)


class PermGroup:
    """A permutation group generated by explicit permutations."""

    def __init__(self, degree, generators, name=None, order_bound=ORDER_BOUND):
        self.degree = int(degree)
        gens = [g if isinstance(g, Permutation) else Permutation(g) for g in generators]
        if any(g.degree != self.degree for g in gens):
            raise ValueError("generator degree mismatch")
        self.generators = tuple(g for g in gens if not g.is_identity)
        self.name = name
        self._enumerate(order_bound)
        self._classes: list[ConjugacyClass] | None = None
        self._class_of: np.ndarray | None = None
        self._series_ids: dict[str, list] = {}

    def _enumerate(self, order_bound: int) -> None:
        """Breadth-first over the generators into self.images.  Each layer
        stacks frontier[:, g], the products x * g, in (x, g) order and keeps
        the rows not seen before; element y is element parent[y] times
        generator via[y]."""
        deg, ngen = self.degree, len(self.generators)
        gens = np.array([g.images for g in self.generators], dtype=np.int32)
        frontier = np.arange(deg, dtype=np.int32)[None, :]
        seen = {frontier.tobytes()}
        layers, parents, vias = [frontier], [np.zeros(1, int)], [np.zeros(1, int)]
        while len(frontier):
            stacked = frontier[:, gens.reshape(ngen, deg)].reshape(-1, deg)
            keep = []
            for i, row in enumerate(stacked):
                if (key := row.tobytes()) not in seen:
                    seen.add(key)
                    keep.append(i)
                    if len(seen) > order_bound:
                        raise OrderBoundExceeded(f"group order exceeds bound {order_bound}")
            keep = np.array(keep, dtype=np.int64)
            first = len(seen) - len(keep) - len(frontier)  # id of frontier[0]
            parents.append(first + keep // ngen)
            vias.append(keep % ngen)
            frontier = stacked[keep]
            layers.append(frontier)
        self.images: np.ndarray = np.concatenate(layers)
        self._parent = np.concatenate(parents)
        self._via = np.concatenate(vias)

    # -- elements and products ------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.images)

    def element(self, eid: int) -> Permutation:
        return Permutation(self.images[eid].tolist())

    @cached_property
    def elements(self) -> list[Permutation]:
        """Every element as a Permutation, in id order."""
        return [Permutation(row) for row in self.images.tolist()]

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __contains__(self, perm: Permutation) -> bool:
        try:
            return self.element_id(perm) >= 0
        except KeyError:
            return False

    def element_id(self, perm: Permutation) -> int:
        return int(self.ids_of([perm])[0])

    def ids_of(self, perms) -> np.ndarray:
        """Ids of permutations; KeyError if one is not in the group."""
        rows = [p.images for p in perms]
        if any(len(r) != self.degree for r in rows):
            raise KeyError("permutation of another degree")
        return self.ids_of_rows(np.array(rows, dtype=np.int32).reshape(-1, self.degree))

    @cached_property
    def _row_order(self) -> np.ndarray:
        return np.argsort(_void(self.images))

    def ids_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Element ids for a stack of image rows (each row must lie in G)."""
        order = self._row_order
        rows = np.ascontiguousarray(rows, dtype=np.int32)
        pos = np.searchsorted(_void(self.images), _void(rows), sorter=order)
        ids = order[np.minimum(pos, len(order) - 1)]
        if not np.array_equal(self.images[ids], rows):
            raise KeyError("row is not an element of the group")
        return ids

    @cached_property
    def gen_ids(self) -> np.ndarray:
        return self.ids_of(self.generators)

    @cached_property
    def inverse(self) -> np.ndarray:
        """inverse[i]: the id of the inverse of element i."""
        return self.ids_of_rows(np.argsort(self.images, axis=1))

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(elements, inverses) as int32 image matrices, row i = element i."""
        return self.images, self.images[self.inverse]

    @cached_property
    def rank(self) -> np.ndarray:
        """rank[i]: the position of element i in the order of image tuples."""
        rank = np.empty(self.order, dtype=np.int64)
        rank[np.lexsort(self.images.T[::-1])] = np.arange(self.order)
        return rank

    def mul(self, a, b) -> np.ndarray:
        """Ids of the products a * b, broadcast over id arrays."""
        a, b = np.asarray(a), np.asarray(b)
        ndim = max(a.ndim, b.ndim)
        rows = np.take_along_axis(  # (a * b)(x) = a(b(x)), broadcast
            self.images[a.reshape((1,) * (ndim - a.ndim) + a.shape)],
            self.images[b.reshape((1,) * (ndim - b.ndim) + b.shape)],
            -1,
        )
        return self.ids_of_rows(rows.reshape(-1, self.degree)).reshape(rows.shape[:-1])

    def conj(self, g, x) -> np.ndarray:
        """Ids of g * x * g^-1."""
        return self.mul(self.mul(g, x), self.inverse[g])

    def comm(self, a, b) -> np.ndarray:
        """Ids of the commutators a^-1 * b^-1 * a * b."""
        return self.mul(self.mul(self.inverse[a], self.inverse[b]), self.mul(a, b))

    def power(self, ids, n: int) -> np.ndarray:
        """Ids of x**n (n >= 0) for the ids x, by repeated squaring."""
        out = np.zeros_like(ids)
        while n:
            if n & 1:
                out = self.mul(out, ids)
            ids, n = self.mul(ids, ids), n >> 1
        return out

    def commuting(self, ids, others) -> np.ndarray:
        """Boolean table whose [i, j] entry says ids[i] commutes with others[j]."""
        xs = self.images[ids]
        out = np.ones((len(xs), len(others)), dtype=bool)
        for j, y in enumerate(self.images[others]):
            out[:, j] = (xs[:, y] == y[xs]).all(axis=1)
        return out

    def right_multiplication(self, ids) -> np.ndarray:
        """Row i: the id of x * elements[ids[i]] for every id x.  Element z is
        parent[z] times generator via[z], so its row is that generator's right
        multiplication of its parent's row.  A depth-first walk over the part
        of the enumeration tree above the ids makes one gather per node and
        keeps rows only along the current root path."""
        everything = np.arange(self.order)
        by_gen = [self.mul(everything, g) for g in self.gen_ids]
        parent, via = self._parent.tolist(), self._via.tolist()
        ids = np.asarray(ids).tolist()
        wanted: dict[int, list[int]] = {}  # id -> the rows of out that hold it
        for i, z in enumerate(ids):
            wanted.setdefault(z, []).append(i)
        children: dict[int, list[int]] = {}
        linked = {0}
        for z in wanted:
            while z not in linked:
                linked.add(z)
                children.setdefault(parent[z], []).append(z)
                z = parent[z]
        out = np.empty((len(ids), self.order), dtype=np.int64)
        path = [everything]  # path[d]: the row of the current node at depth d
        stack = [(0, 0)]
        while stack:
            z, depth = stack.pop()
            if depth:
                del path[depth:]
                path.append(by_gen[via[z]][path[depth - 1]])
            out[wanted.get(z, [])] = path[depth]
            stack.extend((c, depth + 1) for c in children.get(z, ()))
        return out

    # -- conjugacy classes ----------------------------------------------------

    def conjugacy_classes(self) -> list[ConjugacyClass]:
        if self._classes is not None:
            return self._classes
        rank = self.rank
        # conj[g][x] = id of g x g^-1, for every element x at once
        conj = self.conj(self.gen_ids[:, None], np.arange(self.order)[None, :])
        label = orbit_labels(self.order, conj.tolist())
        # each class's members in order of image tuples, the least one first
        grouped = np.lexsort((rank, label))
        classes = []
        for members in np.split(grouped, np.cumsum(np.bincount(label))[:-1]):
            rep = self.element(members[0])
            classes.append(ConjugacyClass(rep, tuple(members.tolist()), rep.order()))
        classes.sort(key=lambda c: (c.order, c.size, rank[c.element_ids[0]]))

        class_of = np.empty(self.order, dtype=np.int64)
        for ci, c in enumerate(classes):
            class_of[list(c.element_ids)] = ci
        e = lcm(*(c.order for c in classes))
        # powers[ci, t] = class of rep_ci ** t for t < order; classes are
        # sorted by order, so the reps still stepping form a suffix
        orders = np.array([c.order for c in classes])
        reps = self.images[[c.element_ids[0] for c in classes]]
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
        return lcm(*(c.order for c in self.conjugacy_classes()))

    def class_of(self, perm: Permutation) -> int:
        return int(self.class_index_array()[self.element_id(perm)])

    def class_index_array(self) -> np.ndarray:
        self.conjugacy_classes()
        return self._class_of

    def order_of(self, ids) -> np.ndarray:
        """Element orders of the ids, read off their classes."""
        orders = np.array([c.order for c in self.conjugacy_classes()])
        return orders[self._class_of[ids]]

    # -- subgroup machinery ---------------------------------------------------

    def closure(self, gens, cap: int | None = None, base=None) -> np.ndarray | None:
        """Sorted ids of the subgroup generated by the ids gens and the subgroup
        base (default trivial), or None once it has more than cap elements.
        Each breadth-first layer multiplies the frontier by every generator."""
        gens = np.asarray(gens, dtype=np.int64)
        frontier = np.zeros(1, dtype=np.int64) if base is None else np.asarray(base)
        inside = np.zeros(self.order, dtype=bool)
        inside[frontier] = True
        size = len(frontier)
        while len(frontier) and len(gens):
            new = self.mul(frontier[:, None], gens[None, :]).ravel()
            frontier = np.unique(new[~inside[new]])
            size += len(frontier)
            if cap is not None and size > cap:
                return None
            inside[frontier] = True
        return np.flatnonzero(inside)

    def close(self, gens, cap: int | None = None) -> frozenset[Permutation] | None:
        """Subgroup closure of permutations in this group; None beyond cap."""
        ids = self.closure(self.ids_of(gens), cap)
        return None if ids is None else frozenset(map(self.element, ids.tolist()))

    def subgroup(self, gens) -> "Subgroup":
        gens = [g if isinstance(g, Permutation) else Permutation(g) for g in gens]
        try:
            ids = self.ids_of(gens)
        except KeyError:
            raise ValueError("generator lies outside the parent group") from None
        return Subgroup(self, self.closure(ids), ids)

    def subgroup_from_elements(self, elements) -> "Subgroup":
        return Subgroup(self, self.ids_of(list(elements)))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, [0], [])

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, np.arange(self.order), self.gen_ids)

    def normal_closure(self, gens, ambient_gens=None) -> "Subgroup":
        """Closure of the permutations gens under products and conjugation
        by ambient_gens (default: this group's generators)."""
        ambient = self.gen_ids if ambient_gens is None else self.ids_of(ambient_gens)
        return self._normal_closure(self.ids_of(gens), ambient)

    def _normal_closure(self, seeds, ambient) -> "Subgroup":
        """Closure of the ids seeds under products and conjugation by the ids
        ambient.  A seed or conjugate becomes a generator only when it enlarges,
        so at least doubles, the closure: at most log2 |N| generators."""
        ambient = np.asarray(ambient, dtype=np.int64)
        gens, closure = [], np.zeros(1, dtype=np.int64)
        inside = np.arange(self.order) == 0
        pending = np.asarray(seeds, dtype=np.int64).tolist()[::-1]
        while pending:
            s = pending.pop()
            if not inside[s]:
                gens.append(s)
                closure = self.closure(gens, base=closure)
                inside[closure] = True
                pending += self.conj(ambient, s).tolist()
        return Subgroup(self, closure, gens)

    def centralizer(self, other, within: "Subgroup | None" = None) -> "Subgroup":
        """Elements of within (default: this group) commuting with every element
        of other (a Subgroup, a PermGroup or permutations, all in this group);
        commuting with a generating set suffices."""
        if isinstance(other, Subgroup):
            gens = other.gen_ids
        else:
            gens = self.ids_of(other.generators if isinstance(other, PermGroup) else other)
        ids = np.arange(self.order) if within is None else within.ids
        return Subgroup(self, ids[self.commuting(ids, gens).all(axis=1)])

    def center(self) -> "Subgroup":
        return self.centralizer(self)

    def coset_labels(self, normal: "Subgroup") -> np.ndarray:
        """For every element x, the least rank (see rank) in the coset xN,
        the orbit of x under right multiplication by the generators of N."""
        everything = np.arange(self.order)
        maps = [self.mul(everything, u).tolist() for u in normal.gen_ids]
        orbit = orbit_labels(self.order, maps)
        least = np.full(orbit.max() + 1, self.order)
        np.minimum.at(least, orbit, self.rank)
        return least[orbit]

    # -- series and structure ---------------------------------------------------

    def derived_subgroup(self) -> "Subgroup":
        return self.full_subgroup().derived_subgroup()

    def _series(self, name: str, step) -> list["Subgroup"]:
        """The whole group, then step(last term) until trivial or stable.
        Cached as id arrays: a group holding Subgroups of itself would be a
        reference cycle, freed only by the cyclic garbage collector."""
        if name not in self._series_ids:
            series = [self.full_subgroup()]
            while series[-1].order > 1:
                nxt = step(series[-1])
                if nxt == series[-1]:
                    break
                series.append(nxt)
            self._series_ids[name] = [(t.ids, t.gen_ids) for t in series]
        return [Subgroup(self, ids, gens) for ids, gens in self._series_ids[name]]

    def derived_series(self) -> list["Subgroup"]:
        return self._series("derived", Subgroup.derived_subgroup)

    def lower_central_series(self) -> list["Subgroup"]:
        gens = self.gen_ids
        return self._series(
            "lower central",
            lambda term: self._normal_closure(
                self.comm(term.gen_ids[:, None], gens[None, :]).ravel(), gens
            ),
        )

    def nilpotent_residue(self) -> "Subgroup":
        """Stable term of the lower central series."""
        return self.lower_central_series()[-1]

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].order == 1

    def is_solvable(self) -> bool:
        return self.derived_series()[-1].order == 1

    def is_abelian(self) -> bool:
        return bool(self.commuting(self.gen_ids, self.gen_ids).all())

    def is_cyclic(self) -> bool:
        return self.order in self.order_of(np.arange(self.order))

    def has_fitting_height_at_most_two(self) -> bool:
        """For solvable groups: the nilpotent residue is itself nilpotent."""
        if not self.is_solvable():
            raise ValueError("Fitting height test requires a solvable group")
        return self.nilpotent_residue().as_group().is_nilpotent()

    def is_generalized_quaternion(self) -> bool:
        """2-group of order >= 8, nonabelian, one involution, cyclic index 2."""
        pp = is_prime_power(self.order)
        if pp is None or pp[0] != 2 or self.order < 8:
            return False
        if self.is_abelian():
            return False
        orders = self.order_of(np.arange(self.order))
        return bool((orders == 2).sum() == 1) and self.order // 2 in orders

    def sylow_decomposition(self) -> dict[int, "Subgroup"]:
        """Internal Sylow subgroups of a nilpotent group."""
        if not self.is_nilpotent():
            raise ValueError("Sylow decomposition requires a nilpotent group")
        orders = self.order_of(np.arange(self.order))
        out = {}
        for p, a in factorize(self.order).items():
            out[p] = Subgroup(self, np.flatnonzero(p**a % orders == 0))
            if out[p].order != p**a:
                raise AssertionError("p-elements of a nilpotent group must form Syl_p")
        return out

    # -- quotients ---------------------------------------------------------------

    def quotient(self, normal: "Subgroup") -> tuple["PermGroup", np.ndarray]:
        """Action on the cosets of a normal subgroup: (quotient group, array
        element id -> coset index), cosets ordered by their minimal member."""
        if not normal.is_normal():
            raise ValueError("quotient requires a normal subgroup")
        least, assignment = np.unique(self.coset_labels(normal), return_inverse=True)
        reps = np.argsort(self.rank)[least]
        gen_images = [assignment[self.mul(g, reps)].tolist() for g in self.gen_ids]
        q = PermGroup(len(reps), gen_images, name=f"{self.name or 'G'}/N")
        if q.order != len(reps):
            raise AssertionError("coset action has wrong order")
        return q, assignment

    def __repr__(self) -> str:
        label = self.name or "PermGroup"
        return f"<{label}: degree {self.degree}, order {self.order}>"


class Subgroup:
    """A subgroup of a PermGroup, held as the sorted ids of its elements.

    Equality, inclusion and hashing compare ids, so subgroups of different
    parent groups are never equal.
    """

    def __init__(self, parent: PermGroup, ids, gens=None):
        self.parent = parent
        self.ids = np.unique(np.asarray(ids, dtype=np.int64))
        self._gens = None if gens is None else np.asarray(gens, dtype=np.int64)
        self._group: PermGroup | None = None
        self._normal: bool | None = None

    @property
    def order(self) -> int:
        return len(self.ids)

    @cached_property
    def elements(self) -> frozenset[Permutation]:
        return frozenset(map(self.parent.element, self.ids.tolist()))

    def contains(self, ids) -> np.ndarray:
        """Which of the element ids lie in this subgroup."""
        return np.isin(ids, self.ids)

    def __contains__(self, perm: Permutation) -> bool:
        return perm in self.parent and bool(self.contains(self.parent.element_id(perm)))

    def __eq__(self, other) -> bool:
        if isinstance(other, Subgroup):
            return self.parent is other.parent and np.array_equal(self.ids, other.ids)
        return NotImplemented

    def __le__(self, other: "Subgroup") -> bool:
        return self.parent is other.parent and bool(other.contains(self.ids).all())

    def __hash__(self) -> int:
        return hash(self.ids.tobytes())

    @property
    def gen_ids(self) -> np.ndarray:
        """Ids of a generating set: the one given, else the elements, in
        order of their image tuples, that enlarge the closure of those
        before them."""
        if self._gens is None:
            by_rank = self.ids[np.argsort(self.parent.rank[self.ids])]
            self._gens = self.parent._normal_closure(by_rank, [])._gens
        return self._gens

    def generating_set(self) -> tuple[Permutation, ...]:
        return tuple(map(self.parent.element, self.gen_ids.tolist()))

    def derived_subgroup(self) -> "Subgroup":
        """The commutator subgroup, as a subgroup of the parent."""
        gens, parent = self.gen_ids, self.parent
        comms = parent.comm(gens[:, None], gens[None, :]).ravel()
        return parent._normal_closure(comms, gens)

    def as_group(self) -> PermGroup:
        if self._group is None:
            self._group = PermGroup(self.parent.degree, self.generating_set())
            if self._group.order != self.order:
                raise AssertionError("generating set does not span the subgroup")
        return self._group

    def is_normal(self) -> bool:
        """A subgroup (the set is closed under products) normalized by the
        parent's generators."""
        if self._normal is None:
            parent, gens = self.parent, self.gen_ids
            closed = np.array_equal(parent.closure(gens), self.ids)
            conjugates = parent.conj(parent.gen_ids[:, None], gens[None, :])
            self._normal = closed and bool(self.contains(conjugates).all())
        return self._normal

    def __repr__(self) -> str:
        return f"<Subgroup: order {self.order} in {self.parent!r}>"


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
    group, gens = pgroup.parent, pgroup.gen_ids
    comms = group.comm(gens[:, None], gens[None, :]).ravel()
    return group._normal_closure(np.concatenate([comms, group.power(gens, p)]), gens)


def quotient_module_action(
    group: PermGroup, psub: Subgroup, usub: Subgroup, acting_gens
) -> tuple[list[np.ndarray], list[Permutation], int, int]:
    """Matrices of acting_gens (by conjugation) on the elementary abelian
    quotient P/U over F_p.

    Returns (matrices, basis coset representatives, p, n).  The basis is the
    first elements of P (in sorted order) whose cosets are independent.
    """
    if not usub <= psub:
        raise ValueError("U must be contained in P")
    idx = psub.order // usub.order
    pp = is_prime_power(idx)
    if pp is None:
        raise ValueError("P/U is not a nontrivial p-group")
    p, n = pp
    label = group.coset_labels(usub)

    # check elementary abelian: x^p in U and commutators in U; members are
    # the products of powers of the basis so far, vecs their exponents
    basis: list[int] = []
    members, vecs = np.zeros(1, dtype=np.int64), np.zeros((1, n), dtype=np.int64)
    for x in psub.ids[np.argsort(group.rank[psub.ids])].tolist():
        if len(basis) == n:
            break
        if label[x] in label[members]:
            continue
        if not usub.contains(group.power(x, p)):
            raise ValueError("P/U is not elementary abelian (wrong exponent)")
        if basis and not usub.contains(group.comm(basis, x)).all():
            raise ValueError("P/U is not elementary abelian (not abelian)")
        steps = [members]
        for _ in range(1, p):
            steps.append(group.mul(steps[-1], x))
        members, vecs = np.concatenate(steps), np.tile(vecs, (p, 1))
        vecs[:, len(basis)] = np.repeat(np.arange(p), len(steps[0]))
        basis.append(x)
    vec_of = dict(zip(label[members].tolist(), vecs.tolist()))
    if len(vec_of) != idx or len(basis) != n:
        raise ValueError("could not span P/U with p-power cosets")

    mats = []
    for h in group.ids_of(acting_gens):
        img = group.conj(h, basis)
        if not psub.contains(img).all():
            raise ValueError("acting element does not normalize P")
        cols = [vec_of[key] for key in label[img].tolist()]
        mats.append(np.array(cols, dtype=np.int64).T % p)
    return mats, [group.element(b) for b in basis], p, n


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


def group_from_dict(doc: dict) -> PermGroup:
    return PermGroup(doc["degree"], doc["generators"], name=doc.get("name"))


def group_from_json(text: str) -> PermGroup:
    return group_from_dict(json.loads(text))


def save_group(group: PermGroup, path) -> None:
    with open(path, "w") as fh:
        fh.write(group_to_json(group))


def load_group(path) -> PermGroup:
    with open(path) as fh:
        return group_from_json(fh.read())
