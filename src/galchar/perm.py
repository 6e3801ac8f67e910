"""Finite permutation groups at desk scale.

A group is enumerated once, breadth-first over its generator list, into an
(|G|, degree) image array (bounded, default 5e5 rows) of the narrowest
unsigned type that holds degree - 1: uint8 up to 256 points, uint16 up to
65,536.  Under NumPy 2's promotion rules (NEP 50) an image value combined
with a Python int keeps that type and wraps silently, so every arithmetic
on image values meets an int64 array (ids, labels) first.  An element is
its id, the index of its row; a subgroup is a sorted id array.  Products,
closures, centralizers, classes and cosets all work on ids, batched over
arrays, and ids are what the other modules pass to it and get back.
`Permutation` is the value type at the edges only: generators (and so group
files and the constructors), `element`, `elements`, `close()` and `ids_of`,
which finds the ids of permutations.  It composes (`*`) but keeps no other
arithmetic: inverses, powers and orders are read off ids.
A subgroup's predicates (cyclic, nilpotent, generalized quaternion) and its
Sylow subgroups come from the element orders of its ids, read off the
parent's classes, so no subgroup is enumerated again as a group of its own.

Elements are found by their images of a base (Sims 1970; Seress,
Permutation Group Algorithms, 2003, ch. 4).  Every element carries a label,
its class of equal images on the points kept so far.  The points are walked
in order, and one is kept only if its images split those classes further,
r points in all, until every element is told apart.  A kept point b records
a table of (labels + 1) x degree cells: cell label * degree + x holds the
next label of the elements with that label and image x at b, or -1 where no
element has them; the last table holds ids instead.  The elements with one
label are a coset gK of the pointwise stabilizer K of the points before b,
and their images of b split every such coset into the same |K : K_b| >= 2
parts.  So the number of labels at least doubles at each kept point, and
the real cells of all tables together are fewer than |G| degree, the size
of the image array.  The extra row, the last, is degree cells of -1: a -1
label reads cell -degree + x, in that row, so a lookup walks on with -1
and tests its labels once, after the last table; a -1 there raises
KeyError.  A product of any number of factors composes only the r base
images and walks them through the r tables; powers, commutation tests and a
character table's products x^-1 z are such products.  So is an inverse: x^-1
takes a base point to its position in x's row, and lies in G, so, as for a
product, no whole row is compared.  Rows from outside the group
(`ids_of_rows`, `ids_of`) may agree with an element on the base only, so
their whole row must also equal the element's.
Two rows first differ at a base point, since a point _base_tables skipped
has its image decided by the kept points before it: base images order the
elements as their image tuples do.

Classes are the orbits of conjugation by the generators.  Their power maps,
one (k, e) int32 array indexed by exponents 0..e-1 (e the group exponent),
drive the Galois action on characters, and come from a handful of group
products (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
2005, ch. 7):

- for each prime q dividing |G|, one power of every class representative
  gives the q-th power map.  x -> x^q permutes the classes of q'-elements
  and takes every other class to one whose order has one factor q fewer, so
  the q-part of a class order is q^d, d the number of steps from the class
  to a cycle of the map;
- for each generator s of the units mod e, one more power gives the s-th
  map.  Every t is gcd(t, e) u (mod e) for a unit u, and x ~ y implies
  x^s ~ y^s, so a breadth-first walk over Z/e from 1 fills column t s from
  column t by the s-th map, for s running over the primes and the units.

Arrays of more than CELL_BUDGET cells (the power maps, and a character
table's k x k arrays and the products its split keeps, at most |G| k, see
chartab) raise OrderBoundExceeded before they are allocated.  That is 14x
the largest input in the repo, but it is a tighter limit than ORDER_BOUND
on groups with many classes: a character table needs k^2 <= 4e7, so an
abelian group (k = |G|) of more than 6,324 elements, C80 x C80 for one, is
refused.

All orderings are deterministic: ids follow the breadth-first order over
the generator list, classes are sorted by (element order, class size,
minimal member), cosets by minimal member, where members compare as image
tuples.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from math import lcm

import numpy as np

from .numth import factorize, is_prime_power, unit_generators

ORDER_BOUND = 500_000
CELL_BUDGET = 40_000_000  # cells of the largest derived array (k e, k^2 or products kept)
_BLOCK_CELLS = 1 << 16  # the one block size: cells of a block of any array built or read in blocks


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

    @classmethod
    def _of_row(cls, images) -> "Permutation":
        """A row of a group's image array, a permutation by construction, so
        not checked again."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "images", tuple(images))
        return perm

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

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (a * b)(x) = a(b(x))."""
        a = self.images
        return Permutation(tuple(a[x] for x in other.images))

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

    @property
    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

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
    """One conjugacy class: its least member's image row, members, and its
    power map.  Equality compares members and order, which determine the
    representative."""

    row: np.ndarray = field(compare=False, repr=False)  # in the image type
    element_ids: tuple[int, ...]
    order: int
    powers: np.ndarray = field(compare=False, repr=False)  # its row of power_maps

    @property
    def size(self) -> int:
        return len(self.element_ids)


def _void(rows: np.ndarray) -> np.ndarray:
    """Each row of a C-contiguous array as one opaque byte string."""
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def _base_tables(images: np.ndarray) -> tuple[list[int], list[np.ndarray]]:
    """(base, tables) of the rows images, as the module docstring has them:
    the points, in order, each kept only if it splits the classes of equal
    images on the points kept so far, and for each kept point the table from
    label * degree + image to the next label, numbered in cell order, the
    last one to the id, each table ending in a row of degree cells of -1.
    ValueError if two rows are equal."""
    n, deg = images.shape
    label, parts, base, tables = np.zeros(n, dtype=np.int64), 1, [], []
    for point in range(deg):
        if parts == n:
            break
        code = label * deg + images[:, point]
        split, label_with = np.unique(code, return_inverse=True)
        if len(split) > parts:
            table = np.full((parts + 1) * deg, -1, dtype=np.int64)  # a last row of -1s
            parts, label = len(split), label_with.ravel()
            table[code] = label if parts < n else np.arange(n)
            base.append(point)
            tables.append(table)
    if parts < n:
        raise ValueError("two rows are equal, so no points tell them apart")
    return base, tables


def _check_cells(cells: int, what: str) -> None:
    if cells > CELL_BUDGET:
        raise OrderBoundExceeded(f"{what} has {cells} cells, over the budget {CELL_BUDGET}")


def _orders_from_prime_maps(maps: dict[int, np.ndarray], k: int) -> np.ndarray:
    """Class orders from the q-th power maps of the classes, one map for each
    prime q dividing |G|: the q-part of an order is q to the number of steps
    from the class to a cycle of the map (see the module docstring)."""
    orders = np.ones(k, dtype=np.int64)
    for q, qmap in maps.items():
        on_cycle = np.ones(k, dtype=bool)
        while True:  # the image of the image ... shrinks to the cycles
            image = np.zeros(k, dtype=bool)
            image[qmap[on_cycle]] = True
            if np.array_equal(image, on_cycle):
                break
            on_cycle = image
        at = np.arange(k)
        while not on_cycle[at].all():
            orders[~on_cycle[at]] *= q
            at = qmap[at]
    return orders


def _compose_power_maps(maps: dict[int, np.ndarray], k: int, e: int) -> np.ndarray:
    """The (k, e) int32 array whose [c, t] entry is the class of rep_c**t,
    from the s-th power maps of the classes for the exponents s in maps:
    breadth-first over Z/e from 1, column t s is column t mapped by the
    s-th map (power maps commute).  Every t must be reached."""
    out = np.full((e, k), -1, dtype=np.int32)
    out[1 % e] = np.arange(k)
    walk = [1 % e]
    for t in walk:  # grows while it is walked
        for s, smap in maps.items():
            ts = t * s % e
            if out[ts, 0] < 0:
                out[ts] = smap[out[t]]
                walk.append(ts)
    if (out[:, 0] < 0).any():
        raise AssertionError("power-map exponents do not generate Z/e")
    return np.ascontiguousarray(out.T)


def orbit_labels(n: int, maps) -> np.ndarray:
    """Orbit number of each id 0..n-1 under the id maps, numbered in order
    of the least id.  Each id points at a smaller one of its orbit or, a
    root, at itself.  Each round hooks the larger root of x and m(x) onto
    the smaller, for every x and map m, then jumps every pointer to its
    root, until no x and m(x) have two roots; each orbit's is its least id."""
    root, maps = np.arange(n), [np.asarray(m, dtype=np.int64) for m in maps]
    while maps:
        near, far = np.tile(root, len(maps)), np.concatenate([root[m] for m in maps])
        apart = near != far
        if not apart.any():
            break
        np.minimum.at(root, np.maximum(near, far)[apart], np.minimum(near, far)[apart])
        while not np.array_equal(root, jumped := root[root]):
            root = jumped
    return (np.cumsum(root == np.arange(n)) - 1)[root]


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
        self._power_maps: np.ndarray | None = None
        self._series_ids: dict[str, list] = {}

    def _enumerate(self, order_bound: int) -> None:
        """Breadth-first over the generators into self.images.  Each layer
        stacks frontier[:, g], the products x * g, in (x, g) order and keeps
        the rows not seen before, in that order.  Every array here, and the
        set's row keys, are in the image type (see the module docstring)."""
        deg, ngen = self.degree, len(self.generators)
        point = np.min_scalar_type(max(deg - 1, 0))
        gens = np.array([g.images for g in self.generators], dtype=point).reshape(ngen, deg)
        frontier = np.arange(deg, dtype=point)[None, :]
        seen, layers = set(_void(frontier).tolist()), [frontier]
        while len(frontier):
            stacked = frontier[:, gens].reshape(-1, deg)
            keep = []
            for i, key in enumerate(_void(stacked).tolist()):
                if key not in seen:
                    seen.add(key)
                    keep.append(i)
            if len(seen) > order_bound:
                raise OrderBoundExceeded(f"group order exceeds bound {order_bound}")
            frontier = stacked[keep]
            layers.append(frontier)
        self.images: np.ndarray = np.concatenate(layers)

    # -- elements and products ------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.images)

    def element(self, eid: int) -> Permutation:
        return Permutation._of_row(self.images[eid].tolist())

    @cached_property
    def elements(self) -> list[Permutation]:
        """Every element as a Permutation, in id order."""
        return list(map(Permutation._of_row, self.images.tolist()))

    def ids_of(self, perms) -> np.ndarray:
        """Ids of permutations; KeyError if one is not in the group."""
        rows = [p.images for p in perms]
        if any(len(r) != self.degree for r in rows):
            raise KeyError("permutation of another degree")
        return self.ids_of_rows(np.array(rows, dtype=np.int64).reshape(-1, self.degree))

    @cached_property
    def _lookup(self) -> tuple[list[int], list[np.ndarray]]:
        """(base, tables) as _base_tables gives them, built on the first
        lookup: building the group looks nothing up."""
        return _base_tables(self.images)

    @cached_property
    def _base(self) -> np.ndarray:
        """The base points as an int64 array: the identity's base images."""
        return np.asarray(self._lookup[0], dtype=np.int64)

    def _ids_of_base_images(self, points: np.ndarray) -> np.ndarray:
        """Ids of the elements with the base images points (..., r), one
        table cell per base point; KeyError on a -1 cell.  A -1 label reads
        the table's last row, all -1, so no label is tested on the way."""
        label, deg = np.zeros(points.shape[:-1], dtype=np.int64), self.degree
        for i, table in enumerate(self._lookup[1]):
            cells = label * deg
            cells += points[..., i]  # in place: one temporary per step
            label = table[cells]
        if (label < 0).any():
            raise KeyError("no element has these base images")
        return label

    def ids_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Element ids for a stack of image rows; KeyError if one is not in
        G.  The base images find the only candidate, and the whole row must
        equal it: a row from outside may agree with an element on the base.
        The rows are read as int64, so no value wraps into the image type."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self.degree:
            raise KeyError("row of another degree")
        points = rows[:, self._lookup[0]]
        if not ((points >= 0) & (points < self.degree)).all():
            raise KeyError("row is not a permutation of the group's points")
        ids = self._ids_of_base_images(points)
        if not np.array_equal(self.images[ids], rows):
            raise KeyError("row is not an element of the group")
        return ids

    @cached_property
    def gen_ids(self) -> np.ndarray:
        return self.ids_of(self.generators)

    @cached_property
    def inverse(self) -> np.ndarray:
        """inverse[i]: the id of the inverse of element i, found by its base
        images, the positions of the base points in row i."""
        base = self._lookup[0]
        points = np.array([(self.images == b).argmax(axis=1) for b in base], dtype=np.int64)
        return self._ids_of_base_images(points.reshape(len(base), self.order).T)

    @cached_property
    def rank(self) -> np.ndarray:
        """rank[i]: the position of element i in the order of image tuples,
        that of its base images.  Labels are numbered in the order of their
        cells, (label before, image), so the id cells of the last table run
        in that order; an empty base leaves the identity alone."""
        tables = self._lookup[1]
        by = tables[-1][tables[-1] >= 0] if tables else np.zeros(1, dtype=np.int64)
        rank = np.empty(self.order, dtype=np.int64)
        rank[by] = np.arange(self.order)
        return rank

    def mul(self, *factors) -> np.ndarray:
        """Ids of the products f1 * f2 * ... of id arrays, broadcast.  Only
        the base images are composed, r gathers per factor, and they are
        looked up once.  No whole row is compared, and none is needed: a
        product of elements of G lies in G, and no other element of G has
        its base images, so the element found by them is the product."""
        flat, deg, points = self.images.ravel(), self.degree, self._base
        for f in reversed(factors):  # (a * b)(x) = a(b(x)): a flat gather at a's row offset
            points = flat[np.asarray(f, dtype=np.int64)[..., None] * deg + points]
        return self._ids_of_base_images(points)

    def conj(self, g, x) -> np.ndarray:
        """Ids of g * x * g^-1."""
        return self.mul(g, x, self.inverse[g])

    def comm(self, a, b) -> np.ndarray:
        """Ids of the commutators a^-1 * b^-1 * a * b."""
        return self.mul(self.inverse[a], self.inverse[b], a, b)

    def power(self, ids, n: int) -> np.ndarray:
        """Ids of x**n (n >= 0) for the ids x, by repeated squaring with mul
        from id 0, the identity."""
        if n < 0:
            raise ValueError("negative exponent")
        square = np.asarray(ids)
        out = np.zeros(square.shape, dtype=np.int64)
        while n:
            if n & 1:
                out = self.mul(out, square)
            n >>= 1
            if n:
                square = self.mul(square, square)
        return out

    def commuting(self, ids, others) -> np.ndarray:
        """Boolean table whose [i, j] entry says ids[i] commutes with others[j]."""
        xs, ys = np.asarray(ids)[:, None], np.asarray(others)[None, :]
        return self.mul(xs, ys) == self.mul(ys, xs)

    # -- conjugacy classes ----------------------------------------------------

    def conjugacy_classes(self) -> list[ConjugacyClass]:
        if self._classes is not None:
            return self._classes
        rank, everything = self.rank, np.arange(self.order)
        # g x g^-1 for every element x, one generator g at a time
        label = orbit_labels(self.order, [self.conj(g, everything) for g in self.gen_ids])
        sizes = np.bincount(label)
        # each class's members in order of image tuples, the least one first
        grouped = np.lexsort((rank, label))
        least = grouped[np.cumsum(sizes) - sizes]
        prime_maps = {q: label[self.power(least, q)] for q in factorize(self.order)}
        orders = _orders_from_prime_maps(prime_maps, len(sizes))
        e = lcm(*orders.tolist())
        _check_cells(len(sizes) * e, "the power-map array")
        by = np.lexsort((rank[least], sizes, orders))  # sorted class -> label
        relabel = np.empty_like(by)
        relabel[by] = np.arange(len(by))
        class_of = relabel[label]
        maps = {q: relabel[qmap[by]] for q, qmap in prime_maps.items()}
        for u in unit_generators(e):
            maps[u] = class_of[self.power(least[by], u)]
        self._power_maps = _compose_power_maps(maps, len(sizes), e)
        self._power_maps.flags.writeable = False
        members = np.split(grouped, np.cumsum(sizes)[:-1])
        self._classes = [
            ConjugacyClass(
                self.images[least[i]], tuple(members[i].tolist()), int(orders[i]), row
            )
            for i, row in zip(by.tolist(), self._power_maps)
        ]
        self._class_of = class_of
        return self._classes

    @property
    def power_maps(self) -> np.ndarray:
        """(k, e) int32: [c, t] is the class of rep_c**t."""
        self.conjugacy_classes()
        return self._power_maps

    @property
    def exponent(self) -> int:
        return self.power_maps.shape[1]

    def class_index_array(self) -> np.ndarray:
        self.conjugacy_classes()
        return self._class_of

    def order_of(self, ids) -> np.ndarray:
        """Element orders of the ids, read off their classes."""
        orders = np.array([c.order for c in self.conjugacy_classes()])
        return orders[self._class_of[ids]]

    # -- subgroup machinery ---------------------------------------------------

    def closure(self, gens, cap: int | None = None, base=None, refuse=None) -> np.ndarray | None:
        """Sorted ids of the subgroup generated by the ids gens and the subgroup
        base (default trivial), or None once it has more than cap elements or
        refuse(ids) is true of the new ids of a layer.  Each breadth-first
        layer multiplies the frontier by every generator and masks out the
        products inside already."""
        gens = np.asarray(gens, dtype=np.int64)
        frontier = np.zeros(1, dtype=np.int64) if base is None else np.asarray(base)
        inside, size = self.mask(frontier), len(frontier)
        while len(frontier) and len(gens):
            frontier = np.flatnonzero(self.mask(self.mul(frontier[:, None], gens)) & ~inside)
            size += len(frontier)
            if cap is not None and size > cap or refuse is not None and refuse(frontier):
                return None
            inside[frontier] = True
        return np.flatnonzero(inside)

    def mask(self, ids) -> np.ndarray:
        """True at the ids, over all ids: its flatnonzero is them, sorted, once each."""
        out = np.zeros(self.order, dtype=bool)
        out[ids] = True
        return out

    def close(self, gens, cap: int | None = None) -> frozenset[Permutation] | None:
        """Subgroup closure of permutations in this group; None beyond cap."""
        ids = self.closure(self.ids_of(gens), cap)
        return None if ids is None else frozenset(map(self.element, ids.tolist()))

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, np.arange(self.order), self.gen_ids)

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

    def centralizer(self, other: "Subgroup", within: "Subgroup | None" = None) -> "Subgroup":
        """Elements of within (default: this group) commuting with every element
        of the subgroup other; commuting with its generators suffices."""
        ids = np.arange(self.order) if within is None else within.ids
        return Subgroup(self, ids[self.commuting(ids, other.gen_ids).all(axis=1)])

    def center(self) -> "Subgroup":
        return self.centralizer(self.full_subgroup())

    def coset_labels(self, normal: "Subgroup") -> np.ndarray:
        """For every element x, the least rank (see rank) in the coset xN,
        the orbit of x under right multiplication by the generators of N."""
        everything = np.arange(self.order)
        orbit = orbit_labels(self.order, [self.mul(everything, u) for u in normal.gen_ids])
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
        return self.full_subgroup().is_nilpotent()

    def is_solvable(self) -> bool:
        return self.derived_series()[-1].order == 1

    def has_fitting_height_at_most_two(self) -> bool:
        """For solvable groups: the nilpotent residue is itself nilpotent."""
        if not self.is_solvable():
            raise ValueError("Fitting height test requires a solvable group")
        return self.nilpotent_residue().is_nilpotent()

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
        ids = np.asarray(ids, dtype=np.int64).ravel()
        self.ids = ids if (ids[1:] > ids[:-1]).all() else np.flatnonzero(parent.mask(ids))
        self._gens = None if gens is None else np.asarray(gens, dtype=np.int64)
        self._normal: bool | None = None

    @property
    def order(self) -> int:
        return len(self.ids)

    def contains(self, ids) -> np.ndarray:
        """Which of the element ids lie in this subgroup, read off its mask
        over the parent's elements."""
        return self.parent.mask(self.ids)[ids]

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

    def derived_subgroup(self) -> "Subgroup":
        """The commutator subgroup, as a subgroup of the parent."""
        gens, parent = self.gen_ids, self.parent
        comms = parent.comm(gens[:, None], gens[None, :]).ravel()
        return parent._normal_closure(comms, gens)

    def is_cyclic(self) -> bool:
        return self.order in self.parent.order_of(self.ids)

    def is_nilpotent(self) -> bool:
        """For each prime q, the elements of q-power order number |H|_q.
        Every Sylow q-subgroup lies among them, so it is the only one, and a
        group whose Sylow subgroups are all normal is nilpotent."""
        orders = self.parent.order_of(self.ids)
        return all((q**a % orders == 0).sum() == q**a for q, a in factorize(self.order).items())

    def is_generalized_quaternion(self) -> bool:
        """A 2-group of order >= 8 with one involution that is not cyclic: a
        p-group with a single subgroup of order p is cyclic or generalized
        quaternion (Burnside)."""
        orders, n = self.parent.order_of(self.ids), self.order
        return bool(n >= 8 and n & (n - 1) == 0 and (orders == 2).sum() == 1 and n not in orders)

    def sylow_decomposition(self) -> dict[int, "Subgroup"]:
        """The Sylow subgroups of a nilpotent subgroup, each its elements of
        prime-power order (see is_nilpotent)."""
        if not self.is_nilpotent():
            raise ValueError("Sylow decomposition requires a nilpotent group")
        orders = self.parent.order_of(self.ids)
        return {
            q: Subgroup(self.parent, self.ids[q**a % orders == 0])
            for q, a in factorize(self.order).items()
        }

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


def frattini_of_pgroup(pgroup: Subgroup, p: int) -> Subgroup:
    """Frattini subgroup of a p-group: normal closure of generator
    commutators and p-th powers (equals P' * P^p)."""
    pp = is_prime_power(pgroup.order)
    if pgroup.order != 1 and (pp is None or pp[0] != p):
        raise ValueError(f"not a {p}-group (order {pgroup.order})")
    group, gens = pgroup.parent, pgroup.gen_ids
    comms = group.comm(gens[:, None], gens[None, :]).ravel()
    return group._normal_closure(np.concatenate([comms, group.power(gens, p)]), gens)


def quotient_module_action(
    group: PermGroup, psub: Subgroup, usub: Subgroup, acting_ids
) -> tuple[list[np.ndarray], np.ndarray, int, int]:
    """Matrices of the elements acting_ids (by conjugation) on the
    elementary abelian quotient P/U over F_p.

    Returns (matrices, ids of the basis coset representatives, p, n).  The
    basis is the first elements of P (in order of image tuples) whose cosets
    are independent.
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
    for h in acting_ids:
        img = group.conj(h, basis)
        if not psub.contains(img).all():
            raise ValueError("acting element does not normalize P")
        cols = [vec_of[key] for key in label[img].tolist()]
        mats.append(np.array(cols, dtype=np.int64).T % p)
    return mats, np.array(basis, dtype=np.int64), p, n


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
