"""Classes and power maps from a handful of group products.

Class orders are read off the prime power maps and the (k, e) power-map
array is composed from the maps for the primes and the unit generators mod
e.  The reference below is the earlier code: orders from the cycles of each
representative, and every representative stepped through every exponent
below the largest order.  Limits on derived arrays trip before anything
large is allocated; those inputs run in a child process so that its peak
memory can be read.
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from galchar import cli
from galchar.constructors import CaseParams, ParamsInvalid, construct_case, sweep_parameter_points
from galchar.corpus import CORPUS, build
from galchar.numth import unit_generators
from galchar.perm import CELL_BUDGET, PermGroup, group_to_json, orbit_labels
from reference import commutator, inverse, order, power
from test_metamorphic import relabelling


def reference_rank(group):
    """Positions in the order of image tuples, by a sort over every point."""
    rank = np.empty(group.order, dtype=np.int64)
    rank[np.lexsort(group.images.T[::-1])] = np.arange(group.order)
    return rank


def reference_classes(group):
    """(order, element ids, power map) of each class, as computed before the
    prime power maps: one conjugation map per generator, permutation orders,
    and one lookup per class and exponent below the
    largest order."""
    images, rank = group.images, reference_rank(group)
    maps = []
    for g in group.generators:
        row = np.array(g.images)
        maps.append(group.ids_of_rows(row[images[:, np.argsort(row)]]).tolist())
    label = orbit_labels(group.order, maps)
    grouped = np.lexsort((rank, label))
    classes = []
    for members in np.split(grouped, np.cumsum(np.bincount(label))[:-1]):
        classes.append((order(group.element(members[0])), members))
    classes.sort(key=lambda c: (c[0], len(c[1]), rank[c[1][0]]))
    class_of = np.empty(group.order, dtype=np.int64)
    for ci, (_, members) in enumerate(classes):
        class_of[members] = ci
    orders = np.array([order for order, _ in classes])
    e = int(np.lcm.reduce(orders))
    reps = images[[members[0] for _, members in classes]]
    cur = np.tile(np.arange(group.degree, dtype=np.int32), (len(classes), 1))
    powers = np.zeros((len(classes), int(orders[-1])), dtype=np.int64)
    for t in range(int(orders[-1])):
        first = int(np.searchsorted(orders, t, side="right"))
        powers[first:, t] = class_of[group.ids_of_rows(cur[first:])]
        cur[first:] = np.take_along_axis(cur[first:], reps[first:], 1)
    return [
        (int(order), tuple(members.tolist()), tuple(powers[ci, np.arange(e) % order].tolist()))
        for ci, (order, members) in enumerate(classes)
    ]


def _sweep_groups():
    out = {}
    for params in sweep_parameter_points():
        try:
            out[params.label()] = construct_case(params)
        except ParamsInvalid:
            continue
    return out


SWEEP = _sweep_groups()
A7 = {f"a7(h={h})": CaseParams("a7", 2, 2, 1, h) for h in (3, 4)}


def _group(key):
    if key in SWEEP:
        return SWEEP[key]
    if key in A7:
        return construct_case(A7[key])
    return build(key)


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("key", [e.key for e in CORPUS] + sorted(SWEEP) + sorted(A7))
def test_classes_match_the_stepping_reference(key, relabel):
    group = _group(key)
    if relabel:
        group = relabelling(group, seed=len(key))[0]
    else:
        group = PermGroup(group.degree, group.generators)  # classes not cached yet
    got = [(c.order, c.element_ids, tuple(c.powers.tolist())) for c in group.conjugacy_classes()]
    assert got == reference_classes(group)
    assert np.array_equal(group.rank, reference_rank(group))
    assert group.power_maps.dtype == np.int32
    assert group.power_maps.shape == (len(got), group.exponent)


@pytest.mark.parametrize("key", ["S4", "SL(2,3)", "Q8:C9", "Heis3:Q8", "F8:C7", "a7(h=3)"])
def test_power_maps_compose(key):
    powers = _group(key).power_maps
    e = powers.shape[1]
    t = np.arange(e)
    # [c, a, b]: the class of (rep_c^a)^b against that of rep_c^(a b)
    assert np.array_equal(powers[powers], powers[:, np.outer(t, t) % e])
    assert np.array_equal(powers[:, 1], np.arange(len(powers)))
    assert not powers[:, 0].any()


@pytest.mark.parametrize("key", ["S4", "SL(2,3)", "Heis3:Q8"])
def test_products_of_many_factors_match_permutation_arithmetic(key):
    group = build(key)
    elements = group.elements
    rng = np.random.default_rng(11)
    a, b, c, d = rng.integers(0, group.order, (4, 30))
    for x, y, z, w, xyz, xyzw, conj, comm in zip(
        a, b, c, d,
        group.mul(a, b, c),
        group.mul(a, b, c, d),
        group.conj(a, b),
        group.comm(a, b),
    ):
        x, y, z, w = elements[x], elements[y], elements[z], elements[w]
        assert elements[xyz] == x * y * z
        assert elements[xyzw] == x * y * z * w
        assert elements[conj] == x * y * inverse(x)
        assert elements[comm] == commutator(x, y)
    # broadcasting: a column, a scalar and a row
    table = group.mul(a[:5, None], b[0], c[None, :7])
    assert table.shape == (5, 7)
    for i in range(5):
        for j in range(7):
            assert elements[table[i, j]] == elements[a[i]] * elements[b[0]] * elements[c[j]]
    exponent = group.exponent
    for n in (0, 1, 2, 3, 5, exponent - 1, exponent, exponent + 1, 3 * exponent + 2):
        for x, xn in zip(a, group.power(a, n)):
            assert elements[xn] == power(elements[x], n)
    assert group.power(a[0], 2).shape == ()


def _generated(gens, e):
    reached, walk = {1 % e}, [1 % e]
    for r in walk:
        for u in gens:
            if r * u % e not in reached:
                reached.add(r * u % e)
                walk.append(r * u % e)
    return reached


def test_unit_generators_generate_the_units_irredundantly():
    for e in range(1, 200):
        gens = unit_generators(e)
        assert _generated(gens, e) == {u for u in range(e) if np.gcd(u, e) == 1} | {1 % e}
        assert all(u not in _generated(gens[:i], e) for i, u in enumerate(gens))


# Child process: build a direct product of cyclic groups on disjoint blocks,
# call into it, and report the seconds of that call and the ru_maxrss growth
# (kB) since before the build, until OrderBoundExceeded.  Exit 3 if nothing
# raised.
_TRIP = """
import json, resource, sys, time
from galchar.chartab import character_table
from galchar.perm import OrderBoundExceeded, PermGroup
blocks = json.loads(sys.argv[1])
degree, gens, start = sum(blocks), [], 0
for n in blocks:
    images = list(range(degree))
    images[start : start + n] = [start + (i + 1) % n for i in range(n)]
    gens.append(images)
    start += n
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
group = PermGroup(degree, gens)
t0 = time.perf_counter()
try:
    character_table(group) if sys.argv[2] == "table" else group.conjugacy_classes()
except OrderBoundExceeded as exc:
    grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    print(json.dumps([time.perf_counter() - t0, grown, str(exc)]))
    sys.exit(0)
sys.exit(3)
"""


@pytest.mark.parametrize(
    "blocks,call,what",
    [
        # |G| = k = e = 27,720: k e is about 7.7e8
        ([5, 7, 8, 9, 11], "classes", "power-map"),
        # C2^14: k e = 32,768, but k^2 is about 2.7e8
        ([2] * 14, "table", "k x k table"),
    ],
)
def test_cell_budget_trips_before_allocating(blocks, call, what):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", _TRIP, json.dumps(blocks), call],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    seconds, grown_kb, message = json.loads(done.stdout)
    assert what in message and str(CELL_BUDGET) in message
    assert seconds < 1.0
    assert grown_kb < 50 * 1024


def test_cell_budget_makes_the_cli_exit_2(tmp_path, capsys):
    gens = [[2 * i + 1 if x == 2 * i else 2 * i if x == 2 * i + 1 else x for x in range(28)]
            for i in range(14)]
    path = tmp_path / "c2_14.json"
    path.write_text(group_to_json(PermGroup(28, gens)))
    assert cli.main(["chartab", str(path)]) == 2
    assert "budget" in capsys.readouterr().err


def test_largest_inputs_leave_ten_times_headroom():
    group = construct_case(CaseParams("a3", 2, 2, 1, 6))
    k, e = group.power_maps.shape
    assert 10 * max(k * e, group.order * k) < CELL_BUDGET
