import pickle
import random
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from itertools import islice, product
from math import gcd, prod
from operator import mul
from pathlib import Path

import pytest

import brute
import corpus
from linecoh import (
    Arrangement,
    BudgetExceededError,
    LocalSystemError,
    charvar,
    cone,
    h1_at_point,
    make_local_system,
    parse_arrangement,
    torsion_scan,
)
from linecoh.charvar import (
    ComponentFamily,
    ScanHit,
    TorusPoint,
    _diagonal_form,
    _field_width,
    _span,
    _sparse,
    candidate_points,
)
from linecoh.mincomplex import cohomology_dims
from linecoh.resband import incidence_table

# The two order-2 points of deleted B3 that lie on four catalog families
# (Omega among them); h1 = 2 there.
FOUR_FAMILY_POINTS = ((0, 1, 1, 0, 0, 1, 0, 1), (1, 0, 0, 1, 0, 1, 0, 1))


def assert_two_sided(hits, catalog, order):
    """The deleted-B3 scan hits are exactly the catalog's nontrivial torsion
    points of order dividing N, and h1 = 2 on C_5678 and at the two
    four-family points, h1 = 1 at every other hit."""
    points = [hit.point for hit in hits]
    catalogued = {
        TorusPoint(exps, order)
        for f in catalog
        for exps in f.torsion_exponents(order)
        if any(exps)
    }
    assert len(set(points)) == len(points)
    assert set(points) == catalogued
    c5678 = next(f for f in catalog if f.name == "C_5678")
    deep = set()
    if order % 2 == 0:
        half = order // 2
        deep = {
            TorusPoint(tuple(e * half for e in q), order) for q in FOUR_FAMILY_POINTS
        }
    for hit in hits:
        assert hit.h1 == (2 if c5678.contains(hit.point) or hit.point in deep else 1)


def test_deleted_b3_incidence():
    proj, catalog = corpus.b3()
    assert proj.n == 8 and proj.infinity_index == 7
    assert len(catalog) == 13
    on_h5 = {p.incident for p in proj.multiple_points() if 4 in p.incident}
    assert on_h5 == {frozenset({1, 2, 4}), frozenset({4, 5, 6, 7})}
    on_h8 = {p.incident for p in proj.multiple_points() if 7 in p.incident}
    assert on_h8 == {
        frozenset({0, 1, 7}),
        frozenset({2, 3, 7}),
        frozenset({4, 5, 6, 7}),
    }
    # the six local triple families really sit at triple points
    triples = {p.incident for p in proj.multiple_points() if p.multiplicity == 3}
    named = {
        frozenset({0, 2, 5}),
        frozenset({0, 3, 6}),
        frozenset({1, 2, 4}),
        frozenset({0, 1, 7}),
        frozenset({1, 3, 5}),
        frozenset({2, 3, 7}),
    }
    assert named <= triples


def test_family_validation():
    with pytest.raises(ValueError, match="constraint"):
        ComponentFamily(name="bad", signs=(1, 0), powers=((1,), (-1,)))
    with pytest.raises(ValueError, match="pinned"):
        ComponentFamily(name="bad", signs=(0, 0), powers=((2,), (-2,)))
    with pytest.raises(ValueError, match="column"):
        ComponentFamily(name="bad", signs=(0, 0), powers=((1,), (1,)))
    # four signs for three rows: zip in ``contains`` would drop the fourth
    with pytest.raises(ValueError, match="short: 4 signs for 3 power rows"):
        ComponentFamily(
            name="short", signs=(0, 1, 1, 0), powers=((1,), (-1,), (0,))
        )
    with pytest.raises(ValueError, match="empty: no power rows"):
        ComponentFamily(name="empty", signs=(), powers=())
    # a row shorter than the others: zip would drop its missing powers
    with pytest.raises(ValueError, match="ragged: power rows of unequal length"):
        ComponentFamily(
            name="ragged", signs=(0, 0, 0), powers=((1, 0), (0, 1), (-1,))
        )
    # signs and powers are read by ``operator.index``: a float column that
    # sums to 0 is refused, and a sign of 1.0 like one of 1.5
    with pytest.raises(ValueError, match="float: signs and powers must be integers"):
        ComponentFamily(name="float", signs=(0, 0, 0), powers=((1,), (-1.5,), (0.5,)))
    with pytest.raises(ValueError, match="integers"):
        ComponentFamily(name="float", signs=(1.0, 1.0), powers=((1,), (-1,)))
    # lists are kept as tuples, so the family equals the tuple-built one and
    # hashes
    listed = ComponentFamily(name="listed", signs=[1, 1], powers=[[1], [-1]])
    built = ComponentFamily(name="listed", signs=(1, 1), powers=((1,), (-1,)))
    assert listed == built and hash(listed) == hash(built)


def test_families_contain_their_own_points():
    _, catalog = corpus.b3()
    samples = {1: [(1,), (3,)], 2: [(1, 2), (2, 0)], 3: [(1, 2, 3), (0, 1, 4)]}
    for fam in catalog:
        for params in samples[fam.nparams]:
            pt = brute.family_point(fam, params, 5)
            assert sum(pt.exponents) % pt.order == 0
            assert fam.contains(pt)


def test_translated_family_meets_order_two_points():
    _, catalog = corpus.b3()
    omega = next(f for f in catalog if f.name == "Omega")
    qplus = TorusPoint((0, 1, 1, 0, 0, 1, 0, 1), 2)
    qminus = TorusPoint((1, 0, 0, 1, 0, 1, 0, 1), 2)
    assert brute.family_point(omega, (0,), 1) == qplus
    assert brute.family_point(omega, (1,), 2) == qminus
    assert omega.contains(qplus) and omega.contains(qminus)
    c5678 = next(f for f in catalog if f.name == "C_5678")
    assert not c5678.contains(qplus)  # q2 != 1 there


def test_h1_at_point_matches_any_chart():
    proj, _ = corpus.b3()
    pts = [
        TorusPoint((0, 1, 1, 0, 0, 1, 0, 1), 2),
        TorusPoint((0, 0, 0, 0, 1, 1, 1, 2), 5),
        TorusPoint((1, 2, 3, 0, 1, 2, 0, 3), 4),
    ]
    for pt in pts:
        dims = set()
        for h in range(8):
            if pt.exponents[h] % pt.order == 0:
                continue
            chart = proj.chart(h)
            exps = [pt.exponents[o] for o in chart.to_old]
            system = make_local_system(exps, order=pt.order)
            dims.add(cohomology_dims(system, chart.arrangement)[1])
        assert dims == {h1_at_point(proj, pt)}


def test_h1_at_trivial_point_rejected():
    proj, _ = corpus.b3()
    with pytest.raises(ValueError, match="trivial"):
        h1_at_point(proj, TorusPoint((0,) * 8, 2))


@pytest.mark.parametrize(
    "exponents",
    [
        (0, 0, 0, 0, 1, 1, 1),  # seven of the eight lines
        (0, 0, 0, 0, 1, 1, 1, 0, 1),  # a ninth exponent
        (0, 0, 0, 0, 1, 1, 1, 2),  # a sum off 0 mod 3
    ],
    ids=["seven", "nine", "sum"],
)
def test_h1_at_point_refuses_points_off_the_torus(exponents):
    # each was answered as the point (0, 0, 0, 0, 1, 1, 1, 0) of C_5678
    proj, _ = corpus.b3()
    assert h1_at_point(proj, TorusPoint((0, 0, 0, 0, 1, 1, 1, 0), 3)) == 2
    with pytest.raises(ValueError, match="not a torus point of 8 lines"):
        h1_at_point(proj, TorusPoint(exponents, 3))


@pytest.mark.parametrize(
    "exponents, order",
    [
        ((0, 0, 0, 0, 1.5, 1, 0.5, 0), 3),  # truncated, (0, 0, 0, 0, 1, 1, 0, 0)
        ((0, 0, 0, 0, 1, 1, 1, 0), 3.0),
        ((0, 0, 0, 0, 1.0, 1, 1, 0), 3),
    ],
    ids=["fractional", "float_order", "integral_float"],
)
def test_h1_at_point_refuses_non_integers(exponents, order):
    # the fractional point was answered with h1 = 2, though its truncation
    # is not even a torus point; h1_at_point reads integers only
    proj, _ = corpus.b3()
    with pytest.raises(ValueError, match="must be integers"):
        h1_at_point(proj, TorusPoint(exponents, order))


@pytest.mark.parametrize("order", [2.0, 2.5, "2"])
def test_scan_refuses_a_non_integer_order(order):
    # 2.0 met a TypeError from the field width; every non-integer order is
    # bad input, a ValueError, before any point is listed
    proj, _ = corpus.b3()
    with pytest.raises(ValueError, match="torsion order must be an integer"):
        torsion_scan(proj, order)


@pytest.mark.parametrize("arrangement", ["built_in", "relabelled", "seed_1", "seed_7"])
def test_band_route_runs_once_per_automorphism_orbit(arrangement, monkeypatch):
    # the band route runs 4, 9, 17 and 12 times at N = 2, 3, 4 and 5, once
    # per orbit under the units and the 8 automorphisms (the module
    # docstring's count at N = 5), whatever the line numbering: built in,
    # ``corpus.relabel`` (infinity moved to line 2), and two shuffles that
    # keep line 0 and move the others, as the benchmark's seeds do
    proj, _ = corpus.b3()
    if arrangement == "relabelled":
        proj, _ = corpus.relabel(*corpus.b3())
    elif arrangement != "built_in":
        rest = list(range(1, 8))
        random.Random(int(arrangement[5:])).shuffle(rest)
        proj, _ = corpus.relabel(*corpus.b3(), perm=(0, *rest))
    real = charvar.h1_at_point
    calls = []

    def spy(proj, point, **kwargs):
        calls.append(point)
        return real(proj, point, **kwargs)

    monkeypatch.setattr(charvar, "h1_at_point", spy)
    counts = []
    for order in (2, 3, 4, 5):
        calls.clear()
        torsion_scan(proj, order)
        counts.append(len(calls))
    assert counts == [4, 9, 17, 12]


SYMMETRIC_FILES = {
    "b3": lambda: corpus.b3()[0],
    "a3": corpus.a3,
    "grid12": lambda: cone(Arrangement(corpus.GRID_LINES)),
}


@pytest.mark.parametrize("name, size", [("b3", 8), ("a3", 24), ("grid12", 24)])
def test_automorphisms_form_a_group(name, size):
    # the walk's pruning needs a group: closed under composition and
    # inverse, the identity first
    group = SYMMETRIC_FILES[name]().automorphisms()
    members = set(group)
    assert len(members) == len(group) == size
    assert group[0] == tuple(range(len(group[0])))
    for sigma in group:
        inverse = [0] * len(sigma)
        for i, s in enumerate(sigma):
            inverse[s] = i
        assert tuple(inverse) in members
        assert all(tuple(sigma[t] for t in tau) in members for tau in group)


@pytest.mark.parametrize("name", sorted(SYMMETRIC_FILES))
def test_no_class_least_set_lies_under_a_pruned_node(name):
    # over every set R of multiple points, the least set of each class
    # under the automorphisms has no pruned node on its path from the root
    # (the nodes that decide the points below k as R does); on these three
    # files the walk prunes some node on the path of every other set
    proj = SYMMETRIC_FILES[name]()
    npoints = len(incidence_table(proj).points)
    perms = brute.point_permutations(proj)
    least = 0
    for resonant in range(1 << npoints):
        path = [
            charvar._pruned(proj, k, resonant & (1 << k) - 1)
            for k in range(npoints + 1)
        ]
        if brute.is_class_least(perms, resonant, npoints):
            least += 1
            assert not any(path), (resonant, path)
        else:
            assert any(path), resonant
    # one least set per class: Burnside's count of the classes, the sets
    # each permutation fixes (2^cycles) averaged over the group
    fixed = sum(
        2 ** len({frozenset(_cycle(pi, q)) for q in range(npoints)}) for pi in perms
    )
    assert least * len(perms) == fixed


def _cycle(pi, q):
    """The cycle of the permutation ``pi`` through ``q``."""
    cycle, r = [q], pi[q]
    while r != q:
        cycle.append(r)
        r = pi[r]
    return cycle


def test_cold_grid_scan_builds_fewer_node_forms(monkeypatch):
    # a cold scan of the grid12 cone at N = 3 builds 1,701 node forms where
    # a walk without pruning built 7,178: a pruned node builds none
    calls = []
    real = charvar._diagonal_form

    def counting(rows, cols):
        calls.append(len(rows))
        return real(rows, cols)

    monkeypatch.setattr(charvar, "_diagonal_form", counting)
    hits = torsion_scan(SYMMETRIC_FILES["grid12"](), 3)
    assert len(hits) == 906
    assert len(calls) == 1701 < 7178


def _spanned(gens, steps, order, width, top):
    """The points of ``_span``'s lists one after the other, checking that
    no list holds more than ``_LISTED``."""
    for points in _span(gens, steps, order, width, top):
        assert len(points) <= charvar._LISTED
        yield from points


def _listed_spans(proj, order):
    """Per span ``candidate_points`` lists at ``order``, ``(gens, steps,
    cols, dense_steps)``: the local family of the first point of each
    class of multiple points, ``cols`` the dense columns e_j - e_last over
    the lines, and each node ``_frontier`` lists, ``cols``
    all the dense columns ``brute.node_columns`` gives and ``dense_steps``
    theirs, d_i = 1 included; then the field width and the top bits it
    passes."""
    table = incidence_table(proj)
    width = _field_width(max(order, 2 * -(-len(table.points) // charvar._CHUNK)))
    state = charvar._scan_state(proj)
    fields = state.layout(proj, width)
    spans = []
    # the first point of each class of multiple points lists its family
    perms = brute.point_permutations(proj)
    firsts = [q for q in range(len(table.points)) if min(pi[q] for pi in perms) == q]
    classes = state.classes
    assert len(classes) == len(firsts)
    for q, (gens, _, _) in zip(firsts, classes):
        p = table.points[q]
        cols = [[int(i == j) - int(i == p[-1]) for i in range(proj.n)] for j in p[:-1]]
        spans.append((gens, [1] * len(cols), cols, [1] * len(cols)))
    for k, inside, _ in charvar._frontier(proj, order, 10**12, 0):
        _, _, _, divisors, gens = state.node(proj, k, inside)
        d, cols = brute.node_columns(proj, k, inside)
        steps = [order // gcd(v, order) for v in divisors]
        dense = [order // gcd(v, order) for v in d] + [1] * (len(cols) - len(d))
        spans.append((gens, steps, cols, dense))
    return spans, width, fields[0]


@pytest.mark.parametrize("name", ["b3", "sharp_pair_cone"])
def test_sparse_spans_equal_the_dense_reference(name, monkeypatch):
    # each generator packed from its nonzero entries lists the same points,
    # in the same order, as the dense packing of every field of every
    # column (``brute.span``), on every local family and listed node at
    # N = 2 to 12.  On deleted B3 also at N = 128, 16-bit fields: the first
    # 20,000 points of each span (the quadruple point's family has
    # 2,097,151), past the odometer's first carry of every digit but the
    # last of that family.  The coned file walks up to 17,000 nodes an
    # order, past the node cache, so the test keeps them all on a fresh
    # arrangement (75 MB): nodes do not depend on N, so each is made once
    monkeypatch.setattr(charvar, "_CACHED_NODES", 10**5)
    if name == "b3":
        proj, orders = corpus.b3()[0], [*range(2, 13), 128]
    else:
        proj, orders = cone(corpus.sharp_pair_arrangement()), range(2, 13)
    for order in orders:
        spans, width, top = _listed_spans(proj, order)
        assert width == (8 if order < 128 else 16)
        for gens, steps, cols, dense_steps in spans:
            stepping = [col for col, step in zip(cols, dense_steps) if step < order]
            assert [g for g, step in zip(gens, steps) if step < order] == [
                _sparse(col) for col in stepping
            ]
            sparse = islice(_spanned(gens, steps, order, width, top), 20_000)
            dense = islice(brute.span(cols, dense_steps, order, width, top), 20_000)
            assert list(sparse) == list(dense)


def test_scan_records_equal_constructed_records(monkeypatch):
    # hits and band-route points come from the constructors, whose
    # ``__init__`` sets each slot through its descriptor; they compare,
    # hash, print, pickle and refuse assignment like records built by
    # keyword, and ``dataclasses.replace`` and ``fields`` read them
    proj, catalog = corpus.b3()
    sent = []
    real = charvar.h1_at_point

    def spy(proj, point, **kwargs):
        sent.append(point)
        return real(proj, point, **kwargs)

    monkeypatch.setattr(charvar, "h1_at_point", spy)
    hits = torsion_scan(proj, 3, catalog=catalog)
    assert len(hits) == 114 and len(sent) == 9
    for point in sent + [hit.point for hit in hits]:
        built = TorusPoint(tuple(point.exponents), point.order)
        assert type(point) is TorusPoint
        assert point == built and hash(point) == hash(built)
        assert repr(point) == repr(built)
        with pytest.raises(FrozenInstanceError):
            point.order = 4
    for hit in hits:
        point = TorusPoint(exponents=hit.point.exponents, order=3)
        built = ScanHit(point=point, h1=hit.h1, families=hit.families)
        assert type(hit) is ScanHit
        assert hit == built and hash(hit) == hash(built) and repr(hit) == repr(built)
        with pytest.raises(FrozenInstanceError):
            hit.families = ()
        copy = pickle.loads(pickle.dumps(hit))
        assert copy == built and hash(copy) == hash(built) and repr(copy) == repr(built)
        moved = replace(hit, h1=2)
        assert type(moved) is ScanHit and moved.h1 == 2
        assert (moved.point, moved.families) == (hit.point, hit.families)
        assert replace(hit.point, order=6) == TorusPoint(hit.point.exponents, 6)
    assert [f.name for f in fields(ScanHit)] == ["point", "h1", "families"]
    assert [f.name for f in fields(TorusPoint)] == ["exponents", "order"]


@pytest.mark.parametrize("order", range(2, 9))
def test_scan_points_are_torus_points(order):
    # every point a scan can send to ``h1_at_point`` passes its check
    projs = [corpus.b3()[0]] + [cone(corpus.sharp_pair_arrangement())] * (order == 3)
    for proj in projs:
        for exps, _ in candidate_points(proj, order):
            assert len(exps) == proj.n
            assert sum(exps) % order == 0


def test_scan_small_orders():
    proj, catalog = corpus.b3()
    assert torsion_scan(proj, 1) == []
    hits = torsion_scan(proj, 2, catalog=catalog)
    exps = {h.point.exponents for h in hits}
    assert (0, 1, 1, 0, 0, 1, 0, 1) in exps
    assert (1, 0, 0, 1, 0, 1, 0, 1) in exps
    by_exps = {h.point.exponents: h for h in hits}
    assert by_exps[(0, 1, 1, 0, 0, 1, 0, 1)].h1 == 2
    assert by_exps[(1, 0, 0, 1, 0, 1, 0, 1)].h1 == 2
    assert all(h.families for h in hits)
    assert all(len(by_exps[q].families) == 4 for q in FOUR_FAMILY_POINTS)
    assert_two_sided(hits, catalog, 2)


def test_scan_order_three_hits_stay_in_catalog():
    proj, catalog = corpus.b3()
    hits = torsion_scan(proj, 3, catalog=catalog)
    assert hits and all(h.families for h in hits)
    assert_two_sided(hits, catalog, 3)


def test_scan_order_four_hits_stay_in_catalog():
    proj, catalog = corpus.b3()
    hits = torsion_scan(proj, 4, catalog=catalog)
    assert hits and all(h.families for h in hits)
    assert_two_sided(hits, catalog, 4)


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("arrangement", [corpus.b3, corpus.b3_relabelled])
def test_orbit_scan_matches_per_point_scan(arrangement, order):
    # the reference orbit scan and the stratum scan both equal the band
    # kernel at every grid point; at N = 2 the walk lists its root node
    # whole, so every (B) point is tested in the lists of one span
    proj, catalog = arrangement()
    hits = brute.grid_scan(proj, order, catalog)
    assert brute.orbit_scan(proj, order, catalog) == hits
    assert torsion_scan(proj, order, catalog=catalog) == hits


def test_scan_order_five_hits_stay_in_catalog():
    proj, catalog = corpus.b3()
    hits = torsion_scan(proj, 5, catalog=catalog)
    assert len(hits) == 388
    assert all(h.families for h in hits)
    assert_two_sided(hits, catalog, 5)


def test_scan_order_six_meets_translated_component():
    # Omega is a half-period translate, so its torsion points have even
    # order; the order-6 scan must meet all six of order dividing 6
    proj, catalog = corpus.b3()
    hits = torsion_scan(proj, 6, catalog=catalog)
    assert len(hits) == 600
    assert all(h.families for h in hits)
    assert_two_sided(hits, catalog, 6)
    omega = next(f for f in catalog if f.name == "Omega")
    on_omega = {h.point for h in hits if "Omega" in h.families}
    assert len(on_omega) == 6
    assert on_omega == {brute.family_point(omega, (t,), 6) for t in range(6)}


def test_scan_order_seven_hits_stay_in_catalog():
    proj, catalog = corpus.b3()
    hits = torsion_scan(proj, 7, catalog=catalog)
    assert len(hits) == 870
    assert all(h.families for h in hits)
    assert_two_sided(hits, catalog, 7)


@pytest.mark.parametrize(
    "order, count", [(8, 1206), (9, 1608), (10, 2092), (11, 2650), (12, 3306)]
)
def test_scan_high_orders_are_the_catalog(order, count):
    proj, catalog = corpus.b3()
    hits = torsion_scan(proj, order, catalog=catalog)
    assert len(hits) == count
    assert all(h.families for h in hits)
    assert_two_sided(hits, catalog, order)


@pytest.mark.parametrize("order", range(2, 7))
def test_a3_scan_is_five_two_tori(order):
    # the A3 cone has 24 automorphisms; its jump locus is the local 2-torus
    # of each of its four triple points and one more, pairwise meeting at
    # 1 only, with h1 = 1 on all five
    proj = corpus.a3()
    assert len(proj.automorphisms()) == 24
    hits = torsion_scan(proj, order)
    assert len(hits) == 5 * (order**2 - 1)
    assert all(h.h1 == 1 for h in hits)
    assert hits == brute.orbit_scan(proj, order)


@pytest.mark.parametrize("order", range(2, 7))
def test_pappus_scan_is_ten_two_tori(order):
    # the nine lines dual to a Pappus configuration, coned: nine triple
    # points and 3 automorphisms; 10 (N^2 - 1) hits, all with h1 = 1, as
    # the reference scan over the whole grid finds
    text = (Path(__file__).parent / "golden" / "pappus.txt").read_text()
    proj = cone(parse_arrangement(text))
    assert len(proj.automorphisms()) == 3
    assert sorted(len(p) for p in incidence_table(proj).points) == [3] * 9
    hits = torsion_scan(proj, order)
    assert len(hits) == 10 * (order**2 - 1)
    assert all(h.h1 == 1 for h in hits)
    if order <= 3:
        assert hits == brute.orbit_scan(proj, order)


@pytest.mark.parametrize("cost", [0, 4, 1 << 40])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_candidate_points_are_the_points_not_certified_zero(
    monkeypatch, order, cost
):
    # on every grid point of relabelled deleted B3: listed exactly when
    # the certificates do not give 0, once, with the certified value, or
    # None when they decide nothing; whether the walk lists every set of
    # multiple points (cost 0), the whole grid at once or in between
    monkeypatch.setattr(charvar, "_NODE_COST", cost)
    proj, _ = corpus.b3_relabelled()
    assert_candidates_are_uncertified(proj, order)


def assert_candidates_are_uncertified(proj, order):
    """``candidate_points`` lists each point at most once, and the orbit
    closure of its listing under the units and the automorphisms is each
    nontrivial grid point of ``proj`` at which the certificates do not
    give 0, with the certified value or None, and no other point."""
    table = incidence_table(proj)
    listing = list(candidate_points(proj, order))
    listed = brute.orbit_closure(proj, order, listing)
    assert len(dict(listing)) == len(listing)
    expected = {}
    for affine in product(range(order), repeat=proj.n - 1):
        if not any(affine):
            continue
        exps = list(affine)
        exps.insert(proj.infinity_index, -sum(affine) % order)
        dim = brute.certified_h1(table, exps, order)
        if dim != 0:
            expected[tuple(exps)] = dim
    assert listed == expected


@pytest.mark.parametrize(
    "arrangement, order",
    [
        (corpus.sharp_pair_arrangement(), 2),
        (corpus.sharp_pair_arrangement(), 3),
        # the grid file at order 3 checks 531,441 points, over 10 s
        (Arrangement(corpus.GRID_LINES), 2),
    ],
    ids=["sharp_pair-2", "sharp_pair-3", "grid-2"],
)
def test_candidate_points_on_files_with_many_multiple_points(arrangement, order):
    # the (B) test's table of resonant-point masks meets keys that deleted
    # B3's seven multiple points never make
    proj = cone(arrangement)
    assert len(incidence_table(proj).points) >= 13
    assert_candidates_are_uncertified(proj, order)


def _kernel_mod(rows, ncols, order):
    """Every x in (Z/N)^ncols with rows * x = 0 mod N, by the grid."""
    return {
        x
        for x in product(range(order), repeat=ncols)
        if all(sum(a * b for a, b in zip(row, x)) % order == 0 for row in rows)
    }


def test_diagonal_form_and_span_list_the_kernel_mod_n():
    # the columns of the diagonal form span the kernel mod N, and the
    # odometer of ``_span`` lists its nonzero points each once, packed in
    # fields of order.bit_length() + 1 bits
    rng = random.Random(5)
    for _ in range(150):
        ncols = rng.randrange(1, 5)
        rows = [
            [rng.randrange(-3, 4) for _ in range(ncols)]
            for _ in range(rng.randrange(0, 5))
        ]
        identity = [[int(i == j) for i in range(ncols)] for j in range(ncols)]
        d, cols = _diagonal_form(rows, identity)
        assert len(d) <= min(len(rows), ncols) and all(d)
        for order in (2, 4, 6):
            steps = [order // gcd(v, order) for v in d] + [1] * (ncols - len(d))
            ys = list(product(*(range(0, order, step) for step in steps)))
            listed = {
                tuple(sum(map(mul, y, row)) % order for row in zip(*cols)) for y in ys
            }
            assert len(listed) == len(ys)
            assert listed == _kernel_mod(rows, ncols, order)
            width = order.bit_length() + 1
            top = brute.pack([1 << width - 1] * ncols, width)
            spanned = [
                tuple(point >> width * j & ~(-1 << width) for j in range(ncols))
                for point in _spanned(list(map(_sparse, cols)), steps, order, width, top)
            ]
            assert len(spanned) == len(set(spanned)) == len(ys) - 1
            assert set(spanned) == listed - {(0,) * ncols}


def test_field_widths_stop_where_every_backend_does():
    assert [_field_width(n) for n in (1, 127, 128, 2**15 - 1, 2**15)] == [
        8, 8, 16, 16, 32
    ]
    assert _field_width(2**63 - 1) == 64
    with pytest.raises(LocalSystemError, match="every backend"):
        _field_width(2**63)


@pytest.mark.parametrize("order", [127, 128, 255, 257, 1000])
def test_span_lists_the_kernel_mod_n_at_the_byte_widths(order):
    # the byte-aligned fields of the scan (8 bits up to 127, then 16) over
    # random kernels of 2 to 20,000 points (one or two generators, counts
    # past ``_LISTED``, whose points are listed one at a time), against
    # the ``product`` listing of y; alone and under a top mask with two
    # more fields, as ``candidate_points`` passes
    width = _field_width(order)
    assert width == (8 if order <= 127 else 16)
    rng = random.Random(order)
    checked = 0
    while checked < 12:
        ncols = rng.randrange(2, 5)
        rows = [
            [rng.randrange(-8, 9) * rng.choice((1, 2, 5)) for _ in range(ncols)]
            for _ in range(rng.randrange(1, ncols + 1))
        ]
        identity = [[int(i == j) for i in range(ncols)] for j in range(ncols)]
        d, cols = _diagonal_form(rows, identity)
        steps = [order // gcd(v, order) for v in d] + [1] * (ncols - len(d))
        if not 1 < prod(order // step for step in steps) <= 20_000:
            continue
        checked += 1
        ys = list(product(*(range(0, order, step) for step in steps)))
        listed = {
            tuple(sum(map(mul, y, row)) % order for row in zip(*cols)) for y in ys
        }
        assert len(listed) == len(ys)
        gens = list(map(_sparse, cols))
        for extra in (0, 2):
            top = brute.pack([1 << width - 1] * (ncols + extra), width)
            spanned = [
                tuple(point >> width * j & ~(-1 << width) for j in range(ncols + 2))
                for point in _spanned(gens, steps, order, width, top)
            ]
            assert len(spanned) == len(set(spanned)) == len(ys) - 1
            assert {point[:ncols] for point in spanned} == listed - {(0,) * ncols}
            assert all(point[ncols:] == (0, 0) for point in spanned)


@pytest.mark.parametrize("order", range(2, 13))
def test_orbit_representatives_are_the_orbit_minima(order):
    # the generator of the reference orbit scan in ``brute``
    units = [u for u in range(1, order) if gcd(u, order) == 1]
    for length in range(1, 5):
        minima = {
            min(tuple(u * c % order for c in combo) for u in units)
            for combo in product(range(order), repeat=length)
            if any(combo)
        }
        reps = list(brute.orbit_representatives(order, length))
        assert len(reps) == len(set(reps))
        assert set(reps) == minima


def test_family_torsion_points():
    _, catalog = corpus.b3()
    omega = next(f for f in catalog if f.name == "Omega")
    # Omega's points of order dividing 4: s = i^t, with the two order-2
    # points among them (s = +-1)
    at_four = {TorusPoint(exps, 4) for exps in omega.torsion_exponents(4)}
    assert at_four == {brute.family_point(omega, (t,), 4) for t in range(4)}
    assert set(omega.torsion_exponents(2)) == set(FOUR_FAMILY_POINTS)
    assert not list(omega.torsion_exponents(3))  # its coordinates include -1
    c136 = catalog[0]
    at_three = [TorusPoint(exps, 3) for exps in c136.torsion_exponents(3)]
    assert len(at_three) == 9
    assert all(c136.contains(p) for p in at_three)


# signed families beside the catalog: an Omega-like curve, a signed
# two-parameter family, and a family with no parameters (one point, of
# order 2)
SIGNED_FAMILIES = (
    ComponentFamily(
        name="omega-like",
        signs=(1, 0, 1, 0, 0),
        powers=((1,), (-1,), (2,), (0,), (-2,)),
    ),
    ComponentFamily(
        name="signed-pair",
        signs=(0, 1, 0, 1, 0, 0),
        powers=((1, 0), (0, 1), (-1, -1), (2, 0), (-1, 1), (-1, -1)),
    ),
    ComponentFamily(name="lone-point", signs=(1, 1, 0), powers=((), (), ())),
)


# families with a sign of -1 or 2, the same point sets as with 1 or 0
OFF_SIGN_FAMILIES = (
    ComponentFamily(
        name="omega-like-minus",
        signs=(-1, 0, 1, 0, 0),
        powers=((1,), (-1,), (2,), (0,), (-2,)),
    ),
    ComponentFamily(
        name="minus-pair", signs=(-1, -1, 0, 0), powers=((1,), (0,), (-1,), (0,))
    ),
    ComponentFamily(
        name="squared",
        signs=(2, 0, -1, 1, 0),
        powers=((1, 0), (0, 1), (-1, -1), (0, 0), (0, 0)),
    ),
)


@pytest.mark.parametrize("order", range(2, 7))
def test_torsion_points_are_the_points_contains_accepts(order):
    # over the whole grid [0, N)^n, for signs in {-1, 0, 1, 2}: the start
    # vector of the odometer, every parameter 0, is reduced mod m too
    for fam in SIGNED_FAMILIES + OFF_SIGN_FAMILIES:
        accepted = {
            exps
            for exps in product(range(order), repeat=fam.nlines)
            if fam.contains(TorusPoint(exps, order))
        }
        assert set(fam.torsion_exponents(order)) == accepted, fam.name


def test_a_sign_of_minus_one_names_the_points_of_its_family():
    # Omega with sign -1 on H2 has Omega's points, and a scan with it as
    # the catalog names every hit Omega names, its order-2 point included
    proj, catalog = charvar.deleted_b3()
    omega = catalog[-1]
    flipped = ComponentFamily(
        name="Omega-", signs=(0, -1, 1, 0, 0, 1, 0, 1), powers=omega.powers
    )
    assert next(flipped.torsion_exponents(2)) == FOUR_FAMILY_POINTS[0]
    for order in (2, 4, 8):
        half = order // 2
        point = TorusPoint((0, half, half, 0, 0, half, 0, half), order)
        named = {
            hit.point: hit.families
            for hit in torsion_scan(proj, order, catalog=(flipped,))
        }
        assert flipped.contains(point) and named[point] == ("Omega-",)
        assert named == {
            hit.point: ("Omega-",) * len(hit.families)
            for hit in torsion_scan(proj, order, catalog=(omega,))
        }


@pytest.mark.parametrize("order", range(1, 13))
def test_torsion_points_equal_the_doubled_grid(order):
    # the m-grid of ``torsion_exponents`` against the 2N-grid reference and
    # its odometer against the ``product`` enumeration of the m-grid, for
    # the thirteen catalog families (Omega has signs: m = 2N at odd N, a
    # lift of 2) and the signed families beside them
    _, catalog = corpus.b3()
    assert len(catalog) == 13
    for fam in catalog + SIGNED_FAMILIES:
        listed = list(fam.torsion_exponents(order))
        assert len(listed) == len(set(listed))
        points = {TorusPoint(exps, order) for exps in listed}
        assert points == brute.family_torsion_points(fam, order)
        reference = brute.torsion_exponents(fam, order)
        assert sorted(listed) == sorted(reference)
        # in the same order too: an odometer that drops its wrap steps
        # shifts each inner cycle, which lists the same set in another order
        assert listed == reference


@pytest.mark.parametrize("order", range(2, 7))
def test_a_family_reads_its_signs_by_parity(order):
    # signs (2, 0, 0) give the family of (0, 0, 0): the same modulus (an
    # even sign once doubled it, 2N tuples walked at odd N), the same
    # points, the same membership on the torus [0, N)^3, and N parameter
    # tuples charged to a scan's budget; the three lines of ``generic``
    # meet in no multiple point, so the budget pays for nothing else but
    # the walk's root node
    powers = ((1,), (0,), (-1,))
    even = ComponentFamily(name="even", signs=(2, 0, 0), powers=powers)
    plain = ComponentFamily(name="plain", signs=(0, 0, 0), powers=powers)
    assert even._modulus(order) == plain._modulus(order) == order
    assert set(even.torsion_exponents(order)) == set(plain.torsion_exponents(order))
    for exps in product(range(order), repeat=3):
        if sum(exps) % order == 0:
            point = TorusPoint(exps, order)
            assert even.contains(point) == plain.contains(point)
    generic = cone(Arrangement([(1, 0, 0), (0, 1, 0)]))
    with pytest.raises(BudgetExceededError):
        torsion_scan(generic, order, budget=order, catalog=(even,))
    assert torsion_scan(generic, order, budget=order + 1, catalog=(even,)) == []


@pytest.mark.parametrize(
    "order, message",
    [
        (0, "must be >= 1, not 0"),
        (-2, "must be >= 1, not -2"),
        (2.0, "must be an integer, not 2.0"),
    ],
)
def test_a_family_refuses_orders_below_one_and_non_integers(order, message):
    # order 0 divided by zero and order -2 listed vectors such as
    # (0, 0, -1, 0, 0, -1, 0, 0) on C_136; -3 was a member at exponents 0
    _, catalog = charvar.deleted_b3()
    c136 = catalog[0]
    with pytest.raises(ValueError, match=message):
        list(c136.torsion_exponents(order))
    with pytest.raises(ValueError, match=message):
        c136.contains(TorusPoint((0,) * 8, order))
    with pytest.raises(ValueError, match="must be >= 1, not -3"):
        c136.contains(TorusPoint((0,) * 8, -3))


def test_a_family_hashes_its_signs_and_powers_once():
    # the hash is taken once from the integer tuples (signs, powers), so a
    # pickled family hashes alike; a replaced field gets its own hash, and
    # equality still reads the name
    _, catalog = corpus.b3()
    for fam in catalog:
        assert fam._hash == hash(fam) == hash((fam.signs, fam.powers))
        copy = pickle.loads(pickle.dumps(fam))
        assert copy == fam and hash(copy) == hash(fam)
        renamed = replace(fam, name="renamed")
        assert renamed != fam and hash(renamed) == hash(fam)
    omega = catalog[-1]
    flipped = replace(omega, signs=(0, -1, 1, 0, 0, 1, 0, 1))
    assert flipped._hash == hash(flipped) == hash((flipped.signs, omega.powers))
    assert flipped != omega


@pytest.mark.parametrize("order", [8, 12, 16])
def test_scan_names_are_the_families_containing_the_hit(order):
    proj, catalog = corpus.b3()
    for hit in torsion_scan(proj, order, catalog=catalog):
        assert hit.families == tuple(f.name for f in catalog if f.contains(hit.point))


def _merged_index(catalog, order):
    """exponents -> the names of the catalog's families through them."""
    names = {}
    for fam in catalog:
        for exps in fam.torsion_exponents(order):
            names[exps] = names.get(exps, ()) + (fam.name,)
    return names


@pytest.mark.parametrize("relabelled", [False, True], ids=["built_in", "relabelled"])
def test_kept_catalog_points_change_no_scan_and_no_family(relabelled):
    # a catalog's index is kept on the arrangement per order; scanned at
    # orders 4, 2 and 4 in turn, it names every hit as a freshly built
    # catalog does, and afterwards its families still equal, hash and list
    # their points as fresh ones, and hold nothing more than they do
    def fresh():
        built = charvar.deleted_b3()
        return corpus.relabel(*built) if relabelled else built

    proj, catalog = fresh()
    for order in (4, 2, 4):
        assert torsion_scan(proj, order, catalog=catalog) == torsion_scan(
            proj, order, catalog=fresh()[1]
        )
    for kept, new in zip(catalog, fresh()[1]):
        assert kept == new and hash(kept) == hash(new)
        assert repr(kept) == repr(new)
        assert vars(kept) == vars(new)
        for order in (2, 3, 4):
            assert list(kept.torsion_exponents(order)) == list(
                new.torsion_exponents(order)
            )
    # one index per order scanned, shared by the equal catalogs, each the
    # merge of the families' points, read again as it is
    state = charvar._scan_state(proj)
    ours = {order: (fams, index) for (order, fams), index in state.catalogs.items()}
    assert sorted(ours) == [2, 4]
    for order, (families, index) in ours.items():
        assert families == catalog
        assert index == _merged_index(fresh()[1], order)
        assert state.names(families, order) is index


def test_kept_catalog_points_stay_within_the_bound(monkeypatch):
    # orders 2 to 4 (379 vectors) all stay under the library's bound
    proj, catalog = charvar.deleted_b3()
    for order in (2, 3, 4):
        torsion_scan(proj, order, catalog=catalog)
    kept = charvar._scan_state(proj).catalogs
    assert [key[0] for key in kept] == [2, 3, 4]
    assert [len(index) for index in kept.values()] == [37, 115, 227]
    # under a bound of 128, two catalogs scanned in turn at orders 2 to 6
    # keep at most 128 vectors, the oldest indexes dropped first, and name
    # every hit alike; they are equal, so the second reads the first's index
    monkeypatch.setattr(charvar, "_KEPT_POINTS", 128)
    proj, other = charvar.deleted_b3()
    kept = charvar._scan_state(proj).catalogs
    history = []  # (key, size) of each index that fits, oldest first
    for order in range(2, 7):
        size = len(_merged_index(catalog, order))
        if size <= 128:
            history.append(((order, catalog), size))
        assert torsion_scan(proj, order, catalog=catalog) == torsion_scan(
            proj, order, catalog=other
        )
        total = sum(map(len, kept.values()))
        assert total <= 128
        # the newest fitting indexes, no more dropped than needed
        newest = list(kept)
        assert newest == [key for key, _ in history[len(history) - len(newest) :]]
        if len(newest) < len(history):
            assert total + history[-len(newest) - 1][1] > 128
    # only order 2 (37 vectors) and order 3 (115) fit; the order-3 index
    # fills the bound alone
    assert [key[0] for key in kept] == [3]
    assert [key for key, _ in history] == [(order, catalog) for order in (2, 3)]


def test_kept_thin_masks_stay_within_the_bound(monkeypatch):
    # the (B) table keeps one answer per set of resonant points met; under
    # a bound of 3 it keeps 3 and reads the others off its chunks on every
    # lookup, with the same hits
    proj, catalog = charvar.deleted_b3()
    want = [torsion_scan(proj, order, catalog=catalog) for order in (2, 3, 4)]
    thin = charvar._scan_state(proj).fields[8][6]
    assert isinstance(thin, charvar._ThinMasks) and 3 < len(thin) <= 2**7
    monkeypatch.setattr(charvar, "_KEPT_MASKS", 3)
    proj = charvar.deleted_b3()[0]
    for _ in range(2):
        got = [torsion_scan(proj, order, catalog=catalog) for order in (2, 3, 4)]
        assert got == want
    assert len(charvar._scan_state(proj).fields[8][6]) == 3


def test_equal_catalogs_share_one_index(monkeypatch):
    # two equal catalogs, built apart, scanned in turn: the first scan at
    # each order builds the index, the second reads it, and both name
    # every hit alike
    built = []
    real = charvar._catalog_index

    def counting(families, order):
        built.append(order)
        return real(families, order)

    monkeypatch.setattr(charvar, "_catalog_index", counting)
    proj, catalog = charvar.deleted_b3()
    other = charvar.deleted_b3()[1]
    assert other == catalog and other[0] is not catalog[0]
    for order in (2, 3, 2):
        assert torsion_scan(proj, order, catalog=catalog) == torsion_scan(
            proj, order, catalog=other
        )
    assert built == [2, 3]
    assert list(charvar._scan_state(proj).catalogs) == [(2, catalog), (3, catalog)]


def test_scans_keep_no_empty_index():
    # scans with no catalog, or none of whose families fits the
    # arrangement, or whose families have no point of the order (Omega's
    # coordinates include -1, so it has none at odd N) keep no index,
    # however many orders they scan
    proj, catalog = charvar.deleted_b3()
    misfit = (SIGNED_FAMILIES[0],)  # five lines, not eight
    for order in range(2, 10):
        for families in (None, (), misfit):
            hits = torsion_scan(proj, order, catalog=families)
            assert all(hit.families == () for hit in hits)
    for order in (3, 5, 7):
        hits = torsion_scan(proj, order, catalog=catalog[-1:])
        assert all(hit.families == () for hit in hits)
    assert charvar._scan_state(proj).catalogs == {}


def test_a3_scans_at_two_field_widths_in_turn():
    # orders 3, 130 and 3 pack one byte, two bytes and one byte per field;
    # each scan equals a fresh arrangement's, so the layout and (B) table
    # kept per width on the arrangement are read at their own width
    proj = corpus.a3()
    for order in (3, 130, 3):
        hits = torsion_scan(proj, order)
        assert hits == torsion_scan(corpus.a3(), order)
        assert len(hits) == 5 * (order**2 - 1)
    assert set(charvar._scan_state(proj).fields) == {8, 16}


def test_hit_records_are_frozen_and_pickle():
    # the records' own ``__init__`` takes exactly their fields, positional
    # or by keyword, and refuses a missing or unknown one
    point = TorusPoint((1, 0, 0, 1, 0, 1, 0, 1), 2)
    with pytest.raises(TypeError):
        TorusPoint((1, 0, 0, 1, 0, 1, 0, 1))
    with pytest.raises(TypeError):
        ScanHit(point=point, h1=2)
    with pytest.raises(TypeError):
        ScanHit(point, 2, (), dim=2)
    assert TorusPoint(order=2, exponents=point.exponents) == point
    hit = ScanHit(point=point, h1=2, families=("C_(14|23|68)", "Omega"))
    twin = ScanHit(TorusPoint((1, 0, 0, 1, 0, 1, 0, 1), 2), 2, hit.families)
    assert hit == twin and hash(hit) == hash(twin)
    assert hit != ScanHit(point, 1, hit.families)
    assert repr(point) == "TorusPoint(exponents=(1, 0, 0, 1, 0, 1, 0, 1), order=2)"
    assert repr(hit) == (
        f"ScanHit(point={point!r}, h1=2, families=('C_(14|23|68)', 'Omega'))"
    )
    with pytest.raises(FrozenInstanceError):
        point.order = 4
    with pytest.raises(FrozenInstanceError):
        hit.h1 = 1
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for record in (point, hit):
            copy = pickle.loads(pickle.dumps(record, protocol))
            assert copy == record and hash(copy) == hash(record)
            assert repr(copy) == repr(record) and copy is not record


def test_undecided_points_reach_the_band_route(monkeypatch):
    # every line with q != 1 carries at least two resonant multiple points at
    # the two four-family points and at the order-3 point of the braid
    # family C_(14|23|68) where q1 = q2 = zeta_3, so the certificates leave
    # all three to the band kernel: the point itself or some u*(point o sigma),
    # u a unit and sigma an automorphism, which shares its h1
    proj, catalog = corpus.b3()
    table = incidence_table(proj)
    banded = []

    def spy(proj, point, **kwargs):
        banded.append(point)
        return h1_at_point(proj, point, **kwargs)

    monkeypatch.setattr(charvar, "h1_at_point", spy)
    braid = TorusPoint((1, 1, 1, 1, 0, 1, 0, 1), 3)
    cases = [(TorusPoint(q, 2), 2) for q in FOUR_FAMILY_POINTS] + [(braid, 1)]
    chart = proj.chart(proj.infinity_index)
    for point, dim in cases:
        assert brute.certified_h1(table, point.exponents, point.order) is None
        hits = {h.point: h.h1 for h in torsion_scan(proj, point.order)}
        n = point.order
        images = {
            TorusPoint(tuple(u * point.exponents[s] % n for s in sigma), n)
            for sigma in proj.automorphisms()
            for u in range(1, n)
            if gcd(u, n) == 1
        }
        assert images & set(banded) and hits[point] == dim
        system = make_local_system(point.exponents[:7], order=point.order)
        assert cohomology_dims(system, chart.arrangement)[1] == dim
    assert [f.name for f in catalog if f.contains(braid)] == ["C_(14|23|68)"]


def test_certificates_decide_every_point_of_a_pencil():
    # three concurrent lines: every chart is two parallel lines, where the
    # band kernel cannot run, and the certificate of the one multiple point
    # gives h1 = 1 at every nontrivial point
    proj = cone(Arrangement([(1, 0, 0), (1, 0, -1)]))
    hits = torsion_scan(proj, 3)
    assert len(hits) == 8 and all(h.h1 == 1 for h in hits)


def test_scan_budget():
    # at order 5 the budget counts 268 points of the seven local families,
    # 100 points listed from the walk and its 54 nodes; the nodes the walk
    # prunes by the automorphisms are not walked and not counted
    proj, _ = corpus.b3()
    with pytest.raises(BudgetExceededError, match="order-5 scan exceeds the budget"):
        torsion_scan(proj, 5, budget=100)
    with pytest.raises(BudgetExceededError, match="budget 421"):
        torsion_scan(proj, 5, budget=421)
    assert len(torsion_scan(proj, 5, budget=422)) == 388
    # the catalog adds its parameter tuples: 6 * 5^2 local, 5^3 quadruple,
    # 5 * 5^2 braid and 10 of Omega (its parameter runs over Z/10)
    _, catalog = corpus.b3()
    with pytest.raises(BudgetExceededError, match="budget 831"):
        torsion_scan(proj, 5, budget=831, catalog=catalog)
    assert len(torsion_scan(proj, 5, budget=832, catalog=catalog)) == 388
    # the three-line lone-point family holds no point of an eight-line
    # scan and is not counted
    other = catalog + SIGNED_FAMILIES[2:]
    assert torsion_scan(proj, 5, budget=832, catalog=other) == torsion_scan(
        proj, 5, catalog=catalog
    )


def test_over_budget_scan_at_a_large_order_stops_early():
    # the budget is checked before any O(N) work, such as listing the
    # units of Z/N for the band route, which takes 169 MB at N = 10^7
    proj, _ = corpus.b3()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="budget 10 "):
            torsion_scan(proj, 10**7, budget=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_scan_past_the_backend_bound_stops_at_its_first_point():
    # a budget that holds at N = 10^7 lets the walk through; the first
    # listed point then meets the cyclotomic bound, and no list of the
    # local families' N points was built before it
    proj, _ = corpus.b3()
    tracemalloc.start()
    try:
        with pytest.raises(LocalSystemError, match="exceeds the bound 1000"):
            torsion_scan(proj, 10**7, budget=10**30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_scan_backend_independent():
    proj, _ = corpus.b3()
    exact = torsion_scan(proj, 2)
    numeric = torsion_scan(proj, 2, backend="complex")
    assert [(h.point.exponents, h.h1) for h in exact] == [
        (h.point.exponents, h.h1) for h in numeric
    ]


def test_orbit_scan_backend_independent_at_order_three():
    proj, catalog = corpus.b3()
    exact = torsion_scan(proj, 3, catalog=catalog)
    assert torsion_scan(proj, 3, catalog=catalog, backend="complex") == exact
    assert brute.orbit_scan(proj, 3, catalog, backend="complex") == exact


def test_membership_quadruple_point_family():
    proj, catalog = corpus.b3()
    c5678 = next(f for f in catalog if f.name == "C_5678")
    for params in [(1, 2, 3), (1, 1, 1), (2, 1, 4)]:
        assert h1_at_point(proj, brute.family_point(c5678, params, 5)) == 2


def test_membership_translated_component():
    proj, catalog = corpus.b3()
    omega = next(f for f in catalog if f.name == "Omega")
    for params in [(1,), (2,)]:
        assert h1_at_point(proj, brute.family_point(omega, params, 5)) >= 1
    # order-4 parameter lands on (i, i, i, i, -1, -1, -1, -1)
    at_i = brute.family_point(omega, (1,), 4)
    assert at_i == TorusPoint((1, 1, 1, 1, 2, 2, 2, 2), 4)
    assert h1_at_point(proj, at_i) >= 1


def test_case_dichotomies_at_sampled_points():
    # with q5 = q7 = 1, q8 != 1 and the two resonant points 128, 348 on the
    # line at infinity of the standard picture, nonvanishing forces the
    # braid family pairing q1 = q4, q2 = q3 (and conversely)
    proj, catalog = corpus.b3()
    inside = TorusPoint((2, 2, 2, 2, 0, 1, 0, 1), 5)
    outside = TorusPoint((0, 4, 2, 2, 0, 1, 0, 1), 5)
    assert h1_at_point(proj, inside) == 1
    assert [f.name for f in catalog if f.contains(inside)] == ["C_(14|23|68)"]
    assert h1_at_point(proj, outside) == 0
    assert not any(f.contains(outside) for f in catalog)
    # both resonant points on the fifth line resonant but q5 != 1: points
    # off the two braid families and the translated curve have h1 = 0
    stray = TorusPoint((1, 0, 4, 0, 1, 1, 2, 1), 5)
    assert any(stray.exponents)
    assert sum(stray.exponents) % 5 == 0
    assert h1_at_point(proj, stray) == 0
    assert not any(f.contains(stray) for f in catalog)


def test_scan_hits_match_certified_dimensions():
    # braid point of the scan: dimension via certificates where available
    proj, catalog = corpus.b3()
    hits = torsion_scan(proj, 2, catalog=catalog)
    for hit in hits:
        exps = hit.point.exponents
        chart = proj.chart(7) if exps[7] % 2 else None
        if chart is None:
            continue
        system = make_local_system(
            [exps[o] for o in chart.to_old], order=2
        )
        assert cohomology_dims(system, chart.arrangement)[1] == hit.h1
