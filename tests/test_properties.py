"""Property tests of the torus scan and what it relies on: the stratum
scan equals the reference orbit scan of ``brute``, h^1 at a torsion point
is unchanged by Galois conjugation e -> u*e mod N (which the scan's band
route and the reference rely on), by the arrangement's projective
automorphisms e -> e o sigma (which the scan's band route relies on) and
by flipping the square roots of the monodromies, every h^1 the
certificates decide equals the band kernel's and the chamber complex's,
every nontrivial point of a local family has h^1 = |p| - 2 as the scan
lists it, and the bitmask certificates decide line by line as the
per-line reference rule of ``brute`` does."""

import random
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
import corpus
from linecoh import (
    Arrangement,
    ProjArrangement,
    cone,
    h1_at_point,
    h1_via_bands,
    make_local_system,
    torsion_scan,
)
from linecoh.charvar import TorusPoint, candidate_points
from linecoh.mincomplex import cohomology_dims
from linecoh.resband import (
    InvariantError,
    h1_on_band_chart,
    incidence_table,
    vanishing_certificates,
)
from strategies import arrangements

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
CERTIFICATE_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)
SCAN_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def cone_arrangements(draw, max_lines=6):
    """The cone of a hypothesis arrangement of 3 to ``max_lines`` lines
    that meet somewhere, with the line at infinity at a random row."""
    arr = draw(
        arrangements(max_lines, min_lines=3).filter(lambda a: a.intersection_points())
    )
    triples = list(arr.lines)
    inf = draw(st.integers(0, arr.n))
    triples.insert(inf, (0, 0, 1))
    return ProjArrangement(triples, infinity_index=inf)


@st.composite
def torsion_points(draw, max_lines=5, orders=st.integers(2, 6)):
    """A nontrivial point of order N drawn from ``orders`` (2-6 by
    default) on the cone of a hypothesis arrangement of up to
    ``max_lines`` lines that meet somewhere (so no chart has only parallel
    lines), with the line at infinity at a random row."""
    proj = draw(cone_arrangements(max_lines))
    order = draw(orders)
    n = proj.n - 1
    affine = draw(
        st.lists(st.integers(0, order - 1), min_size=n, max_size=n).filter(any)
    )
    exps = list(affine)
    exps.insert(proj.infinity_index, -sum(affine) % order)
    return proj, TorusPoint(tuple(exps), order)


@SCAN_SETTINGS
@given(cone_arrangements(max_lines=7), st.integers(2, 5))
def test_stratum_scan_equals_orbit_scan(proj, order):
    assert torsion_scan(proj, order) == brute.orbit_scan(proj, order)


def test_stratum_scan_equals_orbit_scan_on_grid_cones():
    rng = random.Random(13)
    for size in (5, 5, 6, 6, 6, 6, 7, 7):
        proj = cone(Arrangement(rng.sample(corpus.GRID_LINES, size)))
        for order in (2, 3, 4, 5) if proj.n <= 7 else (2, 3, 4):
            assert torsion_scan(proj, order) == brute.orbit_scan(proj, order)


# thirteen lines of five slopes through points of the integer grid: coned,
# 21 multiple points (20 triple, one quadruple), so the walk over sets of
# them would have 2^21 leaves; at order 2 it lists the grid at once
MANY_POINT_LINES = [
    (1, 0, 0),
    (1, 0, -3),
    (0, 1, -1),
    (0, 1, -4),
    (1, -1, 0),
    (1, -1, 3),
    (1, 1, -4),
    (1, 1, -6),
    (2, -1, -2),
    (2, -1, 0),
    (2, -1, 2),
    (1, -2, 1),
    (1, -2, 4),
]


def test_stratum_scan_equals_orbit_scan_with_21_multiple_points():
    proj = cone(Arrangement(MANY_POINT_LINES))
    assert len(incidence_table(proj).points) == 21
    hits = torsion_scan(proj, 2)
    assert len(hits) == 98
    assert hits == brute.orbit_scan(proj, 2)


@pytest.mark.parametrize("order", range(2, 8))
def test_stratum_scan_equals_orbit_scan_on_relabelled_b3(order):
    proj, catalog = corpus.b3_relabelled()
    hits = torsion_scan(proj, order, catalog=catalog)
    assert hits == brute.orbit_scan(proj, order, catalog)


@PROPERTY_SETTINGS
@given(torsion_points())
def test_h1_is_constant_on_galois_orbits(case):
    proj, point = case
    n = point.order
    dim = h1_at_point(proj, point)
    for u in range(2, n):
        if gcd(u, n) == 1:
            conj = TorusPoint(tuple(u * e % n for e in point.exponents), n)
            assert h1_at_point(proj, conj) == dim


# arrangements with many projective automorphisms: deleted B3 (8), the
# A3 cone (24) and the cone of the unit square's sides and diagonals (24)
SYMMETRIC = {
    "b3": lambda: corpus.b3()[0],
    "a3": corpus.a3,
    "square": lambda: cone(
        Arrangement(
            [(1, 0, 0), (1, 0, -1), (0, 1, 0), (0, 1, -1), (1, -1, 0), (1, 1, -1)]
        )
    ),
}


@st.composite
def symmetric_points(draw):
    """A nontrivial point of order 2-6 on one of ``SYMMETRIC``: a grid point
    or, as often, one of the orbit closure of what ``candidate_points``
    lists, where the certificates give h^1 >= 1 or decide nothing."""
    proj = SYMMETRIC[draw(st.sampled_from(sorted(SYMMETRIC)))]()
    order = draw(st.integers(2, 6))
    if draw(st.booleans()):
        listed = sorted(
            brute.orbit_closure(proj, order, candidate_points(proj, order))
        )
        return proj, TorusPoint(draw(st.sampled_from(listed)), order)
    head = draw(
        st.lists(st.integers(0, order - 1), min_size=proj.n - 1, max_size=proj.n - 1)
    )
    exps = [*head, -sum(head) % order]
    if not any(exps):
        exps[0], exps[1] = 1, order - 1
    return proj, TorusPoint(tuple(exps), order)


@PROPERTY_SETTINGS
@given(symmetric_points())
def test_h1_is_constant_on_automorphism_orbits(case):
    # the scan hands a band-route h1 to every u*(e o sigma); here the band
    # kernel and the chamber complex each give h1(e o sigma) = h1(e)
    proj, point = case
    chart = proj.chart(proj.infinity_index)
    dim = h1_at_point(proj, point)
    group = proj.automorphisms()
    assert len(group) > 1
    for sigma in group:
        moved = TorusPoint(tuple(point.exponents[s] for s in sigma), point.order)
        assert h1_at_point(proj, moved) == dim
        exps = [moved.exponents[old] for old in chart.to_old]
        system = make_local_system(exps, order=point.order)
        assert cohomology_dims(system, chart.arrangement)[1] == dim


@PROPERTY_SETTINGS
@given(torsion_points(), st.data())
def test_h1_ignores_square_root_flips(case, data):
    proj, point = case
    n = point.order
    pivot = next(j for j in range(proj.n) if point.exponents[j] % n)
    chart = proj.chart(pivot)
    exps = [point.exponents[old] for old in chart.to_old]
    flips = data.draw(st.sets(st.integers(0, len(exps) - 1)))
    system = brute.flipped(make_local_system(exps, order=n), flips)
    dim = h1_at_point(proj, point)
    assert h1_via_bands(system, chart.arrangement).dim == dim
    assert cohomology_dims(system, chart.arrangement)[1] == dim


@CERTIFICATE_SETTINGS
@given(torsion_points(max_lines=6), st.booleans())
def test_certified_h1_equals_band_and_oracle_h1(case, with_oracle):
    proj, point = case
    dim = brute.certified_h1(incidence_table(proj), point.exponents, point.order)
    if dim is None:
        return
    assert h1_at_point(proj, point) == dim
    if with_oracle:
        chart = proj.chart(proj.infinity_index)
        exps = [point.exponents[old] for old in chart.to_old]
        system = make_local_system(exps, order=point.order)
        assert cohomology_dims(system, chart.arrangement)[1] == dim


@CERTIFICATE_SETTINGS
@given(cone_arrangements(max_lines=6), st.integers(2, 6))
def test_local_family_points_have_h1_depth(proj, order):
    # every nontrivial point of the local family of a multiple point p has
    # certified h1 = |p| - 2 = the band kernel's, the value the scan lists
    # (on the orbit closure of its listing)
    table = incidence_table(proj)
    listed = brute.orbit_closure(proj, order, candidate_points(proj, order))
    for p in table.points:
        for head in product(range(order), repeat=len(p) - 1):
            if not any(head):
                continue
            exps = [0] * proj.n
            for j, e in zip(p, head):
                exps[j] = e
            exps[p[-1]] = -sum(head) % order
            depth = len(p) - 2
            assert brute.certified_h1(table, exps, order) == depth
            assert h1_at_point(proj, TorusPoint(tuple(exps), order)) == depth
            assert listed[tuple(exps)] == depth


@PROPERTY_SETTINGS
@given(torsion_points(), st.sampled_from(["cyclotomic", "complex"]))
def test_resonance_tests_match_exponent_congruences(case, backend):
    # q_H = 1 and q_X = 1 on the projective lines, the infinity line at any
    # row, are the congruences the certificate route reads off the exponents;
    # the band route's chart is the first line with q != 1 of infinity, 0, 1, ...
    proj, point = case
    exps, n = point.exponents, point.order
    affine = [exps[j] for j in proj.affine_ids()]
    system = make_local_system(affine, order=n, backend=backend)
    halves = system.projective_halves(proj)
    report = vanishing_certificates(system, proj)
    for j in range(proj.n):
        assert system.backend.square_is_one(halves[j]) == (exps[j] % n == 0)
        assert (report.nontrivial >> j & 1) == (exps[j] % n != 0)
    for k, p in enumerate(proj.multiple_points()):
        congruence = sum(exps[j] for j in p.incident) % n == 0
        assert (report.resonant >> k & 1) == congruence
    lines = (proj.infinity_index, *range(proj.n))
    found = h1_on_band_chart(system, proj)
    chart = None if found is None else found[0]
    assert chart == next((j for j in lines if exps[j] % n), None)


@CERTIFICATE_SETTINGS
@given(torsion_points(max_lines=6, orders=st.sampled_from([4, 6, 8])), st.data())
def test_bitmask_certificates_equal_the_per_line_rule(case, data):
    # the masks of the scan and of ``vanishing_certificates`` give, line by
    # line, what the resonant points listed afresh per line give; scaling
    # the exponents by a divisor of N makes resonant points common
    proj, point = case
    n = point.order
    step = data.draw(st.sampled_from([d for d in range(1, n) if n % d == 0]))
    exps = tuple(e * step % n for e in point.exponents)
    rows = brute.line_certificates(proj, exps, n)
    dims = {h1 for _, h1, _ in rows if h1 is not None}
    table = incidence_table(proj)
    system = make_local_system([exps[j] for j in proj.affine_ids()], order=n)
    if len(dims) > 1:
        with pytest.raises(InvariantError):
            brute.certified_h1(table, exps, n)
        with pytest.raises(InvariantError):
            vanishing_certificates(system, proj)
        return
    assert brute.certified_h1(table, exps, n) == (dims.pop() if dims else None)
    report = vanishing_certificates(system, proj)
    # a row's point position k names the sorted lines table.points[k]
    assert [
        (h, h1, None if k is None else table.points[k]) for h, h1, k in report.rows
    ] == [(h, h1, p and tuple(sorted(p.incident))) for h, h1, p in rows]


@pytest.mark.parametrize("order", [2, 3, 4])
def test_bitmask_certificates_at_every_relabelled_b3_point(order):
    # lines of deleted B3 carry two or three multiple points each, so every
    # branch of the rule, two or more resonant points included, is met
    proj, _ = corpus.b3_relabelled()
    table = incidence_table(proj)
    undecided = 0
    for affine in product(range(order), repeat=proj.n - 1):
        exps = list(affine)
        exps.insert(proj.infinity_index, -sum(affine) % order)
        rows = brute.line_certificates(proj, exps, order)
        dims = {h1 for _, h1, _ in rows if h1 is not None}
        assert len(dims) <= 1
        assert brute.certified_h1(table, exps, order) == (dims.pop() if dims else None)
        undecided += bool(rows) and all(h1 is None for _, h1, _ in rows)
    assert undecided

