"""Property tests of the integer geometry: the canonical triple, the
chamber edge walk, the chambers transported to the flag, affine and
projective intersection points, the flag's axis height, the separating
sets of the complex and band structures and sharp pairs, checked against
the oracles of ``brute`` (sample points, the sign-vector search with
recession rays, Fraction arithmetic, sets of differing signs); and the
invariance of h^1 under the flag variant, the chart and a projective
change of coordinates.  The arrangements have parallel classes,
concurrent triples and coefficients with large numerators and
denominators."""

from fractions import Fraction
from math import comb, gcd
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import brute
from linecoh import (
    Arrangement,
    ProjArrangement,
    cone,
    h1_via_bands,
    make_local_system,
    mincomplex,
    resband,
)
from linecoh.geometry import (
    _affine_intersections,
    _compute_chambers,
    _flag_axis,
    _proj_intersections,
    canonical_triple,
)
from linecoh.mincomplex import cohomology_dims
from linecoh.resband import sharp_pairs, vanishing_certificates
from strategies import BIG, arrangements, pencils

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(arrangements())
def test_chambers_match_bruteforce_and_counts(arr):
    chs = arr.chambers()
    signs = [c.signs for c in chs]
    assert signs == sorted(set(signs))
    assert [c.index for c in chs] == list(range(len(chs)))
    assert set(signs) == brute.chamber_sign_vectors(arr.lines)
    assert len(chs) == brute.chamber_count_formula(arr)
    if arr.intersection_points():
        assert sum(c.bounded for c in chs) == brute.bounded_count_formula(arr)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(arrangements(), pencils()))
def test_chambers_match_reference_enumeration(arr):
    # the edge walk against the sign-vector search with recession rays
    got = []
    for ch in _compute_chambers(arr.lines):
        opp = None if ch.opposite is None else ch.opposite.index
        got.append((ch.signs, ch.bounded, ch.index, opp))
    assert got == brute.chambers(arr.lines)


@PROPERTY_SETTINGS
@given(arrangements())
def test_opposite_is_an_involution_on_unbounded_chambers(arr):
    # with all lines parallel the middle strips are their own opposites
    crossing = bool(arr.intersection_points())
    for ch in arr.chambers():
        if ch.bounded:
            assert ch.opposite is None
            continue
        opp = ch.opposite
        assert opp is not None and not opp.bounded
        assert opp.opposite is ch
        if crossing:
            assert opp is not ch


@PROPERTY_SETTINGS
@given(arrangements())
def test_projective_points_are_exact_canonical_and_sorted(arr):
    triples = cone(arr).lines
    n = len(triples)
    pts = _proj_intersections(triples)
    assert sum(comb(p.multiplicity, 2) for p in pts) == comb(n, 2)
    for p in pts:
        # canonical integer form: primitive, first nonzero entry positive
        assert all(isinstance(v, int) for v in p.coords)
        assert gcd(*p.coords) == 1
        assert next(v for v in p.coords if v) > 0
        on = {
            k
            for k, t in enumerate(triples)
            if sum(u * v for u, v in zip(t, p.coords)) == 0
        }
        assert on == p.incident
    # sorted by the point over its first nonzero entry
    keys = [
        tuple(Fraction(v, next(u for u in p.coords if u)) for v in p.coords)
        for p in pts
    ]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


RATIONALS = st.fractions(max_denominator=10**6) | st.sampled_from(
    [Fraction(0), Fraction(BIG), Fraction(-1, BIG)]
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.tuples(RATIONALS, RATIONALS, RATIONALS).filter(any), RATIONALS.filter(bool))
def test_canonical_triple_is_the_primitive_integer_form(t, k):
    got = canonical_triple(*t)
    assert canonical_triple(*(k * v for v in t)) == got
    assert all(isinstance(v, int) for v in got)
    assert gcd(*got) == 1 and next(v for v in got if v) > 0
    # a positive multiple of t over its first nonzero entry
    lead = next(v for v in t if v)
    scale = next(v for v in got if v)
    assert got == tuple(scale * v / lead for v in t)


@st.composite
def torsion_exponents(draw, n):
    """(order, exponents of n affine lines)."""
    order = draw(st.integers(2, 4))
    return order, draw(st.lists(st.integers(0, order - 1), min_size=n, max_size=n))


@st.composite
def torsion_systems(draw, n):
    order, exps = draw(torsion_exponents(n))
    return make_local_system(exps, order=order)


@PROPERTY_SETTINGS
@given(arrangements())
def test_transported_flag_chambers_match_fresh_enumeration(arr):
    assume(arr.intersection_points())
    for variant in (0, 1):
        fl = arr.flagged(variant)
        fresh = _compute_chambers(fl.lines)
        assert len(fl.chambers) == len(fresh)
        for ch, ref in zip(fl.chambers, fresh):
            assert ch.signs == ref.signs
            assert ch.bounded == ref.bounded
            assert ch.index == ref.index
            if ref.opposite is None:
                assert ch.opposite is None
            else:
                assert ch.opposite.index == ref.opposite.index
            assert ch not in arr.chambers()


@PROPERTY_SETTINGS
@given(arrangements())
def test_affine_points_match_fraction_oracle(arr):
    assert _affine_intersections(arr.lines) == brute.affine_points(arr.lines)


@PROPERTY_SETTINGS
@given(arrangements())
def test_flag_height_matches_fraction_minimum(arr):
    assume(arr.intersection_points())
    for variant in (0, 1, 2):
        p, q, ty, _ = _flag_axis(arr, variant)
        assert ty == brute.flag_height(arr.lines, p, q)


def _reference_sep(chambers, ids):
    return lambda i, j: tuple(sorted(brute.sep(chambers[i], chambers[j], ids)))


def _separating_sets(arr):
    """The separating ids of the complex and band structures of a fresh copy
    of ``arr`` (both are kept on the objects they are built for)."""
    fresh = Arrangement(arr.lines)
    out = [[b.waves for b in resband.bands(fresh)]]
    if fresh.intersection_points():
        cx = mincomplex.complex_structure(fresh.flagged())
        out += [cx.d0, cx.d1, cx.basis2]
    return out


@PROPERTY_SETTINGS
@given(st.one_of(arrangements(), pencils()))
def test_separating_sets_match_sep_reference(arr):
    # the XOR of sign bitmasks against the frozenset of differing signs
    got = _separating_sets(arr)
    with mock.patch.object(mincomplex, "separating_ids", _reference_sep), \
            mock.patch.object(resband, "separating_ids", _reference_sep):
        assert got == _separating_sets(arr)


@PROPERTY_SETTINGS
@given(arrangements(), st.data())
def test_sharp_pairs_match_fraction_oracle(arr, data):
    order, affine = data.draw(torsion_exponents(arr.n))
    proj = cone(arr)
    report = vanishing_certificates(make_local_system(affine, order=order), proj)
    exps = [0] * proj.n
    for j, e in zip(proj.affine_ids(), affine):
        exps[j] = e
    exps[proj.infinity_index] = -sum(affine) % order
    assert sharp_pairs(proj, report) == brute.sharp_pairs(proj, exps, order)


INVARIANCE_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


@INVARIANCE_SETTINGS
@given(arrangements(max_lines=6), st.data())
def test_h1_is_independent_of_flag_variant(arr, data):
    assume(arr.intersection_points())
    system = data.draw(torsion_systems(arr.n))
    dims = cohomology_dims(system, arr)
    for variant in (1, 2):
        assert cohomology_dims(system, arr.flagged(variant)) == dims


def _det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


invertible_matrices = (
    st.lists(st.integers(-2, 2), min_size=9, max_size=9)
    .map(lambda v: (v[0:3], v[3:6], v[6:9]))
    .filter(_det3)
)


@INVARIANCE_SETTINGS
@given(arrangements(max_lines=6), invertible_matrices, st.data())
def test_band_h1_is_independent_of_chart(arr, m, data):
    # a projective change of coordinates m, applied to every row of the
    # cone with the same line kept at infinity, gives the same picture in
    # every chart, the infinity chart included
    system = data.draw(torsion_systems(arr.n))
    proj = cone(arr)
    moved = ProjArrangement(
        [tuple(sum(u * v for u, v in zip(row, t)) for row in m) for t in proj.lines],
        proj.infinity_index,
    )
    for h in range(proj.n):
        count = len(proj.chart(h).arrangement.chambers())
        assert len(moved.chart(h).arrangement.chambers()) == count
    charts = [h for h in range(proj.n) if not system.q_is_one_at(proj, h)]
    assume(charts)
    dims = {
        h1_via_bands(system.on_chart(p, h), p.chart(h).arrangement).dim
        for h in charts
        for p in (proj, moved)
    }
    assert len(dims) == 1
