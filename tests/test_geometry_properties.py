"""Property tests of the integer geometry: chamber enumeration, the
chambers transported to the flag, affine and projective intersection
points and sharp pairs, checked against the Fraction oracles of
``brute``; and the invariance of h^1 under the flag variant and the
chart.  The arrangements have parallel classes, concurrent triples and
coefficients with large numerators and denominators."""

from fractions import Fraction
from math import comb

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import brute
from linecoh import Arrangement, cone, h1_via_bands, make_local_system
from linecoh.geometry import (
    Line,
    _affine_intersections,
    _compute_chambers,
    _proj_intersections,
)
from linecoh.mincomplex import cohomology_dims
from linecoh.resband import sharp_pairs

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

BIG = 10**12 + 1
COEFFS = st.sampled_from(
    [
        Fraction(0),
        Fraction(1),
        Fraction(-1),
        Fraction(2),
        Fraction(-3),
        Fraction(1, 7),
        Fraction(-5, 7),
        Fraction(BIG),
        Fraction(-BIG, 7),
        Fraction(1, BIG),
        Fraction(7, BIG),
    ]
)


@st.composite
def arrangements(draw, max_lines=7):
    """Distinct lines built one at a time: a free line, a line parallel to
    an earlier one, or a line through the crossing of two earlier ones."""
    rows, keys = [], set()
    for _ in range(draw(st.integers(1, max_lines))):
        kind = draw(st.sampled_from(["free", "parallel", "concurrent"]))
        a, b, c = draw(COEFFS), draw(COEFFS), draw(COEFFS)
        if kind == "parallel" and rows:
            pa, pb, _ = draw(st.sampled_from(rows))
            k = draw(COEFFS.filter(bool))
            a, b = k * pa, k * pb
        elif kind == "concurrent" and len(rows) >= 2:
            (a1, b1, c1), (a2, b2, c2) = draw(
                st.lists(st.sampled_from(rows), min_size=2, max_size=2, unique=True)
            )
            det = a1 * b2 - a2 * b1
            if det:
                x0 = (c2 * b1 - c1 * b2) / det
                y0 = (c1 * a2 - c2 * a1) / det
                c = -(a * x0 + b * y0)
        if a == 0 and b == 0:
            continue
        key = Line.canonical(a, b, c, id=0).triple()
        if key not in keys:
            keys.add(key)
            rows.append((a, b, c))
    if not rows:
        rows.append((Fraction(1), Fraction(0), Fraction(0)))
    return Arrangement(rows)


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
        assert all(isinstance(v, Fraction) for v in p.coords)
        assert next(v for v in p.coords if v) == 1
        on = {
            k
            for k, t in enumerate(triples)
            if sum(Fraction(u) * v for u, v in zip(t, p.coords)) == 0
        }
        assert on == p.incident
    coords = [p.coords for p in pts]
    assert coords == sorted(coords) and len(set(coords)) == len(coords)


@st.composite
def torsion_systems(draw, n):
    order = draw(st.integers(2, 4))
    exps = draw(st.lists(st.integers(0, order - 1), min_size=n, max_size=n))
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
@given(arrangements(), st.data())
def test_sharp_pairs_match_fraction_oracle(arr, data):
    system = data.draw(torsion_systems(arr.n))
    proj = cone(arr)
    assert sharp_pairs(system, proj) == brute.sharp_pairs(system, proj)


INVARIANCE_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


@INVARIANCE_SETTINGS
@given(arrangements(max_lines=6), st.data())
def test_h1_is_independent_of_flag_variant(arr, data):
    assume(arr.intersection_points())
    system = data.draw(torsion_systems(arr.n))
    dims = cohomology_dims(system, arr)
    for variant in (1, 2):
        assert cohomology_dims(system, arr, variant) == dims


@INVARIANCE_SETTINGS
@given(arrangements(max_lines=6), st.data())
def test_band_h1_is_independent_of_chart(arr, data):
    system = data.draw(torsion_systems(arr.n))
    proj = cone(arr)
    charts = [h for h in range(proj.n) if not system.q_is_one_at(proj, h)]
    assume(charts)
    dims = {
        h1_via_bands(system.on_chart(proj, h), proj.chart(h).arrangement).dim
        for h in charts
    }
    assert len(dims) == 1
