"""Property tests of the integer chamber enumeration and the projective
intersection points, on random arrangements with parallel classes,
concurrent triples and coefficients with large numerators and
denominators."""

from fractions import Fraction
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from linecoh import Arrangement, cone
from linecoh.geometry import Line, _proj_intersections

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
